"""DAG validation and deterministic generation ordering."""

import pytest

from repro.engine.dag import GraphError, StageGraph
from repro.engine.node import StageNode
from repro.engine.stages import PipelineParams, build_graph

pytestmark = pytest.mark.engine


def _fn(params, inputs):  # pragma: no cover - never executed here
    return {}


def node(name, inputs=(), outputs=()):
    return StageNode(name, _fn, inputs=tuple(inputs), outputs=tuple(outputs))


class TestGraphValidation:
    def test_default_output_is_node_name(self):
        assert node("a").outputs == ("a",)

    def test_duplicate_output_declaration_rejected(self):
        with pytest.raises(ValueError, match="duplicate outputs"):
            StageNode("a", _fn, outputs=("x", "x"))

    def test_two_producers_of_one_artifact_rejected(self):
        g = StageGraph([node("a", outputs=("x",)), node("b", outputs=("x",))])
        with pytest.raises(GraphError, match="produced by both"):
            g.generations()

    def test_unknown_input_rejected(self):
        g = StageGraph([node("a", inputs=("ghost",))])
        with pytest.raises(GraphError, match="unknown artifact"):
            g.generations()

    def test_seed_artifacts_satisfy_inputs(self):
        g = StageGraph([node("a", inputs=("ghost",))], seed_artifacts=("ghost",))
        assert [[n.name for n in gen] for gen in g.generations()] == [["a"]]

    def test_cycle_detected(self):
        g = StageGraph(
            [
                node("a", inputs=("bee",), outputs=("ay",)),
                node("b", inputs=("ay",), outputs=("bee",)),
            ]
        )
        with pytest.raises(GraphError, match="cycle"):
            g.generations()

    def test_duplicate_node_names_rejected(self):
        g = StageGraph([node("a", outputs=("x",)), node("a", outputs=("y",))])
        with pytest.raises(GraphError, match="duplicate node names"):
            g.generations()


class TestOrdering:
    def test_diamond_generations(self):
        g = StageGraph(
            [
                node("top"),
                node("left", inputs=("top",)),
                node("right", inputs=("top",)),
                node("bottom", inputs=("left", "right")),
            ]
        )
        gens = [[n.name for n in gen] for gen in g.generations()]
        assert gens == [["top"], ["left", "right"], ["bottom"]]

    def test_generation_order_is_sorted_and_deterministic(self):
        g = StageGraph([node("z"), node("a"), node("m")])
        assert [[n.name for n in gen] for gen in g.generations()] == [["a", "m", "z"]]

    def test_topological_order_flattens_generations(self):
        g = StageGraph(
            [node("b", inputs=("ay",)), node("a", outputs=("ay",))]
        )
        assert [n.name for n in g.topological_order()] == ["a", "b"]


class TestPipelineGraph:
    def test_enrich_and_infer_share_a_generation(self):
        graph = build_graph(PipelineParams())
        gens = [[n.name for n in gen] for gen in graph.generations()]
        assert gens == [
            ["world"],
            ["ingest"],
            ["link"],
            ["enrich", "infer"],
            ["dataset"],
            ["finalize"],
        ]

    def test_prebuilt_world_drops_the_world_node(self):
        graph = build_graph(PipelineParams(), prebuilt_world=True)
        names = {n.name for n in graph.nodes}
        assert "world" not in names
        assert graph.seed_artifacts == ("world",)
        # still a valid DAG with the seed injected
        assert len(graph.generations()) == 5

    def test_execution_policy_stays_out_of_params(self):
        from repro.util.parallel import ParallelConfig

        a = build_graph(PipelineParams())
        b = build_graph(
            PipelineParams(parallel=ParallelConfig(workers=4))
        )
        for na, nb in zip(a.nodes, b.nodes):
            assert na.params == nb.params
