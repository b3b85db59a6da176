"""Supervised DAG execution: retries, deadlines, failure isolation.

Toy graphs with module-level bodies (picklable for worker pools) prove
the supervision contract without the cost of full pipeline runs:

- an unsupervised run keeps the historical fail-fast semantics;
- a supervised failure marks only its downstream as skipped while
  independent branches complete (``EngineRun.failed``/``skipped``);
- results are identical across ``workers=1`` and ``workers=4`` even
  when one node of a generation fails;
- chaos-injected faults retry with virtual-clock backoff and heal;
- hung nodes surface as ``node.timeout`` — virtually under chaos,
  on the wall clock under the deadlines of :func:`parallel_map`.
"""

import time

import pytest

from repro.engine import (
    EngineConfig,
    NodePolicy,
    StageGraph,
    StageNode,
    SupervisorConfig,
    run_dag,
)
from repro.engine.cache import ArtifactCache, CacheWriteError
from repro.faults.chaos import ChaosConfig, ChaosKind, ChaosPlan
from repro.obs import ObsContext
from repro.obs.context import use as obs_use
from repro.util.parallel import DEADLINE_ERROR, ParallelConfig, TaskError, parallel_map

pytestmark = [pytest.mark.engine, pytest.mark.chaos]

NO_RETRY = SupervisorConfig(default=NodePolicy(max_attempts=1))


# ------------------------------------------------------------- node bodies
# module-level so worker processes can pickle them


def _ok_a(params, inputs):
    return {"a": 1}


def _ok_c(params, inputs):
    return {"c": 3}


def _boom(params, inputs):
    raise RuntimeError("boom")


def _downstream(params, inputs):
    return {"down": inputs["boom"] * 2}


def _work(params, inputs):
    return {"work": inputs["a"] + 1}


def _omits(params, inputs):
    return {}  # declared outputs never produced


def _logged_a(params, inputs):
    with open(params, "a") as fh:
        fh.write("a\n")
    return {"a": 1}


def _logged_c(params, inputs):
    with open(params, "a") as fh:
        fh.write("c\n")
    return {"c": 3}


def _sleepy(item):
    time.sleep(item)
    return item


# ------------------------------------------------------------------ graphs


def _failing_graph() -> StageGraph:
    """gen0: a, boom, c (independent); gen1: down (needs boom)."""
    return StageGraph(
        nodes=[
            StageNode(name="a", fn=_ok_a),
            StageNode(name="boom", fn=_boom),
            StageNode(name="c", fn=_ok_c),
            StageNode(name="down", fn=_downstream, inputs=("boom",), outputs=("down",)),
        ]
    )


def _clean_graph() -> StageGraph:
    return StageGraph(
        nodes=[
            StageNode(name="a", fn=_ok_a),
            StageNode(name="c", fn=_ok_c),
            StageNode(name="work", fn=_work, inputs=("a",), outputs=("work",)),
        ]
    )


def _find_chaos(node: str, first: ChaosKind, weights) -> ChaosConfig:
    """A seed whose plan faults exactly ``node``, exactly on attempt 1.

    The other nodes of :func:`_clean_graph` must draw clean so the test
    observes a single injected fault and a single retry.
    """
    others = [n for n in ("a", "c", "work") if n != node]
    for seed in range(5000):
        cfg = ChaosConfig(rate=0.6, seed=seed, node_weights=weights)
        plan = ChaosPlan(cfg)
        if (
            plan.draw_node(node, 1) is first
            and plan.draw_node(node, 2) is None
            and all(plan.draw_node(n, 1) is None for n in others)
        ):
            return cfg
    raise AssertionError(f"no seed faults {node!r} once with {first}")


class TestUnsupervisedContract:
    def test_node_exception_still_aborts(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_dag(_failing_graph(), params={})

    def test_clean_run_has_empty_accounting(self):
        run = run_dag(_clean_graph(), params={})
        assert run.completed
        assert run.failed == {} and run.skipped == {}
        assert run.retries == 0 and run.virtual_time == 0.0
        assert all(r.status == "ok" and r.attempts == 1 for r in run.results)


class TestCacheWriteFailure:
    """A node's entry is saved inside its attempt; a failed save aborts.

    The body already succeeded, so retrying it would only recompute and
    fail the same write: supervised runs raise the typed
    :class:`CacheWriteError` just as unsupervised ones do, after one
    execution of each body.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("supervise", [None, SupervisorConfig()])
    def test_write_error_aborts_without_retrying_the_body(
        self, tmp_path, monkeypatch, workers, supervise
    ):
        def disk_full(path, data):
            raise CacheWriteError(f"atomic write to {path} failed mid-stream: disk full")

        ArtifactCache(tmp_path / "cache")  # meta.json lands before the disk fills
        monkeypatch.setattr("repro.engine.cache._atomic_write", disk_full)
        log = tmp_path / "bodies.log"
        graph = StageGraph(
            nodes=[StageNode(name="a", fn=_logged_a), StageNode(name="c", fn=_logged_c)]
        )
        engine = EngineConfig(
            cache_dir=str(tmp_path / "cache"), workers=workers, supervise=supervise
        )
        with pytest.raises(CacheWriteError, match="disk full"):
            run_dag(graph, params=str(log), engine=engine)
        calls = log.read_text().split()
        assert "a" in calls and len(calls) == len(set(calls))  # none ran twice


class TestFailureIsolation:
    def test_failed_node_skips_only_downstream(self):
        run = run_dag(
            _failing_graph(), params={}, engine=EngineConfig(supervise=NO_RETRY)
        )
        assert run.failed.keys() == {"boom"}
        assert "RuntimeError: boom" in run.failed["boom"]
        assert run.skipped == {"down": "blocked_on:boom"}
        # the independent branches completed untouched
        assert run.artifacts["a"] == 1 and run.artifacts["c"] == 3
        assert not run.completed
        statuses = {r.node: r.status for r in run.results}
        assert statuses == {"a": "ok", "boom": "failed", "c": "ok", "down": "skipped"}

    def test_omitted_declared_output_fails_the_node(self):
        graph = StageGraph(
            nodes=[StageNode(name="liar", fn=_omits, outputs=("liar",))]
        )
        run = run_dag(graph, params={}, engine=EngineConfig(supervise=NO_RETRY))
        assert "liar" in run.failed
        assert "did not produce declared outputs" in run.failed["liar"]

    def test_failed_and_skipped_events_emitted(self):
        obs = ObsContext(seed=1)
        with obs_use(obs):
            run_dag(
                _failing_graph(), params={}, engine=EngineConfig(supervise=NO_RETRY)
            )
        assert [e.name for e in obs.events.by_type("node.failed")] == ["boom"]
        skipped = obs.events.by_type("node.skipped")
        assert [(e.name, e.attrs["blocked_on"]) for e in skipped] == [
            ("down", "boom")
        ]


class TestWorkerCountIndependence:
    """Satellite: identical results across workers=1 vs workers=4 when
    one node of the generation fails mid-run."""

    @staticmethod
    def _snapshot(run):
        return (
            {k: v for k, v in sorted(run.artifacts.items())},
            dict(run.failed),
            dict(run.skipped),
            [(r.node, r.status, r.key, r.cache_hit) for r in run.results],
        )

    def test_parallel_failure_matches_serial(self):
        serial = run_dag(
            _failing_graph(),
            params={},
            engine=EngineConfig(supervise=NO_RETRY, workers=1),
        )
        parallel = run_dag(
            _failing_graph(),
            params={},
            engine=EngineConfig(supervise=NO_RETRY, workers=4),
        )
        assert self._snapshot(parallel) == self._snapshot(serial)

    def test_event_identities_match_across_worker_counts(self):
        # span ids encode the map topology (one pooled call vs N
        # single-item calls), so compare the typed event stream only
        streams = []
        for workers in (1, 4):
            obs = ObsContext(seed=9)
            with obs_use(obs):
                run_dag(
                    _failing_graph(),
                    params={},
                    engine=EngineConfig(supervise=NO_RETRY, workers=workers),
                )
            streams.append(
                [
                    (e.type, e.name, tuple(sorted(e.attrs.items())))
                    for e in obs.events.events
                    if not e.type.startswith("span.")
                ]
            )
        assert streams[0] == streams[1]


class TestChaosRetries:
    def test_injected_exception_heals_on_retry(self):
        chaos = _find_chaos("work", ChaosKind.EXCEPTION, weights=(1.0, 0.0))
        run = run_dag(_clean_graph(), params={}, engine=EngineConfig(chaos=chaos))
        assert run.completed
        assert run.artifacts["work"] == 2
        assert run.retries >= 1
        assert run.virtual_time > 0.0  # backoff was charged
        by_node = {r.node: r for r in run.results}
        assert by_node["work"].attempts == 2

    def test_retry_event_emitted_with_attempt(self):
        chaos = _find_chaos("work", ChaosKind.EXCEPTION, weights=(1.0, 0.0))
        obs = ObsContext(seed=2)
        with obs_use(obs):
            run_dag(_clean_graph(), params={}, engine=EngineConfig(chaos=chaos))
        retries = obs.events.by_type("node.retry")
        assert ("work", 1) in [(e.name, e.attrs["attempt"]) for e in retries]
        injected = obs.events.by_type("fault.injected")
        assert any(e.name == "work" and e.attrs["site"] == "node" for e in injected)

    def test_virtual_hang_becomes_timeout(self):
        chaos = _find_chaos("work", ChaosKind.HANG, weights=(0.0, 1.0))
        obs = ObsContext(seed=3)
        with obs_use(obs):
            run = run_dag(
                _clean_graph(), params={}, engine=EngineConfig(chaos=chaos)
            )
        assert run.completed  # the retry after the hang succeeded
        timeouts = obs.events.by_type("node.timeout")
        assert [e.name for e in timeouts] == ["work"]
        # the clock was charged what a watchdog would have waited
        assert run.virtual_time >= chaos.hang_cost

    def test_exhausted_attempts_fail_deterministically(self):
        chaos = ChaosConfig(rate=1.0, seed=5, node_weights=(1.0, 0.0))
        policy = SupervisorConfig(default=NodePolicy(max_attempts=2))
        a = run_dag(
            _clean_graph(),
            params={},
            engine=EngineConfig(supervise=policy, chaos=chaos),
        )
        b = run_dag(
            _clean_graph(),
            params={},
            engine=EngineConfig(supervise=policy, chaos=chaos),
        )
        assert a.failed and a.failed == b.failed
        assert a.skipped == b.skipped
        assert a.virtual_time == b.virtual_time
        by_node = {r.node: r for r in a.results}
        assert all(
            by_node[n].attempts == 2 for n in a.failed
        )


POOL = ParallelConfig(workers=2, min_items_per_worker=1)


class TestWallWatchdog:
    def test_deadline_cuts_off_hung_task(self):
        results = parallel_map(_sleepy, [0.05, 2.0], POOL, deadlines=[None, 0.3])
        assert results[0] == 0.05
        assert isinstance(results[1], TaskError)
        assert results[1].kind == DEADLINE_ERROR

    def test_no_deadlines_behaves_like_parallel_map(self):
        results = parallel_map(_sleepy, [0.01, 0.02], POOL, deadlines=[None, None])
        assert results == [0.01, 0.02]

    def test_misaligned_deadlines_rejected(self):
        with pytest.raises(ValueError, match="align"):
            parallel_map(_sleepy, [0.01], POOL, deadlines=[None, None])
