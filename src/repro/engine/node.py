"""Stage nodes: the unit of scheduling, fingerprinting, and caching.

A :class:`StageNode` declares what a pipeline stage *is* — its named
inputs and outputs, the module-level function that computes it, the
parameters that affect its result, and a code version — so the engine
can order stages by data dependency, run independent ones concurrently,
and key their artifacts content-addressably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["StageNode", "NodeResult", "StageTime"]


@dataclass(frozen=True)
class StageNode:
    """One declared pipeline stage.

    Attributes
    ----------
    name:
        Unique node name; also the default artifact name.
    fn:
        Module-level callable ``fn(params, inputs) -> dict[str, Any]``
        mapping output names to artifact values.  Must be picklable so
        independent nodes can run in ``parallel_map`` workers.
    inputs:
        Artifact names this node consumes (outputs of upstream nodes, or
        seed artifacts injected into the run).
    outputs:
        Artifact names this node produces; defaults to ``(name,)``.
    params:
        Result-affecting parameters, folded into the node fingerprint.
        Execution policy (worker counts, directories) must not go here.
    version:
        Code version of the stage body; bump on behavioral change to
        invalidate old cache entries.
    cacheable:
        Whether the node's outputs may be served from / stored to the
        artifact cache.
    """

    name: str
    fn: Callable[[Mapping[str, Any], Mapping[str, Any]], dict[str, Any]]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    params: tuple[tuple[str, Any], ...] = ()
    version: str = "1"
    cacheable: bool = True

    def __post_init__(self) -> None:
        if not self.outputs:
            object.__setattr__(self, "outputs", (self.name,))
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError(f"node {self.name!r} declares duplicate outputs")

    @property
    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @staticmethod
    def freeze_params(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
        """Sort a params mapping into the hashable tuple form."""
        return tuple(sorted(params.items()))


@dataclass
class NodeResult:
    """What executing (or cache-loading) one node produced.

    ``status`` is ``"ok"`` (ran or cache-served), ``"failed"`` (a
    supervised node exhausted its attempts) or ``"skipped"`` (an
    upstream failure blocked it); ``attempts`` counts executions
    including retries (always 1 on the unsupervised path).
    """

    node: str
    outputs: dict[str, Any] = field(default_factory=dict)
    cache_hit: bool = False
    key: str = ""
    status: str = "ok"
    attempts: int = 1


@dataclass
class StageTime:
    """One stage's wall time: seconds and entries summed over its repeats.

    A node's entry accumulates its cache load, its executions and its
    supervised re-attempts (a failed attempt adds to ``count`` only:
    its seconds stay in the process that ran it); ``cached`` says the
    last of them was a cache hit, so a near-zero time reads as a load,
    not as work.
    """

    seconds: float = 0.0
    count: int = 0
    cached: bool = False
