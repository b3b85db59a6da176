"""Supervised node execution: retries, deadlines, failure isolation.

An unsupervised run treats any node exception as fatal — correct for a
deterministic in-process pipeline, wrong for the long multi-venue runs
the ROADMAP points at, where a single flaky stage body or hung worker
would throw away hours of completed work.  This module gives every
:class:`~repro.engine.node.StageNode` an execution policy, which the
executor's one attempt loop applies (an unsupervised run is that loop
with one attempt, no chaos and no error capture):

- **bounded retries** with the exponential-backoff-plus-jitter
  discipline of :class:`repro.faults.plan.RetryPolicy`, charged to a
  :class:`~repro.faults.plan.VirtualClock` so no process ever sleeps
  and the accumulated backoff is identical across worker counts;
- **per-node deadlines**, enforced two ways: *virtually* for chaos
  hangs (the plan never blocks, the clock is charged what a watchdog
  would have waited), and on the wall clock by the deadlines of
  :func:`~repro.util.parallel.parallel_map` when real worker processes
  might genuinely wedge;
- **failure isolation**: a node that exhausts its attempts is recorded
  in ``EngineRun.failed`` and only its downstream artifacts are marked
  skipped — independent branches of the generation keep executing.

The supervisor also carries the optional :class:`ChaosPlan` that
injects deterministic engine-level faults (see
:mod:`repro.faults.chaos`), so the retry/isolation machinery is proved
by the same seed discipline it is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.faults.chaos import ChaosConfig, ChaosKind, ChaosPlan, corrupt_bytes
from repro.faults.plan import RetryPolicy, VirtualClock

__all__ = [
    "NodePolicy",
    "SupervisorConfig",
    "Supervisor",
    "IncompleteRunError",
]


@dataclass(frozen=True)
class NodePolicy:
    """How one node is allowed to fail.

    ``max_attempts`` bounds executions (1 = no retries); ``backoff``
    prices the virtual-clock delay between attempts; ``deadline`` is
    the per-attempt time budget in seconds (``None`` = unbounded) —
    charged virtually for chaos hangs, enforced on the wall clock by
    :func:`~repro.util.parallel.parallel_map` when the generation runs
    on worker processes.
    """

    max_attempts: int = 3
    backoff: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")


@dataclass(frozen=True)
class SupervisorConfig:
    """Execution policies for a DAG run: one default, per-node overrides.

    Frozen and picklable like every other config; ``overrides`` is a
    tuple of ``(node_name, policy)`` pairs rather than a dict so the
    dataclass stays hashable.  ``seed`` feeds the backoff jitter.
    """

    default: NodePolicy = field(default_factory=NodePolicy)
    overrides: tuple[tuple[str, NodePolicy], ...] = ()
    seed: int = 0

    def policy(self, node: str) -> NodePolicy:
        for name, pol in self.overrides:
            if name == node:
                return pol
        return self.default


class IncompleteRunError(RuntimeError):
    """A supervised run finished but required artifacts are missing.

    Raised by the pipeline runner when failure isolation kept the DAG
    alive but a failed/skipped node owned an artifact the
    :class:`~repro.pipeline.runner.PipelineResult` cannot exist
    without.  Carries the full accounting so callers can report what
    was lost without re-running.
    """

    def __init__(
        self,
        failed: dict[str, str],
        skipped: dict[str, str],
        missing: Sequence[str] = (),
    ) -> None:
        self.failed = dict(failed)
        self.skipped = dict(skipped)
        self.missing = tuple(missing)
        parts = []
        if failed:
            parts.append(
                "failed: "
                + ", ".join(f"{n} ({r})" for n, r in sorted(failed.items()))
            )
        if skipped:
            parts.append("skipped: " + ", ".join(sorted(skipped)))
        if missing:
            parts.append("missing artifacts: " + ", ".join(sorted(missing)))
        super().__init__(
            "supervised run is incomplete — " + "; ".join(parts or ("unknown",))
        )


class Supervisor:
    """Runtime state of one supervised DAG execution.

    Owns the virtual clock that prices backoff and hangs, the retry /
    timeout counters that flow into ``EngineRun``, and (optionally) the
    chaos plan injecting deterministic faults.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        chaos: ChaosConfig | ChaosPlan | None = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        if isinstance(chaos, ChaosConfig):
            chaos = ChaosPlan(chaos)
        self.chaos = chaos
        self.clock = VirtualClock()
        self.retries = 0
        self.timeouts = 0

    # -------------------------------------------------------------- policies

    def policy(self, node: str) -> NodePolicy:
        return self.config.policy(node)

    # ----------------------------------------------------------------- chaos

    def draw_node(self, node: str, attempt: int) -> ChaosKind | None:
        if self.chaos is None:
            return None
        return self.chaos.draw_node(node, attempt)

    def draw_write(self, node: str, key: str) -> ChaosKind | None:
        if self.chaos is None:
            return None
        return self.chaos.draw_write(node, key)

    def corrupt_entry(self, path: Path, node: str, key: str, kind: ChaosKind) -> None:
        """Damage a just-written cache entry the way a crash would.

        The entry was written atomically, so the corruption is applied
        *after* the rename — modelling a torn write / media fault that a
        later run must detect and quarantine, not one this run sees.
        """
        assert self.chaos is not None
        data = path.read_bytes()
        path.write_bytes(corrupt_bytes(data, kind, self.chaos.write_rng(node, key)))

    # --------------------------------------------------------------- charging

    def charge_backoff(self, node: str, attempt: int) -> float:
        """Charge the post-``attempt`` backoff to the clock; count a retry."""
        delay = self.policy(node).backoff.delay(
            attempt, self.config.seed, "node", node
        )
        self.clock.sleep(delay)
        self.retries += 1
        return delay

    def charge_hang(self, node: str) -> float:
        """Charge what a watchdog would have waited on a hung node."""
        pol = self.policy(node)
        cost = pol.deadline
        if cost is None:
            cost = self.chaos.config.hang_cost if self.chaos is not None else 30.0
        self.clock.sleep(cost)
        self.timeouts += 1
        return cost
