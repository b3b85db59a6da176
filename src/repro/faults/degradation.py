"""Degraded-coverage accounting.

The paper's own dataset is a degraded view of reality — 68.3% Google
Scholar coverage, 3.03% unresolved genders — and its analyses reason
over what remains rather than failing.  This module gives the
reproduction the same vocabulary: every work item the resilience layer
gives up on becomes a :class:`LossRecord`, and a pipeline run summarises
them in a :class:`DegradedCoverage` attached to
:class:`~repro.pipeline.runner.PipelineResult`.

``DegradedCoverage`` is plain comparable data on purpose: the
determinism tests assert that two runs with the same fault seed — at
different worker counts — produce *equal* reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LossRecord", "FaultStats", "DegradedCoverage"]


@dataclass(frozen=True)
class LossRecord:
    """One unit of work the pipeline degraded instead of crashing on.

    ``stage`` names the service boundary (``harvest``, ``genderize``,
    ``gscholar``, ``semanticscholar``); ``key`` identifies the edition
    (``"SC-2017"``) or person; ``reason`` is the short tag from
    :attr:`repro.faults.errors.FaultError.reason` (possibly suffixed,
    e.g. ``malformed:truncate-index``).
    """

    stage: str
    key: str
    reason: str


@dataclass
class FaultStats:
    """Mutable per-session counters, mergeable across sessions/tasks."""

    calls: dict[str, int] = field(default_factory=dict)
    faults: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    exhausted: int = 0
    breaker_rejections: int = 0
    breaker_opens: int = 0
    virtual_time: float = 0.0

    def count_call(self, service: str) -> None:
        self.calls[service] = self.calls.get(service, 0) + 1

    def count_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def merge(self, other: "FaultStats") -> None:
        for k, v in other.calls.items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in other.faults.items():
            self.faults[k] = self.faults.get(k, 0) + v
        self.retries += other.retries
        self.exhausted += other.exhausted
        self.breaker_rejections += other.breaker_rejections
        self.breaker_opens += other.breaker_opens
        self.virtual_time += other.virtual_time


@dataclass
class DegradedCoverage:
    """What a run lost to faults, per stage, with full provenance.

    Comparable with ``==``; two runs with the same fault seed must
    produce equal reports regardless of worker count.
    """

    total_editions: int = 0
    harvested_editions: int = 0
    losses: tuple[LossRecord, ...] = ()
    fault_counts: dict[str, int] = field(default_factory=dict)
    service_calls: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    exhausted: int = 0
    breaker_opens: int = 0
    virtual_time: float = 0.0
    # engine-level accounting (supervised DAG execution) — empty on
    # clean runs
    failed_nodes: tuple[str, ...] = ()
    skipped_nodes: tuple[str, ...] = ()
    node_retries: int = 0

    @classmethod
    def from_parts(
        cls,
        total_editions: int,
        harvested_editions: int,
        losses: list[LossRecord],
        stats: FaultStats,
    ) -> "DegradedCoverage":
        return cls(
            total_editions=total_editions,
            harvested_editions=harvested_editions,
            losses=tuple(losses),
            fault_counts=dict(sorted(stats.faults.items())),
            service_calls=dict(sorted(stats.calls.items())),
            retries=stats.retries,
            exhausted=stats.exhausted,
            breaker_opens=stats.breaker_opens,
            virtual_time=stats.virtual_time,
        )

    # ------------------------------------------------------------ views

    @property
    def is_degraded(self) -> bool:
        return bool(self.losses or self.failed_nodes or self.skipped_nodes)

    @property
    def dropped_editions(self) -> tuple[str, ...]:
        """Editions lost entirely (exhausted retries / open breaker)."""
        return tuple(
            r.key for r in self.losses
            if r.stage == "harvest" and not r.reason.startswith("malformed")
        )

    @property
    def malformed_editions(self) -> tuple[str, ...]:
        """Editions harvested from corrupted pages (partial data)."""
        seen: dict[str, None] = {}
        for r in self.losses:
            if r.stage == "harvest" and r.reason.startswith("malformed"):
                seen.setdefault(r.key)
        return tuple(seen)

    @property
    def dropped_persons(self) -> tuple[str, ...]:
        """Names whose enrichment/inference lookups were lost (deduped)."""
        seen: dict[str, None] = {}
        for r in self.losses:
            if r.stage != "harvest":
                seen.setdefault(r.key)
        return tuple(seen)

    def per_stage(self) -> dict[str, int]:
        """Loss-record count per stage."""
        out: dict[str, int] = {}
        for r in self.losses:
            out[r.stage] = out.get(r.stage, 0) + 1
        return dict(sorted(out.items()))

    def summary(self) -> str:
        """One-paragraph human summary for CLI / report output."""
        if not self.is_degraded and not self.node_retries:
            return "no degradation: every service call eventually succeeded"
        parts = [
            f"editions: {self.harvested_editions}/{self.total_editions} harvested",
        ]
        if self.failed_nodes:
            parts.append(
                f"{len(self.failed_nodes)} pipeline nodes failed "
                f"({', '.join(self.failed_nodes)})"
            )
        if self.skipped_nodes:
            parts.append(f"{len(self.skipped_nodes)} nodes skipped downstream")
        if self.node_retries:
            parts.append(f"{self.node_retries} node retries")
        dropped = self.dropped_editions
        if dropped:
            parts.append(f"dropped {len(dropped)} ({', '.join(dropped)})")
        malformed = self.malformed_editions
        if malformed:
            parts.append(f"{len(malformed)} malformed")
        persons = self.dropped_persons
        if persons:
            parts.append(f"{len(persons)} person lookups lost")
        parts.append(
            f"faults={sum(self.fault_counts.values())} retries={self.retries} "
            f"virtual_time={self.virtual_time:.2f}s"
        )
        return "; ".join(parts)
