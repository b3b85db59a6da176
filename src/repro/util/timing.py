"""Minimal wall-clock stage timing for the pipeline and benchmarks,
plus the virtual clock the resilience layer's backoff runs on.

:class:`StageTimer` is now a thin compatibility shim over the tracing
layer (:mod:`repro.obs.span`): attach a tracer and every timed stage
also opens a trace span, while ``timer.durations`` keeps its historical
dict-of-seconds shape for the benchmarks and reports that grew up on it.

Two long-standing reporting bugs are fixed here and guarded by
regression tests (``tests/obs/test_regressions.py``):

- a stage name that runs more than once (per-edition retries, a
  supervised node's re-attempts) **accumulates** its durations instead
  of silently overwriting the earlier entry;
- :meth:`StageTimer.report` sizes its name column to the longest stage
  name instead of misaligning everything past 20 characters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["StageTimer", "VirtualClock"]


@dataclass
class VirtualClock:
    """A clock that only moves when told to.

    Retry backoff and rate-limit penalties "sleep" on this clock, so a
    faulted run is charged realistic latency without any process ever
    blocking — and the accumulated time is bit-identical across worker
    counts because each work item owns its own clock.
    """

    now: float = 0.0

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.now += seconds


@dataclass
class StageTimer:
    """Records named stage durations (accumulating over repeats).

    Usage::

        timer = StageTimer()
        with timer.stage("harvest"):
            ...
        timer.durations["harvest"]  # seconds, summed over every entry

    ``cached`` names stages served from the engine artifact cache rather
    than recomputed — their near-zero durations are honest load times,
    and :meth:`report` says so instead of letting them read as "the
    stage was this fast".
    """

    durations: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    cached: set[str] = field(default_factory=set)
    tracer: "object | None" = None  # repro.obs.span.Tracer, duck-typed

    def stage(self, name: str) -> "_Stage":
        return _Stage(self, name)

    def mark_cached(self, name: str) -> None:
        """Record that ``name`` was served from the engine artifact cache."""
        self.cached.add(name)
        self.durations.setdefault(name, 0.0)

    def total(self) -> float:
        return sum(self.durations.values())

    def report(self) -> str:
        width = max([20] + [len(n) for n in self.durations])
        lines = []
        for name, secs in self.durations.items():
            suffix = ""
            if self.counts.get(name, 0) > 1:
                suffix += f"  (x{self.counts[name]})"
            if name in self.cached:
                suffix += "  (cache hit)"
            lines.append(f"{name:<{width}s} {secs * 1e3:9.2f} ms{suffix}")
        lines.append(f"{'total':<{width}s} {self.total() * 1e3:9.2f} ms")
        return "\n".join(lines)


class _Stage:
    def __init__(self, timer: StageTimer, name: str) -> None:
        self._timer = timer
        self._name = name
        self._t0 = 0.0
        self._span_cm = None

    def __enter__(self) -> "_Stage":
        if self._timer.tracer is not None:
            self._span_cm = self._timer.tracer.span(self._name)
            self._span_cm.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        timer = self._timer
        timer.durations[self._name] = timer.durations.get(self._name, 0.0) + elapsed
        timer.counts[self._name] = timer.counts.get(self._name, 0) + 1
        if self._span_cm is not None:
            self._span_cm.__exit__(*exc)
            self._span_cm = None
