"""Per-stage cProfile capture behind the ``--profile`` flag.

Profiling is strictly opt-in (cProfile costs far more than the <5%
budget the rest of the observability layer lives under) and per-stage:
each pipeline stage runs under its own profiler so the top-N output
answers "where does *this* stage spend its time", not "where does the
whole process".  Stages that repeat (a supervised node's retries)
accumulate into one profile per stage name.

cProfile cannot nest, so :meth:`StageProfiler.stage` is a no-op when a
profile is already being collected (the outermost stage wins) and
worker processes are never profiled — their work shows up in the trace
spans instead.
"""

from __future__ import annotations

import cProfile
import io
import pstats

__all__ = ["StageProfiler"]


class StageProfiler:
    """Collects one cProfile per stage name; renders top-N cumulative."""

    def __init__(self, top_n: int = 12) -> None:
        self.top_n = top_n
        self.profiles: dict[str, cProfile.Profile] = {}
        self._active = False

    def stage(self, name: str) -> "_ProfiledStage":
        return _ProfiledStage(self, name)

    # ------------------------------------------------------------ rendering

    def report(self, name: str) -> str:
        """Top-N cumulative-time lines for one stage."""
        prof = self.profiles.get(name)
        if prof is None:
            return ""
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(self.top_n)
        return buf.getvalue()

    def render(self) -> str:
        """All per-stage reports, in stage-first-seen order."""
        parts = []
        for name in self.profiles:
            parts.append(f"===== profile: {name} (top {self.top_n} cumulative) =====")
            parts.append(self.report(name).rstrip())
        return "\n".join(parts)


class _ProfiledStage:
    __slots__ = ("_profiler", "_name", "_prof")

    def __init__(self, profiler: StageProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._prof: cProfile.Profile | None = None

    def __enter__(self) -> "_ProfiledStage":
        if self._profiler._active:  # cProfile cannot nest; outermost wins
            return self
        prof = self._profiler.profiles.get(self._name)
        if prof is None:
            prof = self._profiler.profiles[self._name] = cProfile.Profile()
        self._prof = prof
        self._profiler._active = True
        prof.enable()
        return self

    def __exit__(self, *exc) -> None:
        if self._prof is not None:
            self._prof.disable()
            self._profiler._active = False
            self._prof = None
