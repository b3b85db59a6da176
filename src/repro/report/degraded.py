"""Rendering of the degraded-coverage report.

Turns a :class:`~repro.faults.degradation.DegradedCoverage` into the
markdown section the run report and the CLI print, putting the
reproduction's injected losses side by side with the coverage gaps the
paper itself worked under (68.3% GS coverage, 3.03% unresolved
genders).
"""

from __future__ import annotations

from repro.faults.degradation import DegradedCoverage

__all__ = ["render_degraded"]


def render_degraded(dc: DegradedCoverage) -> str:
    """Markdown section describing what a faulted run lost."""
    lines: list[str] = []
    add = lines.append
    add("## Degraded coverage (fault model)")
    add("")
    add(f"- editions harvested: {dc.harvested_editions}/{dc.total_editions}")
    dropped = dc.dropped_editions
    if dropped:
        add(f"- editions dropped: {len(dropped)} ({', '.join(dropped)})")
    malformed = dc.malformed_editions
    if malformed:
        add(f"- editions scraped from malformed pages: {len(malformed)} "
            f"({', '.join(malformed)})")
    persons = dc.dropped_persons
    if persons:
        add(f"- person lookups lost to faults: {len(persons)}")
    per_stage = dc.per_stage()
    if per_stage:
        add(f"- losses per stage: "
            + ", ".join(f"{k}={v}" for k, v in per_stage.items()))
    if dc.fault_counts:
        add(f"- injected faults: "
            + ", ".join(f"{k}={v}" for k, v in sorted(dc.fault_counts.items())))
    add(f"- service calls: "
        + (", ".join(f"{k}={v}" for k, v in sorted(dc.service_calls.items()))
           or "none"))
    add(f"- retries: {dc.retries}, exhausted: {dc.exhausted}, "
        f"breaker opens: {dc.breaker_opens}, "
        f"virtual time: {dc.virtual_time:.2f}s")
    if not dc.is_degraded:
        add("- no data was lost: every service call eventually succeeded")
    return "\n".join(lines)
