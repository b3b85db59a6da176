"""Serialize observability output: ``trace.json`` and ``metrics.json``.

``trace.json`` is Chrome trace-event format (loadable in
``chrome://tracing`` / Perfetto).  ``metrics.json`` is the determinism
artifact: everything outside its ``"timing"`` section is byte-identical
across two runs with the same seed (sorted keys, event counts only), so
CI can diff it like any other reproducibility output.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer, chrome_trace

__all__ = ["write_trace", "write_metrics", "metrics_payload"]


def write_trace(tracer: Tracer, path: str | Path, label: str = "repro") -> Path:
    """Write the Chrome trace-event document; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(
        json.dumps(chrome_trace(tracer, label), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return p


def metrics_payload(metrics: MetricsRegistry, meta: dict | None = None) -> dict:
    """The ``metrics.json`` document: deterministic body + timing section.

    ``timing`` (the ``time.*`` gauges: stage wall-times, span durations)
    is the only non-deterministic content and lives under its own key so
    consumers — and the determinism tests — can exclude it wholesale.
    """
    return {
        "meta": dict(sorted((meta or {}).items())),
        "metrics": metrics.to_dict(exclude_timings=True),
        "timing": {
            k: metrics.gauges[k] for k in sorted(metrics.gauges) if k.startswith("time.")
        },
    }


def write_metrics(
    metrics: MetricsRegistry, path: str | Path, meta: dict | None = None
) -> Path:
    """Write ``metrics.json``; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(
        json.dumps(metrics_payload(metrics, meta), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return p
