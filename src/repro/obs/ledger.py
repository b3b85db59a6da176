"""The persistent run ledger: every run leaves a comparable record.

PR 3 gave a run telemetry (spans, metrics), PR 4 gave it an execution
engine with a cache — but both write their evidence once and throw it
away with the process.  Nothing compared run *N* to run *N−1*, so a
perf regression, a cache-discipline break, or a silent drift in a
headline statistic (the overall FAR, the SC/ISC trend) went unnoticed.

The ledger fixes that.  It is an **append-only JSONL file**
(``<obs-dir>/ledger/runs.jsonl``) where each line is one
:class:`RunRecord` with a strict determinism split:

- ``body`` — everything reproducible: the run-config fingerprint,
  per-stage execution facts (counts, cached flags), engine
  cache hit/miss counters, the metrics-registry snapshot digest,
  fault/contract/quarantine counters, the unified event-log type
  counts, and — the scientific payload — a flat map of **headline
  cells** (FAR overall/lead/last, per-conference ratios, the
  double-blind χ² contrasts, PC shares) plus SHA-256 digests over
  them.  Two identical-seed runs produce byte-identical bodies.
- ``timing`` — wall-clock stage durations and the record's wall time,
  quarantined exactly like ``metrics.json``'s ``"timing"`` section:
  present for the sentinel's noise-band analysis, excluded from the
  record digest.

``digest`` is SHA-256 over the canonical JSON encoding of ``body``, so
"did anything scientific change?" is one string comparison and "what
changed?" is a cell-level dict diff (:mod:`repro.obs.sentinel`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.events import EventLog, write_events

__all__ = [
    "LEDGER_SCHEMA",
    "RunRecord",
    "RunLedger",
    "body_digest",
    "scientific_cells",
    "build_run_record",
    "build_service_record",
]

# bump on incompatible record-shape change; old ledgers are still
# readable (records carry their schema) but never compared across schemas
LEDGER_SCHEMA = 1


def body_digest(body: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a record body.

    The body is plain JSON data by construction, so canonical form is
    simply sorted keys + compact separators — no object registry needed.
    """
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """One ledger line: deterministic body, quarantined timing, digest."""

    body: dict
    timing: dict = field(default_factory=dict)
    run_id: str = ""
    digest: str = ""
    schema: int = LEDGER_SCHEMA

    def with_identity(self, run_id: str) -> "RunRecord":
        return RunRecord(
            body=self.body,
            timing=self.timing,
            run_id=run_id,
            digest=self.digest or body_digest(self.body),
            schema=self.schema,
        )

    # ------------------------------------------------------------ accessors

    @property
    def meta(self) -> dict:
        return self.body.get("meta", {})

    @property
    def scientific(self) -> dict:
        return self.body.get("scientific", {})

    @property
    def stage_seconds(self) -> dict[str, float]:
        return dict(self.timing.get("stages", {}))

    @property
    def config_fingerprint(self) -> str | None:
        return self.body.get("config_fingerprint")

    # ------------------------------------------------------------ round-trip

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "digest": self.digest or body_digest(self.body),
            "body": self.body,
            "timing": self.timing,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(
            body=d.get("body", {}),
            timing=d.get("timing", {}),
            run_id=d.get("run_id", ""),
            digest=d.get("digest", ""),
            schema=d.get("schema", LEDGER_SCHEMA),
        )


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord`\\ s under one root.

    Layout::

        <root>/runs.jsonl              # one record per line, append-only
        <root>/<run_id>.events.jsonl   # the run's full event stream

    Appends are atomic at line granularity (single ``write`` of one
    ``\\n``-terminated line, fsynced), so a crashed writer can at worst
    lose its own line; :meth:`records` skips any torn tail line rather
    than refusing the whole ledger.
    """

    LEDGER_FILE = "runs.jsonl"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / self.LEDGER_FILE

    # -------------------------------------------------------------- writing

    def append(self, record: RunRecord, events: EventLog | None = None) -> RunRecord:
        """Assign a run id, append the record, return the identified record."""
        self.root.mkdir(parents=True, exist_ok=True)
        n = len(self.records())
        digest = record.digest or body_digest(record.body)
        identified = record.with_identity(f"run-{n + 1:04d}-{digest[:10]}")
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(identified.to_json_line() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if events is not None and events.enabled and len(events):
            write_events(events, self.events_path(identified.run_id))
        return identified

    def events_path(self, run_id: str) -> Path:
        return self.root / f"{run_id}.events.jsonl"

    # -------------------------------------------------------------- reading

    def records(self) -> list[RunRecord]:
        """Every well-formed record, in append order."""
        if not self.path.exists():
            return []
        out: list[RunRecord] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(RunRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, TypeError):
                continue  # torn tail line from a crashed writer
        return out

    def get(self, run_id: str) -> RunRecord:
        """Look up one record by exact id or unambiguous prefix."""
        records = self.records()
        exact = [r for r in records if r.run_id == run_id]
        if exact:
            return exact[-1]
        prefixed = [r for r in records if r.run_id.startswith(run_id)]
        if len(prefixed) == 1:
            return prefixed[0]
        if prefixed:
            raise KeyError(f"run id prefix {run_id!r} is ambiguous")
        raise KeyError(f"no run {run_id!r} in {self.path}")

    def latest(self) -> RunRecord | None:
        records = self.records()
        return records[-1] if records else None


# --------------------------------------------------------------- assembly


def scientific_cells(result: Any) -> dict[str, Any]:
    """The headline scientific outputs of a run as one flat cell map.

    Keys are stable dotted paths (``far.SC.authors``,
    ``blind.authors.chi2``); values are rendered proportions or plain
    floats.  The map — not just its digest — is stored in the ledger, so
    a digest change can be drilled down to the first differing cell
    without re-running anything.
    """
    # analysis imports are lazy: repro.obs must stay importable without
    # dragging in the analysis stack (and without import cycles)
    from repro.analysis.blind import blind_report
    from repro.analysis.far import far_report
    from repro.analysis.pc import pc_report

    ds = result.dataset
    far = far_report(ds)
    blind = blind_report(ds)
    pc = pc_report(ds)

    cells: dict[str, Any] = {
        "far.overall": str(far.overall),
        "far.lead": str(far.lead_overall),
        "far.last": str(far.last_overall),
        "far.last_vs_all.chi2": far.last_vs_all.statistic,
        "far.last_vs_all.p": far.last_vs_all.p_value,
        "blind.authors.double": str(blind.authors_double),
        "blind.authors.single": str(blind.authors_single),
        "blind.authors.chi2": blind.authors_test.statistic,
        "blind.authors.p": blind.authors_test.p_value,
        "blind.lead.double": str(blind.lead_double),
        "blind.lead.single": str(blind.lead_single),
        "blind.lead.chi2": blind.lead_test.statistic,
        "blind.lead.p": blind.lead_test.p_value,
        "pc.memberships": str(pc.memberships),
        "pc.excluding_sc": str(pc.excluding_sc),
        "pc.chairs": str(pc.chairs),
        "pc.vs_authors.chi2": pc.pc_vs_authors.statistic,
        "pc.vs_authors.p": pc.pc_vs_authors.p_value,
        "pc.zero_women_chairs": ",".join(pc.zero_women_chair_confs),
    }
    for conf in far.by_conference:
        cells[f"far.{conf.conference}.authors"] = str(conf.authors)
        cells[f"far.{conf.conference}.lead"] = str(conf.lead)
        cells[f"far.{conf.conference}.last"] = str(conf.last)
    for name in sorted(pc.by_conference):
        cells[f"pc.{name}"] = str(pc.by_conference[name])
    return cells


def build_run_record(
    result: Any,
    config: Any | None = None,
    command: str = "api",
    extra_meta: dict | None = None,
) -> RunRecord:
    """Assemble the ledger record for one finished pipeline run.

    ``result`` is a :class:`~repro.pipeline.runner.PipelineResult`;
    ``config`` the :class:`~repro.pipeline.config.RunConfig` it ran
    under (``None`` for prebuilt-world API calls — the world's own seed
    and scale still land in ``meta``).  Works with or without an
    observability context: without one the metrics/event sections are
    empty, the stage and scientific sections are always populated.
    """
    from repro.version import __version__

    timer = result.timer
    obs = getattr(result, "obs", None)
    metrics = obs.metrics if obs is not None and obs.enabled else None
    events = obs.events if obs is not None and obs.enabled else None

    stages = {
        name: {
            "count": timer.counts.get(name, 0),
            "cached": name in timer.cached,
            # no stage resumes from a checkpoint any more; the key stays
            # so ledger bodies keep their shape and digests
            "resumed": False,
        }
        for name in sorted(timer.durations)
    }

    counters: dict[str, int] = {}
    metrics_digest = ""
    if metrics is not None:
        snap = metrics.to_dict(exclude_timings=True)
        counters = snap["counters"]
        metrics_digest = body_digest(snap)

    meta: dict[str, Any] = {
        "version": __version__,
        "command": command,
        "seed": result.world.seed,
        "scale": result.world.config.scale,
        "engine": bool(config is not None and config.engine is not None),
    }
    if config is not None:
        mode = config.validation_mode()
        meta["validation"] = mode.value if mode is not None else None
    if extra_meta:
        meta.update(extra_meta)

    body: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "meta": {k: meta[k] for k in sorted(meta)},
        "config_fingerprint": (
            config.fingerprint() if config is not None else None
        ),
        "stages": stages,
        "cache": {
            "hits": counters.get("engine.cache.hits", 0),
            "misses": counters.get("engine.cache.misses", 0),
        },
        "counters": counters,
        "events": events.counts() if events is not None else {},
        "faults": _fault_section(result.degraded),
        "contracts": _contract_section(result.contracts),
    }
    cells = scientific_cells(result)
    body["scientific"] = {k: cells[k] for k in sorted(cells)}
    body["digests"] = {
        "scientific": body_digest(body["scientific"]),
        "metrics": metrics_digest,
    }

    timing = {
        "stages": {k: round(v, 6) for k, v in sorted(timer.durations.items())},
        "total": round(timer.total(), 6),
        "unix_time": round(time.time(), 3),
    }
    record = RunRecord(body=body, timing=timing)
    return RunRecord(
        body=record.body, timing=record.timing, digest=body_digest(record.body)
    )


def build_service_record(
    meta: dict,
    service: dict,
    timing: dict | None = None,
) -> RunRecord:
    """Assemble a ledger record for one *service session* (``repro serve``).

    A serve session is not a pipeline run — it has no scientific cells
    of its own (each query's cells are the engine's, already keyed by
    config fingerprint) — but it leaves the same determinism-split
    record: ``body`` carries the session metadata and the request
    counters (requests, shed, coalesced, 304s, deadline timeouts,
    breaker rejections …), all reproducible for a given request
    sequence; ``timing`` carries wall-clock facts only.
    """
    body = {
        "schema": LEDGER_SCHEMA,
        "meta": {k: meta[k] for k in sorted(meta)},
        "config_fingerprint": None,
        "service": {k: service[k] for k in sorted(service)},
    }
    return RunRecord(
        body=body,
        timing=dict(timing or {}),
        digest=body_digest(body),
    )


def _fault_section(degraded: Any | None) -> dict:
    if degraded is None:
        return {}
    return {
        "total_editions": degraded.total_editions,
        "harvested_editions": degraded.harvested_editions,
        "losses": len(degraded.losses),
        "retries": degraded.retries,
        "exhausted": degraded.exhausted,
        "breaker_opens": degraded.breaker_opens,
        # supervised-engine accounting; empty/zero on unsupervised runs
        "failed_nodes": sorted(getattr(degraded, "failed_nodes", ())),
        "skipped_nodes": sorted(getattr(degraded, "skipped_nodes", ())),
        "node_retries": getattr(degraded, "node_retries", 0),
    }


def _contract_section(contracts: Any | None) -> dict:
    if contracts is None:
        return {}
    quarantined = 0
    for dispositions in contracts.quarantine.counts().values():
        quarantined += sum(dispositions.values())
    return {
        "mode": contracts.mode,
        "audit_ok": contracts.ok,
        "audit_checks": len(contracts.audit.checks),
        "audit_failures": len(contracts.audit.failures),
        "quarantined": quarantined,
    }
