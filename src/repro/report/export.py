"""Artifact export: dump every dataset table and artifact to disk.

The original paper ships a data artifact (CSV + analysis source); this
module produces the equivalent bundle from a pipeline run::

    out/
      tables/      researchers.csv, author_positions.csv, ...
      artifacts/   T1.txt ... SENS.txt (rendered tables/figures)
      comparison.csv                   (paper vs measured)
      MANIFEST.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.export import write_metrics, write_trace
from repro.pipeline.runner import PipelineResult
from repro.report.compare import compare_headlines
from repro.report.experiments import EXPERIMENTS, run_experiment
from repro.tabular import Table, table_to_csv
from repro.version import __version__

__all__ = ["export_artifact"]


def export_artifact(result: PipelineResult, out_dir: str | Path) -> Path:
    """Write the full artifact bundle; returns the output directory."""
    out = Path(out_dir)
    tables_dir = out / "tables"
    artifacts_dir = out / "artifacts"
    tables_dir.mkdir(parents=True, exist_ok=True)
    artifacts_dir.mkdir(parents=True, exist_ok=True)

    ds = result.dataset
    table_files = {}
    for name in (
        "researchers",
        "author_positions",
        "conf_authors",
        "papers",
        "conferences",
        "role_slots",
    ):
        path = tables_dir / f"{name}.csv"
        table_to_csv(getattr(ds, name), path)
        table_files[name] = str(path.relative_to(out))

    artifact_files = {}
    for exp_id in EXPERIMENTS:
        _, text = run_experiment(exp_id, result)
        path = artifacts_dir / f"{exp_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        artifact_files[exp_id] = str(path.relative_to(out))

    rows = compare_headlines(result)
    comparison = Table.from_records(
        [
            {
                "experiment": r.experiment,
                "statistic": r.statistic,
                "paper": r.paper,
                "measured": r.measured,
                "abs_error": r.abs_error,
            }
            for r in rows
        ]
    )
    table_to_csv(comparison, out / "comparison.csv")

    manifest = {
        "version": __version__,
        "seed": result.world_config.seed,
        "scale": result.world_config.scale,
        "researchers": ds.researchers.num_rows,
        "papers": ds.papers.num_rows,
        "coverage": result.coverage,
        "tables": table_files,
        "artifacts": artifact_files,
        "comparison": "comparison.csv",
    }
    if result.contracts is not None:
        # machine-readable quarantine + integrity audit alongside the tables
        (out / "contracts.json").write_text(
            json.dumps(result.contracts.to_dict(), indent=2), encoding="utf-8"
        )
        manifest["contracts"] = "contracts.json"
        manifest["integrity_ok"] = result.contracts.ok
    if result.obs is not None and result.obs.enabled:
        # observability artifacts: Chrome trace + deterministic metrics
        write_trace(result.obs.tracer, out / "trace.json")
        write_metrics(
            result.obs.metrics,
            out / "metrics.json",
            meta={"version": __version__, "seed": result.world_config.seed},
        )
        manifest["trace"] = "trace.json"
        manifest["metrics"] = "metrics.json"
        # the run's ledger record + unified event stream, so a shipped
        # bundle can be diffed against any future run with `runs diff`
        from repro.obs.events import write_events
        from repro.obs.ledger import build_run_record

        record = build_run_record(result, command="export")
        (out / "run_record.json").write_text(
            json.dumps(record.to_dict(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        manifest["run_record"] = "run_record.json"
        if len(result.obs.events):
            write_events(result.obs.events, out / "events.jsonl")
            manifest["events"] = "events.jsonl"
    (out / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return out
