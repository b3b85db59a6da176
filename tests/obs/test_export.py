"""Exported observability artifacts: trace.json, metrics.json, CLI flags."""

import json

import pytest

from repro.obs import ObsContext, write_metrics, write_trace
from repro.pipeline import RunConfig, run_pipeline

pytestmark = pytest.mark.obs


def _traced_run(small_world):
    obs = ObsContext(seed=small_world.seed)
    result = run_pipeline(RunConfig(obs=obs, validation="repair"), world=small_world)
    return obs, result


class TestTraceFile:
    def test_trace_json_is_valid_chrome_trace(self, small_world, tmp_path):
        obs, _ = _traced_run(small_world)
        path = write_trace(obs.tracer, tmp_path / "trace.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc) == {"displayTimeUnit", "otherData", "traceEvents"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["seed"] == small_world.seed
        assert len(doc["traceEvents"]) > 0
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert {"ingest", "link", "enrich", "infer", "dataset"} <= names

    def test_parent_references_resolve(self, small_world, tmp_path):
        obs, _ = _traced_run(small_world)
        doc = json.loads(
            write_trace(obs.tracer, tmp_path / "t.json").read_text(encoding="utf-8")
        )
        ids = {ev["args"]["span_id"] for ev in doc["traceEvents"]}
        for ev in doc["traceEvents"]:
            parent = ev["args"]["parent_id"]
            assert parent is None or parent in ids


class TestMetricsFile:
    def test_metrics_json_shape(self, small_world, tmp_path):
        obs, result = _traced_run(small_world)
        path = write_metrics(
            obs.metrics,
            tmp_path / "metrics.json",
            timing=dict(result.timer.durations),
            meta={"seed": small_world.seed},
        )
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc) == {"meta", "metrics", "timing"}
        assert doc["meta"]["seed"] == small_world.seed
        assert doc["metrics"]["counters"]["harvest.editions"] > 0
        assert not any(k.startswith("time.") for k in doc["metrics"]["gauges"])
        assert any(k.startswith("time.stage.") for k in doc["timing"])

    def test_metrics_json_deterministic_outside_timing(self, small_world, tmp_path):
        texts = []
        for i in range(2):
            obs, _ = _traced_run(small_world)
            p = write_metrics(obs.metrics, tmp_path / f"m{i}.json")
            texts.append(p.read_text(encoding="utf-8"))
        docs = [json.loads(t) for t in texts]
        for doc in docs:
            doc.pop("timing")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


class TestExportArtifact:
    def test_bundle_includes_obs_artifacts(self, small_world, tmp_path):
        from repro.report.export import export_artifact

        obs, result = _traced_run(small_world)
        out = export_artifact(result, tmp_path / "bundle")
        manifest = json.loads((out / "MANIFEST.json").read_text(encoding="utf-8"))
        assert manifest["trace"] == "trace.json"
        assert manifest["metrics"] == "metrics.json"
        json.loads((out / "trace.json").read_text(encoding="utf-8"))
        json.loads((out / "metrics.json").read_text(encoding="utf-8"))

    def test_bundle_without_obs_has_no_obs_keys(self, small_result, tmp_path):
        from repro.report.export import export_artifact

        out = export_artifact(small_result, tmp_path / "plain")
        manifest = json.loads((out / "MANIFEST.json").read_text(encoding="utf-8"))
        assert "trace" not in manifest and "metrics" not in manifest
        assert not (out / "trace.json").exists()


class TestCli:
    def test_run_with_obs_flags_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        # uncached and cached runs execute the same node bodies, and both
        # profile them
        for cache in ([], ["--cache-dir", str(tmp_path / "cache")]):
            code = main(
                [
                    "--scale",
                    "0.25",
                    "--seed",
                    "11",
                    "--trace",
                    "--metrics",
                    "--profile",
                    "--obs-dir",
                    str(tmp_path),
                    *cache,
                    "run",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "trace written to" in out
            assert "metrics written to" in out
            assert "cumulative" in out  # the per-stage cProfile table
            json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
            doc = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
            assert doc["meta"]["seed"] == 11

    def test_run_without_flags_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(["--scale", "0.25", "--seed", "11", "run"])
        assert code == 0
        assert not (tmp_path / "out").exists()

    def test_report_command_renders_observability_section(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "--scale",
                "0.25",
                "--seed",
                "11",
                "--metrics",
                "--obs-dir",
                str(tmp_path),
                "report",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "## Observability" in out
