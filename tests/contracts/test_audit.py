"""End-to-end tests: the integrity audit and the CLI contract modes."""

from __future__ import annotations

import pytest

from repro.cli import EXIT_CONTRACT_VIOLATION, main
from repro.contracts import ContractViolationError, ValidationMode
from repro.faults import FaultConfig
from repro.pipeline import RunConfig, run_pipeline
from repro.synth import WorldConfig

pytestmark = pytest.mark.contracts


@pytest.fixture(scope="module")
def repair_result(small_world):
    return run_pipeline(RunConfig(validation="repair"), world=small_world)


class TestPipelineIntegration:
    def test_clean_world_audit_balances(self, repair_result):
        contracts = repair_result.contracts
        assert contracts is not None and contracts.mode == "repair"
        assert contracts.audit.ok, contracts.audit.summary()
        # a clean synthetic world quarantines nothing
        assert len(contracts.quarantine) == 0

    def test_validation_modes_do_not_change_clean_output(self, small_world):
        plain = run_pipeline(world=small_world)
        validated = run_pipeline(RunConfig(validation="repair"), world=small_world)
        assert (
            plain.dataset.researchers.num_rows
            == validated.dataset.researchers.num_rows
        )
        assert plain.dataset.papers.num_rows == validated.dataset.papers.num_rows
        assert plain.coverage == validated.coverage

    def test_strict_clean_world_passes(self, small_world):
        result = run_pipeline(
            RunConfig(validation=ValidationMode.STRICT), world=small_world
        )
        assert result.contracts.audit.ok

    def test_no_validation_no_report(self, small_result):
        assert small_result.contracts is None

    def test_faulted_repair_run_balances(self):
        """The ISSUE acceptance run: faults at 5%, repair mode, audit even."""
        result = run_pipeline(
            RunConfig(
                world=WorldConfig(seed=7, scale=0.5),
                faults=FaultConfig(rate=0.05, seed=7),
                validation="repair",
            )
        )
        assert result.contracts is not None
        assert result.contracts.audit.ok, result.contracts.audit.summary()
        # every edition is analyzed, quarantined, or accounted as lost
        check = {c.name: c for c in result.contracts.audit.checks}
        assert "edition-accounting" in check and check["edition-accounting"].ok

    def test_faulted_strict_run_raises(self):
        """At 5% faults some edition is scraped from corrupted pages —
        strict mode must refuse it."""
        with pytest.raises(ContractViolationError):
            run_pipeline(
                RunConfig(
                    world=WorldConfig(seed=7, scale=0.5),
                    faults=FaultConfig(rate=0.05, seed=7),
                    validation="strict",
                )
            )

    def test_audit_report_in_run_report(self, repair_result):
        from repro.report import full_report, render_integrity

        section = render_integrity(repair_result.contracts)
        assert "Data contracts and integrity audit" in section
        assert "checks balanced" in section
        assert section in full_report(repair_result)


class TestCLI:
    def test_strict_faulted_exits_nonzero(self, capsys):
        code = main(
            ["--scale", "0.5", "--fault-rate", "0.05", "--validate=strict", "run"]
        )
        assert code == EXIT_CONTRACT_VIOLATION
        err = capsys.readouterr().err
        assert "contract violation" in err
        assert "edition.corrupted-source" in err

    def test_repair_faulted_exits_zero(self, capsys):
        code = main(
            ["--scale", "0.5", "--fault-rate", "0.05", "--validate=repair", "run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "contracts[repair]" in out
        assert "checks balanced" in out

    def test_validate_off_prints_no_contracts(self, capsys):
        code = main(["--scale", "0.25", "--validate=off", "run"])
        assert code == 0
        assert "contracts[" not in capsys.readouterr().out


class TestExport:
    def test_contracts_json_in_bundle(self, tmp_path, repair_result):
        import json

        from repro.report.export import export_artifact

        out = export_artifact(repair_result, tmp_path / "bundle")
        data = json.loads((out / "contracts.json").read_text())
        assert data["mode"] == "repair" and data["audit"]["ok"]
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["contracts"] == "contracts.json"
        assert manifest["integrity_ok"] is True
