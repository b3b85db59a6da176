"""Tests for the markdown run report."""

import pytest

from repro.report.textreport import full_report


@pytest.fixture(scope="module")
def report_text(small_result):
    return full_report(small_result)


class TestFullReport:
    def test_all_sections_present(self, report_text):
        for heading in (
            "# Reproduction run report",
            "## Gender-assignment coverage",
            "## Authors (§3.1)",
            "## Committees and visible roles",
            "## Papers (§4)",
            "## Demographics (§5)",
            "## SC/ISC case study",
            "## Sensitivity (§2)",
            "## Tables",
            "## Agreement with the paper",
        ):
            assert heading in report_text, heading

    def test_tables_embedded(self, report_text):
        assert "Table 1" in report_text
        assert "Table 2" in report_text
        assert "Table 3" in report_text

    def test_paper_benchmarks_cited(self, report_text):
        assert "paper 9.9%" in report_text
        assert "95.18%" in report_text

    def test_cli_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        rc = main(["--scale", "0.15", "report", "--output", str(out)])
        assert rc == 0
        assert out.exists()
        assert "# Reproduction run report" in out.read_text()

    def test_no_timeline_section_when_absent(self, small_result):
        import dataclasses

        result = dataclasses.replace(small_result, timeline=[])
        text = full_report(result)
        assert "case study" not in text
