"""Regression tests for bugfixes shipped with the obs layer.

1. A stage timed more than once (a retried node, a failed cache load
   followed by the execution) **accumulates** its seconds and entry
   count instead of overwriting the earlier entry, and the stage table
   no longer misaligns names longer than 20 characters.
2. ``TaskError`` preserves the original formatted traceback from the
   raise site while staying equal across the serial and parallel paths.
"""

import time

import pytest

from repro.engine import StageGraph, StageNode, StageTime, SupervisorConfig, run_dag
from repro.pipeline import EngineConfig
from repro.report.textreport import stage_table
from repro.util.parallel import ParallelConfig, TaskError, parallel_map

pytestmark = pytest.mark.obs

_ATTEMPTS: list[str] = []


def _raise_value_error(x):
    raise ValueError(f"boom for {x}")


def _slow(params, inputs):
    time.sleep(0.002)
    return {"slow": 1}


def _flaky(params, inputs):
    # fails its first attempt, then succeeds (supervised runs execute a
    # lone node in-process, so the module-level list sees every attempt)
    _ATTEMPTS.append("flaky")
    if len(_ATTEMPTS) == 1:
        raise RuntimeError("first attempt fails")
    return {"flaky": inputs["slow"] + 1}


def _graph(*nodes: StageNode) -> StageGraph:
    return StageGraph(nodes=list(nodes))


class TestStageAccumulation:
    def test_repeated_stage_accumulates(self):
        stages = {"slow": StageTime(seconds=1.0, count=1)}
        run_dag(_graph(StageNode("slow", _slow)), params={}, stages=stages)
        assert stages["slow"].seconds > 1.0  # summed, not overwritten
        assert stages["slow"].count == 2

    def test_counts_track_repeats(self):
        _ATTEMPTS.clear()
        stages: dict[str, StageTime] = {}
        run = run_dag(
            _graph(StageNode("slow", _slow), StageNode("flaky", _flaky, inputs=("slow",))),
            params={},
            engine=EngineConfig(supervise=SupervisorConfig()),
            stages=stages,
        )
        assert run["flaky"] == 2 and run.retries == 1
        assert {name: s.count for name, s in stages.items()} == {"slow": 1, "flaky": 2}

    def test_report_shows_repeat_count(self):
        table = stage_table({"contracts": StageTime(0.001, 2), "link": StageTime(0.001, 1)})
        line = next(l for l in table.splitlines() if "contracts" in l)
        assert "(x2)" in line
        assert "(x" not in next(l for l in table.splitlines() if "link" in l)

    def test_total_sums_accumulated_durations(self):
        table = stage_table({"a": StageTime(1.0, 1), "b": StageTime(2.5, 3)})
        total = table.splitlines()[-1]
        assert total.startswith("total") and "3500.00 ms" in total


class TestReportAlignment:
    def test_long_names_stay_aligned(self):
        long_name = "a-stage-name-well-over-twenty-characters"
        lines = stage_table(
            {"ingest": StageTime(0.001, 1), long_name: StageTime(0.002, 1)}
        ).splitlines()
        assert any(long_name in l for l in lines)  # never truncated
        # the duration column starts at the same offset on every line
        cols = {l.index(" ms") for l in lines}
        assert len(cols) == 1
        assert cols.pop() > len(long_name)

    def test_short_names_keep_historical_width(self):
        line = stage_table({"ingest": StageTime(0.001, 1)}).splitlines()[0]
        assert line.startswith("ingest" + " " * 14)  # padded to 20

    def test_cache_hits_are_marked(self):
        lines = stage_table(
            {"world": StageTime(0.001, 1, cached=True), "link": StageTime(0.001, 1)}
        ).splitlines()
        assert lines[0].endswith("(cache hit)")
        assert "cache hit" not in lines[1]


class TestTaskErrorTraceback:
    def test_traceback_preserved_from_raise_site(self):
        (err,) = parallel_map(
            _raise_value_error, [7], capture_errors=True
        )
        assert isinstance(err, TaskError)
        assert "ValueError: boom for 7" in err.traceback
        assert "_raise_value_error" in err.traceback  # original frame, not the pool's

    def test_traceback_preserved_in_worker_processes(self):
        out = parallel_map(
            _raise_value_error,
            [1, 2],
            ParallelConfig(workers=2, min_items_per_worker=1),
            capture_errors=True,
        )
        for err in out:
            assert "ValueError" in err.traceback
            assert "_raise_value_error" in err.traceback

    def test_equality_ignores_traceback(self):
        a = TaskError("ValueError", "boom", traceback="File a.py, line 1")
        b = TaskError("ValueError", "boom", traceback="File b.py, line 99")
        assert a == b
        assert "line 99" not in repr(b)  # repr stays line-number-agnostic

    def test_serial_and_parallel_errors_compare_equal(self):
        serial = parallel_map(_raise_value_error, [1, 2], capture_errors=True)
        par = parallel_map(
            _raise_value_error,
            [1, 2],
            ParallelConfig(workers=2, min_items_per_worker=1),
            capture_errors=True,
        )
        assert serial == par
