"""Regression tests for bugfixes shipped with the obs layer.

1. ``StageTimer`` accumulates durations for a stage name that runs more
   than once (a retried node, the repeated ``contracts`` hand-offs)
   instead of overwriting the earlier entry, and ``report()`` no longer
   misaligns names longer than 20 characters.
2. ``TaskError`` preserves the original formatted traceback from the
   raise site while staying equal across the serial and parallel paths.
"""

import pytest

from repro.util.parallel import ParallelConfig, TaskError, parallel_map
from repro.util.timing import StageTimer

pytestmark = pytest.mark.obs


def _raise_value_error(x):
    raise ValueError(f"boom for {x}")


class TestStageTimerAccumulation:
    def test_repeated_stage_accumulates(self):
        timer = StageTimer()
        timer.durations["contracts"] = 1.0
        with timer.stage("contracts"):
            pass
        assert timer.durations["contracts"] > 1.0  # summed, not overwritten

    def test_counts_track_repeats(self):
        timer = StageTimer()
        for _ in range(3):
            with timer.stage("contracts"):
                pass
        with timer.stage("link"):
            pass
        assert timer.counts == {"contracts": 3, "link": 1}

    def test_report_shows_repeat_count(self):
        timer = StageTimer()
        for _ in range(2):
            with timer.stage("contracts"):
                pass
        line = next(l for l in timer.report().splitlines() if "contracts" in l)
        assert "(x2)" in line

    def test_total_sums_accumulated_durations(self):
        timer = StageTimer()
        timer.durations["a"] = 1.0
        timer.durations["b"] = 2.5
        assert timer.total() == pytest.approx(3.5)


class TestReportAlignment:
    def test_long_names_stay_aligned(self):
        timer = StageTimer()
        long_name = "a-stage-name-well-over-twenty-characters"
        timer.durations["ingest"] = 0.001
        timer.durations[long_name] = 0.002
        lines = timer.report().splitlines()
        assert any(long_name in l for l in lines)  # never truncated
        # the duration column starts at the same offset on every line
        cols = {l.index(" ms") for l in lines}
        assert len(cols) == 1
        assert cols.pop() > len(long_name)

    def test_short_names_keep_historical_width(self):
        timer = StageTimer()
        timer.durations["ingest"] = 0.001
        line = timer.report().splitlines()[0]
        assert line.startswith("ingest" + " " * 14)  # padded to 20


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
