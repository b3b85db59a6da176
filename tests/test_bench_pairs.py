"""The alternating-pairs comparison table of ``tools/bench_pairs.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(warm_ms: float, correct: bool = True) -> dict:
    return {"correct": correct, "metrics": {"warm_ms": {"value": warm_ms, "unit": "ms"}}}


def test_table_reports_medians_quartiles_ratio_and_wins():
    results = {
        "parent": [_run(v) for v in (10, 12, 14, 16, 18)],
        "change": [_run(v) for v in (6, 13, 7, 8, 9)],
    }
    lines = bench_pairs.table(results)
    assert lines[0] == "pairs with two correct runs: 5/5"
    row = lines[2]
    assert "14 [12, 16] ms" in row and "8 [7, 9] ms" in row
    assert row.split()[-2:] == ["0.571", "4/5"]
    assert lines[-1] == "warm_ms per pair (parent/change): 10/6 12/13 14/7 16/8 18/9"


def test_a_pair_with_an_incorrect_or_missing_run_is_left_out():
    results = {
        "parent": [_run(10), _run(20), None],
        "change": [_run(5), _run(1, correct=False), _run(2)],
    }
    lines = bench_pairs.table(results)
    assert lines[0] == "pairs with two correct runs: 1/3"
    assert lines[-1] == "warm_ms per pair (parent/change): 10/5"
