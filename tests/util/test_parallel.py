"""Tests for the deterministic parallel map."""

import multiprocessing
import os

import pytest

from repro.util.parallel import ParallelConfig, TaskError, parallel_map


def _square(x: int) -> int:
    return x * x


def _square_unless_13(x: int) -> int:
    if x == 13:
        raise ValueError(f"unlucky item {x}")
    return x * x


def _seeded_draw(item):
    """A worker whose randomness derives from its item key."""
    from repro.util.rng import spawn_rng

    key, root = item
    return float(spawn_rng(root, "draw", key).random())


class TestSerial:
    def test_matches_list_comprehension(self):
        items = list(range(20))
        assert parallel_map(_square, items) == [x * x for x in items]

    def test_empty_input(self):
        assert parallel_map(_square, []) == []

    def test_order_preserved(self):
        out = parallel_map(_square, [3, 1, 2])
        assert out == [9, 1, 4]


class TestParallel:
    def test_parallel_equals_serial(self):
        items = list(range(32))
        serial = parallel_map(_square, items, ParallelConfig(workers=1))
        par = parallel_map(_square, items, ParallelConfig(workers=4, min_items_per_worker=1))
        assert serial == par

    def test_seeded_randomness_independent_of_workers(self):
        items = [(f"item{i}", 99) for i in range(16)]
        one = parallel_map(_seeded_draw, items, ParallelConfig(workers=1))
        four = parallel_map(
            _seeded_draw, items, ParallelConfig(workers=4, min_items_per_worker=1)
        )
        assert one == four

    def test_pool_leaves_no_process_running(self):
        before = set(multiprocessing.active_children())
        out = parallel_map(_square, list(range(8)), ParallelConfig(workers=2, min_items_per_worker=1))
        assert out == [x * x for x in range(8)]
        assert set(multiprocessing.active_children()) <= before

    def test_small_inputs_stay_serial(self):
        cfg = ParallelConfig(workers=8, min_items_per_worker=4)
        assert cfg.resolved_workers(8) == 1  # 8 < 8*4
        assert cfg.resolved_workers(64) == 8

    def test_workers_none_uses_cpu_count(self):
        cfg = ParallelConfig(workers=None, min_items_per_worker=1)
        assert cfg.resolved_workers(10_000) == min(os.cpu_count() or 1, 10_000)

    def test_workers_capped_by_items(self):
        cfg = ParallelConfig(workers=64, min_items_per_worker=1)
        # 3 items < 64 workers * 1 item each -> serial is cheaper
        assert cfg.resolved_workers(3) == 1
        # with enough items, the cap is the item count vs worker count
        assert cfg.resolved_workers(64) == 64
        assert cfg.resolved_workers(100) == 64


class TestCaptureErrors:
    def test_error_becomes_task_error_in_place(self):
        out = parallel_map(_square_unless_13, [12, 13, 14], capture_errors=True)
        assert out[0] == 144 and out[2] == 196
        assert out[1] == TaskError(kind="ValueError", message="unlucky item 13")

    def test_serial_and_parallel_capture_identically(self):
        items = list(range(20))
        serial = parallel_map(_square_unless_13, items, capture_errors=True)
        par = parallel_map(
            _square_unless_13,
            items,
            ParallelConfig(workers=4, min_items_per_worker=1),
            capture_errors=True,
        )
        assert serial == par
        assert sum(isinstance(r, TaskError) for r in serial) == 1

    def test_surviving_results_keep_their_order(self):
        out = parallel_map(_square_unless_13, [13, 1, 13, 2], capture_errors=True)
        survivors = [r for r in out if not isinstance(r, TaskError)]
        assert survivors == [1, 4]

    def test_without_capture_the_error_propagates(self):
        with pytest.raises(ValueError, match="unlucky item 13"):
            parallel_map(_square_unless_13, [13])
        with pytest.raises(ValueError, match="unlucky item 13"):
            parallel_map(
                _square_unless_13,
                list(range(20)),
                ParallelConfig(workers=4, min_items_per_worker=1),
            )

    def test_task_error_is_picklable(self):
        import pickle

        err = TaskError(kind="ValueError", message="boom")
        assert pickle.loads(pickle.dumps(err)) == err


def _add_shared(shared: int, x: int) -> int:
    return shared + x


def _sleep_for(x: float) -> float:
    import time

    time.sleep(x)
    return x


POOL = ParallelConfig(workers=2, min_items_per_worker=1)


class TestShared:
    def test_shared_value_reaches_every_call(self):
        items = list(range(8))
        serial = parallel_map(_add_shared, items, shared=100)
        assert serial == [100 + x for x in items]
        assert parallel_map(_add_shared, items, POOL, shared=100) == serial

    def test_shared_value_with_captured_errors(self):
        out = parallel_map(_add_shared, [1, "x"], POOL, capture_errors=True, shared=1)
        assert out[0] == 2 and isinstance(out[1], TaskError)


class TestHeapFreeze:
    """A pooled map freezes the parent's heap only while its pool runs."""

    def test_unfrozen_after_a_pooled_map(self):
        import gc

        assert parallel_map(_square, list(range(8)), POOL) == [x * x for x in range(8)]
        assert gc.get_freeze_count() == 0

    def test_unfrozen_after_an_item_raises(self):
        import gc

        with pytest.raises(ValueError, match="unlucky item 13"):
            parallel_map(_square_unless_13, list(range(10, 16)), POOL)
        assert gc.get_freeze_count() == 0

    def test_unfrozen_after_a_deadline_expires(self):
        import gc

        out = parallel_map(_sleep_for, [0.01, 2.0], POOL, deadlines=[None, 0.2])
        assert out[0] == 0.01 and isinstance(out[1], TaskError)
        assert gc.get_freeze_count() == 0

    def test_a_caller_freeze_is_left_in_place(self):
        import gc

        gc.freeze()
        try:
            parallel_map(_square, list(range(8)), POOL)
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
