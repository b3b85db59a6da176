"""Deterministic data-parallel map: the one process pool of the package.

The harvesting stage of the pipeline processes one conference per task,
the bootstrap machinery one resample batch per task, and the engine one
stage node per task.  All are embarrassingly parallel, so we provide a
single primitive: a process-pool map whose result is *bit-identical*
regardless of the number of workers.

Determinism comes from two rules (the classic MPI-style decomposition
discipline):

1. Any randomness a task needs must derive from ``(root_seed, item_key)``
   (see :mod:`repro.util.rng`), never from a shared generator, so results
   do not depend on scheduling.
2. Results are returned in input order, never completion order.

``parallel_map`` falls back to a serial loop when ``workers <= 1`` or when
the input is small, since process startup dominates for the problem sizes
in this reproduction.  The serial and parallel paths are exercised against
each other in the test suite.  A pooled map submits every item, then
waits for all of them, each within an optional wall-clock deadline (the
engine's supervised node deadlines, see :mod:`repro.engine.supervise`).
A value every task reads (the ingest stage's world) is handed to each
worker process once, as ``shared``, instead of riding with every item;
and the parent's heap is frozen while the pool runs, so forked workers'
collections neither scan nor copy the objects they inherited.
"""

from __future__ import annotations

import gc
import os
import time
import traceback as _tb
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs.context import ObsEnvelope, capture
from repro.obs.context import current as _obs_current

__all__ = ["DEADLINE_ERROR", "ParallelConfig", "TaskError", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")

#: the TaskError kind of a task cut off at its deadline (wall or virtual)
DEADLINE_ERROR = "NodeDeadlineExceeded"


@dataclass(frozen=True)
class TaskError:
    """A captured per-task failure.

    Equality considers only the exception's class name and message —
    both identical whether the task ran in-process or in a worker — so
    the serial and parallel paths produce *equal* result lists for the
    same poisoned input, and the error occupies the failed item's slot
    without disturbing the ordering of surviving results.

    ``traceback`` carries the original formatted traceback
    (``traceback.format_exc()`` at the raise site) for debugging; it is
    excluded from comparison and repr so determinism checks stay
    line-number-agnostic.
    """

    kind: str
    message: str
    traceback: str = field(default="", compare=False, repr=False)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.kind}: {self.message}"


class _CaptureErrors:
    """Picklable wrapper turning task exceptions into :class:`TaskError`."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable) -> None:
        self._fn = fn

    def __call__(self, item):
        try:
            return self._fn(item)
        except Exception as exc:
            return TaskError(
                kind=type(exc).__name__,
                message=str(exc),
                traceback=_tb.format_exc(),
            )


#: ``shared`` not given / a task pickled for a worker, which reads ``_shared``
_UNSHARED = object()
#: the ``shared`` value of the pool this worker process belongs to
_shared: Any = None


def _share(value: Any) -> None:
    """Pool initializer: install the map's ``shared`` value in this worker."""
    global _shared
    _shared = value


class _WithShared:
    """Picklable task ``fn(shared, item)`` whose pickle leaves ``shared`` out.

    In the parent the wrapper holds the value; pickled for a worker it
    carries only ``fn`` and reads the value the pool initializer
    installed (inherited at fork, or pickled once per worker process).
    """

    __slots__ = ("_fn", "_value")

    def __init__(self, fn: Callable, value: Any = _UNSHARED) -> None:
        self._fn = fn
        self._value = value

    def __call__(self, item):
        return self._fn(_shared if self._value is _UNSHARED else self._value, item)

    def __reduce__(self):
        return (_WithShared, (self._fn,))


class _ObsTask:
    """Picklable wrapper running one ``(index, item)`` under obs capture.

    Each item gets a fresh child tracer/metrics registry seeded from the
    item's *position* (never the worker), so captured spans and counters
    are identical across worker counts.  The envelope rides back with
    the result and is merged in input order by :func:`parallel_map`.
    """

    __slots__ = ("_fn", "_seed", "_path")

    def __init__(self, fn: Callable, seed: int, path: tuple[str, ...]) -> None:
        self._fn = fn
        self._seed = seed
        self._path = path

    def __call__(self, pair) -> ObsEnvelope:
        index, item = pair
        with capture(self._seed, self._path, index) as cap:
            result = self._fn(item)
        return ObsEnvelope(
            result, cap.tracer.finished, cap.metrics, cap.events.events
        )


@dataclass(frozen=True)
class ParallelConfig:
    """Execution policy for :func:`parallel_map`.

    Attributes
    ----------
    workers:
        Number of worker processes; ``0`` or ``1`` means serial. ``None``
        selects ``os.cpu_count()``.
    min_items_per_worker:
        If the input has fewer than ``workers * min_items_per_worker``
        items, run serially — spawning processes would cost more than it
        saves.
    """

    workers: int | None = 0
    min_items_per_worker: int = 2

    def resolved_workers(self, n_items: int) -> int:
        w = os.cpu_count() or 1 if self.workers is None else self.workers
        if w <= 1:
            return 1
        if n_items < w * self.min_items_per_worker:
            return 1
        return min(w, n_items)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: ParallelConfig | None = None,
    capture_errors: bool = False,
    deadlines: Sequence[float | None] | None = None,
    shared: Any = _UNSHARED,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving input order.

    ``fn`` must be picklable (module-level) when running with more than
    one worker.  The output is identical to ``[fn(x) for x in items]`` by
    construction; a pooled map that raises does so after every item has
    finished, with the first failing item's exception in input order.

    With ``capture_errors=True`` a raising task yields a
    :class:`TaskError` in its slot instead of poisoning the whole map:
    one bad item no longer kills the ``ProcessPoolExecutor`` (or the
    serial loop), and both paths return the same captured error.

    ``deadlines``, aligned with ``items`` (``None`` = unbounded), gives
    each *pooled* item a wall-clock budget in seconds: an item still
    running when its budget expires yields
    ``TaskError(kind=DEADLINE_ERROR)`` in its slot, and its worker is
    cut loose (the pool shuts down without waiting for it — a wedged
    process cannot be reasoned with).  The other items are unaffected.
    A serial map cannot interrupt an in-process call and ignores them.

    With ``shared`` given, each call is ``fn(shared, item)``: a pooled
    map hands ``shared`` to every worker process once (inherited at fork,
    pickled once per worker otherwise), so only the items travel per task.

    When an observability context is active (:func:`repro.obs.current`),
    every task runs under a per-item capture context — in the serial
    path too, so span IDs and metrics cannot depend on worker count —
    and the captured spans/counters are grafted back in input order
    (a timed-out item contributes none: its worker never reported back).
    """
    seq: Sequence[T] = list(items)
    if deadlines is not None and len(deadlines) != len(seq):
        raise ValueError("deadlines must align with items")
    cfg = config or ParallelConfig()
    if shared is not _UNSHARED:
        fn = _WithShared(fn, shared)
    if capture_errors:
        fn = _CaptureErrors(fn)
    ctx = _obs_current()
    observed = ctx.enabled
    if observed:
        path = ctx.tracer.current_path() + ("parallel_map",)
        mapped: Callable = _ObsTask(fn, ctx.tracer.seed, path)
        work: Sequence = list(enumerate(seq))
    else:
        mapped = fn
        work = seq
    workers = cfg.resolved_workers(len(seq))
    if workers <= 1 or not seq:
        raw = [mapped(x) for x in work]
    else:
        raw = _pool_map(
            mapped, work, workers, deadlines or [None] * len(seq), shared
        )
    if not observed:
        return raw
    results: list[R] = []
    for i, env in enumerate(raw):
        if isinstance(env, ObsEnvelope):
            ctx.tracer.adopt(env.spans, tid=i + 1)
            ctx.metrics.merge(env.metrics)
            ctx.events.adopt(env.events)
            env = env.result
        results.append(env)
    return results


def _pool_map(
    fn: Callable,
    work: Sequence,
    workers: int,
    deadlines: Sequence[float | None],
    shared: Any = _UNSHARED,
) -> list:
    """Submit every item to one pool; wait for each within its deadline.

    The parent's heap stays frozen (:func:`gc.freeze`) while the pool
    runs, unless something else froze it already.
    """
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    init = {} if shared is _UNSHARED else {"initializer": _share, "initargs": (shared,)}
    expired: dict[int, TaskError] = {}
    try:
        pool = ProcessPoolExecutor(max_workers=workers, **init)
        try:
            futures = [pool.submit(fn, w) for w in work]
            start = time.monotonic()
            pending = set(futures)
            while pending:
                live = [
                    d for f, d in zip(futures, deadlines) if f in pending and d is not None
                ]
                timeout = max(0.0, min(live) - (time.monotonic() - start)) if live else None
                _, pending = wait(pending, timeout=timeout)
                now = time.monotonic() - start
                for i, (f, d) in enumerate(zip(futures, deadlines)):
                    if f in pending and d is not None and now >= d:
                        f.cancel()
                        pending.discard(f)
                        expired[i] = TaskError(
                            kind=DEADLINE_ERROR,
                            message=f"task {i} exceeded its {d:g}s deadline",
                        )
        finally:
            pool.shutdown(wait=not expired, cancel_futures=True)
    finally:
        if freeze:
            gc.unfreeze()
    return [expired[i] if i in expired else f.result() for i, f in enumerate(futures)]
