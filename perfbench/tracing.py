"""In-memory span tracing installed around the public functions of each layer.

The program under test is not modified: :meth:`Tracer.install` replaces
layer entry points (``build_world``, ``link_identities``,
``ArtifactCache.load``, ``AnalysisService.handle`` ...) with wrappers
that record one span per call -- id, parent, name, start, end and a few
attributes -- in memory.  Spans are reduced to per-layer metrics when
the run ends (the traced server writes them to a file first).

A layer's *self time* is its spans' durations minus the time covered by
their child spans, so in a single-threaded run the self times of all
layers plus the self time of the benchmark's own root spans add up to
the traced wall time.  In the server, a request thread that blocks on
another thread (an admission slot, a dataset run in flight) records
that wait as a ``serve.wait.*`` span, which is not self time of any
layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import resource
import sys
import threading
import time
from typing import Callable

# (module, function, layer).  Modules that imported the function by name
# are rebound to the wrapper too.
FUNCTIONS = (
    ("repro.synth.world", "build_world", "synth.build_world"),
    ("repro.pipeline.ingest", "ingest_world", "pipeline.ingest"),
    ("repro.pipeline.ingest", "ingest_world_resilient", "pipeline.ingest"),
    ("repro.pipeline.link", "link_identities", "pipeline.link"),
    ("repro.pipeline.enrich", "enrich_researchers", "pipeline.enrich"),
    ("repro.pipeline.infer", "infer_genders", "pipeline.infer"),
    ("repro.contracts.validators", "validate_harvest", "contracts"),
    ("repro.contracts.validators", "validate_linked", "contracts"),
    ("repro.contracts.validators", "validate_enrichment", "contracts"),
    ("repro.contracts.validators", "validate_assignments", "contracts"),
    ("repro.contracts.audit", "run_integrity_audit", "contracts"),
    ("repro.report.experiments", "run_experiment", "analysis"),
    ("repro.analysis.far", "far_report", "analysis"),
    ("repro.analysis.blind", "blind_report", "analysis"),
    ("repro.analysis.sensitivity", "sensitivity_report", "analysis"),
    ("repro.tabular.join", "inner_join", "tabular"),
    ("repro.tabular.join", "left_join", "tabular"),
    ("repro.engine.fingerprint", "fingerprint", "engine.fingerprint"),
    ("repro.pipeline.sharded", "stage_shard", "sharded.shard"),
    ("repro.pipeline.sharded", "stage_merge", "sharded.merge"),
    ("repro.util.parallel", "parallel_map", "parallel.map"),
)

# (module, class, method, layer)
METHODS = (
    ("repro.pipeline.dataset", "AnalysisDataset", "build", "pipeline.dataset"),
    ("repro.tabular.table", "Table", "from_records", "tabular"),
    ("repro.tabular.table", "Table", "filter", "tabular"),
    ("repro.tabular.table", "Table", "take", "tabular"),
    ("repro.tabular.table", "Table", "sort_by", "tabular"),
    ("repro.tabular.table", "Table", "value_counts", "tabular"),
    ("repro.tabular.table", "Table", "concat", "tabular"),
    ("repro.tabular.groupby", "GroupBy", "__init__", "tabular"),
    ("repro.tabular.groupby", "GroupBy", "agg", "tabular"),
    ("repro.tabular.groupby", "GroupBy", "apply", "tabular"),
    ("repro.tabular.chunked", "ChunkedTableBuilder", "append", "tabular"),
    ("repro.tabular.chunked", "ChunkedTableBuilder", "build", "tabular"),
    ("repro.engine.cache", "ArtifactCache", "load", "engine.cache.load"),
    ("repro.engine.cache", "ArtifactCache", "save", "engine.cache.save"),
    ("repro.serve.http", "ServeHandler", "do_GET", "serve.http"),
    ("repro.serve.admission", "AdmissionController", "acquire", "serve.wait.admission"),
    ("repro.serve.service", "AnalysisService", "handle", "serve.service"),
    ("repro.serve.service", "AnalysisService", "_compute", "serve.cold"),
)


PRELOAD = ("repro.api", "repro.engine", "repro.report", "repro.serve", "repro.obs.ledger")


def recording(tracer: "Tracer | None", recorded: bool, root: str):
    """A root span when ``recorded``; with a tracer but not recorded, nothing.

    Unrecorded passes run with the wrappers installed: a traced run's
    overhead baseline.
    """
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(root) if recorded else tracer.paused()


def children_cpu_s() -> float:
    """CPU seconds of reaped child processes (pool workers)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans kept in memory as ``(id, parent, name, start, end, attrs)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # None records every layer; a set restricts recording to those
        self.only: set[str] | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, hook=None):
        """Run ``fn`` under a span; ``hook`` maps the call to span attributes.

        ``hook(args, kwargs)`` runs before the call and returns a
        function of the result giving the attributes.
        """
        if self.only is not None and name not in self.only:
            return fn(*args, **kwargs)
        finish = hook(args, kwargs) if hook is not None else None
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        attrs: dict = {}
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if finish is not None:
                attrs = finish(result)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, attrs))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the wrappers stay installed)."""
        saved, self.only = self.only, set()
        try:
            yield
        finally:
            self.only = saved

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((sid, parent, name, t0, time.perf_counter(), {}))

    # ------------------------------------------------------------ install

    def install(self) -> None:
        # load every layer first, so rebinding reaches each by-name import
        for module in PRELOAD:
            importlib.import_module(module)
        hooks = {
            "engine.cache.load": _entry_bytes,
            "engine.cache.save": _entry_bytes,
            "sharded.shard": lambda args, kwargs: lambda _: {"key": args[0].key},
            "serve.service": self._tier_of_request,
        }
        for module, attr, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            self._rebind(original, self._wrap(original, layer, hooks.get(layer)))
        for module, cls_name, meth, layer in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[meth]
            is_cm = isinstance(raw, classmethod)
            wrapped = self._wrap(raw.__func__ if is_cm else raw, layer, hooks.get(layer))
            setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
        self._install_tier_probe()
        self._install_inflight_wait()

    def _wrap(self, fn: Callable, layer: str, hook) -> Callable:
        call = self.call
        if layer == "parallel.map":
            return self._wrap_pool(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(layer, fn, args, kwargs, hook)

        return wrapper

    def _wrap_pool(self, fn: Callable) -> Callable:
        """``parallel_map`` gets a span only when it runs a process pool.

        A serial map is part of its caller's work; a pooled one records
        the parent's wall time and the CPU its reaped workers used.
        """
        call = self.call

        @functools.wraps(fn)
        def wrapper(task, items, config=None, *args, **kwargs):
            items = list(items)
            workers = config.resolved_workers(len(items)) if config is not None else 1
            if workers <= 1:
                return fn(task, items, config, *args, **kwargs)
            cpu0 = children_cpu_s()
            return call(
                "parallel.map",
                fn,
                (task, items, config) + args,
                kwargs,
                lambda a, k: lambda _: {
                    "workers": workers,
                    "child_cpu_s": children_cpu_s() - cpu0,
                },
            )

        return wrapper

    def _rebind(self, original: Callable, wrapped: Callable) -> None:
        """Point every ``repro`` module's reference to ``original`` at ``wrapped``."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def _install_tier_probe(self) -> None:
        """Remember which tier ``AnalysisService._dataset`` answered from."""
        from repro.serve.service import AnalysisService

        raw = AnalysisService.__dict__["_dataset"]
        local = self._local

        @functools.wraps(raw)
        def probe(service, *args, **kwargs):
            result = raw(service, *args, **kwargs)
            local.tier = result[1]  # "memory" | "disk" | "cold"
            return result

        AnalysisService._dataset = probe

    def _install_inflight_wait(self) -> None:
        """Span the wait of a request blocked on a dataset run in another thread.

        ``AnalysisService._dataset`` waits on the ``threading.Event`` of
        the module's ``_InFlight`` record while ``_compute`` runs; the
        module is pointed at a subclass whose event records that wait.
        """
        import repro.serve.service as service

        call = self.call

        class WaitSpannedEvent(threading.Event):
            def wait(self, timeout=None):
                return call("serve.wait.inflight", super().wait, (timeout,), {})

        class WaitSpannedInFlight(service._InFlight):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                self.event = WaitSpannedEvent()

        service._InFlight = WaitSpannedInFlight

    def _tier_of_request(self, args, kwargs):
        local = self._local
        local.tier = None

        def finish(response) -> dict:
            tier = local.tier
            local.tier = None
            if response.status == 304:
                tier = "not_modified"
            elif response.status != 200:
                tier = "error"
            return {"tier": tier or "body", "status": response.status}

        return finish

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _entry_bytes(args, kwargs):
    cache, node, key = args[0], args[1], args[2]

    def finish(_) -> dict:
        try:
            return {"bytes": cache.entry_path(node, key).stat().st_size}
        except OSError:
            return {"bytes": 0}

    return finish
