"""Shared plumbing: checkout layout, scratch dirs, statistics, reporting."""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# every file the benchmark writes lives here, inside the checkout
WORK = ROOT / ".perfbench-work"

# end-to-end metrics, printed by every workload with --trace 0
END_TO_END = {
    "setup_s": "s",
    "cold_ms": "ms",
    "warm_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics, printed by every workload with --trace 1; a layer a
# workload bypasses reads 0
PER_LAYER = {
    "synth.build_world.self_s": "s",
    "pipeline.ingest.self_s": "s",
    "pipeline.link.self_s": "s",
    "pipeline.enrich.self_s": "s",
    "pipeline.infer.self_s": "s",
    "pipeline.dataset.self_s": "s",
    "contracts.self_s": "s",
    "contracts.quarantined": "count",
    "analysis.self_s": "s",
    "tabular.self_s": "s",
    "engine.fingerprint.self_s": "s",
    "engine.cache.load.self_s": "s",
    "engine.cache.bytes_read": "bytes",
    "engine.cache.save.self_s": "s",
    "engine.cache.bytes_written": "bytes",
    "engine.cache.hit_ratio": "ratio",
    "sharded.shard.self_s": "s",
    "sharded.shard.skew": "ratio",
    "sharded.merge.self_s": "s",
    "parallel.map.wait_s": "s",
    "serve.self_s": "s",
    "serve.wait_s": "s",
    "serve.idle_s": "s",
    "serve.tier.body.share": "ratio",
    "serve.tier.body.p50_ms": "ms",
    "serve.tier.memory.share": "ratio",
    "serve.tier.memory.p50_ms": "ms",
    "serve.tier.disk.share": "ratio",
    "serve.tier.disk.p50_ms": "ms",
    "serve.tier.cold.share": "ratio",
    "serve.tier.cold.p50_ms": "ms",
    "serve.tier.not_modified.share": "ratio",
    "serve.tier.not_modified.p50_ms": "ms",
    "serve.admission.wait_p99_ms": "ms",
    "serve.shed": "count",
    "serve.coalesced": "count",
    "serve.http_overhead_p50_ms": "ms",
    "loadgen.lateness_p99_ms": "ms",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

# layers whose self time is reported as <layer>.self_s
SELF_TIMED = tuple(
    name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")
)


class NoResult(RuntimeError):
    """The run cannot produce a result, so none is printed."""


def require_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise NoResult(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def scratch_dir(prefix: str) -> str:
    """A fresh directory under the work root; the caller removes it."""
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def cleanup_work() -> None:
    """Remove the work root once no run uses it any more."""
    try:
        WORK.rmdir()
    except OSError:
        pass  # another directory is still in it


def interpreter_setup_s(modules: tuple[str, ...], samples: int = 3) -> list[float]:
    """Wall seconds for a fresh interpreter to import ``modules`` and be ready."""
    code = "".join(f"import {m}\n" for m in modules) + "print('ready', flush=True)\n"
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise NoResult(f"interpreter failed to import {modules}")
        out.append(elapsed)
    return out


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8") if isinstance(t, str) else t)
        h.update(b"\0")
    return h.hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(min(rank, len(ordered))) - 1]


def supported_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def describe(name: str, unit: str, values) -> str:
    """One summary line: median, highest supported percentile, count."""
    n = len(values)
    if not n:
        return f"  {name:<26s} (no samples)"
    line = f"  {name:<26s} p50={statistics.median(values):.4g} {unit}"
    q = supported_percentile(n)
    if q is not None and q != 50.0:
        line += f"  p{q:g}={percentile(values, q):.4g} {unit}"
    elif n > 1:
        line += f"  max={max(values):.4g} {unit}"
    return line + f"  n={n}"


@dataclass
class Outcome:
    """What one workload run hands back to the reporter."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.mismatches.append(what)


# ------------------------------------------------------------ span algebra


# spans that block on another thread's work (an admission slot, a dataset
# run in flight); their time is reported as serve.wait_s, not as self time
WAITS = ("serve.wait.admission", "serve.wait.inflight")


def span_self_times(spans):
    """Each span with its self seconds: its duration minus its children's."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, t0, t1, _ in spans:
        if parent:
            covered[parent] += t1 - t0
    for span in spans:
        yield span, (span[4] - span[3]) - covered[span[0]]


def self_times(spans) -> dict[str, float]:
    """Per-name self seconds."""
    out: dict[str, float] = defaultdict(float)
    for span, seconds in span_self_times(spans):
        out[span[2]] += seconds
    return out


def root_wall(spans, roots: tuple[str, ...]) -> float:
    """Total duration of the top-level spans named in ``roots``."""
    return sum(s[4] - s[3] for s in spans if s[2] in roots and not s[1])


def layer_metrics(spans, wall: float) -> dict[str, float]:
    """Per-layer self times, cache traffic, and the wall they account for.

    ``trace.unattributed_s`` is the part of ``wall`` that no reported
    layer's self time covers.  Waits are not self time.
    """
    own: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        if name in WAITS:
            own["serve.wait"] += seconds
        else:
            # the serving layer's spans (http, service, cold) roll up
            own["serve" if name.startswith("serve.") else name] += seconds
    m = {f"{layer}.self_s": own[layer] for layer in SELF_TIMED}
    m["serve.wait_s"] = own["serve.wait"]
    loads = [s for s in spans if s[2] == "engine.cache.load" and "bytes" in s[5]]
    saves = [s for s in spans if s[2] == "engine.cache.save" and "bytes" in s[5]]
    m["engine.cache.bytes_read"] = float(sum(s[5]["bytes"] for s in loads))
    m["engine.cache.bytes_written"] = float(sum(s[5]["bytes"] for s in saves))
    moved = len(loads) + len(saves)
    m["engine.cache.hit_ratio"] = len(loads) / moved if moved else 0.0
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(own[layer] for layer in SELF_TIMED)
    return m


def idle_s(spans, start: float, end: float) -> float:
    """Time in ``[start, end]`` when no thread had a top-level span open."""
    busy, reach = 0.0, start
    for t0, t1 in sorted((s[3], s[4]) for s in spans if not s[1]):
        t0, t1 = max(t0, reach), min(t1, end)
        if t1 > t0:
            busy += t1 - t0
            reach = t1
    return (end - start) - busy


def pool_wait_s(spans) -> float:
    """Parent wall inside pooled ``parallel_map`` beyond the workers' share of CPU."""
    wait = 0.0
    for _, _, name, t0, t1, attrs in spans:
        if name == "parallel.map" and attrs.get("workers", 1) > 1:
            wait += max(0.0, (t1 - t0) - attrs["child_cpu_s"] / attrs["workers"])
    return wait


def finish_layers(partial: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload bypassed the layer."""
    return {name: float(partial.get(name, 0.0)) for name in PER_LAYER}
