"""``paper``: the reproducer's own job, once per seed, cold and then warm.

Each seed runs ``run_pipeline`` at paper scale with contracts in repair
mode into a fresh engine cache and builds all 17 experiment artifacts
(cold pass), then repeats both from that cache (warm pass).  The cold
pass spends its time in the pipeline stages, contracts and cache
writes; the warm pass in cache reads, fingerprinting and analysis.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from common import Outcome, NoResult, digest, interpreter_setup_s, remove, scratch_dir
from common import describe, layer_metrics, root_wall, self_peak_rss_mb
from tracing import recording

SCALE = 1.0
SETUP_MODULES = ("repro.api", "repro.report")
ROOTS = ("bench.paper.cold", "bench.paper.warm")


def _world_seeds(seed: int):
    rng = random.Random(f"paper:{seed}")
    seen = set()
    while True:
        s = rng.randrange(1, 1_000_000)
        if s not in seen:
            seen.add(s)
            yield s


def _pass(world_seed: int, cache_dir: str | None, scale: float = SCALE):
    """One run of the pipeline plus every experiment; returns (result, digest)."""
    import repro.report.experiments as experiments
    from repro.api import EngineConfig, RunConfig, WorldConfig, run_pipeline

    rc = RunConfig(
        world=WorldConfig(seed=world_seed, scale=scale),
        validation="repair",
        engine=EngineConfig(cache_dir=cache_dir) if cache_dir else None,
    )
    result = run_pipeline(rc)
    texts = []
    for exp_id in experiments.EXPERIMENTS:
        texts.append(exp_id)
        texts.append(experiments.run_experiment(exp_id, result)[1])
    return result, digest(texts)


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    setup = interpreter_setup_s(SETUP_MODULES)
    cold, warm, rate, quarantined = [], [], [], 0
    untraced, traced = [], []
    seeds = _world_seeds(seed)
    # untimed warm-up at a small scale: lazy imports and first-call costs
    cache = scratch_dir("paper-")
    try:
        for _ in range(2):
            _pass(next(seeds), cache, scale=0.1)
    finally:
        remove(cache)
    if tracer is not None:
        tracer.install()
    busy, tried = 0.0, 0
    # a traced run alternates recorded seeds with unrecorded ones (the
    # overhead baseline), so drift in machine speed hits both alike
    while busy < seconds or tried < (4 if tracer is not None else 2):
        tracing = tracer is not None and tried % 2 == 1
        tried += 1
        world_seed = next(seeds)
        cache = scratch_dir("paper-")
        out.attempted += 2
        # the previous pass's garbage is not the next pass's cost
        gc.collect()
        t0 = time.perf_counter()
        try:
            with recording(tracer, tracing, ROOTS[0]):
                result, d_cold = _pass(world_seed, cache)
            t1 = time.perf_counter()
            gc.collect()
            t1b = time.perf_counter()
            with recording(tracer, tracing, ROOTS[1]):
                _, d_warm = _pass(world_seed, cache)
            t2 = time.perf_counter()
            # reference: the same seed in-process on the engine-less runner
            with recording(tracer, False, ""):
                _, d_ref = _pass(world_seed, None)
        except Exception as exc:  # a pass that raises is a failed operation
            out.fail(f"seed {world_seed}: {type(exc).__name__}: {exc}")
            busy += time.perf_counter() - t0
            continue
        finally:
            remove(cache)
        busy += t2 - t0
        cold.append(t1 - t0)
        warm.append(t2 - t1b)
        (traced if tracing else untraced).append(t1 - t0 + t2 - t1b)
        rate.append(result.dataset.researchers.num_rows / (t1 - t0))
        if tracing and result.contracts is not None:
            quarantined += len(result.contracts.quarantine.entries)
        if d_warm != d_cold:
            out.fail(f"seed {world_seed}: warm artifacts differ from cold")
        if d_ref != d_cold:
            out.fail(f"seed {world_seed}: artifacts differ from the in-process reference")

    if not cold or (tracer is not None and not (traced and untraced)):
        raise NoResult(f"no pass succeeded: {'; '.join(out.mismatches[:3])}")
    out.lines += [
        f"paper: {len(cold)} seeds at scale {SCALE}, 17 artifacts per pass",
        describe("setup_s", "s", setup),
        describe("paper_cold_s", "s", cold),
        describe("paper_warm_s", "s", warm),
        describe("paper_researchers_per_s", "1/s", rate),
        f"  peak_rss_mb                {self_peak_rss_mb():.1f} MB",
    ]
    if tracer is None:
        out.metrics = {
            "setup_s": statistics.median(setup),
            "cold_ms": statistics.median(cold) * 1e3,
            "warm_ms": statistics.median(warm) * 1e3,
            "peak_rss_mb": self_peak_rss_mb(),
        }
    else:
        m = layer_metrics(tracer.spans, root_wall(tracer.spans, ROOTS))
        m["contracts.quarantined"] = quarantined
        m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        out.metrics = m
    return out
