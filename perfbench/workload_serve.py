"""``serve``: ``repro serve`` under open-loop load over a pre-populated cache.

Keys are ``(seed, endpoint, conference)`` tuples, Zipf-popular by seed
and by endpoint: 48 seeds x 12 endpoint variants = 576 keys, more than
the service's 512-body LRU and far more than its 8-dataset memo, so the
body, memory and disk tiers all stay live.  A share of requests replays
``If-None-Match`` (answered 304).

After a warm-up that requests every key once, the run times rounds of
the key mix at a fixed offered rate (``warm_ms``), each followed by
never-cached seeds arriving alone at a fixed rate (``cold_ms``), then
bisects a ladder of rates 8% apart to find the highest one whose p99 meets the latency limit without
a growing backlog (printed as ``serve_max_rps``).
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import itertools
import json
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from common import ROOT, Outcome, NoResult, child_env, describe, idle_s, layer_metrics
from common import percentile, remove, scratch_dir, span_self_times
from loadgen import Request, backlog_grew, run_schedule

SCALE = 0.1
POOL_SEEDS = 48
CONFERENCES = ("SC", "ISC", "IPDPS", "HPDC", "ICPP", "EuroPar", "CCGrid", "HiPC", "HPCC")
# endpoint variants, most popular first
VARIANTS = (
    (("far", None), ("blind", None))
    + tuple(("far", c) for c in CONFERENCES)
    + (("sensitivity", None),)
)
# The traffic shape is assumed: there is no record of real traffic to
# this service.  See DESIGN.md for why each value was chosen and the tier
# shares it produces.
SEED_ZIPF = 0.8
VARIANT_ZIPF = 0.5
REVALIDATE_SHARE = 0.1
COLD_PER_S = 3.0
# shares of --seconds: the key mix, then never-cached seeds alone
WARM_SHARE, COLD_SHARE = 0.4, 0.6
# the two phases alternate in ROUNDS short rounds, so each samples the
# machine's speed across all of the timed time, not in one stretch
ROUNDS = 6
CONNECTIONS = 2
LIMIT_MS = 20.0
LADDER = tuple(100.0 * 1.08**k for k in range(48))
FIXED_RUNG = 8  # 185 req/s, about a quarter of the full key mix's knee
LAUNCHES = 3
HOT_KEYS = 256
# the knee search tries 400-2012 req/s; knees seen on two CPUs were 500-1900
SEARCH_LOW, SEARCH_HIGH = 17, 40
STEP_REQUESTS = 1000  # per ladder step, so its p99 has ten samples beyond it
HERE = Path(__file__).resolve().parent


def _path(seed: int, endpoint: str, conference: str | None) -> str:
    path = f"/v1/{endpoint}?seed={seed}"
    return path + (f"&conference={conference}" if conference else "")


class Mix:
    """Zipf-popular analysis keys; ``Mix.of(pool)`` covers every key."""

    def __init__(self, paths: list[str], weights: list[float]) -> None:
        self.paths, self.weights = paths, weights
        total = sum(weights)
        self.cum = list(itertools.accumulate(w / total for w in weights))

    @classmethod
    def of(cls, pool: list[int]) -> "Mix":
        paths, weights = [], []
        for i, seed in enumerate(pool):
            for j, (endpoint, conf) in enumerate(VARIANTS):
                paths.append(_path(seed, endpoint, conf))
                weights.append((i + 1) ** -SEED_ZIPF * (j + 1) ** -VARIANT_ZIPF)
        return cls(paths, weights)

    def hottest(self, n: int) -> "Mix":
        """The ``n`` most popular keys, which the body LRU holds."""
        top = sorted(range(len(self.paths)), key=lambda i: -self.weights[i])[:n]
        return Mix([self.paths[i] for i in top], [self.weights[i] for i in top])

    def draw(self, rng: random.Random) -> str:
        return self.paths[min(bisect.bisect(self.cum, rng.random()), len(self.paths) - 1)]

    def every_key(self) -> list[Request]:
        """Each key once, all due at once: the cache warm-up.

        Seed by seed, least popular first, so each seed's dataset is
        loaded once and the most popular keys end up most recent.
        """
        return [Request(0.0, p) for p in reversed(self.paths)]

    def schedule(self, rng, rate: float, seconds: float) -> list[Request]:
        """Poisson arrivals at ``rate`` for ``seconds``."""
        out, t = [], 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= seconds:
                break
            out.append(Request(t, self.draw(rng), revalidate=rng.random() < REVALIDATE_SHARE))
        return out


def _cold_schedule(cold_seeds, seconds: float) -> list[Request]:
    """Never-cached seeds, evenly spaced at COLD_PER_S."""
    return [
        Request((k + 0.5) / COLD_PER_S, _path(next(cold_seeds), "far", None), cold=True)
        for k in range(max(1, round(seconds * COLD_PER_S)))
    ]


class Server:
    """One ``repro serve`` process over the shared cache directory."""

    def __init__(self, cache: str, obs: str, spans_file: str | None = None) -> None:
        args = ["--scale", str(SCALE), "--cache-dir", cache, "--obs-dir", obs,
                "serve", "--port", "0"]
        if spans_file is None:
            cmd = [sys.executable, "-u", "-m", "repro", *args]
        else:
            cmd = [sys.executable, "-u", str(HERE / "serve_launcher.py"), spans_file, *args]
        self.obs = obs
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
        )
        try:
            announce = self.proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", announce)
            if match is None:
                raise NoResult(f"repro serve did not announce a port: {announce!r}")
            self.port = int(match.group(1))
            self._await_ready(deadline=time.perf_counter() + 60)
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise NoResult("repro serve never became ready")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, return the session's ledger counters."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise NoResult("repro serve did not drain within 60 s")
        if self.proc.returncode != 0:
            raise NoResult(f"repro serve exited {self.proc.returncode}")
        lines = (Path(self.obs) / "ledger" / "runs.jsonl").read_text().splitlines()
        return json.loads(lines[-1])["body"]["service"]


def _populate(cache: str, seed: int) -> None:
    from repro.api import RunConfig, run_pipeline

    run_pipeline(RunConfig.for_query(seed, SCALE, cache_dir=cache))


def _prepopulate(cache: str, pool: list[int]) -> None:
    """Cache every pool seed: set-up, so two processes share the work.

    The first seed runs here and creates the cache directory; saves from
    the two processes then serialize on the cache's own lock.
    """
    _populate(cache, pool[0])
    with ProcessPoolExecutor(max_workers=CONNECTIONS) as workers:
        list(workers.map(partial(_populate, cache), pool[1:]))


def _latencies(samples) -> list[float]:
    """Per-request latency; a failed request misses any limit."""
    return [s.latency_ms if s.status in (200, 304) else float("inf") for s in samples]


def _passes(samples) -> bool:
    return percentile(_latencies(samples), 99) <= LIMIT_MS and not backlog_grew(samples, LIMIT_MS)


def _max_rps(session: "_Session") -> str:
    """The highest LADDER rate that passes, next to one that fails.

    Bisects the rungs between SEARCH_LOW and SEARCH_HIGH, one step per
    rung tried, so the search takes at most five steps on any machine
    and ends with the knee between two rates 8% apart.  The steps draw only keys
    the body LRU holds, so the knee is the warm path's own (HTTP,
    admission, body tier), not the luck of which rare disk loads land in
    a one-second step.  Returns a summary line.
    """
    hot = session.mix.hottest(HOT_KEYS)
    steps = []
    ok, over = SEARCH_LOW, SEARCH_HIGH  # assumed to pass and to fail
    while over - ok > 1:
        rung = (ok + over) // 2
        rate = LADDER[rung]
        step = session.play(hot.schedule(session.rng, rate, max(1.0, STEP_REQUESTS / rate)))
        passed = _passes(step)
        steps.append(f"{rate:.0f}:{'ok' if passed else 'over'}")
        ok, over = (rung, over) if passed else (ok, rung)
    if ok == SEARCH_LOW:
        knee = f"below {LADDER[ok + 1]:.0f} req/s"
    elif over == SEARCH_HIGH:
        knee = f"at least {LADDER[ok]:.0f} req/s"
    else:
        knee = f"{LADDER[ok]:.0f} req/s"
    return (
        f"  serve_max_rps              {knee} (p99 <= {LIMIT_MS:g} ms, no growing "
        f"backlog; steps {' '.join(steps)})"
    )


def _check(out: Outcome, samples, cache: str, default_seed: int) -> None:
    """Statuses, and every 200 body against in-process ``handle()``."""
    from repro.serve import AnalysisService, ServeConfig

    out.attempted += len(samples)
    paths = set()
    for s in samples:
        if s.status == 200:
            paths.add(s.request.path)
        elif not (s.status == 304 and s.sent_etag):
            out.fail(f"{s.request.path}: status {s.status}")
    service = AnalysisService(
        ServeConfig(seed=default_seed, scale=SCALE, cache_dir=cache, obs_dir=None)
    )
    want = {}
    # seed-major order, so each seed's dataset is loaded once
    for path in sorted(paths, key=lambda p: (parse_qsl(urlsplit(p).query)[0], p)):
        parts = urlsplit(path)
        ref = service.handle(parts.path, dict(parse_qsl(parts.query)))
        want[path] = hashlib.sha256(ref.body).hexdigest() if ref.status == 200 else None
    for s in samples:
        if s.status == 200 and s.body_sha != want[s.request.path]:
            out.fail(f"{s.request.path}: body differs from in-process handle()")


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    rng = random.Random(f"serve:{seed}")
    seeds = rng.sample(range(1, 1_000_000), POOL_SEEDS + 256)
    pool, cold_seeds = seeds[:POOL_SEEDS], iter(seeds[POOL_SEEDS:])
    mix = Mix.of(pool)
    cache = scratch_dir("serve-cache-")
    obs_dirs: list[str] = []
    samples: list = []

    def obs() -> str:
        obs_dirs.append(scratch_dir("serve-obs-"))
        return obs_dirs[-1]

    try:
        _prepopulate(cache, pool)
        if tracer is None:
            result = _timed(out, mix, rng, cache, obs, cold_seeds, seconds, samples)
        else:
            result = _traced(out, mix, rng, cache, obs, cold_seeds, seconds, samples)
        _check(out, samples, cache, pool[0])
    finally:
        remove(cache)
        for d in obs_dirs:
            remove(d)
    return result


class _Session:
    """One server's load phases; every sample also lands in ``samples``."""

    def __init__(self, server: Server, mix: Mix, rng, samples: list) -> None:
        self.server, self.mix, self.rng, self.samples = server, mix, rng, samples
        self.etags: dict = {}
        # the warm-up requests every key once, so timing starts from the
        # caches' steady state instead of filling them
        self.play(mix.every_key())
        self.warm_from = time.perf_counter()  # same clock as the server's spans

    def play(self, schedule: list[Request]) -> list:
        got = run_schedule(self.server.port, schedule, CONNECTIONS, self.etags)
        self.samples += got
        return got

    def fixed(self, seconds: float) -> list:
        """``seconds`` of the key mix at the fixed rate."""
        return self.play(self.mix.schedule(self.rng, LADDER[FIXED_RUNG], seconds))

    def cold(self, seconds: float, cold_seeds) -> list:
        """``seconds`` of never-cached seeds alone."""
        return self.play(_cold_schedule(cold_seeds, seconds))

    def rounds(self, seconds: float, cold_seeds):
        """The timed phases: ROUNDS rounds of the key mix, each then cold seeds.

        Returns the key-mix samples, the cold samples, each key-mix
        round's (start, end) and whether any key-mix round's backlog grew.
        """
        warm, cold, windows, grew = [], [], [], False
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            got = self.fixed(WARM_SHARE * seconds / ROUNDS)
            windows.append((t0, time.perf_counter()))
            grew = grew or backlog_grew(got, LIMIT_MS)
            warm += got
            cold += self.cold(COLD_SHARE * seconds / ROUNDS, cold_seeds)
        return warm, cold, windows, grew


def _start(cache: str, obs) -> tuple[Server, list[float]]:
    """Launch LAUNCHES servers, stopping all but the last; every setup time."""
    setups = []
    for _ in range(LAUNCHES - 1):
        server = Server(cache, obs())
        setups.append(server.setup_s)
        server.stop()
    server = Server(cache, obs())
    return server, setups + [server.setup_s]


def _timed(out, mix, rng, cache, obs, cold_seeds, seconds, samples) -> Outcome:
    server, setups = _start(cache, obs)
    try:
        session = _Session(server, mix, rng, samples)
        warm, cold, _, grew = session.rounds(seconds, cold_seeds)
        knee = _max_rps(session)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    warm_lat, cold_lat = _latencies(warm), _latencies(cold)
    out.lines += [
        f"serve: scale {SCALE}, {POOL_SEEDS} cached seeds x {len(VARIANTS)} endpoints, "
        f"{CONNECTIONS} connections, open loop at {LADDER[FIXED_RUNG]:.0f} req/s "
        f"alternating with {COLD_PER_S:g} never-cached seeds/s alone, {ROUNDS} rounds",
        describe("setup_s", "s", setups),
        describe("serve_p50_ms / p99", "ms", warm_lat),
        describe("serve_cold_p50_ms", "ms", cold_lat),
        describe("loadgen_lateness_ms", "ms", [s.lateness_ms for s in warm]),
        f"  backlog grew at fixed rate: {grew}",
        knee,
        f"  peak_rss_mb (server)       {rss:.1f} MB",
    ]
    out.metrics = {
        "setup_s": statistics.median(setups),
        "cold_ms": statistics.median(cold_lat),
        "warm_ms": statistics.median(warm_lat),
        "peak_rss_mb": rss,
    }
    return out


def _traced(out, mix, rng, cache, obs, cold_seeds, seconds, samples) -> Outcome:
    # the untraced session starts like a timed run's, so it is the baseline
    plain, _ = _start(cache, obs)
    try:
        base = _Session(plain, mix, rng, samples).rounds(seconds, cold_seeds)[0]
    finally:
        plain.stop()
    spans_file = str(Path(obs()) / "spans.json")
    traced = Server(cache, obs(), spans_file)
    try:
        session = _Session(traced, mix, rng, samples)
        warm, cold, windows, _ = session.rounds(seconds, cold_seeds)
        end = time.perf_counter()
    finally:
        counters = traced.stop()
    start = session.warm_from
    every = [tuple(s) for s in json.loads(Path(spans_file).read_text())]
    # the timed phases' spans; every warm-up request ended before them
    spans = [s for s in every if start <= s[3] <= end]

    # wall of the timed phases; the server is idle for most of it
    m = layer_metrics(spans, end - start)
    m["serve.idle_s"] = idle_s(spans, start, end)
    # tier shares from the ledger's session counters, less the warm-up
    # requests (counted from the spans that started before timing did)
    tiers = {"body": "hits.body", "memory": "hits.memory", "disk": "hits.disk",
             "cold": "cold_runs", "not_modified": "not_modified"}
    warm_up = Counter(s[5].get("tier") for s in every if s[2] == "serve.service" and s[3] < start)
    timed = {t: counters.get(c, 0) - warm_up[t] for t, c in tiers.items()}
    answered = sum(timed.values())
    handled = [s for s in spans if s[2] == "serve.service"]
    for tier in tiers:
        m[f"serve.tier.{tier}.share"] = timed[tier] / answered if answered else 0.0
        durations = [(s[4] - s[3]) * 1e3 for s in handled if s[5].get("tier") == tier]
        m[f"serve.tier.{tier}.p50_ms"] = statistics.median(durations) if durations else 0.0
    waits = [(s[4] - s[3]) * 1e3 for s in spans if s[2] == "serve.wait.admission"]
    m["serve.admission.wait_p99_ms"] = percentile(waits, 99)
    m["serve.shed"] = counters.get("shed", 0)
    m["serve.coalesced"] = counters.get("coalesced", 0)
    # HTTP overhead: self time of the do_GET spans that reached handle()
    analysed = {s[1] for s in handled}
    overhead = [
        self_s * 1e3 for s, self_s in span_self_times(spans)
        if s[2] == "serve.http" and s[0] in analysed
    ]
    m["serve.http_overhead_p50_ms"] = statistics.median(overhead) if overhead else 0.0
    m["loadgen.lateness_p99_ms"] = percentile([s.lateness_ms for s in warm], 99)
    warm_t = [s.latency_ms for s in warm]
    warm_u = [s.latency_ms for s in base]
    m["trace.overhead_ratio"] = statistics.median(warm_t) / statistics.median(warm_u)
    out.metrics = m

    def by_tier(key_mix: bool) -> str:
        counts = Counter(
            s[5].get("tier") for s in handled
            if any(t0 <= s[3] < t1 for t0, t1 in windows) == key_mix
        )
        return ", ".join(f"{t}={counts[t] / sum(counts.values()):.3f}" for t in tiers)

    out.lines += [
        f"serve (traced): {len(warm) + len(cold)} timed requests on the traced server",
        describe("serve_latency_ms untraced", "ms", warm_u),
        describe("serve_latency_ms traced", "ms", warm_t),
        "  timed requests by tier (ledger): " + ", ".join(f"{k}={v}" for k, v in timed.items()),
        "  key-mix rounds' tier shares: " + by_tier(True),
        "  cold rounds' tier shares: " + by_tier(False),
    ]
    return out
