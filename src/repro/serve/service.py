"""The analysis service: cache-backed queries with graceful degradation.

:class:`AnalysisService` is the transport-free core of ``repro serve``
— the HTTP layer (:mod:`repro.serve.http`) only parses requests and
writes responses; every serving decision lives here, so the robustness
contracts are unit-testable without sockets:

- **Three-tier warm path.**  A query is served from the in-process
  body cache (identical endpoint+params seen before), else from the
  in-process dataset memo (same config, different endpoint), else from
  the on-disk content-addressed engine cache, else by a cold engine
  run.  ETags derive from the same fingerprints that key the engine
  cache, so a client replaying ``If-None-Match`` gets a 304 without
  touching any tier.
- **Request coalescing.**  N identical in-flight configs trigger one
  engine run (single-flight keyed by ``RunConfig.fingerprint()``); the
  other N−1 requests wait on the first run's completion event.
- **Deadlines.**  A request waits at most its budget for the cold run;
  on expiry it answers 504 with partial-result metadata (the stages
  completed so far).  The run itself keeps going and lands in the warm
  set, so the client's retry is a cache read.
- **Circuit breaking.**  Each config fingerprint gets its own
  :class:`~repro.faults.breaker.CircuitBreaker` around cold-path
  execution: a config that keeps failing degrades to fast 503s while
  every other config — and the whole warm path — keeps serving.
- **Deterministic chaos.**  With a :class:`~repro.faults.chaos.ChaosConfig`,
  each request draws a fault from a seed-derived plan keyed by request
  identity and per-identity ordinal.  Same seed + same request sequence
  ⇒ byte-identical response bodies, which is what the chaos determinism
  tests assert.

Every decision emits a typed ``serve.*`` event into the unified event
log; the session's counters land in the run ledger on drain.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.fingerprint import fingerprint
from repro.faults.breaker import CircuitBreaker
from repro.faults.chaos import ChaosKind, ChaosPlan
from repro.faults.errors import CircuitOpenError
from repro.obs.events import EventLog
from repro.pipeline.config import RunConfig
from repro.pipeline.runner import run_pipeline
from repro.serve.config import ServeConfig
from repro.serve.encode import (
    blind_payload,
    canonical_json,
    error_payload,
    far_payload,
    sensitivity_payload,
)

__all__ = ["AnalysisService", "ServeResponse", "ANALYSIS_ENDPOINTS"]

#: the analysis endpoints under /v1/ (``runs`` is routed separately)
ANALYSIS_ENDPOINTS = ("far", "blind", "sensitivity")

#: bumped when response shapes change, so ETags from an old server
#: never validate against a new one's bodies
SERVE_SCHEMA = 1

_DATASET_MEMO = 8     # configs held in memory (each is a full dataset)
_BODY_MEMO = 512      # rendered bodies held in memory (small JSON blobs)


@dataclass(frozen=True)
class ServeResponse:
    """One transport-free response: status, canonical body, headers."""

    status: int
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 400


class _BadRequest(ValueError):
    """A request parameter failed validation (→ 400)."""


class _DeadlineExceeded(Exception):
    """The cold run outlived the request budget (→ 504)."""

    def __init__(self, stages: list[str], waiters: int) -> None:
        super().__init__("deadline exceeded")
        self.stages = stages
        self.waiters = waiters


class _ColdRunFailed(Exception):
    """The cold engine run raised (→ 503, breaker already charged)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class _InFlight:
    """Single-flight state for one config fingerprint."""

    event: threading.Event = field(default_factory=threading.Event)
    stages: dict = field(default_factory=dict)  # filled by the cold run
    result: Any = None          # AnalysisDataset on success
    source: str = "cold"        # "cold" | "disk"
    error: str | None = None
    waiters: int = 0


class AnalysisService:
    """Answer analysis queries out of the engine cache, degrade gracefully."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._datasets: OrderedDict[str, Any] = OrderedDict()
        self._bodies: OrderedDict[tuple, bytes] = OrderedDict()
        self._inflight: dict[str, _InFlight] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._counters: dict[str, int] = {}
        self._chaos = ChaosPlan(config.chaos) if config.chaos is not None else None
        self._chaos_seen: dict[str, int] = {}
        self.events = EventLog()
        self._draining = False

    # ------------------------------------------------------------ accounting

    def _count(self, key: str, by: int = 1) -> None:
        self._counters[key] = self._counters.get(key, 0) + by

    def _emit(self, type: str, name: str = "", **attrs: Any) -> None:
        with self._lock:
            self.events.emit(type, name, **attrs)

    def counters(self) -> dict[str, int]:
        """A sorted snapshot of the session counters."""
        with self._lock:
            return {k: self._counters[k] for k in sorted(self._counters)}

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------ lifecycle

    def begin_drain(self) -> None:
        """Flip readiness off; in-flight work continues, new work is refused."""
        self._draining = True
        self._emit("serve.drain", "begin")

    def session_record(self):
        """The serve session as a ledger record (body = counters, no timing)."""
        from repro.obs.ledger import build_service_record
        from repro.version import __version__

        meta = {
            "command": "serve",
            "version": __version__,
            "seed": self.config.seed,
            "scale": self.config.scale,
            "chaos": self.config.chaos is not None,
            "engine": self.config.cache_dir is not None,
        }
        return build_service_record(meta, self.counters())

    def flush_ledger(self) -> str | None:
        """Append the session record + event stream; returns the run id."""
        if self.config.obs_dir is None:
            return None
        from repro.obs.ledger import RunLedger

        self._emit("serve.drain", "flush")
        ledger = RunLedger(Path(self.config.obs_dir) / "ledger")
        identified = ledger.append(self.session_record(), events=self.events)
        return identified.run_id

    # --------------------------------------------------------------- routing

    def handle(
        self,
        path: str,
        query: dict[str, str],
        if_none_match: str | None = None,
        deadline_s: float | None = None,
    ) -> ServeResponse:
        """Serve one admitted request; never raises.

        ``path`` is the URL path (``/v1/far``), ``query`` the parsed
        query parameters, ``deadline_s`` the remaining request budget
        (defaults to the configured one).
        """
        self._count_emit("requests", "serve.request", path)
        try:
            if not path.startswith("/v1/"):
                return self._error(404, "not-found", f"no route {path!r}")
            tail = path[len("/v1/"):].strip("/")
            if tail == "runs" or tail.startswith("runs/"):
                return self._handle_runs(tail, if_none_match)
            if tail not in ANALYSIS_ENDPOINTS:
                return self._error(404, "not-found", f"no endpoint {tail!r}")
            return self._handle_analysis(tail, query, if_none_match, deadline_s)
        except _BadRequest as exc:
            return self._error(400, "bad-request", str(exc))
        except Exception as exc:  # belt: a handler bug must not 500
            self._emit("serve.error", path, error=type(exc).__name__)
            return self._error(
                503, "internal", f"{type(exc).__name__}: {exc}", retry_after=True
            )

    def _count_emit(self, counter: str, event: str, name: str, **attrs: Any) -> None:
        with self._lock:
            self._count(counter)
            self.events.emit(event, name, **attrs)

    # ------------------------------------------------------------- analysis

    def _handle_analysis(
        self,
        endpoint: str,
        query: dict[str, str],
        if_none_match: str | None,
        deadline_s: float | None,
    ) -> ServeResponse:
        seed, scale, conference, deadline = self._params(query, deadline_s)
        rc = RunConfig.for_query(
            seed,
            scale,
            shards=self.config.shards,
            shard_workers=self.config.shard_workers,
            cache_dir=self.config.cache_dir,
        )
        fp = rc.fingerprint()
        identity = f"{endpoint}:{fp[:16]}" + (
            f":{conference}" if conference is not None else ""
        )

        # deterministic chaos behind the handler: drawn per request
        # identity+ordinal, before any cache tier, so injected faults
        # hit warm and cold paths alike — and identically across
        # same-seed sessions given the same request sequence
        injected = self._chaos_draw(identity)
        if injected is ChaosKind.EXCEPTION or injected is ChaosKind.HANG:
            with self._lock:
                self._count("chaos.injected")
                self._breaker(fp).record_failure()
            if injected is ChaosKind.EXCEPTION:
                return self._error(
                    503, "injected-fault",
                    f"chaos: injected exception serving {identity}",
                    retry_after=True,
                )
            return ServeResponse(
                504,
                canonical_json(
                    error_payload(
                        "injected-hang",
                        f"chaos: injected hang serving {identity}",
                        partial={"stages": [], "state": "hung"},
                    )
                ),
                headers=(("Retry-After", self._retry_after),),
            )

        etag = self._etag(endpoint, fp, conference)
        if if_none_match is not None and etag in {
            t.strip() for t in if_none_match.split(",")
        }:
            self._count_emit(
                "not_modified", "serve.not_modified", endpoint, etag=etag.strip('"')
            )
            return ServeResponse(304, b"", headers=(("ETag", etag),))

        body_key = (endpoint, fp, conference)
        with self._lock:
            body = self._bodies.get(body_key)
            if body is not None:
                self._bodies.move_to_end(body_key)
                self._count("hits.body")
        if body is None:
            try:
                ds, source = self._dataset(rc, fp, deadline)
            except CircuitOpenError:
                self._count_emit(
                    "breaker_open", "serve.breaker_open", endpoint, config=fp[:16]
                )
                return self._error(
                    503, "circuit-open",
                    f"cold path for config {fp[:16]} is circuit-broken",
                    retry_after=True,
                )
            except _ColdRunFailed as exc:
                self._count_emit("cold_failures", "serve.error", endpoint,
                                 error="cold-run")
                return self._error(
                    503, "cold-run-failed", exc.reason, retry_after=True
                )
            except _DeadlineExceeded as exc:
                self._count_emit("deadline", "serve.deadline", endpoint,
                                 config=fp[:16])
                return ServeResponse(
                    504,
                    canonical_json(
                        error_payload(
                            "deadline-exceeded",
                            f"cold run for config {fp[:16]} outlived the "
                            f"request budget; it continues in the background",
                            partial={
                                "stages_completed": exc.stages,
                                "state": "executing",
                                "coalesced_waiters": exc.waiters,
                            },
                            config_fingerprint=fp,
                        )
                    ),
                    headers=(("Retry-After", self._retry_after),),
                )
            with self._lock:
                self._count(f"hits.{source}" if source != "cold" else "cold_runs")
            body = self._render(endpoint, ds, seed, scale, fp, conference)
            if isinstance(body, ServeResponse):  # unknown conference → 404
                return body
            with self._lock:
                self._bodies[body_key] = body
                while len(self._bodies) > _BODY_MEMO:
                    self._bodies.popitem(last=False)
        self._count_emit("responses.200", "serve.response", endpoint, status=200)
        return ServeResponse(
            200,
            body,
            headers=(
                ("ETag", etag),
                ("Cache-Control", "no-cache"),
            ),
        )

    def _render(
        self, endpoint: str, ds: Any, seed: int, scale: float,
        fp: str, conference: str | None,
    ) -> bytes | ServeResponse:
        # analysis imports are lazy, mirroring repro.obs.ledger: the
        # service core must import without the full analysis stack
        from repro.analysis.blind import blind_report
        from repro.analysis.far import far_report
        from repro.analysis.sensitivity import sensitivity_report

        if endpoint == "far":
            report = far_report(ds)
            if conference is not None and not any(
                c.conference == conference for c in report.by_conference
            ):
                known = ",".join(c.conference for c in report.by_conference)
                return self._error(
                    404, "unknown-conference",
                    f"no conference {conference!r} (known: {known})",
                )
            payload = far_payload(report, seed, scale, fp, conference)
        elif endpoint == "blind":
            payload = blind_payload(blind_report(ds), seed, scale, fp)
        else:
            payload = sensitivity_payload(sensitivity_report(ds), seed, scale, fp)
        return canonical_json(payload)

    # ------------------------------------------------------------ parameters

    def _params(
        self, query: dict[str, str], deadline_s: float | None
    ) -> tuple[int, float, str | None, float]:
        allowed = {"seed", "scale", "conference", "deadline"}
        unknown = sorted(set(query) - allowed)
        if unknown:
            raise _BadRequest(
                f"unknown parameter(s) {','.join(unknown)} "
                f"(allowed: {','.join(sorted(allowed))})"
            )
        try:
            seed = int(query.get("seed", self.config.seed))
        except ValueError:
            raise _BadRequest(f"seed must be an integer, got {query['seed']!r}")
        try:
            scale = float(query.get("scale", self.config.scale))
        except ValueError:
            raise _BadRequest(f"scale must be a number, got {query['scale']!r}")
        if not 0.0 < scale <= self.config.max_scale:
            raise _BadRequest(
                f"scale must be in (0, {self.config.max_scale}], got {scale}"
            )
        deadline = self.config.deadline_s if deadline_s is None else deadline_s
        if "deadline" in query:
            try:
                requested = float(query["deadline"])
            except ValueError:
                raise _BadRequest(
                    f"deadline must be a number, got {query['deadline']!r}"
                )
            if requested <= 0:
                raise _BadRequest(f"deadline must be > 0, got {requested}")
            # a request may tighten its budget, never extend the server's
            deadline = min(deadline, requested)
        return seed, scale, query.get("conference"), deadline

    # ----------------------------------------------------------------- etag

    def _etag(self, endpoint: str, fp: str, conference: str | None) -> str:
        """Content-addressed validator, derivable without running anything.

        Folds the serve schema, the endpoint, and the config fingerprint
        — the exact digest the engine cache keys on — so a match means
        "the bytes you hold are what the cache would serve", and a 304
        costs no cache tier at all.
        """
        digest = fingerprint(
            "serve", SERVE_SCHEMA, endpoint, fp, conference or ""
        )
        return f'"{digest[:32]}"'

    # ---------------------------------------------------------------- chaos

    def _chaos_draw(self, identity: str) -> ChaosKind | None:
        if self._chaos is None:
            return None
        with self._lock:
            ordinal = self._chaos_seen.get(identity, 0) + 1
            self._chaos_seen[identity] = ordinal
        kind = self._chaos.draw_node(identity, ordinal)
        if kind is not None:
            self._emit(
                "fault.injected", identity, kind=kind.value, site="serve", n=ordinal
            )
        return kind

    # ------------------------------------------------------------- the runs

    def _breaker(self, fp: str) -> CircuitBreaker:
        """The per-config breaker (caller holds the lock)."""
        breaker = self._breakers.get(fp)
        if breaker is None:
            breaker = CircuitBreaker(f"serve:{fp[:16]}", self.config.breaker)
            self._breakers[fp] = breaker
        return breaker

    def _dataset(self, rc: RunConfig, fp: str, deadline: float) -> tuple[Any, str]:
        """The analysis dataset for one config: memo, coalesce, or run."""
        owner = False
        with self._lock:
            ds = self._datasets.get(fp)
            if ds is not None:
                self._datasets.move_to_end(fp)
                return ds, "memory"
            fl = self._inflight.get(fp)
            if fl is None:
                self._breaker(fp).check()  # CircuitOpenError → 503
                fl = _InFlight()
                self._inflight[fp] = fl
                owner = True
            else:
                fl.waiters += 1
                self._count("coalesced")
                self.events.emit("serve.coalesced", fp[:16], waiters=fl.waiters)
        if owner:
            threading.Thread(
                target=self._compute, args=(rc, fp, fl), daemon=True
            ).start()
        if not fl.event.wait(deadline):
            raise _DeadlineExceeded(
                stages=sorted(fl.stages), waiters=fl.waiters
            )
        if fl.error is not None:
            raise _ColdRunFailed(fl.error)
        return fl.result, fl.source

    def _compute(self, rc: RunConfig, fp: str, fl: _InFlight) -> None:
        """Cold path, run in its own thread so deadlines can expire past it.

        The run records its stages on the in-flight record, which is what
        a request whose deadline expires reports as completed.
        """
        try:
            res = run_pipeline(rc, stages=fl.stages)
            ds = res.dataset
            executed = len(res.executed_nodes)
        except Exception as exc:
            with self._lock:
                fl.error = f"{type(exc).__name__}: {exc}"
                self._breaker(fp).record_failure()
                self._inflight.pop(fp, None)
        else:
            with self._lock:
                fl.result = ds
                fl.source = "disk" if executed == 0 else "cold"
                self._breaker(fp).record_success()
                self._datasets[fp] = ds
                while len(self._datasets) > _DATASET_MEMO:
                    self._datasets.popitem(last=False)
                self._inflight.pop(fp, None)
        finally:
            fl.event.set()

    # ------------------------------------------------------------------ runs

    def _handle_runs(self, tail: str, if_none_match: str | None) -> ServeResponse:
        if self.config.obs_dir is None:
            return self._error(404, "no-ledger", "server has no ledger configured")
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(Path(self.config.obs_dir) / "ledger")
        run_id = tail[len("runs/"):] if tail.startswith("runs/") else ""
        if not run_id:
            body = canonical_json(
                {"runs": [r.run_id for r in ledger.records()]}
            )
            self._count_emit("responses.200", "serve.response", "runs", status=200)
            return ServeResponse(200, body)
        try:
            record = ledger.get(run_id)
        except KeyError as exc:
            return self._error(404, "unknown-run", str(exc))
        etag = f'"{record.digest[:32]}"'
        if if_none_match is not None and etag in {
            t.strip() for t in if_none_match.split(",")
        }:
            self._count_emit("not_modified", "serve.not_modified", "runs")
            return ServeResponse(304, b"", headers=(("ETag", etag),))
        self._count_emit("responses.200", "serve.response", "runs", status=200)
        return ServeResponse(
            200, canonical_json(record.to_dict()), headers=(("ETag", etag),)
        )

    # ---------------------------------------------------------------- errors

    @property
    def _retry_after(self) -> str:
        return str(max(1, round(self.config.retry_after_s)))

    def _error(
        self, status: int, code: str, message: str, retry_after: bool = False
    ) -> ServeResponse:
        self._count_emit(
            f"responses.{status}", "serve.response", code, status=status
        )
        headers: tuple[tuple[str, str], ...] = ()
        if retry_after:
            headers = (("Retry-After", self._retry_after),)
        return ServeResponse(
            status, canonical_json(error_payload(code, message)), headers=headers
        )

    # ------------------------------------------------- shed/timeout replies
    # (built here so the HTTP layer never hand-rolls a body)

    def shed_response(self) -> ServeResponse:
        self._count_emit("shed", "serve.shed", "admission")
        return ServeResponse(
            429,
            canonical_json(
                error_payload(
                    "overloaded",
                    "admission queue is full; retry after the hinted delay",
                )
            ),
            headers=(("Retry-After", self._retry_after),),
        )

    def queue_timeout_response(self) -> ServeResponse:
        self._count_emit("deadline", "serve.deadline", "admission")
        return ServeResponse(
            504,
            canonical_json(
                error_payload(
                    "deadline-exceeded",
                    "request spent its whole budget waiting for an "
                    "execution slot",
                    partial={"stages_completed": [], "state": "queued"},
                )
            ),
            headers=(("Retry-After", self._retry_after),),
        )

    def draining_response(self) -> ServeResponse:
        self._count_emit("rejected_draining", "serve.response", "draining",
                         status=503)
        return ServeResponse(
            503,
            canonical_json(
                error_payload("draining", "server is draining; not accepting work")
            ),
            headers=(("Retry-After", self._retry_after),),
        )
