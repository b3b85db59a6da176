"""Configuration of the analysis service.

One frozen :class:`ServeConfig` carries everything ``repro serve``
needs: the bind address, the default query world (seed/scale), the
engine cache backing warm queries, and — the robustness surface — the
admission bounds, the per-request deadline, the circuit-breaker policy
for poisoned configs, and an optional deterministic chaos plan injected
behind the request handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.faults.chaos import ChaosConfig
from repro.faults.plan import BreakerConfig

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything the serving layer needs; small, frozen, picklable.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port (the server
        announces the bound one) — the spelling tests and benches use.
    seed / scale:
        Defaults for queries that omit ``?seed=``/``?scale=``.
    shards / shard_workers:
        When ``shards`` is set, analysis queries run the sharded
        streaming pipeline (:mod:`repro.pipeline.sharded`, started by
        :func:`~repro.pipeline.runner.run_pipeline` like every run)
        with that venue count instead of the monolithic engine DAG;
        ``shard_workers`` bounds concurrent shard execution.  Queries
        route through :meth:`repro.pipeline.config.RunConfig.for_query`,
        the same constructor the CLI uses, so the service cache and a
        ``repro --shards N run`` address identical entries.
    cache_dir:
        Content-addressed engine cache backing the cold path; ``None``
        still serves (every cold query recomputes) but forfeits the
        cross-process warm path.
    obs_dir:
        Root for observability artifacts; the serve session appends its
        record and event stream to ``<obs_dir>/ledger/`` on drain, and
        ``/v1/runs/<id>`` reads the same ledger back.
    max_concurrency:
        Requests allowed to execute analysis work at once.
    queue_depth:
        Requests allowed to *wait* for an execution slot.  A request
        arriving when the queue is full is shed immediately with
        HTTP 429 + ``Retry-After`` — admission is bounded by
        construction, so load cannot grow an unbounded backlog.
    deadline_s:
        Per-request budget.  A cold engine run that exceeds it answers
        504 with partial-result metadata (the run keeps going in the
        background and lands in the warm set for the retry).
        Requests may tighten — never extend — it via ``?deadline=``.
    retry_after_s:
        The ``Retry-After`` hint attached to 429/503/504 responses.
    max_scale:
        Upper bound accepted for ``?scale=`` (parameter validation, so
        one absurd query cannot occupy the pool for minutes).
    breaker:
        Circuit-breaker policy applied per *config fingerprint* around
        cold-path engine execution: a poisoned config degrades to fast
        503s instead of tying up the pool, while other configs (and the
        whole warm path) keep serving.
    chaos:
        Deterministic request-level fault injection
        (:class:`~repro.faults.chaos.ChaosConfig`).  Draws are keyed by
        request identity and per-identity ordinal, so two same-seed
        server sessions given the same request sequence produce
        byte-identical response bodies.
    drain_grace_s:
        How long a drain waits for in-flight requests before closing
        anyway.
    """

    host: str = "127.0.0.1"
    port: int = 8177
    seed: int = 7
    scale: float = 1.0
    shards: int | None = None
    shard_workers: int | None = None
    cache_dir: str | None = None
    obs_dir: str | None = "out/obs"
    max_concurrency: int = 4
    queue_depth: int = 16
    deadline_s: float = 15.0
    retry_after_s: float = 1.0
    max_scale: float = 4.0
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    chaos: ChaosConfig | None = None
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if self.retry_after_s < 0:
            raise ValueError("retry_after_s must be >= 0")
        if self.max_scale <= 0:
            raise ValueError("max_scale must be > 0")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")

    @classmethod
    def from_cli(cls, args: Any) -> "ServeConfig":
        """Build a serving configuration from a parsed CLI namespace."""

        def get(name: str, default: Any = None) -> Any:
            return getattr(args, name, default)

        chaos = None
        if get("chaos_rate", 0.0) > 0.0:
            chaos = ChaosConfig(
                rate=get("chaos_rate", 0.0),
                seed=(
                    get("chaos_seed")
                    if get("chaos_seed") is not None
                    else get("seed", 7)
                ),
            )
        return cls(
            host=get("host", "127.0.0.1"),
            port=get("port", 8177),
            seed=get("seed", 7),
            scale=get("scale", 1.0),
            shards=get("shards"),
            shard_workers=get("shard_workers"),
            cache_dir=get("cache_dir"),
            obs_dir=get("obs_dir", "out/obs"),
            max_concurrency=get("max_concurrency", 4),
            queue_depth=get("queue_depth", 16),
            deadline_s=get("deadline", 15.0),
            retry_after_s=get("retry_after", 1.0),
            chaos=chaos,
        )
