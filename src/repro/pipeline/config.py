"""The consolidated run configuration.

:class:`RunConfig` is everything
:func:`~repro.pipeline.runner.run_pipeline` and
:func:`~repro.pipeline.sharded.run_sharded` accept (plus the engine's
cache options), as one frozen, picklable object with a single CLI
constructor.

::

    from repro.api import RunConfig, run_pipeline

    result = run_pipeline(
        RunConfig(
            world=WorldConfig(seed=7),
            validation="repair",
            engine=EngineConfig(cache_dir="out/cache"),
        )
    )
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.contracts.schema import ValidationMode
from repro.faults.chaos import ChaosConfig
from repro.faults.plan import FaultConfig

if TYPE_CHECKING:  # imported lazily at runtime: repro.engine imports us
    from repro.engine.supervise import SupervisorConfig
from repro.gender.resolver import ResolverPolicy
from repro.obs.context import ObsContext
from repro.synth.config import WorldConfig
from repro.util.parallel import ParallelConfig

__all__ = ["EngineConfig", "RunConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """How (not *what*) the stage-DAG engine executes.

    Attributes
    ----------
    cache_dir:
        Directory of the content-addressed artifact cache; ``None``
        disables caching (the DAG still schedules and parallelizes).
    workers:
        Worker processes for *independent nodes of one generation*
        (e.g. enrichment and gender inference).  ``None``/``0``/``1``
        runs each generation serially.  Orthogonal to — and composable
        with — the per-stage :class:`~repro.util.parallel.ParallelConfig`
        used inside the ingest stage.
    refresh:
        Recompute every node even on a cache hit, overwriting entries
        (the cache-busting escape hatch).
    supervise:
        A :class:`~repro.engine.supervise.SupervisorConfig` enabling
        supervised execution: bounded retries with virtual-clock
        backoff, per-node deadlines, and failure isolation (a failed
        node skips only its downstream, the run completes with
        ``EngineRun.failed``/``skipped`` populated).  ``None`` keeps
        the historical fail-fast semantics.
    chaos:
        A :class:`~repro.faults.chaos.ChaosConfig` injecting
        deterministic engine-level faults (node exceptions, hangs,
        torn/bit-flipped cache writes).  Implies supervision with the
        default policies when ``supervise`` is unset.  Like the rest
        of this class it is execution policy — it never enters run or
        cache fingerprints.
    """

    cache_dir: str | None = None
    workers: int | None = None
    refresh: bool = False
    supervise: "SupervisorConfig | None" = None
    chaos: ChaosConfig | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything :func:`~repro.pipeline.runner.run_pipeline` accepts.

    Attributes
    ----------
    world:
        World configuration (ignored when a prebuilt world is passed to
        ``run_pipeline`` directly — a world is data, not configuration).
    parallel:
        Parallel policy for the ingest stage (serial by default).
    policy:
        Gender-resolver policy (paper defaults when ``None``).
    faults:
        Deterministic fault-injection configuration.
    validation:
        Data-contract mode (``"strict"``/``"repair"``/``"audit"`` or a
        :class:`~repro.contracts.schema.ValidationMode`; ``None`` off).
    obs:
        Observability context; ``None`` disables instrumentation.
    engine:
        Stage-DAG execution options.  Every run executes on the engine;
        ``None`` means ``EngineConfig()``: in memory, uncached, serial.
        Resuming an interrupted run means rerunning with the same
        ``cache_dir``: every node (and shard) that finished is served
        from the cache.
    shards:
        Venue count of a sharded synthetic universe.  Setting it routes
        the run through :func:`~repro.pipeline.sharded.run_sharded`:
        each conference×edition cell is generated, harvested, linked,
        enriched, and gender-inferred as an independent engine DAG node,
        then merged deterministically.  ``None`` keeps the monolithic
        single-world pipeline.  Unlike ``shard_workers``, this changes
        *what* is computed, so it participates in the run fingerprint.
    shard_workers:
        Worker processes executing shard nodes concurrently.  Execution
        policy only — results are byte-identical for any worker count —
        so it is excluded from the fingerprint.
    """

    world: WorldConfig | None = None
    parallel: ParallelConfig | None = None
    policy: ResolverPolicy | None = None
    faults: FaultConfig | None = None
    validation: ValidationMode | str | None = None
    obs: ObsContext | None = None
    engine: EngineConfig | None = None
    shards: int | None = None
    shard_workers: int | None = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")

    # ------------------------------------------------------------- helpers

    def validation_mode(self) -> ValidationMode | None:
        """The validation field normalized to an enum (or ``None``)."""
        if self.validation is None:
            return None
        if isinstance(self.validation, ValidationMode):
            return self.validation
        return ValidationMode(str(self.validation))

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with the given non-``None`` fields replaced."""
        changed = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changed) if changed else self

    def fingerprint(self) -> str:
        """Deterministic content digest of this configuration.

        The run ledger keys like-for-like comparisons on it.  The
        observability context is excluded (it is instrumentation, not
        configuration, and its repr is identity-based), and so is the
        engine's *execution policy* — worker counts, the cache
        directory, refresh — which must never make two runs read as
        scientifically different (the same rule the engine's cache keys
        follow).
        """
        # lazy import: repro.engine imports this module at load time
        from repro.engine.fingerprint import canonical, fingerprint_canonical

        mode = self.validation_mode()
        encoded = canonical(
            replace(
                self,
                obs=None,
                engine=None,
                parallel=None,
                shard_workers=None,
                # normalize the str/enum spellings to one fingerprint
                validation=mode.value if mode is not None else None,
            )
        )
        # the since-deleted checkpoint_dir/resume fields, at the neutral
        # values every digest was taken with: ledger history, serve ETags
        # and serve chaos draws are keyed on this fingerprint
        encoded["fields"].update(checkpoint_dir=None, resume=False)
        return fingerprint_canonical("run-config", encoded)

    # --------------------------------------------------------- constructors

    @classmethod
    def from_cli(cls, args: Any) -> "RunConfig":
        """Build a run configuration from a parsed CLI namespace.

        Understands the option set declared in :mod:`repro.cli` (seed,
        scale, workers, fault-rate/seed, validate, cache-dir/engine-workers/refresh-cache, and the
        observability context the CLI stashes on ``args._obs``).
        Missing attributes fall back to their defaults, so any
        namespace with a ``seed`` is accepted.
        """

        def get(name: str, default: Any = None) -> Any:
            return getattr(args, name, default)

        faults = None
        if get("fault_rate", 0.0) > 0.0 or get("fault_seed") is not None:
            faults = FaultConfig(
                rate=get("fault_rate", 0.0),
                seed=(
                    get("fault_seed")
                    if get("fault_seed") is not None
                    else get("seed", 0)
                ),
            )
        parallel = None
        if get("workers") is not None:
            parallel = ParallelConfig(workers=get("workers"), min_items_per_worker=1)
        validate = get("validate", "repair")
        validation = None if validate in (None, "off") else validate
        engine = None
        if get("cache_dir") is not None or get("engine_workers") is not None:
            engine = EngineConfig(
                cache_dir=get("cache_dir"),
                workers=get("engine_workers"),
                refresh=get("refresh_cache", False),
            )
        shards = get("shards")
        return cls(
            world=WorldConfig(
                seed=get("seed", 7),
                scale=get("scale", 1.0),
                venues=shards or 0,
            ),
            parallel=parallel,
            policy=None,
            faults=faults,
            validation=validation,
            obs=get("_obs"),
            engine=engine,
            shards=shards,
            shard_workers=get("shard_workers"),
        )

    @classmethod
    def for_query(
        cls,
        seed: int,
        scale: float,
        *,
        shards: int | None = None,
        shard_workers: int | None = None,
        cache_dir: str | None = None,
    ) -> "RunConfig":
        """The canonical config for a parameterized analysis query.

        Shared by ``repro serve`` (``?seed=&scale=&shards=``) and any
        embedder that wants serve-equivalent semantics: one constructor
        means one fingerprint per (seed, scale, shards) triple, so the
        service cache and the CLI cache address the same entries.
        """
        return cls(
            world=WorldConfig(seed=seed, scale=scale, venues=shards or 0),
            engine=EngineConfig(cache_dir=cache_dir),
            shards=shards,
            shard_workers=shard_workers,
        )

