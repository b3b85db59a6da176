"""The deterministic fault plan.

A :class:`FaultPlan` answers one question — "does the call ``(service,
key, attempt)`` fail, and how?" — from nothing but the fault seed, via
:func:`repro.util.rng.derive_seed`.  Because the decision is a pure
function of the call's *identity* rather than of execution order, the
same plan yields the same faults whether the pipeline runs serially, on
four workers, or resumes from a warm artifact cache: the property every
determinism test in this repo leans on.

The plan models the four failure modes the original study's data
collection was exposed to (flaky conference sites, genderize.io quotas,
Google Scholar's partial coverage): transient errors, timeouts, rate
limits, and malformed payloads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import derive_seed
from repro.util.validation import check_fraction

__all__ = [
    "FaultKind",
    "VirtualClock",
    "RetryPolicy",
    "BreakerConfig",
    "FaultConfig",
    "FaultPlan",
]


class FaultKind(enum.Enum):
    """How an injected call fails."""

    TRANSIENT = "transient"
    TIMEOUT = "timeout"
    RATE_LIMIT = "rate-limit"
    MALFORMED = "malformed"


_KINDS: tuple[FaultKind, ...] = tuple(FaultKind)


@dataclass
class VirtualClock:
    """A clock that only moves when told to.

    Retry backoff and rate-limit penalties "sleep" on this clock, so a
    faulted run is charged realistic latency without any process ever
    blocking — and the accumulated time is bit-identical across worker
    counts because each work item owns its own clock.
    """

    now: float = 0.0

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.now += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter on a virtual clock.

    ``delay(attempt, ...)`` for attempts 1, 2, 3 … grows as
    ``base_delay * multiplier**(attempt-1)`` capped at ``max_delay``,
    multiplied by a jitter factor in ``[1-jitter, 1+jitter]`` drawn from
    the seed tree — so two runs back off identically, and no worker ever
    actually sleeps (the delay is charged to the
    :class:`VirtualClock`).
    """

    max_attempts: int = 4
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        check_fraction(self.jitter, "jitter")

    def delay(self, attempt: int, seed: int, *key: str | int) -> float:
        """The backoff charged after failed ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter <= 0.0:
            return raw
        u = np.random.default_rng(derive_seed(seed, "jitter", *key, attempt)).random()
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass(frozen=True)
class BreakerConfig:
    """Per-service circuit-breaker policy.

    The breaker opens after ``failure_threshold`` consecutive failures,
    fast-fails the next ``cooldown_calls`` calls, then half-opens and
    lets one probe through.  Counting calls instead of wall time keeps
    the breaker's behaviour a pure function of the call sequence.
    """

    failure_threshold: int = 5
    cooldown_calls: int = 20

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_calls < 1:
            raise ValueError("cooldown_calls must be >= 1")


@dataclass(frozen=True)
class FaultConfig:
    """Everything the fault layer needs; small, frozen, picklable.

    ``weights`` are relative odds of each :class:`FaultKind` (in enum
    order) once a call is chosen to fail.  ``timeout_cost`` and
    ``rate_limit_penalty`` are virtual seconds charged on top of backoff
    for the corresponding fault kinds, so the virtual clock reflects the
    latency profile a real run would have had.
    """

    rate: float = 0.0
    seed: int = 0
    weights: tuple[float, float, float, float] = (0.35, 0.2, 0.15, 0.3)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    timeout_cost: float = 10.0
    rate_limit_penalty: float = 2.0

    def __post_init__(self) -> None:
        check_fraction(self.rate, "rate")
        if len(self.weights) != len(_KINDS):
            raise ValueError(f"weights must have {len(_KINDS)} entries")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")


class FaultPlan:
    """Seed-derived oracle for fault decisions and payload corruption."""

    __slots__ = ("_config", "_probs")

    def __init__(self, config: FaultConfig) -> None:
        self._config = config
        total = float(sum(config.weights))
        self._probs = np.asarray([w / total for w in config.weights])

    @property
    def config(self) -> FaultConfig:
        return self._config

    def draw(self, service: str, *key: str | int, attempt: int = 1) -> FaultKind | None:
        """The fault (or None) injected into this exact call attempt."""
        cfg = self._config
        if cfg.rate <= 0.0:
            return None
        rng = np.random.default_rng(
            derive_seed(cfg.seed, "fault", service, *key, attempt)
        )
        if rng.random() >= cfg.rate:
            return None
        return _KINDS[int(rng.choice(len(_KINDS), p=self._probs))]

    def payload_rng(self, service: str, *key: str | int) -> np.random.Generator:
        """Generator driving payload corruption for a malformed call."""
        return np.random.default_rng(
            derive_seed(self._config.seed, "payload", service, *key)
        )
