"""The fault session: plan + retries + breakers + virtual clock + stats.

A :class:`FaultSession` is the one object a pipeline stage needs to make
resilient service calls.  Scoping is what keeps everything deterministic:

- the ingest stage creates **one session per harvest task**, so breaker
  state and virtual time cannot depend on which worker ran which task;
- the serial enrich/infer stages each use one session in the main
  process, where call order is already deterministic.

Per-task stats and losses are merged *in input order* by the caller
(:mod:`repro.pipeline.ingest`), never in completion order.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.faults.breaker import CircuitBreaker
from repro.faults.degradation import FaultStats, LossRecord
from repro.faults.errors import (
    CircuitOpenError,
    FaultError,
    MalformedPayloadError,
    RateLimitError,
    RetryExhaustedError,
    ServiceTimeout,
    TransientServiceError,
)
from repro.faults.plan import FaultConfig, FaultKind, FaultPlan, VirtualClock
from repro.obs.context import current as _obs

__all__ = ["FaultSession"]

R = TypeVar("R")

_ERROR_BY_KIND = {
    FaultKind.TRANSIENT: TransientServiceError,
    FaultKind.TIMEOUT: ServiceTimeout,
    FaultKind.RATE_LIMIT: RateLimitError,
}


class FaultSession:
    """Executes service calls under the fault plan with full resilience."""

    def __init__(self, config: FaultConfig | None = None) -> None:
        self.config = config or FaultConfig()
        self.plan = FaultPlan(self.config)
        self.clock = VirtualClock()
        self.stats = FaultStats()
        self.losses: list[LossRecord] = []
        self._breakers: dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------ plumbing

    def breaker(self, service: str) -> CircuitBreaker:
        b = self._breakers.get(service)
        if b is None:
            b = self._breakers[service] = CircuitBreaker(service, self.config.breaker)
        return b

    def record_loss(self, stage: str, key: str, reason: str) -> None:
        self.losses.append(LossRecord(stage=stage, key=key, reason=reason))
        _obs().metrics.inc(f"faults.losses.{stage}")
        _obs().event("fault.loss", key, stage=stage, reason=reason)

    def _finish(self) -> None:
        """Fold clock and breaker state into the stats snapshot."""
        self.stats.virtual_time = self.clock.now
        self.stats.breaker_opens = sum(
            b.times_opened for b in self._breakers.values()
        )

    @property
    def snapshot(self) -> FaultStats:
        self._finish()
        return self.stats

    # ------------------------------------------------------------ the call

    def call(
        self,
        service: str,
        key: tuple,
        fn: Callable[[], R],
        malform: Callable[[R, object], R] | None = None,
        validate: Callable[[R], bool] | None = None,
    ) -> R:
        """Run ``fn`` under the plan; retry injected failures.

        ``malform`` — applied to the result when the plan injects a
        MALFORMED fault, given ``(result, payload_rng)``.  Without a
        ``validate`` that rejects the corruption, the corrupted payload
        is *returned* (the harvest case: a broken page still parses,
        just worse).  With a rejecting ``validate`` it triggers a retry
        (the API-client case: garbage detected, request reissued).

        Raises :class:`RetryExhaustedError` or :class:`CircuitOpenError`;
        callers convert those into loss records and fallbacks.  Any
        non-:class:`FaultError` from ``fn`` propagates untouched.
        """
        policy = self.config.retry
        breaker = self.breaker(service)
        obs = _obs()
        metrics = obs.metrics
        last: FaultError | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.stats.retries += 1
                metrics.inc("faults.retries")
                obs.event("fault.retry", service, attempt=attempt)
            try:
                breaker.check()
            except CircuitOpenError:
                self.stats.breaker_rejections += 1
                metrics.inc("faults.breaker_rejections")
                raise
            self.stats.count_call(service)
            metrics.inc(f"faults.calls.{service}")
            kind = self.plan.draw(service, *key, attempt=attempt)
            if kind in _ERROR_BY_KIND:
                self.stats.count_fault(kind.value)
                metrics.inc(f"faults.injected.{kind.value}")
                obs.event("fault.injected", service, kind=kind.value)
                if kind is FaultKind.TIMEOUT:
                    self.clock.sleep(self.config.timeout_cost)
                elif kind is FaultKind.RATE_LIMIT:
                    self.clock.sleep(self.config.rate_limit_penalty)
                last = _ERROR_BY_KIND[kind](service, key, f"attempt {attempt}")
                self._backoff(breaker, policy, service, key, attempt)
                continue
            result = fn()
            if kind is FaultKind.MALFORMED:
                self.stats.count_fault(kind.value)
                metrics.inc(f"faults.injected.{kind.value}")
                obs.event("fault.injected", service, kind=kind.value)
                if malform is not None:
                    result = malform(result, self.plan.payload_rng(service, *key, attempt))
            if validate is not None and not validate(result):
                last = MalformedPayloadError(service, key, f"attempt {attempt}")
                self._backoff(breaker, policy, service, key, attempt)
                continue
            breaker.record_success()
            return result
        self.stats.exhausted += 1
        metrics.inc("faults.exhausted")
        obs.event("fault.exhausted", service, attempts=policy.max_attempts)
        raise RetryExhaustedError(service, key, policy.max_attempts, last)

    def _backoff(self, breaker, policy, service, key, attempt) -> None:
        opened_before = breaker.times_opened
        breaker.record_failure()
        if breaker.times_opened > opened_before:
            _obs().metrics.inc("faults.breaker_opens")
            _obs().event("fault.breaker_open", service)
        if attempt < policy.max_attempts:
            self.clock.sleep(policy.delay(attempt, self.config.seed, service, *key))
