"""Retry backoff, virtual clock, circuit breaker, and session semantics."""

import pytest

from repro.faults import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    FaultConfig,
    FaultSession,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.faults.plan import VirtualClock

TRANSIENT_ONLY = (1.0, 0.0, 0.0, 0.0)
MALFORMED_ONLY = (0.0, 0.0, 0.0, 1.0)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0)
        delays = [p.delay(a, 0, "svc") for a in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
        d1 = p.delay(1, 42, "svc", "key")
        d2 = p.delay(1, 42, "svc", "key")
        assert d1 == d2
        assert 0.5 <= d1 <= 1.5
        assert p.delay(2, 42, "svc", "key") != d1  # jitter varies per attempt

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestVirtualClock:
    def test_accumulates_without_real_sleeping(self):
        import time

        clock = VirtualClock()
        t0 = time.perf_counter()
        for _ in range(1000):
            clock.sleep(3600.0)
        assert clock.now == pytest.approx(3_600_000.0)
        assert time.perf_counter() - t0 < 1.0  # virtual, not wall time

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().sleep(-1.0)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        b = CircuitBreaker("svc", BreakerConfig(failure_threshold=3, cooldown_calls=5))
        for _ in range(3):
            b.check()
            b.record_failure()
        assert b.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            b.check()

    def test_half_open_probe_then_close(self):
        b = CircuitBreaker("svc", BreakerConfig(failure_threshold=1, cooldown_calls=2))
        b.record_failure()
        assert b.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError):
            b.check()  # rejected call 1 of 2
        b.check()      # rejected call 2: transitions to half-open, probe allowed
        assert b.state is BreakerState.HALF_OPEN
        b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_failed_probe_reopens(self):
        b = CircuitBreaker("svc", BreakerConfig(failure_threshold=1, cooldown_calls=1))
        b.record_failure()
        b.check()  # straight to half-open (cooldown 1)
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.times_opened == 2

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("svc", BreakerConfig(failure_threshold=2, cooldown_calls=1))
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state is BreakerState.CLOSED


class TestFaultSession:
    def test_rate_zero_is_passthrough(self):
        s = FaultSession(FaultConfig(rate=0.0))
        assert s.call("svc", ("k",), lambda: 41 + 1) == 42
        assert s.snapshot.calls == {"svc": 1}
        assert s.clock.now == 0.0

    def test_transient_faults_exhaust_retries(self):
        s = FaultSession(FaultConfig(rate=1.0, seed=2, weights=TRANSIENT_ONLY))
        ran = []
        with pytest.raises(RetryExhaustedError):
            s.call("svc", ("k",), lambda: ran.append(1))
        assert not ran  # the fault preempts the underlying call
        stats = s.snapshot
        assert stats.calls["svc"] == s.config.retry.max_attempts
        assert stats.retries == s.config.retry.max_attempts - 1
        assert stats.exhausted == 1
        assert stats.virtual_time > 0.0  # backoff was charged virtually

    def test_malformed_without_validator_degrades_payload(self):
        s = FaultSession(FaultConfig(rate=1.0, seed=2, weights=MALFORMED_ONLY))
        out = s.call(
            "svc", ("k",), lambda: "clean", malform=lambda r, rng: r + "-corrupt"
        )
        assert out == "clean-corrupt"
        assert s.snapshot.faults["malformed"] >= 1

    def test_malformed_with_validator_retries_until_exhausted(self):
        s = FaultSession(FaultConfig(rate=1.0, seed=2, weights=MALFORMED_ONLY))
        with pytest.raises(RetryExhaustedError) as exc:
            s.call(
                "svc",
                ("k",),
                lambda: "clean",
                malform=lambda r, rng: "garbage",
                validate=lambda r: r != "garbage",
            )
        assert exc.value.last.reason == "malformed"

    def test_breaker_opens_and_fast_fails_across_calls(self):
        cfg = FaultConfig(
            rate=1.0,
            seed=2,
            weights=TRANSIENT_ONLY,
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
            breaker=BreakerConfig(failure_threshold=2, cooldown_calls=100),
        )
        s = FaultSession(cfg)
        with pytest.raises(RetryExhaustedError):
            s.call("svc", ("k0",), lambda: "x")  # 2 failures: breaker opens
        with pytest.raises(CircuitOpenError):
            s.call("svc", ("k1",), lambda: "x")  # fast-fail, no attempt made
        stats = s.snapshot
        assert stats.breaker_opens == 1
        assert stats.breaker_rejections == 1
        assert stats.calls["svc"] == 2  # the fast-failed call never counted

    def test_breakers_are_per_service(self):
        cfg = FaultConfig(
            rate=1.0,
            seed=2,
            weights=TRANSIENT_ONLY,
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
            breaker=BreakerConfig(failure_threshold=2, cooldown_calls=100),
        )
        s = FaultSession(cfg)
        with pytest.raises(RetryExhaustedError):
            s.call("svc-a", ("k",), lambda: "x")  # opens svc-a's breaker
        with pytest.raises(CircuitOpenError):
            s.call("svc-a", ("k",), lambda: "x")
        # svc-b has its own breaker, still closed: it attempts and exhausts
        with pytest.raises(RetryExhaustedError):
            s.call("svc-b", ("k",), lambda: "x")

    def test_non_fault_exceptions_propagate(self):
        s = FaultSession(FaultConfig(rate=0.0))

        def boom():
            raise KeyError("not an injected fault")

        with pytest.raises(KeyError):
            s.call("svc", ("k",), boom)

    def test_identical_sessions_identical_traces(self):
        def run():
            s = FaultSession(FaultConfig(rate=0.6, seed=13))
            outcomes = []
            for i in range(40):
                try:
                    outcomes.append(s.call("svc", (i,), lambda: "ok"))
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
            return outcomes, s.snapshot

        out_a, stats_a = run()
        out_b, stats_b = run()
        assert out_a == out_b
        assert stats_a == stats_b
