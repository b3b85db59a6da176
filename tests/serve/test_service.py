"""The transport-free service core: every serving contract without sockets.

These tests run the real engine at a small scale (a cold run is a few
hundred milliseconds), so warm-path, coalescing, deadline, breaker, and
chaos semantics are exercised against genuine analysis datasets.
"""

import json
import threading
import time

import pytest

from repro.faults.chaos import ChaosConfig
from repro.faults.plan import BreakerConfig
from repro.serve import AnalysisService, ServeConfig

pytestmark = pytest.mark.serve

SCALE = 0.1  # small enough that a cold run is fast, big enough to be real


def make_service(tmp_path, **overrides) -> AnalysisService:
    defaults = dict(
        port=0,
        seed=7,
        scale=SCALE,
        cache_dir=None,
        obs_dir=str(tmp_path / "obs"),
        deadline_s=30.0,
    )
    defaults.update(overrides)
    return AnalysisService(ServeConfig(**defaults))


def body_of(response) -> dict:
    return json.loads(response.body.decode("utf-8"))


def header(response, name: str) -> str | None:
    return dict(response.headers).get(name)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One module-wide service so the dataset memo warms across tests."""
    return make_service(tmp_path_factory.mktemp("serve"))


class TestRouting:
    def test_unknown_route_404(self, service):
        r = service.handle("/nope", {})
        assert r.status == 404 and body_of(r)["error"]["code"] == "not-found"

    def test_unknown_endpoint_404(self, service):
        assert service.handle("/v1/unknown", {}).status == 404

    def test_unknown_parameter_400(self, service):
        r = service.handle("/v1/far", {"sacle": "1"})
        assert r.status == 400
        assert "sacle" in body_of(r)["error"]["message"]

    def test_out_of_range_scale_400(self, service):
        assert service.handle("/v1/far", {"scale": "99"}).status == 400
        assert service.handle("/v1/far", {"scale": "0"}).status == 400

    def test_non_numeric_seed_400(self, service):
        assert service.handle("/v1/far", {"seed": "banana"}).status == 400


class TestWarmPath:
    def test_far_answers_with_etag(self, service):
        r = service.handle("/v1/far", {})
        assert r.status == 200
        payload = body_of(r)
        assert payload["endpoint"] == "far"
        assert payload["config"] == {
            "seed": 7, "scale": SCALE, "fingerprint": payload["config"]["fingerprint"]
        }
        assert payload["overall"]["value"] is not None
        assert header(r, "ETag").startswith('"')

    def test_all_endpoints_answer(self, service):
        for ep in ("far", "blind", "sensitivity"):
            r = service.handle(f"/v1/{ep}", {})
            assert r.status == 200, ep
            assert body_of(r)["endpoint"] == ep

    def test_same_config_different_endpoint_reuses_dataset(self, service):
        before = service.counters().get("cold_runs", 0)
        service.handle("/v1/blind", {})
        service.handle("/v1/sensitivity", {})
        assert service.counters().get("cold_runs", 0) == before  # memo hit

    def test_repeat_query_hits_the_body_cache(self, service):
        service.handle("/v1/far", {})
        before = service.counters().get("hits.body", 0)
        r = service.handle("/v1/far", {})
        assert r.status == 200
        assert service.counters().get("hits.body", 0) == before + 1

    def test_if_none_match_revalidates_to_304(self, service):
        first = service.handle("/v1/far", {})
        etag = header(first, "ETag")
        r = service.handle("/v1/far", {}, if_none_match=etag)
        assert r.status == 304 and r.body == b""
        assert header(r, "ETag") == etag

    def test_etag_is_stable_across_service_instances(self, service, tmp_path):
        other = make_service(tmp_path)
        mine = header(service.handle("/v1/far", {}), "ETag")
        # the fresh instance validates the old tag without running anything
        t0 = time.perf_counter()
        r = other.handle("/v1/far", {}, if_none_match=mine)
        assert r.status == 304
        assert time.perf_counter() - t0 < 0.1  # no cold run behind a 304

    def test_stale_etag_is_ignored(self, service):
        r = service.handle("/v1/far", {}, if_none_match='"deadbeef"')
        assert r.status == 200

    def test_unknown_conference_404(self, service):
        r = service.handle("/v1/far", {"conference": "NOPE"})
        assert r.status == 404
        assert body_of(r)["error"]["code"] == "unknown-conference"

    def test_conference_filter_changes_the_etag(self, service):
        plain = header(service.handle("/v1/far", {}), "ETag")
        sc = service.handle("/v1/far", {"conference": "SC"})
        assert sc.status == 200 and header(sc, "ETag") != plain
        assert list(body_of(sc)["by_conference"]) == ["SC"]


class TestCoalescing:
    def test_identical_inflight_configs_run_once(self, tmp_path, monkeypatch):
        import repro.engine as engine

        service = make_service(tmp_path)
        real = engine.run_dag
        calls: list[int] = []

        def slow_run_dag(*args, **kwargs):
            calls.append(1)
            time.sleep(0.3)  # hold the flight open while the others arrive
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "run_dag", slow_run_dag)
        barrier = threading.Barrier(3)
        responses: list = []

        def query():
            barrier.wait()
            responses.append(service.handle("/v1/far", {"seed": "19"}))

        threads = [threading.Thread(target=query) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        assert len(calls) == 1  # single-flight: one engine run for three
        assert [r.status for r in responses] == [200, 200, 200]
        assert len({r.body for r in responses}) == 1  # identical bytes
        assert service.counters().get("coalesced", 0) == 2


class TestDeadline:
    def test_cold_run_past_budget_answers_504_with_partial(self, tmp_path):
        service = make_service(tmp_path)
        r = service.handle("/v1/far", {"seed": "23", "deadline": "0.005"})
        assert r.status == 504
        err = body_of(r)["error"]
        assert err["code"] == "deadline-exceeded"
        assert err["partial"]["state"] == "executing"
        assert isinstance(err["partial"]["stages_completed"], list)
        assert header(r, "Retry-After") is not None

    def test_background_run_lands_for_the_retry(self, tmp_path):
        service = make_service(tmp_path)
        first = service.handle("/v1/far", {"seed": "29", "deadline": "0.005"})
        assert first.status == 504
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            retry = service.handle("/v1/far", {"seed": "29"})
            if retry.status == 200:
                break
            time.sleep(0.05)
        assert retry.status == 200  # the 504'd run finished and warmed up
        # only one engine run happened: the retry rode the first flight
        # (coalesced onto it, or read the memo it left behind)
        assert service.counters().get("cold_runs", 0) == 1

    def test_deadline_may_tighten_but_not_extend(self, tmp_path):
        service = make_service(tmp_path, deadline_s=0.005)
        # asking for a huge budget does not override the server's
        r = service.handle("/v1/far", {"seed": "31", "deadline": "9999"})
        assert r.status == 504


    def test_sharded_cold_run_reports_its_completed_stages(self, tmp_path, monkeypatch):
        """The sharded cold run records on the in-flight stage mapping too: with
        the merge held, a request past its budget sees the finished
        planning stage (the list used to stay empty on this path)."""
        import repro.pipeline.sharded as sharded

        gate = threading.Event()
        real = sharded.stage_merge

        def held_merge(params, inputs):
            gate.wait(30)
            return real(params, inputs)

        monkeypatch.setattr(sharded, "stage_merge", held_merge)
        service = make_service(tmp_path, shards=2)
        try:
            r = service.handle("/v1/far", {"seed": "43", "deadline": "1"})
        finally:
            gate.set()
        assert r.status == 504
        assert body_of(r)["error"]["partial"]["stages_completed"] == ["plan"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            retry = service.handle("/v1/far", {"seed": "43"})
            if retry.status == 200:
                break
            time.sleep(0.05)
        assert retry.status == 200


class TestCrossPath:
    """Serving a query and calling ``run_pipeline`` are one computation."""

    @pytest.mark.parametrize("shards", [None, 2])
    def test_far_body_equals_run_pipeline_far_cells(self, tmp_path, shards):
        from repro.analysis.far import far_report
        from repro.pipeline import RunConfig, run_pipeline
        from repro.serve.encode import canonical_json, far_payload

        r = make_service(tmp_path, shards=shards).handle("/v1/far", {})
        assert r.status == 200
        rc = RunConfig.for_query(7, SCALE, shards=shards)
        result = run_pipeline(rc)
        expected = far_payload(far_report(result.dataset), 7, SCALE, rc.fingerprint())
        assert r.body == canonical_json(expected)
        assert (result.plan is not None) == (shards is not None)

    @pytest.mark.parametrize("shards", [None, 2])
    def test_cold_path_writes_run_pipelines_cache_entries(self, tmp_path, shards):
        """Same engine fingerprints: the served run and a direct run
        address the same cache entries, node for node."""
        from repro.engine import ArtifactCache
        from repro.pipeline import RunConfig, run_pipeline

        served, direct = tmp_path / "served", tmp_path / "direct"
        service = make_service(tmp_path, cache_dir=str(served), shards=shards)
        assert service.handle("/v1/far", {}).status == 200
        run_pipeline(RunConfig.for_query(7, SCALE, shards=shards, cache_dir=str(direct)))
        entries = ArtifactCache(served).entries()
        assert entries and entries == ArtifactCache(direct).entries()


class TestCircuitBreaker:
    def test_poisoned_config_degrades_to_fast_503(self, tmp_path, monkeypatch):
        import repro.engine as engine

        service = make_service(
            tmp_path,
            breaker=BreakerConfig(failure_threshold=1, cooldown_calls=2),
        )
        calls: list[int] = []

        def exploding_run_dag(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("poisoned config")

        monkeypatch.setattr(engine, "run_dag", exploding_run_dag)

        first = service.handle("/v1/far", {"seed": "37"})
        assert first.status == 503
        assert body_of(first)["error"]["code"] == "cold-run-failed"
        assert len(calls) == 1

        # breaker is now open: the next request fast-fails without the engine
        second = service.handle("/v1/far", {"seed": "37"})
        assert second.status == 503
        assert body_of(second)["error"]["code"] == "circuit-open"
        assert header(second, "Retry-After") is not None
        assert len(calls) == 1  # no engine call behind the open breaker
        assert service.counters().get("breaker_open", 0) == 1

    def test_half_open_probe_recovers(self, tmp_path, monkeypatch):
        import repro.engine as engine

        service = make_service(
            tmp_path,
            breaker=BreakerConfig(failure_threshold=1, cooldown_calls=1),
        )
        real = engine.run_dag

        def exploding_run_dag(*args, **kwargs):
            raise RuntimeError("transient")

        monkeypatch.setattr(engine, "run_dag", exploding_run_dag)
        assert service.handle("/v1/far", {"seed": "41"}).status == 503
        monkeypatch.setattr(engine, "run_dag", real)
        # cooldown_calls=1: the next call is the half-open probe — it
        # runs for real, succeeds, and closes the breaker again
        assert service.handle("/v1/far", {"seed": "41"}).status == 200
        assert service.handle("/v1/far", {"seed": "41"}).status == 200

    def test_breakers_are_per_config(self, tmp_path, monkeypatch):
        import repro.engine as engine

        svc = make_service(
            tmp_path,
            breaker=BreakerConfig(failure_threshold=1, cooldown_calls=99),
        )
        real = engine.run_dag

        def exploding_run_dag(*args, **kwargs):
            raise RuntimeError("poisoned")

        monkeypatch.setattr(engine, "run_dag", exploding_run_dag)
        assert svc.handle("/v1/far", {"seed": "43"}).status == 503
        monkeypatch.setattr(engine, "run_dag", real)
        # seed 43 is circuit-broken; a different config still serves
        assert svc.handle("/v1/far", {"seed": "43"}).status == 503
        assert svc.handle("/v1/far", {"seed": "47"}).status == 200


class TestChaos:
    REQUESTS = [
        ("/v1/far", {}),
        ("/v1/far", {}),
        ("/v1/blind", {}),
        ("/v1/far", {"conference": "SC"}),
        ("/v1/sensitivity", {}),
        ("/v1/far", {}),
        ("/v1/blind", {}),
        ("/v1/far", {"conference": "SC"}),
        ("/v1/sensitivity", {}),
        ("/v1/far", {}),
    ]

    def _session(self, tmp_path, name: str) -> list[tuple[int, bytes]]:
        service = make_service(
            tmp_path / name, chaos=ChaosConfig(rate=0.4, seed=123)
        )
        return [
            (r.status, r.body)
            for r in (service.handle(p, dict(q)) for p, q in self.REQUESTS)
        ]

    def test_same_seed_sessions_are_byte_identical(self, tmp_path):
        """The acceptance criterion: chaos is deterministic down to bytes."""
        a = self._session(tmp_path, "a")
        b = self._session(tmp_path, "b")
        assert a == b  # statuses AND bodies, byte for byte
        # and the plan actually injected something at rate 0.4
        assert any(status in (503, 504) for status, _ in a)

    def test_injected_faults_look_like_real_degradation(self, tmp_path):
        service = make_service(
            tmp_path / "c", chaos=ChaosConfig(rate=1.0, seed=5)
        )
        r = service.handle("/v1/far", {})
        assert r.status in (503, 504)
        code = body_of(r)["error"]["code"]
        assert code in ("injected-fault", "injected-hang")
        assert header(r, "Retry-After") is not None
        assert service.counters().get("chaos.injected", 0) == 1

    def test_chaos_free_service_is_unaffected(self, service):
        assert service.handle("/v1/far", {}).status == 200


class TestLedger:
    def test_drain_flushes_a_session_record(self, tmp_path):
        service = make_service(tmp_path)
        service.handle("/v1/far", {})
        service.handle("/v1/far", {})
        service.begin_drain()
        run_id = service.flush_ledger()
        assert run_id is not None

        # a fresh service over the same obs_dir serves the ledger back
        reader = make_service(tmp_path)
        listing = reader.handle("/v1/runs", {})
        assert listing.status == 200
        assert run_id in body_of(listing)["runs"]

        record = reader.handle(f"/v1/runs/{run_id}", {})
        assert record.status == 200
        doc = body_of(record)
        assert doc["body"]["meta"]["command"] == "serve"
        assert doc["body"]["service"]["requests"] == 2
        etag = header(record, "ETag")
        again = reader.handle(f"/v1/runs/{run_id}", {}, if_none_match=etag)
        assert again.status == 304

    def test_unknown_run_404(self, tmp_path):
        service = make_service(tmp_path)
        service.flush_ledger()
        assert service.handle("/v1/runs/run-9999-nope", {}).status == 404

    def test_counters_are_a_sorted_snapshot(self, tmp_path):
        service = make_service(tmp_path)
        service.handle("/v1/far", {})
        counters = service.counters()
        assert list(counters) == sorted(counters)
        assert counters["requests"] == 1 and counters["responses.200"] == 1
