"""The unified event log: taxonomy, determinism, adoption, export."""

import json

import pytest

from repro.obs import EVENT_TYPES, Event, EventLog, NullEventLog, ObsContext, write_events
from repro.pipeline import RunConfig, run_pipeline
from repro.util.parallel import ParallelConfig

pytestmark = [pytest.mark.obs, pytest.mark.ledger]


class TestTaxonomy:
    def test_known_type_is_recorded(self):
        log = EventLog()
        ev = log.emit("cache.hit", "ingest", key="abc")
        assert ev.seq == 0 and ev.type == "cache.hit"
        assert log.counts() == {"cache.hit": 1}

    def test_unknown_type_raises(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("cache.hti", "ingest")
        assert len(log) == 0

    def test_taxonomy_covers_every_instrumented_layer(self):
        prefixes = {t.split(".")[0] for t in EVENT_TYPES}
        assert prefixes == {
            "run", "span", "stage", "cache", "fault", "contract", "node", "serve",
        }


class TestIdentity:
    def test_identity_excludes_timing(self):
        a = Event(seq=0, type="cache.hit", name="ingest", attrs={"k": 1}, t=0.5)
        b = Event(seq=0, type="cache.hit", name="ingest", attrs={"k": 1}, t=9.9)
        assert a.identity() == b.identity()

    def test_identity_sorts_attrs(self):
        a = Event(0, "fault.retry", "gs", attrs={"a": 1, "b": 2})
        b = Event(0, "fault.retry", "gs", attrs={"b": 2, "a": 1})
        assert a.identity() == b.identity()

    def test_log_identity_is_sequence_sensitive(self):
        one, two = EventLog(), EventLog()
        one.emit("run.start", "pipeline")
        one.emit("run.end", "pipeline")
        two.emit("run.end", "pipeline")
        two.emit("run.start", "pipeline")
        assert one.identity() != two.identity()


class TestAdoption:
    def test_adopt_resequences_in_adoption_order(self):
        main, worker = EventLog(), EventLog()
        main.emit("run.start", "pipeline")
        worker.emit("fault.retry", "harvest", attempt=2)
        worker.emit("fault.loss", "SC-2017", stage="harvest")
        main.adopt(worker.events)
        assert [e.seq for e in main.events] == [0, 1, 2]
        assert [e.type for e in main.events] == [
            "run.start", "fault.retry", "fault.loss"
        ]

    def test_worker_count_does_not_change_event_identity(self, small_world):
        """The parallel_map capture/adopt discipline: serial == 3 workers."""

        def stream(workers):
            obs = ObsContext(seed=small_world.seed)
            run_pipeline(
                RunConfig(
                    obs=obs,
                    parallel=ParallelConfig(workers=workers, min_items_per_worker=1)
                    if workers
                    else None,
                    validation="repair",
                ),
                world=small_world,
            )
            return obs.events.identity()

        assert stream(0) == stream(3)


class TestSpanMirroring:
    def test_spans_mirror_into_the_log(self):
        obs = ObsContext(seed=7)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        types = [e.type for e in obs.events.events]
        assert types == ["span.open", "span.open", "span.close", "span.close"]
        names = [e.name for e in obs.events.events]
        assert names == ["outer", "inner", "inner", "outer"]


class TestNullLog:
    def test_null_log_is_inert(self):
        log = NullEventLog()
        assert log.emit("not.even.a.type") is None  # no validation, no cost
        log.adopt([Event(0, "cache.hit", "x")])
        assert len(log) == 0 and log.counts() == {} and log.identity() == ()


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("cache.miss", "enrich", key="deadbeef")
        log.emit("cache.store", "enrich", key="deadbeef")
        path = write_events(log, tmp_path / "events.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "seq": 0,
            "type": "cache.miss",
            "name": "enrich",
            "attrs": {"key": "deadbeef"},
            "t": first["t"],
        }

    def test_timing_can_be_excluded(self, tmp_path):
        log = EventLog()
        log.emit("run.start", "pipeline")
        path = write_events(log, tmp_path / "e.jsonl", include_timing=False)
        assert "\"t\"" not in path.read_text(encoding="utf-8")
