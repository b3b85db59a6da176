"""Pooled ingest hands the world to each worker process once.

Every edition's harvest reads the whole world; a pooled ingest that
pickled it into every task spent most of its time pickling.  The world
now reaches each worker once (inherited at fork, or pickled once per
worker process otherwise) and the tasks carry only the edition.
"""

from repro.pipeline.ingest import ingest_world_resilient
from repro.synth.world import SyntheticWorld
from repro.util.parallel import ParallelConfig


def test_two_worker_ingest_pickles_the_world_at_most_twice(small_world, monkeypatch):
    serial = ingest_world_resilient(small_world)
    pickled = []
    original = SyntheticWorld.__reduce_ex__

    def counting(self, protocol):
        pickled.append(self)
        return original(self, protocol)

    monkeypatch.setattr(SyntheticWorld, "__reduce_ex__", counting, raising=False)
    pooled = ingest_world_resilient(
        small_world, parallel=ParallelConfig(workers=2, min_items_per_worker=1)
    )
    assert len(serial.conferences) > 2  # so the map really pooled
    assert len(pickled) <= 2
    assert pooled == serial
