"""Concurrent writers on one cache directory: the flock must serialize.

Two writers racing ``ArtifactCache.save`` on the *same* key is exactly
the shape two pipeline runs sharing a cache directory produce.  The
cross-process advisory lock (``.lock``, ``fcntl.flock``) must serialize
the envelope writes so the surviving entry is one valid envelope —
never an interleaved torn write that the next load would quarantine.

``flock`` locks are per open-file-description, so two handles inside one
process contend exactly like two processes do; threads are a faithful
(and much faster) stand-in.  On platforms without ``fcntl`` the cache
degrades to unlocked writes by design, so these tests skip cleanly.
"""

import threading
import time

import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import ArtifactCache

fcntl = pytest.importorskip("fcntl", reason="advisory locking is POSIX-only")

pytestmark = [pytest.mark.engine, pytest.mark.chaos]

KEY = "c" * 64


class TestConcurrentSave:
    def test_two_writers_same_key_leave_one_valid_envelope(self, tmp_path):
        root = tmp_path / "cache"
        ArtifactCache(root)  # materialize meta.json before the race
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def writer(tag: int) -> None:
            try:
                cache = ArtifactCache(root)  # own handle, own lock fd
                barrier.wait()
                for i in range(20):
                    cache.save("ingest", KEY, {"writer": tag, "round": i})
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []

        survivor = ArtifactCache(root)
        assert survivor.entries() == [f"ingest-{KEY[:24]}"]
        # the envelope is whole: digest verifies, payload unpickles, and
        # it is wholly one writer's (never a splice of both)
        outputs = survivor.load("ingest", KEY)
        assert outputs["writer"] in (1, 2) and outputs["round"] == 19
        assert survivor.quarantined() == []
        report = survivor.verify()
        assert report["ok"] == report["checked"] == 1

    def test_flock_actually_serializes_the_write_section(
        self, tmp_path, monkeypatch
    ):
        """The lock is load-bearing: saves never overlap, even when slow."""
        root = tmp_path / "cache"
        ArtifactCache(root)
        in_section = 0
        max_overlap = 0
        gauge = threading.Lock()
        real_write = cache_module._atomic_write

        def slow_write(path, data):
            nonlocal in_section, max_overlap
            with gauge:
                in_section += 1
                max_overlap = max(max_overlap, in_section)
            time.sleep(0.01)  # widen the window a torn write would need
            try:
                return real_write(path, data)
            finally:
                with gauge:
                    in_section -= 1

        monkeypatch.setattr(cache_module, "_atomic_write", slow_write)
        barrier = threading.Barrier(2)

        def writer(tag: int) -> None:
            cache = ArtifactCache(root)
            barrier.wait()
            for i in range(5):
                cache.save("ingest", KEY, {"writer": tag, "round": i})

        threads = [threading.Thread(target=writer, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert max_overlap == 1
