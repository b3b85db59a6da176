"""The content-addressed artifact cache and its persistence discipline."""

import json

import pytest

from repro.engine.cache import CACHE_FORMAT, ArtifactCache, CacheMismatch

pytestmark = pytest.mark.engine

KEY = "a" * 64
OTHER = "b" * 64


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert not cache.has("ingest", KEY)
        cache.save("ingest", KEY, {"harvested": [1, 2, 3]})
        assert cache.has("ingest", KEY)
        assert cache.load("ingest", KEY) == {"harvested": [1, 2, 3]}

    def test_miss_raises_keyerror(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        with pytest.raises(KeyError):
            cache.load("ingest", KEY)

    def test_distinct_keys_coexist(self, tmp_path):
        """One directory serves many runs: keys are content-addressed."""
        cache = ArtifactCache(tmp_path / "cache")
        cache.save("ingest", KEY, {"x": 1})
        cache.save("ingest", OTHER, {"x": 2})
        assert cache.load("ingest", KEY) == {"x": 1}
        assert cache.load("ingest", OTHER) == {"x": 2}
        assert len(cache.entries()) == 2

    def test_full_key_verified_not_just_prefix(self, tmp_path):
        """A truncated-prefix collision is served as a miss, never as data."""
        cache = ArtifactCache(tmp_path / "cache")
        cache.save("ingest", KEY, {"x": 1})
        colliding = KEY[:24] + "c" * 40  # same 24-char prefix, different key
        with pytest.raises(KeyError):
            cache.load("ingest", colliding)

    def test_reopen_reuses_directory(self, tmp_path):
        ArtifactCache(tmp_path / "cache").save("link", KEY, {"x": 1})
        again = ArtifactCache(tmp_path / "cache")
        assert again.load("link", KEY) == {"x": 1}

    def test_size_accounting(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.size_bytes() == 0
        cache.save("ingest", KEY, {"x": list(range(100))})
        assert cache.size_bytes() > 0


class TestCacheMismatch:
    """Regression: a foreign/stale cache directory must raise
    CacheMismatch instead of silently serving its artifacts."""

    def test_foreign_format_refused(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "meta.json").write_text(
            json.dumps({"format": "somebody-else", "schema": 0}), encoding="utf-8"
        )
        with pytest.raises(CacheMismatch):
            ArtifactCache(root)

    def test_stale_schema_refused(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        stale = dict(CACHE_FORMAT, schema=CACHE_FORMAT["schema"] - 1)
        (root / "meta.json").write_text(json.dumps(stale), encoding="utf-8")
        with pytest.raises(CacheMismatch):
            ArtifactCache(root)

    def test_populated_unrelated_directory_refused(self, tmp_path):
        """Pointing --cache-dir at somebody's data directory must not
        wipe it — no meta.json + contents -> refuse outright."""
        root = tmp_path / "out"
        root.mkdir()
        (root / "results.csv").write_text("precious\n", encoding="utf-8")
        with pytest.raises(CacheMismatch):
            ArtifactCache(root)
        assert (root / "results.csv").read_text(encoding="utf-8") == "precious\n"

    def test_checkpoint_directory_refused_as_cache(self, tmp_path):
        """A legacy checkpoint dir (different fingerprint shape) is not
        silently adopted as an engine cache."""
        root = tmp_path / "ck"
        root.mkdir()
        # the meta.json the deleted checkpoint store stamped its runs with
        (root / "meta.json").write_text(
            json.dumps({"faults": "none", "scale": 1.0, "seed": 1}, indent=2),
            encoding="utf-8",
        )
        with pytest.raises(CacheMismatch):
            ArtifactCache(root)
