"""Content-addressed artifact cache: the pipeline's one persistence mechanism.

Each entry is one node materialization, keyed by the node's fingerprint
(world/config digest + node params + upstream digests — see
:mod:`repro.engine.fingerprint`).  Writes are atomic and fsynced, and a
``meta.json`` format stamp refuses to serve a directory written by an
incompatible engine (:class:`CacheMismatch`) instead of silently mixing
formats.  The executor saves each node's outputs the moment that node
finishes, so an interrupted run resumes per node (and per shard) by
rerunning against the same directory.

Keys are content-addressed, so one cache directory serves any number of
distinct runs — different seeds, scales, policies — side by side; a
changed config simply misses and materializes new entries.

The cache is **self-healing**.  Every entry is stored as an envelope
``{key, digest, payload}`` where ``digest`` is SHA-256 over the pickled
payload, and every load verifies the envelope before serving it.  A
torn, bit-flipped, or foreign entry is moved to a ``quarantine/``
subdirectory — preserved for forensics, out of the cache's namespace —
and reported as a **miss** (``KeyError``), never an abort: the caller
simply recomputes and overwrites, which is how a damaged cache heals to
100% over a clean rerun.  Saves take a cross-process advisory lock
(``.lock``, ``fcntl.flock`` where available) so two runs sharing a
directory serialize their writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Iterator

from repro.engine.fingerprint import ENGINE_SCHEMA
from repro.obs.context import current as _obs

try:  # advisory locking is POSIX-only; the cache degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ArtifactCache",
    "CACHE_FORMAT",
    "CacheMismatch",
    "CacheWriteError",
    "QUARANTINE_DIR",
]

# identifies the cache directory layout + pickle protocol discipline;
# bump on incompatible change so old directories are refused, not
# misread.  "entry" versions the per-entry envelope: v2 added the
# payload digest + quarantine lifecycle (schema stays ENGINE_SCHEMA —
# fingerprints did not change, only the storage wrapper did).
CACHE_FORMAT = {"format": "repro-engine-cache", "schema": ENGINE_SCHEMA, "entry": 2}

META = "meta.json"
QUARANTINE_DIR = "quarantine"
_ENVELOPE_KEYS = {"key", "digest", "payload"}


class CacheMismatch(ValueError):
    """The directory is not an engine cache of this format."""


class CacheWriteError(OSError):
    """An atomic cache write failed before the entry landed.

    Raised in place of the raw ``OSError`` so callers can distinguish
    "the cache could not persist" from unrelated I/O failures.  The
    partial ``*.tmp`` file has already been removed — a failed write
    leaves no debris for a later directory scan to trip over.
    """


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically *and durably*.

    The temp file is fsynced before the rename and the directory entry
    after it — without both, a crash between write and disk flush can
    leave a truncated entry under the final name, which a later run
    would trust.

    A mid-stream failure (disk full, quota, I/O error) removes the
    partial temp file and raises :class:`CacheWriteError`; the final
    ``path`` is never touched on failure.
    """
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise CacheWriteError(
            f"atomic write to {path} failed mid-stream: {exc}"
        ) from exc
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class ArtifactCache:
    """Filesystem cache of node outputs, one pickle per materialization."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        meta = self.root / META
        if meta.exists():
            on_disk = json.loads(meta.read_text(encoding="utf-8"))
            if on_disk != CACHE_FORMAT:
                raise CacheMismatch(
                    f"cache at {self.root} was written by a different engine: "
                    f"{on_disk} != {CACHE_FORMAT}"
                )
        elif self.root.is_dir() and any(self.root.iterdir()):
            # a populated directory without our meta.json is somebody
            # else's data — refuse to adopt it
            raise CacheMismatch(
                f"{self.root} exists, is not empty, and is not an engine "
                f"cache directory; refusing to adopt it"
            )
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            stamp = {k: CACHE_FORMAT[k] for k in sorted(CACHE_FORMAT)}
            _atomic_write(meta, json.dumps(stamp, indent=2).encode("utf-8"))

    @classmethod
    def if_exists(cls, root: str | Path) -> "ArtifactCache | None":
        """Open an existing cache, or return ``None`` without creating one.

        Read-only tooling (``repro cache stats|verify|gc``) must be able
        to report an empty cache without materializing the directory as
        a side effect.  A missing or empty path is simply "no cache";
        a populated foreign directory still raises
        :class:`CacheMismatch` — absence is benign, misidentity is not.
        """
        root_path = Path(root)
        if not root_path.is_dir() or not any(root_path.iterdir()):
            return None
        return cls(root_path)

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    @staticmethod
    def _entry(node: str, key: str) -> str:
        return f"{node}-{key[:24]}"

    def entry_path(self, node: str, key: str) -> Path:
        """On-disk location of one entry (exists only after a save)."""
        return self._path(self._entry(node, key))

    def _path(self, entry: str) -> Path:
        return self.root / f"{entry}.stage.pkl"

    # --------------------------------------------------------------- locking

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Cross-process advisory lock serializing writes to this cache."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        fd = os.open(self.root / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # ------------------------------------------------------------ load/save

    def has(self, node: str, key: str) -> bool:
        return self.entry_path(node, key).exists()

    def load(self, node: str, key: str) -> dict[str, Any]:
        """Load one node's output dict; raises ``KeyError`` on a miss.

        A corrupt entry — torn write, flipped bits, foreign pickle — is
        quarantined and reported as a miss.  This method never raises
        anything but ``KeyError``: a damaged cache can cost recompute
        time, never a run.
        """
        entry = self._entry(node, key)
        path = self.entry_path(node, key)
        if not path.exists():
            raise KeyError(f"cache miss for node {node!r} key {key[:12]}…")
        try:
            envelope = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            # concurrent gc/quarantine won the race; a plain miss
            raise KeyError(f"cache miss for node {node!r} key {key[:12]}…")
        except Exception:
            # torn write or foreign bytes: unpickling the envelope failed
            self._quarantine(entry, node, "unreadable")
            raise KeyError(f"quarantined unreadable entry for node {node!r}")
        return self._verified_outputs(entry, node, key, envelope)

    def _verified_outputs(
        self, entry: str, node: str, key: str, envelope: Any
    ) -> dict[str, Any]:
        if not isinstance(envelope, dict) or not _ENVELOPE_KEYS <= set(envelope):
            self._quarantine(entry, node, "malformed-envelope")
            raise KeyError(f"quarantined malformed entry for node {node!r}")
        if envelope["key"] != key:
            # 24-hex-char prefix collision (astronomically unlikely): a
            # *well-formed* entry for a different key.  A miss — but not
            # corruption, so the other run's entry stays where it is.
            raise KeyError(f"cache entry for node {node!r} does not match key")
        payload = envelope["payload"]
        if (
            not isinstance(payload, bytes)
            or hashlib.sha256(payload).hexdigest() != envelope["digest"]
        ):
            self._quarantine(entry, node, "digest-mismatch")
            raise KeyError(f"quarantined corrupt entry for node {node!r}")
        try:
            return pickle.loads(payload)
        except Exception:
            self._quarantine(entry, node, "unpicklable-payload")
            raise KeyError(f"quarantined unpicklable entry for node {node!r}")

    def save(self, node: str, key: str, outputs: dict[str, Any]) -> None:
        payload = pickle.dumps(outputs)
        envelope = {
            "key": key,
            "digest": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        with self._locked():
            _atomic_write(self.entry_path(node, key), pickle.dumps(envelope))
        _obs().event("cache.store", node, key=key[:16])

    # ---------------------------------------------------------- quarantine

    def _quarantine(self, entry: str, node: str, reason: str) -> None:
        """Move one damaged entry aside; never raises."""
        src = self._path(entry)
        qdir = self.quarantine_dir
        try:
            qdir.mkdir(exist_ok=True)
            dst = qdir / src.name
            n = 0
            while dst.exists():
                n += 1
                dst = qdir / f"{src.name}.{n}"
            os.replace(src, dst)
        except OSError:
            # already moved by a concurrent process, or the directory is
            # read-only — either way the load still reports a miss
            return
        ctx = _obs()
        ctx.event("cache.quarantine", node, entry=entry, reason=reason)
        ctx.metrics.inc("engine.cache.quarantined")

    def quarantined(self) -> list[str]:
        """File names currently held in ``quarantine/`` (sorted)."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(p.name for p in self.quarantine_dir.iterdir() if p.is_file())

    def purge_quarantine(self) -> int:
        """Delete quarantined files; returns how many were removed."""
        removed = 0
        for name in self.quarantined():
            try:
                (self.quarantine_dir / name).unlink()
                removed += 1
            except FileNotFoundError:
                continue
        return removed

    # ------------------------------------------------------------ integrity

    def verify(self) -> dict[str, Any]:
        """Check every entry's envelope; quarantine the damaged ones.

        Returns ``{"checked", "ok", "quarantined": [(entry, reason)...]}``.
        Verification is the load-path check applied cache-wide: after
        ``verify()`` every surviving entry is servable.
        """
        checked = 0
        bad: list[tuple[str, str]] = []
        for entry in self.entries():
            checked += 1
            reason = self._entry_fault(entry)
            if reason is not None:
                self._quarantine(entry, entry.rsplit("-", 1)[0], reason)
                bad.append((entry, reason))
        return {"checked": checked, "ok": checked - len(bad), "quarantined": bad}

    def _entry_fault(self, entry: str) -> str | None:
        """The reason one entry is damaged, or ``None`` if servable."""
        try:
            envelope = pickle.loads(self._path(entry).read_bytes())
        except FileNotFoundError:
            return None  # vanished mid-scan: nothing left to quarantine
        except Exception:
            return "unreadable"
        if not isinstance(envelope, dict) or not _ENVELOPE_KEYS <= set(envelope):
            return "malformed-envelope"
        key = envelope["key"]
        if not isinstance(key, str) or not entry.endswith(key[:24]):
            return "key-mismatch"
        payload = envelope["payload"]
        if (
            not isinstance(payload, bytes)
            or hashlib.sha256(payload).hexdigest() != envelope["digest"]
        ):
            return "digest-mismatch"
        try:
            pickle.loads(payload)
        except Exception:
            return "unpicklable-payload"
        return None

    # ------------------------------------------------------------ accounting

    def entries(self) -> list[str]:
        """Names of all cached materializations (sorted, for reports)."""
        return sorted(p.stem.replace(".stage", "") for p in self.root.glob("*.stage.pkl"))

    def size_bytes(self) -> int:
        total = 0
        for p in self.root.glob("*.stage.pkl"):
            try:
                total += p.stat().st_size
            except FileNotFoundError:
                continue  # deleted by concurrent gc/quarantine mid-glob
        return total

    def stats(self) -> dict[str, int]:
        """Entry/byte counts for the cache and its quarantine."""
        q_bytes = 0
        for name in self.quarantined():
            try:
                q_bytes += (self.quarantine_dir / name).stat().st_size
            except FileNotFoundError:
                continue
        return {
            "entries": len(self.entries()),
            "size_bytes": self.size_bytes(),
            "quarantined": len(self.quarantined()),
            "quarantine_bytes": q_bytes,
        }

    def gc(
        self, max_bytes: int | None = None, max_entries: int | None = None
    ) -> list[str]:
        """Evict oldest entries until the cache fits the given bounds.

        Eviction order is ``(mtime, name)`` — oldest first, name-stable
        under equal timestamps so two processes agree on the victim
        list.  Returns the evicted entry names.
        """
        if max_bytes is None and max_entries is None:
            return []
        aged: list[tuple[float, str, Path, int]] = []
        for p in self.root.glob("*.stage.pkl"):
            try:
                st = p.stat()
            except FileNotFoundError:
                continue
            aged.append((st.st_mtime, p.name, p, st.st_size))
        aged.sort()
        evicted: list[str] = []
        count = len(aged)
        total = sum(a[3] for a in aged)
        for _, _, path, size in aged:
            over_bytes = max_bytes is not None and total > max_bytes
            over_count = max_entries is not None and count > max_entries
            if not over_bytes and not over_count:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            total -= size
            count -= 1
            evicted.append(path.stem.replace(".stage", ""))
        return evicted
