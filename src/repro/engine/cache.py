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

Each entry's payload is a pickled ``{output name: pickled bytes}`` map:
every output of the node is pickled on its own, so
``load(node, key, outputs=...)`` unpickles only the outputs a caller
reads.  The executor uses that to load on read — a warm run unpickles
the outputs its caller wants and those a re-executing node consumes,
and leaves the rest on disk (see :mod:`repro.engine.executor`).

The cache is **self-healing**.  Every entry is stored as an envelope
``{key, digest, payload}`` where ``digest`` is SHA-256 over the pickled
payload, and every load verifies the envelope before serving it — the
whole payload, whichever outputs it unpickles.  A torn, bit-flipped, or
foreign entry is moved to a ``quarantine/`` subdirectory — preserved
for forensics, out of the cache's namespace — and reported as a
**miss** (``KeyError``), never an abort: the caller simply recomputes
and overwrites.  An entry heals when a run reads it; an entry no run
reads stays on disk, damaged or not, until :meth:`ArtifactCache.verify`
(``repro cache verify``) checks every entry and every output.  Saves
take a cross-process advisory lock (``.lock``, ``fcntl.flock`` where
available) so two runs sharing a directory serialize their writes.

A directory written by an older entry format is refused with
:class:`CacheMismatch`; point the run at a fresh directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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
# payload digest + quarantine lifecycle, v3 made the payload a map of
# per-output pickles (schema stays ENGINE_SCHEMA — fingerprints did not
# change, only the storage wrapper did).
CACHE_FORMAT = {"format": "repro-engine-cache", "schema": ENGINE_SCHEMA, "entry": 3}

META = "meta.json"
QUARANTINE_DIR = "quarantine"
_ENVELOPE_KEYS = {"key", "digest", "payload"}


def _unpack(
    path: Path, outputs: Iterable[str] | None, key_ok: Callable[[Any], bool]
) -> tuple[dict[str, Any] | None, str | None]:
    """Verify one entry and unpickle ``outputs`` (default: every output).

    Returns ``(outputs, None)`` for a servable entry, ``(None, None)``
    for a file that vanished, and ``(None, reason)`` otherwise:
    ``unreadable``, ``malformed-envelope``, ``key-mismatch`` (a
    well-formed envelope whose key fails ``key_ok``), ``digest-mismatch``
    or ``unpicklable-payload``.
    """
    try:
        envelope = pickle.loads(path.read_bytes())
    except FileNotFoundError:
        return None, None  # concurrent gc/quarantine won the race
    except Exception:
        return None, "unreadable"  # torn write or foreign bytes
    if not isinstance(envelope, dict) or not _ENVELOPE_KEYS <= set(envelope):
        return None, "malformed-envelope"
    if not key_ok(envelope["key"]):
        return None, "key-mismatch"
    payload = envelope["payload"]
    if (
        not isinstance(payload, bytes)
        or hashlib.sha256(payload).hexdigest() != envelope["digest"]
    ):
        return None, "digest-mismatch"
    try:
        parts = pickle.loads(payload)
        names = parts if outputs is None else outputs
        return {name: pickle.loads(parts[name]) for name in names}, None
    except Exception:
        return None, "unpicklable-payload"


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
            self._stamp()

    def _stamp(self) -> None:
        """Create the directory with its format stamp."""
        self.root.mkdir(parents=True, exist_ok=True)
        stamp = {k: CACHE_FORMAT[k] for k in sorted(CACHE_FORMAT)}
        _atomic_write(self.root / META, json.dumps(stamp, indent=2).encode("utf-8"))

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

    def load(
        self, node: str, key: str, outputs: Iterable[str] | None = None
    ) -> dict[str, Any]:
        """Load one node's outputs; raises ``KeyError`` on a miss.

        ``outputs`` names the outputs to unpickle (default: all of
        them); the others stay as bytes.  A corrupt entry — torn write,
        flipped bits, foreign pickle, a missing output — is quarantined
        and reported as a miss.  This method never raises anything but
        ``KeyError``: a damaged cache can cost recompute time, never a
        run.
        """
        loaded, reason = _unpack(self.entry_path(node, key), outputs, lambda k: k == key)
        if loaded is not None:
            return loaded
        if reason in (None, "key-mismatch"):
            # vanished, or a 24-hex-char prefix collision (astronomically
            # unlikely): a *well-formed* entry for a different key.  A
            # miss — but not corruption, so the other run's entry stays.
            raise KeyError(f"cache miss for node {node!r} key {key[:12]}…")
        self._quarantine(self._entry(node, key), node, reason)
        raise KeyError(f"quarantined {reason} entry for node {node!r}")

    def save(self, node: str, key: str, outputs: dict[str, Any]) -> None:
        payload = pickle.dumps(
            {name: pickle.dumps(value) for name, value in outputs.items()}
        )
        envelope = {
            "key": key,
            "digest": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        if not self.root.is_dir():
            # the directory was removed under this handle: restore it
            self._stamp()
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
        """The reason one entry is damaged, or ``None`` if servable (or gone).

        Unpickles every output, not just the ones some run happens to
        read; a key that does not match the file name is damage here.
        """
        _, reason = _unpack(
            self._path(entry), None, lambda k: isinstance(k, str) and entry.endswith(k[:24])
        )
        return reason

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
