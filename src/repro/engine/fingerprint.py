"""Deterministic content fingerprints for engine cache keys.

A node's cache key must be a pure function of *what the node would
compute*: the world/config fingerprint, the node's own declared
parameters, and the fingerprints of its upstream outputs.  Anything
execution-related (worker counts, cache directories, wall-clock)
must stay out, so that a serial run and a 8-worker run address the same
cache entries.

``canonical`` reduces the config objects the pipeline is parameterised
by — dataclasses, enums, dicts, tuples — to a canonical JSON-encodable
structure (sorted keys, type-tagged containers), and ``fingerprint``
hashes that encoding with SHA-256.  Two structurally equal configs
always produce the same hex digest; any field change produces a
different one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any

__all__ = ["canonical", "fingerprint", "fingerprint_canonical", "world_fingerprint"]

# bump to invalidate every cache entry ever written (format change)
ENGINE_SCHEMA = 1


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-encodable structure.

    Dataclasses become ``{"__dc__": name, "fields": {...}}``, enums
    their ``(type, value)`` pair, mappings sorted pair lists, sets
    sorted element lists.  Unknown objects fall back to ``repr`` —
    acceptable for fingerprinting because every config object in the
    pipeline has a deterministic repr.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips the exact double, unlike str() on old pythons
        return {"__float__": repr(obj)}
    if isinstance(obj, bytes):
        return {"__bytes__": hashlib.sha256(obj).hexdigest()}
    if isinstance(obj, Enum):
        return {"__enum__": [type(obj).__name__, canonical(obj.value)]}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dc__": type(obj).__name__,
            "fields": {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)},
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonical(x), sort_keys=True) for x in obj)}
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                [json.dumps(canonical(k), sort_keys=True), canonical(v)]
                for k, v in obj.items()
            )
        }
    return {"__repr__": repr(obj)}


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    return fingerprint_canonical(*(canonical(p) for p in parts))


def fingerprint_canonical(*encoded: Any) -> str:
    """:func:`fingerprint` of parts already reduced by :func:`canonical`."""
    payload = json.dumps(
        [ENGINE_SCHEMA, list(encoded)], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def world_fingerprint(world_or_config: Any) -> str:
    """Fingerprint of a world: its config plus the edition roster.

    Works for both a :class:`~repro.synth.config.WorldConfig` (the world
    that *would* be built) and a prebuilt
    :class:`~repro.synth.world.SyntheticWorld` — a world built from a
    custom conference-target list (``repro.universe``) differs from the
    default build in its edition roster, which the registry records.
    """
    registry = getattr(world_or_config, "registry", None)
    if registry is None:
        return fingerprint("world-config", world_or_config)
    # the full edition records (conference profile, acceptance rate,
    # paper ids), not just (name, year): two universes drawn from
    # different seeds share the roster names but differ in content
    editions = [registry.editions[k] for k in sorted(registry.editions)]
    return fingerprint("world", world_or_config.config, editions)
