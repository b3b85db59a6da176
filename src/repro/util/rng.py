"""Hierarchical deterministic random streams.

Every random decision in the library draws from a named stream derived from
a single root seed.  Streams are independent of one another, and the
derivation is stable across processes and platforms, which is what makes
the parallel pipeline reproducible: each work item derives its own stream
from ``(root_seed, item_key)`` so the result does not depend on which
worker handles the item or in what order.

Derivation uses SHA-256 over the UTF-8 key path rather than
``SeedSequence.spawn`` so that a stream's identity is a *name*, not a call
order.  Adding a new consumer of randomness never perturbs existing
streams.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable

import numpy as np

__all__ = ["derive_seed", "spawn_rng", "RngStream", "Categorical"]

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed: int, *path: str | int) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a key path.

    The same ``(root_seed, path)`` always produces the same seed; distinct
    paths produce independent seeds (collision probability ~2**-64).

    Parameters
    ----------
    root_seed:
        The experiment's root seed (any Python int).
    path:
        A sequence of string/int components naming the stream, e.g.
        ``("harvest", "SC", 2017)``.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("utf-8"))
    for part in path:
        h.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def spawn_rng(root_seed: int, *path: str | int) -> np.random.Generator:
    """Return a NumPy ``Generator`` for the named stream."""
    return np.random.default_rng(derive_seed(root_seed, *path))


class RngStream:
    """A named node in the seed tree that can spawn child streams.

    ``RngStream`` wraps a root seed and a path prefix.  Call
    :meth:`child` to descend, :meth:`generator` to materialize a NumPy
    generator for the current node.

    Examples
    --------
    >>> root = RngStream(42)
    >>> g1 = root.child("population").generator()
    >>> g2 = root.child("population").generator()
    >>> float(g1.random()) == float(g2.random())
    True
    """

    __slots__ = ("_root_seed", "_path")

    def __init__(self, root_seed: int, path: Iterable[str | int] = ()) -> None:
        self._root_seed = int(root_seed)
        self._path: tuple[str | int, ...] = tuple(path)

    @property
    def root_seed(self) -> int:
        return self._root_seed

    @property
    def path(self) -> tuple[str | int, ...]:
        return self._path

    def child(self, *parts: str | int) -> "RngStream":
        """Return the stream at ``path + parts``."""
        return RngStream(self._root_seed, self._path + parts)

    def seed(self) -> int:
        """The 64-bit seed of this node."""
        return derive_seed(self._root_seed, *self._path)

    def generator(self) -> np.random.Generator:
        """A fresh NumPy generator seeded for this node."""
        return np.random.default_rng(self.seed())

    def integers(self, low: int, high: int, size: int | None = None):
        """Convenience: one-shot integer draw from a fresh generator."""
        return self.generator().integers(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        joined = "/".join(str(p) for p in self._path)
        return f"RngStream(seed={self._root_seed}, path='{joined}')"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RngStream):
            return NotImplemented
        return (self._root_seed, self._path) == (other._root_seed, other._path)

    def __hash__(self) -> int:
        return hash((self._root_seed, self._path))


def _kahan_sum(values: list[float]) -> float:
    """Compensated sum, term for term the one ``Generator.choice`` checks."""
    if not values:
        return 0.0
    total, c = values[0], 0.0
    for v in values[1:]:
        y = v - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


class Categorical:
    """A fixed discrete distribution drawn like ``Generator.choice(n, p=p)``.

    ``Generator.choice`` re-validates ``p`` and rebuilds its CDF on every
    call, which dominates per-person draws.  This class validates ``p``
    once (the same checks, messages and tolerance as ``choice``), keeps
    the same normalized CDF (``cdf = p.cumsum(); cdf /= cdf[-1]``), and
    draws with the same single ``rng.random()`` double and right-side
    bisection — so ``Categorical(p).draw(rng)`` returns what
    ``rng.choice(len(p), p=p)`` returns *and* leaves ``rng`` in the same
    state (METHODOLOGY §17).

    >>> p = [0.2, 0.5, 0.3]
    >>> a, b = np.random.default_rng(3), np.random.default_rng(3)
    >>> Categorical(p).draw(a) == b.choice(3, p=p)
    True
    >>> a.random() == b.random()
    True
    """

    __slots__ = ("_cdf",)

    def __init__(self, p) -> None:
        atol = np.sqrt(np.finfo(np.float64).eps)
        if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
            atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
        arr = np.ascontiguousarray(p, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        if arr.size == 0:
            raise ValueError("a must be a positive integer unless no samples are taken")
        total = _kahan_sum(arr.tolist())
        if np.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if np.logical_or.reduce(arr < 0):
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > atol:
            raise ValueError("Probabilities do not sum to 1")
        cdf = arr.cumsum()
        cdf /= cdf[-1]
        self._cdf: list[float] = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """One index, consuming exactly one ``rng.random()`` double."""
        return bisect_right(self._cdf, rng.random())
