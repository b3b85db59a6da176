"""Author-level citation indices.

Implemented from the definitions (Hirsch 2005 for h; Google Scholar's
docs for i10; Egghe 2006 for g), each as a single vectorized pass over a
sorted citation vector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["h_index", "i10_index", "g_index"]


def _as_counts(citations) -> np.ndarray:
    c = np.asarray(citations, dtype=np.int64)
    if c.ndim != 1:
        raise ValueError("citations must be a 1-D vector of counts")
    if c.size and c.min() < 0:
        raise ValueError("citation counts must be nonnegative")
    return c


def h_index(citations) -> int:
    """Hirsch's h: the largest h such that h papers have ≥ h citations.

    >>> h_index([10, 8, 5, 4, 3])
    4
    """
    c = _as_counts(citations)
    if c.size == 0:
        return 0
    desc = np.sort(c)[::-1]
    # desc falls while the ranks rise, so ``desc >= ranks`` holds on a
    # prefix and h is that prefix's length
    return int(np.count_nonzero(desc >= np.arange(1, desc.size + 1)))


def i10_index(citations, threshold: int = 10) -> int:
    """Number of papers with at least ``threshold`` citations (GS's i10)."""
    c = _as_counts(citations)
    return int(np.count_nonzero(c >= threshold))


def g_index(citations) -> int:
    """Egghe's g: largest g such that the top g papers together have ≥ g².

    >>> g_index([10, 8, 5, 4, 3])
    5
    """
    c = _as_counts(citations)
    if c.size == 0:
        return 0
    desc = np.sort(c)[::-1]
    cum = np.cumsum(desc)
    ranks = np.arange(1, desc.size + 1)
    ok = cum >= ranks**2
    return int(ranks[ok][-1]) if ok.any() else 0
