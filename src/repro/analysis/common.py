"""Shared helpers for the analysis modules."""

from __future__ import annotations

import numpy as np

from repro.stats.proportions import Proportion
from repro.tabular import Table

__all__ = ["women_share", "share_of", "mask_eq", "venues"]


def venues(ds) -> list[str]:
    """Distinct conference names of a dataset, in first-seen order.

    ``ds.conferences`` has one row per *edition*, so a multi-year
    dataset names each venue once per year; per-venue analyses iterate
    over this list instead, visiting each venue once.
    """
    return list(dict.fromkeys(ds.conferences["conference"]))


def mask_eq(table: Table, column: str, value) -> np.ndarray:
    """Boolean mask of rows whose column equals ``value``."""
    # elementwise == runs in C even for object columns; None/NaN
    # entries compare unequal to any real value, matching the old loop
    eq = table[column] == value
    if not isinstance(eq, np.ndarray):  # empty or degenerate comparison
        return np.zeros(table.num_rows, dtype=bool)
    return eq.astype(bool)


def share_of(table: Table, column: str, value) -> Proportion:
    """Proportion of rows equal to ``value`` among non-missing rows."""
    col = table.col(column)
    known = ~col.is_missing()
    hits = int(np.sum(mask_eq(table, column, value) & known))
    return Proportion(hits, int(known.sum()))


def women_share(table: Table, column: str = "gender") -> Proportion:
    """Women among known-gender rows — the paper's universal metric."""
    return share_of(table, column, "F")
