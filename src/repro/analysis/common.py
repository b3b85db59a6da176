"""Shared helpers for the analysis modules."""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.stats.proportions import Proportion
from repro.tabular import Table
from repro.tabular.codes import factorize

__all__ = [
    "women_share",
    "share_of",
    "mask_eq",
    "mask_flag",
    "venues",
    "memoized",
    "tally_by",
    "women_share_by",
]

R = TypeVar("R")


def memoized(fn: Callable[..., R]) -> Callable[..., R]:
    """Compute ``fn(ds, ...)`` once per dataset object (METHODOLOGY §18).

    ``fn`` must be a pure function of the dataset and of hashable
    arguments.  Its result is kept in the dataset's report memo under
    ``(fn, arguments with defaults applied)``, so ``f(ds)`` and
    ``f(ds, <default>)`` share one entry.  The memo lives exactly as long
    as the dataset object and is never pickled; callers must treat the
    returned report as read-only, since every later caller gets the same
    object.  Two threads that miss at once both compute the same value
    and one of them is kept.
    """
    sig = inspect.signature(fn)
    defaults = tuple(p.default for p in list(sig.parameters.values())[1:])

    @functools.wraps(fn)
    def report(ds, *args, **kwargs):
        if args or kwargs:
            bound = sig.bind(ds, *args, **kwargs)
            bound.apply_defaults()
            key = (fn, tuple(bound.arguments.values())[1:])
        else:
            key = (fn, defaults)
        memo = ds.report_memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(ds, *args, **kwargs)
            return value

    return report


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


def mask_flag(table: Table, column: str) -> np.ndarray:
    """Boolean mask of rows whose column is truthy (``bool(x)`` per row)."""
    # an object array converts each element by its truth value in C
    return np.asarray(table[column], dtype=bool)


def share_of(table: Table, column: str, value) -> Proportion:
    """Proportion of rows equal to ``value`` among non-missing rows."""
    col = table.col(column)
    known = ~col.is_missing()
    hits = int(np.sum(mask_eq(table, column, value) & known))
    return Proportion(hits, int(known.sum()))


def women_share(table: Table, column: str = "gender") -> Proportion:
    """Women among known-gender rows — the paper's universal metric."""
    return share_of(table, column, "F")


def tally_by(
    table: Table, key: str, masks: Sequence[np.ndarray], keys: Sequence | None = None
) -> tuple[list, list[np.ndarray]]:
    """Rows per value of ``key`` under each row mask, in one pass per mask.

    Returns ``(keys, counts)`` where ``counts[i][j]`` is the number of
    rows with ``masks[i]`` set whose ``key`` equals ``keys[j]`` — what
    ``np.sum(mask_eq(table, key, k) & masks[i])`` gives, without a pass
    per key.  ``keys`` defaults to the column's non-missing values in
    first-seen order; explicit keys absent from the table count zero.
    The work is one cached factorization of the key column
    (:func:`repro.tabular.codes.factorize`) plus a ``bincount`` per mask.
    """
    col = table.col(key)
    f = factorize(col)
    # mask_eq semantics: ``None`` equals ``None`` in an object column,
    # while a NaN key equals nothing
    code_of = {
        u: code
        for code, u in enumerate(f.uniques)
        if code != f.missing_code or col.kind == "str"
    }
    if keys is None:
        # numeric uniques come sorted: restore first-seen order
        first = np.full(f.n_codes, len(f.codes), dtype=np.int64)
        first[f.codes[::-1]] = np.arange(len(f.codes) - 1, -1, -1)
        keys = [
            f.uniques[code]
            for code in np.argsort(first, kind="stable").tolist()
            if code != f.missing_code
        ]
    # a key not in the column maps to one extra, always-empty bin
    slots = np.fromiter(
        (code_of.get(k, f.n_codes) if k == k else f.n_codes for k in keys),
        dtype=np.int64,
        count=len(keys),
    )
    counts = [
        np.bincount(f.codes[m], minlength=f.n_codes + 1)[slots] for m in masks
    ]
    return list(keys), counts


def women_share_by(
    table: Table, key: str, keys: Sequence | None = None, column: str = "gender"
) -> dict[Any, Proportion]:
    """``{k: women_share(rows with key k)}`` in one pass over the table.

    Equal, key for key, to filtering the table once per key and calling
    :func:`women_share` on each part; see :func:`tally_by` for the key
    order and semantics.
    """
    known = ~table.col(column).is_missing()
    women = mask_eq(table, column, "F") & known
    keys, (hits, n) = tally_by(table, key, (women, known), keys)
    return {k: Proportion(int(h), int(c)) for k, h, c in zip(keys, hits, n)}
