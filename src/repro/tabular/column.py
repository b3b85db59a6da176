"""Typed column wrapper for the tabular engine."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

__all__ = ["Column", "infer_dtype"]

_KINDS = {"int": np.int64, "float": np.float64, "bool": np.bool_, "str": object}


def _value_kind(t: type) -> str:
    """The kind of one value type, as ``isinstance`` would classify it."""
    if t is type(None):
        return "none"
    if issubclass(t, (bool, np.bool_)):
        return "bool"
    if issubclass(t, (int, np.integer)):
        return "int"
    if issubclass(t, (float, np.floating)):
        return "float"
    return "str"  # strings and arbitrary objects ride in object columns


def infer_dtype(values: Sequence[Any]) -> str:
    """Infer a column kind ('int' | 'float' | 'bool' | 'str') from values.

    ``None`` mixed with numbers — ints *or* bools — promotes to float
    (NaN); ``None`` mixed with strings stays a string column with
    ``None`` entries.  An all-``None``/empty input infers 'str' (the
    most permissive kind).
    """
    seen = {_value_kind(t) for t in set(map(type, values))}
    if "str" in seen:
        return "str"
    if "float" in seen:
        return "float"
    if "int" in seen:
        return "float" if "none" in seen else "int"
    if "bool" in seen:
        # bool cannot represent missing (None would coerce to False)
        return "float" if "none" in seen else "bool"
    return "str"


class Column:
    """An immutable 1-D array with a declared kind.

    Numeric/bool columns are contiguous NumPy arrays; string columns are
    object arrays (``None`` marks missing).  Missing numeric entries are
    NaN, which forces a float kind.
    """

    __slots__ = ("name", "kind", "values", "_fact")

    def __init__(self, name: str, values: Any, kind: str | None = None) -> None:
        # lazy factorization cache (repro.tabular.codes.factorize); safe
        # because the column is immutable
        self._fact = None
        if kind is None:
            if isinstance(values, np.ndarray) and values.dtype != object:
                kind = {
                    "i": "int",
                    "u": "int",
                    "f": "float",
                    "b": "bool",
                }.get(values.dtype.kind, "str")
            else:
                kind = infer_dtype(list(values))
        if kind not in _KINDS:
            raise ValueError(f"unknown column kind {kind!r}")
        self.name = name
        self.kind = kind
        if kind == "float":
            arr = np.array(
                [np.nan if v is None else v for v in values], dtype=np.float64
            ) if not (isinstance(values, np.ndarray) and values.dtype.kind == "f") else np.asarray(values, dtype=np.float64)
        elif kind == "int":
            arr = np.asarray(values, dtype=np.int64)
        elif kind == "bool":
            arr = np.asarray(values, dtype=np.bool_)
        else:
            arr = np.empty(len(values), dtype=object)
            arr[:] = list(values) if not isinstance(values, np.ndarray) else values
        arr.setflags(write=False)
        self.values = arr

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    @classmethod
    def _wrap(cls, name: str, kind: str, arr: np.ndarray) -> "Column":
        """Adopt an already-typed array without re-validating/copying."""
        col = cls.__new__(cls)
        col.name = name
        col.kind = kind
        arr.setflags(write=False)
        col.values = arr
        col._fact = None
        return col

    def take(self, indices: np.ndarray) -> "Column":
        """New column with rows at ``indices`` (order preserved)."""
        return Column._wrap(self.name, self.kind, self.values[indices])

    def mask(self, keep: np.ndarray) -> "Column":
        """New column keeping rows where ``keep`` is True."""
        return Column._wrap(
            self.name, self.kind, self.values[np.asarray(keep, dtype=bool)]
        )

    def rename(self, name: str) -> "Column":
        col = Column._wrap(name, self.kind, self.values)
        col._fact = self._fact  # same values, same factorization
        return col

    def is_missing(self) -> np.ndarray:
        """Boolean mask of missing entries (NaN or None)."""
        if self.kind == "float":
            return np.isnan(self.values)
        if self.kind == "str":
            # elementwise ``v == None`` in C; a bool array even when empty
            return np.equal(self.values, None)
        return np.zeros(len(self), dtype=bool)

    def unique(self) -> list:
        """Distinct non-missing values in first-seen order."""
        seen: dict = {}
        if self.kind == "float":
            for v in self.values:
                if not np.isnan(v):
                    seen.setdefault(float(v), None)
        else:
            for v in self.values:
                if v is not None:
                    seen.setdefault(v, None)
        return list(seen.keys())

    def to_list(self) -> list:
        if self.kind == "int":
            return [int(v) for v in self.values]
        if self.kind == "float":
            return [float(v) for v in self.values]
        if self.kind == "bool":
            return [bool(v) for v in self.values]
        return list(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = ", ".join(repr(v) for v in self.values[:5])
        more = ", ..." if len(self) > 5 else ""
        return f"Column({self.name!r}, kind={self.kind}, n={len(self)}, [{head}{more}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind != other.kind or len(self) != len(other):
            return False
        if self.kind == "float":
            a, b = self.values, other.values
            return bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))
        return bool(np.all(self.values == other.values))

    def __hash__(self):  # Columns are not hashable (mutable-equality semantics)
        raise TypeError("Column is not hashable")

    def __getstate__(self):
        # the factorization cache is derived: a pickle always carries an
        # empty one, so a column's bytes do not depend on what grouped it
        return (None, {"name": self.name, "kind": self.kind, "values": self.values, "_fact": None})
