"""The rewritten pure hot-path functions agree with their old bodies.

Each ``_old_*`` below is a verbatim copy of the implementation its fast
path replaced (ASCII short-cut in ``name_key``, per-type classification
in ``infer_dtype``, prefix count in ``h_index``); hypothesis drives both
over inputs chosen to hit the edges the fast paths skip.
"""

import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.names.parsing import name_key
from repro.scholar.metrics import h_index
from repro.tabular.column import infer_dtype

# ------------------------------------------------------------- old bodies

_WS = re.compile(r"\s+")


def _old_name_key(full_name: str) -> str:
    decomposed = unicodedata.normalize("NFKD", _WS.sub(" ", full_name).strip())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).lower()


def _old_infer_dtype(values) -> str:
    saw_float = saw_int = saw_bool = saw_str = saw_none = False
    for v in values:
        if v is None:
            saw_none = True
        elif isinstance(v, (bool, np.bool_)):
            saw_bool = True
        elif isinstance(v, (int, np.integer)):
            saw_int = True
        elif isinstance(v, (float, np.floating)):
            saw_float = True
        else:
            saw_str = True
    if saw_str:
        return "str"
    if saw_float:
        return "float"
    if saw_int:
        return "float" if saw_none else "int"
    if saw_bool:
        return "float" if saw_none else "bool"
    return "str"


def _old_h_index(citations) -> int:
    c = np.asarray(citations, dtype=np.int64)
    if c.ndim != 1:
        raise ValueError("citations must be a 1-D vector of counts")
    if np.any(c < 0):
        raise ValueError("citation counts must be nonnegative")
    if c.size == 0:
        return 0
    desc = np.sort(c)[::-1]
    ranks = np.arange(1, desc.size + 1)
    ok = desc >= ranks
    return int(ranks[ok][-1]) if ok.any() else 0


# ------------------------------------------------------------- name_key

_NAME_CHARS = st.sampled_from(
    list("abcXYZ .-'") + ["\t", "\n", " ", " ", "é", "ñ", "ø", "ß", "ﬁ", "Å",
                          "́", "̈", "Ł", "李", "ｱ", "①", "²"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_NAME_CHARS, max_size=24).map("".join))
def test_name_key_matches_old_body(name):
    assert name_key(name) == _old_name_key(name)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_name_key_matches_old_body_on_any_text(name):
    assert name_key(name) == _old_name_key(name)


# ----------------------------------------------------------- infer_dtype


class _MyInt(int):
    pass


class _MyFloat(float):
    pass


class _MyStr(str):
    pass


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-5, 5),
    st.integers(-5, 5).map(np.int64),
    st.integers(0, 5).map(np.uint8),
    st.integers(-5, 5).map(_MyInt),
    st.floats(allow_nan=True),
    st.floats(-1, 1).map(np.float32),
    st.floats(-1, 1).map(_MyFloat),
    st.text(max_size=3),
    st.text(max_size=3).map(_MyStr),
    st.just(("tuple",)),
    st.just(b"bytes"),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_VALUES, max_size=12))
def test_infer_dtype_matches_old_body(values):
    assert infer_dtype(values) == _old_infer_dtype(values)


# --------------------------------------------------------------- h_index


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=80))
def test_h_index_matches_old_body(citations):
    assert h_index(citations) == _old_h_index(citations)
    assert h_index(np.asarray(citations, dtype=np.int64)) == _old_h_index(citations)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300))
def test_h_index_matches_old_body_on_geometric_vectors(seed, n):
    vec = np.random.default_rng(seed).geometric(0.05, size=n) - 1
    assert h_index(vec) == _old_h_index(vec)


@pytest.mark.parametrize("bad", [[1, -1], [[1, 2]], [-3]])
def test_h_index_rejects_what_the_old_body_rejects(bad):
    with pytest.raises(ValueError):
        _old_h_index(bad)
    with pytest.raises(ValueError):
        h_index(bad)
