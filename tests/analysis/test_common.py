"""Unit tests for the shared analysis helpers."""

import numpy as np
import pytest

from repro.analysis.common import mask_eq, share_of, women_share
from repro.tabular import Table


@pytest.fixture
def table():
    return Table(
        {
            "gender": ["F", "M", None, "F", "M", "M"],
            "conf": ["SC", "SC", "SC", "ISC", "ISC", "ISC"],
        }
    )


class TestMaskEq:
    def test_basic(self, table):
        m = mask_eq(table, "conf", "SC")
        assert m.tolist() == [True, True, True, False, False, False]

    def test_none_matches_none(self, table):
        m = mask_eq(table, "gender", None)
        assert m.tolist() == [False, False, True, False, False, False]


class TestShareOf:
    def test_missing_excluded_from_denominator(self, table):
        p = share_of(table, "gender", "F")
        assert (p.hits, p.n) == (2, 5)

    def test_women_share_alias(self, table):
        assert women_share(table).value == share_of(table, "gender", "F").value

    def test_empty_table(self):
        t = Table({"gender": []})
        p = women_share(t)
        assert p.n == 0 and np.isnan(p.value)

    def test_all_missing(self):
        t = Table({"gender": [None, None]})
        assert women_share(t).n == 0


# ------------------------------------------------------------ grouped shares

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.common import tally_by, women_share_by  # noqa: E402
from repro.tabular import Column  # noqa: E402


def _old_share_loop(table: Table, key: str, keys) -> dict:
    """The per-key filter loop the grouped helper replaced."""
    if keys is None:
        keys = table.col(key).unique()
    return {k: women_share(table.filter(lambda t: mask_eq(t, key, k))) for k in keys}


_GENDERS = st.sampled_from(["F", "M", None])
_NAN = float("nan")  # one object: a str column groups it like any value
_STR_KEYS = st.sampled_from(["SC", "ISC", "HPDC", None, _NAN])
_FLOAT_KEYS = st.sampled_from([2016.0, 2017.0, 2018.5, float("nan")])
_INT_KEYS = st.integers(min_value=-3, max_value=3)


@st.composite
def _tables(draw):
    kind, values = draw(
        st.sampled_from(
            [("str", _STR_KEYS), ("float", _FLOAT_KEYS), ("int", _INT_KEYS),
             ("bool", st.booleans())]
        )
    )
    rows = draw(st.lists(st.tuples(values, _GENDERS), max_size=40))
    table = Table(
        [Column("key", [k for k, _ in rows], kind=kind),
         Column("gender", [g for _, g in rows], kind="str")]
    )
    pool = {"str": ["SC", "ISC", "HPDC", "PPoPP", None, _NAN],
            "float": [2016.0, 2017, 2019.0, float("nan")],
            "int": [-3, 0, 2, 7, 2.0],
            "bool": [True, False]}[kind]
    keys = draw(st.one_of(st.none(), st.lists(st.sampled_from(pool), max_size=6)))
    return table, keys


def _form(shares: dict) -> list:
    return [(repr(k), p.hits, p.n) for k, p in shares.items()]


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_women_share_by_matches_filter_loop(case):
    table, keys = case
    assert _form(women_share_by(table, "key", keys)) == _form(
        _old_share_loop(table, "key", keys)
    )


def test_women_share_by_edges():
    empty = Table({"conf": [], "gender": []})
    assert women_share_by(empty, "conf") == {}
    assert _form(women_share_by(empty, "conf", ["SC"])) == [("'SC'", 0, 0)]
    one = Table({"conf": ["SC"] * 3, "gender": ["F", None, "M"]})
    assert _form(women_share_by(one, "conf")) == [("'SC'", 1, 2)]


def test_tally_by_counts_rows_per_mask():
    t = Table({"k": ["b", "a", None, "b", "a"], "x": [1, 2, 3, 4, 5]})
    keys, (every, big) = tally_by(t, "k", (np.ones(5, bool), t["x"] > 2))
    assert keys == ["b", "a"]
    assert every.tolist() == [2, 2] and big.tolist() == [1, 1]
