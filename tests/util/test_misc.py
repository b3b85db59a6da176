"""Tests for validation and formatting helpers."""

import math

import pytest

from repro.util.formatting import fmt_count, fmt_float, fmt_pct
from repro.util.validation import check_fraction, check_in, check_nonnegative, check_positive


class TestValidation:
    def test_fraction_ok(self):
        assert check_fraction(0.5, "x") == 0.5
        assert check_fraction(0, "x") == 0.0
        assert check_fraction(1, "x") == 1.0

    def test_fraction_bad(self):
        with pytest.raises(ValueError, match="x must be in"):
            check_fraction(1.5, "x")

    def test_nonnegative(self):
        assert check_nonnegative(0, "n") == 0
        with pytest.raises(ValueError):
            check_nonnegative(-1, "n")

    def test_positive(self):
        assert check_positive(2, "n") == 2
        with pytest.raises(ValueError):
            check_positive(0, "n")

    def test_check_in(self):
        assert check_in("a", {"a", "b"}, "opt") == "a"
        with pytest.raises(ValueError, match="opt must be one of"):
            check_in("c", {"a", "b"}, "opt")


class TestFormatting:
    def test_fmt_count(self):
        assert fmt_count(1234567) == "1,234,567"

    def test_fmt_pct(self):
        assert fmt_pct(0.0991) == "9.91%"
        assert fmt_pct(0.5, digits=0) == "50%"

    def test_fmt_pct_nan(self):
        assert fmt_pct(float("nan")) == "n/a"

    def test_fmt_float(self):
        assert fmt_float(3.14159, 3) == "3.14"
        assert fmt_float(float("nan")) == "n/a"
