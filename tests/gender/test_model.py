"""Tests for the gender model types."""

import math

import pytest

from repro.gender.model import Gender, GenderAssignment, InferenceMethod


class TestGender:
    def test_known(self):
        assert Gender.F.known and Gender.M.known
        assert not Gender.UNKNOWN.known

    def test_values_roundtrip(self):
        assert Gender("F") is Gender.F
        assert Gender("U") is Gender.UNKNOWN

    def test_string_enum(self):
        assert Gender.F == "F"  # str enum: usable as a plain string


class TestAssignment:
    def test_unassigned_factory(self):
        a = GenderAssignment.unassigned()
        assert not a.known
        assert a.method is InferenceMethod.NONE
        assert math.isnan(a.confidence)

    def test_unassigned_is_one_shared_value(self):
        # one shared instance: pickle writes it once per payload, and the
        # shared NaN makes it equal to itself
        assert GenderAssignment.unassigned() is GenderAssignment.unassigned()
        assert GenderAssignment.unassigned() == GenderAssignment.unassigned()

    def test_known_assignment(self):
        a = GenderAssignment(Gender.F, InferenceMethod.MANUAL, 1.0)
        assert a.known
        assert a.gender is Gender.F

    def test_frozen(self):
        a = GenderAssignment.unassigned()
        with pytest.raises(AttributeError):
            a.gender = Gender.F

    def test_method_values(self):
        assert InferenceMethod.GENDERIZE.value == "genderize"
        assert InferenceMethod.SENSITIVITY.value == "sensitivity"
