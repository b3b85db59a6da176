"""Tests for the gender-assignment cascade."""

import pytest

from repro.gender import (
    GenderizeClient,
    GenderResolver,
    ResolverPolicy,
    WebEvidenceSource,
)
from repro.gender.model import Gender, InferenceMethod
from repro.gender.webevidence import EvidenceKind


def make_web(availability, truth, photo_error=0.0, seed=0):
    return WebEvidenceSource(availability, truth, photo_error, seed)


class TestCascade:
    def test_pronoun_wins(self):
        web = make_web({"p1": EvidenceKind.PRONOUN}, {"p1": Gender.F})
        r = GenderResolver(web, GenderizeClient(0))
        a = r.resolve("p1", "Wei Zhang")  # ambiguous name, but evidence exists
        assert a.gender is Gender.F
        assert a.method is InferenceMethod.MANUAL
        assert a.confidence == 1.0

    def test_photo_confidence_below_pronoun(self):
        web = make_web({"p1": EvidenceKind.PHOTO}, {"p1": Gender.M})
        r = GenderResolver(web, GenderizeClient(0))
        a = r.resolve("p1", "Anyone X")
        assert a.method is InferenceMethod.MANUAL
        assert a.confidence < 1.0

    def test_manual_assignments_are_shared_values(self):
        web = make_web(
            {p: EvidenceKind.PRONOUN for p in ("p1", "p2")}
            | {p: EvidenceKind.PHOTO for p in ("p3", "p4")}
            | {"p5": EvidenceKind.NONE, "p6": EvidenceKind.NONE},
            {p: Gender.F for p in ("p1", "p2", "p3", "p4", "p5", "p6")},
        )
        r = GenderResolver(web, GenderizeClient(0))
        assert r.resolve("p1", "Wei Zhang") is r.resolve("p2", "Ana Lima")
        assert r.resolve("p3", "Wei Zhang") is r.resolve("p4", "Ana Lima")
        assert r.resolve("p1", "Wei Zhang") is not r.resolve("p3", "Wei Zhang")
        assert r.resolve("p5", "Zzyzx Qqq") is r.resolve("p6", "Qqq Zzyzx")

    def test_genderize_fallback_confident_name(self):
        web = make_web({"p1": EvidenceKind.NONE}, {"p1": Gender.F})
        r = GenderResolver(web, GenderizeClient(0))
        a = r.resolve("p1", "Mary Smith")
        assert a.method is InferenceMethod.GENDERIZE
        assert a.gender is Gender.F
        assert a.confidence >= 0.70

    def test_unassigned_when_all_fail(self):
        web = make_web({"p1": EvidenceKind.NONE}, {"p1": Gender.F})
        r = GenderResolver(web, GenderizeClient(0))
        a = r.resolve("p1", "Zzyzx Qqq")
        assert a.gender is Gender.UNKNOWN
        assert not a.known

    def test_threshold_respected(self):
        web = make_web({"p1": EvidenceKind.NONE}, {"p1": Gender.M})
        # a very high threshold rejects borderline names
        strict = GenderResolver(
            web, GenderizeClient(0), ResolverPolicy(genderize_threshold=0.999)
        )
        a = strict.resolve("p1", "Jordan Lee")
        assert a.gender is Gender.UNKNOWN

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResolverPolicy(genderize_threshold=0.4)

    def test_manual_disabled(self):
        web = make_web({"p1": EvidenceKind.PRONOUN}, {"p1": Gender.F})
        r = GenderResolver(
            web, GenderizeClient(0), ResolverPolicy(use_manual=False)
        )
        a = r.resolve("p1", "Mary Smith")
        assert a.method is InferenceMethod.GENDERIZE

    def test_missing_sources_rejected(self):
        with pytest.raises(ValueError):
            GenderResolver(None, GenderizeClient(0))
        with pytest.raises(ValueError):
            GenderResolver(
                make_web({}, {}), None, ResolverPolicy(use_genderize=True)
            )

    def test_coverage_stats(self):
        web = make_web(
            {"a": EvidenceKind.PRONOUN, "b": EvidenceKind.NONE, "c": EvidenceKind.NONE},
            {"a": Gender.F, "b": Gender.M, "c": Gender.M},
        )
        r = GenderResolver(web, GenderizeClient(0))
        assignments = r.resolve_all(
            [("a", "Wei X"), ("b", "John Smith"), ("c", "Zzyzx Q")]
        )
        cov = GenderResolver.coverage(assignments)
        assert cov["manual"] == pytest.approx(1 / 3)
        assert cov["genderize"] == pytest.approx(1 / 3)
        assert cov["none"] == pytest.approx(1 / 3)

    def test_coverage_empty(self):
        import math

        cov = GenderResolver.coverage({})
        assert math.isnan(cov["manual"])


class TestWebEvidence:
    def test_photo_error_flips(self):
        web = make_web({"p": EvidenceKind.PHOTO}, {"p": Gender.F}, photo_error=1.0)
        ev = web.lookup("p")
        assert ev.observed_gender is Gender.M

    def test_pronoun_never_flips(self):
        web = make_web({"p": EvidenceKind.PRONOUN}, {"p": Gender.F}, photo_error=1.0)
        assert web.lookup("p").observed_gender is Gender.F

    def test_missing_person(self):
        web = make_web({}, {})
        assert web.lookup("ghost").kind is EvidenceKind.NONE

    def test_photo_error_deterministic(self):
        a = make_web({"p": EvidenceKind.PHOTO}, {"p": Gender.F}, 0.5, seed=9).lookup("p")
        b = make_web({"p": EvidenceKind.PHOTO}, {"p": Gender.F}, 0.5, seed=9).lookup("p")
        assert a.observed_gender == b.observed_gender

    def test_bad_error_rate(self):
        with pytest.raises(ValueError):
            make_web({}, {}, photo_error=1.5)
