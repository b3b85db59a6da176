"""Tests for inference evaluation and the sensitivity reassignment."""

import numpy as np
import pytest

from repro.gender import (
    GenderizeClient,
    GenderResolver,
    ResolverPolicy,
    evaluate_inference,
    reassign_unknowns,
)
from repro.gender.model import Gender, GenderAssignment, InferenceMethod
from repro.gender.webevidence import EvidenceKind, WebEvidenceSource
from repro.names import default_bank


def _assign(g, m=InferenceMethod.MANUAL, c=1.0):
    return GenderAssignment(g, m, c)


class TestEvaluate:
    def test_perfect(self):
        truth = {"a": Gender.F, "b": Gender.M}
        assignments = {"a": _assign(Gender.F), "b": _assign(Gender.M)}
        rep = evaluate_inference(assignments, truth)
        assert rep.coverage == 1.0
        assert rep.accuracy == 1.0
        assert rep.error_asymmetry() == 0.0

    def test_partial_coverage(self):
        truth = {"a": Gender.F, "b": Gender.M}
        assignments = {"a": GenderAssignment.unassigned(), "b": _assign(Gender.M)}
        rep = evaluate_inference(assignments, truth)
        assert rep.coverage == 0.5
        assert rep.coverage_women == 0.0 and rep.coverage_men == 1.0

    def test_asymmetry_detected(self):
        truth = {f"w{i}": Gender.F for i in range(10)}
        truth.update({f"m{i}": Gender.M for i in range(10)})
        assignments = {}
        for pid, g in truth.items():
            # women misassigned half the time, men never
            if g is Gender.F and int(pid[1]) % 2 == 0:
                assignments[pid] = _assign(Gender.M)
            else:
                assignments[pid] = _assign(g)
        rep = evaluate_inference(assignments, truth)
        assert rep.error_asymmetry() > 0.3

    def test_genderize_less_accurate_for_women_than_manual(self):
        """The paper's §2 claim, measured on the synthetic name universe."""
        bank = default_bank()
        rng = np.random.default_rng(42)
        truth = {}
        names = {}
        for i in range(400):
            g = Gender.F if i % 4 == 0 else Gender.M  # 25% women
            cluster = "east_asian" if i % 2 else "western"
            truth[f"p{i}"] = g
            names[f"p{i}"] = f"{bank.sample_forename(g.value, cluster, rng)} X"
        # genderize-only resolver
        web = WebEvidenceSource({}, truth)
        r = GenderResolver(
            web, GenderizeClient(0), ResolverPolicy(use_manual=False)
        )
        auto = {pid: r.resolve(pid, names[pid]) for pid in truth}
        auto_rep = evaluate_inference(auto, truth)
        # manual resolver with full evidence
        web_full = WebEvidenceSource(
            {pid: EvidenceKind.PRONOUN for pid in truth}, truth
        )
        r2 = GenderResolver(web_full, GenderizeClient(0))
        manual = {pid: r2.resolve(pid, names[pid]) for pid in truth}
        manual_rep = evaluate_inference(manual, truth)
        assert manual_rep.coverage > auto_rep.coverage
        assert manual_rep.accuracy_women >= auto_rep.accuracy_women
        # automated inference is worse for women than for men
        assert auto_rep.accuracy_women < auto_rep.accuracy_men


class TestSensitivity:
    def test_flips_only_unknowns(self):
        assignments = {
            "a": _assign(Gender.F),
            "b": GenderAssignment.unassigned(),
        }
        out = reassign_unknowns(assignments, Gender.M)
        assert out["a"].gender is Gender.F
        assert out["b"].gender is Gender.M
        assert out["b"].method is InferenceMethod.SENSITIVITY

    def test_forced_assignments_are_one_shared_value(self):
        assignments = {k: GenderAssignment.unassigned() for k in "abc"}
        out = reassign_unknowns(assignments, Gender.F)
        assert out["a"] is out["b"] is out["c"]

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            reassign_unknowns({}, Gender.UNKNOWN)

    def test_original_untouched(self):
        assignments = {"b": GenderAssignment.unassigned()}
        reassign_unknowns(assignments, Gender.F)
        assert assignments["b"].gender is Gender.UNKNOWN
