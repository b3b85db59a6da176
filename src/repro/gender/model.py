"""Gender types.

The paper uses binary perceived gender because that is the only
designator available to bibliometric studies, and says so explicitly
(§2).  We model an explicit UNKNOWN state rather than None so the
"excluded from most analyses" semantics are visible in types.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Gender", "InferenceMethod", "GenderAssignment"]


class Gender(str, Enum):
    """Perceived binary gender, with an explicit unknown."""

    F = "F"
    M = "M"
    UNKNOWN = "U"

    @property
    def known(self) -> bool:
        return self is not Gender.UNKNOWN


class InferenceMethod(str, Enum):
    """How an assignment was produced (mirrors the paper's cascade)."""

    MANUAL = "manual"          # web page pronoun or photo
    GENDERIZE = "genderize"    # automated, accepted at >= 0.70 confidence
    NONE = "none"              # unassigned
    SENSITIVITY = "sensitivity"  # forced during the sensitivity analysis
    SURVEY = "survey"          # self-identified (author survey)


@dataclass(frozen=True)
class GenderAssignment:
    """One researcher's assignment with provenance.

    Attributes
    ----------
    gender:
        The assigned perceived gender (UNKNOWN when unassigned).
    method:
        Which cascade stage produced it.
    confidence:
        The stage's confidence: 1.0 for manual pronoun evidence, the
        service probability for genderize, NaN when unassigned.

    Instances are immutable, so the producers hand out one shared
    instance per recurring value (:meth:`unassigned`, the resolver's
    manual table, the sensitivity flip).  Pickle's memo then writes
    each value once per payload and a load creates one object per value
    instead of one per researcher.
    """

    gender: Gender
    method: InferenceMethod
    confidence: float

    @property
    def known(self) -> bool:
        return self.gender.known

    @staticmethod
    def unassigned() -> "GenderAssignment":
        return _UNASSIGNED


_UNASSIGNED = GenderAssignment(Gender.UNKNOWN, InferenceMethod.NONE, float("nan"))
