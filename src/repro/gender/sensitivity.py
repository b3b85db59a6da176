"""The unknowns-flipping sensitivity reassignment (§2 Limitations).

"We first artificially set the gender of all 144 unassigned researchers
to women, and then to men, and recomputed all statistical analyses."
"""

from __future__ import annotations

from repro.gender.model import Gender, GenderAssignment, InferenceMethod

__all__ = ["reassign_unknowns"]

# one shared forced instance per target (see GenderAssignment)
_FORCED = {
    g: GenderAssignment(g, InferenceMethod.SENSITIVITY, 0.0) for g in (Gender.F, Gender.M)
}


def reassign_unknowns(
    assignments: dict[str, GenderAssignment], to: Gender
) -> dict[str, GenderAssignment]:
    """Return a copy with every UNKNOWN forced to ``to``.

    The forced assignments are tagged ``InferenceMethod.SENSITIVITY`` so
    they remain distinguishable downstream.
    """
    if to is Gender.UNKNOWN:
        raise ValueError("sensitivity target must be F or M")
    forced = _FORCED[to]
    # assignments are shared values: decide once per distinct object,
    # then map the per-researcher objects through that decision
    objs = list(assignments.values())
    keys = list(map(id, objs))
    swap = {k: a if a.known else forced for k, a in dict(zip(keys, objs)).items()}
    return dict(zip(assignments, map(swap.__getitem__, keys)))
