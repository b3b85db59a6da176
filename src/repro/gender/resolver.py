"""The gender-assignment cascade.

Order and thresholds follow §2 exactly:

1. manual web evidence (pronoun preferred, photo fallback);
2. genderize, accepted only when the reported probability is ≥ 0.70;
3. otherwise unassigned.

The resolver records the method on every assignment so downstream
reporting can reproduce the paper's coverage split
(95.18% / 1.79% / 3.03%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gender.genderize import GenderizeClient
from repro.gender.model import Gender, GenderAssignment, InferenceMethod
from repro.gender.webevidence import EvidenceKind, WebEvidenceSource

__all__ = ["ResolverPolicy", "GenderResolver"]

# manual evidence yields one of a handful of values: share one instance
# per (gender, confidence) (see GenderAssignment)
_MANUAL = {
    (g, conf): GenderAssignment(g, InferenceMethod.MANUAL, conf)
    for g in Gender
    for conf in (1.0, 0.98)
}


@dataclass(frozen=True)
class ResolverPolicy:
    """Tunable cascade policy (paper defaults)."""

    genderize_threshold: float = 0.70
    use_manual: bool = True
    use_genderize: bool = True

    def __post_init__(self) -> None:
        if not 0.5 <= self.genderize_threshold <= 1.0:
            raise ValueError("genderize_threshold must be in [0.5, 1]")


class GenderResolver:
    """Runs the cascade for a set of researchers."""

    def __init__(
        self,
        web: WebEvidenceSource | None,
        genderize: GenderizeClient | None,
        policy: ResolverPolicy | None = None,
    ) -> None:
        self._web = web
        self._genderize = genderize
        self.policy = policy or ResolverPolicy()
        if self.policy.use_manual and web is None:
            raise ValueError("policy enables manual evidence but no source given")
        if self.policy.use_genderize and genderize is None:
            raise ValueError("policy enables genderize but no client given")

    def resolve(self, person_id: str, full_name: str) -> GenderAssignment:
        """Assign one researcher."""
        if self.policy.use_manual and self._web is not None:
            ev = self._web.lookup(person_id)
            if ev.kind is EvidenceKind.PRONOUN:
                return _MANUAL[ev.observed_gender, 1.0]
            if ev.kind is EvidenceKind.PHOTO:
                return _MANUAL[ev.observed_gender, 0.98]
        if self.policy.use_genderize and self._genderize is not None:
            resp = self._genderize.query(full_name)
            if (
                resp.gender is not None
                and resp.probability >= self.policy.genderize_threshold
                and resp.count > 0
            ):
                return GenderAssignment(
                    resp.gender, InferenceMethod.GENDERIZE, resp.probability
                )
        return GenderAssignment.unassigned()

    def resolve_all(
        self, people: list[tuple[str, str]]
    ) -> dict[str, GenderAssignment]:
        """Assign a batch of ``(person_id, full_name)`` researchers."""
        return {pid: self.resolve(pid, name) for pid, name in people}

    @staticmethod
    def coverage(assignments: dict[str, GenderAssignment]) -> dict[str, float]:
        """Fraction of researchers per inference method.

        Keys: 'manual', 'genderize', 'none'.  This is the statistic the
        paper reports as 95.18% / 1.79% / 3.03%.
        """
        n = len(assignments)
        if n == 0:
            return {"manual": float("nan"), "genderize": float("nan"), "none": float("nan")}
        counts = {"manual": 0, "genderize": 0, "none": 0}
        for a in assignments.values():
            if a.method is InferenceMethod.MANUAL:
                counts["manual"] += 1
            elif a.method is InferenceMethod.GENDERIZE:
                counts["genderize"] += 1
            else:
                counts["none"] += 1
        return {k: v / n for k, v in counts.items()}
