"""§2 (Limitations) — the unknown-gender sensitivity analysis.

"We first artificially set the gender of all 144 unassigned researchers
to women, and then to men, and recomputed all statistical analyses.
None of our observations were subsequently changed in either direction
or statistical significance."

The report re-runs the headline analyses under both forcings and checks
the paper's qualitative observations (directions and significance at
α = 0.05) for flips.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.blind import blind_report
from repro.analysis.far import FarReport, far_report
from repro.analysis.pc import pc_report
from repro.gender.model import Gender
from repro.gender.sensitivity import reassign_unknowns
from repro.pipeline.dataset import AnalysisDataset

__all__ = ["Observation", "SensitivityReport", "sensitivity_report"]


@dataclass(frozen=True)
class Observation:
    """One qualitative claim checked across the three worlds."""

    name: str
    baseline: bool
    all_women: bool
    all_men: bool

    @property
    def stable(self) -> bool:
        return self.baseline == self.all_women == self.all_men


@dataclass(frozen=True)
class SensitivityReport:
    unknowns: int
    observations: tuple[Observation, ...]
    far_values: dict[str, float]       # scenario -> overall FAR

    @property
    def all_stable(self) -> bool:
        return all(o.stable for o in self.observations)


def _observations(ds: AnalysisDataset, far: FarReport) -> dict[str, bool]:
    """The observations over ``ds``, given its already-computed FAR report."""
    blind = blind_report(ds)
    pc = pc_report(ds)
    return {
        "far_below_15pct": far.overall.value < 0.15,
        "last_author_not_higher": far.last_overall.value <= far.overall.value + 0.01,
        "double_blind_lower_than_single": (
            blind.authors_double.value < blind.authors_single.value
        ),
        "lead_single_at_least_double": (
            blind.lead_single.value >= blind.lead_double.value
        ),
        "pc_ratio_roughly_double_authors": (
            pc.memberships.value > 1.5 * far.overall.value
        ),
        "pc_vs_authors_significant": pc.pc_vs_authors.significant(),
        "sc_below_overall": far.conference("SC").authors.value < far.overall.value
        if any(c.conference == "SC" for c in far.by_conference)
        else True,
    }


def sensitivity_report(ds: AnalysisDataset) -> SensitivityReport:
    """Run the §2 sensitivity analysis over an analysis dataset."""
    far = far_report(ds)
    base_obs = _observations(ds, far)
    far_values = {"baseline": far.overall.value}

    scenarios: dict[str, dict[str, bool]] = {}
    for label, forced in (("all_women", Gender.F), ("all_men", Gender.M)):
        forced_ds = ds.with_assignments(reassign_unknowns(ds.assignments, forced))
        far = far_report(forced_ds)
        scenarios[label] = _observations(forced_ds, far)
        far_values[label] = far.overall.value

    observations = tuple(
        Observation(
            name=name,
            baseline=base_obs[name],
            all_women=scenarios["all_women"][name],
            all_men=scenarios["all_men"][name],
        )
        for name in base_obs
    )
    return SensitivityReport(
        unknowns=ds.unknown_count(),
        observations=observations,
        far_values=far_values,
    )
