"""§3.2/§3.4 — diversity policies vs representation.

Two claims get quantified here:

1. "Even if we assume that the PC ratios are more representative ...
   they are also likely insufficient on their own as catalysts to
   increase the ratios among authors, as **the two metrics appear to be
   unrelated**" — the per-conference correlation between PC women share
   and author FAR.
2. §3.4's observation that the two diversity-policy conferences (SC,
   ISC) nevertheless sit at the *bottom* of the FAR range — the
   policy-group contrast.  A diversity chair belongs to one edition, so
   in a multi-year dataset a position is "policy" only when its own
   (venue, year) had one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.common import memoized, women_share
from repro.analysis.far import far_report
from repro.analysis.pc import pc_report
from repro.pipeline.dataset import AnalysisDataset
from repro.stats.chisquare import Chi2Result
from repro.stats.correlation import CorrelationResult, pearson
from repro.stats.proportions import Proportion, proportion_diff
from repro.tabular.codes import combine_codes, factorize

__all__ = ["PolicyReport", "policy_report"]


@dataclass(frozen=True)
class PolicyReport:
    """Policy-vs-representation quantities."""

    pc_vs_author_correlation: CorrelationResult   # per-conference (pc, far)
    per_conference: dict[str, tuple[float, float]]  # conf -> (author FAR, pc share)
    policy_confs: tuple[str, ...]                 # venues with a chair in some year
    far_policy: Proportion                        # authors at policy confs
    far_no_policy: Proportion
    policy_test: Chi2Result
    policy_confs_below_average: bool              # §3.4's paradox


@memoized
def policy_report(ds: AnalysisDataset) -> PolicyReport:
    """Compute the policy analyses over a dataset."""
    far = far_report(ds)
    pc = pc_report(ds)

    per_conf: dict[str, tuple[float, float]] = {}
    fars, pcs = [], []
    for c in far.by_conference:
        pc_share = pc.by_conference.get(c.conference)
        if pc_share is None or not pc_share.n or not c.authors.n:
            continue
        per_conf[c.conference] = (c.authors.value, pc_share.value)
        fars.append(c.authors.value)
        pcs.append(pc_share.value)
    corr = pearson(np.array(pcs), np.array(fars))

    # a diversity chair belongs to one edition: a position counts as
    # "policy" only when its own (venue, year) had one
    confs = ds.conferences
    editions = [
        (name, year)
        for name, year, has in zip(
            confs["conference"], confs["year"], confs["diversity_chair"]
        )
        if bool(has)
    ]
    policy_confs = tuple(dict.fromkeys(name for name, _ in editions))
    pos = ds.author_positions
    codes, _ = combine_codes(
        [factorize(pos.col("conference")), factorize(pos.col("year"))]
    )
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    chosen = set(editions)
    has_chair = np.array(
        [(pos["conference"][i], pos["year"][i]) in chosen for i in first.tolist()],
        dtype=bool,
    )
    in_policy = has_chair[inverse]
    far_policy = women_share(pos.filter(in_policy))
    far_no = women_share(pos.filter(~in_policy))

    return PolicyReport(
        pc_vs_author_correlation=corr,
        per_conference=per_conf,
        policy_confs=policy_confs,
        far_policy=far_policy,
        far_no_policy=far_no,
        policy_test=proportion_diff(far_policy, far_no),
        policy_confs_below_average=(
            far_policy.value < far.overall.value if far_policy.n else False
        ),
    )
