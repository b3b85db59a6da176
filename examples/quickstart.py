#!/usr/bin/env python3
"""Quickstart: build the world, run the pipeline, print headline results.

Usage::

    python examples/quickstart.py [--seed N] [--scale S]

Builds the calibrated synthetic world (the paper's nine 2017 conferences
with their published sizes at scale 1.0), scrapes the generated sites,
runs the gender-inference cascade, and prints the §3.1 headline numbers
next to the paper's values.
"""

from __future__ import annotations

import argparse

from repro.analysis import blind_report, far_report, pc_report
from repro.pipeline import RunConfig, run_pipeline
from repro.report import build_table1
from repro.report.textreport import stage_table
from repro.synth import WorldConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument("--scale", type=float, default=1.0, help="population scale")
    args = parser.parse_args()

    print(f"Building world (seed={args.seed}, scale={args.scale}) and running pipeline...")
    result = run_pipeline(RunConfig(world=WorldConfig(seed=args.seed, scale=args.scale)))
    print(stage_table(result.stages))
    print()

    _, table1 = build_table1(result.dataset)
    print(table1)
    print()

    ds = result.dataset
    far = far_report(ds)
    blind = blind_report(ds)
    pc = pc_report(ds)
    cov = result.coverage

    print("Headline statistics (measured vs paper):")
    print(f"  women among all authors:      {far.overall}            (paper:  9.90%)")
    print(f"  women among SC authors:       {far.conference('SC').authors}    (paper:  8.12%)")
    print(f"  women among ISC authors:      {far.conference('ISC').authors}      (paper:  5.77%)")
    print(f"  women among lead authors:     {far.lead_overall}      (paper: ~10.9%)")
    print(f"  women among last authors:     {far.last_overall}      (paper:  8.40%)")
    print(f"  double- vs single-blind FAR:  {blind.authors_double.pct:.2f}% vs "
          f"{blind.authors_single.pct:.2f}%  (paper: 7.57% vs 10.52%)")
    print(f"  women among PC memberships:   {pc.memberships}   (paper: 18.46%)")
    print(f"  gender assignment coverage:   manual {100*cov['manual']:.2f}% / "
          f"genderize {100*cov['genderize']:.2f}% / unassigned {100*cov['none']:.2f}%")
    print(f"                                (paper: 95.18% / 1.79% / 3.03%)")


if __name__ == "__main__":
    main()
