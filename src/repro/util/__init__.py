"""Low-level utilities shared by every subsystem.

The reproduction pipeline must be *deterministic*: the same seed yields the
same synthetic world, the same harvested records, and the same statistics,
regardless of worker count or platform.  This package provides the
building blocks that make that possible:

- :mod:`repro.util.rng` — hierarchical, named random streams derived from a
  single root seed via SeedSequence spawning.
- :mod:`repro.util.rounding` — largest-remainder ("Hamilton") apportionment
  and controlled rounding used to integerize fractional quota tables.
- :mod:`repro.util.parallel` — a deterministic process-pool map whose output
  is independent of the degree of parallelism.
- :mod:`repro.util.validation` — small argument-checking helpers with
  consistent error messages.
- :mod:`repro.util.formatting` — percent/number formatting shared by the
  ASCII reports.
"""

from repro.util.rng import RngStream, derive_seed, spawn_rng
from repro.util.rounding import (
    largest_remainder,
    round_preserving_sum,
    proportional_ints,
)
from repro.util.parallel import parallel_map, ParallelConfig
from repro.util.validation import (
    check_fraction,
    check_nonnegative,
    check_positive,
    check_in,
)
from repro.util.formatting import fmt_count, fmt_pct, fmt_float

__all__ = [
    "RngStream",
    "derive_seed",
    "spawn_rng",
    "largest_remainder",
    "round_preserving_sum",
    "proportional_ints",
    "parallel_map",
    "ParallelConfig",
    "check_fraction",
    "check_nonnegative",
    "check_positive",
    "check_in",
    "fmt_count",
    "fmt_pct",
    "fmt_float",
]
