"""Iterative proportional fitting (raking).

The paper publishes *marginals* of the researcher population — country
totals (Table 2), region × role × gender rates (Table 3), sector shares
(§5.3), per-conference gender rates (§3) — but never the joint
distribution.  To synthesize researchers whose cross-tabulations all
match, we fit a joint table by IPF: start from a seed table (independence
or a prior) and repeatedly rescale along each constrained margin until
every margin matches.  IPF converges to the maximum-entropy table
consistent with the targets whenever they are mutually consistent, which
is exactly the "least additional assumptions" reconstruction we want.

The implementation is dimension-generic and fully vectorized: each
adjustment is one reduce + one broadcast multiply over the N-D array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["IPFResult", "ipf_fit"]


@dataclass(frozen=True)
class IPFResult:
    """Outcome of an IPF run.

    Attributes
    ----------
    table:
        The fitted joint table (fractional cell counts).
    iterations:
        Sweeps performed (one sweep adjusts every margin once).
    max_error:
        Largest absolute relative deviation of a fitted margin from its
        target at termination.
    converged:
        Whether ``max_error <= tol`` within the iteration budget.
    """

    table: np.ndarray
    iterations: int
    max_error: float
    converged: bool


def ipf_fit(
    seed: np.ndarray,
    margins: Sequence[tuple[tuple[int, ...], np.ndarray]],
    tol: float = 1e-8,
    max_iter: int = 500,
) -> IPFResult:
    """Fit a joint table to the given margins by raking.

    Parameters
    ----------
    seed:
        Nonnegative N-D start table.  Zero cells stay zero (structural
        zeros), which is how impossible combinations are expressed.
    margins:
        Sequence of ``(dims, target)`` pairs: ``dims`` are the axes the
        margin lives on (in target's axis order) and ``target`` the
        desired sums.  All targets must share the same grand total
        (checked to 1e-6 relative).
    tol:
        Convergence threshold on the max relative margin error.
    max_iter:
        Maximum sweeps.

    Returns
    -------
    IPFResult
    """
    table = np.array(seed, dtype=np.float64)
    if np.any(table < 0):
        raise ValueError("seed table must be nonnegative")
    if not margins:
        raise ValueError("at least one margin is required")
    totals = []
    specs: list[tuple[tuple[int, ...], np.ndarray]] = []
    for dims, target in margins:
        dims = tuple(int(d) for d in dims)
        t = np.asarray(target, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("margin targets must be nonnegative")
        expected_shape = tuple(table.shape[d] for d in dims)
        if t.shape != expected_shape:
            raise ValueError(
                f"margin on dims {dims} has shape {t.shape}, expected {expected_shape}"
            )
        totals.append(t.sum())
        specs.append((dims, t))
    grand = totals[0]
    for t in totals[1:]:
        if grand > 0 and abs(t - grand) > 1e-6 * max(grand, 1.0):
            raise ValueError(
                f"margins disagree on grand total: {grand} vs {t} "
                "(rescale targets before fitting)"
            )
    if table.sum() == 0:
        raise ValueError("seed table sums to zero")

    # Per margin, what no sweep changes, computed once per fit: the axes
    # summed away, the axis order of the reduced margin (table.sum drops
    # axes), the permutation and broadcast shape of its factor, and the
    # error denominator.
    plans = []
    for dims, target in specs:
        other = tuple(ax for ax in range(table.ndim) if ax not in dims)
        order = np.argsort(np.argsort(dims))
        perm = None if list(dims) == sorted(dims) else np.argsort(dims)
        shape = [table.shape[ax] if ax in dims else 1 for ax in range(table.ndim)]
        plans.append((other, order, perm, shape, target, np.maximum(target, 1e-12)))

    def margin(other, order) -> np.ndarray:
        m = table.sum(axis=other)
        return np.transpose(m, axes=order) if m.ndim > 1 else m

    def max_rel_error() -> float:
        err = 0.0
        for other, order, _, _, target, denom in plans:
            cur = margin(other, order)
            err = max(err, float(np.max(np.abs(cur - target) / denom)))
        return err

    it = 0
    err = max_rel_error()
    while err > tol and it < max_iter:
        with np.errstate(divide="ignore", invalid="ignore"):
            for other, order, perm, shape, target, _ in plans:
                cur = margin(other, order)
                factor = np.where(cur > 0, target / np.maximum(cur, 1e-300), 0.0)
                # factor axes are in dims order; move them into position
                # and broadcast back over the full table
                if perm is not None:
                    factor = np.transpose(factor, axes=perm)
                table *= factor.reshape(shape)
        it += 1
        err = max_rel_error()
    return IPFResult(table=table, iterations=it, max_error=err, converged=err <= tol)
