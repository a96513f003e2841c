"""Dominant-eigenvalue computation on move tables.

The general solver is a power iteration on the diagonally shifted matrix
``M + I``.  The shift makes every irreducible non-negative matrix primitive,
so the iteration cannot oscillate on periodic structures such as cycle
automata; the reported value is ``rho(M) = rho(M + I) - 1``.  It serves
infinite languages only: ``length_profile_eigenvalue`` takes the eigenvalue
of a finite one from the number of words of each length, with no matrix.
A DFA's ``automata.Moves`` table is the matrix: ``perron_frobenius`` adds
the short circuit's loop-backs to its moves as it counts them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .automata import Dfa, Moves

#: Relative Rayleigh-quotient change below which a solve counts as converged.
DEFAULT_TOLERANCE = 1e-9

#: Iteration cap; non-convergence is flagged, never raised.
DEFAULT_MAX_ITERATIONS = 300_000


@dataclass(frozen=True)
class EigenResult:
    """Dominant-eigenvalue estimate plus solver diagnostics."""

    value: float
    iterations: int
    converged: bool
    residual: float


def adjacency_matrix(d: Dfa) -> Moves:
    """The moves of ``d`` with no accept state, so that ``perron_frobenius`` adds no loop-back."""
    return d.arrays._replace(accepting=d.arrays.accepting[:0])


def _check_bounds(tol: float, max_iter: int) -> None:
    """Raise ``ValueError`` on a cap below 1 or a ``tol`` that is not finite and above 0.

    On either, a solve would stop at its first step or run to the cap.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number above 0, got {tol}")


def perron_frobenius(
    m: Moves,
    tol: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITERATIONS,
) -> EigenResult:
    """Spectral radius of a short-circuited move table by shifted power iteration.

    Entry ``(i, j)`` counts the moves from ``i`` to ``j``, plus one if ``i``
    accepts and ``j`` is the start.  The codes ``i * order + j`` of the moves
    and loop-backs are sorted and counted in runs, so each row sums its
    entries in column order, whatever the labels.  Starts from the all-ones
    vector, so runs are deterministic.  At the iteration cap the best estimate
    is returned with ``converged=False``, not raised.  The bounds are checked
    by ``_check_bounds``, which ``measures.measure`` calls before any solve.
    """
    _check_bounds(tol, max_iter)
    order, moved = m.order, m.targets.size
    codes = np.multiply(np.concatenate((m.sources, m.accepting)), order, dtype=np.int64)
    codes[:moved] += m.targets
    codes[moved:] += m.start
    if not codes.size:
        return EigenResult(0.0, 0, True, 0.0)
    codes.sort()
    steps = np.empty(codes.size, dtype=np.int64)  # nonzero where a run of equal codes ends
    steps[:-1] = codes[1:] - codes[:-1]
    steps[-1] = 1
    ends = steps.nonzero()[0]
    weights = ends + 1.0
    weights[1:] = ends[1:] - ends[:-1]
    rows, cols = np.divmod(codes[ends], order)
    x = np.full(order, 1.0 / math.sqrt(order))
    rayleigh = math.inf
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        # y = (M + I) x; the shift keeps the iteration primitive.
        y = x + np.bincount(rows, weights=weights * x[cols], minlength=order)
        estimate = float(x @ y)
        residual = abs(estimate - rayleigh) / estimate
        # The Rayleigh quotient can plateau transiently on non-symmetric
        # matrices, so convergence also demands a small eigen-residual,
        # needed only once the quotient has settled or at the cap.
        if residual <= tol or iteration == max_iter:
            off = y - estimate * x
            residual = max(residual, math.sqrt(off @ off) / estimate)
        rayleigh = estimate
        x = y / math.sqrt(y @ y)
        if residual <= tol:
            return EigenResult(rayleigh - 1.0, iteration, True, residual)
    return EigenResult(rayleigh - 1.0, max_iter, False, residual)


def length_profile_eigenvalue(profile: Mapping[int, int]) -> EigenResult:
    """Short-circuit eigenvalue of a finite language, from its length profile.

    ``profile`` maps each word length ``k`` to the number ``c_k`` of distinct
    words of that length.  Short-circuiting a trim DFA of a finite language
    leaves every cycle passing through the start state, and the closed walks
    that first return there after ``k + 1`` steps are exactly the words of
    length ``k``, each followed by the loop-back.  So the spectral radius is
    ``1 / z*``, where ``z*`` is the unique root in ``(0, 1]`` of
    ``sum_k c_k z^(k+1) = 1``.  The left side increases with ``z``, so
    bisection brackets ``z*``, summing terms in length order, until the
    bracket stops shrinking in floating point, with no iteration cap.  Counts
    past float range are first rescaled: ``z = w / r`` with ``r = max_k
    c_k^(1/(k+1)) <= 1/z*`` keeps ``w*`` in ``(0, 1]`` and coefficients <= 1.

    ``iterations`` counts the bisection steps and ``residual`` is ``hi / lo -
    1`` for the final float bracket ``[lo, hi]``.  The sums that steer the
    bisection are rounded, so they can misjudge the side of ``z*`` near the
    last ulp: the bracket and ``residual`` are estimates, not a bound
    (ROADMAP item 12).  The empty profile, the empty language, measures 0.
    """
    terms = sorted((k + 1, c) for k, c in profile.items() if c)
    if any(e < 1 or c < 0 for e, c in terms):
        raise ValueError("length profile needs non-negative lengths and counts")
    if not terms:
        return EigenResult(0.0, 0, True, 0.0)
    log_r = 0.0
    if max(c for _, c in terms) > sys.float_info.max:
        log_r = max(math.log2(c) / e for e, c in terms)
        terms = [(e, 2.0 ** (math.log2(c) - e * log_r)) for e, c in terms]
    lo, hi = 0.0, 1.0
    steps = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        steps += 1
        if sum([c * mid**e for e, c in terms]) < 1.0:
            lo = mid
        else:
            hi = mid
    # The rounded sum is at least 1 at hi and below 1 at lo; z* is
    # near [lo, hi] but, by a rounding error, may lie just outside it.
    return EigenResult(2.0**log_r / hi, steps, True, hi / lo - 1.0)
