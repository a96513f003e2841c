"""Dominant-eigenvalue computation on move tables.

The general solver is a power iteration on the diagonally shifted matrix
``M + I``.  The shift makes every irreducible non-negative matrix primitive,
so the iteration cannot oscillate on periodic structures such as cycle
automata; the reported value is ``rho(M) = rho(M + I) - 1``.  A DFA's
``automata.Moves`` table is the matrix: ``perron_frobenius`` adds the short
circuit's loop-backs to its moves as it counts them.

It serves infinite languages only: ``length_profile_eigenvalue`` takes the
eigenvalue of a finite one from the number of words of each length, with no
matrix, by a bisection that sums only inside a window around the root, which
an a-priori bound on the sum's rounding error certifies (assuming a libm
``pow`` within 1 ulp and Python's ``sum``).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .automata import Dfa, Moves

#: Relative Rayleigh-quotient change below which a solve counts as converged.
DEFAULT_TOLERANCE = 1e-9

#: Iteration cap; non-convergence is flagged, never raised.
DEFAULT_MAX_ITERATIONS = 300_000

#: Cap on the Newton steps that place a length-profile solve's window; they
#: take 3-6 where the lengths are of similar size.
_NEWTON_STEPS = 30


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
    """Raise ``ValueError`` unless the cap is an integer above 0 and ``tol`` a finite real above 0.

    Otherwise a solve would fail inside ``range``, stop at its first step or run to the cap,
    and ``math.isfinite`` would raise ``TypeError`` on a string, ``None`` or a complex ``tol``.
    A bool is neither, as in ``EventLog``: ``True`` would cap a solve at one step or set
    ``tol`` to 1.
    """
    if isinstance(max_iter, bool) or not hasattr(type(max_iter), "__index__"):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if operator.index(max_iter) < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    try:
        ok = math.isfinite(tol) and tol > 0
    except TypeError:
        ok = False
    if isinstance(tol, (bool, np.bool_)) or not ok:
        raise ValueError(f"tol must be a finite number above 0, got {tol!r}")


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
        estimate = float(x.dot(y))
        residual = abs(estimate - rayleigh) / estimate
        # The Rayleigh quotient can plateau transiently on non-symmetric
        # matrices, so convergence also demands a small eigen-residual,
        # needed only once the quotient has settled or at the cap.
        if residual <= tol or iteration == max_iter:
            off = y - estimate * x
            residual = max(residual, math.sqrt(off.dot(off)) / estimate)
        rayleigh = estimate
        x = y / math.sqrt(y.dot(y))
        if residual <= tol:
            return EigenResult(rayleigh - 1.0, iteration, True, residual)
    return EigenResult(rayleigh - 1.0, max_iter, False, residual)


def _terms(terms: list[tuple[int, float]], z: float) -> list[float]:
    """The terms ``c_k z^(k+1)`` at ``z`` in length order; every pass over a profile is one call."""
    return [c * z**e for e, c in terms]


def _error_bound(terms: list[tuple[int, float]]) -> tuple[float, float]:
    """``(rho, eta)`` such that ``|sum(_terms(terms, z)) - T(z)| <= rho T(z) + eta``.

    ``T(z)`` is the exact sum of ``float(c) z^e``, for every float ``z`` in
    [0, 1] whose sum does not overflow.  A term is one ``pow`` within 1 ulp
    (relative error ``2u``, ``u = 2^-53``, or ``2^-1074`` absolute once it
    underflows) times one rounded multiply (``u``, or ``2^-1075``).  ``sum``
    adds ``n`` positive terms with a relative error of at most ``(n - 1) u``
    plainly summed (Python 3.11 and earlier) and ``2u + O(n u^2)`` compensated
    (3.12 and later); Higham, "Accuracy and Stability of Numerical
    Algorithms", chapter 4.  Both bounds are at least doubled, so the
    rounding of this function's own arithmetic is covered too.
    """
    n = len(terms)
    largest = max(float(c) for _, c in terms)
    return 2 * (n + 4) * 2.0**-53, n * (math.ldexp(largest, -1072) + 2.0**-1073)


def _window(terms: list[tuple[int, float]]) -> tuple[float, float]:
    """Floats ``below < above``: each float ``z <= below`` sums below 1, each ``z >= above`` not.

    ``G(y) = log sum_k c_k e^((k+1) y)`` is convex and increasing in ``y =
    log z``, so Newton steps on it from ``z = min_k c_k^(-1/(k+1))``, where
    no term passes 1 and no sum overflows, fall onto the root from the right.  One rounded sum on
    each side of the estimate then certifies that side for every float
    beyond it, as ``_error_bound``'s exact ``T`` increases: a sum of at most
    ``1 - slack`` leaves ``T`` too small to round to 1, and one of at least
    ``1 + slack`` too large to round below 1.  A side not so certified falls
    back to 0 or 1, where the bisection sums every midpoint.
    """
    exponents = [e for e, _ in terms]
    z = min(1.0, 2.0 ** -max(math.log2(c) / e for e, c in terms if c))
    for _ in range(_NEWTON_STEPS):
        values = _terms(terms, z)
        total = sum(values)
        slope = sum(map(operator.mul, exponents, values)) / total  # G'(y)
        step = math.log(total) / slope
        z *= math.exp(-step)
        if abs(step) <= 2.0**-40:
            break
    rho, eta = _error_bound(terms)
    slack = 3 * (rho + eta)
    # Far enough from the estimate for G to move by 4 slacks, and 4 ulps.
    half = 4 * slack / slope + 2.0**-51
    below, above = z * (1 - half), min(1.0, z * (1 + half))
    if not sum(_terms(terms, below)) <= 1 - slack:
        below = 0.0
    if not sum(_terms(terms, above)) >= 1 + slack:
        above = 1.0
    return below, above


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

    Only midpoints inside the window that ``_window`` certifies are summed;
    one outside it takes the side the certificate gives, which is the side
    its sum would give, so every field is what summing at every midpoint
    gives.  The certificate assumes a libm ``pow`` within 1 ulp and Python's
    ``sum`` (``_error_bound``).

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
    below, above = _window(terms)
    lo, hi = 0.0, 1.0
    steps = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        steps += 1
        if mid <= below or (mid < above and sum(_terms(terms, mid)) < 1.0):
            lo = mid
        else:
            hi = mid
    # The rounded sum is at least 1 at hi and below 1 at lo; z* is
    # near [lo, hi] but, by a rounding error, may lie just outside it.
    return EigenResult(2.0**log_r / hi, steps, True, hi / lo - 1.0)
