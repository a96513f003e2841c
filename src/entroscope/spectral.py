"""Sparse adjacency matrices and dominant-eigenvalue computation.

The general solver is a power iteration on the diagonally shifted matrix
``M + I``.  The shift makes every irreducible non-negative matrix primitive,
so the iteration cannot oscillate on periodic structures such as cycle
automata; the reported value is ``rho(M) = rho(M + I) - 1``.  It serves
infinite languages only: ``length_profile_eigenvalue`` takes the eigenvalue
of a finite one from the number of words of each length, with no matrix.
A ``SparseMatrix`` is only ever counted from moves: ``from_moves`` counts the
move arrays of ``automata.Moves`` into numpy arrays, and the solver iterates
on them as they are.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .automata import Dfa

#: Relative Rayleigh-quotient change below which a solve counts as converged.
DEFAULT_TOLERANCE = 1e-9

#: Iteration cap; non-convergence is flagged, never raised.
DEFAULT_MAX_ITERATIONS = 300_000


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Square non-negative integer matrix in coordinate form, counted from moves.

    The int64 arrays ``rows``, ``cols`` and ``weights`` list the nonzero
    entries in ``(row, col)`` order: absent coordinates are zero, stored
    weights are at least one and each ``(row, col)`` pair appears at most
    once.  ``from_moves`` is the constructor that makes them so.  Two
    matrices compare by identity; compare their ``entries``.
    """

    order: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_moves(cls, order: int, sources: np.ndarray, targets: np.ndarray) -> SparseMatrix:
        """Count of moves from state ``i`` to state ``j``, given as parallel arrays.

        The codes ``i * order + j``, sorted, are counted in runs, so the
        entries come out in order, each once, with a weight of at least one.
        """
        codes = np.multiply(sources, order, dtype=np.int64)
        codes += targets
        codes = codes[np.argsort(codes, kind="stable")]
        steps = np.empty(codes.size, dtype=np.int64)  # nonzero where a run of equal codes ends
        steps[:-1] = codes[1:] - codes[:-1]
        steps[-1:] = 1
        ends = steps.nonzero()[0]
        weights = ends + 1
        weights[1:] = ends[1:] - ends[:-1]
        rows, cols = np.divmod(codes[ends], order)
        return cls(order, rows, cols, weights)

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """The ``(row, col, weight)`` triples in ``(row, col)`` order."""
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))


@dataclass(frozen=True)
class EigenResult:
    """Dominant-eigenvalue estimate plus solver diagnostics."""

    value: float
    iterations: int
    converged: bool
    residual: float


def adjacency_matrix(d: Dfa) -> SparseMatrix:
    """Count of labels moving state ``i`` to state ``j``, as a sparse matrix."""
    m = d.arrays
    return SparseMatrix.from_moves(m.order, m.sources, m.targets)


def perron_frobenius(
    m: SparseMatrix,
    tol: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITERATIONS,
) -> EigenResult:
    """Spectral radius of a non-negative matrix by shifted power iteration.

    Starts from the all-ones vector, so runs are deterministic.  On hitting
    the iteration cap the best estimate is returned with ``converged=False``
    rather than raising.  A cap below 1 is a ``ValueError``, and so is a
    ``tol`` that is not a finite number above 0, on which a solve would stop
    at its first step or run to the cap.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number above 0, got {tol}")
    if not m.rows.size:
        return EigenResult(0.0, 0, True, 0.0)
    rows, cols, weights = m.rows, m.cols, m.weights.astype(np.float64)

    x = np.full(m.order, 1.0 / math.sqrt(m.order))
    rayleigh = math.inf
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        # y = (M + I) x; the shift keeps the iteration primitive.
        y = x + np.bincount(rows, weights=weights * x[cols], minlength=m.order)
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

    ``iterations`` counts the bisection steps and ``residual`` is the width of
    the final bracket on the value, relative to the value.  The empty
    profile, the empty language, measures 0.
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
        if sum(c * mid**e for e, c in terms) < 1.0:
            lo = mid
        else:
            hi = mid
    # The sum is at least 1 at hi and below 1 at lo, so the value
    # 1/hi is within a factor hi/lo of the radius, from below.
    return EigenResult(2.0**log_r / hi, steps, True, hi / lo - 1.0)
