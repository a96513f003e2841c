"""Language measures, quotients, and the precision/recall/coverage pipeline.

Two automata (``coverage``, ``precision_and_recall``, ``quotient``) are
compared through each operand's ``Nfa.minimal``, its minimal DFA, which is
built on first use and kept with the operand: measuring a pair both ways
minimizes each operand once.  Their intersection is measured
short-circuited.  One ``automata.product_moves`` walk per pair, on int
arrays, gives the trim product, never built as a ``Dfa``, whose eigenvalue
is that of its minimal quotient, and tells whether one operand's language
lies inside the other's; if so, that operand's language is the shared one
and its own solve serves.  The chi moves are added only after intersecting,
so the loop-back marker is never part of the compared languages.

``measure`` measures every automaton's language from its ``Moves``, the
walked product's or a minimal operand's own, and the table picks the
solver.  A finite language is measured by its length profile, the number of
distinct words of each length: its cardinality is their sum and its
eigenvalue comes from ``spectral.length_profile_eigenvalue``, so equal finite
languages get equal numbers by any route; power iteration serves the rest.

A specification and an event log (``precision``, ``recall``) are compared
without an automaton of the log.  The shared language is the set of
distinct traces that a specification DFA accepts on replay; a label outside
the specification alphabet fails to move, just as ``intersect`` keeps only
the common alphabet.  Acceptance is a property of the language, so only the
specification's own measure, in ``precision``, needs its minimal DFA.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .automata import (
    Dfa,
    InfiniteLanguageError,
    Moves,
    Nfa,
    _refuse_short_circuited,
    accepts,
    as_dfa,
    minimize,
    product_moves,
)
from .logs import EventLog
from .spectral import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    EigenResult,
    SparseMatrix,
    length_profile_eigenvalue,
    perron_frobenius,
)


class MeasureKind(Enum):
    """Which language measure instantiates the quotient.

    Each value is the measure's one token: the CLI's ``--measure`` choice,
    read back with ``MeasureKind(token)``, and the ``kind`` field of a report.
    """

    CARDINALITY = "card"
    SHORT_CIRCUIT_EIGENVALUE = "eig"


@dataclass(frozen=True)
class AutomatonStats:
    """Size of one measured automaton plus its eigen solve, if any."""

    states: int
    transitions: int
    eigen: EigenResult | None = None


@dataclass(frozen=True)
class MeasureReport:
    """A computed quotient with its raw measures and solver diagnostics."""

    kind: MeasureKind
    numerator_value: float
    denominator_value: float
    value: float
    undefined: bool = False
    division_by_zero: bool = False
    converged: bool = True
    iterations: int = 0
    numerator: AutomatonStats | None = None
    denominator: AutomatonStats | None = None
    runtime_ms: float = 0.0


def measure(
    moves: Moves, kind: MeasureKind, tol: float, max_iter: int
) -> tuple[int | float, AutomatonStats]:
    """Measure of the language of a trim move table, with its size and solve.

    The table is a walked product or a minimal DFA's own ``Dfa.arrays``,
    which are the moves ``product_moves(d, d)`` would walk.  A finite
    language is measured by its length profile, and its cardinality is an
    exact ``int``.  Otherwise the cardinality raises
    ``InfiniteLanguageError`` and the eigenvalue is solved by power
    iteration with a chi move from each accept state to the start.
    """
    try:
        value, chain = _profile_measure(moves.length_profile(), kind)
        result = chain.eigen
    except InfiniteLanguageError:
        if kind is MeasureKind.CARDINALITY:
            raise
        loops = np.full(moves.accepting.size, moves.start, dtype=moves.targets.dtype)
        sources = np.concatenate((moves.sources, moves.accepting))
        targets = np.concatenate((moves.targets, loops))
        matrix = SparseMatrix.from_moves(moves.order, sources, targets)
        result = perron_frobenius(matrix, tol, max_iter)
        value = result.value
    chi = moves.accepting.size if kind is MeasureKind.SHORT_CIRCUIT_EIGENVALUE else 0
    return value, AutomatonStats(moves.order, moves.sources.size + chi, result)


def eig_short_circuit_measure(
    d: Dfa, tol: float = DEFAULT_TOLERANCE, max_iter: int = DEFAULT_MAX_ITERATIONS
) -> float:
    """Dominant eigenvalue of the short-circuited minimal automaton of ``L(d)``."""
    _refuse_short_circuited(d)
    value, _ = measure(minimize(d).arrays, MeasureKind.SHORT_CIRCUIT_EIGENVALUE, tol, max_iter)
    return value


def _shared_profile(spec: Dfa, log: EventLog) -> Counter[int]:
    """Distinct traces per length that ``spec`` accepts."""
    return Counter(len(trace) for trace, _ in log if accepts(spec, trace))


def _profile_measure(
    profile: Mapping[int, int], kind: MeasureKind
) -> tuple[int | float, AutomatonStats]:
    """Measure of a finite language given by its length profile.

    The stats describe the graph whose eigenvalue that is: the chain
    ``0 -> 1 -> ... -> K`` up to the longest length ``K``, plus one loop-back
    to the start per distinct length.
    """
    longest = max(profile, default=0)
    states, transitions = longest + 1, longest + len(profile)
    if kind is MeasureKind.CARDINALITY:
        return sum(profile.values()), AutomatonStats(states, transitions)
    result = length_profile_eigenvalue(profile)
    return result.value, AutomatonStats(states, transitions, result)


def _elapsed_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def _as_float(x: int | float) -> float:
    """``x`` as a float; an integer beyond float range is ``math.inf``."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _assemble(
    kind: MeasureKind,
    numerator: tuple[int | float, AutomatonStats],
    denominator: tuple[int | float, AutomatonStats],
    runtime_ms: float,
) -> MeasureReport:
    """The quotient report; exact cardinalities are divided as integers, correctly rounded."""
    num_value, num_stats = numerator
    den_value, den_stats = denominator
    undefined = division_by_zero = False
    if den_value > 0:
        try:
            value = num_value / den_value
        except OverflowError:
            value = math.inf
    elif num_value == 0:
        value, undefined = 0.0, True
    else:
        value, division_by_zero = math.inf, True
    # A language measured once on both sides is one solve.
    stats = (num_stats,) if num_stats is den_stats else (num_stats, den_stats)
    solves = [s.eigen for s in stats if s.eigen is not None]
    return MeasureReport(
        kind=kind,
        numerator_value=_as_float(num_value),
        denominator_value=_as_float(den_value),
        value=value,
        undefined=undefined,
        division_by_zero=division_by_zero,
        converged=all(s.converged for s in solves),
        iterations=sum(s.iterations for s in solves),
        numerator=num_stats,
        denominator=den_stats,
        runtime_ms=runtime_ms,
    )


def quotient(
    kind: MeasureKind,
    numerator: Dfa,
    denominator: Dfa,
    tol: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITERATIONS,
) -> MeasureReport:
    """Measure of the first language over the measure of the second."""
    _refuse_short_circuited(numerator, denominator)
    started = time.perf_counter()
    num = measure(numerator.minimal.arrays, kind, tol, max_iter)
    den = measure(denominator.minimal.arrays, kind, tol, max_iter)
    return _assemble(kind, num, den, _elapsed_ms(started))


def _pair_reports(
    ret: Nfa, rel: Nfa, tol: float, max_iter: int, want_recall: bool
) -> tuple[MeasureReport, MeasureReport | None]:
    """Eigenvalue precision of ``ret`` against ``rel`` and, if wanted, recall.

    Minimal operands are trim, so their one product walk decides inclusion.
    Without one, the walked product is measured by ``measure`` like an
    operand, so a finite product is solved exactly by its length profile
    even where both operands are infinite, as for ``a*b & ab*``.
    """
    _refuse_short_circuited(ret, rel)
    kind = MeasureKind.SHORT_CIRCUIT_EIGENVALUE
    started = time.perf_counter()
    m_ret, m_rel = ret.minimal, rel.minimal
    den_ret = measure(m_ret.arrays, kind, tol, max_iter)
    den_rel = measure(m_rel.arrays, kind, tol, max_iter) if want_recall else None
    product, ret_in_rel, rel_in_ret = product_moves(m_ret, m_rel)
    if ret_in_rel:
        shared = den_ret
    elif den_rel is not None and rel_in_ret:
        shared = den_rel
    else:
        shared = measure(product, kind, tol, max_iter)
    precision_report = _assemble(kind, shared, den_ret, _elapsed_ms(started))
    recall_report = None
    if den_rel is not None:
        recall_report = _assemble(kind, shared, den_rel, _elapsed_ms(started))
    return precision_report, recall_report


def precision(
    spec: Nfa,
    log: EventLog,
    kind: MeasureKind = MeasureKind.SHORT_CIRCUIT_EIGENVALUE,
    tol: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITERATIONS,
) -> MeasureReport:
    """Measure of the shared behaviour over the specified behaviour.

    The shared behaviour, the distinct log traces that ``spec`` accepts, is
    measured by its length profile, and so is a finite specification: a log
    over its own prefix tree gives exactly 1.0.  ``tol`` and ``max_iter``
    govern only an infinite specification's power iteration.  The numerator
    stats describe the graph of the length profile: ``states`` is the
    longest accepted length plus one, and ``transitions`` is that length
    plus the number of distinct accepted lengths.

    An empty specification language yields an undefined-flagged report; the
    cardinality kind additionally rejects infinite specification languages.
    """
    _refuse_short_circuited(spec)
    started = time.perf_counter()
    m_spec = spec.minimal
    numerator = _profile_measure(_shared_profile(m_spec, log), kind)
    denominator = measure(m_spec.arrays, kind, tol, max_iter)
    return _assemble(kind, numerator, denominator, _elapsed_ms(started))


def recall(
    spec: Nfa,
    log: EventLog,
    kind: MeasureKind = MeasureKind.SHORT_CIRCUIT_EIGENVALUE,
) -> MeasureReport:
    """Measure of the shared behaviour over the recorded behaviour.

    Both languages are finite, so both are measured by their length
    profiles, as in ``precision``: the distinct traces that ``spec`` accepts
    over all distinct traces.  The traces are replayed on ``as_dfa(spec)``,
    not minimized: acceptance depends on the language alone.  There is no
    power iteration to bound, and each side's stats describe the graph of
    its length profile.  An empty log yields an undefined-flagged report.
    """
    _refuse_short_circuited(spec)
    started = time.perf_counter()
    numerator = _profile_measure(_shared_profile(as_dfa(spec), log), kind)
    denominator = _profile_measure(Counter(len(trace) for trace, _ in log), kind)
    return _assemble(kind, numerator, denominator, _elapsed_ms(started))


def precision_and_recall(
    ret: Nfa,
    rel: Nfa,
    tol: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITERATIONS,
) -> tuple[MeasureReport, MeasureReport]:
    """Eigenvalue precision and recall of ``ret`` against ``rel``.

    The shared language is measured once for both quotients.  If one
    operand's language contains the other's, the contained operand's own
    measure is the shared one, and the quotient over it is exactly 1.0 from
    that one solve.  Otherwise the numerator stats describe the trim product
    of the two minimal automata, short-circuited, which is walked and solved
    but never built as a ``Dfa`` or minimized.
    """
    pr, rc = _pair_reports(ret, rel, tol, max_iter, want_recall=True)
    assert rc is not None
    return pr, rc


def coverage(
    x: Nfa,
    y: Nfa,
    tol: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITERATIONS,
) -> MeasureReport:
    """Share of the first system's behaviour that the second one covers.

    Equals 1.0 exactly when ``L(x)`` is contained in ``L(y)``: then the
    shared language is ``L(x)`` and one solve serves both sides, so the
    numerator stats are those of ``x``.  Otherwise the numerator stats
    describe the trim product of the two minimal automata, short-circuited,
    which is walked and solved but never built as a ``Dfa`` or minimized.
    An empty ``L(x)`` is reported as undefined.
    """
    report, _ = _pair_reports(x, y, tol, max_iter, want_recall=False)
    return report
