"""Language measures, quotients, and the precision/recall/coverage pipeline.

Three functions give the quotients.  A specification and an event log are
compared by ``precision`` and ``recall``; two systems by ``coverage``, where
the precision of ``x`` against ``y`` is ``coverage(x, y)`` and its recall is
``coverage(y, x)``.  ``eig_short_circuit_measure`` gives the eig measure of
one automaton's language, as the ``eigenvalue`` and ``entropy`` commands
report it.

Two automata are compared through each operand's ``Nfa.minimal``, its
minimal DFA, which is built on first use and kept with the operand:
measuring a pair both ways minimizes each operand once.  Their intersection
is measured short-circuited.  One ``automata.product_moves`` walk per pair,
on int arrays, gives the trim product, never built as a ``Dfa``, whose
eigenvalue is that of its minimal quotient, and tells whether either
operand's language lies inside the other's; if the first's does, it is the
shared language and its own solve serves.  A pair measured both ways is
walked and solved once: ``coverage(x, y)`` leaves the product with
``y.minimal`` for ``coverage(y, x)``.  The chi moves are added only after
intersecting, so the loop-back marker is never part of the compared
languages.

``measure`` measures every automaton's language from its ``Moves``, the
walked product's or a minimal operand's own, and the table picks the
solver.  A finite language is measured by its length profile, the number of
distinct words of each length: its cardinality is their sum and its
eigenvalue comes from ``spectral.length_profile_eigenvalue``, so equal finite
languages get equal numbers by any route; power iteration serves the rest.

A specification and an event log (``precision``, ``recall``) are compared
without an automaton of the log.  Their shared language, the numerator of
both, is the set of distinct traces a specification DFA accepts on replay,
where a label outside its alphabet fails to move.  Acceptance is a property
of the language, so any DFA serves: ``precision`` replays on ``spec.minimal``,
``recall`` on ``automata._trim_rows(spec)``.  A call that replays leaves the
measured numerator on the spec, and the next call with the same log object
and kind takes it off: a pair measured both ways replays once, holding no log.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

from .automata import (
    InfiniteLanguageError,
    Moves,
    Nfa,
    _DfaRows,
    _refuse_short_circuited,
    _replay,
    _trim_rows,
    minimize,  # not called here: the benchmark's tracer test checks that tracing restores it
    product_moves,
)
from .logs import EventLog
from .spectral import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    EigenResult,
    _check_bounds,
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


#: A language's measure, an exact count or an eigenvalue, with its automaton's stats.
Measured = tuple[int | float, AutomatonStats]


@dataclass(frozen=True)
class MeasureReport:
    """A computed quotient with its raw measures and solver diagnostics, built by ``_assemble``.

    ``iterations`` sums the steps of every eigen solve behind the report: the
    bisection steps of each length-profile solve and the power steps of each
    power iteration, a language measured for both sides counted once.  So
    ``precision`` of an infinite spec adds its shared side's bisection steps
    to the spec's power steps.  ``converged`` is true iff each of those same
    solves converged.  A cardinality report has no solve: 0 and true.
    """

    kind: MeasureKind
    numerator_value: float
    denominator_value: float
    value: float
    undefined: bool
    converged: bool
    iterations: int
    numerator: AutomatonStats
    denominator: AutomatonStats
    runtime_ms: float


def measure(moves: Moves, kind: MeasureKind, tol: float, max_iter: int) -> Measured:
    """Measure of the language of a trim move table, with its size and solve.

    The table is a walked product or a minimal DFA's own ``Dfa.arrays``,
    which are the moves ``product_moves(d, d)`` would walk.  The solver
    bounds are checked first, by ``spectral._check_bounds``, so every entry
    point refuses bad ones, even for a finite language.  A finite language
    is measured by its length profile, and its cardinality is an exact
    ``int``.  Otherwise the cardinality raises ``InfiniteLanguageError`` and
    the table goes to ``perron_frobenius`` as it is: the solver adds the chi
    move from each accept state to the start as it counts the matrix.
    """
    _check_bounds(tol, max_iter)
    try:
        value, chain = _profile_measure(moves.length_profile(), kind)
        result = chain.eigen
    except InfiniteLanguageError:
        if kind is MeasureKind.CARDINALITY:
            raise
        result = perron_frobenius(moves, tol, max_iter)
        value = result.value
    chi = moves.accepting.size if kind is MeasureKind.SHORT_CIRCUIT_EIGENVALUE else 0
    return value, AutomatonStats(moves.order, moves.sources.size + chi, result)


def eig_short_circuit_measure(
    a: Nfa, tol: float = DEFAULT_TOLERANCE, max_iter: int = DEFAULT_MAX_ITERATIONS
) -> EigenResult:
    """Dominant eigenvalue of the short-circuited minimal automaton of ``L(a)``, with its solve."""
    _refuse_short_circuited(a)
    _, stats = measure(a.minimal.arrays, MeasureKind.SHORT_CIRCUIT_EIGENVALUE, tol, max_iter)
    return stats.eigen


def _shared_profile(table: _DfaRows, log: EventLog) -> Counter[int]:
    """Distinct traces per length that the DFA ``table`` accepts."""
    return Counter(len(trace) for trace, _ in log if _replay(table, trace))


def _shared(spec: Nfa, log: EventLog, kind: MeasureKind, dfa: Callable[[], _DfaRows]) -> Measured:
    """Measure of the ``log`` traces that ``dfa()`` accepts, held on ``spec`` till its next call."""
    held, held_kind, shared = vars(spec).pop("_shared", (None,) * 3)
    if held is not log or held_kind is not kind:
        shared = _profile_measure(_shared_profile(dfa(), log), kind)
        vars(spec)["_shared"] = (log, kind, shared)
    return shared


def _profile_measure(profile: Mapping[int, int], kind: MeasureKind) -> Measured:
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


def _as_float(x: int | float) -> float:
    """``x`` as a float; an integer that ``float`` would round past float range is ``math.inf``."""
    return math.inf if x >= 2**1024 - 2**970 else float(x)


def _assemble(
    kind: MeasureKind, numerator: Measured, denominator: Measured, started: float
) -> MeasureReport:
    """The quotient report, timed from ``started``; cardinalities are divided as integers.

    The numerator's language lies inside the denominator's, and each measure
    is monotone and 0 on the empty language.  So 0/0, reported as undefined
    with value 0, is the only degenerate quotient; any other is at most 1, up
    to the eigen solve's tolerance.
    """
    num_value, num_stats = numerator
    den_value, den_stats = denominator
    undefined = den_value == 0
    value = 0.0 if undefined else num_value / den_value
    # A language measured once on both sides is one solve.
    stats = (num_stats,) if num_stats is den_stats else (num_stats, den_stats)
    solves = [s.eigen for s in stats if s.eigen is not None]
    return MeasureReport(
        kind=kind,
        numerator_value=_as_float(num_value),
        denominator_value=_as_float(den_value),
        value=value,
        undefined=undefined,
        converged=all(s.converged for s in solves),
        iterations=sum(s.iterations for s in solves),
        numerator=num_stats,
        denominator=den_stats,
        runtime_ms=(time.perf_counter() - started) * 1000.0,
    )


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
    over its own prefix tree gives exactly 1.0.  The traces are replayed on
    ``spec.minimal`` unless ``spec`` holds their measure for this ``log``
    object and ``kind``, which it then drops: a lone ``precision`` keeps
    ``log`` alive until the next call on ``spec`` (ROADMAP item 11), and a
    ``recall`` with the same log releases it.  ``tol`` and ``max_iter``
    govern only an infinite specification's power iteration.  The numerator
    stats describe the length profile's graph: ``states`` is the longest
    accepted length plus one, and ``transitions`` that length plus the
    number of distinct lengths.

    An empty specification language yields an undefined-flagged report; the
    cardinality kind additionally rejects infinite specification languages.
    """
    _refuse_short_circuited(spec)
    started = time.perf_counter()
    m = spec.minimal
    numerator = _shared(spec, log, kind, lambda: (m.rows, m.accepts, m.start))
    denominator = measure(m.arrays, kind, tol, max_iter)
    return _assemble(kind, numerator, denominator, started)


def recall(
    spec: Nfa,
    log: EventLog,
    kind: MeasureKind = MeasureKind.SHORT_CIRCUIT_EIGENVALUE,
) -> MeasureReport:
    """Measure of the shared behaviour over the recorded behaviour.

    Both languages are finite, so both are measured by their length
    profiles, as in ``precision``: the distinct traces that ``spec`` accepts
    over all distinct traces.  The traces are replayed on the rows of
    ``automata._trim_rows(spec)``, with no ``Dfa`` built, unless ``spec``
    holds their measure for this ``log`` object and ``kind``, which it then
    drops, as ``precision`` does: a lone ``recall`` keeps ``log`` alive until
    the next call on ``spec``.  There is no power iteration to bound, and each
    side's stats describe its length profile's graph.  An empty log yields an
    undefined-flagged report.
    """
    _refuse_short_circuited(spec)
    started = time.perf_counter()
    numerator = _shared(spec, log, kind, lambda: _trim_rows(spec))
    denominator = _profile_measure(Counter(len(trace) for trace, _ in log), kind)
    return _assemble(kind, numerator, denominator, started)


def coverage(
    x: Nfa,
    y: Nfa,
    tol: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITERATIONS,
) -> MeasureReport:
    """Share of the first system's behaviour that the second one covers.

    The eigenvalue precision of ``x`` against ``y`` is ``coverage(x, y)``,
    and its recall is ``coverage(y, x)``.  Equals 1.0 exactly when ``L(x)``
    is contained in ``L(y)``: then the shared language is ``L(x)`` and one
    solve serves both sides, so the numerator stats are those of ``x``.
    Minimal operands are trim, so their one product walk decides that
    inclusion both ways.  Otherwise the numerator stats describe the trim
    product of the two minimal automata, short-circuited, which is walked
    and solved but never built as a ``Dfa`` or minimized; it is measured
    like an operand, so a finite product is solved exactly by its length
    profile even where both operands are infinite, as for ``a*b & ab*``.  An
    empty ``L(x)`` is reported as undefined.

    A pair measured both ways is walked and solved once: the walked product,
    its measure if solved and the flag ``L(y) <= L(x)`` are left on
    ``y.minimal`` and taken off by the next ``coverage`` whose first operand
    is ``y``.  They serve only ``coverage(y, x)`` with the same
    ``x.minimal``, ``tol`` and ``max_iter``, which gives the report that a
    walk would.
    """
    _refuse_short_circuited(x, y)
    kind = MeasureKind.SHORT_CIRCUIT_EIGENVALUE
    started = time.perf_counter()
    m_x, m_y = x.minimal, y.minimal
    own = measure(m_x.arrays, kind, tol, max_iter)
    partner, bounds, moves, product, x_in_y = vars(m_x).pop("_reverse", (None,) * 5)
    if partner is not m_y or bounds != (tol, max_iter):
        moves, x_in_y, y_in_x = product_moves(m_x, m_y)
        product = None if x_in_y else measure(moves, kind, tol, max_iter)
        vars(m_y)["_reverse"] = (m_x, (tol, max_iter), moves, product, y_in_x)
    shared = own if x_in_y else product or measure(moves, kind, tol, max_iter)
    return _assemble(kind, shared, own, started)
