"""Reference values for the benchmark, computed without ``entroscope``.

The eig measure of a language is the spectral radius of the adjacency
matrix of a trim DFA for it, short-circuited: every accept state gets one
extra edge back to the start.  That radius is the same for every trim DFA
of the language, so the oracle never minimises.  Two methods:

* A finite language with ``c[k]`` words of length ``k`` has radius
  ``1 / z`` where ``z`` is the root in ``(0, 1]`` of
  ``sum_k c[k] * z**(k + 1) == 1``.  Every cycle of the short-circuited
  DFA passes through the start state, and first returns after ``k + 1``
  steps match the words of length ``k``.  The left side grows with ``z``,
  so bisection finds the root.
* Any other language: its own subset construction (and product, for an
  intersection), trimmed, then a shifted power iteration that stops on the
  Collatz-Wielandt bracket ``min (Bx)_i / x_i <= rho(B) <= max (Bx)_i / x_i``,
  which holds for every positive ``x`` and so bounds the error rigorously.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from workloads import Automaton, LogCase, PairCase, model_pair_case

#: Relative width at which a Collatz-Wielandt bracket counts as tight.
BRACKET_WIDTH = 1e-11

#: A bracket still wider than ``BRACKET_WIDTH`` after this many steps is an
#: oracle failure, raised rather than guessed.
BRACKET_MAX_STEPS = 200_000


@dataclass(frozen=True)
class Dfa:
    """Plain DFA: states ``0..states-1``, start 0, ``delta[(p, label)] = q``."""

    states: int
    accepts: frozenset[int]
    delta: dict[tuple[int, str], int]


def _search(start: Iterable[int], edges: dict[int, list[int]]) -> set[int]:
    seen = set(start)
    queue = deque(seen)
    while queue:
        for q in edges.get(queue.popleft(), ()):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def _moves(a: Automaton) -> tuple[dict[tuple[int, str], list[int]], dict[int, list[int]]]:
    """Labelled moves by (state, label), and silent moves by state."""
    labelled: dict[tuple[int, str], list[int]] = {}
    silent: dict[int, list[int]] = {}
    for p, lab, q in a.transitions:
        if lab is None:
            silent.setdefault(p, []).append(q)
        else:
            labelled.setdefault((p, lab), []).append(q)
    return labelled, silent


def replay(a: Automaton, word: Sequence[str]) -> bool:
    """NFA acceptance by subset replay over the raw transition triples."""
    labelled, silent = _moves(a)
    current = _search([a.start], silent)
    for sym in word:
        current = _search([q for p in current for q in labelled.get((p, sym), ())], silent)
        if not current:
            return False
    return bool(current & set(a.accepts))


def subset_dfa(a: Automaton) -> Dfa:
    """Reachable part of the powerset construction, silent moves closed."""
    labelled, silent = _moves(a)
    start = frozenset(_search([a.start], silent))
    index = {start: 0}
    queue = deque([start])
    delta: dict[tuple[int, str], int] = {}
    accepts = set()
    while queue:
        subset = queue.popleft()
        here = index[subset]
        if subset & set(a.accepts):
            accepts.add(here)
        for sym in a.alphabet:
            targets = [q for p in subset for q in labelled.get((p, sym), ())]
            if not targets:
                continue
            closed = frozenset(_search(targets, silent))
            if closed not in index:
                index[closed] = len(index)
                queue.append(closed)
            delta[(here, sym)] = index[closed]
    return Dfa(len(index), frozenset(accepts), delta)


def product(x: Dfa, y: Dfa) -> Dfa:
    """Reachable product DFA of ``L(x) & L(y)`` (not trimmed)."""
    labels = sorted({lab for _, lab in x.delta} & {lab for _, lab in y.delta})
    index = {(0, 0): 0}
    queue = deque([(0, 0)])
    delta: dict[tuple[int, str], int] = {}
    accepts = set()
    while queue:
        pair = queue.popleft()
        here = index[pair]
        px, py = pair
        if px in x.accepts and py in y.accepts:
            accepts.add(here)
        for lab in labels:
            qx, qy = x.delta.get((px, lab)), y.delta.get((py, lab))
            if qx is None or qy is None:
                continue
            if (qx, qy) not in index:
                index[(qx, qy)] = len(index)
                queue.append((qx, qy))
            delta[(here, lab)] = index[(qx, qy)]
    return Dfa(len(index), frozenset(accepts), delta)


def trim(d: Dfa) -> Dfa | None:
    """The useful states, renumbered with the start kept at 0; None for the
    empty language."""
    forward: dict[int, list[int]] = {}
    back: dict[int, list[int]] = {}
    for (p, _), q in d.delta.items():
        forward.setdefault(p, []).append(q)
        back.setdefault(q, []).append(p)
    live = _search([0], forward) & _search(d.accepts, back)
    if 0 not in live:
        return None
    order = sorted(live)
    renumber = {old: new for new, old in enumerate(order)}
    delta = {
        (renumber[p], lab): renumber[q]
        for (p, lab), q in d.delta.items()
        if p in live and q in live
    }
    return Dfa(len(order), frozenset(renumber[q] for q in d.accepts if q in live), delta)


def bracket(d: Dfa | None) -> tuple[float, float]:
    """Certified ``(lo, hi)`` around the short-circuit radius of ``L(d)``."""
    if d is None:
        return 0.0, 0.0
    edges = [(p, q) for (p, _), q in d.delta.items()] + [(q, 0) for q in d.accepts]
    rows = np.array([p for p, _ in edges], dtype=np.intp)
    cols = np.array([q for _, q in edges], dtype=np.intp)
    x = np.ones(d.states)
    for _ in range(BRACKET_MAX_STEPS):
        # B = M + I: the shift makes the iteration converge on periodic graphs.
        y = x + np.bincount(rows, weights=x[cols], minlength=d.states)
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= BRACKET_WIDTH * lo:
            return lo - 1.0, hi - 1.0
        x = y / hi
    raise ArithmeticError(f"bracket still [{lo}, {hi}] after {BRACKET_MAX_STEPS} steps")


def finite_radius(lengths: Iterable[int]) -> float:
    """Short-circuit radius of a finite language, from its words' lengths."""
    counts: dict[int, int] = {}
    for k in lengths:
        counts[k] = counts.get(k, 0) + 1
    if not counts:
        return 0.0

    def weight(z: float) -> float:
        return sum(c * z ** (k + 1) for k, c in counts.items())

    lo, hi = 0.0, 1.0  # weight(1) = number of words >= 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if weight(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 1.0 / hi


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


@dataclass(frozen=True)
class Expected:
    """Reference quotients of one case, in the order the op computes them."""

    values: tuple[float, float]

    def mismatch(self, got: Sequence[float], rel_tol: float) -> bool:
        return any(abs(g - e) > rel_tol * max(abs(e), 1e-300) for g, e in zip(got, self.values, strict=True))


def radius(d: Dfa) -> float:
    """Short-circuit radius of ``L(d)``: the middle of its bracket."""
    return 0.5 * sum(bracket(trim(d)))


def expected_log(case: LogCase) -> Expected:
    """Precision and recall of ``case.spec`` against the log."""
    distinct = [trace for trace, _ in case.traces]
    shared = finite_radius(len(t) for t in distinct if replay(case.spec, t))
    logged = finite_radius(len(t) for t in distinct)
    return Expected((_ratio(shared, radius(subset_dfa(case.spec))), _ratio(shared, logged)))


def expected_pair(case: PairCase) -> Expected:
    """coverage(x, y) and coverage(y, x)."""
    dx, dy = subset_dfa(case.x), subset_dfa(case.y)
    both = radius(product(dx, dy))
    return Expected((_ratio(both, radius(dx)), _ratio(both, radius(dy))))


#: Input of ``reference_seconds``; fixed, whatever the seed.  Its product
#: is small (247 states), so that the reference never sets a worker's peak
#: memory, and is built ``REFERENCE_REPEATS`` times to make about 10 ms.
REFERENCE_PAIR = model_pair_case(random.Random("reference"), (5, 1, 5, 1, 0))
REFERENCE_REPEATS = 5


def reference_seconds() -> float:
    """Time of a fixed computation of the same kind as an op.

    Python breadth-first searches over tuples and dicts, then a numpy power
    iteration: about 10 ms on an idle core.  The benchmark divides each op's
    time by this one's, taken just before and after the op, so that other
    load on the machine, which slows both alike, cancels out.
    """
    started = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        bracket(trim(product(subset_dfa(REFERENCE_PAIR.x), subset_dfa(REFERENCE_PAIR.y))))
    return time.perf_counter() - started
