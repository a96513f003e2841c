"""Finite automata and the language algorithms behind the measure pipeline.

States are dense integers ``0 .. state_count-1``.  Transition functions are
partial: a missing move simply rejects, there is never an explicit dead
state.  All values are immutable after construction; every operation below is
a pure function returning fresh automata.

The construction algorithms work on dicts and sets.  What the measures read
works on int arrays (``Moves``): ``product_moves`` walks an operand pair a
breadth-first level at a time in numpy, with a dense int32 index of
``4 * nx * ny`` bytes for operands of ``nx`` and ``ny`` states (at most
76 KB on the benchmark pairs, 4.7 MB at 770 x 1,537), and one depth-first
search over the arrays decides finiteness and orders the word count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .labels import CHI, SILENT, Label, sort_key

Transition = tuple[int, Label, int]


class InfiniteLanguageError(ValueError):
    """Raised when a word count is requested for an infinite language."""


class Moves(NamedTuple):
    """A deterministic move table as int arrays, its moves sorted by source state.

    Move ``i`` leads from state ``sources[i]`` to ``targets[i]`` on label
    ``labels[columns[i]]``, and each state's moves come in label order, at
    ``offsets[p]:offsets[p + 1]`` for state ``p``.  ``accepting`` lists the
    accept states in increasing order.
    """

    labels: list[Label]
    offsets: np.ndarray
    sources: np.ndarray
    columns: np.ndarray
    targets: np.ndarray
    accepting: np.ndarray
    start: int = 0

    @property
    def order(self) -> int:
        """The number of states."""
        return self.offsets.size - 1

    def length_profile(self) -> dict[int, int]:
        """Exact number of accepted words of each length, shortest first, of a trim table.

        Paths from ``start`` are counted per length in topological order.
        The search for it stops at the first cycle, which in a trim table
        lies on accepted words, and raises ``InfiniteLanguageError``, cheaply.
        """
        offsets, targets = self.offsets, self.targets
        order = _topological_order(offsets, targets, self.start)
        if order is None:
            raise InfiniteLanguageError("language is infinite: a cycle survives trimming")
        paths: list[Counter[int]] = [Counter() for _ in range(self.order)]
        paths[self.start][0] = 1
        final, profile = set(self.accepting.tolist()), Counter()
        for p in order:
            if p in final:
                profile.update(paths[p])
            longer = {k + 1: c for k, c in paths[p].items()}
            for q in targets[offsets[p] : offsets[p + 1]].tolist():
                paths[q].update(longer)
        return dict(sorted(profile.items()))


def _check(cond: bool, invariant: str) -> None:
    if not cond:
        raise ValueError(f"invariant violated: {invariant}")


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton, possibly with silent transitions.

    ``transitions`` is a duplicate-free set of ``(from, label, to)`` triples
    where the label is either a member of ``alphabet`` or the ``SILENT``
    marker.  The ``CHI`` marker in ``alphabet`` marks a short-circuited
    automaton; only such an automaton may carry ``CHI`` moves.
    """

    state_count: int
    alphabet: frozenset[Label]
    transitions: frozenset[Transition]
    start: int
    accepts: frozenset[int]

    def __post_init__(self) -> set[Label]:
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "accepts", frozenset(self.accepts))
        n = self.state_count
        _check(n >= 1, "state_count must be at least 1")
        _check(0 <= self.start < n, "start state out of range")
        _check(SILENT not in self.alphabet, "silent marker cannot be an alphabet member")
        _check(
            not self.accepts or (0 <= min(self.accepts) and max(self.accepts) < n),
            "accept state out of range",
        )
        used: set[Label] = set()
        if self.transitions:
            sources, labels, targets = zip(*self.transitions)
            _check(0 <= min(sources) and max(sources) < n, "transition source out of range")
            _check(0 <= min(targets) and max(targets) < n, "transition target out of range")
            used.update(labels)
            _check(
                CHI not in used or self.short_circuited,
                "chi transition on a non-short-circuited automaton",
            )
            _check(used - {SILENT} <= self.alphabet, "transition label outside the alphabet")
        return used  # so that ``Dfa`` need not collect the labels again

    @property
    def short_circuited(self) -> bool:
        """True iff the alphabet holds ``CHI``, as ``short_circuit`` leaves it."""
        return CHI in self.alphabet

    @cached_property
    def moves(self) -> dict[tuple[int, Label], frozenset[int]]:
        """Transition map ``(state, label) -> successor set``."""
        out: dict[tuple[int, Label], set[int]] = {}
        for p, lab, q in self.transitions:
            out.setdefault((p, lab), set()).add(q)
        return {key: frozenset(val) for key, val in out.items()}


@dataclass(frozen=True)
class Dfa(Nfa):
    """Deterministic automaton: no silent moves, one successor per label."""

    def __post_init__(self) -> set[Label]:
        used = super().__post_init__()
        _check(SILENT not in used, "deterministic automaton carries a silent transition")
        moves = {(p, lab) for p, lab, _ in self.transitions}
        _check(len(moves) == len(self.transitions), "duplicate move for a (state, label) pair")
        return used

    @cached_property
    def rows(self) -> list[dict[Label, int]]:
        """The partial transition function: per state, ``{label: target}`` in sorted label order."""
        rows: list[dict[Label, int]] = [{} for _ in range(self.state_count)]
        for p, lab, q in sorted(self.transitions, key=lambda t: sort_key(t[1])):
            rows[p][lab] = q
        return rows

    @cached_property
    def arrays(self) -> Moves:
        """The partial transition function as ``Moves``, over the sorted labels that it uses.

        The arrays are of numpy's index type, which counting and indexing use
        without a conversion; only a walked product, which can be large, keeps
        its moves in int32.
        """
        rows = self.rows
        labels = sorted({lab for row in rows for lab in row}, key=sort_key)
        column = {lab: i for i, lab in enumerate(labels)}
        return Moves(
            labels,
            np.array([0, *accumulate(map(len, rows))], dtype=np.intp),
            np.array([p for p, row in enumerate(rows) for _ in row], dtype=np.intp),
            np.array([column[lab] for row in rows for lab in row], dtype=np.intp),
            np.array([q for row in rows for q in row.values()], dtype=np.intp),
            np.array(sorted(self.accepts), dtype=np.intp),
            self.start,
        )


def empty_language_automaton(alphabet: Iterable[Label] = ()) -> Dfa:
    """Canonical automaton of the empty language over ``alphabet``: one state, nothing else."""
    return Dfa(1, frozenset(alphabet), frozenset(), 0, frozenset())


def is_deterministic(a: Nfa) -> bool:
    """True iff ``a`` has no silent move and no label with two successors."""
    moves = {(p, lab) for p, lab, _ in a.transitions}
    return len(moves) == len(a.transitions) and all(lab is not SILENT for _, lab in moves)


def as_dfa(a: Nfa) -> Dfa:
    """A DFA for ``L(a)``, built by ``determinize`` only if ``a`` is nondeterministic.

    A ``Dfa`` is returned as it is, and a deterministic ``Nfa`` is
    reinterpreted as a ``Dfa`` with the same states and transitions.
    """
    if isinstance(a, Dfa):
        return a
    if is_deterministic(a):
        return Dfa(a.state_count, a.alphabet, a.transitions, a.start, a.accepts)
    return determinize(a)


def _explore(
    start: Hashable,
    moves: Callable[[Hashable], Iterator[tuple[Label, Hashable]]],
    accepting: Callable[[Hashable], bool],
    alphabet: frozenset[Label],
) -> Dfa:
    """The DFA on the keys reachable from ``start``, numbered breadth-first.

    ``moves(key)`` yields ``(label, successor key)`` pairs in a fixed label
    order, so the numbering depends on the graph alone, not on what the keys
    are (subsets, state pairs, states or blocks) or how they hash.  ``start``
    becomes state 0 and ``accepting(key)`` marks the accept states.
    """
    index = {start: 0}
    order = [start]
    transitions: list[Transition] = []
    accepts: list[int] = []
    for here, key in enumerate(order):  # ``order`` grows as keys are found
        if accepting(key):
            accepts.append(here)
        for lab, target in moves(key):
            there = index.get(target)
            if there is None:
                there = index[target] = len(order)
                order.append(target)
            transitions.append((here, lab, there))
    return Dfa(len(order), alphabet, frozenset(transitions), 0, frozenset(accepts))


def _graph(a: Nfa) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists of every state, labels ignored."""
    forward: list[list[int]] = [[] for _ in range(a.state_count)]
    backward: list[list[int]] = [[] for _ in range(a.state_count)]
    for p, _, q in a.transitions:
        forward[p].append(q)
        backward[q].append(p)
    return forward, backward


def _closure(seeds: Iterable[int], successors: Callable[[int], Iterable[int]]) -> set[int]:
    """The seeds and every state reachable from them along ``successors``."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for q in successors(stack.pop()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def silent_closure(a: Nfa, states: Iterable[int]) -> frozenset[int]:
    """Smallest superset of ``states`` closed under silent transitions."""
    return frozenset(_closure(states, lambda p: a.moves.get((p, SILENT), ())))


def determinize(a: Nfa) -> Dfa:
    """Rabin-Scott powerset construction, extended with silent closures.

    Only subset states reachable from the closure of the start state are
    materialised; subsets are canonicalised as sorted tuples and discovered
    breadth-first, so the result is reproducible.  Each state's silent
    closure is taken once, and each move leads to its targets' closures.
    """
    labels = sorted(a.alphabet, key=sort_key)
    closures = [silent_closure(a, [p]) for p in range(a.state_count)]
    closed = {
        move: frozenset().union(*map(closures.__getitem__, targets))
        for move, targets in a.moves.items()
    }

    def moves(subset: tuple[int, ...]) -> Iterator[tuple[Label, tuple[int, ...]]]:
        for lab in labels:
            targets: set[int] = set()
            for p in subset:
                targets.update(closed.get((p, lab), ()))
            if targets:
                yield lab, tuple(sorted(targets))

    def accepting(subset: tuple[int, ...]) -> bool:
        return not a.accepts.isdisjoint(subset)

    return _explore(tuple(sorted(closures[a.start])), moves, accepting, a.alphabet)


def is_trim(a: Nfa) -> bool:
    """Every state useful, or the canonical empty-language automaton."""
    if not a.accepts:
        return a.state_count == 1 and not a.transitions
    return _spans(a, [a.start], a.accepts)


def _spans(a: Nfa, sources: Iterable[int], sinks: Iterable[int]) -> bool:
    """True iff every state is reachable from ``sources`` and reaches ``sinks``."""
    forward, backward = _graph(a)
    n = a.state_count
    reached = len(_closure(sources, forward.__getitem__)) == n
    return reached and len(_closure(sinks, backward.__getitem__)) == n


def trim(a: Nfa) -> Nfa:
    """Drop states that are unreachable or cannot reach an accept state.

    The language is preserved.  The kept states are renumbered in order.  If
    nothing useful remains the canonical empty-language automaton (over the
    same alphabet) is returned; an already-trim automaton is returned
    unchanged.
    """
    forward, backward = _graph(a)
    keep = _closure([a.start], forward.__getitem__) & _closure(a.accepts, backward.__getitem__)
    if a.start not in keep:
        return type(a)(1, a.alphabet, frozenset(), 0, frozenset())
    if len(keep) == a.state_count:
        return a
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    transitions = frozenset(
        (remap[p], lab, remap[q]) for p, lab, q in a.transitions if p in keep and q in keep
    )
    accepts = frozenset(remap[q] for q in a.accepts if q in keep)
    return type(a)(len(order), a.alphabet, transitions, remap[a.start], accepts)


def canonicalize(d: Dfa) -> Dfa:
    """Renumber states breadth-first, exploring labels in sorted order.

    Language-equal minimal automata become structurally identical, which is
    what the test suites use as their isomorphism check.  States unreachable
    from the start are dropped.
    """
    return _explore(d.start, lambda p: d.rows[p].items(), d.accepts.__contains__, d.alphabet)


def minimize(d: Nfa) -> Dfa:
    """Minimal trim DFA for ``L(d)`` (Hopcroft partition refinement on ``as_dfa(d)``).

    The transition function stays partial; missing moves act as an implicit
    dead state during refinement but are never materialised.  No ``trim`` is
    needed: dead states share the dead state's block, and only blocks
    reachable from the start's are numbered, breadth-first as
    ``canonicalize`` would number them, so language-equal inputs minimise to
    structurally identical automata.  A dead start gives the empty automaton.
    """
    t = as_dfa(d)
    labels = sorted(t.alphabet, key=sort_key)
    sink = t.state_count
    states = range(t.state_count)

    predecessors: dict[Label, dict[int, list[int]]] = {lab: {sink: [sink]} for lab in labels}
    for lab, by_target in predecessors.items():
        for p in states:
            by_target.setdefault(t.rows[p].get(lab, sink), []).append(p)

    rest = frozenset(set(states) - t.accepts | {sink})
    partition: set[frozenset[int]] = {t.accepts, rest} - {frozenset()}
    block_of = {q: block for block in partition for q in block}
    worklist: set[tuple[frozenset[int], Label]] = {
        (block, lab) for block in partition for lab in labels
    }

    while worklist:
        splitter, lab = worklist.pop()
        by_target = predecessors[lab]
        movers: set[int] = set()
        for q in splitter:
            movers.update(by_target.get(q, ()))
        touched: dict[frozenset[int], set[int]] = {}
        for p in movers:
            touched.setdefault(block_of[p], set()).add(p)
        for block, inside in touched.items():
            if len(inside) == len(block):
                continue
            part_in = frozenset(inside)
            part_out = block - part_in
            block_of.update(dict.fromkeys(part_in, part_in))
            block_of.update(dict.fromkeys(part_out, part_out))
            for any_lab in labels:
                if (block, any_lab) in worklist:
                    worklist.remove((block, any_lab))
                    worklist.add((part_in, any_lab))
                    worklist.add((part_out, any_lab))
                else:
                    smaller = part_in if len(part_in) <= len(part_out) else part_out
                    worklist.add((smaller, any_lab))

    sink_block = block_of[sink]

    def moves(block: frozenset[int]) -> Iterator[tuple[Label, frozenset[int]]]:
        for lab, q in t.rows[next(iter(block))].items():
            if block_of[q] is not sink_block:
                yield lab, block_of[q]

    start = block_of[t.start]
    if start is sink_block:
        return empty_language_automaton(t.alphabet)
    return _explore(start, moves, lambda block: block <= t.accepts, t.alphabet)


def short_circuit(d: Dfa) -> Dfa:
    """Add a chi transition from every accept state back to the start.

    Turns ``L`` into ``(L . {chi})* . L``; for a trim automaton with a
    nonempty language the result is ergodic.  The empty-language automaton is
    returned unchanged because there is no accept state to loop from.
    """
    if d.short_circuited:
        raise ValueError("automaton is already short-circuited")
    if not is_trim(d):
        raise ValueError("short_circuit requires a trim automaton")
    if not d.accepts:
        return d
    loops = {(q, CHI, d.start) for q in d.accepts}
    return Dfa(d.state_count, d.alphabet | {CHI}, d.transitions | loops, d.start, d.accepts)


def _operand(d: Dfa, labels: list[Label]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``d`` as the walk reads it: targets by state and label, -1 for none; accepts; out-degrees."""
    m = d.arrays
    shared = {lab: i for i, lab in enumerate(labels)}
    column = np.array([shared.get(lab, -1) for lab in m.labels], dtype=np.intp)[m.columns]
    kept = column >= 0
    table = np.full((m.order, len(labels)), -1, dtype=np.int32)
    table[m.sources[kept], column[kept]] = m.targets[kept]
    accepts = np.zeros(m.order, dtype=bool)
    accepts[m.accepting] = True
    return table, accepts, np.diff(m.offsets)


def _firsts(values: np.ndarray) -> np.ndarray:
    """True where a value occurs for the first time, found by one stable sort."""
    by_value = np.argsort(values, kind="stable")
    ranked = values[by_value]
    firsts = np.empty(values.size, dtype=bool)
    firsts[by_value] = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    return firsts


def _live(order: int, sources: np.ndarray, targets: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """True at the states that reach a seed, found by a backward frontier over reversed moves."""
    by_target = np.argsort(targets, kind="stable")
    offsets = np.searchsorted(targets[by_target], np.arange(order + 1))
    predecessors = sources[by_target]
    live = np.zeros(order, dtype=bool)
    live[seeds] = True
    while seeds.size:
        ends = offsets[seeds + 1]
        counts = ends - offsets[seeds]
        found = predecessors[np.arange(counts.sum()) + np.repeat(ends - np.cumsum(counts), counts)]
        found = found[~live[found]]
        seeds = found[_firsts(found)]
        live[seeds] = True
    return live


def product_moves(x: Dfa, y: Dfa) -> tuple[Moves, bool, bool]:
    """The trim product of ``x`` and ``y`` as ``Moves`` over their shared labels, and two flags.

    Pairs, coded as ``px * y.state_count + py``, are numbered breadth-first
    with labels in sorted order, as ``_explore`` numbers states: a level at
    a time, each new pair in the order it first appears among the level's
    moves, listed parent by parent in label order.  A dense int32 index,
    4 bytes per pair of states, holds the numbers.  Pairs that a backward
    search from the accepting pairs misses are dropped and the rest keep
    their order, as in ``trim``; a dead start leaves one state with no move.

    The flags are ``L(x) <= L(y)`` and ``L(y) <= L(x)``: the first is false
    once a reached pair has an accept or a move of ``x`` that ``y`` cannot
    match, and the second likewise.  Each is exact when its left operand is
    trim, so that every state lies on an accepted word, as a minimal DFA is.
    The measures read the moves and both flags of minimal operands;
    ``intersect`` builds its ``Dfa`` from the moves alone.
    """
    labels = sorted(x.alphabet & y.alphabet, key=sort_key)
    x_table, x_accepts, x_degree = _operand(x, labels)
    y_table, y_accepts, y_degree = _operand(y, labels)
    width = y.state_count
    index = np.full(x.state_count * width, -1, dtype=np.int32)
    level = np.array([x.start * width + y.start], dtype=np.int64)
    index[level] = 0
    found = 1
    sources, columns, targets, accepting = [], [], [], []
    x_in_y = y_in_x = True
    while level.size:
        first = found - level.size  # the number of the level's first pair
        px, py = np.divmod(level, width)
        x_next, y_next = x_table[px], y_table[py]
        both = (x_next >= 0) & (y_next >= 0)
        in_x, in_y = x_accepts[px], y_accepts[py]
        accepting.append(first + np.flatnonzero(in_x & in_y))
        matched = both.sum(axis=1)
        x_in_y = x_in_y and not (in_x > in_y).any() and bool((matched == x_degree[px]).all())
        y_in_x = y_in_x and not (in_y > in_x).any() and bool((matched == y_degree[py]).all())
        parent, column = np.nonzero(both)
        codes = x_next[parent, column].astype(np.int64) * width + y_next[parent, column]
        level = codes[index[codes] < 0]
        level = level[_firsts(level)]
        index[level] = np.arange(found, found + level.size, dtype=np.int32)
        found += level.size
        sources.append(first + parent)
        columns.append(column)
        targets.append(index[codes])
    source, column, target, accept = (
        np.concatenate(part).astype(np.int32) for part in (sources, columns, targets, accepting)
    )
    live = _live(found, source, target, accept)
    if not live[0]:
        source = column = target = accept = source[:0]
        found = 1
    elif not live.all():
        kept = live[target]  # a move into a live pair leaves a live pair
        number = np.cumsum(live, dtype=np.int32) - 1
        source, column, target = number[source[kept]], column[kept], number[target[kept]]
        accept, found = number[accept], int(number[-1]) + 1
    offsets = np.searchsorted(source, np.arange(found + 1))
    return Moves(labels, offsets, source, column, target, accept), x_in_y, y_in_x


def _refuse_short_circuited(*operands: Nfa) -> None:
    """Reject a short-circuited operand: chi marks no event, so it is no compared language."""
    if any(a.short_circuited for a in operands):
        raise ValueError("operands must not be short-circuited")


def intersect(x: Dfa, y: Dfa) -> Dfa:
    """Trim product automaton recognising ``L(x) & L(y)``.

    Moves exist only for labels both operands can fire; labels unique to one
    alphabet therefore never contribute words.  Every explored pair is
    reachable, so only dead pairs, which reach no accepting pair, are pruned.
    """
    _refuse_short_circuited(x, y)
    m, _, _ = product_moves(x, y)
    labels = map(m.labels.__getitem__, m.columns.tolist())
    transitions = frozenset(zip(m.sources.tolist(), labels, m.targets.tolist()))
    return Dfa(m.order, x.alphabet & y.alphabet, transitions, 0, frozenset(m.accepting.tolist()))


def is_ergodic(a: Nfa) -> bool:
    """True iff the transition graph is strongly connected, labels ignored."""
    return _spans(a, [0], [0])


def _topological_order(offsets: np.ndarray, targets: np.ndarray, start: int) -> list[int] | None:
    """The states reachable from ``start`` in topological order, or None at the first cycle.

    The moves of state ``p`` lead to ``targets[offsets[p]:offsets[p + 1]]``.
    Depth-first: a state is listed after its successors, and the list is
    reversed.  A successor still on the search path closes a cycle.
    """

    def successors(p: int) -> Iterator[int]:
        return iter(targets[offsets[p] : offsets[p + 1]].tolist())

    finished: list[int] = []
    listed = {start: False}  # False while the state is on the search path
    path = [(start, successors(start))]
    while path:
        p, after = path[-1]
        for q in after:
            seen = listed.get(q)
            if seen is None:
                listed[q] = False
                path.append((q, successors(q)))
                break
            if not seen:
                return None
        else:
            path.pop()
            listed[p] = True
            finished.append(p)
    finished.reverse()
    return finished


def has_finite_language(d: Nfa) -> bool:
    """True iff no directed cycle survives trimming ``as_dfa(d)``."""
    t = trim(as_dfa(d)).arrays
    return _topological_order(t.offsets, t.targets, t.start) is not None


def count_words(d: Dfa) -> int:
    """Exact number of accepted words of a finite-language automaton."""
    return sum(trim(d).arrays.length_profile().values())


def accepts(d: Dfa, word: Sequence[Label]) -> bool:
    """Replay ``word``; labels outside the alphabet simply fail to move."""
    state = d.start
    for lab in word:
        nxt = d.rows[state].get(lab)
        if nxt is None:
            return False
        state = nxt
    return state in d.accepts
