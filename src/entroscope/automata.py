"""Finite automata and the language algorithms behind the measure pipeline.

States are dense integers ``0 .. state_count-1``.  Transition functions are
partial: a missing move simply rejects, there is never an explicit dead
state.  Labels are plain ``str`` values, compared and sorted as strings.  Two
strings are reserved: ``SILENT`` (``""``) marks an unobservable move, and
``CHI`` (``"__chi__"``) the loop-back moves that ``short_circuit`` adds.
All values are immutable after construction; every operation below is a
pure function returning fresh automata.  Derived views (``rows``,
``arrays``, ``minimal``) are built on first use and kept with the
automaton.

The construction algorithms work on Python ints and lists: ``_subsets``,
the core of ``determinize``, keys a subset of states by an int bitmask, and
``minimize`` refines its rows in numbered blocks, with no dead state,
splitting on each popped block's in-moves a label at a time and relabelling
only the smaller half of each split.  Both number states in ``_explore``,
which returns rows, not a ``Dfa``: ``_trim_rows``, the one route from an
automaton to a DFA's rows, builds none, and ``minimize`` only its result, by
``_dfa``, which keeps the rows rather than sort them back out.
What the measures read works on int arrays (``Moves``): ``product_moves``
walks an operand pair a breadth-first level at a time in numpy, with a dense
int32 index of ``4 * nx * ny`` bytes for operands of ``nx`` and ``ny`` states
(at most 76 KB on the benchmark pairs, 4.7 MB at 770 x 1,537) that also finds
each level's new pairs, and trims it by sweeping only its pending moves; one
depth-first search over the arrays decides finiteness and orders the word count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

#: Label of an unobservable move; it reads the empty word.
SILENT = ""

#: Label of the accept-to-start moves that ``short_circuit`` adds.
CHI = "__chi__"

Transition = tuple[int, str, int]

#: A DFA as rows: per state ``{label: target}`` in sorted label order, the accepts and the start.
_DfaRows = tuple[list[dict[str, int]], frozenset[int], int]


class InfiniteLanguageError(ValueError):
    """Raised when a word count is requested for an infinite language."""


class Moves(NamedTuple):
    """A deterministic move table as int arrays, its moves sorted by source state.

    Move ``i`` leads from state ``sources[i]`` to ``targets[i]`` on label
    ``labels[columns[i]]``, and each state's moves come in label order, at
    ``offsets[p]:offsets[p + 1]`` for state ``p``.  ``accepting`` lists the
    accept states in increasing order.  The table is also the matrix of the
    eig measure: ``spectral.perron_frobenius`` counts its moves from ``i`` to
    ``j``, plus a chi move from each accept state to ``start``.
    """

    labels: list[str]
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

    def length_profile(self) -> Counter[int]:
        """Exact number of accepted words of each length, of a trim table.

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
        return profile


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
    alphabet: frozenset[str]
    transitions: frozenset[Transition]
    start: int
    accepts: frozenset[int]

    def __post_init__(self) -> None:
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
        if self.transitions:
            sources, labels, targets = zip(*self.transitions)
            used = set(labels)
            _check(0 <= min(sources) and max(sources) < n, "transition source out of range")
            _check(0 <= min(targets) and max(targets) < n, "transition target out of range")
            _check(
                CHI not in used or self.short_circuited,
                "chi transition on a non-short-circuited automaton",
            )
            _check(used - {SILENT} <= self.alphabet, "transition label outside the alphabet")

    @property
    def short_circuited(self) -> bool:
        """True iff the alphabet holds ``CHI``, as ``short_circuit`` leaves it."""
        return CHI in self.alphabet

    @cached_property
    def minimal(self) -> Dfa:
        """The minimal trim DFA of the language: ``minimize(self)``, the one ``Dfa`` it builds.

        Built on first use and kept with this automaton, so each operand of
        several measures is minimized once, and ``coverage`` keeps one product
        with it, so that a pair measured both ways is walked and solved once.
        """
        return minimize(self)


@dataclass(frozen=True)
class Dfa(Nfa):
    """Deterministic automaton: no silent moves, one successor per label.

    The one determinism check is ``is_deterministic``, which construction calls.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        _check(is_deterministic(self), "silent or duplicate move for a (state, label) pair")

    @cached_property
    def rows(self) -> list[dict[str, int]]:
        """Per state, ``{label: target}`` in label order: ``_rows``, or what ``_dfa`` kept."""
        return _rows(self)

    @cached_property
    def arrays(self) -> Moves:
        """The partial transition function as ``Moves``, over the sorted labels that it uses.

        ``_as_moves`` builds it from the rows.  The arrays are of numpy's index
        type, which counting and indexing use without a conversion; only a
        walked product, which can be large, keeps its moves in int32.
        """
        return _as_moves(self.rows, self.accepts, self.start)


def _rows(a: Nfa) -> list[dict[str, int]]:
    """``Dfa.rows`` of a deterministic ``a``: each state's moves sorted into ``{label: target}``."""
    buckets: list[list[tuple[str, int]]] = [[] for _ in range(a.state_count)]
    for p, lab, q in a.transitions:
        buckets[p].append((lab, q))
    return [dict(sorted(row)) for row in buckets]


def _as_moves(rows: list[dict[str, int]], accepts: Iterable[int], start: int) -> Moves:
    """``Dfa.arrays`` of the DFA with these rows, accepts and start, built from them alone."""
    labels = sorted({lab for row in rows for lab in row})
    column = {lab: i for i, lab in enumerate(labels)}
    return Moves(
        labels,
        np.array([0, *accumulate(map(len, rows))], dtype=np.intp),
        np.array([p for p, row in enumerate(rows) for _ in row], dtype=np.intp),
        np.array([column[lab] for row in rows for lab in row], dtype=np.intp),
        np.array([q for row in rows for q in row.values()], dtype=np.intp),
        np.array(sorted(accepts), dtype=np.intp),
        start,
    )


def is_deterministic(a: Nfa) -> bool:
    """True iff ``a`` has no silent move and no label with two successors: the one such check."""
    return len({(p, lab) for p, lab, _ in a.transitions if lab != SILENT}) == len(a.transitions)


def _trim_rows(a: Nfa) -> _DfaRows:
    """The rows, accepts and start of a trim DFA of ``L(a)``, with no ``Dfa`` built.

    The one route to a DFA: a deterministic ``trim(a)`` gives its own rows, by
    ``_rows``, which ``Dfa.rows`` also calls (a ``Dfa`` its cached ``rows``), and
    any other those of ``_subsets``.  The rows are read, never changed.
    """
    t = trim(a)
    if isinstance(t, Dfa) or is_deterministic(t):
        return (t.rows if isinstance(t, Dfa) else _rows(t)), t.accepts, t.start
    return (*_subsets(t), 0)


def _explore(
    start: Hashable,
    moves: Callable[[Hashable], Iterable[tuple[str, Hashable]]],
    accepting: Callable[[Hashable], bool],
) -> tuple[list[dict[str, int]], frozenset[int]]:
    """The keys reachable from ``start``, numbered breadth-first: each one's row, and the accepts.

    ``moves(key)`` yields ``(label, successor key)`` pairs in sorted label
    order, so the numbering depends on the graph alone, not on what the keys
    are (subsets, states or blocks) or how they hash.  ``start`` becomes
    state 0, row ``p`` maps each label of state ``p`` to its target's number,
    in that label order, and ``accepting(key)`` marks the accept states.
    ``_dfa`` builds the automaton they describe.
    """
    index = {start: 0}
    order = [start]
    rows: list[dict[str, int]] = []
    accepts: list[int] = []
    for here, key in enumerate(order):  # ``order`` grows as keys are found
        if accepting(key):
            accepts.append(here)
        row: dict[str, int] = {}
        for lab, target in moves(key):
            there = index.get(target)
            if there is None:
                there = index[target] = len(order)
                order.append(target)
            row[lab] = there
        rows.append(row)
    return rows, frozenset(accepts)


def _dfa(rows: list[dict[str, int]], accepts: frozenset[int], alphabet: frozenset[str]) -> Dfa:
    """The DFA with start 0 of ``_explore``'s rows and accepts; it keeps the rows as ``rows``."""
    transitions = frozenset((p, lab, q) for p, row in enumerate(rows) for lab, q in row.items())
    d = Dfa(len(rows), alphabet, transitions, 0, accepts)
    vars(d)["rows"] = rows  # where ``cached_property`` keeps ``Dfa.rows``
    return d


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


def _subsets(a: Nfa) -> tuple[list[dict[str, int]], frozenset[int]]:
    """The rows and accepts of Rabin-Scott's powerset construction, extended with silent closures.

    Only subset states reachable from the closure of the start state are
    materialised, numbered by ``_explore`` with labels in sorted order, so
    the result is reproducible.  A subset is an ``int`` bitmask of states.
    Each state's silent closure is taken once, and each state's labelled
    moves are merged once into one mask per label, the OR of its targets'
    closures, so a subset's move on a label is the OR of its members' masks,
    collected in a list indexed by label.
    """
    labels = sorted(a.alphabet)
    column = {lab: i for i, lab in enumerate(labels)}
    silent: list[list[int]] = [[] for _ in range(a.state_count)]
    for p, lab, q in a.transitions:
        if lab == SILENT:
            silent[p].append(q)
    masks = [sum(1 << q for q in _closure([p], silent.__getitem__)) for p in range(a.state_count)]
    merged: list[dict[int, int]] = [{} for _ in range(a.state_count)]
    for p, lab, q in a.transitions:
        if lab != SILENT:
            i = column[lab]
            merged[p][i] = merged[p].get(i, 0) | masks[q]
    closed = [list(row.items()) for row in merged]
    accept_bits = sum(1 << q for q in a.accepts)

    def moves(subset: int) -> list[tuple[str, int]]:
        out = [0] * len(labels)  # a target mask holds its target, so a move's is never 0
        while subset:
            low = subset & -subset
            for i, mask in closed[low.bit_length() - 1]:
                out[i] |= mask
            subset ^= low
        return [(lab, mask) for lab, mask in zip(labels, out) if mask]

    return _explore(masks[a.start], moves, accept_bits.__and__)


def determinize(a: Nfa) -> Dfa:
    """The subset DFA of ``a``: ``_dfa`` of the rows and accepts that ``_subsets(a)`` numbers."""
    return _dfa(*_subsets(a), a.alphabet)


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


def is_trim(a: Nfa) -> bool:
    """Every state useful, or the canonical empty-language automaton: ``trim`` keeps ``a``."""
    return trim(a) == a


def canonicalize(d: Dfa) -> Dfa:
    """Renumber states breadth-first, exploring labels in sorted order.

    Language-equal minimal automata become structurally identical, which is
    what the test suites use as their isomorphism check.  States unreachable
    from the start are dropped.
    """
    return _dfa(*_explore(d.start, lambda p: d.rows[p].items(), d.accepts.__contains__), d.alphabet)


def minimize(d: Nfa) -> Dfa:
    """Minimal trim DFA for ``L(d)``: Hopcroft refinement of the rows that ``_trim_rows(d)`` gives.

    ``_trim_rows`` trims ``d`` before the subset construction, so its subsets
    hold only useful states and the DFA is trim as built: a missing move is
    the only way to an empty future, and no dead state stands for it.  Its
    rows come with no ``Dfa`` built, so the result is the one ``Dfa`` that
    ``minimize`` builds.  They are each state's outgoing moves, and one pass
    over them lists each state's incoming ``(label, state)`` moves.  Blocks
    are numbered sets of states, and ``block_of`` gives each state's block
    number.  The partition starts as the accept states and the rest, and
    both go on one worklist of block numbers, so that states with
    a move on a label part from those without one.  Each block popped groups
    its in-moves by label and splits every block those moves leave, a label
    at a time; the smaller half of a split block gets a new number, which
    is queued, and only its states are relabelled, so that a state is
    relabelled O(log n) times (Valmari and Lehtinen, STACS 2008).  The
    blocks are numbered breadth-first from the start's, as ``canonicalize``
    would number them, each read through the row of one state picked once,
    so language-equal inputs minimise to structurally identical automata,
    and a dead start gives the empty automaton.
    """
    rows, accepts, start = _trim_rows(d)
    incoming: list[list[tuple[str, int]]] = [[] for _ in rows]
    for p, row in enumerate(rows):
        for lab, q in row.items():
            incoming[q].append((lab, p))

    blocks = [set(accepts), set(range(len(rows))) - accepts]  # the first may be empty
    block_of = [int(q not in accepts) for q in range(len(rows))]
    worklist = [0, 1]
    while worklist:
        by_label: dict[str, list[int]] = {}  # read before any split: the block may split below
        for q in blocks[worklist.pop()]:
            for lab, p in incoming[q]:
                by_label.setdefault(lab, []).append(p)
        for sources in by_label.values():
            touched: dict[int, list[int]] = {}
            for p in sources:
                touched.setdefault(block_of[p], []).append(p)
            for b, inside in touched.items():
                block = blocks[b]
                if len(inside) == len(block):
                    continue
                block.difference_update(inside)
                smaller = set(inside)
                if len(smaller) > len(block):
                    blocks[b], smaller = smaller, block
                for q in smaller:
                    block_of[q] = len(blocks)
                worklist.append(len(blocks))
                blocks.append(smaller)

    first = [next(iter(block), -1) for block in blocks]  # a representative; none for an empty one

    def moves(b: int) -> list[tuple[str, int]]:
        return [(lab, block_of[q]) for lab, q in rows[first[b]].items()]

    def accepting(b: int) -> bool:
        return first[b] in accepts

    return _dfa(*_explore(block_of[start], moves, accepting), d.alphabet)


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


def _operand(d: Dfa, labels: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _live(order: int, sources: np.ndarray, targets: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """True at the states that reach a seed, marked by sweeping the pending moves until none hits.

    Each sweep marks the sources of the pending moves into marked states; the rest, whose
    targets were unmarked as it began, stay pending.  That is one or two sweeps more than the
    longest distance to a seed: a handful on most products, one per pair on a chain.
    """
    live = np.zeros(order, dtype=bool)
    live[seeds] = True
    while (hit := live[targets]).any():
        live[sources[hit]] = True
        pending = ~hit
        sources, targets = sources[pending], targets[pending]
    return live


def product_moves(x: Dfa, y: Dfa) -> tuple[Moves, bool, bool]:
    """The trim product of ``x`` and ``y`` as ``Moves`` over their shared labels, and two flags.

    Pairs, coded as ``px * y.state_count + py``, are numbered breadth-first
    with labels in sorted order, as ``_explore`` numbers states: a level at
    a time, each new pair in the order it first appears among the level's
    moves, read flat, parent by parent in label order.  A dense int32 index,
    4 bytes per pair of states, holds the numbers; ``np.minimum.at`` first
    writes into each new pair's -1 the least slot, counted up from -2**31, of
    the moves into it (numpy leaves open which write of a repeated fancy index
    wins), so a new pair is kept at its first move.  Pairs that ``_live``'s
    sweep from the accepting pairs leaves unmarked are dropped and the rest
    keep their order, as in ``trim``; a dead start leaves one state with no move.

    The flags are ``L(x) <= L(y)`` and ``L(y) <= L(x)``, read off all reached
    pairs after the walk: the first is false if a reached pair has an accept
    or a move of ``x`` that ``y`` cannot match, and the second likewise with
    the sides swapped.  Each is exact when its left operand is trim, so that
    every state lies on an accepted word, as a minimal DFA is.
    ``product_moves(y, x)`` numbers the pairs alike, so it gives equal
    ``Moves`` and the flags swapped: ``coverage`` walks a pair measured both
    ways once, and reads the moves and both flags of minimal operands;
    ``intersect`` builds its ``Dfa`` from the moves alone.
    """
    labels = sorted(x.alphabet & y.alphabet)
    x_table, x_accepts, x_degree = _operand(x, labels)
    y_table, y_accepts, y_degree = _operand(y, labels)
    width = y.state_count
    index = np.full(x.state_count * width, -1, dtype=np.int32)
    level = np.array([x.start * width + y.start], dtype=np.int64)
    index[level] = 0
    found = 1
    levels, sources, columns, targets = [level], [], [], []
    while level.size:
        first = found - level.size  # the number of the level's first pair
        px, py = np.divmod(level, width)
        x_next, y_next = x_table[px].ravel(), y_table[py].ravel()
        move = np.flatnonzero((x_next >= 0) & (y_next >= 0))
        parent, column = np.divmod(move, len(labels))
        codes = x_next[move].astype(np.int64) * width + y_next[move]
        level = codes[index[codes] < 0]
        slots = np.arange(-(2**31), level.size - 2**31, dtype=np.int32)
        np.minimum.at(index, level, slots)  # each new pair's -1 takes its first slot
        level = level[index[level] == slots]
        index[level] = np.arange(found, found + level.size, dtype=np.int32)
        found += level.size
        levels.append(level)
        sources.append(first + parent)
        columns.append(column)
        targets.append(index[codes])
    source, column, target = (
        np.concatenate(part).astype(np.int32) for part in (sources, columns, targets)
    )
    px, py = np.divmod(np.concatenate(levels), width)  # every reached pair, in number order
    in_x, in_y = x_accepts[px], y_accepts[py]
    matched = np.bincount(source, minlength=found)
    x_in_y = not (in_x > in_y).any() and bool((matched == x_degree[px]).all())
    y_in_x = not (in_y > in_x).any() and bool((matched == y_degree[py]).all())
    accept = np.flatnonzero(in_x & in_y).astype(np.int32)
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
    m = product_moves(x, y)[0]
    labels = map(m.labels.__getitem__, m.columns.tolist())
    transitions = frozenset(zip(m.sources.tolist(), labels, m.targets.tolist()))
    return Dfa(m.order, x.alphabet & y.alphabet, transitions, 0, frozenset(m.accepting.tolist()))


def is_ergodic(a: Nfa) -> bool:
    """True iff the transition graph is strongly connected, labels ignored."""
    forward, backward = _graph(a)
    n = a.state_count
    return len(_closure([0], forward.__getitem__)) == n == len(_closure([0], backward.__getitem__))


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
    """True iff the trim DFA of ``L(d)`` that ``_trim_rows`` gives has no directed cycle."""
    t = _as_moves(*_trim_rows(d))
    return _topological_order(t.offsets, t.targets, t.start) is not None


def count_words(d: Nfa) -> int:
    """Exact number of accepted words of a finite-language ``d``, counted on ``_trim_rows(d)``."""
    return sum(_as_moves(*_trim_rows(d)).length_profile().values())


def _replay(table: _DfaRows, word: Sequence[str]) -> bool:
    """True iff ``word`` leads to an accept state of ``table``; a label with no move fails."""
    rows, final, state = table
    for lab in word:
        state = rows[state].get(lab)
        if state is None:
            return False
    return state in final


def accepts(d: Dfa, word: Sequence[str]) -> bool:
    """Replay ``word`` on ``d``'s rows; labels outside the alphabet simply fail to move."""
    return _replay((d.rows, d.accepts, d.start), word)
