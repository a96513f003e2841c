"""Finite automata and the language algorithms behind the measure pipeline.

States are dense integers ``0 .. state_count-1``.  Transition functions are
partial: a missing move simply rejects, there is never an explicit dead
state.  All values are immutable after construction; every operation below is
a pure function returning fresh automata.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .labels import CHI, SILENT, Label, sort_key

Transition = tuple[int, Label, int]


class InfiniteLanguageError(ValueError):
    """Raised when a word count is requested for an infinite language."""


def _check(cond: bool, invariant: str) -> None:
    if not cond:
        raise ValueError(f"invariant violated: {invariant}")


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton, possibly with silent transitions.

    ``transitions`` is a duplicate-free set of ``(from, label, to)`` triples
    where the label is either a member of ``alphabet``, the ``SILENT``
    marker, or (only on short-circuited automata) the ``CHI`` marker.
    """

    state_count: int
    alphabet: frozenset[Label]
    transitions: frozenset[Transition]
    start: int
    accepts: frozenset[int]
    short_circuited: bool = False
    #: Labels that can occur on a transition: the alphabet plus the markers in use.
    edge_labels: frozenset[Label] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "accepts", frozenset(self.accepts))
        n = self.state_count
        _check(n >= 1, "state_count must be at least 1")
        _check(0 <= self.start < n, "start state out of range")
        _check(SILENT not in self.alphabet, "silent marker cannot be an alphabet member")
        _check(
            CHI not in self.alphabet or self.short_circuited,
            "short-circuit marker cannot be an alphabet member",
        )
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
            _check(used - {SILENT, CHI} <= self.alphabet, "transition label outside the alphabet")
        markers = used & {SILENT} | ({CHI} if self.short_circuited else set())
        object.__setattr__(self, "edge_labels", self.alphabet | markers)

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

    def __post_init__(self):
        super().__post_init__()
        _check(SILENT not in self.edge_labels, "deterministic automaton carries a silent transition")
        moves = {(p, lab) for p, lab, _ in self.transitions}
        _check(len(moves) == len(self.transitions), "duplicate move for a (state, label) pair")

    @cached_property
    def step(self) -> dict[tuple[int, Label], int]:
        """Partial transition function ``(state, label) -> state``."""
        return {(p, lab): q for p, lab, q in self.transitions}


def empty_language_automaton(
    alphabet: Iterable[Label] = (), short_circuited: bool = False
) -> Dfa:
    """Canonical automaton of the empty language: one state, nothing else."""
    return Dfa(1, frozenset(alphabet), frozenset(), 0, frozenset(), short_circuited)


def is_deterministic(a: Nfa) -> bool:
    """True iff ``a`` has no silent move and no label with two successors."""
    moves = {(p, lab) for p, lab, _ in a.transitions}
    return SILENT not in a.edge_labels and len(moves) == len(a.transitions)


def as_dfa(a: Nfa) -> Dfa:
    """Reinterpret a deterministic Nfa as a Dfa (validates determinism)."""
    if isinstance(a, Dfa):
        return a
    return Dfa(a.state_count, a.alphabet, a.transitions, a.start, a.accepts, a.short_circuited)


def silent_closure(a: Nfa, states: Iterable[int]) -> frozenset[int]:
    """Smallest superset of ``states`` closed under silent transitions."""
    closed = set(states)
    queue = deque(closed)
    while queue:
        p = queue.popleft()
        for q in a.moves.get((p, SILENT), ()):
            if q not in closed:
                closed.add(q)
                queue.append(q)
    return frozenset(closed)


def determinize(a: Nfa) -> Dfa:
    """Rabin-Scott powerset construction, extended with silent closures.

    Only subset states reachable from the closure of the start state are
    materialised; subsets are canonicalised as sorted tuples and discovered
    breadth-first, so the result is reproducible.
    """
    labels = sorted(a.alphabet, key=sort_key)
    if a.short_circuited:
        labels.append(CHI)
    start = tuple(sorted(silent_closure(a, [a.start])))
    index: dict[tuple[int, ...], int] = {start: 0}
    queue = deque([start])
    transitions: set[Transition] = set()
    accepts: set[int] = set()
    while queue:
        subset = queue.popleft()
        here = index[subset]
        if any(q in a.accepts for q in subset):
            accepts.add(here)
        for lab in labels:
            targets: set[int] = set()
            for p in subset:
                targets.update(a.moves.get((p, lab), ()))
            if not targets:
                continue
            closed = tuple(sorted(silent_closure(a, targets)))
            if closed not in index:
                index[closed] = len(index)
                queue.append(closed)
            transitions.add((here, lab, index[closed]))
    return Dfa(len(index), a.alphabet, frozenset(transitions), 0, frozenset(accepts), a.short_circuited)


def _reachable(a: Nfa) -> set[int]:
    seen = {a.start}
    queue = deque(seen)
    forward: dict[int, list[int]] = {}
    for p, _, q in a.transitions:
        forward.setdefault(p, []).append(q)
    while queue:
        p = queue.popleft()
        for q in forward.get(p, ()):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def _coaccessible(a: Nfa) -> set[int]:
    seen = set(a.accepts)
    queue = deque(seen)
    backward: dict[int, list[int]] = {}
    for p, _, q in a.transitions:
        backward.setdefault(q, []).append(p)
    while queue:
        q = queue.popleft()
        for p in backward.get(q, ()):
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def is_trim(a: Nfa) -> bool:
    """Every state useful, or the canonical empty-language automaton."""
    if not a.accepts:
        return a.state_count == 1 and not a.transitions
    full = set(range(a.state_count))
    return _reachable(a) == full and _coaccessible(a) == full


def trim(a: Nfa) -> Nfa:
    """Drop states that are unreachable or cannot reach an accept state.

    The language is preserved.  If nothing useful remains the canonical
    empty-language automaton (over the same alphabet) is returned; an
    already-trim automaton is returned unchanged.
    """
    keep = _reachable(a) & _coaccessible(a)
    if a.start not in keep:
        if isinstance(a, Dfa):
            return empty_language_automaton(a.alphabet, a.short_circuited)
        return Nfa(1, a.alphabet, frozenset(), 0, frozenset(), a.short_circuited)
    if len(keep) == a.state_count:
        return a
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    transitions = frozenset(
        (remap[p], lab, remap[q]) for p, lab, q in a.transitions if p in keep and q in keep
    )
    accepts = frozenset(remap[q] for q in a.accepts if q in keep)
    return type(a)(len(order), a.alphabet, transitions, remap[a.start], accepts, a.short_circuited)


def canonicalize(d: Dfa) -> Dfa:
    """Renumber states breadth-first, exploring labels in sorted order.

    Language-equal minimal automata become structurally identical, which is
    what the test suites use as their isomorphism check.  States unreachable
    from the start are dropped.
    """
    labels = sorted(d.edge_labels, key=sort_key)
    remap = {d.start: 0}
    queue = deque([d.start])
    while queue:
        p = queue.popleft()
        for lab in labels:
            q = d.step.get((p, lab))
            if q is not None and q not in remap:
                remap[q] = len(remap)
                queue.append(q)
    transitions = frozenset(
        (remap[p], lab, remap[q]) for p, lab, q in d.transitions if p in remap and q in remap
    )
    accepts = frozenset(remap[q] for q in d.accepts if q in remap)
    return Dfa(len(remap), d.alphabet, transitions, 0, accepts, d.short_circuited)


def minimize(d: Dfa) -> Dfa:
    """Minimal trim DFA for ``L(d)`` (Hopcroft partition refinement).

    The transition function stays partial; missing moves act as an implicit
    dead state during refinement but are never materialised.  The output is
    canonically numbered, so language-equal inputs minimise to structurally
    identical automata.
    """
    t = as_dfa(trim(d))
    if not t.accepts:
        return t
    labels = sorted(t.edge_labels, key=sort_key)
    sink = t.state_count
    states = range(t.state_count)

    predecessors: dict[Label, dict[int, list[int]]] = {lab: {} for lab in labels}
    for lab in labels:
        by_target = predecessors[lab]
        for p in states:
            q = t.step.get((p, lab), sink)
            by_target.setdefault(q, []).append(p)
        by_target.setdefault(sink, []).append(sink)

    accepting = frozenset(t.accepts)
    rest = frozenset(set(states) - t.accepts | {sink})
    partition: set[frozenset[int]] = {accepting} | ({rest} if rest else set())
    block_of: dict[int, frozenset[int]] = {}
    for block in partition:
        for q in block:
            block_of[q] = block
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
            partition.remove(block)
            partition.add(part_in)
            partition.add(part_out)
            for q in part_in:
                block_of[q] = part_in
            for q in part_out:
                block_of[q] = part_out
            for any_lab in labels:
                if (block, any_lab) in worklist:
                    worklist.remove((block, any_lab))
                    worklist.add((part_in, any_lab))
                    worklist.add((part_out, any_lab))
                else:
                    smaller = part_in if len(part_in) <= len(part_out) else part_out
                    worklist.add((smaller, any_lab))

    sink_block = block_of[sink]
    live_blocks = [block for block in partition if block is not sink_block]
    number = {block: i for i, block in enumerate(live_blocks)}
    transitions: set[Transition] = set()
    for block in live_blocks:
        representative = next(iter(block))
        for lab in labels:
            q = t.step.get((representative, lab))
            if q is not None and block_of[q] is not sink_block:
                transitions.add((number[block], lab, number[block_of[q]]))
    accepts = frozenset(number[block] for block in live_blocks if block & t.accepts)
    quotient = Dfa(
        len(live_blocks),
        t.alphabet,
        frozenset(transitions),
        number[block_of[t.start]],
        accepts,
        t.short_circuited,
    )
    return canonicalize(quotient)


def short_circuit(d: Dfa) -> Dfa:
    """Add a chi transition from every accept state back to the start.

    Turns ``L`` into ``(L . {chi})* . L``; for a trim automaton with a
    nonempty language the result is ergodic.  The empty-language automaton is
    returned unchanged because there is no accept state to loop from.
    """
    if d.short_circuited or CHI in d.alphabet:
        raise ValueError("automaton is already short-circuited")
    if not is_trim(d):
        raise ValueError("short_circuit requires a trim automaton")
    if not d.accepts:
        return d
    loops = {(q, CHI, d.start) for q in d.accepts}
    return Dfa(
        d.state_count,
        d.alphabet | {CHI},
        d.transitions | loops,
        d.start,
        d.accepts,
        short_circuited=True,
    )


def intersect(x: Dfa, y: Dfa) -> Dfa:
    """Trim product automaton recognising ``L(x) & L(y)``.

    Moves exist only for labels both operands can fire; labels unique to one
    alphabet therefore never contribute words.
    """
    if x.short_circuited or y.short_circuited:
        raise ValueError("intersection operands must not be short-circuited")
    common = sorted(x.alphabet & y.alphabet, key=sort_key)
    start = (x.start, y.start)
    index: dict[tuple[int, int], int] = {start: 0}
    queue = deque([start])
    transitions: set[Transition] = set()
    accepts: set[int] = set()
    while queue:
        pair = queue.popleft()
        px, py = pair
        here = index[pair]
        if px in x.accepts and py in y.accepts:
            accepts.add(here)
        for lab in common:
            qx = x.step.get((px, lab))
            qy = y.step.get((py, lab))
            if qx is None or qy is None:
                continue
            target = (qx, qy)
            if target not in index:
                index[target] = len(index)
                queue.append(target)
            transitions.add((here, lab, index[target]))
    product = Dfa(
        len(index), frozenset(common), frozenset(transitions), 0, frozenset(accepts)
    )
    return as_dfa(trim(product))


def is_included(x: Dfa, y: Dfa) -> bool:
    """True iff ``L(x)`` is a subset of ``L(y)``; ``x`` must be trim.

    Walks the state pairs reachable on the moves of ``x`` and stops at the
    first move or accept of ``x`` that ``y`` cannot match.  Every state of a
    trim ``x`` lies on an accepted word, so that mismatch is a word of
    ``L(x)`` outside ``L(y)``.
    """
    if not is_trim(x):
        raise ValueError("is_included requires a trim first operand")
    out: dict[int, list[tuple[Label, int]]] = {}
    for p, lab, q in x.transitions:
        out.setdefault(p, []).append((lab, q))
    start = (x.start, y.start)
    seen = {start}
    stack = [start]
    while stack:
        px, py = stack.pop()
        if px in x.accepts and py not in y.accepts:
            return False
        for lab, qx in out.get(px, ()):
            qy = y.step.get((py, lab))
            if qy is None:
                return False
            if (qx, qy) not in seen:
                seen.add((qx, qy))
                stack.append((qx, qy))
    return True


def is_ergodic(a: Nfa) -> bool:
    """True iff the transition graph is strongly connected, labels ignored."""
    if a.state_count == 1:
        return True
    forward: dict[int, set[int]] = {}
    backward: dict[int, set[int]] = {}
    for p, _, q in a.transitions:
        forward.setdefault(p, set()).add(q)
        backward.setdefault(q, set()).add(p)

    def sweep(adj: dict[int, set[int]]) -> int:
        seen = {0}
        queue = deque(seen)
        while queue:
            p = queue.popleft()
            for q in adj.get(p, ()):
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return len(seen)

    return sweep(forward) == a.state_count and sweep(backward) == a.state_count


def _topological_order(d: Dfa) -> list[int] | None:
    """Reverse-reachability topological order, or None if a cycle exists."""
    indegree = [0] * d.state_count
    forward: dict[int, list[int]] = {}
    for p, _, q in d.transitions:
        indegree[q] += 1
        forward.setdefault(p, []).append(q)
    queue = deque(q for q in range(d.state_count) if indegree[q] == 0)
    order = []
    while queue:
        p = queue.popleft()
        order.append(p)
        for q in forward.get(p, ()):
            indegree[q] -= 1
            if indegree[q] == 0:
                queue.append(q)
    return order if len(order) == d.state_count else None


def has_finite_language(d: Dfa) -> bool:
    """True iff no directed cycle survives trimming."""
    return _topological_order(as_dfa(trim(d))) is not None


def count_words(d: Dfa) -> int:
    """Exact number of accepted words of a finite-language automaton."""
    t = as_dfa(trim(d))
    order = _topological_order(t)
    if order is None:
        raise InfiniteLanguageError("language is infinite: a cycle survives trimming")
    forward: dict[int, list[int]] = {}
    for p, _, q in t.transitions:
        forward.setdefault(p, []).append(q)
    words = [0] * t.state_count
    for p in reversed(order):
        total = 1 if p in t.accepts else 0
        for q in forward.get(p, ()):
            total += words[q]
        words[p] = total
    return words[t.start]


def count_words_of_length(d: Dfa, n: int) -> int:
    """Number of accepted words of exactly length ``n`` (exact integers)."""
    if n < 0:
        raise ValueError("word length must be non-negative")
    paths = [0] * d.state_count
    paths[d.start] = 1
    edges = [(p, q) for p, _, q in d.transitions]
    for _ in range(n):
        nxt = [0] * d.state_count
        for p, q in edges:
            if paths[p]:
                nxt[q] += paths[p]
        paths = nxt
    return sum(paths[q] for q in d.accepts)


def accepts(d: Dfa, word: Sequence[Label]) -> bool:
    """Replay ``word``; labels outside the alphabet simply fail to move."""
    state = d.start
    for lab in word:
        nxt = d.step.get((state, lab))
        if nxt is None:
            return False
        state = nxt
    return state in d.accepts
