"""Shared test machinery: independent language oracles and random generators.

The oracles here deliberately avoid the library's own algorithms: an NFA
replays a word as a plain set of states over raw transition triples, so
determinization, minimization, and intersection can be checked against it.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
import xml.etree.ElementTree as ElementTree
from collections import Counter, deque
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from entroscope import CHI, SILENT, Dfa, EventLog, Moves, Nfa, prefix_tree_acceptor
from entroscope.formats import FormatError, _fail
from entroscope.spectral import EigenResult

ABC = ["a", "b", "c"]


def _closure(a: Nfa, states: set[int]) -> frozenset[int]:
    seen = set(states)
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for src, lab, dst in a.transitions:
            if src == p and lab == SILENT and dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return frozenset(seen)


def _step(a: Nfa, states: frozenset[int], lab: str) -> frozenset[int]:
    """States after ``lab`` from ``states``, silent closure included."""
    return _closure(a, {dst for src, lab2, dst in a.transitions if src in states and lab2 == lab})


def language_included(x: Nfa, y: Nfa) -> bool:
    """Oracle ``L(x) <= L(y)``: a breadth-first search for a word of ``x`` that ``y`` rejects.

    Each word is replayed on both automata by subset replay.  Words that
    leave both in the same state sets have the same futures, so only the
    first of them is extended; there are finitely many such pairs of sets.
    """
    alphabet = sorted(x.alphabet)
    first = (_closure(x, {x.start}), _closure(y, {y.start}))
    seen = {first}
    queue = deque(seen)
    while queue:
        in_x, in_y = queue.popleft()
        if in_x & x.accepts and not in_y & y.accepts:
            return False
        for lab in alphabet:
            after = _step(x, in_x, lab), _step(y, in_y, lab)
            if after[0] and after not in seen:
                seen.add(after)
                queue.append(after)
    return True


def subset_dfa(a: Nfa) -> Dfa:
    """Oracle powerset construction over frozensets of states, breadth-first.

    Subset replay over the raw triples: state 0 is the start's silent
    closure, each state's moves are found in sorted label order, and each new
    nonempty set is numbered when first reached.  The empty set is no state.
    """
    first = _closure(a, {a.start})
    index = {first: 0}
    subsets = [first]
    transitions = set()
    for p, subset in enumerate(subsets):  # ``subsets`` grows as sets are found
        for lab in sorted(a.alphabet):
            after = _step(a, subset, lab)
            if after:
                if after not in index:
                    index[after] = len(subsets)
                    subsets.append(after)
                transitions.add((p, lab, index[after]))
    accepts = {p for p, subset in enumerate(subsets) if subset & a.accepts}
    return Dfa(len(subsets), a.alphabet, frozenset(transitions), 0, frozenset(accepts))


def nerode_classes(a: Nfa) -> int:
    """Oracle count of the Myhill-Nerode classes of ``L(a)`` whose words have a future.

    Subset replay over the raw triples builds the complete DFA of the
    reachable state sets; the empty set, once reached, is its dead state.
    Moore refinement then splits those sets by acceptance and by the classes
    of their successors until the number of classes stops growing.  The dead
    class, of sets that reach no accept state, is not counted: the result is
    the state count of a minimal trim DFA, and 0 for the empty language.
    """
    alphabet = sorted(a.alphabet)
    first = _closure(a, {a.start})
    index = {first: 0}
    subsets = [first]
    table: list[list[int]] = []
    for subset in subsets:  # ``subsets`` grows as sets are found
        row = []
        for lab in alphabet:
            after = _step(a, subset, lab)
            if after not in index:
                index[after] = len(subsets)
                subsets.append(after)
            row.append(index[after])
        table.append(row)
    live = {p for p, subset in enumerate(subsets) if subset & a.accepts}
    grown = True
    while grown:
        before = len(live)
        live |= {p for p, row in enumerate(table) if not live.isdisjoint(row)}
        grown = len(live) > before
    classes = [int(bool(subset & a.accepts)) for subset in subsets]
    while True:
        signatures = [(classes[p], *(classes[q] for q in row)) for p, row in enumerate(table)]
        number = {signature: i for i, signature in enumerate(dict.fromkeys(signatures))}
        if len(number) == len(set(classes)):
            break
        classes = [number[signature] for signature in signatures]
    return len({classes[p] for p in live})


def reachable(a: Nfa, seeds: Iterable[int], backward: bool = False) -> set[int]:
    """Oracle: the seeds and every state reachable from them along raw triples.

    A breadth-first search that scans every triple at each step.  It follows
    moves forward, or against their direction if ``backward``, so that it
    finds the states that reach a seed.  Labels, silent ones included, are
    ignored.
    """
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for src, _, dst in a.transitions:
            here, there = (dst, src) if backward else (src, dst)
            if here == p and there not in seen:
                seen.add(there)
                queue.append(there)
    return seen


def reaching(order: int, moves: Iterable[tuple[int, int]], seeds: Iterable[int]) -> list[bool]:
    """Oracle: per state ``0 .. order-1``, whether it reaches a seed along ``(from, to)`` moves.

    A depth-first search backward from the seeds over Python lists of
    predecessors, one entry per move, so repeated moves are simply repeated.
    """
    before: list[list[int]] = [[] for _ in range(order)]
    for p, q in moves:
        before[q].append(p)
    live = [False] * order
    stack = list(seeds)
    for q in stack:
        live[q] = True
    while stack:
        for p in before[stack.pop()]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    return live


def short_circuit_radius(a: Nfa) -> float:
    """Oracle eig measure of ``L(a)``: the largest ``|eigenvalue|`` of a dense short-circuit matrix.

    Every state of ``subset_dfa(a)`` is reachable, so keeping those that
    reach an accept state trims it.  The matrix counts the moves between
    kept states, plus one move from each accept state back to the start,
    and numpy's dense ``eigvals`` gives its spectrum.  A dead start leaves
    no state, and the empty language measures 0.
    """
    d = subset_dfa(a)
    live = sorted(reachable(d, d.accepts, backward=True))
    if d.start not in live:
        return 0.0
    number = {p: i for i, p in enumerate(live)}
    matrix = np.zeros((len(live), len(live)))
    for p, _, q in d.transitions:
        if p in number and q in number:
            matrix[number[p], number[q]] += 1
    for p in d.accepts:
        matrix[number[p], number[d.start]] += 1
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def bounded_words(alphabet: list[str], max_len: int):
    """All words over ``alphabet`` of length 0..max_len, shortest first."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def bounded_language_nfa(a: Nfa, alphabet: list[str], max_len: int) -> set[tuple[str, ...]]:
    """Accepted word set up to ``max_len`` via subset replay over the word tree."""
    accepted: set[tuple[str, ...]] = set()
    start = _closure(a, {a.start})
    frontier: list[tuple[tuple[str, ...], frozenset[int]]] = [((), start)]
    if start & a.accepts:
        accepted.add(())
    for _ in range(max_len):
        nxt = []
        for word, states in frontier:
            for lab in alphabet:
                closed = _step(a, states, lab)
                if not closed:
                    continue
                grown = word + (lab,)
                if closed & a.accepts:
                    accepted.add(grown)
                nxt.append((grown, closed))
        frontier = nxt
    return accepted


def bounded_language_dfa(d: Dfa, max_len: int) -> set[tuple[str, ...]]:
    """Accepted word set up to ``max_len`` by replaying the transitions."""
    accepted: set[tuple[str, ...]] = set()
    frontier: list[tuple[tuple[str, ...], int]] = [((), d.start)]
    if d.start in d.accepts:
        accepted.add(())
    for _ in range(max_len):
        nxt = []
        for word, state in frontier:
            for src, lab, dst in d.transitions:
                if src != state:
                    continue
                grown = word + (lab,)
                if dst in d.accepts:
                    accepted.add(grown)
                nxt.append((grown, dst))
        frontier = nxt
    return accepted


def count_words_of_length(d: Dfa, n: int) -> int:
    """Oracle word count of exactly length ``n``: paths pushed along the raw triples.

    It takes a step per length rather than an order of the states, so it
    counts the words of a cyclic automaton as well.
    """
    paths = [0] * d.state_count
    paths[d.start] = 1
    for _ in range(n):
        nxt = [0] * d.state_count
        for p, _, q in d.transitions:
            nxt[q] += paths[p]
        paths = nxt
    return sum(paths[q] for q in d.accepts)


def kahn_order(forward: list[list[int]]) -> list[int] | None:
    """Oracle topological order of all states of a graph given by successor lists.

    Kahn's algorithm: in-degrees first, then states as they lose their last
    predecessor.  None if a cycle leaves some state with a predecessor.
    """
    indegree = [0] * len(forward)
    for targets in forward:
        for q in targets:
            indegree[q] += 1
    order = [q for q, degree in enumerate(indegree) if degree == 0]
    for p in order:  # ``order`` grows as states lose their last predecessor
        for q in forward[p]:
            indegree[q] -= 1
            if indegree[q] == 0:
                order.append(q)
    return order if len(order) == len(forward) else None


def product_rows(x: Dfa, y: Dfa) -> tuple[list[dict[str, int]], list[int], bool]:
    """Reference product walk: ``Dfa.rows`` and accept states of the trim product, and a flag.

    One pair at a time: pairs, coded as ``px * y.state_count + py``, are
    numbered breadth-first in a dict, with labels in sorted order.  Pairs
    that reach no accepting pair are dropped and the rest keep their order;
    a dead start leaves one state with no move.  The flag is ``L(x) <=
    L(y)``: it is false once a reached pair has an accept or a move of ``x``
    that ``y`` cannot match.
    """
    width, x_rows, y_rows = y.state_count, x.rows, y.rows
    start = x.start * width + y.start
    index = {start: 0}
    pairs = [start]
    rows: list[dict[str, int]] = []
    backward: list[list[int]] = [[]]
    accepting: list[int] = []
    x_in_y = True
    for here, pair in enumerate(pairs):  # ``pairs`` grows as pairs are found
        px, py = divmod(pair, width)
        in_x, in_y = px in x.accepts, py in y.accepts
        if in_x and in_y:
            accepting.append(here)
        x_row, y_row = x_rows[px], y_rows[py]
        row = {}
        for lab, qx in x_row.items():
            qy = y_row.get(lab)
            if qy is not None:
                target = qx * width + qy
                there = index.get(target)
                if there is None:
                    there = index[target] = len(pairs)
                    pairs.append(target)
                    backward.append([])
                row[lab] = there
                backward[there].append(here)
        rows.append(row)
        x_in_y = x_in_y and in_y >= in_x and len(row) == len(x_row)
    live = set(accepting)
    stack = list(live)
    while stack:
        for p in backward[stack.pop()]:
            if p not in live:
                live.add(p)
                stack.append(p)
    if 0 not in live:
        return [{}], [], x_in_y
    keep = sorted(live)
    number = {old: new for new, old in enumerate(keep)}
    rows = [{lab: number[q] for lab, q in rows[p].items() if q in number} for p in keep]
    return rows, [number[p] for p in accepting], x_in_y


def _local_name(tag: str) -> str:
    return tag.rpartition("}")[2]


def tree_read_xes(text: str) -> EventLog:
    """Oracle XES reader: the whole element tree first, then its traces in document order."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise FormatError(f"XML parse error: {exc}") from None
    traces: list[tuple[str, ...]] = []
    trace_elements = [el for el in root.iter() if _local_name(el.tag) == "trace"]
    for t_index, trace_el in enumerate(trace_elements):
        events: list[str] = []
        for event_el in trace_el:
            if _local_name(event_el.tag) != "event":
                continue
            name = lifecycle = None
            for attr in event_el:
                if _local_name(attr.tag) == "string":
                    key = attr.get("key")
                    if key == "concept:name" and name is None:
                        name = attr.get("value")
                    elif key == "lifecycle:transition":
                        lifecycle = attr.get("value")
            if lifecycle is not None and lifecycle.lower() != "complete":
                continue
            if name is None:
                _fail(f"trace {t_index}", "event missing a concept:name attribute")
            if name == "":
                _fail(f"trace {t_index}", "event with an empty concept:name attribute")
            if name == CHI:
                _fail(f"trace {t_index}", f"{CHI!r} is reserved")
            events.append(name)
        traces.append(tuple(events))
    return EventLog(traces)


def all_words_of_length(n: int, width: int = 26) -> tuple[Dfa, list[str]]:
    """A chain of ``n + 1`` states accepting every word of length ``n`` over ``width`` labels."""
    labels = [f"l{i:02d}" for i in range(width)]
    moves = {(i, lab, i + 1) for i in range(n) for lab in labels}
    return Dfa(n + 1, frozenset(labels), frozenset(moves), 0, frozenset({n})), labels


def random_nfa(
    rng: random.Random,
    max_states: int = 8,
    alphabet_size: int = 3,
    allow_silent: bool = True,
) -> Nfa:
    n = rng.randint(1, max_states)
    alphabet = ABC[:alphabet_size]
    edge_count = rng.randint(0, 2 * n)
    labels = list(alphabet) + ([SILENT] if allow_silent else [])
    transitions = set()
    for _ in range(edge_count):
        transitions.add((rng.randrange(n), rng.choice(labels), rng.randrange(n)))
    accepts = frozenset(q for q in range(n) if rng.random() < 0.35)
    return Nfa(n, frozenset(alphabet), frozenset(transitions), 0, accepts)


def random_dfa(
    rng: random.Random,
    max_states: int = 8,
    alphabet_size: int = 3,
    move_probability: float = 0.55,
) -> Dfa:
    n = rng.randint(1, max_states)
    alphabet = ABC[:alphabet_size]
    transitions = set()
    for p in range(n):
        for lab in alphabet:
            if rng.random() < move_probability:
                transitions.add((p, lab, rng.randrange(n)))
    accepts = frozenset(q for q in range(n) if rng.random() < 0.35)
    return Dfa(n, frozenset(alphabet), frozenset(transitions), 0, accepts)


def random_trace(rng: random.Random, alphabet: list[str], max_len: int = 5) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_log(
    rng: random.Random,
    alphabet: list[str] | None = None,
    max_traces: int = 5,
    max_len: int = 5,
) -> EventLog:
    alphabet = alphabet or ABC
    traces = [
        random_trace(rng, alphabet, max_len) for _ in range(rng.randint(0, max_traces))
    ]
    return EventLog(traces)


def looped_prefix_tree(rng: random.Random, traces: int) -> Dfa:
    """A mined specification's shape: a prefix tree that loops back to its root.

    The tree is that of ``traces`` random traces of 3 to 30 events over 12
    labels, and a ``restart`` move leads from each accept state to the root,
    so the language is infinite.
    """
    labels = [f"e{i:02d}" for i in range(12)]
    log = EventLog(
        [tuple(rng.choice(labels) for _ in range(rng.randint(3, 30))) for _ in range(traces)]
    )
    tree = prefix_tree_acceptor(log)
    loops = {(q, "restart", tree.start) for q in tree.accepts}
    alphabet = tree.alphabet | {"restart"}
    return Dfa(tree.state_count, alphabet, tree.transitions | loops, tree.start, tree.accepts)


def empty_language_automaton(alphabet: Iterable[str] = ()) -> Dfa:
    """Canonical automaton of the empty language over ``alphabet``: one state, nothing else."""
    return Dfa(1, frozenset(alphabet), frozenset(), 0, frozenset())


def multiplicity(log: EventLog, trace: tuple[str, ...]) -> int:
    """How many times ``trace`` was recorded, read from the log's ``(trace, count)`` pairs."""
    return dict(log).get(trace, 0)


def union(x: EventLog, y: EventLog) -> EventLog:
    """Multiset union: multiplicities add per trace."""
    return EventLog(Counter(dict(x)) + Counter(dict(y)))


def word_log(words: list[str]) -> EventLog:
    """Log of single-character-event traces, one instance per word."""
    return EventLog([tuple(word) for word in words])


def sparse_matrix(order: int, entries: Iterable[tuple[int, int, int]]) -> Moves:
    """Move table of ``weight`` moves from ``row`` to ``col`` per entry, with no accept state.

    Parallel moves get distinct columns, so the table is deterministic; its
    matrix, as ``perron_frobenius`` counts it, has the entries given.
    """
    moves = sorted((row, col) for row, col, weight in entries for _ in range(weight))
    degree = Counter(row for row, _ in moves)
    columns = [k for row in range(order) for k in range(degree[row])]
    sources, targets = np.array(moves, dtype=np.intp).reshape(-1, 2).T
    return Moves(
        [str(k) for k in range(max(degree.values(), default=0))],
        np.array([0, *itertools.accumulate(degree[row] for row in range(order))], dtype=np.intp),
        sources,
        np.array(columns, dtype=np.intp),
        targets,
        np.array([], dtype=np.intp),
    )


def dense_matrix(rows: list[list[int]]) -> Moves:
    """``sparse_matrix`` of a dense row-major listing."""
    entries = ((i, j, w) for i, row in enumerate(rows) for j, w in enumerate(row))
    return sparse_matrix(len(rows), entries)


def matrix_entries(m: Moves) -> list[tuple[int, int, int]]:
    """The ``(row, col, count)`` triples of the matrix that ``perron_frobenius`` solves for ``m``.

    Each counts the moves from ``row`` to ``col``, plus the loop-back from an
    accepting ``row`` to the start; they come in ``(row, col)`` order.
    """
    counts = Counter(zip(m.sources.tolist(), m.targets.tolist()))
    counts.update((p, m.start) for p in m.accepting.tolist())
    return sorted((p, q, w) for (p, q), w in counts.items())


def sorted_words(words) -> list[tuple[str, ...]]:
    return sorted(words, key=lambda w: (len(w), w))


def reference_length_profile_eigenvalue(profile: Mapping[int, int]) -> EigenResult:
    """The plain bisection: the rounded sum is evaluated at every midpoint.

    ``length_profile_eigenvalue`` must return exactly this, field by field;
    it skips only the sums whose sign its certified window already gives.
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
    return EigenResult(2.0**log_r / hi, steps, True, hi / lo - 1.0)


def reference_event_log(entries) -> dict:
    """The counts ``EventLog(entries)`` holds, each event of each trace checked by type and ``in``.

    Raises ``ValueError`` with ``EventLog``'s messages, for the first bad
    trace or multiplicity in entry order.
    """
    counts: dict = {}
    pairs = entries.items() if isinstance(entries, Mapping) else zip(entries, repeat(1))
    for trace, mult in pairs:
        if not (
            isinstance(trace, tuple)
            and all(map(isinstance, trace, repeat(str)))
            and SILENT not in trace
            and CHI not in trace
        ):
            raise ValueError(
                "invariant violated: log entries must be traces, tuples of unreserved labels"
            )
        try:  # any integer, numpy's included, but no bool
            count = 0 if isinstance(mult, bool) else operator.index(mult)
        except TypeError:
            count = 0
        if count < 1:
            raise ValueError("invariant violated: multiplicity must be a positive integer")
        counts[trace] = counts.get(trace, 0) + count
    return counts


def reference_read_log(text: str) -> EventLog:
    """``read_log`` as it was when it checked each distinct line itself.

    It tests every distinct line for a reserved event before ``EventLog``
    sees the traces, so its logs and its positioned messages are an oracle
    for a reader that leaves the check to ``EventLog``.
    """
    lines = text.splitlines()
    traces: dict[tuple[str, ...], int] = {}
    for line, mult in Counter(lines).items():
        if line.startswith("#"):
            continue
        events = tuple(line.split(" ")) if line else ()
        if SILENT in events or CHI in events:
            pos = next(i for i, token in enumerate(events) if token in (SILENT, CHI))
            problem = f"{CHI!r} is reserved" if events[pos] else "empty event name (double space?)"
            _fail(f"line {lines.index(line) + 1}, event {pos + 1}", problem)
        traces[events] = mult
    return EventLog(traces)


class LookAlike:
    """An event that is no ``str`` but hashes and compares equal to one."""

    def __init__(self, text: str):
        self.text = text

    def __hash__(self) -> int:
        return hash(self.text)

    def __eq__(self, other: object) -> bool:
        return other == self.text
