"""Shared test machinery: independent language oracles and random generators.

The oracles here deliberately avoid the library's own algorithms: NFA
acceptance is a plain breadth-first replay over raw transition triples, so
determinization, minimization, and intersection can be checked against it.
"""

from __future__ import annotations

import itertools
import random
import xml.etree.ElementTree as ElementTree
from collections import deque
from typing import Iterable

import numpy as np

from entroscope import Dfa, EventLog, Label, Nfa, SparseMatrix, Trace, label
from entroscope.formats import RESERVED_LABEL, FormatError, _fail
from entroscope.labels import SILENT, sort_key

ABC = [label("a"), label("b"), label("c")]


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


def _step(a: Nfa, states: frozenset[int], lab: Label) -> frozenset[int]:
    """States after ``lab`` from ``states``, silent closure included."""
    return _closure(a, {dst for src, lab2, dst in a.transitions if src in states and lab2 == lab})


def nfa_accepts(a: Nfa, word: tuple[Label, ...]) -> bool:
    """Oracle acceptance: subset replay with silent closure, no powerset DFA."""
    current = _closure(a, {a.start})
    for lab in word:
        current = _step(a, current, lab)
        if not current:
            return False
    return bool(current & a.accepts)


def language_included(x: Nfa, y: Nfa) -> bool:
    """Oracle ``L(x) <= L(y)``: a breadth-first search for a word of ``x`` that ``y`` rejects.

    Each word is replayed on both automata by subset replay.  Words that
    leave both in the same state sets have the same futures, so only the
    first of them is extended; there are finitely many such pairs of sets.
    """
    alphabet = sorted(x.alphabet, key=sort_key)
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


def bounded_words(alphabet: list[Label], max_len: int):
    """All words over ``alphabet`` of length 0..max_len, shortest first."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def bounded_language_nfa(a: Nfa, alphabet: list[Label], max_len: int) -> set[tuple[Label, ...]]:
    """Accepted word set up to ``max_len`` via subset replay over the word tree."""
    accepted: set[tuple[Label, ...]] = set()
    start = _closure(a, {a.start})
    frontier: list[tuple[tuple[Label, ...], frozenset[int]]] = [((), start)]
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


def bounded_language_dfa(d: Dfa, max_len: int) -> set[tuple[Label, ...]]:
    """Accepted word set up to ``max_len`` by replaying the transitions."""
    accepted: set[tuple[Label, ...]] = set()
    frontier: list[tuple[tuple[Label, ...], int]] = [((), d.start)]
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


def product_rows(x: Dfa, y: Dfa) -> tuple[list[dict[Label, int]], list[int], bool, bool]:
    """Reference product walk: ``Dfa.rows`` and accept states of the trim product, and two flags.

    One pair at a time: pairs, coded as ``px * y.state_count + py``, are
    numbered breadth-first in a dict, with labels in sorted order.  Pairs
    that reach no accepting pair are dropped and the rest keep their order;
    a dead start leaves one state with no move.  The flags are ``L(x) <=
    L(y)`` and ``L(y) <= L(x)``: the first is false once a reached pair has
    an accept or a move of ``x`` that ``y`` cannot match, and the second
    likewise.
    """
    width, x_rows, y_rows = y.state_count, x.rows, y.rows
    start = x.start * width + y.start
    index = {start: 0}
    pairs = [start]
    rows: list[dict[Label, int]] = []
    backward: list[list[int]] = [[]]
    accepting: list[int] = []
    x_in_y = y_in_x = True
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
        y_in_x = y_in_x and in_x >= in_y and len(row) == len(y_row)
    live = set(accepting)
    stack = list(live)
    while stack:
        for p in backward[stack.pop()]:
            if p not in live:
                live.add(p)
                stack.append(p)
    if 0 not in live:
        return [{}], [], x_in_y, y_in_x
    keep = sorted(live)
    number = {old: new for new, old in enumerate(keep)}
    rows = [{lab: number[q] for lab, q in rows[p].items() if q in number} for p in keep]
    return rows, [number[p] for p in accepting], x_in_y, y_in_x


def _local_name(tag: str) -> str:
    return tag.rpartition("}")[2]


def tree_read_xes(text: str) -> EventLog:
    """Oracle XES reader: the whole element tree first, then its traces in document order."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise FormatError(f"XML parse error: {exc}") from None
    traces: list[Trace] = []
    trace_elements = [el for el in root.iter() if _local_name(el.tag) == "trace"]
    for t_index, trace_el in enumerate(trace_elements):
        events: list[Label] = []
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
            if name == RESERVED_LABEL:
                _fail(f"trace {t_index}", f"{RESERVED_LABEL!r} is reserved")
            events.append(label(name))
        traces.append(Trace(tuple(events)))
    return EventLog(traces)


def all_words_of_length(n: int, width: int = 26) -> tuple[Dfa, list[Label]]:
    """A chain of ``n + 1`` states accepting every word of length ``n`` over ``width`` labels."""
    labels = [label(f"l{i:02d}") for i in range(width)]
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


def random_trace(rng: random.Random, alphabet: list[Label], max_len: int = 5) -> Trace:
    return Trace(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))


def random_log(
    rng: random.Random,
    alphabet: list[Label] | None = None,
    max_traces: int = 5,
    max_len: int = 5,
) -> EventLog:
    alphabet = alphabet or ABC
    traces = [
        random_trace(rng, alphabet, max_len) for _ in range(rng.randint(0, max_traces))
    ]
    return EventLog(traces)


def word_log(words: list[str]) -> EventLog:
    """Log of single-character-event traces, one instance per word."""
    return EventLog([Trace.of(*word) for word in words])


def sparse_matrix(order: int, entries: Iterable[tuple[int, int, int]]) -> SparseMatrix:
    """``SparseMatrix.from_moves`` of ``weight`` moves from ``row`` to ``col`` per entry."""
    moves = [(row, col) for row, col, weight in entries for _ in range(weight)]
    sources, targets = np.array(moves, dtype=np.intp).reshape(-1, 2).T
    return SparseMatrix.from_moves(order, sources, targets)


def dense_matrix(rows: list[list[int]]) -> SparseMatrix:
    """``sparse_matrix`` of a dense row-major listing."""
    entries = ((i, j, w) for i, row in enumerate(rows) for j, w in enumerate(row))
    return sparse_matrix(len(rows), entries)


def sorted_words(words) -> list[tuple[Label, ...]]:
    return sorted(words, key=lambda w: (len(w), [sort_key(lab) for lab in w]))
