"""Event logs: finite multisets of traces, and their automaton encoding."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .automata import Dfa, canonicalize, empty_language_automaton
from .labels import CHI, SILENT, Label, label, sort_key


@dataclass(frozen=True)
class Trace:
    """One recorded execution: a finite sequence of observable labels."""

    events: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for lab in self.events:
            if lab == SILENT or lab == CHI:
                raise ValueError("invariant violated: reserved marker inside a trace")

    @classmethod
    def of(cls, *names: str) -> Trace:
        """Build a trace by interning event names."""
        return cls(tuple(label(name) for name in names))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.events)


class EventLog:
    """Finite multiset of traces; multiplicities are positive integers."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Trace, int] | Iterable[Trace] = ()):
        counts: dict[Trace, int] = {}
        if isinstance(entries, Mapping):
            for trace, mult in entries.items():
                try:  # any integer, numpy's included, but no bool
                    count = 0 if isinstance(mult, bool) else operator.index(mult)
                except TypeError:
                    count = 0
                if count < 1:
                    raise ValueError("invariant violated: multiplicity must be a positive integer")
                counts[trace] = counts.get(trace, 0) + count
        else:
            for trace in entries:
                counts[trace] = counts.get(trace, 0) + 1
        self._entries = counts

    @property
    def entries(self) -> Mapping[Trace, int]:
        return dict(self._entries)

    @property
    def total_count(self) -> int:
        """Number of recorded trace instances, multiplicities included."""
        return sum(self._entries.values())

    def __iter__(self) -> Iterator[tuple[Trace, int]]:
        return iter(self._entries.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EventLog) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"EventLog({self.total_count} traces, {len(self._entries)} distinct)"


def multiplicity(log: EventLog, trace: Trace) -> int:
    """How many times ``trace`` was recorded; 0 if absent."""
    return log._entries.get(trace, 0)


def union(x: EventLog, y: EventLog) -> EventLog:
    """Multiset union: multiplicities add per trace."""
    counts = dict(x._entries)
    for trace, mult in y._entries.items():
        counts[trace] = counts.get(trace, 0) + mult
    return EventLog(counts)


def distinct_language(log: EventLog) -> frozenset[Trace]:
    """The language of the log: every trace that occurs at least once."""
    return frozenset(log._entries)


def log_alphabet(log: EventLog) -> frozenset[Label]:
    """Labels occurring in at least one trace."""
    return frozenset(lab for trace in log._entries for lab in trace)


def prefix_tree_acceptor(log: EventLog) -> Dfa:
    """Acyclic DFA accepting exactly the distinct traces of the log.

    States are the distinct trace prefixes, shared along the tree; the
    result is canonically numbered breadth-first.
    """
    traces = sorted(
        distinct_language(log), key=lambda t: tuple(sort_key(lab) for lab in t)
    )
    if not traces:
        return empty_language_automaton()
    children: dict[tuple[int, Label], int] = {}
    accepts: set[int] = set()
    count = 1
    for trace in traces:
        node = 0
        for lab in trace:
            nxt = children.get((node, lab))
            if nxt is None:
                nxt = count
                count += 1
                children[(node, lab)] = nxt
            node = nxt
        accepts.add(node)
    tree = Dfa(
        count,
        log_alphabet(log),
        frozenset((p, lab, q) for (p, lab), q in children.items()),
        0,
        frozenset(accepts),
    )
    return canonicalize(tree)
