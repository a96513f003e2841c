"""Event logs: finite multisets of traces, and their automaton encoding.

A trace is a tuple of ``str`` labels.  Neither reserved label string, the
silent ``SILENT`` (``""``) nor the short-circuit ``CHI`` (``"__chi__"``),
can occur in one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .automata import CHI, SILENT, Dfa, _explore


@dataclass(frozen=True)
class Trace:
    """One recorded execution: a finite sequence of observable labels."""

    events: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if SILENT in self.events or CHI in self.events:
            raise ValueError("invariant violated: reserved marker inside a trace")

    @classmethod
    def of(cls, *names: str) -> Trace:
        """The trace of the event names ``names``."""
        return cls(names)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[str]:
        return iter(self.events)


class EventLog:
    """Finite multiset of ``Trace`` entries; multiplicities are positive integers."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Trace, int] | Iterable[Trace] = ()):
        counts: dict[Trace, int] = {}
        if isinstance(entries, Mapping):
            for trace, mult in entries.items():
                _check_trace(trace)
                try:  # any integer, numpy's included, but no bool
                    count = 0 if isinstance(mult, bool) else operator.index(mult)
                except TypeError:
                    count = 0
                if count < 1:
                    raise ValueError("invariant violated: multiplicity must be a positive integer")
                counts[trace] = counts.get(trace, 0) + count
        else:
            for trace in entries:
                _check_trace(trace)
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


def _check_trace(entry: object) -> None:
    if not isinstance(entry, Trace):
        raise ValueError("invariant violated: log entries must be traces")


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


def log_alphabet(log: EventLog) -> frozenset[str]:
    """Labels occurring in at least one trace."""
    return frozenset(lab for trace in log._entries for lab in trace)


def prefix_tree_acceptor(log: EventLog) -> Dfa:
    """Acyclic DFA accepting exactly the distinct traces of the log.

    States are the distinct trace prefixes, shared along the tree, numbered
    breadth-first with labels in sorted order, as ``canonicalize`` numbers.
    """
    children: list[dict[str, int]] = [{}]
    accepts: set[int] = set()
    for trace in log._entries:
        node = 0
        for lab in trace.events:
            nxt = children[node].get(lab)
            if nxt is None:
                nxt = children[node][lab] = len(children)
                children.append({})
            node = nxt
        accepts.add(node)
    return _explore(
        0, lambda node: sorted(children[node].items()), accepts.__contains__, log_alphabet(log)
    )
