"""Event logs: finite multisets of traces, and their automaton encoding.

A trace is a plain tuple of ``str`` labels, and ``EventLog`` checks every
trace it is given: neither reserved label string, the silent ``SILENT``
(``""``) nor the short-circuit ``CHI`` (``"__chi__"``), can occur in one.
That check is the only one a line log gets; ``formats.read_log`` only
locates the bad event of a log that ``EventLog`` refuses.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Iterable, Iterator, Mapping

from .automata import CHI, SILENT, Dfa, _explore


def _unreserved_labels(trace: tuple) -> bool:
    """Whether every event of ``trace`` is a ``str`` and neither ``SILENT`` nor ``CHI``."""
    try:
        "".join(trace)  # refuses an event that is no str
    except TypeError:
        return False
    return SILENT not in trace and CHI not in trace


class EventLog:
    """Finite multiset of traces, each checked here; multiplicities are positive integers."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[str, ...], int] | Iterable[tuple[str, ...]] = ()):
        counts: dict[tuple[str, ...], int] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else zip(entries, repeat(1))
        for trace, mult in pairs:
            if not (isinstance(trace, tuple) and _unreserved_labels(trace)):
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
        self._entries = counts

    @property
    def total_count(self) -> int:
        """Number of recorded trace instances, multiplicities included."""
        return sum(self._entries.values())

    def __iter__(self) -> Iterator[tuple[tuple[str, ...], int]]:
        return iter(self._entries.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EventLog) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"EventLog({self.total_count} traces, {len(self._entries)} distinct)"


def distinct_language(log: EventLog) -> frozenset[tuple[str, ...]]:
    """The language of the log: every trace that occurs at least once."""
    return frozenset(log._entries)


def prefix_tree_acceptor(log: EventLog) -> Dfa:
    """Acyclic DFA accepting exactly the distinct traces of the log.

    States are the distinct trace prefixes, shared along the tree, numbered
    breadth-first with labels in sorted order, as ``canonicalize`` numbers.
    """
    children: list[dict[str, int]] = [{}]
    accepts: set[int] = set()
    alphabet: set[str] = set()
    for trace in log._entries:
        alphabet.update(trace)
        node = 0
        for lab in trace:
            nxt = children[node].get(lab)
            if nxt is None:
                nxt = children[node][lab] = len(children)
                children.append({})
            node = nxt
        accepts.add(node)
    return _explore(
        0, lambda node: sorted(children[node].items()), accepts.__contains__, frozenset(alphabet)
    )
