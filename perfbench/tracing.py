"""Spans around the library's public functions, recorded from outside.

For the length of one op, ``Tracer.op`` replaces each traced function in
every ``entroscope`` module namespace that holds it, so calls made inside the
library (say, ``minimize`` calling ``trim``) are traced too, and then puts the
originals back.  A span records its name, op id, start, end, parent and a
few counts read from the call's arguments and result.  Spans stay in memory.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Span name -> (defining module, function names).  Names are the per-layer
#: metric prefixes; the module's short name is the layer.
TRACED = {
    "formats.read": ("entroscope.formats", ("read_xes", "read_log", "read_automaton")),
    "logs.pta": ("entroscope.logs", ("prefix_tree_acceptor",)),
    "automata.determinize": ("entroscope.automata", ("determinize",)),
    "automata.trim": ("entroscope.automata", ("trim",)),
    "automata.minimize": ("entroscope.automata", ("minimize",)),
    "automata.canonicalize": ("entroscope.automata", ("canonicalize",)),
    "automata.intersect": ("entroscope.automata", ("intersect",)),
    "automata.short_circuit": ("entroscope.automata", ("short_circuit",)),
    "spectral.adjacency": ("entroscope.spectral", ("adjacency_matrix",)),
    "spectral.eigen": ("entroscope.spectral", ("perron_frobenius",)),
    "measures": ("entroscope.measures", ("precision", "recall", "coverage")),
}


def _counts(name: str, args: tuple, result: Any) -> dict[str, int]:
    """Sizes measured where the work happens."""
    if name == "formats.read":
        # Logs iterate as (trace, multiplicity); automata have no events.
        events = sum(len(t) * m for t, m in result) if hasattr(result, "total_count") else 0
        return {"events": events}
    if name == "logs.pta":
        return {"states": result.state_count}
    if name == "automata.determinize":
        return {"states_out": result.state_count}
    if name == "automata.minimize":
        return {"states_in": args[0].state_count, "states_out": result.state_count}
    if name == "automata.intersect":
        return {"states": result.state_count}
    if name == "spectral.eigen":
        return {
            "iterations": result.iterations,
            "order": args[0].order,
            "unconverged": int(not result.converged),
        }
    return {}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects the spans of the ops run inside ``op``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[Any, str, Callable]] = []

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Trace one op: root span ``op``, with the library's functions
        wrapped inside it; spans opened inside carry ``op_id``."""
        self._op = op_id
        self._install()
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._uninstall()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index].counts = _counts(name, args, result)
            return result

        return traced

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "entroscope" or n.startswith("entroscope.")]
        for name, (home, functions) in TRACED.items():
            for fn_name in functions:
                original = getattr(sys.modules[home], fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def _uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's, in seconds.

    One thread makes every span, so children never overlap each other.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
