"""Interned transition labels.

Every label name maps to exactly one :class:`Label` instance for the lifetime
of the process, so label comparison is identity comparison.  Two markers are
reserved outside the interning pool: ``SILENT`` for unobservable moves and
``CHI`` for the loop-back transitions added by short-circuiting.  Neither can
be obtained through :func:`label`, which keeps them out of user alphabets.
"""

from __future__ import annotations

import threading


class Label:
    """An interned symbol; equality and hashing are object identity.

    Identity hashing makes the iteration order of a set of labels differ
    between processes, so anything that reaches output is ordered by
    :func:`sort_key`.
    """

    __slots__ = ("id", "display")

    def __init__(self, id: int, display: str):
        self.id = id
        self.display = display

    def __reduce__(self):
        # Unpickling and copying re-intern, so a label stays unique.
        if self.id < 0:
            return "SILENT" if self is SILENT else "CHI"
        return label, (self.display,)

    def __repr__(self) -> str:
        return f"Label({self.display!r})"


#: Unobservable transition marker; projected away by language semantics.
SILENT = Label(-1, "τ")

#: Short-circuit marker placed on accept-to-start transitions.
CHI = Label(-2, "χ")

_pool: dict[str, Label] = {}
_pool_lock = threading.Lock()


def label(name: str) -> Label:
    """Intern ``name`` and return its unique label."""
    got = _pool.get(name)
    if got is None:
        with _pool_lock:
            got = _pool.get(name)
            if got is None:
                got = Label(len(_pool), name)
                _pool[name] = got
    return got


def sort_key(lab: Label) -> tuple[str, int]:
    """Deterministic ordering key; display first so runs are reproducible."""
    return (lab.display, lab.id)
