"""Entropy-based behavioural quotients between finite automata and event logs."""

from .automata import (
    CHI,
    SILENT,
    Dfa,
    InfiniteLanguageError,
    Moves,
    Nfa,
    accepts,
    count_words,
    has_finite_language,
    is_deterministic,
    is_ergodic,
    is_trim,
    minimize,
    trim,
)
from .logs import EventLog, distinct_language, prefix_tree_acceptor
from .measures import (
    AutomatonStats,
    MeasureKind,
    MeasureReport,
    coverage,
    eig_short_circuit_measure,
    precision,
    recall,
)
from .spectral import (
    EigenResult,
    length_profile_eigenvalue,
    perron_frobenius,
)

__all__ = [
    "CHI",
    "SILENT",
    "AutomatonStats",
    "Dfa",
    "EigenResult",
    "EventLog",
    "InfiniteLanguageError",
    "MeasureKind",
    "MeasureReport",
    "Moves",
    "Nfa",
    "accepts",
    "count_words",
    "coverage",
    "distinct_language",
    "eig_short_circuit_measure",
    "has_finite_language",
    "is_deterministic",
    "is_ergodic",
    "is_trim",
    "length_profile_eigenvalue",
    "minimize",
    "perron_frobenius",
    "precision",
    "prefix_tree_acceptor",
    "recall",
    "trim",
]
