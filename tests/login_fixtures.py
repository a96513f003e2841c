"""The worked login-process example shared by the regression suites.

Three specifications of a login flow over actions a..f, one stricter
variant, the always-permissive specification, and three recorded logs.
Expected measure values for these inputs are frozen in the tests that use
them.
"""

from __future__ import annotations

from entroscope import Dfa, EventLog, Nfa, prefix_tree_acceptor
from helpers import union

A, B, C, D, E, F = "abcdef"
LOGIN_ALPHABET = frozenset({A, B, C, D, E, F})
STRICT_ALPHABET = frozenset({A, B, C, D, E})


def flexible_spec() -> Dfa:
    """Permissive login flow: `(a (b|c)* (d|f) e)*`."""
    return Dfa(
        3,
        LOGIN_ALPHABET,
        frozenset({(0, A, 1), (1, B, 1), (1, C, 1), (1, D, 2), (1, F, 2), (2, E, 0)}),
        0,
        frozenset({0}),
    )


def retry_spec() -> Nfa:
    """Nondeterministic retry flow: `(a (b c)* b d e)*`."""
    return Nfa(
        5,
        STRICT_ALPHABET,
        frozenset({(0, A, 1), (1, B, 2), (1, B, 3), (2, C, 1), (3, D, 4), (4, E, 0)}),
        0,
        frozenset({0}),
    )


def strict_retry_spec() -> Dfa:
    """Like the retry flow but with at least one retry: `(a b (c b)+ d e)*`."""
    return Dfa(
        6,
        STRICT_ALPHABET,
        frozenset(
            {(0, A, 1), (1, B, 2), (2, C, 3), (3, B, 4), (4, C, 3), (4, D, 5), (5, E, 0)}
        ),
        0,
        frozenset({0}),
    )


def two_word_spec() -> Dfa:
    """Finite specification of exactly {abde, abcde}."""
    return prefix_tree_acceptor(word_log(["abde", "abcde"]))


def anything_spec() -> Dfa:
    """The universal specification over the strict alphabet: `{a..e}*`."""
    loops = frozenset({(0, lab, 0) for lab in STRICT_ALPHABET})
    return Dfa(1, STRICT_ALPHABET, loops, 0, frozenset({0}))


def word_log(words: list[str]) -> EventLog:
    return EventLog([tuple(word) for word in words])


def small_log() -> EventLog:
    return word_log(["abde", "abcbcde"])


def extended_log() -> EventLog:
    return union(small_log(), word_log(["abccde", "afe", "afe"]))


def noisy_log() -> EventLog:
    return word_log(["abcbcde", "abbf", "afe"])
