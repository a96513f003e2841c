"""Invariant suites over randomly generated automata, logs, and word sets."""

import dataclasses
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroscope import automata, measures
from entroscope.automata import (
    _live,
    _topological_order,
    canonicalize,
    determinize,
    intersect,
    product_moves,
    short_circuit,
)
from entroscope import (
    CHI,
    Dfa,
    EventLog,
    SILENT,
    InfiniteLanguageError,
    MeasureKind,
    MeasureReport,
    Nfa,
    accepts,
    count_words,
    coverage,
    eig_short_circuit_measure,
    has_finite_language,
    is_deterministic,
    is_ergodic,
    is_trim,
    length_profile_eigenvalue,
    minimize,
    perron_frobenius,
    precision,
    prefix_tree_acceptor,
    recall,
    trim,
)
from entroscope.spectral import adjacency_matrix
from helpers import (
    ABC,
    bounded_language_dfa,
    bounded_language_nfa,
    bounded_words,
    empty_language_automaton,
    kahn_order,
    language_included,
    looped_prefix_tree,
    matrix_entries,
    nerode_classes,
    product_rows,
    random_log,
    reachable,
    reaching,
    short_circuit_radius,
    subset_dfa,
)

NOISE = "z"  # never in a spec alphabet


@st.composite
def nfas(draw, max_states=6, alphabet_size=3, allow_silent=True, random_start=False):
    n = draw(st.integers(1, max_states))
    alphabet = ABC[:alphabet_size]
    edge_labels = alphabet + ([SILENT] if allow_silent else [])
    transitions = draw(
        st.frozensets(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(edge_labels),
                st.integers(0, n - 1),
            ),
            max_size=2 * n + 4,
        )
    )
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    start = draw(st.integers(0, n - 1)) if random_start else 0
    return Nfa(n, frozenset(alphabet), transitions, start, accepting)


@st.composite
def word_sets(draw, max_words=5, max_len=5):
    return draw(
        st.frozensets(
            st.lists(st.sampled_from(ABC), max_size=max_len).map(tuple),
            max_size=max_words,
        )
    )


@st.composite
def specs_and_logs(draw, max_traces=6, max_len=60):
    """A spec and a log of walks on it, so that long traces can fit.

    A walk stops where the spec has no move or at its drawn length.  Half the
    walks are cut back to their longest accepted prefix, if any, and about a
    quarter of the traces get a label outside the spec alphabet.  Walks of
    length 0 give the empty trace.
    """
    spec = draw(nfas())
    d = determinize(spec)
    moves = {p: list(row.items()) for p, row in enumerate(d.rows) if row}
    traces = []
    for _ in range(draw(st.integers(0, max_traces))):
        length = draw(st.integers(0, max_len))
        state, events, accepted = d.start, [], 0
        for choice in draw(st.lists(st.integers(0, 5), min_size=length, max_size=length)):
            if state not in moves:
                break
            lab, state = moves[state][choice % len(moves[state])]
            events.append(lab)
            if state in d.accepts:
                accepted = len(events)
        if draw(st.booleans()):
            del events[accepted:]
        if draw(st.integers(0, 3)) == 0:
            events.insert(draw(st.integers(0, len(events))), NOISE)
        traces.append(tuple(events))
    return spec, EventLog(traces)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_determinize_preserves_bounded_language(aut):
    d = determinize(aut)
    assert is_deterministic(d)
    assert bounded_language_dfa(d, 6) == bounded_language_nfa(aut, ABC, 6)


@settings(max_examples=300, deadline=None)
@given(nfas(random_start=True))
@example(Nfa(3, frozenset("a"), {(0, "a", 1), (1, "a", 2)}, 1, {2}))  # no silent move
@example(Nfa(3, frozenset("a"), {(0, SILENT, 1), (1, SILENT, 2), (2, "a", 0)}, 0, {2}))  # chain
@example(Nfa(2, frozenset("a"), {(0, SILENT, 1), (1, SILENT, 0), (1, "a", 1)}, 1, {0}))  # cycle
def test_determinize_is_the_breadth_first_subset_construction(aut):
    assert determinize(aut) == subset_dfa(aut)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_minimize_preserves_language_and_is_idempotent(aut):
    d = determinize(aut)
    m = minimize(d)
    assert bounded_language_dfa(m, 6) == bounded_language_dfa(d, 6)
    assert minimize(m) == m
    assert is_trim(m)


# Cases that random draws seldom hit: the canonical empty automaton, a one-state loop that
# accepts nothing or everything, no accept state, and a start that reaches no accept state.
# The drawn automata get random starts, which leave states unreachable as well as dead.
EMPTY = Nfa(1, frozenset(ABC), frozenset(), 0, frozenset())
LOOP = Nfa(1, frozenset(ABC), frozenset({(0, "a", 0)}), 0, frozenset())
ACCEPTING_LOOP = Nfa(1, frozenset(ABC), frozenset({(0, "a", 0)}), 0, frozenset({0}))
NO_ACCEPT = Nfa(2, frozenset(ABC), frozenset({(0, "a", 1), (1, SILENT, 0)}), 0, frozenset())
DEAD_START = Nfa(3, frozenset(ABC), frozenset({(0, "a", 1), (2, "b", 2)}), 0, frozenset({2}))
# States 1 and 2 differ only in that 1 has a "b" move into a sink that accepts nothing and 2
# has no "b" move: both have the empty future after "b", so they are one class.
SINK_OR_NONE = Nfa(
    5,
    frozenset(ABC),
    frozenset({(0, "a", 1), (0, "b", 2), (1, "c", 3), (2, "c", 3), (1, "b", 4), (4, "a", 4)}),
    0,
    frozenset({3}),
)


@settings(max_examples=300, deadline=None)
@given(nfas(random_start=True))
@example(EMPTY)
@example(LOOP)
@example(ACCEPTING_LOOP)
@example(NO_ACCEPT)
@example(DEAD_START)
@example(SINK_OR_NONE)
def test_minimize_leaves_one_state_per_live_nerode_class(aut):
    # The empty language has no such class, and one state that accepts nothing.
    assert minimize(aut).state_count == (nerode_classes(aut) or 1)


@pytest.mark.parametrize(
    "seed, looped",
    [
        *(pytest.param(seed, False, id=str(seed)) for seed in range(12)),
        pytest.param(0, True, id="looped"),
    ],
)
def test_minimize_merges_the_shared_tails_of_a_prefix_tree(seed, looped):
    # A tree is where a block is split many times: each split must keep its states apart.
    # Looped back to the root from each accept state, as a mined specification is, the tree
    # has an infinite language and many labels, most of them missing at each state.
    if looped:
        tree = looped_prefix_tree(random.Random(seed), 50)
        m = minimize(tree)
        assert m.state_count == nerode_classes(tree) < tree.state_count
        assert bounded_language_dfa(m, 12) == bounded_language_dfa(tree, 12)
        return
    log = random_log(random.Random(seed), max_traces=150, max_len=10)
    tree = prefix_tree_acceptor(log)
    m = minimize(tree)
    assert m.state_count == (nerode_classes(tree) or 1)
    assert bounded_language_dfa(m, 10) == bounded_language_dfa(tree, 10) == set(dict(log))


def test_minimize_splits_by_the_whole_popped_block():
    # A popped block splits while its labels are processed.  Refining on the later
    # labels by only what is left of it ends with one class where there are two.
    moves = {(0, "b", 2), (0, "c", 0), (1, "a", 2), (1, "b", 2), (1, "c", 0), (2, "b", 2)}
    moves |= {(3, "c", 3), (4, "c", 4), (5, "a", 5), (5, "c", 0)}
    d = Dfa(6, frozenset(ABC), frozenset(moves), 0, frozenset({0, 2, 3, 5}))
    m = minimize(d)
    assert m.state_count == nerode_classes(d) == 2
    assert bounded_language_dfa(m, 6) == bounded_language_dfa(d, 6)


@settings(max_examples=300, deadline=None)
@given(nfas(random_start=True))
@example(EMPTY)
@example(LOOP)
@example(ACCEPTING_LOOP)
@example(NO_ACCEPT)
@example(DEAD_START)
def test_trim_and_ergodic_agree_with_a_breadth_first_search(aut):
    for a in (aut, subset_dfa(aut), minimize(aut)):
        every = set(range(a.state_count))
        useful = reachable(a, [a.start]) & reachable(a, a.accepts, backward=True)
        canonical_empty = a.state_count == 1 and not a.transitions and not a.accepts
        assert is_trim(a) == (useful == every or canonical_empty)
        assert is_ergodic(a) == (reachable(a, [0]) == every == reachable(a, [0], backward=True))


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_a_minimal_dfa_is_its_own_product_table(aut):
    # ``measure`` solves a minimal DFA's own rows in place of its self-product.
    m = minimize(determinize(aut))
    assert walked_rows(m, m) == ([dict(row) for row in m.rows], sorted(m.accepts), True)


@settings(max_examples=100, deadline=None)
@given(nfas(allow_silent=False), nfas(allow_silent=False))
def test_intersection_is_language_correct(x, y):
    dx, dy = determinize(x), determinize(y)
    inter = intersect(dx, dy)
    want = bounded_language_dfa(dx, 5) & bounded_language_dfa(dy, 5)
    assert bounded_language_dfa(inter, 5) == want


@settings(max_examples=100, deadline=None)
@given(nfas())
def test_short_circuit_words_decompose_on_chi(aut):
    m = minimize(determinize(aut))
    if not m.accepts:
        return
    sc = short_circuit(m)
    assert is_ergodic(sc)
    plain = bounded_language_dfa(m, 4)
    for word in bounded_words(ABC + [CHI], 4):
        pieces = []
        current: list = []
        for lab in word:
            if lab == CHI:
                pieces.append(tuple(current))
                current = []
            else:
                current.append(lab)
        pieces.append(tuple(current))
        expected = all(piece in plain for piece in pieces)
        assert accepts(sc, word) == expected


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_pipeline_outputs_are_well_formed(aut):
    # constructors validate invariants, so building these must not raise
    t = trim(aut)
    d = determinize(aut)
    m = minimize(d)
    assert t.state_count >= 1
    assert m.state_count >= 1


@settings(max_examples=300, deadline=None)
@given(nfas())
@example(Nfa(2, frozenset("ab"), {(0, "a", 1), (0, "b", 0), (1, "a", 1)}, 0, {1}))
@example(Nfa(2, frozenset("a"), {(0, SILENT, 1)}, 0, {1}))
@example(Nfa(3, frozenset("a"), {(0, "a", 1), (0, "a", 2)}, 0, {2}))
def test_a_dfa_constructs_exactly_when_is_deterministic_holds(aut):
    uses = Counter((p, lab) for p, lab, _ in aut.transitions)
    deterministic = SILENT not in {lab for _, lab in uses} and all(c == 1 for c in uses.values())
    assert is_deterministic(aut) == deterministic
    fields = (aut.state_count, aut.alphabet, aut.transitions, aut.start, aut.accepts)
    if deterministic:
        assert Dfa(*fields).transitions == aut.transitions
    else:
        with pytest.raises(ValueError):
            Dfa(*fields)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_short_circuit_mark_is_chi_in_the_alphabet(aut):
    sc = short_circuit(minimize(determinize(aut)))
    assert sc.short_circuited == (CHI in sc.alphabet)
    assert canonicalize(determinize(sc)) == canonicalize(sc)


@settings(max_examples=150, deadline=None)
@given(nfas(), nfas(), word_sets())
def test_constructions_number_states_canonically(x, y, words):
    # States are numbered breadth-first from the start, labels in sort order.
    mx, my = minimize(determinize(x)), minimize(determinize(y))
    tree = prefix_tree_acceptor(EventLog(words))
    for out in (determinize(x), mx, intersect(mx, my), tree):
        assert canonicalize(out) == out


def row_items(d: Dfa) -> list[list[tuple[str, int]]]:
    """``d.rows`` with each row's label order kept, which ``==`` on dicts ignores."""
    return [list(row.items()) for row in d.rows]


@settings(max_examples=200, deadline=None)
@given(nfas(random_start=True), word_sets())
def test_an_explored_dfa_keeps_the_rows_its_transitions_sort_into(aut, words):
    # A numbered DFA keeps the rows it was numbered by; one built from the
    # same fields sorts them out of its transitions, as the triples sort.
    for d in (
        determinize(aut),
        minimize(aut),
        canonicalize(minimize(aut)),
        prefix_tree_acceptor(EventLog(words)),
    ):
        rebuilt = Dfa(d.state_count, d.alphabet, d.transitions, d.start, d.accepts)
        assert row_items(d) == row_items(rebuilt)
        by_state: list[list[tuple[str, int]]] = [[] for _ in range(d.state_count)]
        for p, lab, q in sorted(d.transitions):
            by_state[p].append((lab, q))
        assert row_items(rebuilt) == by_state


@settings(max_examples=100, deadline=None)
@given(word_sets(), word_sets())
def test_eig_measure_is_strictly_increasing(u, v):
    merged = u | v
    if u == merged:
        return
    small = eig_short_circuit_measure(prefix_tree_acceptor(EventLog(u))).value
    large = eig_short_circuit_measure(prefix_tree_acceptor(EventLog(merged))).value
    assert small < large


@settings(max_examples=100, deadline=None)
@given(word_sets())
def test_empty_language_measures_zero_and_nonempty_positive(words):
    value = eig_short_circuit_measure(prefix_tree_acceptor(EventLog(words))).value
    if words:
        assert value > 0.0
    else:
        assert value == 0.0


@settings(max_examples=200, deadline=None)
@given(nfas())
@example(empty_language_automaton(ABC))
@example(Nfa(3, frozenset(ABC), {(0, "a", 1), (1, "b", 2), (0, "c", 2)}, 0, {2}))  # {ab, c}
def test_eig_measure_matches_the_dense_spectral_radius(aut):
    result = eig_short_circuit_measure(aut)
    assert result.converged
    assert result.value == pytest.approx(short_circuit_radius(aut), rel=1e-7)


@settings(max_examples=120, deadline=None)
@given(specs_and_logs())
def test_log_measures_match_the_prefix_tree_pipeline(case):
    spec, log = case
    tree = prefix_tree_acceptor(log)
    want_p, want_r = coverage(spec, tree), coverage(tree, spec)
    got_p, got_r = precision(spec, log), recall(spec, log)
    for got, want in ((got_p, want_p), (got_r, want_r)):
        assert want.converged and got.converged
        for field in ("numerator_value", "denominator_value", "value"):
            assert getattr(got, field) == getattr(want, field)
        assert got.undefined == want.undefined
    # That ``recall`` took the numerator ``precision`` left; a lone one replays.
    lone = recall(dataclasses.replace(spec), log)
    for field in ("numerator_value", "denominator_value", "value", "undefined"):
        assert getattr(lone, field) == getattr(want_r, field)

    shared = count_words(intersect(determinize(spec), tree))
    card_r = recall(spec, log, MeasureKind.CARDINALITY)
    assert (card_r.numerator_value, card_r.denominator_value) == (shared, count_words(tree))
    try:
        spec_words = count_words(determinize(spec))
    except InfiniteLanguageError:
        with pytest.raises(InfiniteLanguageError):
            precision(spec, log, MeasureKind.CARDINALITY)
        return
    card_p = precision(spec, log, MeasureKind.CARDINALITY)
    assert (card_p.numerator_value, card_p.denominator_value) == (shared, spec_words)


@settings(max_examples=150, deadline=None)
@given(specs_and_logs())
def test_a_log_over_its_own_prefix_tree_is_exactly_one(case):
    _, log = case
    if not log.total_count:
        return
    assert precision(prefix_tree_acceptor(log), log).value == 1.0


def lasso_log(seed: int) -> EventLog:
    """Eight traces of 100 to 156 events over eight labels, sharing a 50-event prefix."""
    rng = random.Random(seed)
    labels = [f"op{i}" for i in range(8)]
    prefix = [rng.choice(labels) for _ in range(50)]
    return EventLog(
        [
            tuple(prefix + [rng.choice(labels) for _ in range(size - 50)])
            for size in range(100, 157, 8)
        ]
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_long_log_over_its_own_prefix_tree_is_exactly_one(seed):
    log = lasso_log(seed)
    report = precision(prefix_tree_acceptor(log), log)
    assert report.value == 1.0 and report.converged
    assert report.numerator_value == recall(prefix_tree_acceptor(log), log).denominator_value


def without_runtime(report):
    return dataclasses.replace(report, runtime_ms=0.0)


def test_trace_order_does_not_change_the_reports():
    rng = random.Random(31)
    a, b, c = ABC
    # Even count of a; b and c keep the parity.
    moves = {(p, a, 1 - p) for p in (0, 1)} | {(p, lab, p) for p in (0, 1) for lab in (b, c)}
    spec = Dfa(2, frozenset(ABC), frozenset(moves), 0, frozenset({0}))
    for _ in range(300):
        traces = [
            tuple(rng.choice(ABC) for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(1, 8))
        ]
        shuffled = rng.sample(traces, len(traces))
        for measure in (precision, recall):
            first, second = (measure(spec, EventLog(t)) for t in (traces, shuffled))
            assert without_runtime(first) == without_runtime(second)


@settings(max_examples=150, deadline=None)
@given(
    specs_and_logs(),
    word_sets(),
    st.lists(
        st.tuples(
            st.sampled_from([precision, recall]), st.sampled_from(MeasureKind), st.booleans()
        ),
        min_size=2,
        max_size=5,
    ),
)
def test_a_held_numerator_reports_what_a_fresh_spec_does(case, words, calls):
    # Calls on one spec switch between two logs and two kinds, so the held
    # numerator is served, passed over and replaced.
    spec, walked = case
    logs = (walked, EventLog(list(words)))

    def outcome(measure, a, log, kind):
        try:
            return without_runtime(measure(a, log, kind))
        except InfiniteLanguageError:
            return InfiniteLanguageError

    for measure, kind, other in calls:
        log = logs[other]
        assert outcome(measure, spec, log, kind) == outcome(
            measure, dataclasses.replace(spec), log, kind
        )


def silent_union(x: Nfa, z: Nfa) -> Nfa:
    """An NFA of ``L(x) | L(z)``: a fresh start with silent moves to both starts."""
    shift = 1 + x.state_count
    transitions = {(0, SILENT, 1 + x.start), (0, SILENT, shift + z.start)}
    transitions |= {(1 + p, lab, 1 + q) for p, lab, q in x.transitions}
    transitions |= {(shift + p, lab, shift + q) for p, lab, q in z.transitions}
    accepting = {1 + q for q in x.accepts} | {shift + q for q in z.accepts}
    return Nfa(shift + z.state_count, x.alphabet | z.alphabet, transitions, 0, accepting)


@st.composite
def nfa_pairs(draw):
    """Two NFAs; in about half the pairs the second one contains the first."""
    x, z = draw(nfas()), draw(nfas())
    return x, silent_union(x, z) if draw(st.booleans()) else z


def walked_rows(x: Dfa, y: Dfa) -> tuple[list[dict], list[int], bool]:
    """``product_moves(x, y)`` in the shape of the reference walk ``product_rows``.

    Its second flag is checked here against the reference walk the other way.
    """
    m, x_in_y, y_in_x = product_moves(x, y)
    assert y_in_x == product_rows(y, x)[2]
    moves = list(zip(m.sources.tolist(), m.columns.tolist(), m.targets.tolist()))
    assert [move[:2] for move in moves] == sorted({move[:2] for move in moves})
    assert m.labels == sorted(x.alphabet & y.alphabet)
    rows: list[dict] = [{} for _ in range(m.order)]
    for p, column, q in moves:
        rows[p][m.labels[column]] = q
    return rows, m.accepting.tolist(), x_in_y


def relabeled(a: Nfa, names: str) -> Nfa:
    """``a`` with its labels ``a``, ``b``, ``c`` renamed to the labels in ``names``."""
    rename = dict(zip(ABC, names))
    moves = {(p, rename.get(lab, lab), q) for p, lab, q in a.transitions}
    return type(a)(a.state_count, frozenset(map(rename.get, a.alphabet)), moves, a.start, a.accepts)


A_STAR = Dfa(1, frozenset(ABC[:1]), frozenset({(0, ABC[0], 0)}), 0, frozenset({0}))

#: The start moves to 1 on ``a`` and ``c`` and to 2 on ``b``, so its
#: self-product's first level reaches pair (1, 1), then (2, 2), then (1, 1) again.
FORK = Dfa(3, frozenset(ABC), {(0, "a", 1), (0, "b", 2), (0, "c", 1), (2, "a", 1)}, 0, {1})


@settings(max_examples=300, deadline=None)
@given(nfa_pairs(), st.sampled_from(["abc", "abd", "xyz"]), st.booleans())
@example((A_STAR, A_STAR), "xyz", True)  # disjoint alphabets
@example((A_STAR, empty_language_automaton(ABC)), "abc", True)  # dead start
@example((Nfa(2, frozenset(ABC), {(0, ABC[0], 1)}, 0, {0}), A_STAR), "abc", False)  # dead pair
@example((FORK, FORK), "abc", True)  # a level's new pair reached again after another
def test_the_array_walk_numbers_and_flags_pairs_as_the_reference_walk(pair, names, minimal):
    x, y = determinize(pair[0]), determinize(relabeled(pair[1], names))
    if minimal:
        x, y = minimize(x), minimize(y)
    assert walked_rows(x, y) == product_rows(x, y)
    assert walked_rows(y, x) == product_rows(y, x)


def looped_lasso(n: int) -> Dfa:
    """``a^n``, with a ``b`` move from its last state back to state ``n // 2``."""
    moves = {(i, "a", i + 1) for i in range(n)} | {(n, "b", n // 2)}
    return Dfa(n + 1, frozenset({"a", "b"}), frozenset(moves), 0, frozenset({n}))


def two_branches(n: int, m: int, last: str) -> Dfa:
    """``a^n b | c a^m last`` as a DFA: a chain of ``n + 2`` states and one of ``m + 3``."""
    moves = {(i, "a", i + 1) for i in range(n)} | {(n, "b", n + 1), (0, "c", n + 2)}
    moves |= {(i, "a", i + 1) for i in range(n + 2, n + 2 + m)} | {(n + 2 + m, last, n + 3 + m)}
    alphabet = frozenset({"a", "b", "c", last})
    return Dfa(n + 4 + m, alphabet, frozenset(moves), 0, frozenset({n + 1, n + 3 + m}))


@pytest.mark.parametrize("n", [200, 800])
def test_the_trim_of_a_looped_lasso_product_marks_pairs_far_from_its_accept(n):
    # The start pair lies n moves from the one accepting pair, so the sweep
    # marks it last, and every pair of the self-product is live.
    x = looped_lasso(n)
    rows, accepting, x_in_y = walked_rows(x, x)
    assert (rows, accepting, x_in_y) == product_rows(x, x)
    assert len(rows) == n + 1 and accepting == [n] and x_in_y


def test_the_trim_drops_a_long_chain_of_dead_pairs():
    # The c-branches walk 301 pairs together, but d and e never meet, so
    # only the n + 2 pairs of the a^n b branch are kept.
    x, y = two_branches(300, 300, "d"), two_branches(300, 300, "e")
    for left, right in ((x, y), (y, x)):
        rows, accepting, inside = walked_rows(left, right)
        assert (rows, accepting, inside) == product_rows(left, right)
        assert len(rows) == 302 and accepting == [301] and not inside


@st.composite
def move_lists(draw, max_states=10):
    """A state count, ``(from, to)`` moves in any order with repeats, and seeds, maybe none."""
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    moves = draw(st.lists(st.tuples(state, state), max_size=3 * n))
    return n, moves, sorted(draw(st.sets(state, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(move_lists())
@example((3, [(0, 1), (1, 1), (1, 2), (1, 2)], []))  # no seed
@example((5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 4)], [3]))  # a cycle, a dead self-loop
@example((4, [(2, 3), (0, 1), (1, 2), (1, 2)], [3]))  # a chain, one move repeated
def test_the_trim_sweep_marks_exactly_the_states_that_reach_a_seed(case):
    order, moves, seeds = case
    sources, targets = np.array(moves, dtype=np.int32).reshape(-1, 2).T
    live = _live(order, sources, targets, np.array(seeds, dtype=np.int32))
    assert live.tolist() == reaching(order, moves, seeds)


def same_automaton(a: Dfa, b: Dfa) -> bool:
    """Equal states, transitions, start and accepts; alphabets may differ."""
    return (a.state_count, a.transitions, a.start, a.accepts) == (
        b.state_count,
        b.transitions,
        b.start,
        b.accepts,
    )


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
def test_pair_measures_match_the_minimal_product_pipeline(pair):
    x, y = pair
    mx, my = minimize(determinize(x)), minimize(determinize(y))
    product = minimize(intersect(mx, my))
    shared = eig_short_circuit_measure(product).value
    cov = coverage(x, y)
    rc = coverage(y, x)
    for report, own in ((cov, mx), (rc, my)):
        own_value = eig_short_circuit_measure(own).value
        assert report.converged
        assert report.numerator_value == pytest.approx(shared, rel=1e-7)
        assert report.denominator_value == pytest.approx(own_value, rel=1e-7)
        assert report.undefined == (own_value == 0.0)
        if not report.undefined:
            assert report.value == pytest.approx(shared / own_value, rel=1e-7)

    # The minimal product is minimal x exactly when L(x) lies in L(y).
    assert product_moves(mx, my)[1] == same_automaton(product, mx)
    assert product_moves(my, mx)[1] == same_automaton(product, my)
    for report, own in ((cov, mx), (rc, my)):
        if not report.undefined:
            assert (report.value == 1.0) == same_automaton(product, own)


def test_product_walk_flags_are_the_word_level_inclusions():
    outcomes = set()

    @settings(max_examples=200, deadline=None)
    @given(nfa_pairs())
    def check(pair):
        x, y = pair
        _, *flags = product_moves(minimize(x), minimize(y))
        assert flags == [language_included(x, y), language_included(y, x)]
        outcomes.update(flags)

    check()
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
def test_a_pair_walks_alike_both_ways(pair):
    mx, my = (minimize(a) for a in pair)
    forward, x_in_y, y_in_x = product_moves(mx, my)
    backward, *flags = product_moves(my, mx)
    assert flags == [y_in_x, x_in_y]
    assert forward.labels == backward.labels and forward.start == backward.start
    for a, b in zip(forward[1:-1], backward[1:-1]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(nfa_pairs())
def test_pair_measures_walk_each_pair_once(pair):
    walks = []

    def spy(x, y):
        walks.append((x, y))
        return product_moves(x, y)

    with mock.patch.object(measures, "product_moves", spy), mock.patch.object(
        automata, "minimize", wraps=minimize
    ) as prepared:
        coverage(*pair), coverage(*pair[::-1])
    assert walks == [tuple(minimize(a) for a in pair)]
    # Each operand is minimized once, and minimize is given the operand itself.
    assert [c.args for c in prepared.call_args_list] == [(a,) for a in pair]


A_STAR_TWICE = Nfa(2, frozenset(ABC[:1]), {(0, ABC[0], 1), (1, ABC[0], 1)}, 0, {0, 1})
AB_STAR = Dfa(1, frozenset(ABC[:2]), frozenset({(0, ABC[0], 0), (0, ABC[1], 0)}), 0, frozenset({0}))


def without_runtime(report: MeasureReport) -> MeasureReport:
    return dataclasses.replace(report, runtime_ms=0.0)


@settings(max_examples=200, deadline=None)
@given(nfa_pairs(), st.sampled_from([{}, {"tol": 1e-6}, {"max_iter": 20}]))
@example((A_STAR, A_STAR_TWICE), {})  # equal languages
@example((empty_language_automaton(ABC), A_STAR), {})
@example((A_STAR, empty_language_automaton(ABC)), {})
@example((A_STAR, AB_STAR), {})  # an inclusion one way only
@example((AB_STAR, A_STAR), {})
def test_the_reverse_call_reports_what_a_fresh_walk_does(pair, bounds):
    x, y = pair
    coverage(x, y)
    walks = []

    def spy(a, b):
        walks.append((a, b))
        return product_moves(a, b)

    with mock.patch.object(measures, "product_moves", spy):
        report = coverage(y, x, **bounds)
    fresh = coverage(dataclasses.replace(y), dataclasses.replace(x), **bounds)
    assert without_runtime(report) == without_runtime(fresh)
    # Other bounds walk again, so a product solved under the first ones is never served.
    assert len(walks) == (1 if bounds else 0)


#: ``c*|a`` and its part ``c*``, whose trim product solves ``c*`` 1 ulp above the closed form 2.
C_STAR_OR_A = Nfa(3, frozenset(ABC), {(0, SILENT, 1), (1, "c", 1), (0, "a", 2)}, 0, {1, 2})
C_STAR = Nfa(1, frozenset(ABC), {(0, "c", 0)}, 0, {0})


@st.composite
def unions_and_parts(draw):
    """A silent-start union ``y | z`` of two NFAs, and its part ``y``."""
    y = draw(nfas())
    return silent_union(y, draw(nfas())), y


@settings(max_examples=200, deadline=None)
@given(unions_and_parts())
@example((C_STAR_OR_A, C_STAR))
def test_a_contained_operand_gives_the_shared_measure_both_ways(pair):
    x, y = pair
    assert language_included(y, x)
    forward = coverage(x, y)
    backward = coverage(dataclasses.replace(y), dataclasses.replace(x))  # walked afresh
    assert forward.numerator == backward.denominator
    assert forward.numerator_value == eig_short_circuit_measure(y).value


@settings(max_examples=150, deadline=None)
@given(
    nfas(),
    nfas(),
    word_sets(max_words=6, max_len=8),
    st.lists(st.sampled_from(ABC), max_size=8).map(tuple),
    st.sampled_from(MeasureKind),
)
def test_log_quotients_grow_with_the_compared_languages(spec, extra, words, trace, kind):
    # Traces of at most 8 events keep a gained word's move of the length
    # profile's sum far above rounding.
    log = EventLog(words)
    assert recall(silent_union(spec, extra), log, kind).value >= recall(spec, log, kind).value
    try:
        before = precision(spec, log, kind).value
    except InfiniteLanguageError:
        return
    assert precision(spec, EventLog(words | {trace}), kind).value >= before


def test_containment_in_a_larger_automaton_gives_exact_ones():
    # Both products are trim but not minimal, so a solve on them need not
    # reproduce the contained operand's value to the last bit.
    a, b, c = ABC
    a_star = Dfa(1, frozenset({a}), frozenset({(0, a, 0)}), 0, frozenset({0}))
    parity_moves = frozenset({(0, a, 1), (1, a, 0), (0, b, 2)})
    parity = Dfa(3, frozenset({a, b}), parity_moves, 0, frozenset({0, 1, 2}))
    assert coverage(a_star, parity).value == 1.0

    ab_star = Dfa(1, frozenset({a, b}), frozenset({(0, a, 0), (0, b, 0)}), 0, frozenset({0}))
    # Counts a's mod 5 and allows c only at count 0, so it is minimal.
    counter_moves = {(i, a, (i + 1) % 5) for i in range(5)} | {(i, b, i) for i in range(5)}
    counter = Dfa(5, frozenset({a, b, c}), counter_moves | {(0, c, 0)}, 0, frozenset(range(5)))
    assert coverage(ab_star, counter).value == 1.0
    assert coverage(counter, ab_star).value < 1.0


def counted_entries(d: Dfa) -> tuple[int, list[tuple[int, int, int]]]:
    """Order and ``(row, col, label count)`` entries of ``d``, counted from its triples."""
    counts = Counter((p, q) for p, _, q in d.transitions)
    return d.state_count, sorted((p, q, w) for (p, q), w in counts.items())


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
def test_measure_path_solves_the_short_circuited_product(pair):
    x, y = pair
    mx, my = minimize(x), minimize(y)
    # A minimal operand is its own product with itself, numbered alike.
    assert intersect(mx, mx) == mx and intersect(my, my) == my
    solved = []

    def spy(matrix, tol, max_iter):
        solved.append((matrix.order, matrix_entries(matrix)))
        return perron_frobenius(matrix, tol, max_iter)

    with mock.patch.object(measures, "perron_frobenius", spy):
        reports = coverage(x, y), coverage(y, x)
    product = intersect(mx, my)
    _, x_in_y, y_in_x = product_moves(mx, my)
    # Each operand is solved in its own direction, and the shared language
    # once over both, in the first: on a contained operand, the first one
    # if both are, and on the product if neither is.
    shared = mx if x_in_y else my if y_in_x else product
    languages = [mx, my] if x_in_y else [mx, shared, my]
    # The spy sees infinite languages only.
    want = [counted_entries(short_circuit(a)) for a in languages if not has_finite_language(a)]
    assert solved == want
    inside = short_circuit(shared)
    for report, ma in zip(reports, (mx, my)):
        own = short_circuit(ma)
        for sc in (own, inside):
            matrix = adjacency_matrix(sc)
            assert (matrix.order, matrix_entries(matrix)) == counted_entries(sc)
        for stats, sc in ((report.numerator, inside), (report.denominator, own)):
            assert (stats.states, stats.transitions) == (sc.state_count, len(sc.transitions))


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
def test_a_finite_operand_sends_no_matrix_to_the_power_iteration(pair):
    mx, my = (minimize(a) for a in pair)
    if not (has_finite_language(mx) or has_finite_language(my)):
        return
    solved = []

    def spy(matrix, tol, max_iter):
        solved.append((matrix.order, matrix_entries(matrix)))
        return perron_frobenius(matrix, tol, max_iter)

    with mock.patch.object(measures, "perron_frobenius", spy):
        coverage(*pair), coverage(*pair[::-1])
    infinite = [m for m in (mx, my) if not has_finite_language(m)]
    assert solved == [counted_entries(short_circuit(m)) for m in infinite]


#: a*(a|b), whose minimal DFA has a state with a loop, a move on and a loop-back.
A_STAR_THEN_A_OR_B = Nfa(2, frozenset(ABC), {(0, "a", 0), (0, "a", 1), (0, "b", 1)}, 0, {1})


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
@example((A_STAR_THEN_A_OR_B, A_STAR_THEN_A_OR_B))
def test_the_solver_short_circuits_a_move_table_as_short_circuit_does(pair):
    # The solver counts each loop-back with the moves into its (row, col)
    # entry, as if it were the chi move of the short-circuited automaton.
    mx, my = (minimize(a) for a in pair)
    for d in (mx, my):
        assert perron_frobenius(d.arrays) == perron_frobenius(adjacency_matrix(short_circuit(d)))
    sc = short_circuit(intersect(mx, my))
    assert perron_frobenius(product_moves(mx, my)[0]) == perron_frobenius(adjacency_matrix(sc))


@settings(max_examples=200, deadline=None)
@given(nfas(), st.permutations(ABC))
@example(
    Nfa(2, frozenset(ABC), {(0, "a", 0), (0, "a", 1), (0, "b", 1), (1, "c", 0)}, 0, {0}), "acb"
)
def test_renaming_labels_leaves_the_solve_bit_identical(a, names):
    # Renaming reorders each state's moves but not the (row, col) entries
    # they count, which each row sums in column order.
    d = minimize(a)
    renamed = relabeled(d, "".join(names))
    assert matrix_entries(renamed.arrays) == matrix_entries(d.arrays)
    assert perron_frobenius(renamed.arrays) == perron_frobenius(d.arrays)


@st.composite
def move_tables(draw, max_states=8):
    """Successor lists, parallel moves included, and a start state; about half only move up."""
    n = draw(st.integers(1, max_states))
    forward_only = draw(st.booleans())
    forward = []
    for p in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=3))
        forward.append([q for q in targets if q > p] if forward_only else targets)
    return forward, draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(move_tables())
def test_topological_order_lists_the_reachable_states_unless_they_hold_a_cycle(table):
    forward, start = table
    reachable = [start]
    for p in reachable:  # ``reachable`` grows as states are found
        for q in forward[p]:
            if q not in reachable:
                reachable.append(q)
    number = {p: i for i, p in enumerate(reachable)}
    oracle = kahn_order([[number[q] for q in forward[p]] for p in reachable])
    offsets = np.cumsum([0, *map(len, forward)])
    targets = np.array([q for row in forward for q in row], dtype=np.int32)
    order = _topological_order(offsets, targets, start)
    if oracle is None:
        assert order is None
    else:
        assert order is not None and sorted(order) == sorted(reachable)
        position = {p: i for i, p in enumerate(order)}
        assert all(position[p] < position[q] for p in order for q in forward[p])


def profile_solves_a_finite_product_of_infinite_operands(x: Nfa, y: Nfa) -> bool:
    """Check the shared measure of such a pair against its walked product; False if not one."""
    mx, my = minimize(x), minimize(y)
    if has_finite_language(mx) or has_finite_language(my):
        return False
    product, _, _ = product_moves(mx, my)
    try:
        want = length_profile_eigenvalue(product.length_profile())
    except InfiniteLanguageError:
        return False
    assert coverage(x, y).numerator.eigen == want
    assert coverage(y, x).numerator.eigen == want
    return True


def test_a_finite_product_of_infinite_operands_is_solved_by_its_profile():
    a, b = ABC[:2]
    a_star_b = Dfa(2, frozenset({a, b}), frozenset({(0, a, 0), (0, b, 1)}), 0, frozenset({1}))
    a_b_star = Dfa(2, frozenset({a, b}), frozenset({(0, a, 1), (1, b, 1)}), 0, frozenset({1}))
    assert profile_solves_a_finite_product_of_infinite_operands(a_star_b, a_b_star)
    # The shared language is {ab}, one word of length 2: z^3 = 1, so the eigenvalue is 1.
    assert coverage(a_star_b, a_b_star).numerator_value == 1.0


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
def test_finite_products_of_infinite_operands_are_solved_by_their_profiles(pair):
    profile_solves_a_finite_product_of_infinite_operands(*pair)
