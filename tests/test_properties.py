"""Invariant suites over randomly generated automata, logs, and word sets."""

import dataclasses
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroscope import measures
from entroscope.automata import _topological_order, product_moves
from entroscope.labels import sort_key
from entroscope import (
    CHI,
    Dfa,
    EventLog,
    SILENT,
    InfiniteLanguageError,
    MeasureKind,
    Nfa,
    Trace,
    accepts,
    adjacency_matrix,
    as_dfa,
    canonicalize,
    count_words,
    coverage,
    determinize,
    eig_short_circuit_measure,
    empty_language_automaton,
    has_finite_language,
    intersect,
    is_deterministic,
    is_ergodic,
    is_trim,
    label,
    length_profile_eigenvalue,
    minimize,
    perron_frobenius,
    precision,
    precision_and_recall,
    prefix_tree_acceptor,
    recall,
    short_circuit,
    trim,
)
from helpers import (
    ABC,
    bounded_language_dfa,
    bounded_language_nfa,
    bounded_words,
    kahn_order,
    language_included,
    product_rows,
)

NOISE = label("z")  # never in a spec alphabet


@st.composite
def nfas(draw, max_states=6, alphabet_size=3, allow_silent=True):
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
    return Nfa(n, frozenset(alphabet), transitions, 0, accepting)


@st.composite
def word_sets(draw, max_words=5, max_len=5):
    return draw(
        st.frozensets(
            st.lists(st.sampled_from(ABC), max_size=max_len).map(tuple),
            max_size=max_words,
        )
    )


def log_of(words) -> EventLog:
    return EventLog([Trace(w) for w in words])


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
        traces.append(Trace(tuple(events)))
    return spec, EventLog(traces)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_determinize_preserves_bounded_language(aut):
    d = determinize(aut)
    assert is_deterministic(d)
    assert bounded_language_dfa(d, 6) == bounded_language_nfa(aut, ABC, 6)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_minimize_preserves_language_and_is_idempotent(aut):
    d = determinize(aut)
    m = minimize(d)
    assert bounded_language_dfa(m, 6) == bounded_language_dfa(d, 6)
    assert minimize(m) == m
    assert is_trim(m)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_a_minimal_dfa_is_its_own_product_table(aut):
    # ``measure`` solves a minimal DFA's own rows in place of its self-product.
    m = minimize(determinize(aut))
    assert walked_rows(m, m) == ([dict(row) for row in m.rows], sorted(m.accepts), True, True)


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
    assert as_dfa(d).state_count == d.state_count


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_as_dfa_keeps_a_dfa_and_determinizes_an_nfa(aut):
    d = as_dfa(aut)
    if is_deterministic(aut):
        assert d == Dfa(aut.state_count, aut.alphabet, aut.transitions, aut.start, aut.accepts)
    else:
        assert d == determinize(aut)
    assert as_dfa(d) is d


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_short_circuit_mark_is_chi_in_the_alphabet(aut):
    sc = short_circuit(minimize(determinize(aut)))
    assert sc.short_circuited == (CHI in sc.alphabet)
    assert canonicalize(determinize(sc)) == canonicalize(sc)


@settings(max_examples=150, deadline=None)
@given(nfas(), nfas())
def test_constructions_number_states_canonically(x, y):
    # States are numbered breadth-first from the start, labels in sort order.
    mx, my = minimize(determinize(x)), minimize(determinize(y))
    for out in (determinize(x), mx, intersect(mx, my)):
        assert canonicalize(out) == out


@settings(max_examples=100, deadline=None)
@given(word_sets(), word_sets())
def test_eig_measure_is_strictly_increasing(u, v):
    merged = u | v
    if u == merged:
        return
    small = eig_short_circuit_measure(prefix_tree_acceptor(log_of(u)))
    large = eig_short_circuit_measure(prefix_tree_acceptor(log_of(merged)))
    assert small < large


@settings(max_examples=100, deadline=None)
@given(word_sets())
def test_empty_language_measures_zero_and_nonempty_positive(words):
    value = eig_short_circuit_measure(prefix_tree_acceptor(log_of(words)))
    if words:
        assert value > 0.0
    else:
        assert value == 0.0


@settings(max_examples=120, deadline=None)
@given(specs_and_logs())
def test_log_measures_match_the_prefix_tree_pipeline(case):
    spec, log = case
    tree = prefix_tree_acceptor(log)
    want_p, want_r = precision_and_recall(spec, tree)
    got_p, got_r = precision(spec, log), recall(spec, log)
    for got, want in ((got_p, want_p), (got_r, want_r)):
        assert want.converged and got.converged
        for field in ("numerator_value", "denominator_value", "value"):
            assert getattr(got, field) == getattr(want, field)
        assert (got.undefined, got.division_by_zero) == (want.undefined, want.division_by_zero)

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
    labels = [label(f"op{i}") for i in range(8)]
    prefix = [rng.choice(labels) for _ in range(50)]
    return EventLog(
        [
            Trace(tuple(prefix + [rng.choice(labels) for _ in range(size - 50)]))
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
            Trace(tuple(rng.choice(ABC) for _ in range(rng.randint(0, 12))))
            for _ in range(rng.randint(1, 8))
        ]
        shuffled = rng.sample(traces, len(traces))
        for measure in (precision, recall):
            first, second = (measure(spec, EventLog(t)) for t in (traces, shuffled))
            assert without_runtime(first) == without_runtime(second)


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


def walked_rows(x: Dfa, y: Dfa) -> tuple[list[dict], list[int], bool, bool]:
    """``product_moves(x, y)`` in the shape of the reference walk ``product_rows``."""
    m, x_in_y, y_in_x = product_moves(x, y)
    moves = list(zip(m.sources.tolist(), m.columns.tolist(), m.targets.tolist()))
    assert [move[:2] for move in moves] == sorted({move[:2] for move in moves})
    assert m.labels == sorted(x.alphabet & y.alphabet, key=sort_key)
    rows: list[dict] = [{} for _ in range(m.order)]
    for p, column, q in moves:
        rows[p][m.labels[column]] = q
    return rows, m.accepting.tolist(), x_in_y, y_in_x


def relabeled(a: Nfa, names: str) -> Nfa:
    """``a`` with its labels ``a``, ``b``, ``c`` renamed to the labels in ``names``."""
    rename = dict(zip(ABC, map(label, names)))
    moves = {(p, rename.get(lab, lab), q) for p, lab, q in a.transitions}
    return Nfa(a.state_count, frozenset(map(rename.get, a.alphabet)), moves, a.start, a.accepts)


A_STAR = Dfa(1, frozenset(ABC[:1]), frozenset({(0, ABC[0], 0)}), 0, frozenset({0}))


@settings(max_examples=300, deadline=None)
@given(nfa_pairs(), st.sampled_from(["abc", "abd", "xyz"]), st.booleans())
@example((A_STAR, A_STAR), "xyz", True)  # disjoint alphabets
@example((A_STAR, empty_language_automaton(ABC)), "abc", True)  # dead start
@example((Nfa(2, frozenset(ABC), {(0, ABC[0], 1)}, 0, {0}), A_STAR), "abc", False)  # dead pair
def test_the_array_walk_numbers_and_flags_pairs_as_the_reference_walk(pair, names, minimal):
    x, y = determinize(pair[0]), determinize(relabeled(pair[1], names))
    if minimal:
        x, y = minimize(x), minimize(y)
    assert walked_rows(x, y) == product_rows(x, y)
    assert walked_rows(y, x) == product_rows(y, x)


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
    shared = eig_short_circuit_measure(product)
    cov = coverage(x, y)
    pr, rc = precision_and_recall(x, y)
    for report, own in ((cov, mx), (pr, mx), (rc, my)):
        own_value = eig_short_circuit_measure(own)
        assert report.converged
        assert report.numerator_value == pytest.approx(shared, rel=1e-7)
        assert report.denominator_value == pytest.approx(own_value, rel=1e-7)
        assert report.undefined == (own_value == 0.0)
        if not report.undefined:
            assert report.value == pytest.approx(shared / own_value, rel=1e-7)

    # The minimal product is minimal x exactly when L(x) lies in L(y).
    assert product_moves(mx, my)[1] == same_automaton(product, mx)
    assert product_moves(my, mx)[1] == same_automaton(product, my)
    for report, own in ((cov, mx), (pr, mx), (rc, my)):
        if not report.undefined:
            assert (report.value == 1.0) == same_automaton(product, own)


def test_product_walk_flags_are_the_word_level_inclusions():
    outcomes = set()

    @settings(max_examples=200, deadline=None)
    @given(nfa_pairs())
    def check(pair):
        x, y = pair
        mx, my = minimize(x), minimize(y)
        flags = product_moves(mx, my)[1:]
        assert flags == (language_included(x, y), language_included(y, x))
        outcomes.update(flags)

    check()
    assert outcomes == {True, False}


@settings(max_examples=100, deadline=None)
@given(nfa_pairs(), st.sampled_from(["coverage", "precision_and_recall"]))
def test_pair_measures_walk_each_pair_once(pair, name):
    walks = []

    def spy(x, y):
        walks.append((x, y))
        return product_moves(x, y)

    with mock.patch.object(measures, "product_moves", spy), mock.patch.object(
        measures, "minimize", wraps=minimize
    ) as prepared:
        getattr(measures, name)(*pair)
    assert walks == [tuple(minimize(a) for a in pair)]
    # Each operand is trimmed, then determinized, once; minimize is given the DFA.
    assert [c.args for c in prepared.call_args_list] == [(as_dfa(trim(a)),) for a in pair]


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
    pr, rc = precision_and_recall(counter, ab_star)
    assert rc.value == 1.0 and pr.value < 1.0


def counted_entries(d: Dfa) -> tuple[int, list[tuple[int, int, int]]]:
    """Order and ``(row, col, label count)`` entries of ``d``, counted from its triples."""
    counts = Counter((p, q) for p, _, q in d.transitions)
    return d.state_count, sorted((p, q, w) for (p, q), w in counts.items())


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
def test_measure_path_solves_the_short_circuited_product(pair):
    x, y = pair
    mx, my = minimize(as_dfa(x)), minimize(as_dfa(y))
    # A minimal operand is its own product with itself, numbered alike.
    assert intersect(mx, mx) == mx and intersect(my, my) == my
    for a, b, ma, mb in ((x, y, mx, my), (y, x, my, mx)):
        solved = []

        def spy(matrix, tol, max_iter):
            solved.append((matrix.order, list(matrix.entries)))
            return perron_frobenius(matrix, tol, max_iter)

        with mock.patch.object(measures, "perron_frobenius", spy):
            report = coverage(a, b)
        own = short_circuit(ma)
        measured = [own] if product_moves(ma, mb)[1] else [own, short_circuit(intersect(ma, mb))]
        # The spy sees infinite languages only.
        finite = has_finite_language(ma), has_finite_language(intersect(ma, mb))
        assert solved == [counted_entries(sc) for sc, f in zip(measured, finite) if not f]
        for sc in measured:
            matrix = adjacency_matrix(sc)
            assert (matrix.order, list(matrix.entries)) == counted_entries(sc)
        for stats, sc in ((report.numerator, measured[-1]), (report.denominator, own)):
            assert (stats.states, stats.transitions) == (sc.state_count, len(sc.transitions))


@settings(max_examples=200, deadline=None)
@given(nfa_pairs())
def test_a_finite_operand_sends_no_matrix_to_the_power_iteration(pair):
    mx, my = (minimize(as_dfa(a)) for a in pair)
    if not (has_finite_language(mx) or has_finite_language(my)):
        return
    solved = []

    def spy(matrix, tol, max_iter):
        solved.append((matrix.order, list(matrix.entries)))
        return perron_frobenius(matrix, tol, max_iter)

    with mock.patch.object(measures, "perron_frobenius", spy):
        precision_and_recall(*pair)
    infinite = [m for m in (mx, my) if not has_finite_language(m)]
    assert solved == [counted_entries(short_circuit(m)) for m in infinite]


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
    mx, my = minimize(as_dfa(x)), minimize(as_dfa(y))
    if has_finite_language(mx) or has_finite_language(my):
        return False
    product, _, _ = product_moves(mx, my)
    try:
        want = length_profile_eigenvalue(product.length_profile())
    except InfiniteLanguageError:
        return False
    pr, rc = precision_and_recall(x, y)
    assert coverage(x, y).numerator.eigen == want
    assert pr.numerator.eigen == want and rc.numerator.eigen == want
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
