import json
import pickle
import random
from collections import Counter
from unittest import mock

import pytest

from entroscope.automata import canonicalize, intersect, product_moves, short_circuit
from entroscope.formats import read_automaton
from entroscope import (
    CHI,
    SILENT,
    Dfa,
    InfiniteLanguageError,
    MeasureKind,
    Nfa,
    accepts,
    count_words,
    determinize,
    has_finite_language,
    is_deterministic,
    is_ergodic,
    is_trim,
    minimize,
    prefix_tree_acceptor,
    recall,
    trim,
)
from helpers import (
    ABC,
    bounded_language_dfa,
    bounded_language_nfa,
    dense_matrix,
    empty_language_automaton,
    matrix_entries,
    random_dfa,
    random_nfa,
    sorted_words,
)
from login_fixtures import retry_spec, small_log, two_word_spec, word_log

a, b, c = ABC


def chain(n, lab=None, accept_last=True):
    lab = lab or a
    return Nfa(
        n,
        frozenset({lab}),
        frozenset((i, lab, i + 1) for i in range(n - 1)),
        0,
        frozenset({n - 1} if accept_last else set()),
    )


class TestConstruction:
    def test_rejects_zero_states(self):
        with pytest.raises(ValueError, match="state_count"):
            Nfa(0, frozenset(), frozenset(), 0, frozenset())

    def test_rejects_start_out_of_range(self):
        with pytest.raises(ValueError, match="start"):
            Nfa(1, frozenset(), frozenset(), 1, frozenset())

    def test_rejects_accept_out_of_range(self):
        with pytest.raises(ValueError, match="accept"):
            Nfa(1, frozenset(), frozenset(), 0, frozenset({3}))

    def test_rejects_label_outside_alphabet(self):
        with pytest.raises(ValueError, match="alphabet"):
            Nfa(2, frozenset({a}), frozenset({(0, b, 1)}), 0, frozenset())

    def test_rejects_chi_without_short_circuit_mark(self):
        with pytest.raises(ValueError, match="chi"):
            Nfa(2, frozenset({a}), frozenset({(0, CHI, 1)}), 0, frozenset())

    def test_chi_in_the_alphabet_is_the_short_circuit_mark(self):
        loop = Dfa(1, frozenset({CHI}), frozenset({(0, CHI, 0)}), 0, frozenset({0}))
        assert loop.short_circuited
        with pytest.raises(TypeError):
            Dfa(1, frozenset(), frozenset(), 0, frozenset(), short_circuited=True)

    def test_rejects_silent_in_alphabet(self):
        with pytest.raises(ValueError, match="silent"):
            Nfa(1, frozenset({SILENT}), frozenset(), 0, frozenset())
        with pytest.raises(ValueError, match="silent"):
            Nfa(1, frozenset({"a", ""}), frozenset(), 0, frozenset())

    def test_dfa_rejects_silent_transition(self):
        with pytest.raises(ValueError, match="silent"):
            Dfa(2, frozenset({a}), frozenset({(0, SILENT, 1)}), 0, frozenset())

    def test_dfa_rejects_nondeterministic_moves(self):
        with pytest.raises(ValueError, match="duplicate move"):
            Dfa(3, frozenset({a}), frozenset({(0, a, 1), (0, a, 2)}), 0, frozenset())


class TestIsDeterministic:
    def test_retry_spec_is_nondeterministic(self):
        assert not is_deterministic(retry_spec())

    def test_single_state_vacuously_deterministic(self):
        assert is_deterministic(Nfa(1, frozenset(), frozenset(), 0, frozenset()))

    def test_silent_transition_breaks_determinism(self):
        aut = Nfa(2, frozenset({a}), frozenset({(0, SILENT, 1)}), 0, frozenset({1}))
        assert not is_deterministic(aut)


class TestSilentClosure:
    """``determinize`` takes each state's silent closure, so its subsets show what one holds."""

    def test_identity_without_silent_edges(self):
        # Every subset is one state, so ``determinize`` keeps the chain as it is.
        aut = chain(3)
        assert determinize(aut) == Dfa(3, aut.alphabet, aut.transitions, 0, aut.accepts)

    def test_chain_closure(self):
        # The start's closure reaches the accept state at the chain's end, through state 1.
        aut = Nfa(3, frozenset(), frozenset({(0, SILENT, 1), (1, SILENT, 2)}), 0, frozenset({2}))
        assert determinize(aut) == Dfa(1, frozenset(), frozenset(), 0, frozenset({0}))

    def test_cycle_closure_terminates(self):
        aut = Nfa(2, frozenset(), frozenset({(0, SILENT, 1), (1, SILENT, 0)}), 1, frozenset({0}))
        assert determinize(aut) == Dfa(1, frozenset(), frozenset(), 0, frozenset({0}))


class TestDeterminize:
    def test_retry_spec_subsets(self):
        d = determinize(retry_spec())
        assert d.state_count == 4
        assert d.accepts == frozenset({0})
        assert is_deterministic(d)
        want = bounded_language_nfa(retry_spec(), sorted(retry_spec().alphabet), 8)
        assert bounded_language_dfa(d, 8) == want

    def test_retry_spec_numbering_is_frozen(self):
        d = determinize(retry_spec())
        want = {(0, "a", 1), (1, "b", 2), (2, "c", 1), (2, "d", 3), (3, "e", 0)}
        assert d.transitions == frozenset(want)
        assert (d.start, d.accepts) == (0, frozenset({0}))

    def test_dfa_input_keeps_language(self):
        d = random_dfa(random.Random(7))
        again = determinize(d)
        assert bounded_language_dfa(again, 6) == bounded_language_dfa(d, 6)

    def test_unreachable_accepts_give_empty_or_epsilon(self):
        aut = Nfa(2, frozenset({a}), frozenset(), 0, frozenset({1}))
        d = determinize(aut)
        assert bounded_language_dfa(d, 4) == set()
        eps = Nfa(2, frozenset({a}), frozenset(), 0, frozenset({0, 1}))
        assert bounded_language_dfa(determinize(eps), 4) == {()}


class TestTrim:
    def test_drops_dead_branch(self):
        aut = Nfa(
            4,
            frozenset({a, b}),
            frozenset({(0, a, 1), (0, b, 2), (2, a, 3)}),
            0,
            frozenset({1}),
        )
        t = trim(aut)
        assert t.state_count == 2
        assert bounded_language_nfa(t, [a, b], 4) == bounded_language_nfa(aut, [a, b], 4)

    def test_unreachable_accepts_become_canonical_empty(self):
        aut = Nfa(3, frozenset({a}), frozenset({(1, a, 2)}), 0, frozenset({2}))
        t = trim(aut)
        assert t.state_count == 1 and not t.accepts and not t.transitions

    def test_idempotent_and_identical_when_trim(self):
        aut = chain(3)
        assert trim(aut) is aut


class TestMinimize:
    def test_retry_spec_minimal_size(self):
        m = minimize(determinize(retry_spec()))
        assert m.state_count == 4

    def test_idempotent(self):
        m = minimize(determinize(retry_spec()))
        assert minimize(m) == m

    def test_language_equal_redundant_dfas_minimize_identically(self):
        base = Dfa(
            2, frozenset({a, b}), frozenset({(0, a, 1), (1, b, 0)}), 0, frozenset({0})
        )
        # same language (ab)* with the accepting state split in two
        split = Dfa(
            3,
            frozenset({a, b}),
            frozenset({(0, a, 1), (1, b, 2), (2, a, 1)}),
            0,
            frozenset({0, 2}),
        )
        assert bounded_language_dfa(split, 6) == bounded_language_dfa(base, 6)
        assert minimize(split) == minimize(base)

    def test_preserves_language_on_random_dfas(self):
        rng = random.Random(11)
        for _ in range(60):
            d = random_dfa(rng)
            m = minimize(d)
            assert bounded_language_dfa(m, 6) == bounded_language_dfa(d, 6)
            assert is_trim(m)

    def test_a_dead_start_gives_the_canonical_empty_automaton(self):
        # State 2 accepts and loops, but the start cannot reach it.
        d = Dfa(3, frozenset({a, b}), frozenset({(0, a, 1), (1, b, 0), (2, b, 2)}), 0, {2})
        assert minimize(d) == empty_language_automaton({a, b})

    def test_dead_and_unreachable_states_need_no_trim_first(self):
        rng = random.Random(29)
        untrimmed = 0
        for i in range(400):
            d = random_dfa(rng) if i % 2 else random_nfa(rng)
            # A random start leaves states unreachable as well as dead.
            start = rng.randrange(d.state_count)
            d = type(d)(d.state_count, d.alphabet, d.transitions, start, d.accepts)
            untrimmed += is_deterministic(d) and not is_trim(d)
            assert minimize(d) == minimize(trim(d))
        assert untrimmed > 200

    def test_the_minimal_dfa_of_an_nfa_is_the_only_dfa_built(self):
        # The subset construction hands its rows to the refinement, not a Dfa.
        spec = retry_spec()
        assert not is_deterministic(trim(spec))
        init = Dfa.__post_init__
        with mock.patch.object(Dfa, "__post_init__", autospec=True, wraps=init) as built:
            m = spec.minimal
        assert built.call_count == 1 and built.call_args.args[0] is m

    @pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "retry"])
    def test_a_query_builds_no_dfa_and_the_minimal_dfa_builds_only_itself(self, deterministic):
        # Each query reads the rows that ``_trim_rows`` gives, deterministic
        # operand or not; only ``minimal`` hands a ``Dfa`` out, so builds one.
        dead_on_c = Nfa(4, frozenset(ABC), {(0, a, 1), (1, b, 2), (0, c, 3)}, 0, {2})
        spec = dead_on_c if deterministic else retry_spec()
        assert is_deterministic(spec) == deterministic
        log = word_log(["ab", "abde", "c"])
        init = Dfa.__post_init__
        with mock.patch.object(Dfa, "__post_init__", autospec=True, wraps=init) as built:
            for kind in MeasureKind:
                recall(spec, log, kind)
            if has_finite_language(spec):
                count_words(spec)
            else:
                with pytest.raises(InfiniteLanguageError):
                    count_words(spec)
            assert built.call_count == 0
            m = spec.minimal
        assert built.call_count == 1 and built.call_args.args[0] is m


class TestShortCircuit:
    def test_epsilon_language_gets_chi_self_loop(self):
        eps = Dfa(1, frozenset(), frozenset(), 0, frozenset({0}))
        sc = short_circuit(eps)
        assert sc.transitions == frozenset({(0, CHI, 0)})
        assert sc.short_circuited
        assert accepts(sc, (CHI, CHI)) and accepts(sc, ())

    def test_retry_spec_matrix_rows(self):
        sc = short_circuit(minimize(determinize(retry_spec())))
        from entroscope.spectral import adjacency_matrix

        assert matrix_entries(adjacency_matrix(sc)) == matrix_entries(dense_matrix([
            [1, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 0, 0, 0],
        ]))

    def test_empty_language_unchanged(self):
        empty = empty_language_automaton(frozenset({a}))
        assert short_circuit(empty) is empty

    def test_rejects_double_short_circuit(self):
        sc = short_circuit(Dfa(1, frozenset(), frozenset(), 0, frozenset({0})))
        with pytest.raises(ValueError, match="already"):
            short_circuit(sc)

    def test_rejects_a_dead_state(self):
        dead = Dfa(3, frozenset({a, b}), frozenset({(0, a, 1), (0, b, 2)}), 0, frozenset({1}))
        with pytest.raises(ValueError, match="^short_circuit requires a trim automaton$"):
            short_circuit(dead)

    def test_loop_words_only(self):
        word = Dfa(2, frozenset({a}), frozenset({(0, a, 1)}), 0, frozenset({1}))
        sc = short_circuit(word)
        assert accepts(sc, (a,))
        assert accepts(sc, (a, CHI, a))
        assert not accepts(sc, (a, a))
        assert not accepts(sc, (a, CHI))


class TestIntersect:
    def test_retry_spec_against_small_log(self):
        m = minimize(determinize(retry_spec()))
        inter = intersect(m, prefix_tree_acceptor(small_log()))
        words = bounded_language_dfa(inter, 8)
        assert sorted_words(words) == [tuple("abde")]

    def test_self_intersection_language_equal(self):
        d = minimize(determinize(retry_spec()))
        assert bounded_language_dfa(intersect(d, d), 7) == bounded_language_dfa(d, 7)

    def test_disjoint_alphabets_empty(self):
        x = Dfa(2, frozenset({a}), frozenset({(0, a, 1)}), 0, frozenset({1}))
        y = Dfa(2, frozenset({b}), frozenset({(0, b, 1)}), 0, frozenset({1}))
        inter = intersect(x, y)
        assert count_words(inter) == 0

    def test_rejects_short_circuited_operands(self):
        d = Dfa(1, frozenset(), frozenset(), 0, frozenset({0}))
        with pytest.raises(ValueError, match="short-circuited"):
            intersect(short_circuit(d), d)

    def test_product_numbering_is_frozen(self):
        # Pairs reached from x's state 4 are dead and dropped; the rest keep
        # their breadth-first order.
        x_moves = {(0, a, 1), (0, b, 2), (1, a, 3), (1, b, 0), (1, c, 1)}
        x_moves |= {(2, a, 3), (2, b, 2), (3, a, 4), (3, b, 0), (4, b, 4)}
        x = Dfa(5, frozenset({a, b, c}), frozenset(x_moves), 0, frozenset({3}))
        y_moves = {(0, a, 1), (0, b, 2), (1, a, 2), (1, b, 1), (2, a, 2), (2, b, 0)}
        y = Dfa(3, frozenset({a, b}), frozenset(y_moves), 0, frozenset({2}))
        want = {
            (0, a, 1), (0, b, 2), (1, a, 3), (1, b, 4), (2, a, 3), (2, b, 5),
            (3, b, 0), (4, a, 6), (4, b, 7), (5, a, 8), (5, b, 2), (6, a, 3),
            (6, b, 0), (7, a, 3), (7, b, 7), (8, b, 4),
        }  # fmt: skip
        product = intersect(x, y)
        assert product.transitions == frozenset(want)
        assert (product.state_count, product.start, product.accepts) == (9, 0, frozenset({3}))
        assert product.alphabet == frozenset({a, b})


class TestIsIncluded:
    # The first flag of the product walk, exact for a trim first operand.
    def test_log_tree_inside_the_spec_but_not_back(self):
        m = minimize(determinize(retry_spec()))
        inside = minimize(prefix_tree_acceptor(word_log(["abde", "abcbde"])))
        partly = minimize(prefix_tree_acceptor(small_log()))
        assert product_moves(inside, m)[1]
        assert not product_moves(partly, m)[1]
        assert not product_moves(m, inside)[1]

    def test_empty_language_is_included_in_anything(self):
        assert product_moves(empty_language_automaton(), minimize(determinize(retry_spec())))[1]


class TestErgodic:
    def test_short_circuit_makes_ergodic(self):
        rng = random.Random(3)
        found = 0
        while found < 20:
            d = minimize(random_dfa(rng))
            if not d.accepts:
                continue
            found += 1
            assert is_ergodic(short_circuit(d))

    def test_chain_not_ergodic(self):
        assert not is_ergodic(chain(2))

    def test_retry_spec_is_ergodic(self):
        assert is_ergodic(retry_spec())


class TestFiniteLanguage:
    def test_prefix_trees_are_finite(self):
        assert has_finite_language(prefix_tree_acceptor(small_log()))

    def test_retry_spec_is_infinite(self):
        assert not has_finite_language(determinize(retry_spec()))

    def test_cycle_outside_trim_part_is_finite(self):
        aut = Dfa(
            3,
            frozenset({a, b}),
            frozenset({(0, a, 1), (2, b, 2)}),
            0,
            frozenset({1}),
        )
        assert has_finite_language(aut)

    def test_a_silent_loop_adds_no_word(self):
        # {a}: the silent loop on the accept state is no cycle of the DFA.
        aut = Nfa(2, frozenset({a}), frozenset({(0, a, 1), (1, SILENT, 1)}), 0, frozenset({1}))
        assert has_finite_language(aut)


class TestCountWords:
    def test_two_word_spec(self):
        assert count_words(two_word_spec()) == 2

    def test_empty_language(self):
        assert count_words(empty_language_automaton()) == 0

    def test_epsilon_language(self):
        assert count_words(Dfa(1, frozenset(), frozenset(), 0, frozenset({0}))) == 1

    def test_infinite_language_raises(self):
        with pytest.raises(InfiniteLanguageError):
            count_words(determinize(retry_spec()))

    @pytest.mark.parametrize(
        "accepts, moves",
        [
            # {b, ab, ba}: deterministic, but read as an ``Nfa``
            ([2, 3], [(0, "a", 1), (1, "b", 3), (0, "b", 2), (2, "a", 3)]),
            # {a, b, ab}: a silent move from the start, and "a" read two ways
            ([3], [(0, None, 1), (0, "a", 2), (1, "a", 3), (1, "b", 3), (2, "b", 3), (2, None, 3)]),
        ],
        ids=["deterministic", "silent"],
    )
    def test_counts_a_read_document(self, accepts, moves):
        transitions = [{"from": p, "label": lab, "to": q} for p, lab, q in moves]
        doc = {"alphabet": ["a", "b"], "states": 4, "start": 0, "accepts": accepts}
        aut = read_automaton(json.dumps({**doc, "transitions": transitions}))
        assert count_words(aut) == len(bounded_language_nfa(aut, ["a", "b"], 4)) == 3

    def test_matches_enumeration_on_random_acyclic(self):
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            d = random_dfa(rng, max_states=12)
            if not has_finite_language(d):
                continue
            checked += 1
            assert count_words(d) == len(bounded_language_dfa(d, 12))

    def test_profile_is_the_length_histogram_on_random_acyclic(self):
        rng = random.Random(29)
        checked = 0
        while checked < 40:
            d = random_dfa(rng, max_states=12)
            if not has_finite_language(d):
                continue
            checked += 1
            t = trim(d)
            histogram = Counter(map(len, bounded_language_dfa(d, 12)))
            assert t.arrays.length_profile() == histogram
            m = minimize(d)
            assert m.arrays.length_profile() == histogram

    def test_profile_of_a_cycle_raises(self):
        m = minimize(determinize(retry_spec()))
        with pytest.raises(InfiniteLanguageError):
            m.arrays.length_profile()

    def test_profile_counts_past_float_range(self):
        # All 26^250 words of length 250: a chain with 26 labels per step.
        labels = [f"l{i}" for i in range(26)]
        moves = {(i, lab, i + 1) for i in range(250) for lab in labels}
        d = Dfa(251, frozenset(labels), frozenset(moves), 0, frozenset({250}))
        assert d.arrays.length_profile() == {250: 26**250}
        assert count_words(d) == 26**250


class TestAccepts:
    def test_replay(self):
        m = minimize(determinize(retry_spec()))
        assert accepts(m, tuple("abde"))
        assert not accepts(m, tuple("abcbcde"))

    def test_empty_word_acceptance_is_start_acceptance(self):
        m = minimize(determinize(retry_spec()))
        assert accepts(m, ())

    def test_foreign_label_rejects(self):
        m = minimize(determinize(retry_spec()))
        assert not accepts(m, ("zz",))


class TestCanonicalize:
    def test_permuted_copies_canonicalize_equal(self):
        d = minimize(determinize(retry_spec()))
        perm = [2, 0, 3, 1]
        permuted = Dfa(
            d.state_count,
            d.alphabet,
            frozenset((perm[p], lab, perm[q]) for p, lab, q in d.transitions),
            perm[d.start],
            frozenset(perm[q] for q in d.accepts),
        )
        assert canonicalize(permuted) == canonicalize(d)


def test_pickled_automata_round_trip_equal():
    m = minimize(determinize(retry_spec()))
    for d in (m, short_circuit(m)):
        back = pickle.loads(pickle.dumps(d))
        assert back == d
        assert back.rows == d.rows and back.alphabet == d.alphabet
