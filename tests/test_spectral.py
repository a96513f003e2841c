import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroscope import (
    Dfa,
    Moves,
    determinize,
    is_ergodic,
    length_profile_eigenvalue,
    minimize,
    perron_frobenius,
    spectral,
)
from entroscope.automata import short_circuit
from entroscope.spectral import adjacency_matrix
from helpers import (
    count_words_of_length,
    dense_matrix,
    empty_language_automaton,
    matrix_entries,
    random_dfa,
    reference_length_profile_eigenvalue,
    sparse_matrix,
)
from login_fixtures import retry_spec

a, b = "a", "b"


class TestAdjacencyMatrix:
    def test_short_circuited_retry_spec(self):
        sc = short_circuit(minimize(determinize(retry_spec())))
        assert matrix_entries(adjacency_matrix(sc)) == matrix_entries(dense_matrix([
            [1, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 0, 0, 0],
        ]))

    def test_empty_language_is_order_one_zero(self):
        m = adjacency_matrix(empty_language_automaton())
        assert m.order == 1 and not matrix_entries(m)

    def test_counts_parallel_labels(self):
        labs = frozenset("uvwxyz")
        loops = frozenset((0, lab, 0) for lab in labs)
        d = Dfa(1, labs, loops, 0, frozenset({0}))
        assert matrix_entries(adjacency_matrix(d)) == matrix_entries(dense_matrix([[6]]))


REGRESSION_MATRICES = [
    ([[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0]], 1.5129),
    (
        [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 1],
            [1, 0, 0, 0, 0, 0],
        ],
        1.3931,
    ),
    ([[1, 1, 0], [0, 2, 2], [1, 0, 0]], 2.521),
]


class TestPerronFrobenius:
    @pytest.mark.parametrize("rows,expected", REGRESSION_MATRICES)
    def test_regression_values(self, rows, expected):
        result = perron_frobenius(dense_matrix(rows))
        assert result.converged
        assert result.value == pytest.approx(expected, abs=1e-3)

    def test_zero_matrix(self):
        result = perron_frobenius(sparse_matrix(1, ()))
        assert result.value == 0.0 and result.converged

    @pytest.mark.parametrize("rows", [[[9]], [[0]]])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_raises(self, rows, cap):
        # Below 1 no iteration runs, so there is no estimate to return.
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            perron_frobenius(dense_matrix(rows), max_iter=cap)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # No Rayleigh-quotient change is below such a tolerance, or every one is.
        with pytest.raises(ValueError, match="tol must be a finite number above 0"):
            perron_frobenius(dense_matrix([[9]]), tol=tol)

    def test_scalar_matrix(self):
        result = perron_frobenius(dense_matrix([[9]]))
        assert result.value == pytest.approx(9.0, rel=1e-9)

    def test_pure_cycle_is_one(self):
        k = 5
        rows = [[1 if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
        result = perron_frobenius(dense_matrix(rows))
        assert result.converged
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariant(self):
        rng = random.Random(2)
        for _ in range(20):
            d = minimize(random_dfa(rng))
            if not d.accepts:
                continue
            sc = short_circuit(d)
            m = adjacency_matrix(sc)
            perm = list(range(m.order))
            rng.shuffle(perm)
            entries = ((perm[r], perm[c], w) for r, c, w in matrix_entries(m))
            shuffled = sparse_matrix(m.order, entries)
            got = perron_frobenius(shuffled).value
            want = perron_frobenius(m).value
            assert got == pytest.approx(want, rel=1e-7)

    def test_monotone_under_added_transition(self):
        rng = random.Random(4)
        checked = 0
        while checked < 20:
            d = minimize(random_dfa(rng))
            if not d.accepts:
                continue
            sc = short_circuit(d)
            if not is_ergodic(sc):
                continue
            base = perron_frobenius(adjacency_matrix(sc)).value
            p = rng.randrange(sc.state_count)
            q = rng.randrange(sc.state_count)
            fresh = f"extra{checked}"
            grown = Dfa(
                sc.state_count,
                sc.alphabet | {fresh},
                sc.transitions | {(p, fresh, q)},
                sc.start,
                sc.accepts,
            )
            bigger = perron_frobenius(adjacency_matrix(grown)).value
            assert bigger >= base - 1e-9
            checked += 1

    def test_nonconvergence_is_flagged_not_raised(self):
        m = dense_matrix(REGRESSION_MATRICES[0][0])
        result = perron_frobenius(m, tol=1e-9, max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert result.value > 0


def profile_graph(profile: dict[int, int]) -> Moves:
    """The chain 0 -> 1 -> ... -> K plus a loop-back of weight c_k from k."""
    longest = max(profile)
    entries = [(i, i + 1, 1) for i in range(longest)]
    entries += [(k, 0, c) for k, c in profile.items()]
    return sparse_matrix(longest + 1, entries)


class TestLengthProfileEigenvalue:
    def test_empty_profile_is_zero(self):
        assert length_profile_eigenvalue({}) == perron_frobenius(sparse_matrix(1, ()))

    def test_matches_power_iteration_on_the_profile_graph(self):
        rng = random.Random(3)
        for _ in range(40):
            profile = {rng.randint(0, 12): rng.randint(1, 30) for _ in range(rng.randint(1, 4))}
            result = length_profile_eigenvalue(profile)
            assert result.converged and 0 < result.iterations < 100
            assert result.residual < 1e-14
            want = perron_frobenius(profile_graph(profile), tol=1e-12)
            assert want.converged
            assert result.value == pytest.approx(want.value, rel=1e-9)

    def test_zero_counts_are_ignored(self):
        assert length_profile_eigenvalue({3: 2, 5: 0}) == length_profile_eigenvalue({3: 2})

    def test_value_does_not_depend_on_the_order_of_the_lengths(self):
        rng = random.Random(5)
        for _ in range(200):
            items = [(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(rng.randint(2, 8))]
            profile = dict(items)
            shuffled = dict(rng.sample(list(profile.items()), len(profile)))
            assert length_profile_eigenvalue(shuffled) == length_profile_eigenvalue(profile)

    @pytest.mark.parametrize("n", [1, 250, 2000])
    def test_counts_past_float_range(self, n):
        # All words of length n over 26 labels: 26^n of them, far past a float at n = 250.
        result = length_profile_eigenvalue({n: 26**n})
        assert result.converged
        assert result.value == pytest.approx(26 ** (n / (n + 1)), rel=1e-12)

    def test_rejects_negative_lengths_and_counts(self):
        for bad in ({-1: 1}, {2: -1}):
            with pytest.raises(ValueError, match="non-negative"):
                length_profile_eigenvalue(bad)


#: Length profile shaped like a ``long-lasso`` log's: 8 words, 99 to 155 long.
LASSO_PROFILE = {k: 1 for k in range(99, 156, 8)}

#: Lengths below 300 with counts up to 10^12.
short_profiles = st.dictionaries(
    st.integers(0, 299), st.integers(1, 10**12), min_size=1, max_size=20
)

#: Counts past float range, which the solve rescales; lengths from 2 keep
#: the eigenvalue, about ``c^(1/(k+1))``, within float range.
huge_profiles = st.dictionaries(
    st.integers(2, 299), st.integers(1, 10**600), min_size=1, max_size=8
).filter(lambda p: max(p.values()) > 2**1024)

#: Counts below float range whose sum passes it.
near_max_profiles = st.dictionaries(
    st.integers(0, 40), st.integers(10**307, int(1.7e308)), min_size=2, max_size=8
)

#: One length, which Newton solves in one step, and short words, where z* is near 1.
small_profiles = st.one_of(
    st.builds(lambda k, c: {k: c}, st.integers(0, 2000), st.integers(1, 10**300)),
    st.dictionaries(st.integers(0, 3), st.integers(1, 3), min_size=1, max_size=4),
)


def profile_terms(profile):
    """The ``(k + 1, c)`` terms of a profile within float range, as the solve sorts them."""
    return sorted((k + 1, c) for k, c in profile.items())


class TestCertifiedWindow:
    """The window skips sums; every result is still the plain bisection's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(short_profiles, huge_profiles, near_max_profiles, small_profiles))
    @example({5: 10**308, 6: 10**308})
    @example({0: 1})
    @example({0: 7})
    @example(LASSO_PROFILE)
    def test_every_field_equals_the_plain_bisection(self, profile):
        assert length_profile_eigenvalue(profile) == reference_length_profile_eigenvalue(profile)

    @settings(max_examples=100, deadline=None)
    @given(short_profiles)
    @example(LASSO_PROFILE)
    @example({0: 1})
    def test_window_holds_in_exact_arithmetic(self, profile):
        # T is the exact sum; by _error_bound, a rounded sum lies within
        # rho T + eta of it, so no float z <= below sums to 1 or more and no
        # float z >= above sums below 1.
        terms = profile_terms(profile)
        below, above = spectral._window(terms)
        rho, eta = map(Fraction, spectral._error_bound(terms))

        def exact(z):
            return sum(Fraction(float(c)) * Fraction(z) ** e for e, c in terms)

        assert 0.0 <= below < above <= 1.0
        assert below == 0.0 or (1 + rho) * exact(below) + eta < 1
        assert above == 1.0 or (1 - rho) * exact(above) - eta >= 1

    def test_lasso_profile_takes_few_sums(self, monkeypatch):
        calls = []
        terms = spectral._terms
        monkeypatch.setattr(spectral, "_terms", lambda *args: calls.append(args) or terms(*args))
        result = length_profile_eigenvalue(LASSO_PROFILE)
        assert result == reference_length_profile_eigenvalue(LASSO_PROFILE)
        assert result.iterations == 53
        assert len(calls) <= 20
        below, above = spectral._window(profile_terms(LASSO_PROFILE))
        assert 0.0 < below < above < 1.0 and above / below - 1 < 1e-13

    def test_uncertified_window_falls_back_to_every_sum(self, monkeypatch):
        # One word of length 10^18 next to a single letter: G is so curved
        # that the Newton steps end far from the root, and neither side of
        # the window is certified.
        profile = {0: 1, 10**18: 1}
        assert spectral._window(profile_terms(profile)) == (0.0, 1.0)
        calls = []
        terms, window = spectral._terms, spectral._window

        def window_then_count(t):
            found = window(t)
            calls.clear()
            return found

        monkeypatch.setattr(spectral, "_terms", lambda *args: calls.append(args) or terms(*args))
        monkeypatch.setattr(spectral, "_window", window_then_count)
        result = length_profile_eigenvalue(profile)
        assert result == reference_length_profile_eigenvalue(profile)
        assert len(calls) == result.iterations  # a sum at every bisection step


class TestEntropy:
    def test_log2_of_dominant_eigenvalue(self):
        rows = [[0, 2], [2, 0]]
        d_labels = list("pqrs")
        d = Dfa(
            2,
            frozenset(d_labels),
            frozenset(
                {(0, d_labels[0], 1), (0, d_labels[1], 1), (1, d_labels[2], 0), (1, d_labels[3], 0)}
            ),
            0,
            frozenset({0}),
        )
        assert matrix_entries(adjacency_matrix(d)) == matrix_entries(dense_matrix(rows))
        value = perron_frobenius(adjacency_matrix(d)).value
        assert math.log2(value) == pytest.approx(1.0, abs=1e-9)

    def test_short_circuited_retry_spec_entropy(self):
        sc = short_circuit(minimize(determinize(retry_spec())))
        value = perron_frobenius(adjacency_matrix(sc)).value
        assert math.log2(value) == pytest.approx(math.log2(1.5129), abs=1e-3)

    def test_chi_loop_only_is_zero(self):
        eps = Dfa(1, frozenset(), frozenset(), 0, frozenset({0}))
        value = perron_frobenius(adjacency_matrix(short_circuit(eps))).value
        assert math.log2(value) == pytest.approx(0.0, abs=1e-12)


class TestGrowthOracle:
    def test_word_count_growth_matches_eigenvalue(self):
        # small version of the acceptance-scale oracle equivalence suite
        rng = random.Random(12)
        checked = 0
        while checked < 25:
            d = minimize(random_dfa(rng, max_states=8))
            if not d.accepts:
                continue
            sc = short_circuit(d)
            low = count_words_of_length(sc, 40)
            high = count_words_of_length(sc, 61)
            if low == 0 or high == 0:
                continue  # periodic growth; the acceptance suite filters these
            empirical = (high / low) ** (1.0 / 21.0)
            value = perron_frobenius(adjacency_matrix(sc)).value
            assert empirical == pytest.approx(value, rel=0.02)
            checked += 1
