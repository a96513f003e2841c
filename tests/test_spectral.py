import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import (
    Dfa,
    SparseMatrix,
    adjacency_matrix,
    determinize,
    empty_language_automaton,
    is_ergodic,
    label,
    length_profile_eigenvalue,
    minimize,
    perron_frobenius,
    short_circuit,
)
from helpers import count_words_of_length, dense_matrix, random_dfa, sparse_matrix
from login_fixtures import retry_spec

a, b = label("a"), label("b")


@st.composite
def move_arrays(draw) -> tuple[int, np.ndarray, np.ndarray]:
    """An order and parallel source and target arrays, repeats and no moves included."""
    order = draw(st.integers(1, 6))
    state = st.integers(0, order - 1)
    moves = draw(st.lists(st.tuples(state, state), max_size=30))
    moves += moves[: draw(st.integers(0, len(moves)))]  # some moves twice
    sources, targets = np.array(moves, dtype=np.intp).reshape(-1, 2).T
    return order, sources, targets


class TestSparseMatrix:
    @settings(max_examples=200, deadline=None)
    @given(move_arrays())
    def test_from_moves_counts_each_coordinate_once(self, moves):
        order, sources, targets = moves
        m = SparseMatrix.from_moves(order, sources, targets)
        coordinates = [(r, c) for r, c, _ in m.entries]
        assert m.order == order
        assert coordinates == sorted(set(coordinates))
        assert all(w >= 1 for _, _, w in m.entries)
        assert sum(w for _, _, w in m.entries) == sources.size
        counts = Counter(zip(sources.tolist(), targets.tolist()))
        assert m.entries == tuple((r, c, w) for (r, c), w in sorted(counts.items()))


class TestAdjacencyMatrix:
    def test_short_circuited_retry_spec(self):
        sc = short_circuit(minimize(determinize(retry_spec())))
        assert adjacency_matrix(sc).entries == dense_matrix([
            [1, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 0, 0, 0],
        ]).entries

    def test_empty_language_is_order_one_zero(self):
        m = adjacency_matrix(empty_language_automaton())
        assert m.order == 1 and not m.entries

    def test_counts_parallel_labels(self):
        labs = frozenset(label(ch) for ch in "uvwxyz")
        loops = frozenset((0, lab, 0) for lab in labs)
        d = Dfa(1, labs, loops, 0, frozenset({0}))
        assert adjacency_matrix(d).entries == dense_matrix([[6]]).entries


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
            shuffled = sparse_matrix(m.order, ((perm[r], perm[c], w) for r, c, w in m.entries))
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
            fresh = label(f"extra{checked}")
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


def profile_graph(profile: dict[int, int]) -> SparseMatrix:
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


class TestEntropy:
    def test_log2_of_dominant_eigenvalue(self):
        rows = [[0, 2], [2, 0]]
        d_labels = [label(ch) for ch in "pqrs"]
        d = Dfa(
            2,
            frozenset(d_labels),
            frozenset(
                {(0, d_labels[0], 1), (0, d_labels[1], 1), (1, d_labels[2], 0), (1, d_labels[3], 0)}
            ),
            0,
            frozenset({0}),
        )
        assert adjacency_matrix(d).entries == dense_matrix(rows).entries
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
