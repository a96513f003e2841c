import dataclasses
import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import pytest

from entroscope import (
    SILENT,
    AutomatonStats,
    Dfa,
    EigenResult,
    EventLog,
    InfiniteLanguageError,
    MeasureKind,
    Nfa,
    coverage,
    determinize,
    eig_short_circuit_measure,
    minimize,
    perron_frobenius,
    precision,
    prefix_tree_acceptor,
    recall,
    trim,
)
from entroscope import automata, measures
from entroscope.automata import product_moves, short_circuit
from entroscope.formats import report_fields
from helpers import (
    all_words_of_length,
    dense_matrix,
    empty_language_automaton,
    language_included,
    word_log,
)
from login_fixtures import (
    anything_spec,
    extended_log,
    flexible_spec,
    noisy_log,
    retry_spec,
    small_log,
    strict_retry_spec,
    two_word_spec,
)

EIG = MeasureKind.SHORT_CIRCUIT_EIGENVALUE
CARD = MeasureKind.CARDINALITY


class TestEigMeasure:
    def test_epsilon_language_is_one(self):
        eps = Dfa(1, frozenset(), frozenset(), 0, frozenset({0}))
        assert eig_short_circuit_measure(eps).value == pytest.approx(1.0, abs=1e-9)

    def test_universal_language_is_alphabet_size_plus_one(self):
        assert eig_short_circuit_measure(anything_spec()).value == pytest.approx(6.0, rel=1e-9)

    def test_retry_spec_value(self):
        m = minimize(determinize(retry_spec()))
        assert eig_short_circuit_measure(m).value == pytest.approx(1.5129, abs=1e-3)

    def test_empty_language_is_zero(self):
        assert eig_short_circuit_measure(empty_language_automaton()).value == 0.0

    def test_all_words_of_one_long_length(self):
        # 26^250 words: a 251-state chain, short-circuited, with 26 moves per step.
        labels = [f"l{i:02d}" for i in range(26)]
        moves = {(i, lab, i + 1) for i in range(250) for lab in labels}
        spec = Dfa(251, frozenset(labels), frozenset(moves), 0, frozenset({250}))
        report = precision(spec, EventLog([tuple(labels[:1] * 250)]))
        assert report.converged
        assert report.denominator_value == pytest.approx(26 ** (250 / 251), rel=1e-12)
        assert (report.denominator.states, report.denominator.transitions) == (251, 250 * 26 + 1)

    def test_rejects_short_circuited_input(self):
        sc = short_circuit(Dfa(1, frozenset(), frozenset(), 0, frozenset({0})))
        with pytest.raises(ValueError, match="short-circuited"):
            eig_short_circuit_measure(sc)


def written_quotient(report):
    """Numerator, denominator and value as the report writers emit them."""
    fields = report_fields(report)
    return fields["numerator"], fields["denominator"], fields["value"]


class TestCardinalityBeyondFloatRange:
    # 26^220 words exceed the largest float, about 1.8e308.
    def test_precision_divides_the_exact_counts(self):
        spec, labels = all_words_of_length(220)
        log = EventLog([tuple(labels[:1] * 220)])
        report = precision(spec, log, MeasureKind.CARDINALITY)
        assert report.value == 1 / 26**220
        assert (report.numerator_value, report.denominator_value) == (1.0, math.inf)
        assert not report.undefined
        assert written_quotient(report) == (1.0, None, 1 / 26**220)


class TestQuotient:
    # Where L(y) lies inside L(x), coverage(x, y) is the measure of L(y) over that of L(x).
    def test_strict_retry_over_retry(self):
        retry = minimize(determinize(retry_spec()))
        assert language_included(strict_retry_spec(), retry)
        report = coverage(retry, strict_retry_spec())
        assert report.value == pytest.approx(0.9208, abs=1e-3)

    def test_strict_retry_over_universal(self):
        assert language_included(strict_retry_spec(), anything_spec())
        report = coverage(anything_spec(), strict_retry_spec())
        assert report.value == pytest.approx(0.2321, abs=1e-3)

    def test_language_over_itself_is_exactly_one(self):
        report = coverage(flexible_spec(), flexible_spec())
        assert report.value == 1.0
        assert report.numerator is report.denominator  # one solve serves both sides

    def test_empty_over_empty_is_undefined_zero(self):
        report = coverage(empty_language_automaton(), empty_language_automaton())
        assert report.undefined
        assert report.value == 0.0


TABLE_ROWS = [
    (flexible_spec, small_log, 0.442, 1.0),
    (flexible_spec, extended_log, 0.506, 1.0),
    (flexible_spec, noisy_log, 0.447, 0.92),
    (retry_spec, small_log, 0.661, 0.897),
    (retry_spec, extended_log, 0.661, 0.784),
    (retry_spec, noisy_log, 0.0, 0.0),
    (two_word_spec, small_log, 0.881, 0.897),
    (two_word_spec, extended_log, 0.881, 0.784),
    (two_word_spec, noisy_log, 0.0, 0.0),
]


class TestPrecisionRecall:
    @pytest.mark.parametrize("spec,log,want_p,want_r", TABLE_ROWS)
    def test_login_table(self, spec, log, want_p, want_r):
        assert precision(spec(), log()).value == pytest.approx(want_p, abs=1e-3)
        assert recall(spec(), log()).value == pytest.approx(want_r, abs=1e-3)

    def test_cardinality_pair(self):
        assert precision(two_word_spec(), extended_log(), CARD).value == 0.5
        assert recall(two_word_spec(), extended_log(), CARD).value == 0.25

    def test_cardinality_precision_rejects_infinite_spec(self):
        with pytest.raises(InfiniteLanguageError):
            precision(retry_spec(), small_log(), CARD)

    def test_cardinality_recall_tolerates_infinite_spec(self):
        report = recall(retry_spec(), small_log(), CARD)
        assert report.value == 0.5  # abde is the only fitting trace of two

    @pytest.mark.parametrize("kind", [EIG, CARD])
    def test_recall_replays_the_log_without_minimizing(self, monkeypatch, kind):
        want = recall(retry_spec(), small_log(), kind)

        def refuse(d):
            raise AssertionError("recall called minimize")

        monkeypatch.setattr(automata, "minimize", refuse)
        report = recall(retry_spec(), small_log(), kind)
        assert dataclasses.replace(report, runtime_ms=want.runtime_ms) == want

    def test_recall_is_one_when_spec_covers_log(self):
        report = recall(anything_spec(), small_log())
        assert report.value == 1.0

    def test_empty_spec_is_flagged(self):
        report = precision(empty_language_automaton(), small_log())
        assert report.undefined and report.value == 0.0

    def test_empty_log_recall_is_flagged(self):
        report = recall(retry_spec(), EventLog())
        assert report.undefined and report.value == 0.0
        assert report.denominator_value == 0.0
        assert (report.denominator.states, report.denominator.transitions) == (1, 0)

    def test_empty_log_precision_is_zero(self):
        report = precision(retry_spec(), EventLog())
        assert not report.undefined
        assert report.value == 0.0

    def test_multiplicities_do_not_matter(self):
        single = word_log(["abde"])
        repeated = EventLog({tuple("abde"): 50})
        assert precision(retry_spec(), single).value == precision(retry_spec(), repeated).value
        assert recall(retry_spec(), single).value == recall(retry_spec(), repeated).value


def without_runtime(report):
    return dataclasses.replace(report, runtime_ms=0.0)


def outcome(call, spec: Nfa, log: EventLog, kind: MeasureKind):
    """The report of ``call`` without its runtime, or the type of what it raised."""
    try:
        return without_runtime(call(spec, log, kind))
    except InfiniteLanguageError as exc:
        return type(exc)


def replays(*calls) -> int:
    """How many times ``calls`` replay a log on a specification."""
    with mock.patch.object(measures, "_shared_profile", wraps=measures._shared_profile) as spy:
        for call in calls:
            call()
    return spy.call_count


class TestSharedNumerator:
    """``precision`` and ``recall`` of one spec and log replay and solve the log once."""

    @pytest.mark.parametrize("first,second", [(precision, recall), (recall, precision)])
    def test_a_pair_replays_once(self, first, second):
        spec, log = retry_spec(), small_log()
        assert replays(lambda: first(spec, log), lambda: second(spec, log)) == 1

    @pytest.mark.parametrize("kind", [EIG, CARD])
    @pytest.mark.parametrize("first,second", [(precision, recall), (recall, precision)])
    @pytest.mark.parametrize("spec,log,want_p,want_r", TABLE_ROWS)
    def test_reports_equal_those_of_a_fresh_spec(
        self, spec, log, want_p, want_r, first, second, kind
    ):
        held, log = spec(), log()
        got = [outcome(call, held, log, kind) for call in (first, second)]
        assert got == [outcome(call, spec(), log, kind) for call in (first, second)]

    def test_an_equal_but_distinct_log_replays_again(self):
        spec, log = retry_spec(), small_log()
        assert replays(lambda: precision(spec, log), lambda: recall(spec, small_log())) == 2

    def test_another_kind_replays_again(self):
        spec, log = two_word_spec(), small_log()
        assert replays(lambda: precision(spec, log), lambda: recall(spec, log, CARD)) == 2

    def test_a_call_on_another_log_in_between_replays_again(self):
        spec, log, other = retry_spec(), small_log(), extended_log()
        calls = (
            lambda: precision(spec, log),
            lambda: recall(spec, other),
            lambda: recall(spec, log),
        )
        assert replays(*calls) == 3

    def test_a_refused_cardinality_precision_leaves_a_correct_recall(self):
        spec, log = retry_spec(), small_log()
        with pytest.raises(InfiniteLanguageError):
            precision(spec, log, CARD)
        report = recall(spec, log, CARD)
        assert without_runtime(report) == without_runtime(recall(retry_spec(), log, CARD))
        assert report.value == 0.5

    def test_a_pair_measured_both_ways_releases_its_log(self):
        # The second call takes the held numerator off the spec, log and all,
        # so the log's memory comes back once the caller drops it.
        bits = Dfa(1, frozenset("01"), frozenset({(0, "0", 0), (0, "1", 0)}), 0, frozenset({0}))
        precision(bits, word_log(["0", "1"])), recall(bits, word_log(["0"]))  # fills the caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = word_log([format(i, "020b") for i in range(2000)])
            size = tracemalloc.get_traced_memory()[0] - base
            precision(bits, log), recall(bits, log)
            del log
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < size / 4


def same_length_log(count: int, length: int) -> EventLog:
    """``count`` distinct traces of ``length`` events over a..e."""
    return EventLog([(*"a" * (length - 1), last) for last in "abcde"[:count]])


class TestLengthProfileClosedForms:
    """k distinct traces of length n measure k^(1/(n+1)), with no pipeline."""

    @pytest.mark.parametrize("count,length", [(2, 1), (5, 1), (3, 7), (2, 200), (5, 800)])
    def test_same_length_traces(self, count, length):
        log = same_length_log(count, length)
        want = count ** (1.0 / (length + 1))
        report = recall(anything_spec(), log)
        assert report.value == 1.0
        assert report.denominator_value == pytest.approx(want, rel=1e-12)
        assert (report.denominator.states, report.denominator.transitions) == (
            length + 1,
            length + 1,
        )
        assert report.converged and report.denominator.eigen.iterations < 100
        shared = precision(anything_spec(), log).numerator_value
        assert shared == report.numerator_value

    @pytest.mark.parametrize("length", [0, 1, 150, 800])
    def test_single_trace_is_exactly_one(self, length):
        log = same_length_log(1, length) if length else EventLog([()])
        assert recall(anything_spec(), log).denominator_value == 1.0

    def test_rejected_traces_count_only_in_the_denominator(self):
        log = same_length_log(2, 4)
        log = EventLog({**dict(log), ("a", "z"): 3})
        report = recall(anything_spec(), log)
        assert report.numerator_value == pytest.approx(2 ** (1 / 5), rel=1e-12)
        card = recall(anything_spec(), log, CARD)
        assert (card.numerator_value, card.denominator_value) == (2.0, 3.0)
        assert (card.denominator.states, card.denominator.transitions) == (5, 4 + 2)


def coverage_both_ways(x: Nfa, y: Nfa) -> tuple:
    """Eigenvalue precision and recall of ``x`` against ``y``."""
    return coverage(x, y), coverage(y, x)


class TestPrecisionAndRecallPair:
    def test_identical_operands_give_exact_ones(self):
        m = minimize(determinize(retry_spec()))
        pr, rc = coverage_both_ways(m, m)
        assert pr.value == 1.0 and rc.value == 1.0

    def test_retry_spec_against_small_log_tree(self):
        pr, rc = coverage_both_ways(retry_spec(), prefix_tree_acceptor(small_log()))
        assert pr.value == pytest.approx(0.661, abs=1e-3)
        assert rc.value == pytest.approx(0.897, abs=1e-3)

    def test_disjoint_languages_give_zeros(self):
        x = prefix_tree_acceptor(word_log(["ab"]))
        y = prefix_tree_acceptor(word_log(["ba"]))
        pr, rc = coverage_both_ways(x, y)
        assert pr.value == 0.0 and rc.value == 0.0

    def test_reports_carry_diagnostics(self):
        pr, rc = coverage_both_ways(retry_spec(), prefix_tree_acceptor(small_log()))
        assert pr.iterations > 0 and pr.converged
        assert pr.numerator.states > 0 and pr.denominator.states > 0
        assert pr.runtime_ms >= 0.0


class TestCoverage:
    def test_self_coverage_is_one(self):
        assert coverage(flexible_spec(), flexible_spec()).value == 1.0

    def test_contained_language_is_fully_covered(self):
        small = prefix_tree_acceptor(word_log(["abde"]))
        assert coverage(small, retry_spec()).value == 1.0

    def test_reverse_direction_is_partial(self):
        small = prefix_tree_acceptor(word_log(["abde"]))
        report = coverage(retry_spec(), small)
        assert report.value == pytest.approx(1.0 / 1.5129, abs=1e-3)

    def test_empty_first_operand_is_flagged(self):
        report = coverage(empty_language_automaton(), retry_spec())
        assert report.undefined


def test_each_operand_is_minimized_once():
    def minimized(run) -> list:
        with mock.patch.object(automata, "minimize", wraps=minimize) as spy:
            run()
        return [c.args for c in spy.call_args_list]

    x, y = retry_spec(), flexible_spec()
    once = [(x,), (y,)]
    with mock.patch.object(measures, "product_moves", wraps=product_moves) as walks:
        assert minimized(lambda: (coverage(x, y), coverage(y, x))) == once
    assert walks.call_count == 1
    assert x.minimal is x.minimal
    # Replay needs no minimal DFA.
    assert minimized(lambda: recall(retry_spec(), small_log())) == []


def test_no_trim_reads_a_subset_dfa():
    # Each operand is trimmed before the subset construction, never after it.
    built, trimmed = [], []

    def subsets(a):
        built.append(determinize(a))
        return built[-1]

    def trimming(a):
        trimmed.append(a)
        return trim(a)

    x, y = retry_spec(), flexible_spec()
    with mock.patch.object(automata, "determinize", subsets), mock.patch.object(
        automata, "trim", trimming
    ):
        coverage(x, y), coverage(y, x)
    assert built and trimmed
    assert not any(a is d for a in trimmed for d in built)


def test_each_operand_is_trimmed_once():
    # retry_spec is nondeterministic, so its trim NFA is determinized, not trimmed again.
    trimmed = []

    def trimming(a):
        trimmed.append(a)
        return trim(a)

    x, y = retry_spec(), flexible_spec()
    with mock.patch.object(automata, "trim", trimming):
        coverage(x, y), coverage(y, x)
    assert len(trimmed) == 2 and trimmed[0] is x and trimmed[1] is y


def test_a_pair_product_serves_only_the_reverse_call_with_the_same_partner():
    # L(flexible) is not inside L(retry), so the first call solves the product.
    x, y = flexible_spec(), retry_spec()
    with mock.patch.object(measures, "product_moves", wraps=product_moves) as walks:
        coverage(x, y)
        coverage(y, dataclasses.replace(x))  # an equal partner, but not the same one
        coverage(y, x)  # the product was taken off by the call before
    assert walks.call_count == 3


def test_a_long_lived_operand_keeps_at_most_one_partner_alive():
    a, b = "a", "b"
    long_lived = Dfa(1, frozenset({a}), frozenset({(0, a, 0)}), 0, frozenset({0}))
    partners = []
    for i in range(50):
        # (a^i b)*: neither language lies inside the other, so a product is left behind.
        moves = {(k, a, k + 1) for k in range(i)} | {(i, b, 0)}
        partner = Dfa(i + 1, frozenset({a, b}), frozenset(moves), 0, frozenset({0}))
        coverage(partner, long_lived)
        partners.append(weakref.ref(partner.minimal))
        del partner
    gc.collect()
    assert sum(ref() is not None for ref in partners) <= 1


#: Every entry point that takes an automaton, called with a short-circuited one.
SHORT_CIRCUITED_CALLS = {
    "coverage": lambda sc: coverage(sc, sc),
    "precision": lambda sc: precision(sc, small_log()),
    "recall": lambda sc: recall(sc, small_log()),
    "eig_short_circuit_measure": eig_short_circuit_measure,
}


@pytest.mark.parametrize("name", SHORT_CIRCUITED_CALLS)
def test_short_circuited_operands_are_refused(name):
    # Refused even where one language holds the other, and before any work.
    sc = short_circuit(minimize(retry_spec()))
    with mock.patch.object(automata, "minimize", side_effect=AssertionError("minimized")):
        with pytest.raises(ValueError, match="operands must not be short-circuited"):
            SHORT_CIRCUITED_CALLS[name](sc)


#: Every entry point that takes solver bounds, called on a finite language.
BOUNDED_CALLS = {
    "precision": lambda spec, **bounds: precision(spec, small_log(), **bounds),
    "coverage": lambda spec, **bounds: coverage(spec, spec, **bounds),
    "eig_short_circuit_measure": eig_short_circuit_measure,
}


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"tol": -1.0}, "tol must be a finite number above 0, got -1.0"),
        ({"tol": math.nan}, "tol must be a finite number above 0, got nan"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
    ],
    ids=["tol -1", "tol nan", "max_iter 0"],
)
@pytest.mark.parametrize("name", BOUNDED_CALLS)
def test_bad_solver_bounds_are_refused_without_a_solve(name, bounds, message):
    # A finite language is measured by its length profile and needs no power
    # iteration, yet the bounds it was given are checked all the same.
    with pytest.raises(ValueError, match=f"^{message}$"):
        BOUNDED_CALLS[name](two_word_spec(), **bounds)


@pytest.mark.parametrize("spec", [two_word_spec, retry_spec], ids=["finite", "infinite"])
@pytest.mark.parametrize("name", BOUNDED_CALLS)
def test_a_cap_that_is_no_integer_is_refused(name, spec):
    # 1e6 passes ``max_iter >= 1``, but a power iteration's ``range`` takes no
    # float, and a length-profile solve, which needs no cap, would take it silently.
    with pytest.raises(ValueError, match="^max_iter must be an integer, got 1000000.0$"):
        BOUNDED_CALLS[name](spec(), max_iter=1e6)


def nth_from_end(n: int, markers: str, alphabet: str, silent_skip: bool = False) -> Nfa:
    """Words over ``alphabet`` whose n-th symbol from the end is one of ``markers``."""
    labs = list(alphabet)
    moves = {(0, lab, 0) for lab in labs} | {(0, m, 1) for m in markers}
    moves |= {(i, lab, i + 1) for i in range(1, n) for lab in labs}
    if silent_skip:
        moves.add((1, SILENT, 2))
    return Nfa(n + 1, frozenset(labs), frozenset(moves), 0, frozenset({n}))


def stats(states: int, transitions: int, value: float, iterations: int, residual: float):
    return AutomatonStats(states, transitions, EigenResult(value, iterations, True, residual))


#: Coverage reports of pairs where neither language contains the other, so
#: the shared measure is solved on the short-circuited product.  Frozen from
#: the release that still built the product as a ``Dfa``.
PRODUCT_COVERAGE_CASES = [
    (
        (nth_from_end(3, "a", "ab"), nth_from_end(4, "b", "ab")),
        (0.9386203027661584, 2.177817363668024, 2.3202325341247074, 75),
        stats(23, 50, 2.177817363668024, 42, 9.791251761350047e-10),
        stats(8, 20, 2.3202325341247074, 33, 7.649466448780037e-10),
    ),
    (
        (nth_from_end(5, "a", "abc"), nth_from_end(2, "ac", "abc")),
        (0.981016284754029, 3.168968007050821, 3.2302909302319875, 96),
        stats(72, 240, 3.168968007050821, 46, 5.314701454923553e-10),
        stats(32, 112, 3.2302909302319875, 50, 6.579056911906476e-10),
    ),
    (
        (nth_from_end(4, "b", "ab", silent_skip=True), nth_from_end(3, "a", "abc")),
        (0.9050262200555834, 2.177817363773248, 2.406358308204037, 81),
        stats(19, 42, 2.177817363773248, 42, 9.71007310461715e-10),
        stats(9, 23, 2.406358308204037, 39, 8.431256559070249e-10),
    ),
]


@pytest.mark.parametrize("pair, values, numerator, denominator", PRODUCT_COVERAGE_CASES)
def test_product_coverage_is_frozen(pair, values, numerator, denominator):
    report = coverage(*pair)
    got = (report.value, report.numerator_value, report.denominator_value, report.iterations)
    assert got == values
    assert report.numerator == numerator and report.denominator == denominator
    assert report.converged


def test_a_capped_solve_reports_its_eigen_residual():
    # At the third step the quotient still moves by 1.1%, and the vector is
    # off by 4.0%: the residual reported at the cap is the larger of the two.
    m = dense_matrix([[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0]])
    result = perron_frobenius(m, max_iter=3)
    assert (result.value, result.residual, result.converged) == (
        1.5276073619631902,
        0.03951170047597019,
        False,
    )


def test_coverage_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = (
        "import sys, entroscope\n"
        "a = 'a'\n"
        "x = entroscope.Dfa(2, {a}, {(0, a, 1), (1, a, 0)}, 0, {0})\n"
        "y = entroscope.Dfa(3, {a}, {(0, a, 1), (1, a, 2), (2, a, 0)}, 0, {0})\n"
        "assert 0.0 < entroscope.coverage(x, y).value < 1.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"


class TestRepresentationIndependence:
    def test_permuted_and_redundant_specs_measure_identically(self):
        rng = random.Random(6)
        base = minimize(determinize(retry_spec()))
        value = eig_short_circuit_measure(base).value
        perm = list(range(base.state_count))
        rng.shuffle(perm)
        permuted = Dfa(
            base.state_count,
            base.alphabet,
            frozenset((perm[p], lab, perm[q]) for p, lab, q in base.transitions),
            perm[base.start],
            frozenset(perm[q] for q in base.accepts),
        )
        assert eig_short_circuit_measure(permuted).value == value
        assert precision(permuted, small_log()).value == precision(base, small_log()).value
