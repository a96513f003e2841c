import random

import numpy as np
import pytest

from entroscope import (
    EventLog,
    Trace,
    accepts,
    count_words,
    distinct_language,
    has_finite_language,
    label,
    multiplicity,
    prefix_tree_acceptor,
    union,
)
from entroscope.labels import CHI, SILENT
from helpers import ABC, random_log, word_log
from login_fixtures import extended_log, small_log


class TestTrace:
    def test_rejects_reserved_markers(self):
        with pytest.raises(ValueError, match="reserved"):
            Trace((SILENT,))
        with pytest.raises(ValueError, match="reserved"):
            Trace((CHI,))

    def test_of_interns_names(self):
        assert Trace.of("a", "b") == Trace((label("a"), label("b")))


class TestMultiplicity:
    def test_extended_log_counts_duplicates(self):
        assert multiplicity(extended_log(), Trace.of(*"afe")) == 2

    def test_absent_trace_counts_zero(self):
        assert multiplicity(small_log(), Trace.of(*"afe")) == 0

    def test_empty_log(self):
        assert multiplicity(EventLog(), Trace.of("a")) == 0

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicity"):
            EventLog({Trace.of("a"): 0})

    @pytest.mark.parametrize("mult", [1.5, 2.0, True, "2", None])
    def test_rejects_a_multiplicity_that_is_no_integer(self, mult):
        with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
            EventLog({Trace.of("a"): mult})

    def test_numpy_integer_multiplicity_is_an_int(self):
        log = EventLog({Trace.of("a"): np.int64(3)})
        count = multiplicity(log, Trace.of("a"))
        assert count == 3 and type(count) is int


class TestUnion:
    def test_builds_extended_log(self):
        merged = union(small_log(), word_log(["abccde", "afe", "afe"]))
        assert merged == extended_log()
        assert merged.total_count == 5
        assert len(distinct_language(merged)) == 4

    def test_empty_is_identity(self):
        assert union(small_log(), EventLog()) == small_log()

    def test_multiplicities_add(self):
        left = word_log(["b", "a", "a"])
        right = word_log(["b"])
        merged = union(left, right)
        assert multiplicity(merged, Trace.of("a")) == 2
        assert multiplicity(merged, Trace.of("b")) == 2

    def test_commutative_and_associative(self):
        rng = random.Random(5)
        for _ in range(30):
            x, y, z = (random_log(rng) for _ in range(3))
            assert union(x, y) == union(y, x)
            assert union(union(x, y), z) == union(x, union(y, z))
            assert distinct_language(union(x, y)) == distinct_language(x) | distinct_language(y)


class TestDistinctLanguage:
    def test_extended_log_has_four_words(self):
        assert len(distinct_language(extended_log())) == 4

    def test_empty_log(self):
        assert distinct_language(EventLog()) == frozenset()

    def test_repeated_trace_collapses(self):
        log = EventLog({Trace.of("a", "b"): 7})
        assert distinct_language(log) == frozenset({Trace.of("a", "b")})


class TestPrefixTreeAcceptor:
    def test_small_log_structure(self):
        pta = prefix_tree_acceptor(small_log())
        assert pta.state_count == 10  # distinct prefixes of the two traces
        assert count_words(pta) == 2
        for trace in distinct_language(small_log()):
            assert accepts(pta, trace.events)

    def test_empty_log_is_empty_language(self):
        pta = prefix_tree_acceptor(EventLog())
        assert pta.state_count == 1 and not pta.accepts

    def test_epsilon_only_log(self):
        pta = prefix_tree_acceptor(EventLog([Trace(())]))
        assert pta.state_count == 1
        assert pta.accepts == frozenset({0})
        assert not pta.transitions

    def test_accepts_exactly_the_distinct_traces(self):
        rng = random.Random(9)
        for _ in range(40):
            log = random_log(rng)
            pta = prefix_tree_acceptor(log)
            assert has_finite_language(pta)
            language = distinct_language(log)
            assert count_words(pta) == len(language)
            for trace in language:
                assert accepts(pta, trace.events)
            for _ in range(10):
                probe = tuple(rng.choice(ABC) for _ in range(rng.randint(0, 6)))
                assert accepts(pta, probe) == (Trace(probe) in language)
