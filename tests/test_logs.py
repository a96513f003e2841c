import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import (
    CHI,
    SILENT,
    EventLog,
    accepts,
    count_words,
    distinct_language,
    has_finite_language,
    prefix_tree_acceptor,
)
from entroscope.formats import read_log
from helpers import (
    ABC,
    LookAlike,
    multiplicity,
    random_log,
    reference_event_log,
    union,
    word_log,
)
from login_fixtures import extended_log, small_log


class TestTrace:
    def test_rejects_reserved_markers(self):
        for trace in [(SILENT,), (CHI,), ("a", ""), ("a", "__chi__")]:
            with pytest.raises(ValueError, match="reserved"):
                EventLog([trace])
            with pytest.raises(ValueError, match="reserved"):
                EventLog({trace: 1})


#: Events of every kind a trace check tells apart: plain and reserved
#: labels, labels a newline-joined line could mistake for reserved ones, a
#: ``str`` subclass, and events that are no ``str``, one of which hashes
#: and compares equal to a label.  A trace is a tuple of them, or a ``str``,
#: which is no trace.
events = st.sampled_from(
    [
        "a",
        "b",
        SILENT,
        CHI,
        "\n",
        "a\n",
        "\nb",
        f"a\n{CHI}",
        f"\n{CHI}\n",
        "_chi_",
        np.str_("a"),
        np.str_(CHI),
        LookAlike("a"),
        LookAlike(SILENT),
        1,
        None,
    ]
)
traces = st.one_of(st.lists(events, max_size=6).map(tuple), st.text(max_size=2))
multiplicities = st.sampled_from([1, 2, 0, -1, True, 1.5, np.int64(3)])


def outcome(build, entries):
    """What ``build(entries)`` makes of them: its counts or its error message."""
    try:
        return dict(build(entries))
    except ValueError as exc:
        return str(exc)


class TestTraceCheck:
    """``EventLog`` accepts what a check of every event by type and by ``in`` accepts."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(traces, multiplicities), max_size=5))
    def test_as_a_mapping_and_as_a_list(self, pairs):
        as_map = dict(pairs)
        assert outcome(EventLog, as_map) == outcome(reference_event_log, as_map)
        as_list = [trace for trace, _ in pairs]
        assert outcome(EventLog, as_list) == outcome(reference_event_log, as_list)

    def test_a_str_subclass_is_a_label(self):
        assert multiplicity(EventLog([(np.str_("a"), "b")]), ("a", "b")) == 1

    def test_no_str_is_refused_though_it_equals_a_label_seen(self):
        with pytest.raises(ValueError, match="log entries must be traces"):
            EventLog([("a", "b"), ("b", LookAlike("a"))])

    def test_a_newline_in_a_label_is_no_reserved_event(self):
        log = EventLog([(f"a\n{CHI}", "b\n"), ("\n",)])
        assert multiplicity(log, (f"a\n{CHI}", "b\n")) == 1 and multiplicity(log, ("\n",)) == 1

    @pytest.mark.parametrize("trace", [("a\nb", CHI), ("a\n", "")])
    def test_a_newline_label_beside_a_reserved_event_is_refused(self, trace):
        with pytest.raises(ValueError, match="log entries must be traces"):
            EventLog([trace])

    def test_a_bad_trace_is_reported_before_a_later_bad_multiplicity(self):
        with pytest.raises(ValueError, match="log entries must be traces"):
            EventLog({("a", 1): 1, ("b",): 0})
        with pytest.raises(ValueError, match="multiplicity"):
            EventLog({("b",): 0, ("a", 1): 1})


class TestMultiplicity:
    def test_extended_log_counts_duplicates(self):
        assert multiplicity(extended_log(), tuple("afe")) == 2

    def test_absent_trace_counts_zero(self):
        assert multiplicity(small_log(), tuple("afe")) == 0

    def test_empty_log(self):
        assert multiplicity(EventLog(), ("a",)) == 0

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicity"):
            EventLog({("a",): 0})

    @pytest.mark.parametrize("mult", [1.5, 2.0, True, "2", None])
    def test_rejects_a_multiplicity_that_is_no_integer(self, mult):
        with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
            EventLog({("a",): mult})

    @pytest.mark.parametrize(
        "entries",
        [
            ["ab"],
            {"ab": 1},
            [(1, 2)],
            {("a",): 1, "b": 1},
            [("a", "")],
            [("a", CHI)],
            [["a"]],
        ],
    )
    def test_rejects_entries_that_are_no_traces(self, entries):
        with pytest.raises(ValueError, match="invariant violated: log entries must be traces"):
            EventLog(entries)

    def test_a_trace_is_a_tuple_of_labels(self):
        assert EventLog([("a", "b")]) == read_log("a b\n")

    def test_numpy_integer_multiplicity_is_an_int(self):
        log = EventLog({("a",): np.int64(3)})
        count = multiplicity(log, ("a",))
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
        assert multiplicity(merged, ("a",)) == 2
        assert multiplicity(merged, ("b",)) == 2

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
        log = EventLog({("a", "b"): 7})
        assert distinct_language(log) == frozenset({("a", "b")})


class TestPrefixTreeAcceptor:
    def test_small_log_structure(self):
        pta = prefix_tree_acceptor(small_log())
        assert pta.state_count == 10  # distinct prefixes of the two traces
        assert count_words(pta) == 2
        for trace in distinct_language(small_log()):
            assert accepts(pta, trace)

    def test_empty_log_is_empty_language(self):
        pta = prefix_tree_acceptor(EventLog())
        assert pta.state_count == 1 and not pta.accepts

    def test_epsilon_only_log(self):
        pta = prefix_tree_acceptor(EventLog([()]))
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
                assert accepts(pta, trace)
            for _ in range(10):
                probe = tuple(rng.choice(ABC) for _ in range(rng.randint(0, 6)))
                assert accepts(pta, probe) == (probe in language)
