import csv
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import (
    CHI,
    SILENT,
    EventLog,
    MeasureKind,
    Nfa,
    is_deterministic,
    minimize,
    precision,
    recall,
)
from entroscope.automata import determinize, short_circuit
from entroscope.formats import (
    FormatError,
    export_dot,
    read_automaton,
    read_log,
    read_xes,
    write_automaton,
    write_log,
    write_report,
)
from helpers import (
    empty_language_automaton,
    multiplicity,
    random_log,
    random_nfa,
    reference_read_log,
    tree_read_xes,
    word_log,
)
from login_fixtures import retry_spec, small_log

RETRY_SPEC_DOC = """
{
  "name": "retry-login",
  "alphabet": ["a", "b", "c", "d", "e"],
  "states": ["A", "B", "C", "D", "E"],
  "start": "A",
  "accepts": ["A"],
  "transitions": [
    {"from": "A", "label": "a", "to": "B"},
    {"from": "B", "label": "b", "to": "C"},
    {"from": "B", "label": "b", "to": "D"},
    {"from": "C", "label": "c", "to": "B"},
    {"from": "D", "label": "d", "to": "E"},
    {"from": "E", "label": "e", "to": "A"}
  ]
}
"""


class TestAutomatonDocuments:
    def test_named_state_document_parses(self):
        parsed = read_automaton(RETRY_SPEC_DOC)
        assert parsed == retry_spec()
        assert not is_deterministic(parsed)

    def test_accept_out_of_range_is_positioned(self):
        doc = json.dumps(
            {"alphabet": ["a"], "states": 2, "start": 0, "accepts": [5], "transitions": []}
        )
        with pytest.raises(FormatError, match=r"accepts\[0\].*out of range"):
            read_automaton(doc)

    def test_unknown_label_is_positioned(self):
        doc = json.dumps(
            {
                "alphabet": ["a"],
                "states": 2,
                "start": 0,
                "accepts": [],
                "transitions": [{"from": 0, "label": "zz", "to": 1}],
            }
        )
        with pytest.raises(FormatError, match=r"transitions\[0\].label"):
            read_automaton(doc)

    def test_reserved_label_rejected(self):
        doc = json.dumps(
            {"alphabet": ["__chi__"], "states": 1, "start": 0, "accepts": [], "transitions": []}
        )
        with pytest.raises(FormatError, match="reserved"):
            read_automaton(doc)

    def test_malformed_json_reports_position(self):
        with pytest.raises(FormatError, match="line"):
            read_automaton("{ not json")

    def test_null_label_is_silent(self):
        doc = json.dumps(
            {
                "alphabet": ["a"],
                "states": 2,
                "start": 0,
                "accepts": [1],
                "transitions": [{"from": 0, "label": None, "to": 1}],
            }
        )
        parsed = read_automaton(doc)
        assert not is_deterministic(parsed)

    def test_round_trip_on_random_automata(self):
        rng = random.Random(31)
        for _ in range(50):
            aut = random_nfa(rng)
            assert read_automaton(write_automaton(aut)) == aut

    @pytest.mark.parametrize(
        ("change", "location"),
        [
            (["a"], "document: expected a JSON object"),
            ({"extra": 1}, "document: unknown fields"),
            ({"name": 7}, "name: must be a string"),
            ({"alphabet": "ab"}, "alphabet: must be a list"),
            ({"alphabet": ["a", 3]}, "alphabet[1]: label must be a nonempty string"),
            ({"alphabet": ["a", ""]}, "alphabet[1]: label must be a nonempty string"),
            ({"alphabet": ["a", "a"]}, "alphabet[1]: duplicate label"),
            ({"states": True}, "states: must be a state count"),
            ({"states": 2.0}, "states: must be a state count"),
            ({"states": ["p", 1]}, "states[1]: state name must be a string"),
            ({"states": ["p", "p"]}, "states[1]: duplicate state name"),
            ({"states": 0}, "states: automaton needs at least one state"),
            ({"states": []}, "states: automaton needs at least one state"),
            ({"start": False}, "start: state reference must be an index or a name"),
            ({"start": 0.0}, "start: state reference must be an index or a name"),
            ({"start": "q"}, "start: unknown state name"),
            ({"accepts": 1}, "accepts: must be a list"),
            ({"transitions": {}}, "transitions: must be a list"),
            ({"transitions": [[0, "a", 1]]}, "transitions[0]: must be an object"),
            ({"transitions": [{"from": 0, "to": 1, "via": "a"}]}, "transitions[0]: unknown fields"),
            ({"transitions": [{"from": 0, "label": 5, "to": 1}]}, "transitions[0].label: label"),
        ],
    )
    def test_malformed_documents_are_refused_at_their_location(self, change, location):
        # A dict replaces fields of a valid document; anything else is the document.
        doc = {"alphabet": ["a"], "states": 2, "start": 0, "accepts": [1], "transitions": []}
        if isinstance(change, dict):
            doc.update(change)
        else:
            doc = change
        with pytest.raises(FormatError) as refused:
            read_automaton(json.dumps(doc))
        assert str(refused.value).startswith(location)

    def test_a_late_duplicate_in_a_wide_alphabet_is_refused(self):
        labels = [f"l{i}" for i in range(20_000)] + ["l0"]
        doc = {"alphabet": labels, "states": 1, "start": 0, "accepts": [], "transitions": []}
        with pytest.raises(FormatError, match=r"^alphabet\[20000\]: duplicate label 'l0'$"):
            read_automaton(json.dumps(doc))

    def test_short_circuited_automata_are_not_serialisable(self):
        from entroscope import Dfa

        sc = short_circuit(Dfa(1, frozenset(), frozenset(), 0, frozenset({0})))
        with pytest.raises(FormatError, match="short-circuited"):
            write_automaton(sc)


class TestLogDocuments:
    def test_two_line_log(self):
        parsed = read_log("a b d e\na b c b c d e\n")
        assert parsed == small_log()

    def test_repeated_lines_accumulate(self):
        parsed = read_log("a f e\na f e\n")
        assert multiplicity(parsed, tuple("afe")) == 2

    def test_empty_file_is_empty_log(self):
        assert read_log("") == EventLog()

    def test_blank_line_is_empty_trace(self):
        parsed = read_log("\n")
        assert multiplicity(parsed, ()) == 1

    def test_comments_are_ignored(self):
        parsed = read_log("# a comment\na b\n")
        assert parsed == word_log(["ab"])

    def test_double_space_is_positioned_error(self):
        with pytest.raises(FormatError, match="line 1, event 2"):
            read_log("a  b\n")

    def test_reserved_label_rejected(self):
        with pytest.raises(FormatError, match="reserved"):
            read_log("a __chi__\n")

    @pytest.mark.parametrize(
        "bad, problem", [("", "empty event name"), ("__chi__", "'__chi__' is reserved")]
    )
    def test_a_bad_event_deep_in_a_long_line_is_positioned(self, bad, problem):
        events = [f"e{i}" for i in range(1, 201)]
        events[119] = bad
        with pytest.raises(FormatError, match=f"^line 3, event 120: {problem}"):
            read_log("a\n# x  y\n" + " ".join(events) + "\na\n")

    def test_round_trip_on_random_logs(self):
        rng = random.Random(17)
        for _ in range(50):
            log = random_log(rng)
            assert read_log(write_log(log)) == log

    def test_error_names_the_first_line_of_a_repeated_bad_line(self):
        with pytest.raises(FormatError, match="^line 3, event 2:"):
            read_log("a\n# x  y\nb  c\na\nb  c\n")

    @pytest.mark.parametrize(
        "names, problem",
        [
            (["a b", "c"], "'a b' holds a space or a line break"),
            (["#x"], "first label '#x' would start a comment line"),
            (["a\u2028b"], r"'a\u2028b' holds a space or a line break"),
        ],
    )
    def test_a_trace_that_reads_back_differently_is_refused(self, names, problem):
        log = EventLog([("ok",), tuple(names)])
        with pytest.raises(FormatError, match=rf"^trace \[.*\]: .*{re.escape(problem)}"):
            write_log(log)


#: Lines of a line log: blank, comments, and events that may be empty (a
#: double, leading or trailing space), reserved, or start a comment.
log_lines = st.one_of(
    st.just(""),
    st.text(alphabet="a #", max_size=3).map("#".__add__),
    st.lists(st.sampled_from(["a", "b", "#", "", CHI]), min_size=1, max_size=5).map(" ".join),
)


@st.composite
def line_log_texts(draw):
    """A line log text that repeats some of a few distinct lines, in any order."""
    pool = draw(st.lists(log_lines, min_size=1, max_size=4))
    lines = draw(st.lists(st.sampled_from(pool), max_size=8))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@settings(max_examples=500, deadline=None)
@given(line_log_texts())
def test_read_log_gives_the_reference_log_or_message(text):
    try:
        expected = reference_read_log(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as refused:
            read_log(text)
        assert str(refused.value) == str(exc)
    else:
        assert read_log(text) == expected


def _writable(name: str) -> bool:
    return " " not in name and name.splitlines() == [name]


TRICKY_NAMES = st.sampled_from(["a", "#", "#a", "a#", " ", "a\r", CHI, ""])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(TRICKY_NAMES, st.text()), max_size=4), max_size=5))
def test_every_log_write_log_accepts_round_trips(traces):
    kept = []
    for names in traces:
        if SILENT in names or CHI in names:
            with pytest.raises(ValueError, match="reserved"):
                EventLog([tuple(names)])
        else:
            kept.append(names)
    log = EventLog([tuple(names) for names in kept])
    try:
        text = write_log(log)
    except FormatError:
        assert any(
            not all(map(_writable, names)) or names[0].startswith("#")
            for names in kept
            if names
        )
    else:
        assert read_log(text) == log


MINIMAL_XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="case-1"/>
    <event><string key="concept:name" value="A"/><int key="other" value="3"/></event>
    <event><string key="concept:name" value="B"/></event>
  </trace>
  <trace/>
</log>
"""


class TestXes:
    def test_minimal_sample(self):
        parsed = read_xes(MINIMAL_XES)
        assert multiplicity(parsed, ("A", "B")) == 1
        assert multiplicity(parsed, ()) == 1

    def test_missing_concept_name_names_the_trace(self):
        bad = "<log><trace><event/></trace></log>"
        with pytest.raises(FormatError, match="trace 0"):
            read_xes(bad)

    def test_empty_concept_name_names_the_trace(self):
        # Every label is a nonempty string: an automaton document made from
        # this log could not be read back.
        text = (
            '<log><trace><event><string key="concept:name" value="A"/></event></trace>'
            '<trace><event><string key="concept:name" value=""/></event></trace></log>'
        )
        with pytest.raises(FormatError, match="trace 1: event with an empty concept:name"):
            read_xes(text)

    def test_malformed_xml(self):
        with pytest.raises(FormatError, match="XML"):
            read_xes("<log><trace>")

    @staticmethod
    def lifecycle_log(*events: tuple[str, str | None]) -> str:
        def event(name: str, transition: str | None) -> str:
            attrs = f'<string key="concept:name" value="{name}"/>'
            if transition:
                attrs += f'<string key="lifecycle:transition" value="{transition}"/>'
            return f"<event>{attrs}</event>"

        return f"<log><trace>{''.join(event(n, t) for n, t in events)}</trace></log>"

    def test_start_and_complete_count_once(self):
        events = [("A", "start"), ("A", "complete"), ("B", "START"), ("B", "Complete"), ("C", None)]
        parsed = read_xes(self.lifecycle_log(*events))
        assert multiplicity(parsed, ("A", "B", "C")) == 1
        assert parsed.total_count == 1

    def test_trace_of_start_events_only_is_empty(self):
        parsed = read_xes(self.lifecycle_log(("A", "start"), ("B", "start")))
        assert multiplicity(parsed, ()) == 1

    def test_lifecycle_before_name_is_read(self):
        text = (
            '<log><trace><event><string key="lifecycle:transition" value="start"/>'
            '<string key="concept:name" value="A"/></event></trace></log>'
        )
        assert multiplicity(read_xes(text), ()) == 1


    def test_reserved_label_names_the_trace(self):
        text = (
            '<log><trace><event><string key="concept:name" value="A"/></event></trace>'
            '<trace><event><string key="concept:name" value="__chi__"/></event></trace></log>'
        )
        with pytest.raises(FormatError, match=r"trace 1: '__chi__' is reserved"):
            read_xes(text)

    def test_unbound_prefix_is_a_parse_error(self):
        with pytest.raises(FormatError, match="XML parse error: unbound prefix"):
            read_xes("<log><x:trace/></log>")

    def test_trace_level_concept_name_is_no_event(self):
        text = '<log><trace><string key="concept:name" value="case-1"/></trace></log>'
        parsed = read_xes(text)
        assert multiplicity(parsed, ()) == 1
        assert parsed.total_count == 1

    def test_reading_builds_no_element_tree(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        script = (
            "import sys\n"
            "from entroscope.formats import read_xes\n"
            f"assert read_xes({MINIMAL_XES!r}).total_count == 2\n"
            "print(sorted(m for m in sys.modules if m.startswith('xml.etree')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout == "[]\n"


#: Attribute values as they appear in the document, entity references included.
_XES_NAMES = ["A", "B", "a&amp;b", "caf&#233;", "caf\u00e9", ""]
_XES_LIFECYCLES = ["complete", "COMPLETE", "Complete", "start", "Start", "suspend"]
_XES_COMMENT = "<!-- <event/> -->"


@st.composite
def _pick(draw, parts: list) -> str:
    """One of ``parts``: a strategy, or a fixed string; one listed twice is drawn twice as often."""
    part = parts[draw(st.integers(0, len(parts) - 1))]
    return part if isinstance(part, str) else draw(part)


@st.composite
def _xes_attributes(draw, inner: st.SearchStrategy[str] | None) -> str:
    """One attribute element of any type and key, ``inner`` ones nested in it."""
    tag = draw(st.sampled_from(["string", "x:string", "int", "date"]))
    key = draw(st.sampled_from(["concept:name", "lifecycle:transition", "org:resource"]))
    value = draw(st.sampled_from(_XES_LIFECYCLES if key == "lifecycle:transition" else _XES_NAMES))
    attrs = f' key="{key}"' + (f' value="{value}"' if draw(st.integers(0, 9)) else "")
    nested = draw(st.lists(inner, max_size=2)) if inner is not None else []
    return f"<{tag}{attrs}>{''.join(nested)}</{tag}>"


@st.composite
def _xes_events(draw, others: st.SearchStrategy[str]) -> str:
    """An event among ``others``, rarely unnamed or with the reserved name."""
    # The rare choices sit mid-list: the first and last entries are drawn most.
    name = draw(st.sampled_from(_XES_NAMES * 8 + ["__chi__", None, "&#95;_chi__"] + _XES_NAMES * 8))
    named = "" if name is None else f'<string key="concept:name" value="{name}"/>'
    before, after = draw(st.lists(others, max_size=2)), draw(st.lists(others, max_size=2))
    tag = draw(st.sampled_from(["event", "x:event"]))
    return f"<{tag}>{''.join(before)}{named}{''.join(after)}</{tag}>"


@st.composite
def _xes_traces(draw, children: st.SearchStrategy[str]) -> str:
    tag = draw(st.sampled_from(["trace", "x:trace"]))
    return f"<{tag}>{''.join(draw(st.lists(children, min_size=1, max_size=6)))}</{tag}>"


_ATTRIBUTE = _xes_attributes(None)
# An event inside an attribute is no event of the trace.
_NESTED_ATTRIBUTE = _xes_attributes(
    _pick([_ATTRIBUTE, '<event><string key="concept:name" value="B"/></event>'])
)
_EVENT = _xes_events(_pick([_NESTED_ATTRIBUTE, _XES_COMMENT]))
_INNER_TRACE = _xes_traces(_pick([_EVENT] * 6 + [_NESTED_ATTRIBUTE, _XES_COMMENT]))
# Rarely, a trace nested in a trace or in one of its events.
_OUTER_EVENT = _xes_events(_pick([_NESTED_ATTRIBUTE] * 4 + [_XES_COMMENT, _INNER_TRACE]))
_TRACE = _xes_traces(_pick([_OUTER_EVENT] * 6 + [_NESTED_ATTRIBUTE, _XES_COMMENT, _INNER_TRACE]))


@st.composite
def xes_documents(draw) -> str:
    """A log of traces, events outside any trace, log attributes and comments."""
    parts = _pick([_TRACE] * 4 + [_EVENT, _ATTRIBUTE, _XES_COMMENT])
    children = draw(st.lists(parts, min_size=1, max_size=5))
    namespace = ' xmlns="http://www.xes-standard.org/"' if draw(st.booleans()) else ""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<log{namespace} xmlns:x="http://www.xes-standard.org/">{"".join(children)}</log>\n'
    )


@settings(max_examples=150, deadline=None)
@given(xes_documents())
def test_streaming_xes_reader_matches_the_tree_oracle(text):
    try:
        expected = tree_read_xes(text)
    except FormatError:
        with pytest.raises(FormatError):
            read_xes(text)
        return
    assert read_xes(text) == expected


class TestDot:
    def test_retry_spec_renders_all_states(self):
        dot = export_dot(retry_spec())
        assert dot.count("shape=circle") == 4
        assert dot.count("shape=doublecircle") == 1
        assert "__start -> 0" in dot

    def test_empty_automaton_renders_one_node(self):
        dot = export_dot(empty_language_automaton())
        assert dot.count("shape=circle") == 1

    def test_short_circuited_edges_render_chi(self):
        sc = short_circuit(minimize(determinize(retry_spec())))
        assert 'label="χ"' in export_dot(sc)

    def test_moves_sort_by_the_shown_name(self):
        # The silent move shows as τ and sorts there, before a label named τ.
        moves = {(0, lab, 1) for lab in ("Z", "a", SILENT, "υ", "ω")} | {(0, "τ", 0)}
        a = Nfa(2, frozenset({"Z", "a", "τ", "υ", "ω"}), frozenset(moves), 0, frozenset({1}))
        assert [line for line in export_dot(a).splitlines() if line.startswith("  0 ->")] == [
            '  0 -> 1 [label="Z"];',
            '  0 -> 1 [label="a"];',
            '  0 -> 1 [label="τ"];',
            '  0 -> 0 [label="τ"];',
            '  0 -> 1 [label="υ"];',
            '  0 -> 1 [label="ω"];',
        ]


class TestReports:
    def test_json_round_trips(self):
        report = precision(retry_spec(), small_log())
        fields = json.loads(write_report(report, "json"))
        assert fields["kind"] == "eig"
        assert fields["value"] == pytest.approx(0.661, abs=1e-3)
        assert fields["converged"] is True
        assert fields["states_numerator"] > 0
        assert "runtime_ms" in fields

    def test_undefined_case(self):
        report = precision(empty_language_automaton(), small_log())
        fields = json.loads(write_report(report, "json"))
        assert fields["undefined"] is True
        assert fields["value"] == 0.0

    def test_an_unknown_format_is_refused(self):
        report = recall(retry_spec(), small_log())
        with pytest.raises(ValueError, match="^unknown report format: 'xml'$"):
            write_report(report, "xml")

    def test_csv_has_one_row(self):
        report = recall(retry_spec(), small_log(), MeasureKind.CARDINALITY)
        text = write_report(report, "csv")
        header, row = text.strip().split("\n")
        assert header.startswith("kind,numerator,denominator,value")
        assert row.startswith("card,")

    @pytest.mark.parametrize("spec", [retry_spec, empty_language_automaton])
    def test_csv_spells_each_flag_as_json_does(self, spec):
        report = precision(spec(), small_log())
        (row,) = csv.DictReader(write_report(report, "csv").splitlines())
        fields = json.loads(write_report(report, "json"))
        for flag in ("undefined", "converged"):
            assert row[flag] == json.dumps(fields[flag])
