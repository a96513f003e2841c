"""External representations: automaton and log documents, XES, DOT, reports.

The automaton document is JSON; the log document is plain text with one
trace per line.  Labels are ``str`` values, and readers keep the checked
strings as they are.  Both reserved label strings are refused in input: the
silent ``SILENT`` (``""``) is encoded as a null (or absent) label field,
never as a string, and the short-circuit ``CHI`` (``"__chi__"``) is never
serialised at all (DOT excepted, for inspection, where they show as τ and χ).

XES is read in one streaming expat pass, without an element tree, and only
a subset of it: ``trace`` elements, the ``event`` elements directly inside
them, and each event's ``concept:name`` and ``lifecycle:transition``
``string`` attributes.  Log-level and trace-level attributes, extensions,
classifiers, globals and every other attribute type are skipped.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from typing import Any, NoReturn
from xml.parsers import expat

from .automata import CHI, SILENT, Nfa
from .logs import EventLog
from .measures import MeasureReport


class FormatError(ValueError):
    """Malformed document; the message carries the offending position."""


def _fail(where: str, problem: str) -> NoReturn:
    raise FormatError(f"{where}: {problem}")


def _label_string(raw: Any, where: str) -> str:
    if not isinstance(raw, str) or not raw:
        _fail(where, "label must be a nonempty string")
    if raw == CHI:
        _fail(where, f"{CHI!r} is reserved")
    return raw


def read_automaton(text: str) -> Nfa:
    """Parse an automaton document; malformed input raises FormatError."""
    return read_named_automaton(text)[0]


def read_named_automaton(text: str) -> tuple[Nfa, str | None]:
    """Parse an automaton document and return it with its optional name."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    unknown = set(doc) - {"name", "alphabet", "states", "start", "accepts", "transitions"}
    if unknown:
        _fail("document", f"unknown fields: {sorted(unknown)}")
    if "name" in doc and not isinstance(doc["name"], str):
        _fail("name", "must be a string")

    raw_alphabet = doc.get("alphabet")
    if not isinstance(raw_alphabet, list):
        _fail("alphabet", "must be a list of label strings")
    alphabet: set[str] = set()
    for i, raw in enumerate(raw_alphabet):
        lab = _label_string(raw, f"alphabet[{i}]")
        if lab in alphabet:
            _fail(f"alphabet[{i}]", f"duplicate label {raw!r}")
        alphabet.add(lab)

    raw_states = doc.get("states")
    names: dict[str, int] = {}
    if isinstance(raw_states, bool):
        _fail("states", "must be a state count or a list of state names")
    if isinstance(raw_states, int):
        state_count = raw_states
    elif isinstance(raw_states, list):
        for i, name in enumerate(raw_states):
            if not isinstance(name, str):
                _fail(f"states[{i}]", "state name must be a string")
            if name in names:
                _fail(f"states[{i}]", f"duplicate state name {name!r}")
            names[name] = i
        state_count = len(raw_states)
    else:
        _fail("states", "must be a state count or a list of state names")
    if state_count < 1:
        _fail("states", "automaton needs at least one state")

    def state_ref(raw: Any, where: str) -> int:
        if isinstance(raw, bool):
            _fail(where, "state reference must be an index or a name")
        if isinstance(raw, int):
            if not 0 <= raw < state_count:
                _fail(where, f"state index {raw} out of range 0..{state_count - 1}")
            return raw
        if isinstance(raw, str):
            if raw not in names:
                _fail(where, f"unknown state name {raw!r}")
            return names[raw]
        _fail(where, "state reference must be an index or a name")

    start = state_ref(doc.get("start"), "start")
    raw_accepts = doc.get("accepts")
    if not isinstance(raw_accepts, list):
        _fail("accepts", "must be a list of states")
    accepts = frozenset(
        state_ref(raw, f"accepts[{i}]") for i, raw in enumerate(raw_accepts)
    )

    raw_transitions = doc.get("transitions")
    if not isinstance(raw_transitions, list):
        _fail("transitions", "must be a list of objects")
    transitions = set()
    for i, raw in enumerate(raw_transitions):
        where = f"transitions[{i}]"
        if not isinstance(raw, dict):
            _fail(where, "must be an object with from/label/to")
        extra = set(raw) - {"from", "label", "to"}
        if extra:
            _fail(where, f"unknown fields: {sorted(extra)}")
        source = state_ref(raw.get("from"), f"{where}.from")
        target = state_ref(raw.get("to"), f"{where}.to")
        raw_label = raw.get("label")
        if raw_label is None:
            lab = SILENT
        else:
            lab = _label_string(raw_label, f"{where}.label")
            if lab not in alphabet:
                _fail(f"{where}.label", f"{raw_label!r} is not in the alphabet")
        transitions.add((source, lab, target))
    return Nfa(state_count, alphabet, frozenset(transitions), start, accepts), doc.get("name")


def write_automaton(a: Nfa, name: str | None = None) -> str:
    """Serialise an automaton document (reads back identically)."""
    if a.short_circuited:
        raise FormatError("document: short-circuited automata cannot be serialised")
    doc: dict[str, Any] = {}
    if name:
        doc["name"] = name
    doc["alphabet"] = sorted(a.alphabet)
    doc["states"] = a.state_count
    doc["start"] = a.start
    doc["accepts"] = sorted(a.accepts)
    doc["transitions"] = [
        {"from": p, "label": None if lab == SILENT else lab, "to": q}
        for p, lab, q in sorted(a.transitions)
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def read_log(text: str) -> EventLog:
    """Parse the line-based log format.

    One trace per line, events separated by single spaces; a fully empty
    line is the empty trace and ``#`` starts a comment line.  Each distinct
    line is split once and ``EventLog`` checks the traces; only when it
    refuses them are the lines walked, in file order, to name the first bad
    event and its line.
    """
    lines = text.splitlines()
    traces = {
        tuple(line.split(" ")) if line else (): mult
        for line, mult in Counter(lines).items()
        if not line.startswith("#")
    }
    try:
        return EventLog(traces)
    except ValueError:
        number, pos, event = next(
            (number, pos, event)
            for number, line in enumerate(lines, 1) if line and not line.startswith("#")
            for pos, event in enumerate(line.split(" "), 1) if event in (SILENT, CHI)
        )
    problem = f"{CHI!r} is reserved" if event else "empty event name (double space?)"
    _fail(f"line {number}, event {pos}", problem)


def write_log(log: EventLog) -> str:
    """Serialise a log; repeated lines encode multiplicities.

    A trace that would read back differently raises FormatError naming it.
    """
    lines = []
    for trace, mult in sorted(log):
        names = list(trace)
        for name in names:
            if " " in name or name.splitlines() != [name]:
                _fail(f"trace {names}", f"{name!r} holds a space or a line break")
        if names and names[0].startswith("#"):
            _fail(f"trace {names}", f"first label {names[0]!r} would start a comment line")
        lines.extend([" ".join(names)] * mult)
    return "".join(line + "\n" for line in lines)


def read_xes(text: str | bytes) -> EventLog:
    """Streaming XES reader: traces, events, and their concept:name strings.

    One expat pass reads the document and no element tree is built.  Bytes
    are decoded as the byte-order mark or XML declaration says; a ``str``'s
    declared encoding is ignored.
    Elements match by local name in any namespace; an unbound prefix is a
    parse error.  Every ``trace`` element is a trace, numbered in document
    order, a nested one included.  An ``event`` counts only as a direct
    child of a trace, and a ``string`` attribute only as a direct child of
    such an event; all else is skipped.  An event's first ``concept:name``
    value is its name, which must be nonempty, as every label must.  The
    event counts only if its lifecycle:transition is absent or ``complete``
    (in any case), so an activity recorded by its start and its completion
    occurs once.  Traces are counted as tuples of names while parsing.
    Each counted event is checked here, not left to ``EventLog``: only this
    pass can name its trace and tell a missing name from an empty one.
    """
    parser = expat.ParserCreate(None, "}")
    local_names: dict[str, str] = {}
    counts: dict[tuple[str, ...], int] = {}
    depth = traces_seen = 0
    # The innermost open trace: its depth (-1 while none is open, so that no
    # element is its child), index and names so far, and its open event's
    # name and lifecycle.  A trace nested in it saves these on ``outer`` and
    # restores them when it ends.  They are closure variables rather than
    # attributes of an object because the handlers run once per element.
    trace_depth, index, names = -1, 0, []
    in_event, name, lifecycle = False, None, None
    outer: list[tuple] = []

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal depth, traces_seen, trace_depth, index, names, in_event, name, lifecycle
        depth += 1
        local = local_names.get(tag)
        if local is None:
            local = local_names[tag] = tag.rpartition("}")[2]
        if local == "string":
            if in_event and depth == trace_depth + 2:
                key = attrs.get("key")
                if key == "concept:name":
                    if name is None:
                        name = attrs.get("value")
                elif key == "lifecycle:transition":
                    lifecycle = attrs.get("value")
        elif local == "event":
            if depth == trace_depth + 1:
                in_event, name, lifecycle = True, None, None
        elif local == "trace":
            outer.append((trace_depth, index, names, in_event, name, lifecycle))
            trace_depth, index, names, in_event = depth, traces_seen, [], False
            traces_seen += 1

    def end(tag: str) -> None:
        nonlocal depth, trace_depth, index, names, in_event, name, lifecycle
        if depth == trace_depth:
            trace = tuple(names)
            counts[trace] = counts.get(trace, 0) + 1
            trace_depth, index, names, in_event, name, lifecycle = outer.pop()
        elif in_event and depth == trace_depth + 1:
            in_event = False
            if lifecycle is None or lifecycle.lower() == "complete":
                if not name:
                    what = "missing a" if name is None else "with an empty"
                    _fail(f"trace {index}", f"event {what} concept:name attribute")
                if name == CHI:
                    _fail(f"trace {index}", f"{CHI!r} is reserved")
                names.append(name)
        depth -= 1

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise FormatError(f"XML parse error: {exc}") from None
    return EventLog(counts)


#: How DOT shows the reserved label strings.
_DOT_MARKERS = {SILENT: "τ", CHI: "χ"}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(a: Nfa) -> str:
    """GraphViz rendering: entry arrow on start, accepts double-circled."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(a.state_count):
        shape = "doublecircle" if q in a.accepts else "circle"
        lines.append(f'  {q} [shape={shape}, label="{q}"];')
    lines.append(f"  __start -> {a.start};")
    # Moves sort by the shown name; a marker sorts before a label shown alike.
    shown = [(p, _DOT_MARKERS.get(lab, lab), lab, q) for p, lab, q in a.transitions]
    for p, name, _, q in sorted(shown):
        lines.append(f'  {p} -> {q} [label="{_dot_escape(name)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def report_fields(r: MeasureReport) -> dict[str, Any]:
    """Stable flat field mapping shared by the JSON and CSV writers.

    A numerator or denominator beyond float range, an exact count, is written as None.
    """
    return {
        "kind": r.kind.value,
        "numerator": _finite_or_none(r.numerator_value),
        "denominator": _finite_or_none(r.denominator_value),
        "value": r.value,
        "undefined": r.undefined,
        "converged": r.converged,
        "iterations": r.iterations,
        "states_numerator": r.numerator.states,
        "transitions_numerator": r.numerator.transitions,
        "states_denominator": r.denominator.states,
        "transitions_denominator": r.denominator.transitions,
        "runtime_ms": r.runtime_ms,
    }


def write_report(r: MeasureReport, format: str = "json") -> str:
    """Serialise a measure report as JSON or a one-row CSV."""
    fields = report_fields(r)
    if format == "json":
        return json.dumps(fields, indent=2) + "\n"
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fields.keys())
        writer.writerow("" if v is None else v for v in fields.values())
        return buffer.getvalue()
    raise ValueError(f"unknown report format: {format!r}")
