import codecs
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from entroscope import (
    SILENT,
    Dfa,
    EventLog,
    MeasureKind,
    Nfa,
    automata,
    eig_short_circuit_measure,
    minimize,
    precision,
    recall,
    trim,
)
from entroscope.cli import main
from entroscope.formats import read_automaton, read_log, write_automaton, write_log
from helpers import all_words_of_length, bounded_language_dfa, empty_language_automaton, word_log
from login_fixtures import flexible_spec, retry_spec, small_log, two_word_spec

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def retry_spec_file(tmp_path):
    path = tmp_path / "retry.json"
    path.write_text(write_automaton(retry_spec(), name="retry-login"), encoding="utf-8")
    return path


@pytest.fixture
def small_log_file(tmp_path):
    path = tmp_path / "small.log"
    path.write_text(write_log(small_log()), encoding="utf-8")
    return path


@pytest.fixture
def two_word_spec_file(tmp_path):
    path = tmp_path / "twoword.json"
    path.write_text(write_automaton(two_word_spec()), encoding="utf-8")
    return path


class TestMeasureCommands:
    def test_precision_text(self, capsys, retry_spec_file, small_log_file):
        code = main(["precision", str(retry_spec_file), str(small_log_file)])
        assert code == 0
        assert capsys.readouterr().out == "precision = 0.661\n"

    def test_recall_text(self, capsys, retry_spec_file, small_log_file):
        assert main(["recall", str(retry_spec_file), str(small_log_file)]) == 0
        assert capsys.readouterr().out == "recall = 0.897\n"

    def test_cardinality_precision_beyond_float_range(self, capsys, tmp_path):
        spec, labels = all_words_of_length(220)  # 26^220 words, more than the largest float
        spec_file, log_file = tmp_path / "big.json", tmp_path / "one.log"
        spec_file.write_text(write_automaton(spec), encoding="utf-8")
        log = EventLog([tuple(labels[:1] * 220)])
        log_file.write_text(write_log(log), encoding="utf-8")
        args = ["precision", str(spec_file), str(log_file), "--measure", "card", "--format", "json"]
        assert main(args) == 0
        fields = json.loads(capsys.readouterr().out)
        assert fields["numerator"] == 1.0
        assert (fields["denominator"], fields["value"]) == (None, 1 / 26**220)

    def test_cardinality_recall(self, capsys, two_word_spec_file, tmp_path):
        log_file = tmp_path / "ext.log"
        log_file.write_text(
            write_log(word_log(["abde", "abcbcde", "abccde", "afe", "afe"])),
            encoding="utf-8",
        )
        assert main(["recall", str(two_word_spec_file), str(log_file), "--measure", "card"]) == 0
        assert capsys.readouterr().out == "recall = 0.250\n"

    def test_json_report(self, capsys, retry_spec_file, small_log_file):
        assert main(
            ["precision", str(retry_spec_file), str(small_log_file), "--format", "json"]
        ) == 0
        fields = json.loads(capsys.readouterr().out)
        assert fields["value"] == pytest.approx(0.661, abs=1e-3)

    def test_coverage_self_is_one(self, capsys, retry_spec_file):
        assert main(["coverage", str(retry_spec_file), str(retry_spec_file)]) == 0
        assert capsys.readouterr().out == "coverage = 1.000\n"

    def test_cardinality_of_infinite_language_exits_3(self, capsys, retry_spec_file):
        assert main(["cardinality", str(retry_spec_file)]) == 3
        assert "error" in capsys.readouterr().err

    def test_cardinality_of_finite_language(self, capsys, two_word_spec_file):
        assert main(["cardinality", str(two_word_spec_file)]) == 0
        assert capsys.readouterr().out == "cardinality = 2\n"

    def test_eigenvalue_and_entropy(self, capsys, retry_spec_file):
        assert main(["eigenvalue", str(retry_spec_file)]) == 0
        assert capsys.readouterr().out == "eigenvalue = 1.513\n"
        assert main(["entropy", str(retry_spec_file)]) == 0
        assert capsys.readouterr().out == "entropy = 0.597\n"

    def test_scalar_commands_minimize_the_trim_automaton(self, capsys, tmp_path):
        # The retry flow plus a dead cycle with a silent move, entered on a, and an
        # unreachable state: the subset construction never sees the dead states.
        spec = retry_spec()
        dead = {(0, "a", 5), (5, "b", 6), (6, SILENT, 5), (7, "a", 0)}
        padded = Nfa(8, spec.alphabet, spec.transitions | dead, spec.start, spec.accepts)
        path = tmp_path / "padded.json"
        path.write_text(write_automaton(padded), encoding="utf-8")
        expected = {"eigenvalue": "eigenvalue = 1.513\n", "entropy": "entropy = 0.597\n"}
        for command, line in expected.items():
            with mock.patch.object(automata, "minimize", wraps=minimize) as spy, mock.patch.object(
                automata, "_subsets", wraps=automata._subsets
            ) as subsets:
                assert main([command, str(path)]) == 0
            assert capsys.readouterr().out == line
            assert [c.args for c in spy.call_args_list] == [(padded,)]
            assert [c.args for c in subsets.call_args_list] == [(trim(padded),)]

    def test_the_subset_construction_sees_only_useful_states(self, capsys, tmp_path):
        # {a}, plus a dead core entered on b that accepts nothing: the NFA for
        # "the 12th symbol from the end is a", whose subset DFA has 2^12 states.
        n = 12
        core = {(2, "a", 2), (2, "b", 2), (2, "a", 3)}
        core |= {(q, lab, q + 1) for q in range(3, n + 2) for lab in "ab"}
        moves = frozenset({(0, "a", 1), (0, "b", 2)} | core)
        spec = Nfa(n + 3, frozenset("ab"), moves, 0, frozenset({1}))
        path = tmp_path / "dead_core.json"
        path.write_text(write_automaton(spec), encoding="utf-8")
        with mock.patch.object(automata, "_subsets", wraps=automata._subsets) as spy:
            assert recall(spec, EventLog([("a",), ("b",)]), MeasureKind.CARDINALITY).value == 0.5
            assert automata.has_finite_language(spec)
            assert main(["cardinality", str(path)]) == 0
            assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cardinality = 1\n")
        assert "trim: false\n" in out and "finite_language: true\n" in out
        # Every query trims first, and the trimmed spec is deterministic, so
        # the subset construction never runs.
        spy.assert_not_called()

    @pytest.mark.parametrize("command", ["precision", "coverage"])
    def test_an_empty_first_language_gives_an_undefined_quotient(
        self, capsys, tmp_path, retry_spec_file, small_log_file, command
    ):
        empty = tmp_path / "empty.json"
        empty.write_text(
            '{"alphabet": ["a"], "states": 1, "start": 0, "accepts": [], "transitions": []}',
            encoding="utf-8",
        )
        other = small_log_file if command == "precision" else retry_spec_file
        assert main([command, str(empty), str(other)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{command} = 0.000\n"
        assert captured.err == "warning: quotient is undefined (0/0); reporting 0\n"
        assert main([command, str(empty), str(other), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["undefined"] is True

    def test_entropy_of_empty_language_exits_3(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(write_automaton(empty_language_automaton()), encoding="utf-8")
        assert main(["eigenvalue", str(empty)]) == 0
        assert capsys.readouterr().out == "eigenvalue = 0.000\n"
        assert main(["entropy", str(empty)]) == 3
        assert "entropy undefined for the empty language" in capsys.readouterr().err

    def test_parse_error_exits_2(self, capsys, tmp_path, small_log_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope", encoding="utf-8")
        assert main(["precision", str(bad), str(small_log_file)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, small_log_file):
        assert main(["precision", "/nonexistent.json", str(small_log_file)]) == 2

    def test_nonconvergence_warns_but_succeeds(self, capsys, retry_spec_file, small_log_file):
        code = main(
            ["precision", str(retry_spec_file), str(small_log_file), "--max-iter", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "did not converge within 2 iterations" in captured.err

    @pytest.mark.parametrize("command", ["eigenvalue", "entropy"])
    def test_scalar_nonconvergence_quotes_the_cap(self, capsys, retry_spec_file, command):
        assert main([command, str(retry_spec_file), "--max-iter", "2"]) == 0
        captured = capsys.readouterr()
        assert "did not converge within 2 iterations" in captured.err
        assert captured.out.startswith(f"{command} = ")

    def test_a_line_log_may_begin_with_a_tag_like_event(self, capsys, tmp_path):
        # Java specification miners name constructors "<init>".
        spec = tmp_path / "spec.json"
        moves = {(0, "<init>", 1), (1, "open", 2), (2, "read", 2), (2, "close", 3)}
        labels = frozenset(lab for _, lab, _ in moves)
        spec.write_text(write_automaton(Dfa(4, labels, frozenset(moves), 0, frozenset({3}))))
        log = tmp_path / "init.log"
        log.write_text("<init> open close\n<init> open read close\n<init> close\n")
        assert main(["recall", str(spec), str(log)]) == 0
        assert capsys.readouterr().out == "recall = 0.881\n"

    def test_automaton_given_as_log_exits_2(self, capsys, retry_spec_file):
        assert main(["precision", str(retry_spec_file), str(retry_spec_file)]) == 2
        assert "expected an event log" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [
            *[
                (command, option)
                for command in ("eigenvalue", "entropy")
                for option in ("--measure card", "--format json")
            ],
            ("cardinality", "--measure card"),
            ("cardinality", "--format json"),
            ("cardinality", "--tol 1e-3"),
            ("cardinality", "--max-iter 5"),
            ("recall", "--tol 1e-3"),
            ("recall", "--max-iter 5"),
            ("coverage", "--measure eig"),
            ("coverage", "--measure card"),
        ],
    )
    def test_options_that_change_nothing_are_rejected(
        self, capsys, retry_spec_file, small_log_file, two_word_spec_file, command, option
    ):
        inputs = {
            "eigenvalue": [retry_spec_file],
            "entropy": [retry_spec_file],
            "cardinality": [two_word_spec_file],
            "recall": [retry_spec_file, small_log_file],
            "coverage": [retry_spec_file, retry_spec_file],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *map(str, inputs), *option.split()])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_only_max_iter_caps_iterations(
        self, capsys, monkeypatch, retry_spec_file, small_log_file
    ):
        # The cap is an option, not an environment variable: this one changes nothing.
        monkeypatch.setenv("ENTROSCOPE_MAX_ITER", "2")
        assert main(["precision", str(retry_spec_file), str(small_log_file)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "precision = 0.661\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "option",
        [
            ("--max-iter", "0"),
            ("--max-iter", "-3"),
            ("--tol", "0"),
            ("--tol", "-0.5"),
            ("--tol", "nan"),
            ("--tol", "inf"),
        ],
    )
    @pytest.mark.parametrize("command", ["coverage", "eigenvalue", "precision"])
    def test_solver_limits_must_be_positive(
        self, capsys, retry_spec_file, small_log_file, command, option
    ):
        # Without an iteration there is no estimate: text would read nan or inf,
        # and JSON would hold Infinity, which is not JSON.
        inputs = {
            "coverage": [retry_spec_file, retry_spec_file],
            "eigenvalue": [retry_spec_file],
            "precision": [retry_spec_file, small_log_file],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *map(str, inputs), "--format", "json", *option])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option[0]}: must be a finite number above 0" in captured.err

    def test_out_writes_file(self, tmp_path, retry_spec_file, small_log_file):
        out = tmp_path / "report.json"
        assert main(
            [
                "precision",
                str(retry_spec_file),
                str(small_log_file),
                "--format",
                "json",
                "--out",
                str(out),
            ]
        ) == 0
        assert json.loads(out.read_text())["kind"] == "eig"

    def test_reports_are_deterministic_apart_from_runtime(
        self, capsys, retry_spec_file, small_log_file
    ):
        def normalized():
            main(
                ["precision", str(retry_spec_file), str(small_log_file), "--format", "json"]
            )
            fields = json.loads(capsys.readouterr().out)
            fields.pop("runtime_ms")
            return fields

        assert normalized() == normalized()


class TestInspectAndConvert:
    def test_inspect_automaton(self, capsys, monkeypatch, retry_spec_file):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Path, "read_text", counted(Path.read_text))
        monkeypatch.setattr(Path, "read_bytes", counted(Path.read_bytes))
        monkeypatch.setattr(json, "loads", counted(json.loads))
        assert main(["inspect", str(retry_spec_file)]) == 0
        assert sorted(calls) == ["loads", "read_bytes"]  # read and parsed once
        out = capsys.readouterr().out
        assert "name: retry-login" in out
        assert "deterministic: false" in out
        assert "ergodic: true" in out
        assert "finite_language: false" in out

    def test_inspect_log(self, capsys, tmp_path):
        log_file = tmp_path / "ext.log"
        log_file.write_text(
            write_log(word_log(["abde", "abcbcde", "abccde", "afe", "afe"])),
            encoding="utf-8",
        )
        assert main(["inspect", str(log_file)]) == 0
        out = capsys.readouterr().out
        assert "distinct_traces: 4" in out
        assert "total_traces: 5" in out

    def test_inspect_empty_log(self, capsys, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_text("", encoding="utf-8")
        assert main(["inspect", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "distinct_traces: 0" in out and "total_traces: 0" in out

    def test_convert_automaton_to_dot(self, capsys, retry_spec_file):
        assert main(["convert", str(retry_spec_file), "--to", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_convert_log_to_automaton(self, capsys, small_log_file):
        assert main(["convert", str(small_log_file), "--to", "automaton"]) == 0
        parsed = read_automaton(capsys.readouterr().out)
        assert parsed.state_count == 10

    def test_convert_xes_to_log(self, capsys, tmp_path):
        xes = tmp_path / "sample.xes"
        xes.write_text(
            '<log><trace><event><string key="concept:name" value="A"/></event></trace></log>',
            encoding="utf-8",
        )
        assert main(["convert", str(xes), "--to", "log"]) == 0
        assert capsys.readouterr().out == "A\n"

    def test_convert_automaton_to_log_fails(self, capsys, retry_spec_file):
        assert main(["convert", str(retry_spec_file), "--to", "log"]) == 2

    def test_convert_to_a_log_that_reads_back_differently_exits_2(self, capsys, tmp_path):
        xes = tmp_path / "spaced.xes"
        xes.write_text(
            '<log><trace><event><string key="concept:name" value="a b"/></event></trace></log>',
            encoding="utf-8",
        )
        assert main(["convert", str(xes), "--to", "log"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trace ['a b']: ")

    @pytest.mark.parametrize(
        "name, content",
        [("bytes.log", b"a b\nc \xff\n")],
        ids=["line log with 0xff"],
    )
    def test_a_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["inspect", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")

    def test_an_xes_file_is_decoded_as_it_declares(self, tmp_path):
        path = tmp_path / "latin1.xes"
        path.write_bytes(
            '<?xml version="1.0" encoding="ISO-8859-1"?>\n'
            '<log><trace><event><string key="concept:name" value="caf\u00e9"/></event>'
            "</trace></log>\n".encode("latin-1")
        )
        # Through a process, so that its stdout is what is tested.
        assert _cli_output("convert", str(path), "--to", "log", hash_seed="0") == "café\n".encode()

    @pytest.mark.parametrize(
        "name, text, expected",
        [
            (
                "bom.xes",
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                '<log><trace><event><string key="concept:name" value="a"/></event></trace></log>',
                ["type: log", "distinct_traces: 1", "total_traces: 1"],
            ),
            ("bom.log", "a b\na b\n", ["type: log", "distinct_traces: 1", "total_traces: 2"]),
            (
                "bom.json",
                '{"alphabet": ["a"], "states": 1, "start": 0, "accepts": [0], "transitions": []}',
                ["type: automaton", "states: 1"],
            ),
            (
                "init.log",
                "<init> open close\n<init> close\n",
                ["type: log", "distinct_traces: 2", "total_traces: 2"],
            ),
            ("brace.log", "{x} y\n{x} y\n", ["type: log", "distinct_traces: 1", "total_traces: 2"]),
        ],
        ids=["xes", "line log", "automaton", "line log of <init>", "line log of {x}"],
    )
    def test_a_utf8_byte_order_mark_is_skipped(self, capsys, tmp_path, name, text, expected):
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[: len(expected)] == expected

    def test_convert_to_automaton_keeps_the_document_name(self, capsys, retry_spec_file):
        assert main(["convert", str(retry_spec_file), "--to", "automaton"]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "retry-login"

    def test_the_prefix_tree_of_a_converted_log_is_unnamed(self, capsys, small_log_file):
        assert main(["convert", str(small_log_file), "--to", "automaton"]) == 0
        assert "name" not in json.loads(capsys.readouterr().out)


#: Each command with the kind each of its file arguments takes, None for any.
FILE_ARGUMENTS = [
    (["precision"], ("automaton", "log")),
    (["recall"], ("automaton", "log")),
    (["coverage"], ("automaton", "automaton")),
    (["eigenvalue"], ("automaton",)),
    (["entropy"], ("automaton",)),
    (["cardinality"], ("automaton",)),
    (["convert", "--to", "log"], ("log",)),
    (["convert", "--to", "dot"], (None,)),
    (["convert", "--to", "automaton"], (None,)),
    (["inspect"], (None,)),
]

#: Two malformed automaton documents, a malformed line log and XES log, then
#: a well-formed automaton document, XES log and line log.
INPUT_FILES = {
    "bad.json": '{"alphabet": ["a"], "states": 1, "start": 0, "accepts": [],'
    ' "transitions": [{"from": 0, "label": "zz", "to": 0}]}',
    "reserved.json": '{"alphabet": ["__chi__"], "states": 1, "start": 0, "accepts": [],'
    ' "transitions": []}',
    "bad.log": "a  b\n",
    "bad.xes": '<log><trace><event><string key="concept:name" value=""/></event></trace></log>',
    "spec.json": write_automaton(two_word_spec()),
    "log.xes": '<log><trace><event><string key="concept:name" value="a"/></event></trace></log>',
    "small.log": write_log(small_log()),
}

#: The files that each kind of argument cannot read, with what stderr says after the path.
BAD_FOR = {
    "automaton": [
        ("bad.json", "transitions[0].label: 'zz' is not in the alphabet"),
        ("reserved.json", "alphabet[0]: '__chi__' is reserved"),
        ("bad.log", "line 1, column 1: Expecting value"),
        ("log.xes", "expected an automaton, found an XES log"),
    ],
    "log": [
        ("bad.log", "line 1, event 2: empty event name (double space?)"),
        ("bad.xes", "trace 0: event with an empty concept:name attribute"),
        ("spec.json", "expected an event log, found an automaton"),
    ],
    None: [
        ("bad.json", "transitions[0].label: 'zz' is not in the alphabet"),
        ("reserved.json", "alphabet[0]: '__chi__' is reserved"),
        ("bad.log", "line 1, event 2: empty event name (double space?)"),
        ("bad.xes", "trace 0: event with an empty concept:name attribute"),
    ],
}

READ_ERROR_CASES = [
    pytest.param(
        command, kinds, position, name, message, id=f"{' '.join(command)} #{position} {name}"
    )
    for command, kinds in FILE_ARGUMENTS
    for position, kind in enumerate(kinds)
    for name, message in BAD_FOR[kind]
]


@pytest.mark.parametrize("command, kinds, position, name, message", READ_ERROR_CASES)
def test_every_read_error_names_its_file(
    capsys, tmp_path, command, kinds, position, name, message
):
    # The other arguments are good files of their kind, so the error can only be this one's.
    good = {"automaton": "spec.json", "log": "small.log", None: "spec.json"}
    for file, text in INPUT_FILES.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    paths = [tmp_path / good[kind] for kind in kinds]
    paths[position] = bad = tmp_path / name
    assert main([command[0], *map(str, paths), *command[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


class TestFamilies:
    def test_bounded_repeat_language(self, capsys, tmp_path):
        assert main(["family", "bounded-repeat", "--x", "2", "--out", str(tmp_path)]) == 0
        spec = read_automaton((tmp_path / "bounded_repeat_02.json").read_text())
        from entroscope import count_words

        assert count_words(spec) == 3
        a, b = "a", "b"
        words = bounded_language_dfa(spec, 4)
        assert words == {(b,), (a, b), (a, a, b)}
        log_text = (tmp_path / "bounded_repeat_log.log").read_text()
        assert sorted(log_text.splitlines()) == ["a a b", "a b", "b"]

    def test_bounded_repeat_range_checked(self, capsys, tmp_path):
        assert main(["family", "bounded-repeat", "--x", "49", "--out", str(tmp_path)]) == 2

    def test_kleene_two_states(self, capsys, tmp_path):
        assert main(["family", "kleene", "--out", str(tmp_path)]) == 0
        spec = read_automaton((tmp_path / "kleene.json").read_text())
        assert spec.state_count == 2

    def test_permutation_range_checked(self, capsys, tmp_path):
        assert main(["family", "permutations", "--count", "4", "--out", str(tmp_path)]) == 2

    def test_full_permutations_equal_parallel_block(self, capsys, tmp_path):
        assert main(["family", "permutations", "--count", "120", "--out", str(tmp_path)]) == 0
        assert main(["family", "parallel-block", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        explicit = read_automaton((tmp_path / "permutations_120.json").read_text())
        block = read_automaton((tmp_path / "parallel_block.json").read_text())
        assert bounded_language_dfa(explicit, 5) == bounded_language_dfa(block, 5)
        # Both documents are written alike, byte for byte.
        block_bytes = (tmp_path / "parallel_block.json").read_bytes()
        assert (tmp_path / "permutations_120.json").read_bytes() == block_bytes

    @pytest.mark.parametrize(
        "name, option, value",
        [
            ("kleene", "--x", "5"),
            ("permutations", "--x", "3"),
            ("parallel-block", "--x", "3"),
            ("bounded-repeat", "--count", "7"),
            ("kleene", "--count", "7"),
            ("parallel-block", "--count", "7"),
        ],
    )
    def test_an_option_of_another_family_is_rejected(self, capsys, tmp_path, name, option, value):
        out = tmp_path / "out"
        assert main(["family", name, option, value, "--out", str(out)]) == 2
        owner = {"--x": "bounded-repeat", "--count": "permutations"}[option]
        assert capsys.readouterr() == ("", f"error: {option} applies only to {owner}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, option, value, allowed",
        [("bounded-repeat", "--x", "40", "[2..20]"), ("permutations", "--count", "3", "[5..120]")],
    )
    def test_an_option_out_of_range_writes_nothing(
        self, capsys, tmp_path, name, option, value, allowed
    ):
        out = tmp_path / "D"
        assert main(["family", name, option, value, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {option} must be in {allowed}\n")
        assert not out.exists()

    def test_permutation_log_has_five_words(self, capsys, tmp_path):
        assert main(["family", "permutations", "--count", "7", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "permutations_log.log").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0] == "a b c d e"


def _family(tmp_path: Path, *args: str) -> Path:
    """Write a family's files with the ``family`` command; return their directory."""
    assert main(["family", *args, "--out", str(tmp_path)]) == 0
    return tmp_path


def _profile_root(lengths: list[int]) -> float:
    """The root in (0, 1] of sum_k z^(k+1) = 1 over these word lengths, by numpy.roots."""
    degree = max(lengths) + 1
    coefficients = [0.0] * (degree + 1)  # highest power first
    for k in lengths:
        coefficients[degree - (k + 1)] += 1.0
    coefficients[degree] -= 1.0
    (root,) = [r.real for r in np.roots(coefficients) if abs(r.imag) < 1e-9 and r.real > 0]
    return root


class TestFamilyClosedForms:
    """The paper's families against values worked out without the library's solvers."""

    @pytest.mark.parametrize("x", range(2, 21))
    def test_bounded_repeat(self, capsys, tmp_path, x):
        fam = _family(tmp_path, "bounded-repeat", "--x", str(x))
        spec = read_automaton((fam / f"bounded_repeat_{x:02d}.json").read_text())
        log = read_log((fam / "bounded_repeat_log.log").read_text())
        # The spec is a^i b for i <= x, one word per length 1..x+1; the log
        # holds b, ab and aab.  The eigenvalue of each is 1/z*.
        want = _profile_root(list(range(1, x + 2))) / _profile_root([1, 2, 3])
        assert precision(spec, log).value == pytest.approx(want, rel=1e-12)
        assert recall(spec, log).value == 1.0

    def test_kleene(self, capsys, tmp_path):
        spec = read_automaton((_family(tmp_path, "kleene") / "kleene.json").read_text())
        value = eig_short_circuit_measure(spec).value
        assert value == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-12)

    @pytest.mark.parametrize("count", [5, 7, 60, 120])
    def test_permutations(self, capsys, tmp_path, count):
        fam = _family(tmp_path, "permutations", "--count", str(count))
        spec = read_automaton((fam / f"permutations_{count:03d}.json").read_text())
        value = eig_short_circuit_measure(spec).value
        assert value == pytest.approx(count ** (1 / 6), rel=1e-12)

    def test_parallel_block(self, capsys, tmp_path):
        fam = _family(tmp_path, "parallel-block")
        spec = read_automaton((fam / "parallel_block.json").read_text())
        value = eig_short_circuit_measure(spec).value
        assert value == pytest.approx(120 ** (1 / 6), rel=1e-12)

    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_precision_falls_strictly_as_the_family_grows(self, capsys, tmp_path, kind):
        # Each family's languages are nested and the first is its log's, so
        # precision against that log starts at exactly 1 and falls strictly.
        for family, option, values, digits in (
            ("bounded-repeat", "--x", range(2, 21), 2),
            ("permutations", "--count", range(5, 121), 3),
        ):
            stem, falling = family.replace("-", "_"), []
            for v in values:
                fam = _family(tmp_path, family, option, str(v))
                spec = read_automaton((fam / f"{stem}_{v:0{digits}d}.json").read_text())
                log = read_log((fam / f"{stem}_log.log").read_text())
                falling.append(precision(spec, log, kind).value)
            assert falling[0] == 1.0
            assert all(a > b for a, b in zip(falling, falling[1:]))


def _cli_output(*args: str, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "entroscope.cli", *args], capture_output=True, env=env, check=True
    )
    return proc.stdout


def test_output_is_identical_across_processes(retry_spec_file, small_log_file, tmp_path):
    # Label strings hash by PYTHONHASHSEED, so set order differs between processes.
    flexible = tmp_path / "flexible.json"
    flexible.write_text(write_automaton(flexible_spec()), encoding="utf-8")
    for args in (
        ["coverage", str(retry_spec_file), str(flexible)],
        ["coverage", str(flexible), str(retry_spec_file)],
        ["convert", str(retry_spec_file), "--to", "dot"],
        ["convert", str(small_log_file), "--to", "dot"],
    ):
        first = _cli_output(*args, hash_seed="0")
        assert first and first == _cli_output(*args, hash_seed="1")


#: The documents of the scenario below, by file name: an XES log whose first
#: activity is recorded by its start and its completion, an automaton with a
#: silent move, one with a dead state, and a line log that begins with a brace.
SCENARIO_FILES = {
    "lifecycle.xes": """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="case-1"/>
    <event>
      <string key="concept:name" value="a"/>
      <string key="lifecycle:transition" value="start"/>
    </event>
    <event>
      <string key="concept:name" value="a"/>
      <string key="lifecycle:transition" value="complete"/>
    </event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <event><string key="concept:name" value="a"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace><event><string key="concept:name" value="b"/></event></trace>
</log>
""",
    "silent.json": '{"alphabet": ["a"], "states": 2, "start": 0, "accepts": [1], "transitions":'
    ' [{"from": 0, "label": null, "to": 1}, {"from": 1, "label": "a", "to": 1}]}',
    "dead.json": '{"alphabet": ["a", "b"], "states": 3, "start": 0, "accepts": [1], "transitions":'
    ' [{"from": 0, "label": "a", "to": 1}, {"from": 0, "label": "b", "to": 2}]}',
    "brace.log": "{x} y\n{x}\n",
}

SPEC, LOG = "bounded_repeat_03.json", "bounded_repeat_log.log"

#: Commands on the scenario's files, each with all that it prints.  Recall of
#: the bounded-repeat log is 1, as the spec holds every word of it; coverage
#: of a spec by itself takes the inclusion shortcut, and kleene's by
#: bounded-repeat is solved on the short-circuited product.  In the XES log,
#: the first two traces are both "a b".  The scalar commands give the eig
#: measure of a^i b (i <= 3), its base-2 log and its 4 words, and the golden
#: ratio for a*b.  Trimming the dead state leaves one word.
SCENARIO_OUTPUTS = [
    (f"precision {SPEC} {LOG}", "precision = 0.955\n"),
    (f"recall {SPEC} {LOG}", "recall = 1.000\n"),
    (f"coverage {SPEC} {SPEC}", "coverage = 1.000\n"),
    (f"coverage kleene.json {SPEC}", "coverage = 0.948\n"),
    (f"precision {SPEC} lifecycle.xes", "precision = 0.863\n"),
    (f"eigenvalue {SPEC}", "eigenvalue = 1.534\n"),
    (f"entropy {SPEC}", "entropy = 0.617\n"),
    (f"cardinality {SPEC}", "cardinality = 4\n"),
    ("eigenvalue kleene.json", "eigenvalue = 1.618\n"),
    ("cardinality dead.json", "cardinality = 1\n"),
]

#: Commands on the scenario's files, each with lines that it prints.  The
#: recall of the bounded-repeat log is a length-profile solve on each side,
#: pinned to the bit with its bisection steps, so that the finite solve
#: cannot drift under either summation that Python's ``sum`` uses (plain up
#: to 3.11, compensated from 3.12).  A report's kind is the --measure token.
#: A log measured against its own prefix tree shares one length profile on
#: both sides.  The XES log holds 3 traces, 2 distinct, also once converted
#: to a line log.  No move returns to the start of the silent-move document.
SCENARIO_LINES = [
    (
        f"recall {SPEC} {LOG} --format json",
        [
            '  "numerator": 1.465571231876768,',
            '  "denominator": 1.465571231876768,',
            '  "iterations": 106,',
        ],
    ),
    (f"recall {SPEC} {LOG} --measure card --format json", ['  "kind": "card",']),
    (f"precision tree.json {LOG} --format json", ['  "value": 1.0,']),
    ("inspect lifecycle.xes", ["distinct_traces: 2", "total_traces: 3"]),
    ("inspect lifecycle.log", ["distinct_traces: 2", "total_traces: 3"]),
    ("inspect silent.json", ["trim: true", "ergodic: false"]),
    ("inspect dead.json", ["trim: false", "finite_language: true"]),
    ("inspect brace.log", ["type: log"]),
]

REPORT_HEADER = (
    "kind,numerator,denominator,value,undefined,converged,iterations,states_numerator,"
    "transitions_numerator,states_denominator,transitions_denominator,runtime_ms"
)


@pytest.fixture(scope="class")
def scenario(tmp_path_factory):
    """The scenario's documents, the bounded-repeat and kleene families, and two converted files."""
    root = tmp_path_factory.mktemp("scenario")
    for name, text in SCENARIO_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    _family(root, "bounded-repeat", "--x", "3")
    _family(root, "kleene")
    for source, kind, target in (
        (LOG, "automaton", "tree.json"),
        ("lifecycle.xes", "log", "lifecycle.log"),
    ):
        assert main(["convert", str(root / source), "--to", kind, "--out", str(root / target)]) == 0
    return root


class TestSmokeScenario:
    """The CLI's pinned outputs on the paper's families and small edge-case documents."""

    @pytest.fixture(autouse=True)
    def _inside(self, monkeypatch, scenario):
        monkeypatch.chdir(scenario)

    @pytest.mark.parametrize("command, out", SCENARIO_OUTPUTS, ids=[c for c, _ in SCENARIO_OUTPUTS])
    def test_prints(self, capsys, command, out):
        assert main(command.split()) == 0
        assert capsys.readouterr() == (out, "")

    @pytest.mark.parametrize("command, lines", SCENARIO_LINES, ids=[c for c, _ in SCENARIO_LINES])
    def test_prints_lines(self, capsys, command, lines):
        assert main(command.split()) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line not in printed] == []

    def test_an_infinite_language_has_no_cardinality(self, capsys):
        assert main(["cardinality", "kleene.json"]) == 3
        err = "error: language is infinite: a cycle survives trimming\n"
        assert capsys.readouterr() == ("", err)

    def test_the_report_schema(self, capsys):
        # 0/0 is the only degenerate quotient, and "undefined" marks it.
        assert main(["recall", SPEC, LOG, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == REPORT_HEADER
        assert main(["recall", SPEC, LOG, "--format", "json"]) == 0
        report = capsys.readouterr().out
        assert list(json.loads(report)) == REPORT_HEADER.split(",")
        assert "division_by_zero" not in report

    def test_a_process_writes_the_silent_move_as_tau(self):
        dot = _cli_output("convert", "silent.json", "--to", "dot", hash_seed="0")
        assert '  0 -> 1 [label="τ"];' in dot.decode("utf-8").splitlines()
