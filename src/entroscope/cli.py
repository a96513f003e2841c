"""Command-line driver for measurements, conversions, and experiment families.

Each measure command takes only the options that change its output:
``precision`` takes ``--measure --tol --max-iter --format --out``, ``recall``
``--measure --format --out``, ``coverage`` ``--tol --max-iter --format --out``,
``eigenvalue`` and ``entropy`` ``--tol --max-iter --out``, and ``cardinality``
``--out``.  ``--tol`` and ``--max-iter`` bound a power iteration, which runs
only over an infinite language, never in ``recall`` or ``cardinality``.
``eigenvalue`` and ``entropy`` read ``eig_short_circuit_measure`` of the
automaton, and ``cardinality`` its exact ``count_words``.

Every input file is read once, as bytes, by ``_read``, and its opening bytes
tell its kind: XES when its first non-blank bytes, after a byte-order mark,
are ``<?xml``, ``<!--`` or a start tag named ``log`` or ``prefix:log``; an
automaton document when they are ``{`` and then, after optional whitespace,
``"`` or ``}``; and otherwise a line log, so a trace may begin with an event
such as ``<init>`` or ``{x}``.  XES goes to ``read_xes`` undecoded, so its XML
declaration names the encoding; automata and line logs are UTF-8, a byte-order
mark allowed.  A file of the wrong kind is refused unparsed (XES for an
automaton, an automaton for a log), any other automaton argument is parsed as
an automaton document, and every read error names the file.

Exit codes: 0 success (including flagged non-convergence, which warns on
stderr), 2 usage errors and read errors on input files, an automaton or
line log that is not UTF-8 included, 3 measure not applicable to the input:
cardinality of an infinite language or entropy of the empty language.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from pathlib import Path
from typing import Callable

from .automata import (
    Dfa,
    InfiniteLanguageError,
    Nfa,
    count_words,
    has_finite_language,
    is_deterministic,
    is_ergodic,
    is_trim,
)
from .formats import (
    FormatError,
    export_dot,
    read_log,
    read_named_automaton,
    read_xes,
    write_automaton,
    write_log,
    write_report,
)
from .logs import EventLog, distinct_language, prefix_tree_acceptor
from .measures import (
    MeasureKind,
    MeasureReport,
    coverage,
    eig_short_circuit_measure,
    precision,
    recall,
)
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3


def _positive(parse: Callable[[str], float]) -> Callable[[str], float]:
    """An argparse type: ``parse`` the text and accept only a finite value above 0."""

    def check(text: str) -> float:
        value = parse(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
        return value

    check.__name__ = parse.__name__  # argparse names it in "invalid int value: ..."
    return check


_MEASURE_OPTIONS: dict[str, dict] = {
    "--measure": {
        "choices": [kind.value for kind in MeasureKind],
        "default": MeasureKind.SHORT_CIRCUIT_EIGENVALUE.value,
    },
    "--tol": {"type": _positive(float), "default": DEFAULT_TOLERANCE},
    "--max-iter": {"type": _positive(int), "default": DEFAULT_MAX_ITERATIONS},
    "--format": {"choices": ("text", "json", "csv"), "default": "text"},
    "--out": {"type": Path, "default": None},
}

def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


#: How an XES and an automaton document begin, after a UTF-8 byte-order mark and blanks.
_XES_HEAD = re.compile(rb"(?:\xef\xbb\xbf)?\s*<(?:\?xml|!--|(?:[A-Za-z_][\w.-]*:)?log[\s/>])")
_AUTOMATON_HEAD = re.compile(rb'(?:\xef\xbb\xbf)?\s*\{\s*["}]')


def _read(path: Path, kind: type | None = None) -> tuple[Nfa | EventLog, str | None]:
    """The automaton and its name, or the XES or line log, that ``path`` holds.

    With ``kind``, ``Nfa`` or ``EventLog``, a file whose opening bytes say the
    other kind is refused unparsed, and with ``Nfa`` any other file is parsed
    as an automaton document.  Every read error starts with ``path``.
    """
    data = path.read_bytes()
    try:
        if _XES_HEAD.match(data):
            if kind is Nfa:
                raise FormatError("expected an automaton, found an XES log")
            return read_xes(data), None
        is_automaton = kind is Nfa or _AUTOMATON_HEAD.match(data) is not None
        if is_automaton and kind is EventLog:
            raise FormatError("expected an event log, found an automaton")
        text = data.decode("utf-8-sig")
        return read_named_automaton(text) if is_automaton else (read_log(text), None)
    except (FormatError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _warn_unconverged(max_iter: int) -> None:
    # Only a power iteration can fail, and only at its cap, so quote the cap.
    print(
        f"warning: eigenvalue computation did not converge within "
        f"{max_iter} iterations; using the estimate",
        file=sys.stderr,
    )


def _print_report(name: str, report: MeasureReport, args: argparse.Namespace) -> None:
    if report.undefined:
        print("warning: quotient is undefined (0/0); reporting 0", file=sys.stderr)
    if args.format == "text":
        _emit(f"{name} = {report.value:.3f}\n", args.out)
    else:
        _emit(write_report(report, args.format), args.out)


def _run_quotient_command(args: argparse.Namespace) -> int:
    if args.command == "coverage":
        x, y = _read(args.x, Nfa)[0], _read(args.y, Nfa)[0]
        report = coverage(x, y, args.tol, args.max_iter)
    else:
        spec, log = _read(args.spec, Nfa)[0], _read(args.log, EventLog)[0]
        if args.command == "recall":
            report = recall(spec, log, MeasureKind(args.measure))
        else:
            report = precision(spec, log, MeasureKind(args.measure), args.tol, args.max_iter)
    if not report.converged:  # never in recall, which runs no power iteration
        _warn_unconverged(args.max_iter)
    _print_report(args.command, report, args)
    return EXIT_OK


def _run_scalar_command(args: argparse.Namespace) -> int:
    automaton, _ = _read(args.automaton, Nfa)
    if args.command == "cardinality":
        value = count_words(automaton)
        _emit(f"cardinality = {value}\n", args.out)
        return EXIT_OK
    result = eig_short_circuit_measure(automaton, args.tol, args.max_iter)
    if not result.converged:
        _warn_unconverged(args.max_iter)
    value = result.value
    if args.command == "eigenvalue":
        _emit(f"eigenvalue = {value:.3f}\n", args.out)
        return EXIT_OK
    if value <= 0.0:
        print("error: entropy undefined for the empty language", file=sys.stderr)
        return EXIT_INAPPLICABLE
    _emit(f"entropy = {math.log2(value):.3f}\n", args.out)
    return EXIT_OK


def _run_convert(args: argparse.Namespace) -> int:
    value, name = _read(args.input, EventLog if args.to == "log" else None)
    if args.to == "log":
        _emit(write_log(value), args.out)
        return EXIT_OK
    automaton = prefix_tree_acceptor(value) if isinstance(value, EventLog) else value
    _emit(export_dot(automaton) if args.to == "dot" else write_automaton(automaton, name), args.out)
    return EXIT_OK


def _run_inspect(args: argparse.Namespace) -> int:
    value, name = _read(args.input)
    lines = []
    if isinstance(value, Nfa):
        if name:
            lines.append(f"name: {name}")
        deterministic = is_deterministic(value)
        lines += [
            "type: automaton",
            f"states: {value.state_count}",
            f"transitions: {len(value.transitions)}",
            f"alphabet: {len(value.alphabet)}",
            f"deterministic: {str(deterministic).lower()}",
            f"trim: {str(is_trim(value)).lower()}",
            f"ergodic: {str(is_ergodic(value)).lower()}",
            f"finite_language: {str(has_finite_language(value)).lower()}",
        ]
    else:
        lines += [
            "type: log",
            f"distinct_traces: {len(distinct_language(value))}",
            f"total_traces: {value.total_count}",
        ]
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def _permutation_words(count: int) -> list[str]:
    seeds = ["abcde", "abced", "abdec", "abdce", "abecd"]
    rest = sorted(
        "".join(p) for p in itertools.permutations("abcde") if "".join(p) not in seeds
    )
    return (seeds + rest)[:count]


def _word_log(words: list[str]) -> EventLog:
    return EventLog([tuple(word) for word in words])


def _bounded_repeat_automaton(x: int) -> Dfa:
    final = x + 1
    transitions = {(i, "b", final) for i in range(x + 1)}
    transitions |= {(i, "a", i + 1) for i in range(x)}
    return Dfa(x + 2, frozenset({"a", "b"}), frozenset(transitions), 0, frozenset({final}))


def _kleene_automaton() -> Dfa:
    return Dfa(
        2, frozenset({"a", "b"}), frozenset({(0, "a", 0), (0, "b", 1)}), 0, frozenset({1})
    )


def _run_family(args: argparse.Namespace) -> int:
    for option, family in (("x", "bounded-repeat"), ("count", "permutations")):
        if getattr(args, option) is not None and args.name != family:
            print(f"error: --{option} applies only to {family}", file=sys.stderr)
            return EXIT_PARSE
    x = 2 if args.x is None else args.x
    count = 120 if args.count is None else args.count
    for option, value, low, high in (("x", x, 2, 20), ("count", count, 5, 120)):
        if not low <= value <= high:
            print(f"error: --{option} must be in [{low}..{high}]", file=sys.stderr)
            return EXIT_PARSE
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    if args.name == "bounded-repeat":
        save(f"bounded_repeat_{x:02d}.json", write_automaton(_bounded_repeat_automaton(x)))
        save("bounded_repeat_log.log", write_log(_word_log(["b", "ab", "aab"])))
    elif args.name == "kleene":
        save("kleene.json", write_automaton(_kleene_automaton()))
    else:  # the parallel block is all 120 permutations
        block = args.name == "parallel-block"
        tree = prefix_tree_acceptor(_word_log(_permutation_words(count)))
        name = "parallel_block.json" if block else f"permutations_{count:03d}.json"
        save(name, write_automaton(tree.minimal))
        if not block:
            save("permutations_log.log", write_log(_word_log(_permutation_words(5))))
    for path in written:
        print(path)
    return EXIT_OK


#: Name, help, input files, options and handler of each measure command, as the
#: module docstring lists.
_MEASURE_COMMANDS = (
    ("precision", "precision of a specification w.r.t. a log", "spec log",
     "--measure --tol --max-iter --format --out", _run_quotient_command),
    ("recall", "recall of a specification w.r.t. a log", "spec log",
     "--measure --format --out", _run_quotient_command),
    ("coverage", "coverage of the first automaton by the second", "x y",
     "--tol --max-iter --format --out", _run_quotient_command),
    ("eigenvalue", "short-circuit eigenvalue measure of an automaton's language", "automaton",
     "--tol --max-iter --out", _run_scalar_command),
    ("entropy", "topological entropy (base-2 log of the eigenvalue measure)", "automaton",
     "--tol --max-iter --out", _run_scalar_command),
    ("cardinality", "exact word count of a finite language", "automaton", "--out",
     _run_scalar_command),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroscope",
        description="Entropy-based precision, recall, and coverage of automata and event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, description, inputs, flags, run in _MEASURE_COMMANDS:
        p = sub.add_parser(name, help=description)
        p.set_defaults(run=run)
        for argument in inputs.split():
            p.add_argument(argument, type=Path)
        for flag in flags.split():
            p.add_argument(flag, **_MEASURE_OPTIONS[flag])

    p = sub.add_parser("convert", help="convert between formats")
    p.set_defaults(run=_run_convert)
    p.add_argument("input", type=Path)
    p.add_argument("--to", choices=("dot", "log", "automaton"), required=True)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("inspect", help="structural statistics of a file")
    p.set_defaults(run=_run_inspect)
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("family", help="generate a synthetic experiment family")
    p.set_defaults(run=_run_family)
    p.add_argument(
        "name", choices=("bounded-repeat", "kleene", "permutations", "parallel-block")
    )
    p.add_argument("--x", type=int, default=None, help="repeat bound for bounded-repeat")
    p.add_argument("--count", type=int, default=None, help="permutation count for permutations")
    p.add_argument("--out", type=Path, default=Path("."))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfiniteLanguageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE


if __name__ == "__main__":
    sys.exit(main())
