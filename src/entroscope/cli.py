"""Command-line driver for measurements, conversions, and experiment families.

Each measure command takes only the options that change its output:
``precision`` takes ``--measure --tol --max-iter --format --out``, ``recall``
``--measure --format --out``, ``coverage`` ``--tol --max-iter --format --out``,
``eigenvalue`` and ``entropy`` ``--tol --max-iter --out``, and ``cardinality``
``--out``.  ``--tol`` and ``--max-iter`` bound a power iteration, which runs
only over an infinite language, never in ``recall`` or ``cardinality``;
without ``--max-iter`` the cap is read from ``ENTROSCOPE_MAX_ITER``.

Input files are read as bytes.  XES goes to ``read_xes`` undecoded, so its
XML declaration names the encoding; automata and line logs are UTF-8, a
byte-order mark allowed.

Exit codes: 0 success (including flagged non-convergence, which warns on
stderr), 2 usage errors and parse errors on input files, an automaton or
line log that is not UTF-8 included, 3 measure not applicable to the input:
cardinality of an infinite language or entropy of the empty language.
"""

from __future__ import annotations

import argparse
import codecs
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Callable

from .automata import (
    Dfa,
    InfiniteLanguageError,
    Nfa,
    as_dfa,
    count_words,
    has_finite_language,
    is_deterministic,
    is_ergodic,
    is_trim,
    minimize,
)
from .formats import (
    FormatError,
    export_dot,
    read_automaton,
    read_log,
    read_named_automaton,
    read_xes,
    write_automaton,
    write_log,
    write_report,
)
from .labels import label
from .logs import EventLog, Trace, distinct_language, prefix_tree_acceptor
from .measures import (
    MeasureKind,
    MeasureReport,
    coverage,
    measure,
    precision,
    recall,
)
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE

MAX_ITER_ENV = "ENTROSCOPE_MAX_ITER"

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
    "--measure": {"choices": ("eig", "card"), "default": "eig"},
    "--tol": {"type": _positive(float), "default": DEFAULT_TOLERANCE},
    "--max-iter": {"type": _positive(int), "default": None},
    "--format": {"choices": ("text", "json", "csv"), "default": "text"},
    "--out": {"type": Path, "default": None},
}

#: Name, help, input files and options of each measure command, as the module docstring lists.
_MEASURE_COMMANDS = (
    ("precision", "precision of a specification w.r.t. a log", "spec log",
     "--measure --tol --max-iter --format --out"),
    ("recall", "recall of a specification w.r.t. a log", "spec log",
     "--measure --format --out"),
    ("coverage", "coverage of the first automaton by the second", "x y",
     "--tol --max-iter --format --out"),
    ("eigenvalue", "short-circuit eigenvalue measure of an automaton's language", "automaton",
     "--tol --max-iter --out"),
    ("entropy", "topological entropy (base-2 log of the eigenvalue measure)", "automaton",
     "--tol --max-iter --out"),
    ("cardinality", "exact word count of a finite language", "automaton", "--out"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroscope",
        description="Entropy-based precision, recall, and coverage of automata and event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, description, inputs, flags in _MEASURE_COMMANDS:
        p = sub.add_parser(name, help=description)
        for argument in inputs.split():
            p.add_argument(argument, type=Path)
        for flag in flags.split():
            p.add_argument(flag, **_MEASURE_OPTIONS[flag])

    p = sub.add_parser("convert", help="convert between formats")
    p.add_argument("input", type=Path)
    p.add_argument("--to", choices=("dot", "log", "automaton"), required=True)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("inspect", help="structural statistics of a file")
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("family", help="generate a synthetic experiment family")
    p.add_argument(
        "name", choices=("bounded-repeat", "kleene", "permutations", "parallel-block")
    )
    p.add_argument("--x", type=int, default=None, help="repeat bound for bounded-repeat")
    p.add_argument("--count", type=int, default=None, help="permutation count")
    p.add_argument("--out", type=Path, default=Path("."))
    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _decode(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # a parse error, reported with the file's name
        raise FormatError(f"{path}: {exc}") from None


def _load_automaton(path: Path) -> Nfa:
    return read_automaton(_decode(path.read_bytes(), path))


def _sniff(path: Path) -> tuple[Nfa | EventLog, str | None]:
    """The automaton and its name, or the XES or line log, that ``path`` holds."""
    data = path.read_bytes()
    head = data.removeprefix(codecs.BOM_UTF8).lstrip()[:1]
    if head == b"<":
        return read_xes(data), None
    text = _decode(data, path)
    if head == b"{":
        return read_named_automaton(text)
    return read_log(text), None


def _max_iter(args: argparse.Namespace) -> int:
    if args.max_iter is not None:
        return args.max_iter
    env = os.environ.get(MAX_ITER_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            print(f"warning: ignoring non-integer {MAX_ITER_ENV}={env!r}", file=sys.stderr)
        else:
            if value >= 1:
                return value
            print(f"warning: ignoring non-positive {MAX_ITER_ENV}={env!r}", file=sys.stderr)
    return DEFAULT_MAX_ITERATIONS


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


def _load_spec_and_log(args: argparse.Namespace) -> tuple[Nfa, EventLog]:
    spec = _load_automaton(args.spec)
    log, _ = _sniff(args.log)
    if not isinstance(log, EventLog):
        raise FormatError(f"{args.log}: expected an event log, found an automaton")
    return spec, log


def _run_quotient_command(args: argparse.Namespace) -> int:
    if args.command == "recall":
        report = recall(*_load_spec_and_log(args), MeasureKind(args.measure))
    else:
        max_iter = _max_iter(args)
        if args.command == "precision":
            spec, log = _load_spec_and_log(args)
            report = precision(spec, log, MeasureKind(args.measure), args.tol, max_iter)
        else:
            x = _load_automaton(args.x)
            y = _load_automaton(args.y)
            report = coverage(x, y, args.tol, max_iter)
        if not report.converged:
            _warn_unconverged(max_iter)
    _print_report(args.command, report, args)
    return EXIT_OK


def _run_scalar_command(args: argparse.Namespace) -> int:
    d = as_dfa(_load_automaton(args.automaton))
    if args.command == "cardinality":
        value = count_words(d)
        _emit(f"cardinality = {value}\n", args.out)
        return EXIT_OK
    max_iter = _max_iter(args)
    kind = MeasureKind.SHORT_CIRCUIT_EIGENVALUE
    value, stats = measure(minimize(d).arrays, kind, args.tol, max_iter)
    if not stats.eigen.converged:
        _warn_unconverged(max_iter)
    if args.command == "eigenvalue":
        _emit(f"eigenvalue = {value:.3f}\n", args.out)
        return EXIT_OK
    if value <= 0.0:
        print("error: entropy undefined for the empty language", file=sys.stderr)
        return EXIT_INAPPLICABLE
    _emit(f"entropy = {math.log2(value):.3f}\n", args.out)
    return EXIT_OK


def _run_convert(args: argparse.Namespace) -> int:
    value, _ = _sniff(args.input)
    if args.to == "log":
        if not isinstance(value, EventLog):
            print("error: cannot convert an automaton to a log", file=sys.stderr)
            return EXIT_PARSE
        _emit(write_log(value), args.out)
        return EXIT_OK
    automaton = prefix_tree_acceptor(value) if isinstance(value, EventLog) else value
    _emit(export_dot(automaton) if args.to == "dot" else write_automaton(automaton), args.out)
    return EXIT_OK


def _run_inspect(args: argparse.Namespace) -> int:
    value, name = _sniff(args.input)
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
    return EventLog([Trace.of(*word) for word in words])


def _bounded_repeat_automaton(x: int) -> Dfa:
    a, b = label("a"), label("b")
    final = x + 1
    transitions = {(i, b, final) for i in range(x + 1)}
    transitions |= {(i, a, i + 1) for i in range(x)}
    return Dfa(x + 2, frozenset({a, b}), frozenset(transitions), 0, frozenset({final}))


def _kleene_automaton() -> Dfa:
    a, b = label("a"), label("b")
    return Dfa(
        2, frozenset({a, b}), frozenset({(0, a, 0), (0, b, 1)}), 0, frozenset({1})
    )


def _run_family(args: argparse.Namespace) -> int:
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    if args.name == "bounded-repeat":
        x = 2 if args.x is None else args.x
        if not 2 <= x <= 20:
            print("error: --x must be in [2..20]", file=sys.stderr)
            return EXIT_PARSE
        save(f"bounded_repeat_{x:02d}.json", write_automaton(_bounded_repeat_automaton(x)))
        save("bounded_repeat_log.log", write_log(_word_log(["b", "ab", "aab"])))
    elif args.name == "kleene":
        save("kleene.json", write_automaton(_kleene_automaton()))
    else:  # the parallel block is all 120 permutations
        block = args.name == "parallel-block"
        count = 120 if block or args.count is None else args.count
        if not 5 <= count <= 120:
            print("error: --count must be in [5..120]", file=sys.stderr)
            return EXIT_PARSE
        tree = prefix_tree_acceptor(_word_log(_permutation_words(count)))
        name = "parallel_block.json" if block else f"permutations_{count:03d}.json"
        save(name, write_automaton(minimize(tree)))
        if not block:
            save("permutations_log.log", write_log(_word_log(_permutation_words(5))))
    for path in written:
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("precision", "recall", "coverage"):
            return _run_quotient_command(args)
        if args.command in ("eigenvalue", "entropy", "cardinality"):
            return _run_scalar_command(args)
        if args.command == "convert":
            return _run_convert(args)
        if args.command == "inspect":
            return _run_inspect(args)
        return _run_family(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfiniteLanguageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE


if __name__ == "__main__":
    sys.exit(main())
