"""The library's public surface: what ``entroscope`` exports and installs, and what is traced.

The tracer in ``perfbench/tracing.py`` replaces library functions by name, so
a traced name that leaves the library breaks the benchmark.  Its ``TRACED``
table is read from the file's source, not imported, so that this check runs
wherever the tests do.  ``pyproject.toml`` is read as text too, as Python
3.10 has no ``tomllib``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import entroscope
from entroscope import Nfa

SURFACE = [
    "AutomatonStats",
    "CHI",
    "Dfa",
    "EigenResult",
    "EventLog",
    "InfiniteLanguageError",
    "MeasureKind",
    "MeasureReport",
    "Moves",
    "Nfa",
    "SILENT",
    "accepts",
    "count_words",
    "coverage",
    "distinct_language",
    "eig_short_circuit_measure",
    "has_finite_language",
    "is_deterministic",
    "is_ergodic",
    "is_trim",
    "length_profile_eigenvalue",
    "minimize",
    "perron_frobenius",
    "precision",
    "prefix_tree_acceptor",
    "recall",
    "trim",
]

#: Names that left the library, with the module that defined each: all but
#: ``as_dfa``, whose job ``automata._trim_rows`` does, only the tests reached.
DELETED = {
    "as_dfa": "entroscope.automata",
    "empty_language_automaton": "entroscope.automata",
    "silent_closure": "entroscope.automata",
    "log_alphabet": "entroscope.logs",
    "multiplicity": "entroscope.logs",
    "union": "entroscope.logs",
}

#: Names that left the package's surface, with the module that still defines
#: each, as the tracer patches it there by name.
UNEXPORTED = {
    "adjacency_matrix": "entroscope.spectral",
    "canonicalize": "entroscope.automata",
    "determinize": "entroscope.automata",
    "intersect": "entroscope.automata",
    "short_circuit": "entroscope.automata",
}

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PYPROJECT = ROOT / "pyproject.toml"


def traced_functions() -> list[tuple[str, str]]:
    """The ``(module, function)`` pairs of the ``TRACED`` table, read from the tracer's source."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [(home, name) for home, names in table.values() for name in names]
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_all_lists_the_public_names_and_each_resolves():
    assert sorted(entroscope.__all__) == SURFACE
    for name in SURFACE:
        assert hasattr(entroscope, name), name


@pytest.mark.parametrize("name, home", sorted(DELETED.items()))
def test_a_name_that_only_tests_reached_is_gone(name, home):
    assert not hasattr(entroscope, name)
    assert not hasattr(importlib.import_module(home), name)


@pytest.mark.parametrize("name, home", sorted(UNEXPORTED.items()))
def test_a_name_only_the_tracer_patches_stays_home_unexported(name, home):
    assert not hasattr(entroscope, name)
    assert callable(getattr(importlib.import_module(home), name, None))


def test_the_console_script_runs_cli_main():
    _, _, after = PYPROJECT.read_text(encoding="utf-8").partition("\n[project.scripts]\n")
    scripts = after.split("\n[", 1)[0].splitlines()
    assert 'entroscope = "entroscope.cli:main"' in scripts
    assert callable(importlib.import_module("entroscope.cli").main)


def test_an_nfa_keeps_no_move_map():
    assert not hasattr(Nfa, "moves")


@pytest.mark.parametrize(
    "home, name", [pytest.param(*pair, id=".".join(pair)) for pair in traced_functions()]
)
def test_every_traced_function_resolves(home, name):
    assert callable(getattr(importlib.import_module(home), name, None))
