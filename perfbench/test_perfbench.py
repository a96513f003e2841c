"""Self-tests of the benchmark: generators, oracle, tracer and output names.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads
from tracing import Tracer, self_times
from worker import import_library, run_op

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PHI = (1 + 5**0.5) / 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7, pool=2) == workloads.generate(workload, 7, pool=2)
    assert workloads.generate(workload, 7, pool=2) != workloads.generate(workload, 8, pool=2)


def test_wide_log_events_have_no_lifecycle_attribute():
    for case in workloads.generate("wide-log", 3, pool=2):
        assert "<event>" in case.log_text and "lifecycle" not in case.log_text


def _dfa(states: int, accepts: list[int], edges: list[tuple[int, str, int]]) -> oracle.Dfa:
    return oracle.Dfa(states, frozenset(accepts), {(p, lab): q for p, lab, q in edges})


@pytest.mark.parametrize(
    "lengths, rho",
    [([2], 1.0), ([0], 1.0), ([], 0.0), ([1, 1], 2**0.5), ([0, 1], PHI)],
    ids=["single word", "epsilon", "empty", "two letters", "epsilon and a letter"],
)
def test_finite_radius_matches_hand_computed(lengths, rho):
    assert oracle.finite_radius(lengths) == pytest.approx(rho, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "dfa, rho",
    [
        (_dfa(3, [2], [(0, "a", 1), (1, "b", 2)]), 1.0),
        (_dfa(1, [0], []), 1.0),
        (_dfa(2, [0], [(0, "a", 1), (1, "b", 0)]), PHI),
        (_dfa(2, [], [(0, "a", 1)]), 0.0),
    ],
    ids=["single word", "epsilon", "2-cycle", "empty"],
)
def test_bracket_contains_hand_computed(dfa, rho):
    lo, hi = oracle.bracket(oracle.trim(dfa))
    assert lo - 1e-12 <= rho <= hi + 1e-12
    assert hi - lo <= 1e-10 * max(rho, 1.0)


def _random_dfa(rng: random.Random) -> oracle.Dfa:
    n = rng.randint(1, 12)
    edges = [(p, lab, rng.randrange(n)) for p in range(n) for lab in "abc" if rng.random() < 0.5]
    return _dfa(n, rng.sample(range(n), rng.randint(0, n)), edges)


def test_bracket_matches_dense_eigenvalues():
    rng = random.Random(5)
    for _ in range(200):
        d = oracle.trim(_random_dfa(rng))
        lo, hi = oracle.bracket(d)
        dense = 0.0
        if d is not None:
            m = np.zeros((d.states, d.states))
            for (p, _), q in d.delta.items():
                m[p, q] += 1
            for q in d.accepts:
                m[q, 0] += 1
            dense = max(abs(np.linalg.eigvals(m)))
        assert lo - 1e-9 <= dense <= hi + 1e-9


def test_finite_radius_matches_bracket_on_prefix_trees():
    rng = random.Random(6)
    for _ in range(100):
        words = {tuple(rng.choice("ab") for _ in range(rng.randint(0, 6))) for _ in range(rng.randint(1, 8))}
        nodes, edges = {(): 0}, []
        for w in sorted(words):
            for i in range(len(w)):
                if w[: i + 1] not in nodes:
                    nodes[w[: i + 1]] = len(nodes)
                    edges.append((nodes[w[:i]], w[i], nodes[w[: i + 1]]))
        lo, hi = oracle.bracket(_dfa(len(nodes), [nodes[w] for w in words], edges))
        assert oracle.finite_radius(len(w) for w in words) == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_reference_work_is_pinned():
    """Every reported time is scaled by ``oracle.reference_seconds``, so its
    work must not change with the generators or the oracle: a change to
    ``model_pair_case``, the constructions or ``BRACKET_WIDTH`` fails here."""
    x, y = oracle.subset_dfa(oracle.REFERENCE_PAIR.x), oracle.subset_dfa(oracle.REFERENCE_PAIR.y)
    assert (x.states, y.states) == (31, 29)
    d = oracle.trim(oracle.product(x, y))
    assert (d.states, len(d.delta), len(d.accepts)) == (247, 988, 45)
    # The bracket's ends pin its number of steps: one step fewer moves them
    # by 1e-11 or more.
    lo, hi = oracle.bracket(d)
    assert lo == pytest.approx(4.016310688704583, rel=1e-13, abs=0.0)
    assert hi == pytest.approx(4.016310688734655, rel=1e-13, abs=0.0)


def test_replay_agrees_with_subset_construction():
    spec = workloads.generate("wide-log", 2, pool=1)[0].spec
    d = oracle.subset_dfa(spec)
    rng = random.Random(7)
    for _ in range(300):
        word = tuple(rng.choice(spec.alphabet) for _ in range(rng.randint(0, 9)))
        state = 0
        for sym in word:
            state = d.delta.get((state, sym))
            if state is None:
                break
        assert oracle.replay(spec, word) == (state is not None and state in d.accepts)


def test_tracer_nests_spans_and_restores_the_library():
    lib = import_library()
    original = lib.automata.minimize
    tracer = Tracer()
    case = workloads.generate("model-coverage", 1, pool=1)[0]
    with tracer.op(0):
        run_op(lib, case)
    assert lib.automata.minimize is original and lib.measures.minimize is original
    names = {s.name for s in tracer.spans}
    assert {"op", "formats.read", "measures", "automata.minimize", "automata.trim", "spectral.eigen"} <= names
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root.end - root.start, rel=1e-9)
    for s in tracer.spans[1:]:
        parent = tracer.spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end


def _result(*args: str, cwd: Path = HERE.parent) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_are_declared(trace, section):
    code, lines = _result("--workload", "model-coverage", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for line in lines[:-1]:
        if not line.startswith(("#", "fail_frac")):
            assert line.split()[0] in declared


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    code, lines = _result("--workload", "wide-log", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and not any(line.startswith("{") for line in lines)
