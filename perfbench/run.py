"""Benchmark of entroscope's precision, recall and coverage.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide-log --seed 1 --seconds 25 --trace 0

Prints one line per metric (name, value, unit), then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run and writes its spans to ``perfbench/out/``.

This process generates the inputs from the seed and computes reference
values with ``oracle.py``; the library runs in separate worker processes
(``worker.py``), one op at a time in a closed loop.  ``peak_rss_mb`` is the
measured worker's peak: the interpreter, the library, the run's generated
inputs and the reference computation that times are scaled by.  The notes
print the worker's peak before it imported the library and before its loop.
Every op is checked against the oracle; an op that raises, reports
``converged=False`` or is off by more than ``REL_TOL`` counts as failed.

Times are scaled to a reference speed, so that other load on a shared
machine cancels out: see ``worker.timed``, and README.md for the why.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere, workers included (they inherit this).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Relative error above which an op's value counts as wrong.
REL_TOL = 1e-6

#: Extra processes that only import the library and run the warm-up op;
#: ``setup_s`` is the median over them and the measured worker.
SETUP_PROBES = 4

#: Percentile reported as ``op_ms_tail``.  A run makes at least 50 ops
#: (``worker.MIN_OPS``), so at least 10 lie beyond it, unless the library is
#: so slow that the loop stops at ``worker.OVERRUN_S``; a note gives the count.
TAIL_PERCENTILE = 80

#: Metric name -> unit, as BENCHMARK.json declares them.
UNITS = {
    m["name"]: m["unit"]
    for section in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]
}


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    # No timeout: the worker bounds its own loop (``worker.OVERRUN_S``).
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    times = [op["s"] * op["scale"] * 1000.0 for op in main["ops"]]
    metrics = {
        "op_ms_p50": statistics.median(times),
        "op_ms_tail": percentile(times, TAIL_PERCENTILE),
        "ops_per_s": 1000.0 * len(times) / sum(times),
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] * s["setup_scale"] for s in setups),
    }
    beyond = sum(t > metrics["op_ms_tail"] for t in times)
    notes = [f"op_ms_tail is p{TAIL_PERCENTILE} of {len(times)} ops; {beyond} ops beyond it",
             f"setup_s is the median of {len(setups)} processes",
             f"peak_rss_mb was {main['rss_inputs_mb']:.1f} MiB before the library was imported "
             f"and {main['rss_setup_mb']:.1f} MiB after set-up and the first reference computations"]
    return metrics, notes


PER_LAYER_TIMES = {
    "formats.read_ms": "formats.read",
    "logs.pta_ms": "logs.pta",
    "automata.determinize_ms": "automata.determinize",
    "automata.trim_ms": "automata.trim",
    "automata.minimize_ms": "automata.minimize",
    "automata.canonicalize_ms": "automata.canonicalize",
    "automata.intersect_ms": "automata.intersect",
    "automata.short_circuit_ms": "automata.short_circuit",
    "spectral.adjacency_ms": "spectral.adjacency",
    "spectral.eigen_ms": "spectral.eigen",
    "measures.self_ms": "measures",
}

PER_LAYER_COUNTS = {
    "formats.events": ("formats.read", "events"),
    "logs.pta_states": ("logs.pta", "states"),
    "automata.determinize_states_out": ("automata.determinize", "states_out"),
    "automata.minimize_states_in": ("automata.minimize", "states_in"),
    "automata.minimize_states_out": ("automata.minimize", "states_out"),
    "automata.intersect_states": ("automata.intersect", "states"),
    "spectral.eigen_iterations": ("spectral.eigen", "iterations"),
    "spectral.eigen_order": ("spectral.eigen", "order"),
    "spectral.eigen_unconverged": ("spectral.eigen", "unconverged"),
}


def per_layer(main: dict) -> tuple[dict, list[str]]:
    spans = [tracing.Span(name, op, parent, start, end, counts)
             for op, name, parent, start, end, counts in main["spans"]]
    factors = [op["scale"] for op in main["ops"]]
    traced = [op["s"] * f * 1000.0 for op, f in zip(main["ops"], factors) if op["traced"]]
    plain = [op["s"] * f * 1000.0 for op, f in zip(main["ops"], factors) if not op["traced"]]
    ops = len(traced)
    own_ms: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    shrinks = []
    for span, own in zip(spans, tracing.self_times(spans)):
        own_ms[span.name] += own * factors[span.op] * 1000.0
        for key, value in span.counts.items():
            counts[(span.name, key)] += value
        if span.name == "automata.minimize" and span.counts:  # no counts if it raised
            shrinks.append(span.counts["states_out"] / span.counts["states_in"])
    metrics = {name: own_ms[span] / ops for name, span in PER_LAYER_TIMES.items()}
    metrics.update({name: counts[key] / ops for name, key in PER_LAYER_COUNTS.items()})
    metrics["automata.minimize_calls"] = len(shrinks) / ops
    metrics["automata.minimize_shrink"] = statistics.fmean(shrinks)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    op_ms = own_ms.pop("op") / ops
    layer_ms = sum(own_ms.values()) / ops
    notes = [f"{ops} traced and {len(plain)} untraced ops",
             f"layer self times cover {layer_ms / (layer_ms + op_ms):.1%} of the traced op time"]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "entroscope" / "__init__.py").is_file():
        print(f"error: no entroscope package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cases = workloads.generate(args.workload, args.seed)
    expect = [oracle.expected_pair(c) if isinstance(c, workloads.PairCase) else oracle.expected_log(c)
              for c in cases]

    probes = [] if args.trace else [run_worker(args.workload, args.seed, 0, 0, True) for _ in range(SETUP_PROBES)]
    main_run = run_worker(args.workload, args.seed, args.seconds, args.trace, False)

    failed = 0
    for op in main_run["ops"]:
        bad = op["error"] or not op["converged"] or expect[op["case"]].mismatch(op["values"], REL_TOL)
        if bad:
            failed += 1
            print(f"FAILED op on case {op['case']}: {op['error'] or op['values']} "
                  f"(expected {expect[op['case']].values})")

    if args.trace:
        metrics, notes = per_layer(main_run)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
            for span in main_run["spans"]:
                f.write(json.dumps(span) + "\n")
    else:
        metrics, notes = end_to_end(main_run, probes + [main_run])

    attempted = len(main_run["ops"])
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} ops; relative tolerance {REL_TOL:g})")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
