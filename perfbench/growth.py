"""One-off traced wide-log ops at larger logs, outside the checked workloads.

The checked ``wide-log`` workload keeps its log at 400 distinct traces so an
op stays under a second; this script shows how the layers grow beyond that.
For each size in ``SIZES`` it runs three traced ops and prints, per column,
the median of their self times, scaled to the reference speed as ``run.py``
does.  Run from the root of the repository:

    python3 perfbench/growth.py
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import random
import statistics
from collections import defaultdict

import workloads
from tracing import Tracer, self_times
from worker import import_library, run_op, timed

#: Distinct traces per log; 400 is the checked workload's size.
SIZES = (400, 1000, 2000, 4000)
SEED = 1
REPEATS = 3


def traced_op(lib, case) -> dict[str, float]:
    """Scaled self ms per span name of one op, plus its total and sizes."""
    tracer = Tracer()

    def attempt() -> None:
        with tracer.op(0):
            run_op(lib, case)

    _, factor = timed(attempt)
    row: dict[str, float] = defaultdict(float)
    for span, seconds in zip(tracer.spans, self_times(tracer.spans)):
        row[span.name] += seconds * factor * 1000.0
        row["states_in"] += span.counts.get("states_in", 0)
    row["total"] = (tracer.spans[0].end - tracer.spans[0].start) * factor * 1000.0
    return row


def main() -> None:
    lib = import_library()
    print("| distinct traces | op ms | minimize ms | minimize states in | largest self-time shares |")
    print("|---|---|---|---|---|")
    for size in SIZES:
        case = workloads.wide_log_case(random.Random(f"wide-log/{SEED}"), distinct_traces=size)
        rows = [traced_op(lib, case) for _ in range(REPEATS)]
        med = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
        layers = sorted((k for k in med if k not in ("total", "states_in", "op")), key=lambda k: -med[k])
        shares = ", ".join(f"{k} {med[k] / med['total']:.0%}" for k in layers[:3])
        print(f"| {size} | {med['total']:.0f} | {med['automata.minimize']:.0f} | {med['states_in']:.0f} | {shares} |")


if __name__ == "__main__":
    main()
