"""One measured process: import ``entroscope``, warm up, run ops in a closed loop.

Run by ``run.py``, never by hand.  Prints one JSON object: the set-up time,
the process's peak resident memory (at the end, and before the library was
imported and before the loop), one record per op and, when tracing, the
spans.  Each op is timed with ``timed``.  Results are checked by ``run.py``.

The ops are the library's public functions applied to generated text:

* log workloads: parse the spec and the log, then ``precision`` and ``recall``;
* ``model-coverage``: parse both models, then ``coverage`` both ways.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import workloads
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

#: Time of ``oracle.reference_seconds`` that reported times are scaled to.
REFERENCE_S = 0.010

#: Ops a measured run makes at least, so that 10 lie beyond its p80.
MIN_OPS = 50

#: A loop that has not made ``MIN_OPS`` ops this many seconds after
#: ``--seconds`` stops anyway, so that a much slower library is reported as
#: slow instead of running past the benchmark's time limit.
OVERRUN_S = 90


def import_library():
    """The ``entroscope`` package of this checkout, never an installed one."""
    sys.path.insert(0, str(SRC))
    import entroscope
    import entroscope.formats

    if Path(entroscope.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"entroscope imported from {entroscope.__file__}, not {SRC}")
    return entroscope


def timed(fn: Callable[[], object]) -> tuple[float, float]:
    """Run ``fn()``; return its seconds and the factor that scales them to the
    reference speed.

    ``oracle.reference_seconds`` is timed just before and after ``fn``; the
    factor is ``REFERENCE_S`` over their mean, so that other load on the
    machine, which slows both alike, cancels out.  A full collection precedes
    each of the three, so none pays for the garbage of what ran before.
    """
    # Imported here: in a worker, numpy belongs to the library's import time.
    from oracle import reference_seconds

    gc.collect()
    before = reference_seconds()
    gc.collect()
    started = time.perf_counter()
    fn()
    seconds = time.perf_counter() - started
    gc.collect()
    return seconds, 2.0 * REFERENCE_S / (before + reference_seconds())


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MiB.

    ``VmHWM``, not ``ru_maxrss``: on Linux a process started by fork and exec
    inherits its parent's ``ru_maxrss``, which would count ``run.py``'s own
    memory as the worker's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(lib, case) -> tuple[list[float], bool]:
    """One op; names are looked up on each call so tracing sees them."""
    formats = lib.formats
    if isinstance(case, workloads.PairCase):
        x, y = formats.read_automaton(case.x_text), formats.read_automaton(case.y_text)
        reports = (lib.coverage(x, y), lib.coverage(y, x))
    else:
        spec = formats.read_automaton(case.spec_text)
        read = formats.read_xes if case.log_format == "xes" else formats.read_log
        log = read(case.log_text)
        reports = (lib.precision(spec, log), lib.recall(spec, log))
    return [r.value for r in reports], all(r.converged for r in reports)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cases = workloads.generate(args.workload, args.seed, pool=1 if args.setup_only else workloads.POOL_SIZE)
    rss_inputs_mb = peak_rss_mb()
    started = time.perf_counter()
    lib = import_library()
    run_op(lib, cases[0])
    setup_s = time.perf_counter() - started
    from oracle import reference_seconds

    setup_scale = REFERENCE_S / statistics.median(reference_seconds() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0
    rss_setup_mb = peak_rss_mb()

    tracer = Tracer()
    ops = []
    loop_start = time.perf_counter()
    # Whole rounds over the pool, so every case weighs the same in a run.  A
    # traced run alternates untraced and traced rounds, so the tracing
    # overhead is measured on the same inputs at about the same time.
    unit = len(cases) * (1 + args.trace)
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= args.seconds and len(ops) % unit == 0 and len(ops) >= MIN_OPS:
            break
        if elapsed >= args.seconds + OVERRUN_S:
            break
        index = len(ops)
        op = {"case": index % len(cases), "traced": index // len(cases) % 2 == 1 and bool(args.trace),
              "values": None, "converged": False, "error": None}

        def attempt() -> None:
            try:
                with tracer.op(index) if op["traced"] else contextlib.nullcontext():
                    op["values"], op["converged"] = run_op(lib, cases[op["case"]])
            except Exception as exc:  # an op that raises counts as failed
                op["error"] = f"{type(exc).__name__}: {exc}"

        op["s"], op["scale"] = timed(attempt)
        ops.append(op)

    print(json.dumps({
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "peak_rss_mb": peak_rss_mb(),
        "rss_inputs_mb": rss_inputs_mb,
        "rss_setup_mb": rss_setup_mb,
        "ops": ops,
        "spans": [[s.op, s.name, s.parent, s.start, s.end, s.counts] for s in tracer.spans],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
