"""Seeded input generators for the three benchmark workloads.

Nothing here imports ``entroscope``: each generated case carries the text
documents the library is given and the raw structure (string labels, ``None``
for a silent move) that the independent oracle reads.  The same seed always
gives the same cases, text included.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

WORKLOADS = ("wide-log", "long-lasso", "model-coverage")

#: Distinct inputs per run; ops cycle through them so one odd input cannot
#: set a run's median on its own.
POOL_SIZE = 6


@dataclass(frozen=True)
class Automaton:
    """Raw automaton: string labels, ``None`` marks a silent move."""

    states: int
    start: int
    accepts: tuple[int, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, str | None, int], ...]

    def document(self, name: str) -> str:
        """The JSON automaton document that ``read_automaton`` parses."""
        return json.dumps(
            {
                "name": name,
                "alphabet": list(self.alphabet),
                "states": self.states,
                "start": self.start,
                "accepts": list(self.accepts),
                "transitions": [
                    {"from": p, "label": lab, "to": q} for p, lab, q in self.transitions
                ],
            }
        )


@dataclass(frozen=True)
class LogCase:
    """A specification and an event log, measured by precision and recall."""

    spec: Automaton
    traces: tuple[tuple[tuple[str, ...], int], ...]  # distinct trace, multiplicity
    log_format: str  # "xes" or "lines"
    spec_text: str
    log_text: str


@dataclass(frozen=True)
class PairCase:
    """Two models, measured by coverage in both directions."""

    x: Automaton
    y: Automaton
    x_text: str
    y_text: str


def generate(workload: str, seed: int, pool: int = POOL_SIZE) -> list[LogCase] | list[PairCase]:
    """``pool`` cases of ``workload``, fully determined by ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "wide-log":
        return [wide_log_case(rng) for _ in range(pool)]
    if workload == "long-lasso":
        return [long_lasso_case(rng) for _ in range(pool)]
    if workload == "model-coverage":
        return [model_pair_case(rng, MODEL_SHAPES[slot % len(MODEL_SHAPES)]) for slot in range(pool)]
    raise ValueError(f"unknown workload: {workload!r}")


def _walk(spec: Automaton, rng: random.Random, max_len: int) -> tuple[str, ...] | None:
    """A random accepted word of ``spec`` no longer than ``max_len``, or None."""
    out: dict[int, list[tuple[str | None, int]]] = {}
    for p, lab, q in spec.transitions:
        out.setdefault(p, []).append((lab, q))
    state, word = spec.start, []
    for _ in range(4 * max_len):
        if state in spec.accepts and rng.random() < 0.3:
            return tuple(word)
        lab, state = rng.choice(out[state])
        if lab is not None:
            word.append(lab)
            if len(word) > max_len:
                return None
    return None


def _log_case(
    spec: Automaton, distinct: list[tuple[str, ...]], rng: random.Random, log_format: str, repeat: int
) -> LogCase:
    # Multiplicities 1 .. 2*repeat-1, each equally often, in random order: the
    # log's size is then the same for every seed.
    counts = [1 + i % (2 * repeat - 1) for i in range(len(distinct))]
    rng.shuffle(counts)
    traces = tuple(zip(distinct, counts))
    instances = [t for t, mult in traces for _ in range(mult)]
    rng.shuffle(instances)
    if log_format == "xes":
        log_text = _xes(instances)
    else:
        log_text = "".join(" ".join(t) + "\n" for t in instances)
    return LogCase(spec, traces, log_format, spec.document("spec"), log_text)


def _xes(instances: list[tuple[str, ...]]) -> str:
    """XES text; events carry only a name, never a lifecycle transition."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    for case, trace in enumerate(instances):
        lines.append(f'  <trace>\n    <string key="concept:name" value="case-{case}"/>')
        lines.extend(f'    <event><string key="concept:name" value={quoteattr(name)}/></event>' for name in trace)
        lines.append("  </trace>")
    lines.append("</log>")
    return "\n".join(lines) + "\n"


def wide_log_case(rng: random.Random, distinct_traces: int = 400) -> LogCase:
    """A 4-state cyclic spec over 12 labels and an XES log of short traces.

    The spec is a loop of four stages, three labels per stage, with a silent
    skip over the second stage.  Every other distinct trace is a walk of the
    spec; the rest are random label sequences, nearly all outside the spec
    and sharing few prefixes.  Each distinct trace is recorded 5 times on
    average.
    """
    labels = [f"act{i:02d}" for i in range(12)]
    rng.shuffle(labels)
    stages = [labels[3 * i : 3 * i + 3] for i in range(4)]
    transitions = [(i, lab, (i + 1) % 4) for i in range(4) for lab in stages[i]]
    transitions.append((1, None, 2))
    spec = Automaton(4, 0, (3,), tuple(sorted(labels)), tuple(transitions))
    seen: set[tuple[str, ...]] = set()
    distinct: list[tuple[str, ...]] = []
    while len(distinct) < distinct_traces:
        if len(distinct) % 2:
            # Lengths 3..12 in turn, so the log's shape barely varies by seed.
            word = tuple(rng.choice(labels) for _ in range(3 + len(distinct) // 2 % 10))
        else:
            word = _walk(spec, rng, 12)
            if word is None or len(word) < 3:
                continue
        if word not in seen:
            seen.add(word)
            distinct.append(word)
    return _log_case(spec, distinct, rng, "xes", repeat=5)


#: Trace lengths of every long-lasso log; the odd-numbered ones are made to
#: fit the spec.  Close lengths make the short-circuited log near-periodic,
#: so the power iteration needs about 22k steps an op.  The step count
#: follows these lengths, so fixing them keeps each log's cost alike.
LASSO_LENGTHS = (100, 108, 116, 124, 132, 140, 148, 156)


def long_lasso_case(rng: random.Random) -> LogCase:
    """A 2-state parity spec over 8 labels and 8 long traces sharing a prefix.

    Four labels flip the parity, four keep it, and even parity accepts.
    Every trace starts with the same 50 events and is 100 to 156 events
    long, so the log's prefix tree is one long stem with 8 long branches.
    Half the traces have even parity.
    """
    labels = [f"op{i}" for i in range(8)]
    flips = rng.sample(labels, 4)
    keeps = [lab for lab in labels if lab not in flips]
    transitions = [(p, lab, 1 - p if lab in flips else p) for p in (0, 1) for lab in labels]
    spec = Automaton(2, 0, (0,), tuple(labels), tuple(transitions))
    prefix = [rng.choice(labels) for _ in range(50)]
    distinct = []
    for i, size in enumerate(LASSO_LENGTHS):
        trace = prefix + [rng.choice(labels) for _ in range(size - 51)]
        odd = sum(lab in flips for lab in trace) % 2
        # The last event sets the parity: a flip label toggles it.
        trace.append(rng.choice(flips if odd != i % 2 else keeps))
        distinct.append(tuple(trace))
    return _log_case(spec, distinct, rng, "lines", repeat=1)


def model_nfa(labels: list[str], n: int, markers: list[str], entry: list[str]) -> Automaton:
    """An (n + 4)-state NFA around an "n-th symbol from the end" core.

    The core accepts words whose (n-1)-th symbol from the end is one of
    ``markers``, so its subset construction has about 2^(n-1) states.  Four
    entry states in front reach the core through silent moves or one
    labelled step (the four ``entry`` labels), and the last core state can
    jump back into them.
    """
    core = list(range(4, 4 + n))
    transitions: set[tuple[int, str | None, int]] = set()
    for lab in labels:
        transitions.add((core[0], lab, core[0]))
    for lab in markers:
        transitions.add((core[0], lab, core[1]))
    for i in range(1, n - 1):
        for lab in labels:
            transitions.add((core[i], lab, core[i + 1]))
    transitions |= {
        (0, None, core[0]),
        (0, entry[0], 1),
        (1, None, 2),
        (2, entry[1], 3),
        (3, None, core[1]),
        (1, entry[2], core[0]),
        (core[-1], entry[3], 1),
    }
    ordered = sorted(transitions, key=lambda t: (t[0], t[1] or "", t[2]))
    return Automaton(4 + n, 0, (core[-1],), tuple(sorted(labels)), tuple(ordered))


#: Pool slots: core length and marker count of x, then of y, then how many
#: markers they share.  Costs differ several-fold between shapes, and between
#: label choices within a shape, so the shapes are fixed and the seed only
#: names the labels: each run then sees the same mix of costs, which keeps
#: run-to-run spread small.
MODEL_SHAPES = ((6, 1, 8, 1, 0), (7, 1, 8, 1, 0), (7, 1, 7, 1, 0), (6, 1, 8, 2, 1), (7, 2, 8, 1, 1), (7, 1, 8, 2, 1))


def model_pair_case(rng: random.Random, shape: tuple[int, int, int, int, int]) -> PairCase:
    nx, mx, ny, my, shared = shape
    order = [f"m{i}" for i in range(4)]
    rng.shuffle(order)
    x = model_nfa(order, nx, order[:mx], order)
    y = model_nfa(order, ny, order[mx - shared : mx - shared + my], order[::-1])
    return PairCase(x, y, x.document("x"), y.document("y"))
