"""Shared pieces of the benchmark: host clock, statistics, tracing, output.

Everything here is stdlib-only and imports nothing from ``repro``, so the
entry point can report a missing source tree before touching it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (fleet repositories, span dumps).
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 9
#: Kernel runs in each calibration sample taken around a set-up repeat.
SETUP_SAMPLE_RUNS = 7
#: Workload name -> module under ``perfbench/``.
WORKLOAD_MODULES = {
    "paper-sweep": "paper_sweep",
    "adaptive-steady": "adaptive_steady",
    "fleet-mix": "fleet_mix",
}


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


# -- host clock ----------------------------------------------------------------------
#
# Wall time on a shared host swings by up to 2x between processes on the
# same tree, and within one run the host moves between fast and slow
# spells lasting seconds.  A fixed pure-Python loop, interleaved through
# the run, measures how fast this host runs Python; a host time is
# scaled by (pinned reference / the samples taken around it).


def _calib_leaf(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def calibration_kernel(n: int = 8000) -> int:
    """The calibration work: calls, dict and list traffic, int arithmetic —
    the same operation mix as the VM's dispatch loop."""
    acc = 0
    table: dict[int, int] = {}
    stack: list[int] = []
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        stack.append(i ^ key)
        if len(stack) > 32:
            acc += stack.pop() + stack.pop()
        acc = _calib_leaf(acc, table[key])
    return acc


def calibration_sample_ms(runs: int = 3) -> float:
    """The median of ``runs`` kernel runs, so one preemption does not skew it."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        calibration_kernel()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


class HostClock:
    """Interleaved calibration samples and the calibrated-time conversion."""

    def __init__(self, reference_ms: float):
        self.reference_ms = reference_ms
        self.times: list[float] = []
        self.samples_ms: list[float] = []

    def calibrate(self, runs: int = 3) -> None:
        sample = calibration_sample_ms(runs)
        self.times.append(time.perf_counter())
        self.samples_ms.append(sample)

    def mean_ms(self, since: float = float("-inf")) -> float:
        """The mean of the samples taken after ``since``, each weighted by
        the time it stands for (half the gap to each neighbour).  Within
        one run the host moves between fast and slow spells, so the
        samples are bimodal and their median jumps between the modes; the
        time-weighted mean follows the share of the run each spell took."""
        kept = [(t, x) for t, x in zip(self.times, self.samples_ms) if t >= since]
        if len(kept) < 3:
            return statistics.mean(x for _, x in kept)
        t = [t for t, _ in kept]
        weights = [(t[min(i + 1, len(t) - 1)] - t[max(i - 1, 0)]) / 2 for i in range(len(t))]
        return sum(w * x for w, (_, x) in zip(weights, kept)) / sum(weights)

    def factor(self, since: float = float("-inf")) -> float:
        """Raw host time x factor = calibrated time, by the samples taken
        after ``since`` (the start of the phase being calibrated)."""
        return self.reference_ms / self.mean_ms(since)

    def per_op(self, raw_s: list[float]) -> list[float]:
        """Calibrated seconds of operations run back to back, with one
        sample taken before the first and one after each: operation i is
        scaled by the mean of the samples on either side of it.  A run's
        operations fall in different fast and slow spells, so a median or
        percentile of them needs each one calibrated by its own spell."""
        samples = self.samples_ms[-len(raw_s) - 1 :]
        return [
            raw * self.reference_ms * 2 / (samples[i] + samples[i + 1])
            for i, raw in enumerate(raw_s)
        ]


# -- statistics ----------------------------------------------------------------------

_TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)


def tail(values: list[float], per_round: int) -> tuple[str, float]:
    """The nearest-rank percentile of ``values`` at the highest percentile
    that leaves at least ten of ``per_round`` values beyond it, as
    ``(label, value)``; the maximum when ``per_round`` is too small.  The
    percentile is fixed by the operation count of one round, not by how
    many rounds ran, so a run that fits more rounds reports the same
    percentile as one that fits fewer."""
    label, p = "max", 100.0
    for candidate in _TAIL_PERCENTILES:
        if per_round - max(1, math.ceil(candidate / 100.0 * per_round)) >= 10:
            label, p = f"p{candidate:g}", candidate
            break
    ordered = sorted(values)
    return label, ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_process(argv: list[str]) -> tuple[float, float]:
    """Run a set-up probe in a fresh process; its last stdout line is its
    elapsed seconds and its calibration sample in milliseconds."""
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, sample_ms = done.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(sample_ms)


def setup_seconds(probe, reference_ms: float) -> tuple[list, list]:
    """``(raw, calibrated)`` seconds of ``SETUP_REPEATS`` calls of ``probe``, which
    returns ``(seconds, calibration sample ms)``.  The process that ran
    the set-up samples right before and right after it and reports the
    mean: the two vCPUs of a shared host can run at different speeds, so
    a sample from another process may measure another CPU."""
    probes = [probe() for _ in range(SETUP_REPEATS)]
    return [raw for raw, _ in probes], [raw * reference_ms / ms for raw, ms in probes]


# -- tracing -------------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``[name, start_ns, end_ns, parent, op, self_ns]``; spans
    opened while an operation (a cell, iteration or request) is current
    carry its id.  Per-call hooks that fire hundreds of thousands of
    times record a count and summed time instead of a span.  Either
    kind of child subtracts its time from the enclosing span's self time.
    Times come from ``clock`` (nanoseconds), wall time by default.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.hooks: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.op = None
        self._stack: list[list[int]] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.op, 0])
        self._stack.append([len(self.spans) - 1, 0])

    def end(self) -> None:
        index, child_ns = self._stack.pop()
        span = self.spans[index]
        span[2] = self.clock()
        duration = span[2] - span[1]
        span[5] = duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    def spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def counted(self, fn, name: str):
        cell = self.hooks[name]
        stack = self._stack
        clock = self.clock

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                cell[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def patch(self, owner, attr: str, name: str, wrap=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (or ``wrap(orig)``)
        until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original) if wrap else self.spanned(original, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------------

    def of(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return len(self.of(name))

    def total_ms(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.of(name)) / 1e6

    def self_ms(self, name: str) -> float:
        return sum(s[5] for s in self.of(name)) / 1e6

    def hook_ms(self, name: str) -> float:
        return self.hooks[name][1] / 1e6

    def coverage(self, *op_names: str) -> float:
        """Share of the top-level operation spans' time covered by their
        children."""
        ops = [s for s in self.spans if s[0] in op_names and s[3] == -1]
        total = sum(s[2] - s[1] for s in ops)
        return sum(s[2] - s[1] - s[5] for s in ops) / total if total else 0.0

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "hooks": dict(self.hooks)}, handle)


# -- operations ----------------------------------------------------------------------


class Row(NamedTuple):
    """One timed operation: what it was, its raw host seconds, its result
    and how it disagreed with its reference (empty when it did not)."""

    kind: str
    key: tuple
    raw_s: float
    result: object
    errors: list


def whole_rounds(rounds, run_round, seconds: float) -> list[Row]:
    """Run whole rounds of a seeded draw: as many as fit in ``seconds``,
    at least one.  Every round covers the workload's whole input set,
    so each run measures the same mix whatever the seed and host speed."""
    start = time.perf_counter()
    rows: list[Row] = []
    for each in rounds:
        began = time.perf_counter()
        rows += run_round(each)
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return rows


# -- output --------------------------------------------------------------------------


@dataclass
class Outcome:
    """What a workload measured: metric values by name, operation counts,
    the first failures, free-form detail, and the tracer of a traced run."""

    values: dict
    attempted: int
    failed: int
    errors: list
    detail: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def emit(correct: bool, attempted: int, failed: int, metrics: dict, detail: dict) -> int:
    """Print the detail line, then the result line (always the last line)."""
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct and failed == 0 else 1
