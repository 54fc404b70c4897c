"""Workload ``paper-sweep``: a closed loop of harness cells, in process.

Each cell is a :class:`repro.harness.parallel.SweepCell` run through
``run_cell`` at the harness defaults (JIT off), so the work falls on
dispatch, the exhaustive ground-truth observer and the sampling
profiler.  A round is what a sweep does: it starts from an empty
baseline cache, fills it for every (program, VM) pair through
``measure_baseline``, then runs ``CELLS_PER_PAIR`` cells per pair.  The
seed orders the pairs and the cells and deals each cell a profiler
configuration from a balanced shuffle of Table 2 grid points and the
timer profiler, so every seed measures the same mix of cheap and costly
cells.
"""

from __future__ import annotations

import random
import time
from statistics import median

import vmtrace
from common import Outcome, Row, Tracer, tail, whole_rounds

#: CBS (stride, samples-per-tick) points from Table 2's grid, plus the
#: timer profiler.  High-sample points load the profiler.
CBS_POINTS = [(1, 1), (3, 16), (7, 32), (15, 128), (31, 4), (1, 1024), (63, 256), (3, 8192)]
CONFIGS = [f"cbs-{s}-{n}" for s, n in CBS_POINTS] + ["timer"]
VMS = ("jikes", "j9")
CELLS_PER_PAIR = 2
#: The harness's CBS seed (Table 2): the benchmark seed picks the draw,
#: never the profiler's own random stream, so results stay pinnable.
CBS_SEED = 1234


def make_cell(benchmark: str, vm: str, config: str, size: str):
    from repro.harness.parallel import SweepCell

    if config == "timer":
        return SweepCell(benchmark=benchmark, size=size, profiler="timer", vm=vm)
    _, stride, samples = config.split("-")
    return SweepCell(
        benchmark=benchmark,
        size=size,
        profiler="cbs",
        profiler_args=(
            ("stride", int(stride)),
            ("samples_per_tick", int(samples)),
            ("seed", CBS_SEED),
        ),
        vm=vm,
    )


def pairs() -> list[tuple[str, str]]:
    from repro.benchsuite.suite import BENCHMARKS

    return [(name, vm) for name in BENCHMARKS for vm in VMS]


def rounds(seed: int):
    """Endless seeded rounds of ``(pairs, cells)``; a cell is
    ``(benchmark, vm, config)``."""
    rng = random.Random(seed)
    while True:
        order = pairs()
        rng.shuffle(order)
        cells = [pair for pair in order for _ in range(CELLS_PER_PAIR)]
        dealt = (CONFIGS * (len(cells) // len(CONFIGS) + 1))[: len(cells)]
        rng.shuffle(dealt)
        cells = [(name, vm, config) for (name, vm), config in zip(cells, dealt)]
        rng.shuffle(cells)
        yield order, cells


def part(round_, share: float):
    """The round restricted to its first ``share`` of pairs."""
    order, cells = round_
    kept = order[: max(1, round(len(order) * share))]
    return kept, [c for c in cells if c[:2] in kept]


def setup(seed: int, size: str) -> None:
    """Imports, the frontend for every program, and one code cache per
    (program, VM) — what a sweep pays before its first cell."""
    from repro.adaptive.modes import jit_only_cache
    from repro.benchsuite.suite import program_for
    from repro.harness.parallel import run_cell  # noqa: F401
    from repro.vm.config import config_named

    for name, vm in pairs():
        jit_only_cache(program_for(name, size), config_named(vm).cost_model, level=0)


def check_baseline(refs: dict, size: str, name: str, vm: str, baseline) -> list[str]:
    errors = []
    pinned = refs["baselines"][size].get(f"{name}/{vm}")
    got = {"time": baseline.time, "steps": baseline.steps, "calls": baseline.calls}
    if pinned != got:
        errors.append(f"{name}/{vm}: baseline {got} != pinned {pinned}")
    if baseline.output != refs["spec_outputs"][size].get(name):
        errors.append(f"{name}/{vm}: guest output differs from the spec reference")
    return errors


def check_cell(refs: dict, size: str, cell: tuple, result) -> list[str]:
    pinned = refs["cells"][size].get("/".join(cell))
    got = {
        "time": result.time,
        "accuracy": result.accuracy,
        "overhead_percent": result.overhead_percent,
        "samples": result.samples,
    }
    return [] if pinned == got else [f"{'/'.join(cell)}: cell {got} != pinned {pinned}"]


def timed(kind: str, key: tuple, fn, *args) -> tuple:
    """``(result, raw seconds, errors)``; a raising operation has failed."""
    start = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - start, []
    except Exception as error:
        return None, time.perf_counter() - start, [f"{kind} {key}: {error!r}"]


def run_round(round_, refs: dict, size: str, clock) -> list[Row]:
    """Fill the baseline cache, then run the round's cells; every
    operation is checked against the pinned references."""
    from repro.harness import parallel, runner

    runner.clear_baseline_cache()
    order, cells = round_
    rows = []
    for name, vm in order:
        baseline, raw, errors = timed(
            "baseline", (name, vm), runner.measure_baseline, name, size, vm
        )
        if baseline is not None:
            errors = check_baseline(refs, size, name, vm, baseline)
        summary = baseline and (baseline.time, baseline.steps, baseline.calls, baseline.output)
        rows.append(Row("baseline", (name, vm), raw, summary, errors))
        clock.calibrate()
    for cell in cells:
        result, raw, errors = timed("cell", cell, parallel.run_cell, make_cell(*cell, size))
        if result is not None:
            errors = check_cell(refs, size, cell, result)
        rows.append(Row("cell", cell, raw, result, errors))
        clock.calibrate()
    return rows


def run(seed: int, seconds: float, size: str, refs: dict, clock, trace: bool) -> Outcome:
    clock.calibrate()
    if trace:
        return traced(next(rounds(seed)), size, refs, clock)
    rows = whole_rounds(rounds(seed), lambda r: run_round(r, refs, size, clock), seconds)
    scaled = clock.per_op([r.raw_s for r in rows])
    cells = [r for r in rows if r.kind == "cell"]
    cell_ms = [t * 1e3 for t, r in zip(scaled, rows) if r.kind == "cell"]
    failed = sum(1 for r in rows if r.errors)
    label, tail_ms = tail(cell_ms, CELLS_PER_PAIR * len(pairs()))
    cells_per_s = sum(1 for r in cells if not r.errors) / sum(scaled)
    return Outcome(
        values={"throughput_per_s": cells_per_s, "op_ms": median(cell_ms), "tail_ms": tail_ms},
        attempted=len(rows),
        failed=failed,
        errors=[e for r in rows for e in r.errors],
        detail={
            "cells_per_s": cells_per_s,
            "cells_per_s_raw": len(cells) / sum(r.raw_s for r in rows),
            "cell_p50_ms": median(cell_ms),
            "cell_tail_ms": tail_ms,
            "cell_tail_percentile": label,
            "cells": len(cells),
            "baselines": len(rows) - len(cells),
            "baseline_s": sum(t for t, r in zip(scaled, rows) if r.kind == "baseline"),
            "failed_ratio": failed / len(rows),
            "draw": ["/".join(r.key) for r in cells],
            "raw_ms": [round(r.raw_s * 1e3, 2) for r in rows],
        },
    )


def install_trace(tracer: Tracer) -> vmtrace.VMTally:
    """Wrap the public entry points a sweep goes through; spans of one
    cell, or of one baseline of the round's first phase, share its id."""
    from repro.harness import parallel, runner

    tally = vmtrace.install(tracer)

    def as_op(name):
        def wrap(fn):
            def traced_op(*args):
                if tracer.op is not None:  # a baseline inside a cell
                    return tracer.spanned(fn, name)(*args)
                tracer.op = (name, len(tracer.spans))
                try:
                    return tracer.spanned(fn, name)(*args)
                finally:
                    tracer.op = None

            return traced_op

        return wrap

    def wrap_cache(build):
        def traced_build(*args, **kwargs):
            cache = tracer.spanned(build, "codecache.build")(*args, **kwargs)
            tally.totals["fused_sites"] += cache.fused_sites
            return cache

        return traced_build

    tracer.patch(parallel, "run_cell", "harness.cell", as_op("harness.cell"))
    tracer.patch(runner, "measure_baseline", "harness.baseline", as_op("harness.baseline"))
    tracer.patch(runner, "jit_only_cache", "codecache.build", wrap_cache)
    tracer.patch(runner, "accuracy", "profiling.accuracy")
    return tally


def traced(round_, size: str, refs: dict, clock) -> Outcome:
    """A third of a round untraced, then the same operations traced,
    each from an empty baseline cache, so both passes do the same work."""
    round_ = part(round_, 1 / 3)
    plain = run_round(round_, refs, size, clock)
    tracer = Tracer()
    tally = install_trace(tracer)
    try:
        again = run_round(round_, refs, size, clock)
    finally:
        tracer.restore()
    factor = clock.factor()
    identical = [r.result for r in plain] == [r.result for r in again]
    spans = tracer.spans
    calls = tracer.count("harness.baseline")
    misses = sum(1 for s in spans if s[0] == "vm.run" and spans[s[3]][0] == "harness.baseline")
    values = vmtrace.layer_metrics(tracer, tally, factor)
    values.update(
        {
            "harness.baseline_ms": tracer.total_ms("harness.baseline") * factor,
            "harness.baseline_hit_ratio": 1 - misses / calls if calls else 0.0,
            "codecache.build_ms": tracer.total_ms("codecache.build") * factor,
            "codecache.builds": tracer.count("codecache.build"),
            "profiling.accuracy_ms": tracer.total_ms("profiling.accuracy") * factor,
            "trace.overhead_ratio": sum(r.raw_s for r in again) / sum(r.raw_s for r in plain),
            "trace.coverage": tracer.coverage("harness.cell", "harness.baseline"),
        }
    )
    rows = plain + again
    errors = [e for r in rows for e in r.errors]
    if not identical:
        errors.append("traced operations differ from the untraced ones")
    return Outcome(
        values=values,
        attempted=len(rows),
        failed=sum(1 for r in rows if r.errors) + (not identical),
        errors=errors,
        detail={"operations": len(again), "draw": ["/".join(r.key) for r in again]},
        tracer=tracer,
    )
