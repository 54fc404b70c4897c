"""Workload ``adaptive-steady``: Figure 5's steady-state method, JIT on.

Each program gets one interpreter built the way ``repro-mini run
--adaptive --profile cbs`` builds it (``jikes`` config, CBS at 3/16,
``NewJikesInliner``, ``AdaptiveConfig(jit=True)``) and is iterated
``ITERATIONS`` times; the last ``STEADY_WINDOW`` iterations are Figure
5's steady window.  Warm-up is where ``opt``, ``inlining``, ``adaptive``
and JIT compiles run; in steady state dispatch runs over the code the
adaptive system changed.  A round iterates every steady-state program
once, in an order the seed draws.
"""

from __future__ import annotations

import math
import random
import time
from statistics import median

import vmtrace
from common import Outcome, Row, Tracer, tail, whole_rounds

#: Figure 5's iteration count and steady window (``run_steady_state``).
ITERATIONS = 10
STEADY_WINDOW = 3
JIT_COUNTERS = ("jit_entries", "jit_osr_entries", "jit_compiles")


def programs() -> list[str]:
    from repro.harness.figure5 import STEADY_BENCHMARKS

    return list(STEADY_BENCHMARKS)


def rounds(seed: int):
    rng = random.Random(seed)
    while True:
        order = programs()
        rng.shuffle(order)
        yield order


def build(name: str, size: str):
    """One interpreter, configured as ``run --adaptive --profile cbs``."""
    from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
    from repro.adaptive.modes import jit_only_cache
    from repro.benchsuite.suite import program_for
    from repro.inlining.new_inliner import NewJikesInliner
    from repro.profiling.cbs import CBSProfiler
    from repro.vm.config import config_named
    from repro.vm.interpreter import Interpreter

    program = program_for(name, size)
    config = config_named("jikes", fuse=True, ic=True, paths=False, jit=False)
    cache = jit_only_cache(program, config.cost_model, level=0, fuse=config.fuse, ic=config.ic)
    vm = Interpreter(program, config, cache)
    vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16))
    adaptive = AdaptiveSystem(program, NewJikesInliner(program), AdaptiveConfig(jit=True))
    adaptive.install(vm)
    return vm, adaptive


def setup(seed: int, size: str) -> None:
    """Imports, the frontend for every program, and each program's first
    code cache and interpreter."""
    for name in programs():
        build(name, size)


def marks(vm, adaptive) -> dict:
    return {
        "time": vm.time,
        "steps": vm.steps,
        "samples": vm.profiler.samples_taken,
        "output": len(vm.output),
        "compile_time": vm.code_cache.compile_time,
        "events": len(adaptive.events),
        **{c: getattr(vm, c) for c in JIT_COUNTERS},
    }


def observe(vm, adaptive, before: dict) -> dict:
    """The virtual observables of the iteration that just ended."""
    return {
        "time": vm.time - before["time"],
        "steps": vm.steps - before["steps"],
        "samples": vm.profiler.samples_taken - before["samples"],
        "output": vm.output[before["output"] :],
        "compile_time": vm.code_cache.compile_time - before["compile_time"],
        "events": [
            [e.tick, e.function_index, e.level, e.inlines, e.size_before, e.size_after]
            for e in adaptive.events[before["events"] :]
        ],
    }


def check(refs: dict, size: str, name: str, iteration: int, seen: dict) -> list[str]:
    errors = []
    pinned = refs["iterations"][size].get(name, [])
    expected = pinned[iteration] if iteration < len(pinned) else None
    if seen != expected:
        errors.append(f"{name} iteration {iteration}: {seen} != pinned {expected}")
    if seen["output"] != refs["spec_outputs"][size].get(name):
        errors.append(f"{name} iteration {iteration}: guest output differs from the spec reference")
    return errors


def run_programs(names, refs: dict, size: str, clock, tracer=None) -> list[Row]:
    """Iterate each program ``ITERATIONS`` times on its own interpreter.
    A row's result is ``(observation, jit)``: the virtual observables,
    checked against the pins, and host-level JIT counter deltas."""
    rows = []
    for name in names:
        vm, adaptive = build(name, size)
        if tracer is not None:
            vm.tick_hook = tracer.spanned(vm.tick_hook, "adaptive.tick")
        for iteration in range(ITERATIONS):
            key = (name, iteration)
            before = marks(vm, adaptive)
            if tracer is not None:
                tracer.op = key
                tracer.begin("adaptive.iteration")
            start = time.perf_counter()
            try:
                vm.run()
            except Exception as error:  # a raising iteration is a failed operation
                rows.append(Row("iteration", key, time.perf_counter() - start, None, [repr(error)]))
                clock.calibrate()
                break
            finally:
                if tracer is not None:
                    tracer.end()
                    tracer.op = None
            elapsed = time.perf_counter() - start
            seen = observe(vm, adaptive, before)
            jit = {c: getattr(vm, c) - before[c] for c in JIT_COUNTERS}
            jit["jit_bodies"] = sum(1 for m in vm.code_cache.methods if m.jit is not None)
            errors = check(refs, size, name, iteration, seen)
            rows.append(Row("iteration", key, elapsed, (seen, jit), errors))
            clock.calibrate()
    return rows


def is_steady(row: Row) -> bool:
    return row.key[1] >= ITERATIONS - STEADY_WINDOW


def steady_time_ms(rows: list[Row], times_ms: list[float]) -> float:
    """Figure 5's steady time per program (the mean of its steady-window
    iterations), combined over programs by their geometric mean, so each
    program weighs the same whatever its length."""
    per_program: dict[str, list[float]] = {}
    for row, ms in zip(rows, times_ms):
        if is_steady(row):
            per_program.setdefault(row.key[0], []).append(ms)
    means = [sum(v) / len(v) for v in per_program.values()]
    return math.exp(sum(math.log(m) for m in means) / len(means))


def jit_split(rows: list[Row]) -> dict:
    """Per program: JIT compiles, JIT entries in warm-up and in steady
    iterations, and methods holding JIT code after the last iteration."""
    split: dict[str, dict] = {}
    for row in rows:
        if row.result is None:
            continue
        jit = row.result[1]
        entry = split.setdefault(
            row.key[0], {"compiles": 0, "warmup_entries": 0, "steady_entries": 0, "jit_bodies": 0}
        )
        entry["steady_entries" if is_steady(row) else "warmup_entries"] += (
            jit["jit_entries"] + jit["jit_osr_entries"]
        )
        entry["compiles"] += jit["jit_compiles"]
        entry["jit_bodies"] = jit["jit_bodies"]
    return split


def run(seed: int, seconds: float, size: str, refs: dict, clock, trace: bool) -> Outcome:
    clock.calibrate()
    if trace:
        order = next(rounds(seed))
        return traced(order[: max(1, round(len(order) / 3))], size, refs, clock)
    rows = whole_rounds(rounds(seed), lambda r: run_programs(r, refs, size, clock), seconds)
    times_ms = [t * 1e3 for t in clock.per_op([r.raw_s for r in rows])]
    steady_ms = [t for t, r in zip(times_ms, rows) if is_steady(r)]
    steady_iter_ms = steady_time_ms(rows, times_ms)
    failed = sum(1 for r in rows if r.errors)
    label, tail_ms = tail(times_ms, ITERATIONS * len(programs()))
    per_s = (len(rows) - failed) / (sum(times_ms) / 1e3)
    return Outcome(
        values={"throughput_per_s": per_s, "op_ms": steady_iter_ms, "tail_ms": tail_ms},
        attempted=len(rows),
        failed=failed,
        errors=[e for r in rows for e in r.errors],
        detail={
            "iterations_per_s": per_s,
            "steady_iter_ms": steady_iter_ms,
            "steady_iter_p50_ms": median(steady_ms),
            "steady_iterations": len(steady_ms),
            "warmup_s": sum(t for t, r in zip(times_ms, rows) if not is_steady(r)) / 1e3,
            "iteration_tail_ms": tail_ms,
            "iteration_tail_percentile": label,
            "iterations": len(rows),
            "failed_ratio": failed / len(rows),
            "draw": list(dict.fromkeys(r.key[0] for r in rows)),
            "jit": jit_split(rows),
            "raw_ms": [round(r.raw_s * 1e3, 2) for r in rows],
        },
    )


def install_trace(tracer: Tracer) -> tuple:
    """Wrap the adaptive system's public entry points; the tick hook is
    wrapped per interpreter in :func:`run_programs`."""
    from repro.adaptive import controller
    from repro.inlining.policy import InlinerPolicy
    from repro.vm.jit import compiler
    from repro.vm.runtime import CodeCache

    tally = vmtrace.install(tracer)
    opt = {"inlines": 0, "size_before": 0, "size_after": 0}
    jit = {"ok": 0}

    def wrap_optimize(optimize):
        def traced_optimize(*args, **kwargs):
            result = tracer.spanned(optimize, "opt.optimize")(*args, **kwargs)
            opt["inlines"] += result.inlines_applied
            opt["size_before"] += result.size_before
            opt["size_after"] += result.size_after
            return result

        return traced_optimize

    def wrap_compile(compile_into):
        def traced_compile(vm, method):
            ok = tracer.spanned(compile_into, "jit.compile")(vm, method)
            jit["ok"] += bool(ok)
            return ok

        return traced_compile

    tracer.patch(InlinerPolicy, "plan_for", "inlining.plan")
    tracer.patch(controller, "optimize_function", "opt.optimize", wrap_optimize)
    tracer.patch(CodeCache, "install", "codecache.install")
    tracer.patch(compiler, "compile_into", "jit.compile", wrap_compile)
    return tally, opt, jit


def traced(names: list[str], size: str, refs: dict, clock) -> Outcome:
    """The programs untraced, then the same programs traced on fresh
    interpreters."""
    plain = run_programs(names, refs, size, clock)
    tracer = Tracer()
    tally, opt, jit = install_trace(tracer)
    try:
        again = run_programs(names, refs, size, clock, tracer=tracer)
    finally:
        tracer.restore()
    factor = clock.factor()
    identical = [r.result and r.result[0] for r in plain] == [r.result and r.result[0] for r in again]
    compiles = tracer.count("jit.compile")
    observed = [r for r in again if r.result is not None]
    steady = [r for r in observed if is_steady(r)]
    values = vmtrace.layer_metrics(tracer, tally, factor)
    values.update(
        {
            "codecache.install_ms": tracer.total_ms("codecache.install") * factor,
            "codecache.installs": tracer.count("codecache.install"),
            "adaptive.tick_self_ms": tracer.self_ms("adaptive.tick") * factor,
            "adaptive.ticks": tracer.count("adaptive.tick"),
            "adaptive.recompiles": sum(len(r.result[0]["events"]) for r in observed),
            "adaptive.steady_recompiles": sum(len(r.result[0]["events"]) for r in steady),
            "inlining.plan_ms": tracer.total_ms("inlining.plan") * factor,
            "inlining.plans": tracer.count("inlining.plan"),
            "opt.optimize_ms": tracer.total_ms("opt.optimize") * factor,
            "opt.calls": tracer.count("opt.optimize"),
            "opt.inlines_applied": opt["inlines"],
            "opt.size_ratio": opt["size_after"] / opt["size_before"] if opt["size_before"] else 0.0,
            "jit.compile_ms": tracer.total_ms("jit.compile") * factor,
            "jit.compiles": compiles,
            "jit.compile_ok_ratio": jit["ok"] / compiles if compiles else 0.0,
            "jit.steady_entries": sum(
                r.result[1]["jit_entries"] + r.result[1]["jit_osr_entries"] for r in steady
            ),
            "trace.overhead_ratio": sum(r.raw_s for r in again) / sum(r.raw_s for r in plain),
            "trace.coverage": tracer.coverage("adaptive.iteration"),
        }
    )
    rows = plain + again
    errors = [e for r in rows for e in r.errors]
    if not identical:
        errors.append("traced iterations differ from the untraced iterations")
    return Outcome(
        values=values,
        attempted=len(rows),
        failed=sum(1 for r in rows if r.errors) + (not identical),
        errors=errors,
        detail={"iterations": len(again), "draw": names, "jit": jit_split(again)},
        tracer=tracer,
    )
