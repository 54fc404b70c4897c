"""Tracing shared by the two VM workloads.

Wraps ``Interpreter.run`` in a ``vm.run`` span, wraps the per-call hooks
the run will fire (call observer, profiler timer and yieldpoint
handlers) as counted hooks, and folds the interpreter's public counters
into a :class:`VMTally` after every run.
"""

from __future__ import annotations

import weakref

#: Interpreter attributes read after every run (cumulative per interpreter).
VM_COUNTERS = {
    "steps": "steps",
    "calls": "call_count",
    "fused_dispatches": "fused_dispatches",
    "ic_misses": "ic_misses",
    "ic_transitions": "ic_transitions",
    "jit_compiles": "jit_compiles",
    "jit_entries": "jit_entries",
    "jit_osr_entries": "jit_osr_entries",
    "jit_deopts": "jit_deopts",
    "jit_guard_exits": "jit_guard_exits",
    "jit_call_exits": "jit_call_exits",
    "jit_return_exits": "jit_return_exits",
    "jit_leaf_calls": "jit_leaf_calls",
}


class VMTally:
    """Counter deltas summed over every traced run."""

    def __init__(self):
        self.totals = {name: 0 for name in VM_COUNTERS}
        self.totals.update(ic_calls=0, samples=0, windows=0, fused_sites=0)
        # Keyed weakly by interpreter and code cache: a sweep creates and
        # drops one per cell, and a dropped one's id() can be reused.
        self._last: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._slot: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._sites: list[tuple[int, int]] = []

    def fold(self, vm, ic_before: int, samples_before: int, windows_before: int) -> None:
        now = {name: getattr(vm, attr) for name, attr in VM_COUNTERS.items()}
        prev = self._last.get(vm, dict.fromkeys(VM_COUNTERS, 0))
        delta = {name: now[name] - prev[name] for name in VM_COUNTERS}
        self._last[vm] = now
        cache = vm.code_cache
        delta["ic_calls"] = cache.receiver_cell_total() - ic_before
        profiler = vm.profiler
        delta["samples"] = getattr(profiler, "samples_taken", 0) - samples_before
        delta["windows"] = getattr(profiler, "windows_opened", 0) - windows_before
        for name, value in delta.items():
            self.totals[name] += value
        if cache not in self._slot:
            self._slot[cache] = len(self._sites)
            self._sites.append((0, 0))
        self._sites[self._slot[cache]] = (cache.ic_sites, cache.megamorphic_sites)

    def sites(self) -> tuple[int, int]:
        """IC and megamorphic sites, summed over the caches' last runs."""
        return sum(s[0] for s in self._sites), sum(s[1] for s in self._sites)


def install(tracer) -> VMTally:
    from repro.vm.interpreter import Interpreter

    tally = VMTally()

    def wrap_run(run):
        def traced_run(vm):
            observer = vm.call_observer
            if observer is not None and not getattr(observer, "_traced", False):
                vm.call_observer = tracer.counted(observer, "observer")
                vm.call_observer._traced = True
            profiler = vm.profiler
            if profiler is not None and "handle_timer" not in vars(profiler):
                profiler.handle_timer = tracer.counted(profiler.handle_timer, "timer")
                profiler.handle_yieldpoint = tracer.counted(
                    profiler.handle_yieldpoint, "yieldpoint"
                )
            ic_before = vm.code_cache.receiver_cell_total()
            samples_before = getattr(profiler, "samples_taken", 0)
            windows_before = getattr(profiler, "windows_opened", 0)
            tracer.begin("vm.run")
            try:
                return run(vm)
            finally:
                tracer.end()
                tally.fold(vm, ic_before, samples_before, windows_before)

        return traced_run

    tracer.patch(Interpreter, "run", "vm.run", wrap_run)
    return tally


def layer_metrics(tracer, tally: VMTally, factor: float) -> dict:
    """The ``vm``, ``codecache`` site, ``profiling`` hook and ``jit``
    execution metrics."""
    t = tally.totals
    run_ms = tracer.total_ms("vm.run") * factor
    entries = t["jit_entries"] + t["jit_osr_entries"]
    early_exits = t["jit_deopts"] + t["jit_guard_exits"] + t["jit_call_exits"]
    yieldpoints = tracer.hooks["yieldpoint"][0]
    ic_sites, mega_sites = tally.sites()
    return {
        "vm.dispatch_self_ms": tracer.self_ms("vm.run") * factor,
        "vm.steps": t["steps"],
        "vm.msteps_per_s": t["steps"] / run_ms / 1e3 if run_ms else 0.0,
        "vm.calls": t["calls"],
        "vm.fused_dispatches": t["fused_dispatches"],
        "vm.ic_misses": t["ic_misses"],
        "vm.ic_transitions": t["ic_transitions"],
        "vm.ic_hit_ratio": (
            max(0, t["ic_calls"] - t["ic_misses"]) / t["ic_calls"] if t["ic_calls"] else 0.0
        ),
        "codecache.fused_sites": t["fused_sites"],
        "codecache.ic_sites": ic_sites,
        "codecache.megamorphic_sites": mega_sites,
        "profiling.observer_ms": tracer.hook_ms("observer") * factor,
        "profiling.observer_calls": tracer.hooks["observer"][0],
        "profiling.yieldpoint_ms": tracer.hook_ms("yieldpoint") * factor,
        "profiling.yieldpoints": yieldpoints,
        "profiling.timer_ms": tracer.hook_ms("timer") * factor,
        "profiling.samples": t["samples"],
        "profiling.windows": t["windows"],
        "profiling.samples_per_yieldpoint": t["samples"] / yieldpoints if yieldpoints else 0.0,
        "jit.entries": t["jit_entries"],
        "jit.osr_entries": t["jit_osr_entries"],
        "jit.deopts": t["jit_deopts"],
        "jit.guard_exits": t["jit_guard_exits"],
        "jit.call_exits": t["jit_call_exits"],
        "jit.return_exits": t["jit_return_exits"],
        "jit.leaf_calls": t["jit_leaf_calls"],
        "jit.exits_per_entry": early_exits / entries if entries else 0.0,
    }
