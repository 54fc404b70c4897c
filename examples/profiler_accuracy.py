"""Compare every profiler in the library on one benchmark.

Reproduces the paper's §6.2 methodology on a single program: run the
benchmark once per profiler (timer, Whaley, code-patching, CBS at
several parameter choices, and Vortex-style charged exhaustive
instrumentation) and report accuracy vs the exhaustive ground truth
together with runtime overhead.

Run:  python examples/profiler_accuracy.py [benchmark] [size]
"""

import sys

from repro.benchsuite.suite import benchmark_names, program_for
from repro.harness.runner import measure_baseline, measure_profiler
from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.patching import CodePatchingProfiler
from repro.profiling.timer_sampler import TimerProfiler
from repro.profiling.whaley import WhaleyProfiler
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter
from repro.adaptive.modes import jit_only_cache
from repro.profiling.metrics import accuracy


def charged_exhaustive_run(name: str, size: str):
    """The Vortex-style instrumented-dispatch baseline (paper §3.1)."""
    baseline = measure_baseline(name, size)
    config = jikes_config()
    program = program_for(name, size)
    vm = Interpreter(program, config, jit_only_cache(program, config.cost_model, 0))
    charged = ExhaustiveProfiler(charge_costs=True)
    charged.install(vm)
    vm.run()
    overhead = 100.0 * (vm.time - baseline.time) / baseline.time
    return accuracy(charged.dcg, baseline.perfect_dcg), overhead


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "javac"
    size = sys.argv[2] if len(sys.argv) > 2 else "small"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}; pick from {benchmark_names()}")

    profilers = [
        ("timer (Jikes base)", lambda: TimerProfiler()),
        ("whaley (async stack)", lambda: WhaleyProfiler()),
        ("patching (Suganuma)", lambda: CodePatchingProfiler(
            warmup_invocations=200, samples_per_method=100)),
        ("cbs S=1 N=1", lambda: CBSProfiler(stride=1, samples_per_tick=1)),
        ("cbs S=3 N=16", lambda: CBSProfiler(stride=3, samples_per_tick=16)),
        ("cbs S=7 N=32", lambda: CBSProfiler(stride=7, samples_per_tick=32)),
        ("cbs S=15 N=128", lambda: CBSProfiler(stride=15, samples_per_tick=128)),
    ]

    print(f"benchmark: {name}-{size}\n")
    print(f"{'profiler':24s} {'accuracy':>9s} {'overhead':>9s} {'samples':>9s}")
    print("-" * 56)
    for label, factory in profilers:
        profiler = factory()
        if isinstance(profiler, CodePatchingProfiler):
            # Patching installs on the observer hook, so measure manually.
            baseline = measure_baseline(name, size)
            config = jikes_config()
            program = program_for(name, size)
            vm = Interpreter(
                program, config, jit_only_cache(program, config.cost_model, 0)
            )
            profiler.install(vm)
            vm.run()
            acc = accuracy(profiler.dcg, baseline.perfect_dcg)
            overhead = 100.0 * (vm.time - baseline.time) / baseline.time
            samples = profiler.samples_taken
        else:
            run = measure_profiler(name, size, profiler)
            acc, overhead, samples = run.accuracy, run.overhead_percent, run.samples
        print(f"{label:24s} {acc:8.1f}% {overhead:8.2f}% {samples:9d}")

    acc, overhead = charged_exhaustive_run(name, size)
    print(f"{'exhaustive (charged)':24s} {acc:8.1f}% {overhead:8.2f}% {'all':>9s}")


if __name__ == "__main__":
    main()
