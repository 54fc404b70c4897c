"""Shared experiment plumbing for the table/figure harnesses.

Key invariant: neither profiling nor the VM configuration changes *what*
a benchmark executes, only when the virtual timer fires (the guest has
no clock-reading opcode), so the perfect DCG is a property of
``(program, size, opt_level)`` alone.  It is collected once, by an
exhaustive call observer on the first baseline run of a program; every
other baseline and every profiled run executes with no call observer
and is scored against that cached ground truth.  Accuracy therefore
needs no second observed run, and overhead is measured against a cached
unprofiled baseline — exactly the paper's methodology with the
run-to-run noise removed by determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.adaptive.modes import jit_only_cache
from repro.benchsuite.suite import program_for
from repro.profiling.dcg import DCG
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.metrics import accuracy
from repro.telemetry.scopes import trace_scope
from repro.vm.config import VMConfig, config_named
from repro.vm.interpreter import Interpreter


@dataclass
class BaselineResult:
    """One unprofiled, JIT-only run."""

    time: int
    steps: int
    calls: int
    methods_executed: int
    bytecode_bytes: int
    perfect_dcg: DCG
    output: list[int]


@dataclass
class ProfiledRun:
    """One run with a sampling profiler attached."""

    accuracy: float
    overhead_percent: float
    samples: int
    time: int
    profiler: object
    perfect_dcg: DCG


_baseline_cache: dict[tuple, BaselineResult] = {}
#: Perfect DCG per ``(program, size, opt_level)``, shared by both VMs.
_perfect_cache: dict[tuple, DCG] = {}


def _make_vm(name: str, size: str, config: VMConfig, opt_level: int) -> Interpreter:
    program = program_for(name, size)
    cache = jit_only_cache(program, config.cost_model, level=opt_level)
    return Interpreter(program, config, cache)


def measure_baseline(
    name: str, size: str, vm_name: str = "jikes", opt_level: int = 0
) -> BaselineResult:
    """Unprofiled JIT-only run (cached); includes the perfect DCG.

    Only the first baseline of a ``(program, size, opt_level)`` carries
    the exhaustive call observer; later ones reuse its DCG.
    """
    key = (name, size, vm_name, opt_level)
    cached = _baseline_cache.get(key)
    if cached is not None:
        return cached
    vm = _make_vm(name, size, config_named(vm_name), opt_level)
    program_key = (name, size, opt_level)
    observer = None
    if program_key not in _perfect_cache:
        observer = ExhaustiveProfiler()
        observer.install(vm)
    vm.run()
    if observer is not None:
        _perfect_cache[program_key] = observer.dcg
    result = BaselineResult(
        time=vm.time,
        steps=vm.steps,
        calls=vm.call_count,
        methods_executed=vm.methods_executed,
        bytecode_bytes=vm.program.total_bytecode_size(),
        perfect_dcg=_perfect_cache[program_key],
        output=list(vm.output),
    )
    _baseline_cache[key] = result
    return result


def measure_profiler(
    name: str,
    size: str,
    profiler,
    vm_name: str = "jikes",
    opt_level: int = 0,
    tracer=None,
) -> ProfiledRun:
    """Run once with ``profiler`` attached; report accuracy and overhead.

    The run carries no call observer: accuracy is scored against the
    baseline's perfect DCG, which profiling cannot change.  An optional
    telemetry ``tracer`` is attached to the profiled VM and the run is
    bracketed in a ``profiled-run`` scope; tracing never changes virtual
    time, so overhead numbers are unaffected.
    """
    baseline = measure_baseline(name, size, vm_name, opt_level)
    vm = _make_vm(name, size, config_named(vm_name), opt_level)
    vm.attach_profiler(profiler)
    if tracer is not None:
        vm.attach_telemetry(tracer)
    with trace_scope(tracer, "profiled-run", benchmark=name, size=size, vm=vm_name):
        vm.run()
    overhead = 100.0 * (vm.time - baseline.time) / baseline.time
    return ProfiledRun(
        accuracy=accuracy(profiler.dcg, baseline.perfect_dcg),
        overhead_percent=overhead,
        samples=getattr(profiler, "samples_taken", len(profiler.dcg.edges())),
        time=vm.time,
        profiler=profiler,
        perfect_dcg=baseline.perfect_dcg,
    )


@dataclass
class SteadyStateResult:
    """Adaptive run measured over warmup + steady iterations."""

    iteration_times: list[int]
    steady_time: int
    compile_time: int
    compile_count: int
    events: list = field(default_factory=list)


def run_steady_state(
    name: str,
    size: str,
    vm_name: str,
    policy,
    profiler=None,
    iterations: int = 10,
    steady_window: int = 3,
    use_profile: bool = True,
    adaptive_config: AdaptiveConfig | None = None,
    tracer=None,
) -> SteadyStateResult:
    """Figure 5 methodology: iterate the benchmark under the adaptive
    system; report the mean of the last ``steady_window`` iterations
    (the paper's "second minute")."""
    program = program_for(name, size)
    config = config_named(vm_name)
    cache = jit_only_cache(program, config.cost_model, level=0)
    vm = Interpreter(program, config, cache)
    if profiler is not None:
        vm.attach_profiler(profiler)
    if tracer is not None:
        vm.attach_telemetry(tracer)
    adaptive_config = replace(adaptive_config or AdaptiveConfig(), use_profile=use_profile)
    adaptive = AdaptiveSystem(program, policy, adaptive_config)
    adaptive.install(vm)

    times: list[int] = []
    previous = 0
    for iteration in range(iterations):
        with trace_scope(tracer, f"iteration-{iteration}", benchmark=name):
            vm.run()
        times.append(vm.time - previous)
        previous = vm.time
    steady = sum(times[-steady_window:]) // steady_window
    return SteadyStateResult(
        iteration_times=times,
        steady_time=steady,
        compile_time=vm.code_cache.compile_time,
        compile_count=vm.code_cache.compile_count,
        events=adaptive.events,
    )


def clear_baseline_cache() -> None:
    """Forget every cached baseline and perfect DCG."""
    _baseline_cache.clear()
    _perfect_cache.clear()
