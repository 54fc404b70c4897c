"""Shared test utilities."""

from __future__ import annotations

from repro.adaptive.modes import jit_only_cache
from repro.benchsuite.suite import program_for
from repro.frontend.codegen import compile_source
from repro.harness.parallel import PROFILER_FACTORIES
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.vm.config import VMConfig, config_named, jikes_config
from repro.vm.interpreter import Interpreter

#: The harness's sampling profilers (every registered one but the oracle).
SAMPLING_PROFILERS = sorted(name for name in PROFILER_FACTORIES if name != "exhaustive")


def run_source(source: str, config: VMConfig | None = None) -> list[int]:
    """Compile and run Mini source; return the printed output."""
    program = compile_source(source)
    vm = Interpreter(program, config if config is not None else jikes_config())
    vm.run()
    return vm.output


def run_main_expr(expr: str, prelude: str = "") -> int:
    """Evaluate one Mini expression inside main() and return its value."""
    source = f"{prelude}\ndef main() {{ print({expr}); }}"
    output = run_source(source)
    assert len(output) == 1
    return output[0]


def vm_for(source: str, config: VMConfig | None = None) -> Interpreter:
    program = compile_source(source)
    return Interpreter(program, config if config is not None else jikes_config())


def observed_calls(name: str, size: str, vm_name: str, profiler=None) -> list:
    """Every call edge of one fresh harness-configured run of a benchsuite
    program, in first-seen order, as an exhaustive observer riding
    alongside ``profiler`` records it.  Bypasses the harness caches."""
    program = program_for(name, size)
    config = config_named(vm_name)
    vm = Interpreter(program, config, jit_only_cache(program, config.cost_model, 0))
    perfect = ExhaustiveProfiler()
    perfect.install(vm)
    if profiler is not None:
        vm.attach_profiler(profiler)
    vm.run()
    return list(perfect.dcg.edges().items())
