"""Integration tests asserting the paper's central claims hold in the
reproduction (on reduced inputs, so CI stays fast)."""

import pytest

from repro.benchsuite.suite import benchmark_names
from repro.harness import runner
from repro.harness.parallel import PROFILER_FACTORIES
from repro.profiling.cbs import CBSProfiler
from repro.profiling.timer_sampler import TimerProfiler
from tests.helpers import SAMPLING_PROFILERS, observed_calls

#: A representative slice: call-dense, call-sparse, polymorphic, recursive.
SLICE = ["jess", "javac", "mtrt", "kawa", "daikon", "xerces"]


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_baseline_cache()
    yield


def average_accuracy(profiler_factory, size="tiny", vm_name="jikes"):
    scores = []
    for name in SLICE:
        run = runner.measure_profiler(name, size, profiler_factory(), vm_name=vm_name)
        scores.append(run.accuracy)
    return sum(scores) / len(scores)


def test_claim_cbs_more_accurate_than_timer_jikes():
    timer = average_accuracy(TimerProfiler)
    cbs = average_accuracy(lambda: CBSProfiler(stride=3, samples_per_tick=16))
    assert cbs > timer + 10.0, (timer, cbs)


def test_claim_cbs_more_accurate_than_base_j9():
    base = average_accuracy(
        lambda: CBSProfiler(stride=1, samples_per_tick=1), vm_name="j9"
    )
    cbs = average_accuracy(
        lambda: CBSProfiler(stride=7, samples_per_tick=32), vm_name="j9"
    )
    assert cbs > base + 10.0, (base, cbs)


def test_claim_accuracy_grows_with_samples():
    small = average_accuracy(lambda: CBSProfiler(stride=1, samples_per_tick=1))
    medium = average_accuracy(lambda: CBSProfiler(stride=1, samples_per_tick=16))
    large = average_accuracy(lambda: CBSProfiler(stride=1, samples_per_tick=128))
    assert small < medium < large + 1.0
    assert large > small + 15.0


def test_claim_stride_improves_accuracy_at_fixed_samples():
    # Needs windows long enough to fit stride*samples calls between
    # ticks, so this claim is evaluated at the paper's "small" size.
    narrow = average_accuracy(
        lambda: CBSProfiler(stride=1, samples_per_tick=8), size="small"
    )
    wide = average_accuracy(
        lambda: CBSProfiler(stride=15, samples_per_tick=8), size="small"
    )
    assert wide > narrow


def test_claim_overhead_low_at_paper_config():
    overheads = []
    for name in SLICE:
        run = runner.measure_profiler(
            name, "tiny", CBSProfiler(stride=3, samples_per_tick=16)
        )
        overheads.append(run.overhead_percent)
    assert sum(overheads) / len(overheads) < 2.0
    assert max(overheads) < 5.0


def test_claim_overhead_explodes_at_extreme_samples():
    # Table 2's bottom rows: ~37% overhead at Samples=8192 in the paper.
    run = runner.measure_profiler(
        "jess", "small", CBSProfiler(stride=1, samples_per_tick=8192)
    )
    assert run.overhead_percent > 15.0


def test_claim_profiling_does_not_change_program_behavior():
    # Sampling changes only when the timer fires, never which calls run,
    # and neither does the VM: every profiled run on either VM makes the
    # unprofiled run's calls, in the same order.  The harness relies on
    # this to observe one baseline per program.
    for name in benchmark_names():
        unprofiled = observed_calls(name, "tiny", "jikes")
        assert observed_calls(name, "tiny", "j9") == unprofiled, name
        for vm_name in ("jikes", "j9"):
            for profiler in SAMPLING_PROFILERS:
                profiled = observed_calls(
                    name, "tiny", vm_name, PROFILER_FACTORIES[profiler]()
                )
                assert profiled == unprofiled, (name, vm_name, profiler)


def test_claim_sampled_profile_is_subset_of_truth():
    for name in SLICE:
        run = runner.measure_profiler(
            name, "tiny", CBSProfiler(stride=3, samples_per_tick=16)
        )
        for edge in run.profiler.dcg.edges():
            assert edge in run.perfect_dcg.edges()


def test_claim_adaptive_inlining_preserves_output_everywhere():
    from repro.benchsuite.suite import program_for
    from repro.inlining.new_inliner import NewJikesInliner
    from repro.vm.config import jikes_config
    from repro.vm.interpreter import Interpreter
    from repro.adaptive.controller import AdaptiveSystem
    from repro.adaptive.modes import jit_only_cache

    for name in benchmark_names():
        program = program_for(name, "tiny")
        config = jikes_config()
        plain = Interpreter(program, config)
        plain.run()

        vm = Interpreter(program, config, jit_only_cache(program, config.cost_model, 0))
        vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16))
        AdaptiveSystem(program, NewJikesInliner(program)).install(vm)
        vm.run()
        assert vm.output == plain.output, name


def test_claim_profile_directed_beats_static_on_polymorphic_code():
    from repro.benchsuite.suite import program_for
    from repro.inlining.new_inliner import NewJikesInliner

    program = program_for("jess", "tiny")
    static = runner.run_steady_state(
        "jess", "tiny", "jikes", NewJikesInliner(program),
        profiler=CBSProfiler(stride=3, samples_per_tick=16),
        iterations=6, use_profile=False,
    )
    guided = runner.run_steady_state(
        "jess", "tiny", "jikes", NewJikesInliner(program),
        profiler=CBSProfiler(stride=3, samples_per_tick=16),
        iterations=6, use_profile=True,
    )
    assert guided.steady_time < static.steady_time


def test_claim_j9_dynamic_heuristics_reduce_compilation():
    # The cold-site suppression effect (paper: ~9% average compile-time
    # reduction).  Asserted on the benchmarks whose shape drives it —
    # many mostly-cold call sites (javac, jack); see EXPERIMENTS.md for
    # the full-suite picture and the kawa-like divergences.
    from repro.adaptive.controller import AdaptiveConfig
    from repro.benchsuite.suite import program_for
    from repro.inlining.j9_inliner import J9Inliner

    for name in ("javac", "jack"):
        program = program_for(name, "tiny")
        static = runner.run_steady_state(
            name, "tiny", "j9", J9Inliner(program),
            profiler=CBSProfiler(stride=7, samples_per_tick=32),
            iterations=6, use_profile=False,
            adaptive_config=AdaptiveConfig(extend_guard_chains=False),
        )
        dynamic = runner.run_steady_state(
            name, "tiny", "j9", J9Inliner(program),
            profiler=CBSProfiler(stride=7, samples_per_tick=32),
            iterations=6, use_profile=True,
            adaptive_config=AdaptiveConfig(extend_guard_chains=False),
        )
        assert dynamic.compile_time < static.compile_time, name
