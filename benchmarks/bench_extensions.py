"""Extension experiments beyond the paper's tables: convergence rate,
phase-change tracking, and the §7 hardware-sampling alternative."""

from repro.harness.convergence import compare_convergence, phase_change_study
from repro.harness.runner import measure_baseline
from repro.profiling.hardware import HardwareCallSampler
from repro.profiling.metrics import accuracy
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter
from repro.adaptive.modes import jit_only_cache
from repro.benchsuite.suite import program_for

from conftest import pedantic


def test_convergence_rate(benchmark):
    """§2's second constraint: the profile must converge rapidly.

    CBS reaches the timer's *final* accuracy within a small fraction of
    the run.
    """
    curves = pedantic(benchmark, lambda: compare_convergence("javac", size="small"))
    timer = next(c for c in curves if c.label == "timer")
    cbs = curves[-1]
    target = timer.final_accuracy()
    reached = cbs.ticks_to_reach(target)
    assert reached is not None
    assert reached <= timer.ticks[-1] // 2
    benchmark.extra_info["timer_final"] = round(timer.final_accuracy(), 1)
    benchmark.extra_info["cbs_final"] = round(cbs.final_accuracy(), 1)
    benchmark.extra_info["cbs_ticks_to_timer_final"] = reached
    benchmark.extra_info["total_ticks"] = timer.ticks[-1]


def test_phase_change_tracking(benchmark):
    """§3.2's criticism of burst profiling: jbb's transaction mix shifts
    mid-run; continuous CBS tracks it, one-burst patching cannot."""
    results = pedantic(benchmark, lambda: phase_change_study("jbb", size="small"))
    by_label = {r.label.split(" ")[0]: r for r in results}
    assert (
        by_label["cbs"].late_phase_accuracy
        > by_label["patching"].late_phase_accuracy + 10.0
    )
    benchmark.extra_info["late_phase_accuracy"] = {
        r.label: round(r.late_phase_accuracy, 1) for r in results
    }


def test_hardware_sampling_alternative(benchmark):
    """§7: PMU-style call sampling is accurate (the trigger counts
    calls, like CBS) and cheap; skid blurs it only slightly."""

    def run():
        rows = []
        for name in ("jess", "mtrt", "javac"):
            baseline = measure_baseline(name, "small")
            config = jikes_config()
            program = program_for(name, "small")
            vm = Interpreter(
                program, config, jit_only_cache(program, config.cost_model, 0)
            )
            sampler = HardwareCallSampler(period=101, max_skid=4, jitter=13)
            sampler.install(vm)
            vm.run()
            rows.append(
                (
                    name,
                    accuracy(sampler.dcg, baseline.perfect_dcg),
                    100.0 * (vm.time - baseline.time) / baseline.time,
                )
            )
        return rows

    rows = pedantic(benchmark, run)
    # Call-dense benchmarks only: period-based sampling yields samples
    # in proportion to the call count, so call-sparse programs (xerces,
    # compress) get few samples — the same scarcity CBS has there.
    for name, acc, overhead in rows:
        assert acc > 80.0, (name, acc)
        assert overhead < 1.0, (name, overhead)
    benchmark.extra_info["rows"] = [
        (name, round(acc, 1), round(ovh, 3)) for name, acc, ovh in rows
    ]
