"""Harness tests: runners, tables, figures on reduced inputs."""

from dataclasses import replace

import pytest

from repro.benchsuite.suite import benchmark_names
from repro.harness import runner
from repro.harness.parallel import PROFILER_FACTORIES, SweepCell, run_cell
from repro.harness.figure1 import compute_figure1, render_figure1
from repro.harness.figure5 import compute_figure5, render_figure5
from repro.harness.report import render_grid, render_table
from repro.harness.table1 import compute_table1, render_table1
from repro.harness.table2 import compute_table2, render_table2
from repro.harness.table3 import compute_table3, render_table3
from repro.profiling.cbs import CBSProfiler
from repro.profiling.timer_sampler import TimerProfiler
from tests.helpers import SAMPLING_PROFILERS, observed_calls

QUICK = ["jess", "mtrt"]


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_baseline_cache()
    yield


def test_measure_baseline_cached():
    first = runner.measure_baseline("jess", "tiny")
    second = runner.measure_baseline("jess", "tiny")
    assert first is second
    assert first.time > 0 and first.calls > 0
    assert first.perfect_dcg.total_weight > 0


def test_perfect_dcg_collected_once_per_program():
    jikes = runner.measure_baseline("jess", "tiny", "jikes")
    j9 = runner.measure_baseline("jess", "tiny", "j9")
    assert j9.perfect_dcg is jikes.perfect_dcg
    runner.clear_baseline_cache()
    assert runner.measure_baseline("jess", "tiny", "j9").perfect_dcg is not jikes.perfect_dcg


def test_measure_profiler_reports_overhead_and_accuracy():
    run = runner.measure_profiler(
        "jess", "tiny", CBSProfiler(stride=3, samples_per_tick=16)
    )
    assert 0.0 <= run.accuracy <= 100.0
    assert run.overhead_percent >= 0.0
    assert run.samples >= 0


def test_profiled_run_perfect_dcg_matches_baseline():
    # The harness observes one unprofiled baseline per program and scores
    # every VM's profiled runs against it, so that cached DCG must be what
    # an independent observer sees beside each sampling profiler, on both
    # VMs.
    for name in benchmark_names():
        run = runner.measure_profiler(name, "tiny", TimerProfiler())
        truth = list(run.perfect_dcg.edges().items())
        for vm_name in ("jikes", "j9"):
            for profiler in SAMPLING_PROFILERS:
                observed = observed_calls(
                    name, "tiny", vm_name, PROFILER_FACTORIES[profiler]()
                )
                assert observed == truth, (name, vm_name, profiler)


def test_exhaustive_cell_scores_perfect_accuracy():
    result = run_cell(SweepCell(benchmark="jess", size="tiny", profiler="exhaustive"))
    assert result.accuracy == 100.0
    assert result.overhead_percent == 0.0


def test_run_steady_state_leaves_config_unchanged():
    from repro.adaptive.controller import AdaptiveConfig
    from repro.benchsuite.suite import program_for
    from repro.inlining.new_inliner import NewJikesInliner

    config = AdaptiveConfig()
    before = replace(config)
    runner.run_steady_state(
        "jess",
        "tiny",
        "jikes",
        NewJikesInliner(program_for("jess", "tiny")),
        iterations=2,
        steady_window=1,
        use_profile=False,
        adaptive_config=config,
    )
    assert config == before


def test_run_steady_state():
    from repro.benchsuite.suite import program_for
    from repro.inlining.new_inliner import NewJikesInliner

    program = program_for("jess", "tiny")
    result = runner.run_steady_state(
        "jess",
        "tiny",
        "jikes",
        NewJikesInliner(program),
        profiler=CBSProfiler(stride=3, samples_per_tick=16),
        iterations=5,
        steady_window=2,
    )
    assert len(result.iteration_times) == 5
    assert result.steady_time > 0
    assert result.compile_time > 0
    # Adaptation must not slow the program down over time.
    assert result.iteration_times[-1] <= result.iteration_times[0]


def test_table1():
    rows = compute_table1(QUICK, sizes=("tiny", "small"))
    assert len(rows) == 2
    for row in rows:
        assert row.large_time_s > row.small_time_s
        assert row.small_methods > 0
    text = render_table1(rows)
    assert "jess" in text and "Table 1" in text


def test_table2_grid():
    cells = compute_table2(
        "jikes",
        benchmarks=QUICK,
        size="tiny",
        strides=[1, 7],
        samples_values=[1, 32],
    )
    assert len(cells) == 4
    by_key = {(c.stride, c.samples): c for c in cells}
    # Accuracy grows with samples.
    assert by_key[(1, 32)].accuracy > by_key[(1, 1)].accuracy
    # Overhead grows with samples.
    assert by_key[(1, 32)].overhead_percent >= by_key[(1, 1)].overhead_percent
    text = render_table2(cells, "jikes")
    assert "Stride" in text


def test_table3_rows_and_averages():
    rows = compute_table3("jikes", benchmarks=QUICK, sizes=("tiny",))
    assert len(rows) == 2
    text = render_table3(rows, "jikes")
    assert "Average tiny" in text


def test_table3_j9_uses_cbs_base():
    rows = compute_table3("j9", benchmarks=["jess"], sizes=("tiny",))
    assert rows[0].base_accuracy >= 0.0


def test_figure1_shows_timer_bias():
    rows = compute_figure1(size="tiny")
    by_name = {r.profiler: r for r in rows}
    assert by_name["timer"].call_1_percent > by_name["timer"].call_2_percent
    assert abs(by_name["cbs"].call_1_percent - 50.0) < 10.0
    assert by_name["cbs"].accuracy > by_name["timer"].accuracy
    assert "Figure 1" in render_figure1(rows)


def test_figure5_computes_speedups():
    rows = compute_figure5("jikes", benchmarks=["jess"], size="tiny", iterations=5)
    assert len(rows) == 1
    text = render_figure5(rows, "jikes")
    assert "jess" in text


def test_figure5_j9_reports_compile_time():
    rows = compute_figure5("j9", benchmarks=["jess"], size="tiny", iterations=5)
    assert rows[0].compile_time_static > 0
    text = render_figure5(rows, "j9")
    assert "compile-time" in text


def test_render_table_formatting():
    text = render_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "2.50" in text


def test_render_grid():
    text = render_grid("r", [1, 2], "c", [10], {(1, 10): "x"}, title="G")
    assert "G" in text and "x" in text and "-" in text


def test_cli_main_quick(capsys):
    from repro.harness.__main__ import main

    assert main(["figure1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
