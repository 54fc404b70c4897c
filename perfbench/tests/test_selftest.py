"""Self-test of the benchmark at ``tiny`` size: every named metric is
emitted with its unit, and a wrong reference is reported as a failure.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1.5", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, stderr = bench(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def corrupt(refs: dict, workload: str) -> None:
    """Move one pinned value of every program the workload can draw."""
    if workload == "paper-sweep":
        for cell in refs["cells"]["tiny"].values():
            cell["time"] += 1
    else:
        for name, output in refs["spec_outputs"]["tiny"].items():
            refs["spec_outputs"]["tiny"][name] = output + [0]


@pytest.mark.parametrize("workload", ["paper-sweep", "adaptive-steady"])
def test_corrupted_reference_is_a_failure(workload, tmp_path):
    refs = json.load(open(os.path.join(BENCH, "references.json")))
    corrupt(refs, workload)
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    code, result, stderr = bench(workload, 0, "--references", str(path))
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAIL:" in stderr


def test_fleet_sums_catch_a_lost_or_wrong_edge():
    from fleet_mix import Workset

    work = Workset(7, "tiny")
    fp = work.fingerprints[0]
    rows = work.delta(fp)
    work.acked(fp, rows)
    edges = [{"caller": c, "pc": pc, "callee": e, "weight": float(w)} for c, pc, e, w in rows]
    total = float(sum(w for *_, w in rows))
    good = {"edges": edges, "fleet": {"total_weight": total}}
    assert work.check_snapshot(fp, good, full=True) is None
    lost = {"edges": edges[1:], "fleet": {"total_weight": total}}
    assert work.check_snapshot(fp, lost, full=True)
    moved = [dict(edges[0], weight=edges[0]["weight"] + 1), *edges[1:]]
    moved[-1] = dict(moved[-1], weight=moved[-1]["weight"] - 1)
    assert work.check_snapshot(fp, {"edges": moved, "fleet": {"total_weight": total}}, full=True)


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("paper-sweep", 0, cwd=str(tmp_path))
    assert code != 0 and result is None


def test_a_service_that_wrote_no_result_is_a_failure():
    from fleet_mix import service_errors

    assert service_errors({})
    assert not service_errors({"peak_rss_mb": 30.0})


def test_tail_percentile_does_not_depend_on_the_number_of_rounds():
    from common import tail

    one_round = [float(i) for i in range(52)]
    assert tail(one_round, 52) == ("p80", 41.0)
    assert tail(one_round * 2, 52)[0] == "p80"
    assert tail(one_round[:15], 15)[0] == "max"
