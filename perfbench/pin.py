"""Regenerate ``perfbench/references.json`` from the current tree.

    python3 perfbench/pin.py

Pins, for the ``tiny`` and ``small`` sizes:

* each suite program's guest output from the spec executor
  (:func:`repro.fuzz.specexec.run_spec_reference`), which shares no
  dispatch code with the VM under test;
* every ``paper-sweep`` cell's virtual time, accuracy, overhead and
  samples, and each (program, VM) baseline's time, steps and calls;
* every ``adaptive-steady`` iteration's virtual time, steps, samples,
  output, compile time and compile events;

plus the reference calibration time, which is measured only when
``references.json`` does not hold one yet: every calibrated metric is
scaled by it, so measuring it again would rescale them all against the
baseline medians in ``manifest.json``.  The paper's numbers may not move,
so a later change re-pins only when it changes what the VM is asked to
compute, and says why.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median

from common import REFERENCES, SRC, HostClock, load_json

sys.path.insert(0, SRC)

import adaptive_steady  # noqa: E402
import paper_sweep  # noqa: E402

SIZES = ("tiny", "small")


def pin_size(size: str) -> dict:
    from repro.benchsuite.suite import BENCHMARKS, program_for
    from repro.fuzz.specexec import run_spec_reference
    from repro.harness.parallel import run_cell
    from repro.harness.runner import measure_baseline
    from repro.vm.config import config_named

    spec_outputs = {
        name: run_spec_reference(program_for(name, size), config_named("jikes"))["output"]
        for name in BENCHMARKS
    }
    baselines, cells = {}, {}
    for name, vm in paper_sweep.pairs():
        base = measure_baseline(name, size, vm)
        baselines[f"{name}/{vm}"] = {"time": base.time, "steps": base.steps, "calls": base.calls}
        for config in paper_sweep.CONFIGS:
            result = run_cell(paper_sweep.make_cell(name, vm, config, size))
            cells[f"{name}/{vm}/{config}"] = {
                "time": result.time,
                "accuracy": result.accuracy,
                "overhead_percent": result.overhead_percent,
                "samples": result.samples,
            }
        print(f"pinned {size} {name}/{vm}", file=sys.stderr)
    iterations = {}
    for name in adaptive_steady.programs():
        vm, adaptive = adaptive_steady.build(name, size)
        seen = []
        for _ in range(adaptive_steady.ITERATIONS):
            before = adaptive_steady.marks(vm, adaptive)
            vm.run()
            seen.append(adaptive_steady.observe(vm, adaptive, before))
        iterations[name] = seen
    return {
        "spec_outputs": spec_outputs,
        "baselines": baselines,
        "cells": cells,
        "iterations": iterations,
    }


def main() -> int:
    old = load_json(REFERENCES) if os.path.exists(REFERENCES) else {}
    if "calibration_ms" in old:
        calibration = old["calibration_ms"]
    else:
        clock = HostClock(1.0)
        for _ in range(200):
            clock.calibrate()
        calibration = round(median(clock.samples_ms), 4)
    refs = {"calibration_ms": calibration}
    pinned = {size: pin_size(size) for size in SIZES}
    for section in ("spec_outputs", "baselines", "cells", "iterations"):
        refs[section] = {size: pinned[size][section] for size in pinned}
    with open(REFERENCES, "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
