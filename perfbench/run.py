"""The repository benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it carries the workload's
detail (draw, raw times, calibration samples).  Host times are
calibrated: raw time x (pinned reference calibration time / the
calibration samples taken around it; see README.md).  The exit code is 0 only when every operation
succeeded and matched its reference.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from statistics import median

from common import (
    REFERENCES,
    ROOT,
    RUN_DIR,
    SRC,
    WORKLOAD_MODULES,
    HostClock,
    Tracer,
    emit,
    load_json,
    peak_rss_mb,
    probe_process,
    setup_seconds,
)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("small", "tiny"), default="small",
        help="input size; tiny is for the benchmark's self-test",
    )
    parser.add_argument(
        "--references", default=REFERENCES,
        help="pinned references to check against (default: perfbench/references.json)",
    )
    return parser.parse_args(argv)


def frontend_setup(module, seed: int, size: str, trace: bool) -> dict:
    """This process's own set-up; traced, it yields the frontend metrics."""
    if not hasattr(module, "setup"):
        return {"frontend.compile_ms": 0.0, "frontend.programs": 0}
    from repro.benchsuite import suite

    tracer = Tracer()
    if trace:
        tracer.patch(suite, "compile_source", "frontend.compile")
    try:
        module.setup(seed, size)
    finally:
        tracer.restore()
    return {
        "frontend.compile_ms": tracer.total_ms("frontend.compile"),
        "frontend.programs": tracer.count("frontend.compile"),
    }


def setup_times(module, workload: str, seed: int, size: str, reference_ms: float) -> tuple:
    """``(raw, calibrated)`` seconds of each set-up repeat: the workload's
    own probe if it has one, else ``setup_child.py`` in a fresh process."""
    if hasattr(module, "setup_probe"):
        return setup_seconds(lambda: module.setup_probe(seed, size), reference_ms)
    argv = [os.path.join("perfbench", "setup_child.py"), workload, str(seed), size]
    return setup_seconds(lambda: probe_process(argv), reference_ms)


def main(argv=None) -> int:
    args = parse(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(spec_path):
        print(f"error: no program source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_json(spec_path)
    refs = load_json(args.references)
    clock = HostClock(refs["calibration_ms"])
    module = importlib.import_module(WORKLOAD_MODULES[args.workload])

    frontend = frontend_setup(module, args.seed, args.size, bool(args.trace))
    if not args.trace:
        setup_raw, setup_cal = setup_times(
            module, args.workload, args.seed, args.size, refs["calibration_ms"]
        )
    started = time.perf_counter()
    outcome = module.run(args.seed, args.seconds, args.size, refs, clock, bool(args.trace))
    factor = clock.factor()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "run_s": time.perf_counter() - started,
        "calibration_factor": factor,
        "calibration_ms": [round(x, 3) for x in clock.samples_ms],
        "calibration_at_s": [round(t - started, 3) for t in clock.times],
        **outcome.detail,
    }
    if args.trace:
        values = {"host.calib_ms": clock.mean_ms(), **outcome.values}
        values.update({k: v * factor if k.endswith("_ms") else v for k, v in frontend.items()})
        wanted = spec["per_layer"]
        if outcome.tracer is not None:
            outcome.tracer.dump(os.path.join(RUN_DIR, "traces", f"{args.workload}-{args.seed}.json"))
    else:
        # A workload whose work runs in another process reports that
        # process's peak RSS among its own values.
        values = {"setup_s": median(setup_cal), "peak_rss_mb": peak_rss_mb(), **outcome.values}
        detail["setup_s_raw"] = setup_raw
        detail["setup_s_calibrated"] = setup_cal
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], None if not args.trace else 0)
        if value is None:
            raise KeyError(f"workload produced no {entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for error in outcome.errors[:20]:
        print(f"FAIL: {error}", file=sys.stderr)
    return emit(outcome.failed == 0, outcome.attempted, outcome.failed, metrics, detail)


if __name__ == "__main__":
    sys.exit(main())
