"""Set-up probe, run in a fresh process so imports are paid again:

    python3 perfbench/setup_child.py WORKLOAD SEED SIZE

Times importing the workload (and the program through it), the frontend
for its programs and their first caches, then prints the elapsed
seconds and the mean of two calibration samples (milliseconds), one
taken right before the timed set-up and one right after.
"""

import importlib
import sys
import time

from common import SETUP_SAMPLE_RUNS, SRC, WORKLOAD_MODULES, calibration_sample_ms

sys.path.insert(0, SRC)

if __name__ == "__main__":
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    before = calibration_sample_ms(SETUP_SAMPLE_RUNS)
    start = time.perf_counter()
    importlib.import_module(WORKLOAD_MODULES[workload]).setup(seed, size)
    elapsed = time.perf_counter() - start
    print(elapsed, (before + calibration_sample_ms(SETUP_SAMPLE_RUNS)) / 2)
