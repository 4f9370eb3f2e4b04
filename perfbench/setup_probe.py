"""Child process that the benchmark times for its set-up cost.

    python3 perfbench/setup_probe.py cli        # import choqlab.cli
    python3 perfbench/setup_probe.py near-fold  # import choqlab, build grid

Prints one JSON line as soon as the set-up is done: the in-process import
time, how many modules the import loaded, whether `scipy.integrate` came
with it, and which file the package was loaded from.
"""

import json
import sys
import time

if sys.argv[1] == "near-fold":
    import workloads  # stdlib only; imported before the clock starts

start = time.perf_counter()
before = len(sys.modules)
if sys.argv[1] == "near-fold":
    import choqlab as module
    workloads.near_fold_problem()
else:
    import choqlab.cli as module
print(json.dumps({
    "import_s": time.perf_counter() - start,
    "modules_loaded": len(sys.modules) - before,
    "scipy_integrate_loaded": "scipy.integrate" in sys.modules,
    "file": module.__file__,
}), flush=True)
