"""Timing comparison of the numba and pure-numpy kernel paths.

The path is chosen at import time from ORBITFORGE_PURE_NUMPY, so the
driver reruns this script in a subprocess once per path and prints the
side-by-side table of median times.  Without numba there is one path:
it runs once and prints the numpy column alone.
Run directly:  python3 benchmarks/bench_kernels.py [REPEATS]
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np


def _workloads():
    from orbitforge import constructions as cons
    from orbitforge.orbit_machine import inner_automorphisms

    rng = np.random.default_rng(0)
    n = 4096
    perms = np.array([rng.permutation(n) for _ in range(8)],
                     dtype=np.int64)

    b3 = cons.suzuki_B(3).group
    inner = inner_automorphisms(b3).perms

    # the shape of Aut((C4)^3) in the oracle: 86016 perms of 64 points
    many = rng.permuted(np.tile(np.arange(64, dtype=np.int64), (86016, 1)),
                        axis=1)

    big = cons.heisenberg_trace((3, 3), (3, 1), 2).group
    seeds = np.asarray(big.generating_sequence(), dtype=np.int64)

    return {
        "orbit_labels(8 x 4096, random)": ("orbit_labels", (perms, n)),
        "orbit_labels(64 x 512, inner)": ("orbit_labels",
                                          (inner, b3.n)),
        "orbit_labels(86016 x 64, random)": ("orbit_labels", (many, 64)),
        "closure_subgroup(2187)": ("closure_subgroup", (big.mul, seeds)),
    }


def run_worker(repeats):
    from orbitforge import _kernels

    results = {"path": "numba" if _kernels.HAS_NUMBA else "numpy",
               "timings_ms": {}}
    for name, (fn_name, args) in _workloads().items():
        fn = getattr(_kernels, fn_name)
        fn(*args)                      # warm any JIT compilation
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        results["timings_ms"][name] = statistics.median(times) * 1000
    return results


def _worker(flag, repeats):
    env = dict(os.environ, ORBITFORGE_PURE_NUMPY=flag)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         str(repeats)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_driver(repeats):
    slow = _worker("1", repeats)
    print("median of %d runs per workload" % repeats)
    if importlib.util.find_spec("numba") is None:
        print("numba is not installed: numpy path only")
        print("%-34s %12s" % ("workload", "numpy ms"))
        for name, ms in slow["timings_ms"].items():
            print("%-34s %12.3f" % (name, ms))
        return
    fast = _worker("0", repeats)
    hdr = "%-34s %12s %12s %9s" % ("workload", fast["path"] + " ms",
                                   slow["path"] + " ms", "ratio")
    print(hdr)
    print("-" * len(hdr))
    for name in fast["timings_ms"]:
        a = fast["timings_ms"][name]
        b = slow["timings_ms"][name]
        ratio = b / a if a > 0 else float("inf")
        print("%-34s %12.3f %12.3f %8.1fx" % (name, a, b, ratio))


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        print(json.dumps(run_worker(int(sys.argv[2]))))
    else:
        reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
        run_driver(reps)
