"""Run the benchmark on several seeds and report each end-to-end
metric's median and quartile spread (distance between the first and
third quartile, as a share of the median) against its bound.

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]

Every run's result line and the lines printed before it (raw times,
paces) are appended to --log (JSON lines) if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", default=None)
    args = ap.parse_args()
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        res = json.loads(last)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "exit": proc.returncode, "result": res,
                                     "notes": proc.stdout.splitlines()[:-1]}) + "\n")
        if proc.returncode != 0 or not res.get("correct"):
            sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
            sys.exit("seed %d failed" % seed)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, m["value"]) for k, m in res["metrics"].items())),
            flush=True)
    if args.trace:
        return
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print("%-14s median %.6g  spread %.4f  bound %.2f  (%s)" % (
            name, med, share, bounds[name],
            "ok" if share < bounds[name] / 3 else "WIDE"))


if __name__ == "__main__":
    main()
