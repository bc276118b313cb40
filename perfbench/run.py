"""Claim-battery benchmark for orbitforge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (claims and known answers in workloads.py): table-battery,
iso-search, aut-oracle, linear-certs.  Every battery runs in a fresh
process (child.py): one client, closed loop, the next claim starts only
after the previous verdict.  The seed only permutes the claim order.
Batteries repeat while the next one is expected to end within
``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the claims'
own times from first claim to last verdict, median over batteries),
``setup_s`` (spawn to ``import orbitforge`` done, median over dedicated
set-up processes) and ``peak_rss_mb`` (each child's own RUSAGE_SELF
peak, median over batteries).

Both times are given at the nominal host pace.  The host is shared:
the same battery takes up to half again as long when neighbours load
it, and that load shifts over minutes, so raw times of runs a few
minutes apart differ by more than any bound worth setting.  Each child
times ``pace_ms()``, a fixed piece of work outside orbitforge, before
every claim and after the last one; a battery's time is scaled by
PACE_NOMINAL_MS over the median of its paces, and a set-up time by
PACE_NOMINAL_MS over the median of three paces taken after the import.
A change to orbitforge moves the claims' times but not the pace.  The
raw medians and the paces are printed beside the metrics.

``--trace 1`` runs untraced and traced batteries in pairs with the same
claim order, checks that their reports agree byte for byte once
``wall_ms`` is stripped, and prints the per-layer metrics of spans.py
(medians over the traced batteries, raw ms) with ``trace.overhead_s``
(traced minus untraced median ``wall_s``, at the nominal pace).

A claim fails when it raises, exits nonzero, hits a cap, disagrees with
a known answer, or its report (``wall_ms`` stripped) differs from
``answers/<workload>.jsonl``; ``--freeze`` rewrites that file from one
battery whose claims all pass the known-answer checks.  Failed claims
are counted in ``failed`` and make the run exit 1.

Children run with ORBITFORGE_PURE_NUMPY=1, and the run refuses to
measure if numba is live anyway: every number is for the numpy kernel
path.  Children also run with PYTHONHASHSEED=0 and are given paths
relative to the checkout, so their set and dict layouts, and with them
allocation and collection timing, do not change between processes or
checkouts.  The last stdout line is the JSON result; the lines before it
give the environment stamp and each metric with its unit.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
ANSWERS = os.path.join(HERE, "answers")
sys.path.insert(0, HERE)

from spans import CLAIM_SPAN, COUNTS, SELF_MS  # noqa: E402
from workloads import WORKLOADS, check_semantics  # noqa: E402

SETUP_SPAWNS = 9        # measured set-up processes, after one warm-up
CHILD_TIMEOUT_S = 150
# pace_ms() of child.py on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest
PACE_NOMINAL_MS = 35.0

COUNT_UNITS = {k: "MB" if k.endswith("_mb") else "count" for k in COUNTS}


class BenchError(Exception):
    """The benchmark cannot measure in this checkout."""


def spawn(workload, order, trace):
    """Run child.py once; its JSON result, or None if it crashed."""
    env = dict(os.environ, ORBITFORGE_PURE_NUMPY="1", PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.relpath(CHILD, ROOT), ".", workload, order,
         trace, repr(t_spawn)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write("child exited %d:\n%s\n"
                         % (proc.returncode, proc.stderr[-2000:]))
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def load_answers(workload):
    path = os.path.join(ANSWERS, workload + ".jsonl")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return {json.loads(line)["claim_id"]: line.rstrip("\n") for line in fh}


def check_battery(battery, claims, answers):
    """(stripped report text per claim id, [(claim id, problem)])."""
    if battery is None:
        return {}, [(cid, "child process failed") for cid, _, _ in claims]
    texts, failed = {}, []
    for row in battery["claims"]:
        cid = row["id"]
        if "error" in row:
            failed.append((cid, row["error"]))
            continue
        rep = dict(row["report"])
        rep.pop("wall_ms", None)
        texts[cid] = json.dumps(rep)
        problems = check_semantics(rep)
        if rep.get("claim_id") != cid:
            problems.append("claim id %r" % rep.get("claim_id"))
        if answers is not None and answers.get(cid) != texts[cid]:
            problems.append("report differs from answers/*.jsonl")
        if problems:
            failed.append((cid, "; ".join(problems)))
    return texts, failed


def tail(samples):
    """Median and the highest percentile with at least ten samples
    beyond it, as text."""
    n = len(samples)
    out = "median %.4g" % statistics.median(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            qs = statistics.quantiles(samples, n=100, method="inclusive")
            out += ", p%d %.4g" % (p, qs[p - 1])
            break
    return out + " (%d samples)" % n


def paced(seconds, paces):
    """Seconds at the nominal pace, given the paces measured with them."""
    return seconds * PACE_NOMINAL_MS / statistics.median(paces)


def stamp_kernel_path(env):
    if env["HAS_NUMBA"]:
        raise BenchError("numba kernels are live; this benchmark only "
                         "measures the numpy path")
    return dict(env, kernel_path="numpy", commit=git_commit())


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.claims = WORKLOADS[workload]
        self.answers = load_answers(workload)
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.attempted = 0
        self.failures = []

    def order(self):
        idx = list(range(len(self.claims)))
        self.rng.shuffle(idx)
        return ",".join(map(str, idx))

    def battery(self, order, trace):
        res = spawn(self.workload, order, trace)
        texts, failed = check_battery(res, self.claims, self.answers)
        self.attempted += len(self.claims)
        self.failures += failed
        return res, "\n".join(texts[k] for k in sorted(texts))

    def repeat(self, step):
        """Call step() while the next call is expected to end in time."""
        t0 = time.perf_counter()
        while True:
            t1 = time.perf_counter()
            step()
            now = time.perf_counter()
            if now - t0 + (now - t1) > self.seconds:
                return

    def end_to_end(self):
        setups, raw_setups = [], []
        for i in range(1 + SETUP_SPAWNS):
            res = spawn(self.workload, "setup", "0")
            if res is None:
                raise BenchError("orbitforge does not import")
            if i:
                raw_setups.append(res["setup_s"])
                setups.append(paced(res["setup_s"], res["pace_ms"]))
        env = stamp_kernel_path(res["env"])
        runs = []
        self.repeat(lambda: runs.append(self.battery(self.order(), "0")[0]))
        runs = [r for r in runs if r is not None]
        if not runs:
            raise BenchError("no battery completed")
        walls = [paced(r["wall_s"], r["pace_ms"]) for r in runs]
        paces = [p for r in runs for p in r["pace_ms"]]
        notes = ["wall_s: %s" % tail(walls),
                 "raw wall_s: %s" % tail([r["wall_s"] for r in runs]),
                 "raw claim_ms: %s" % tail(
                     [row["ms"] for r in runs for row in r["claims"]]),
                 "pace_ms: %s, nominal %g" % (tail(paces), PACE_NOMINAL_MS),
                 "setup_s: %s" % tail(setups),
                 "raw setup_s: %s" % tail(raw_setups)]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
        return env, metrics, notes

    def per_layer(self):
        plain, traced = [], []

        def pair():
            order = self.order()
            a, text_a = self.battery(order, "0")
            b, text_b = self.battery(order, "1")
            if a is None or b is None:
                return
            if text_a != text_b:
                self.failures.append(("*", "traced reports differ from untraced"))
            plain.append(a)
            traced.append(b)

        self.repeat(pair)
        if not traced:
            raise BenchError("no traced battery completed")
        env = stamp_kernel_path(traced[0]["env"])
        metrics = {}
        for name in SELF_MS:
            metrics[name + "_ms"] = (
                statistics.median(t["self_ms"][name] for t in traced), "ms")
        for name in COUNTS:
            metrics[name] = (
                statistics.median(t["counts"][name] for t in traced),
                COUNT_UNITS[name])
        metrics["trace.overhead_s"] = (
            statistics.median(paced(t["wall_s"], t["pace_ms"]) for t in traced)
            - statistics.median(paced(p["wall_s"], p["pace_ms"]) for p in plain),
            "s")
        metrics["trace.unspanned_ms"] = (statistics.median(
            t["wall_s"] * 1000 - sum(t["self_ms"].values()) for t in traced), "ms")
        notes = ["spanned: %s" % ", ".join(traced[0]["spanned"]),
                 "traced batteries: %d; %s self time is the benchmark's claim "
                 "call outside every layer span" % (len(traced), CLAIM_SPAN)]
        return env, metrics, notes


def freeze(workload):
    """Rewrite answers/<workload>.jsonl from one battery in stock order."""
    claims = WORKLOADS[workload]
    res = spawn(workload, ",".join(map(str, range(len(claims)))), "0")
    texts, failed = check_battery(res, claims, None)
    if failed:
        raise BenchError("not freezing, claims fail: %s" % failed)
    os.makedirs(ANSWERS, exist_ok=True)
    with open(os.path.join(ANSWERS, workload + ".jsonl"), "w") as fh:
        for cid in sorted(texts):
            fh.write(texts[cid] + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true",
                    help="rewrite answers/WORKLOAD.jsonl and exit")
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "orbitforge", "__init__.py")):
            raise BenchError("no src/orbitforge beside perfbench/")
        if args.freeze:
            freeze(args.workload)
            return 0
        run = Run(args.workload, args.seed, args.seconds)
        env, metrics, notes = (run.per_layer() if args.trace
                               else run.end_to_end())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    print("env: %s" % json.dumps(env, sort_keys=True))
    print("workload: %s, seed %d, %d claims attempted, claims_failed %d "
          "(ratio %.4g)" % (args.workload, args.seed, run.attempted,
                            len(run.failures),
                            len(run.failures) / max(run.attempted, 1)))
    for cid, why in run.failures:
        print("FAILED %s: %s" % (cid, why))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
