"""One fresh process: import orbitforge, then run one battery's claims in
the given order, one at a time, and print a JSON result line.

    python3 child.py ROOT WORKLOAD ORDER TRACE T_SPAWN

ORDER is a comma list of claim indices, or ``setup`` to stop after the
import.  T_SPAWN is the parent's ``time.perf_counter()`` just before the
spawn (the clock is system-wide), so ``setup_s`` runs from spawn to
``import orbitforge`` done.  ``peak_rss_mb`` is this process's own
``RUSAGE_SELF`` peak.

``pace_ms()``, a fixed piece of work that uses no orbitforge code, is
timed before each claim and after the last one; run.py scales the
battery's time by how fast the host ran it (see there).  Set-up
processes time it three times after the import.  A first, untimed call
pays for first-use costs.

Each claim starts from a collected heap, as a fresh CLI call would: a
full ``gc.collect()`` runs before it, outside its timing.  Otherwise
when the cyclic garbage of earlier claims is freed depends on how many
objects the interpreter allocated before the first claim (the
environment's size shifts it), and with it the peak RSS.  ``wall_s`` is
the sum of the claims' own times.
"""

import gc
import os
import sys
import time

root, workload, order, trace_flag, t_spawn = sys.argv[1:6]
sys.path.insert(0, os.path.join(root, "src"))
import orbitforge  # noqa: E402
from orbitforge import cli  # noqa: E402

t_ready = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import CLAIM_SPAN, Tracer  # noqa: E402
from workloads import HOLOMORPH_MAX_ORDER, ORACLE_GROUPS, WORKLOADS  # noqa: E402


def env_stamp():
    from orbitforge import _kernels
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "HAS_NUMBA": bool(_kernels.HAS_NUMBA),
        "ORBITFORGE_PURE_NUMPY": os.environ.get("ORBITFORGE_PURE_NUMPY"),
        "orbitforge": os.path.relpath(os.path.dirname(orbitforge.__file__), root),
    }


# pace_ms() data, built once: bytes keys looked up in a scrambled order
# and int64 arrays worked in place, about 8 MB in all (past the L2
# cache, as orbitforge's tables and closures are).  The pace allocates
# nothing, so the heap a claim leaves behind cannot change it.
_PACE_N = 1 << 15
_PACE_KEYS = [((i * 2654435761) & 0xFFFFFFFF).to_bytes(8, "little")
              for i in range(_PACE_N)]
_PACE_DICT = {k: i for i, k in enumerate(_PACE_KEYS)}
_PACE_KEYS = [_PACE_KEYS[i * 40503 % _PACE_N] for i in range(_PACE_N)]
_PACE_A = np.arange(1 << 18, dtype=np.int64)
_PACE_B = np.empty_like(_PACE_A)


def pace_ms():
    """Time a fixed mix of dict lookups by bytes key and numpy int64
    array work, the two kinds orbitforge spends its time in, in ms: how
    fast the shared host runs at this moment."""
    t0 = time.perf_counter()
    d, total = _PACE_DICT, 0
    for _ in range(4):
        for k in _PACE_KEYS:
            total += d[k]
    for _ in range(8):
        np.multiply(_PACE_A, 2654435761, out=_PACE_B)
        np.remainder(_PACE_B, 1000003, out=_PACE_B)
        np.add(_PACE_B, _PACE_A, out=_PACE_B)
    return (time.perf_counter() - t0) * 1000


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    lines = buf.getvalue().splitlines()
    if code != 0 or len(lines) != 1:
        raise RuntimeError("exit code %d with %d report lines" % (code, len(lines)))
    return json.loads(lines[0])


def run_oracle(tag):
    from orbitforge import constructions as cons
    from orbitforge import orbit_machine as om
    from orbitforge import verify_suite as vs
    ctor, args, _ = ORACLE_GROUPS[tag]
    if ctor is None:
        G = vs.q8_on_c3c3()
    else:
        inst = getattr(cons, ctor)(*args)
        G = inst.group
    aut = om.brute_force_aut(G)
    count = om.orbits(G, aut)["count"]
    if ctor is None:
        omega = om.omega_exact(G, aut, inner=False)
    else:
        try:
            caut = om.central_automorphisms(G)[0]
        except ValueError:
            caut = None
        omega = om.omega_exact(G, inst.acts, caut=caut)
    holo = om.holomorph_rank(G, aut) if G.n <= HOLOMORPH_MAX_ORDER else None
    bounds = {"lower": int(omega["lower"]), "upper": int(omega["upper"])}
    if omega["exact"] is not None:
        bounds["exact"] = int(omega["exact"])
    return {"claim_id": "aut-oracle:" + tag, "order": int(G.n),
            "aut_order": len(aut), "aut_orbits": int(count), "omega": bounds,
            "holomorph_rank": None if holo is None else int(holo)}


def run_claim(kind, arg):
    return run_cli(arg) if kind == "cli" else run_oracle(arg)


def main():
    result = {"setup_s": t_ready - float(t_spawn), "env": env_stamp()}
    if order != "setup":
        claims = WORKLOADS[workload]
        tracer = Tracer() if trace_flag == "1" else None
        call = run_claim
        if tracer is not None:
            result["spanned"] = tracer.install()
            call = tracer.span(CLAIM_SPAN, run_claim)
        pace_ms()  # warm-up: the first call pays for first-use costs
        rows, paces = [], []
        for i in map(int, order.split(",")):
            cid, kind, arg = claims[i]
            gc.collect()
            paces.append(pace_ms())
            t0 = time.perf_counter()
            try:
                rows.append({"id": cid, "report": call(kind, arg)})
            except Exception as exc:  # one failed claim; the others still report
                rows.append({"id": cid, "error": "%s: %s" % (type(exc).__name__, exc)})
            rows[-1]["ms"] = (time.perf_counter() - t0) * 1000
        gc.collect()
        paces.append(pace_ms())
        result["wall_s"] = sum(row["ms"] for row in rows) / 1000
        result["claims"] = rows
        result["pace_ms"] = paces
        if tracer is not None:
            result["self_ms"], result["counts"] = tracer.summary()
    else:
        result["pace_ms"] = [pace_ms() for _ in range(4)][1:]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    sys.stdout.write(json.dumps(result) + "\n")


main()
