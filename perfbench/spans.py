"""Spans around orbitforge's public functions, installed from outside.

Modules bind each other's functions with ``from ... import``, so a
function is replaced in every loaded ``orbitforge`` namespace that holds
it; methods are replaced on their class.  A span records name, start,
end and parent; spans stay in memory until ``summary``.  A layer's self
time is the duration of its spans minus that of their child spans.
Counts come from arguments and return values only.  Per-element helpers
(``_mat_key``, field arithmetic) are not wrapped: their time counts in
the caller's self time.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(a):
    return int(np.shape(a)[0]) if np.ndim(a) else 0


def _count_map_search(c, args, out):
    c["verify_suite.map_search_nodes"] += out["nodes"]


def _count_build(c, args, out):
    c["constructions.builds"] += 1
    c["constructions.table_mb"] += 8 * out.group.n ** 2 / 1e6


def _count_lattice(c, args, out):
    c["group_engine.subgroups_found"] += len(out)


def _count_iso(c, args, out):
    c["group_engine.iso_calls"] += 1
    c["group_engine.iso_found"] += out is not None


def _count_aut_enum(c, args, out):
    c["group_engine.auts_listed"] += len(out)


def _count_holomorph(c, args, out):
    G = args[0]
    auts = len(args[1]) if len(args) > 1 and args[1] is not None else 0
    c["orbit_machine.holomorph_pair_mb"] += 8 * (G.n + auts) * G.n ** 2 / 1e6


def _count_closure(c, args, out):
    c["hering.closure_elems"] += len(out)


def _count_orbit_labels(c, args, out):
    c["kernels.orbit_labels_calls"] += 1
    c["kernels.orbit_labels_mb"] += 8 * np.size(args[0]) / 1e6


def _count_hom_table(c, args, out):
    c["kernels.hom_check_calls"] += 1
    c["kernels.hom_check_cells"] += _rows(args[0]) ** 2


def _count_hom_batch(c, args, out):
    c["kernels.hom_check_calls"] += 1
    c["kernels.hom_check_cells"] += _rows(args[1]) * _rows(args[0]) ** 2


def _counter(key):
    def count(c, args, out):
        c[key] += 1
    return count


_BUILDERS = ("line1_abelian", "line2_frobenius", "suzuki_A", "suzuki_B",
             "dornhoff_P", "heisenberg_trace", "sl3_pair", "gl3_tower",
             "extraspecial2")
_VERIFIERS = ("verify_table_line", "verify_gfgf_iso", "verify_irredundant",
              "verify_four_orbit", "verify_hering")

# (module, function or Class.method, span name, counter or None)
SPANNED = (
    [("verify_suite", f, "verify_suite.claim", _counter("verify_suite.claims"))
     for f in _VERIFIERS]
    + [("verify_suite", "special2_map_search", "verify_suite.map_search",
        _count_map_search)]
    + [("constructions", f, "constructions.build", _count_build)
       for f in _BUILDERS]
    + [
        ("group_engine", "FiniteGroup.__init__", "group_engine.validate",
         _counter("group_engine.groups_built")),
        ("group_engine", "characteristic_core", "group_engine.core", None),
        ("group_engine", "FiniteGroup.all_subgroups", "group_engine.lattice",
         _count_lattice),
        ("group_engine", "find_isomorphism", "group_engine.iso", _count_iso),
        ("group_engine", "all_automorphisms", "group_engine.aut_enum",
         _count_aut_enum),
        ("orbit_machine", "omega_exact", "orbit_machine.omega", None),
        ("orbit_machine", "central_automorphisms", "orbit_machine.caut", None),
        ("orbit_machine", "induced_pair", "orbit_machine.induced", None),
        ("orbit_machine", "verify_automorphism", "orbit_machine.verify_aut",
         _counter("orbit_machine.verify_aut_calls")),
        ("orbit_machine", "holomorph_rank", "orbit_machine.holomorph",
         _count_holomorph),
        ("hering", "matrix_closure", "hering.closure", _count_closure),
        ("hering", "solvable_residual", "hering.residual", None),
        ("hering", "transitive_on_nonzero", "hering.transitive", None),
        ("hering", "gammaL1_gens", "hering.gens", None),
        ("hering", "sp_gens", "hering.gens", None),
        ("hering", "sl_gens", "hering.gens", None),
        ("hering", "sl2_5_search", "hering.gens", None),
        ("_kernels", "orbit_labels", "kernels.orbit_labels",
         _count_orbit_labels),
        ("_kernels", "closure_subgroup", "kernels.closure",
         _counter("kernels.closure_calls")),
        ("_kernels", "hom_table_ok", "kernels.hom_check", _count_hom_table),
        ("_kernels", "hom_ok_batch", "kernels.hom_check", _count_hom_batch),
    ]
)

# the root span the benchmark opens around each claim call
CLAIM_SPAN = "bench.claim"

SELF_MS = sorted({name for _, _, name, _ in SPANNED} | {CLAIM_SPAN})
COUNTS = sorted({
    "verify_suite.claims", "verify_suite.map_search_nodes",
    "constructions.builds", "constructions.table_mb",
    "group_engine.groups_built", "group_engine.subgroups_found",
    "group_engine.iso_calls", "group_engine.iso_found",
    "group_engine.auts_listed", "orbit_machine.verify_aut_calls",
    "orbit_machine.holomorph_pair_mb", "hering.closure_elems",
    "kernels.orbit_labels_calls", "kernels.orbit_labels_mb",
    "kernels.closure_calls", "kernels.hom_check_calls",
    "kernels.hom_check_cells",
})


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)

    def span(self, name, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out
        return wrapper

    def install(self):
        """Wrap every function of SPANNED that this version of the
        program still has; returns the names that were found."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "orbitforge" or k.startswith("orbitforge."))]
        found = []
        for mod, attr, name, count in SPANNED:
            home = sys.modules.get("orbitforge." + mod)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            orig = getattr(owner, meth, None)
            if orig is None:
                continue
            wrapped = self.span(name, orig, count)
            if owner_name:
                setattr(owner, meth, wrapped)
            else:
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
            found.append("%s.%s" % (mod, attr))
        return found

    def summary(self):
        """Self milliseconds per span name, and the counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ms = dict.fromkeys(SELF_MS, 0.0)
        for (name, t0, t1, _), kids in zip(self.spans, child):
            self_ms[name] += (t1 - t0 - kids) * 1000
        counts = {k: self.counts.get(k, 0) for k in COUNTS}
        return self_ms, counts
