"""Claim verification pipelines: construct a family instance, run the
two-sided orbit count, check the structural side conditions, and emit a
fixed-schema report dict."""

import time

import numpy as np

from . import constructions as cons
from . import hering
from . import linalg_mod as lm
from ._kernels import BLOCK_CELLS
from .gf_arith import element_of_order, field_create, prime_power, \
    subfield_embed, trace_table
from .group_engine import ISO_CAP, _invariant_screen, \
    characteristic_core, find_isomorphism
from .orbit_machine import central_automorphisms, induced_pair, \
    linear_split, omega_exact

MAP_SEARCH_NODE_CAP = 2_000_000

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


# ------------------------------------------------------ report assembly

def _py(x):
    """Recursively convert numpy scalars and arrays for JSON emission."""
    if isinstance(x, dict):
        return {k: _py(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_py(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_py(v) for v in x.tolist()]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _report(claim_id, anchor, params, status, *, omega=None, lengths=None,
            orders=None, subgroups=None, induced=None, witnesses=None,
            wall_ms=0):
    rep = {
        "claim_id": claim_id,
        "anchor": anchor,
        "params": params,
        "status": status,
        "omega": omega,
        "orbit_lengths": lengths,
        "orbit_orders": orders,
        "subgroup_orders": subgroups,
        "induced": induced,
    }
    if witnesses is not None:
        rep["witnesses"] = witnesses
    rep["wall_ms"] = int(wall_ms)
    return _py(rep)


def _omega_dict(om):
    d = {"lower": int(om["lower"]), "upper": int(om["upper"])}
    if om["exact"] is not None:
        d["exact"] = int(om["exact"])
    return d


def _induced_dict(ind):
    return {"A_order": int(ind["A_order"]), "B_order": int(ind["B_order"]),
            "A_transitive": bool(ind["A_transitive"]),
            "B_transitive": bool(ind["B_transitive"])}


def _subgroup_sizes(core):
    return {
        "Z": len(core["center"]),
        "Gprime": len(core["derived"]),
        "Phi": None if core["frattini"] is None else len(core["frattini"]),
        "N": None if core["N"] is None else len(core["N"]),
    }


def _caut_or_none(G):
    try:
        return central_automorphisms(G)[0]
    except ValueError:
        return None


def _status(om, k, *, facts, pins, witnesses=()):
    """Refuted only when the bounds exclude k, a fact about G fails, or
    an orbit pin fails while omega is exactly k (the orbits are then the
    Aut-orbits); verified when omega is exactly k and all checks hold;
    otherwise inconclusive, also for a failed witness, a property of the
    supplied automorphisms that Aut(G) as a whole may still have."""
    if om["lower"] > k or om["upper"] < k or not all(facts):
        return REFUTED
    if om["exact"] != k:
        return INCONCLUSIVE
    if not all(pins):
        return REFUTED
    return VERIFIED if all(witnesses) else INCONCLUSIVE


def _proof_status(proofs, evidence=(), controls=()):
    """Verdict of a claim settled by exact checks.  A proof decides the
    claim either way: an isomorphism search run to the end.  Evidence
    proves the claim when it holds (an explicit map, distinct center
    orders), but its failure leaves the claim open.  A control checks
    the checker, so its failure is an internal fault."""
    if not all(controls):
        raise AssertionError("a positive control failed")
    if not all(proofs):
        return REFUTED
    return VERIFIED if all(evidence) else INCONCLUSIVE


def _reject_unknown(params, names, what):
    extra = set(params) - set(names)
    if extra:
        raise ValueError("unknown parameters for %s: %s"
                         % (what, sorted(extra)))


def _param_str(params):
    return ",".join("%s=%s" % (k, v) for k, v in params.items())


# ------------------------------------------------------- table lines

# catalog line -> (family, parameters held at the family default and left
# out of the claim): a line-2 claim is the ell = d = 1 case
LINES = {1: ("line1", ()), 2: ("line2", ("ell", "d")), 3: ("suzukiA", ()),
         4: ("suzukiB", ()), 5: ("dornhoff", ()), 6: ("sl3", ()),
         7: ("heisenberg", ())}


def line_params(line):
    """The parameters a line's claim takes and reports, in report order."""
    family, held = LINES[line]
    return tuple(k for k in cons.family_params(family) if k not in held)


# side conditions about the supplied automorphisms, not about G alone
_ACTING_SET_CHECKS = ("orbit_lengths_formula", "A_transitive",
                      "B_transitive")


def verify_table_line(line, params, *, cap=None):
    """Three-orbit check for one table line at the given parameters."""
    t0 = time.perf_counter()
    if line not in LINES:
        raise ValueError("line must be 1..7")
    names = line_params(line)
    _reject_unknown(params, names, "line %d" % line)
    inst, prm = cons.build(LINES[line][0], params, cap)
    params = {k: prm[k] for k in names}
    G = inst.group
    meta = inst.meta
    if line == 2 and meta["q"] != params["p"] ** (params["r"] - 1):
        raise AssertionError("scalar field is not p^(r-1)")
    core = characteristic_core(G)
    caut = _caut_or_none(G)
    om = omega_exact(G, inst.acts, caut=caut)
    expect = [1, meta["W_order"] - 1,
              meta["W_order"] * (meta["V_order"] - 1)]
    sizes = _subgroup_sizes(core)
    ind = induced_pair(G, core["N"], inst.acts)

    checks = {}
    checks["orbit_lengths_formula"] = om["report"]["lengths"] == expect
    checks["N_order"] = sizes["N"] == meta["W_order"]
    checks["A_transitive"] = ind["A_transitive"]
    checks["B_transitive"] = ind["B_transitive"]
    if line == 2:
        # not nilpotent: N coincides with the derived subgroup and the
        # Frattini subgroup sits inside it
        checks["N_is_derived"] = np.array_equal(core["derived"], core["N"])
        checks["frattini_inside_N"] = bool(
            np.isin(core["frattini"], core["N"], kind="table").all())
    elif line == 1:
        checks["N_is_frattini"] = np.array_equal(core["frattini"], core["N"])
        checks["m_ge_n"] = meta["m_dim"] >= meta["n_dim"]
    else:
        same = (np.array_equal(core["center"], core["N"])
                and np.array_equal(core["derived"], core["N"])
                and np.array_equal(core["frattini"], core["N"]))
        checks["N_is_center_derived_frattini"] = same
        checks["m_ge_n"] = meta["m_dim"] >= meta["n_dim"]
    if line != 2:
        checks["quotient_action_determines_N_action"] = \
            ind["A_to_B_function"]
    if line in (6, 7):
        checks["exponent_p"] = G.exponent() == meta["p"]
    if line in (3, 4, 5):
        checks["element_orders_124"] = \
            set(G.orders().tolist()) == {1, 2, 4}

    status = _status(
        om, 3,
        facts=[v for k, v in checks.items() if k not in _ACTING_SET_CHECKS],
        pins=[checks["orbit_lengths_formula"]],
        witnesses=[checks["A_transitive"], checks["B_transitive"]])

    witnesses = {
        "family": inst.tag,
        "m_dim": meta["m_dim"],
        "n_dim": meta["n_dim"],
        "side_conditions": checks,
    }
    if "galois_dropped" in meta:
        witnesses["galois_dropped"] = meta["galois_dropped"]

    cid = "table-line-%d" % line
    if params:
        cid += ":" + _param_str(params)
    return _report(cid, "table-line-%d" % line, params, status,
                   omega=_omega_dict(om), lengths=om["report"]["lengths"],
                   orders=om["report"]["orders"], subgroups=sizes,
                   induced=_induced_dict(ind), witnesses=witnesses,
                   wall_ms=(time.perf_counter() - t0) * 1000)


# ---------------------------------------------- subfield tower isomorphism

def _symplectic_basis(F, gram):
    """Rows b_0..b_{d-1} with f(b_{2i}, b_{2i+1}) = 1 and all other pairs
    zero, for the nondegenerate alternating form f(u, v) = u G v^T with
    Gram matrix G.  The pool starts as the unit vectors; each round takes
    its first vector u and the first v with f(u, v) != 0, scaled to
    f(u, v) = 1, and projects the rest of the pool off <u, v>."""
    d = len(gram)
    pool = lm.identity_mat(d)
    rows = []
    while len(pool):
        u, pool = pool[:1], pool[1:]
        fu = lm.form_matrix(F, u, gram, pool)[0]
        nz = np.flatnonzero(fu)
        if not nz.size:
            raise AssertionError("degenerate block in the transported form")
        j = int(nz[0])
        v = F.mul[pool[j:j + 1], F.inv[fu[j]]]
        pool = np.delete(pool, j, axis=0)
        # w -> w - f(w, v) u, then + f(w, u) v
        pool = F.add[pool, F.neg[F.mul[lm.form_matrix(F, pool, gram, v), u]]]
        pool = F.add[pool, F.mul[lm.form_matrix(F, pool, gram, u), v]]
        rows += [u, v]
    B = np.vstack(rows)
    if not np.array_equal(lm.form_matrix(F, B, gram, B),
                          lm.standard_symplectic(F, d)):
        raise AssertionError("basis is not symplectic")
    return B


def verify_gfgf_iso(q, d, e, *, cap=None):
    """Explicit isomorphism between the 2-dimensional group over the big
    field and the d-dimensional group over the middle field, checked on
    every pair of elements, plus a blind search cross-check.

    F-linear coordinates on the big field (powers of a primitive element)
    carry F^d onto Fbig^2; there the cocycle form is Tr(y1 z2 - y2 z1),
    the trace down to F of the standard symplectic form of Fbig^2.  Its
    Gram matrix on F^d is read off the lifts of the unit vectors, and a
    symplectic basis for it rebases F^d onto the standard form."""
    t0 = time.perf_counter()
    pk = prime_power(q)
    if pk is None or pk[0] == 2:
        raise ValueError("q must be an odd prime power")
    if d % 2 or d < 2 or e < 1:
        raise ValueError("d must be even and e positive")
    cons._check_cap(q ** (d * e + 1), cap)
    p, kq = pk
    F0 = field_create(p, kq)
    F = field_create(p, kq * e)
    Fbig = field_create(p, kq * d * e // 2)
    s = d // 2
    G1 = cons.heisenberg_trace(Fbig, F0, 2, cap=cap)
    G2 = cons.heisenberg_trace(F, F0, d, cap=cap)

    # fwd[idx]: the big-field element with coordinates digits(idx) base F.q
    xi = element_of_order(Fbig, Fbig.q - 1)
    basis = np.array([Fbig.pow_elem(xi, j) for j in range(s)])
    digits = (np.arange(F.q ** s)[:, None] // F.q ** np.arange(s)) % F.q
    emb = subfield_embed(F, Fbig)
    fwd = lm.vec_batch_apply(Fbig, emb[digits], basis[:, None])[:, 0]
    if not np.array_equal(np.sort(fwd), np.arange(Fbig.q)):
        raise AssertionError("subfield coordinates are not bijective")
    back = np.empty_like(fwd)
    back[fwd] = np.arange(len(fwd))

    tr_big_mid = trace_table(Fbig, F.k)
    if not np.array_equal(trace_table(F, F0.k)[tr_big_mid],
                          trace_table(Fbig, F0.k)):
        raise AssertionError("trace tower is not transitive")

    Y = np.zeros((d, 2), dtype=np.int64)    # row i: the lift (y1, y2) of e_i
    Y[:s, 0] = Y[s:, 1] = fwd[F.q ** np.arange(s)]
    gram = tr_big_mid[lm.form_matrix(Fbig, Y, lm.standard_symplectic(Fbig, 2),
                                     Y)]
    B = _symplectic_basis(F, gram)
    Binv = lm.mat_inv(F, B)

    E1 = np.array(G1.group.elems, dtype=np.int64)
    U = np.hstack([digits[back[E1[:, 0]]], digits[back[E1[:, 1]]]])
    C = lm.vec_batch_apply(F, U, Binv)
    # G2's codes are its tuples in lexicographic order
    psi = np.ravel_multi_index(np.hstack([C, E1[:, 2:]]).T,
                               [F.q] * d + [F0.q])

    bijective = np.array_equal(np.sort(psi), np.arange(G1.group.n))
    hom = True
    step = max(1, BLOCK_CELLS // G1.group.n)
    for lo in range(0, G1.group.n, step):
        blk = slice(lo, min(lo + step, G1.group.n))
        if not np.array_equal(psi[G1.group.mul[blk]],
                              G2.group.mul[psi[blk]][:, psi]):
            hom = False
            break

    oracle = "skipped-above-cap"
    searched = []   # the exhaustive search, when it ran, is the proof
    if G1.group.n <= ISO_CAP:
        searched.append(find_isomorphism(G1.group, G2.group) is not None)
        oracle = "independent-search-agrees" if searched[0] else "disagrees"
    if bijective and hom and not all(searched):
        raise AssertionError("explicit isomorphism passes but the search "
                             "finds none")

    status = _proof_status(searched, evidence=[bijective and hom])
    params = {"q": q, "d": d, "e": e}
    witnesses = {
        "order": G1.group.n,
        "field_tower": {"base": [p, kq], "middle": [p, F.k],
                        "top": [p, Fbig.k]},
        "vector_map": "subfield coordinates then symplectic rebasing",
        "symplectic_basis": B,
        "pair_check": "all %d^2 products" % G1.group.n,
        "bijective": bijective,
        "homomorphism": hom,
        "oracle": oracle,
    }
    return _report("gfgf-iso:" + _param_str(params), "gfgf-iso", params,
                   status, witnesses=witnesses,
                   wall_ms=(time.perf_counter() - t0) * 1000)


# -------------------------------------------- squaring-map pair search

def _square_layers(G):
    """Quotient-layer and bottom-layer data of a special 2-group: the
    squaring map as an index table over bit-coordinates."""
    sp = linear_split(G)
    if sp["p"] != 2:
        raise ValueError("2-group expected")
    core = characteristic_core(G)
    for key in ("center", "derived", "frattini"):
        if not np.array_equal(core[key], core["N"]):
            raise ValueError("group is not special")
    m, n = sp["m"], sp["n"]
    wint = sp["w_coords"] @ (1 << np.arange(n, dtype=np.int64))
    rep = sp["rep_by_coords"]
    sq = G.mul[rep, rep]
    Q = wint[sp["pos_in_N"][sq]]
    if Q[0] != 0:
        raise AssertionError("identity coset squares outside the identity")
    _span_plan(Q, m, 1 << n)    # the squares generate Phi = N
    return {"m": m, "n": n, "Q": Q}


def _span_plan(Q, m, wsize):
    """For each level k, the sources x in [2^k, 2^(k+1)) whose square
    leaves span{Q(y) : y < x}, each with that span as an index array;
    at level m the span must be the whole bottom layer."""
    dom = np.zeros(1, dtype=np.int64)
    plan = [[] for _ in range(m)]
    for x in range(1, 1 << m):
        if Q[x] not in dom:
            plan[x.bit_length() - 1].append((x, dom))
            dom = np.concatenate([dom, dom ^ Q[x]])
    if len(dom) != wsize:
        raise AssertionError("squares do not span the bottom layer")
    return plan


def _within_node_cap(nodes):
    """nodes, unless it is above the map search's node cap."""
    if nodes > MAP_SEARCH_NODE_CAP:
        raise RuntimeError("search node cap %d exceeded: %d nodes"
                           % (MAP_SEARCH_NODE_CAP, nodes))
    return nodes


def special2_map_search(da, db):
    """Search for invertible linear maps (sigma on the quotient layer,
    tau on the bottom layer) with tau . Q = Q' . sigma.  One node is one
    candidate image tried for the next basis vector of sigma, with tau a
    partial linear map on the span of the squares so far (-1 elsewhere).
    The tree is walked depth first in blocks, runs of nodes of one level
    in lexicographic order, each tested in one numpy pass; so a node's
    rank on its level gives the count, and the cap's trip point, of the
    search one candidate at a time.  Every pruning step is a necessary
    condition, so found=False is a proof that no such pair exists; for
    special 2-groups that rules out any group isomorphism."""
    m, n = da["m"], da["n"]
    out = {"found": False, "nodes": 0, "fiber_match": False,
           "sigma": None, "tau": None}
    if (db["m"], db["n"]) != (m, n):
        return out
    QA, QB = da["Q"].astype(np.int64), db["Q"].astype(np.int64)
    wsize = 1 << n
    fibA, fibB = (np.bincount(Q, minlength=wsize) for Q in (QA, QB))
    out["fiber_match"] = sorted(fibA.tolist()) == sorted(fibB.tolist())
    if not out["fiber_match"]:
        return out
    fcA, fcB = fibA[QA], fibB[QB]
    plan = _span_plan(QA, m, wsize)
    bits = 1 << np.arange(n)
    C = [(1 << m) - (1 << k) for k in range(m)]     # candidates per node
    seen = [0] * m                                   # nodes expanded
    # rows per block: C cells each, times 2^n where the plan extends tau
    rows = [max(1, BLOCK_CELLS // 4 // c >> (n if p else 0))
            for c, p in zip(C, plan)]
    # a block: level, sigma and tau per node, count tried on levels above
    stack = [(0, np.zeros((1, 1), dtype=np.int64),
              np.where(np.arange(wsize) > 0, -1, 0)[None],   # tau(0) = 0
              np.zeros(1, dtype=np.int64))]
    while stack:
        k, span, T, pre = stack.pop()
        half, B = 1 << k, len(span)
        _within_node_cap(int(pre[0] + np.dot(seen[k:], C[k:])))
        mark = np.zeros((B, 1 << m), dtype=bool)
        np.put_along_axis(mark, span, True, axis=1)
        cand = np.nonzero(~mark)[1].reshape(B, C[k])
        live = np.ones((B, C[k]), dtype=bool)
        for x in range(half):
            img = span[:, x, None] ^ cand              # sigma(x | half)
            live &= fcB[img] == fcA[half + x]
            if not plan[k]:
                live &= T[:, QA[half + x], None] == QB[img]
        row, idx = live.nonzero()
        S = span[row] ^ cand[row, idx, None]
        SB, T = QB[S], T[row]
        for x, dom in plan[k]:
            T[:, dom ^ QA[x]] = T[:, dom] ^ SB[:, x - half, None]
        ok = (T[:, QA[half:2 * half]] == SB).all(axis=1)
        if k + 1 == m:
            ok &= (np.sort(T, axis=1) == np.arange(wsize)).all(axis=1)
        row, idx, T = row[ok], idx[ok], T[ok]
        span = np.concatenate([span[row], S[ok]], axis=1)
        pre = pre[row] + (seen[k] + row) * C[k] + idx + 1
        seen[k] += B
        if k + 1 < m:
            for lo in reversed(range(0, len(span), rows[k + 1])):
                hi = lo + rows[k + 1]
                stack.append((k + 1, span[lo:hi], T[lo:hi], pre[lo:hi]))
        elif len(span):
            out["nodes"] = _within_node_cap(int(pre[0]))
            tau = [int((T[0, bits] >> i & 1) @ bits) for i in range(n)]
            tmap = (np.bitwise_count(np.arange(wsize)[:, None] & tau)
                    & 1) @ bits
            if not np.array_equal(tmap[QA], QB[span[0]]):
                raise AssertionError("solved pair fails the direct check")
            out.update(found=True, sigma=span[0].copy(), tau=tau)
            return out
    out["nodes"] = _within_node_cap(int(np.dot(seen, C)))
    return out


def verify_irredundant(exhaustive=False, *, cap=None):
    """Catalog irredundancy: the positive identifications the listing
    relies on, invariant separation at coinciding orders, and the deep
    order-512 pair, plus the flag-gated order-1024 pair."""
    t0 = time.perf_counter()
    checks = []
    control = "squaring-pair-positive-control"

    def add(name, method, expected, observed, ok, **extra):
        row = {"name": name, "method": method, "expected": expected,
               "observed": observed, "ok": bool(ok)}
        row.update(extra)
        checks.append(row)

    a31 = cons.suzuki_A(3, 1, cap=cap)
    a32 = cons.suzuki_A(3, 2, cap=cap)
    phi = find_isomorphism(a31.group, a32.group)
    add("twist-vs-inverse-twist-64", "generator-image search",
        "isomorphic", "isomorphic" if phi is not None else "distinct",
        phi is not None)

    b20 = cons.suzuki_B(2, 0, cap=cap)
    b21 = cons.suzuki_B(2, 1, cap=cap)
    phi = find_isomorphism(b20.group, b21.group)
    add("epsilon-independence-64", "generator-image search",
        "isomorphic", "isomorphic" if phi is not None else "distinct",
        phi is not None)

    centers64 = {
        "line-1": len(cons.line1_abelian(2, 3, cap=cap).group.center()),
        "line-3": len(a31.group.center()),
        "line-4": len(b20.group.center()),
    }
    add("order-64-center-separation", "center orders",
        "pairwise distinct", centers64,
        len(set(centers64.values())) == len(centers64))

    centers729 = {
        "line-6": len(cons.sl3_pair((3, 1), cap=cap).group.center()),
        "line-7": len(cons.heisenberg_trace((3, 2), (3, 2), 2, cap=cap)
                      .group.center()),
    }
    add("order-729-center-separation", "center orders",
        "distinct", centers729,
        len(set(centers729.values())) == len(centers729))

    # engine control on a pair known to be isomorphic
    eng = special2_map_search(_square_layers(a31.group),
                              _square_layers(a32.group))
    add(control, "layer-map search",
        "pair found", "found" if eng["found"] else "none", eng["found"],
        nodes=eng["nodes"])

    b3 = cons.suzuki_B(3, cap=cap)
    p512 = cons.dornhoff_P(cap=cap)
    screen_same = _invariant_screen(b3.group, p512.group)
    eng = special2_map_search(_square_layers(b3.group),
                              _square_layers(p512.group))
    add("norm-512-vs-trace-512", "layer-map search",
        "no pair", "found" if eng["found"] else "none", not eng["found"],
        nodes=eng["nodes"], fiber_match=eng["fiber_match"],
        coarse_invariants_agree=bool(screen_same))

    if exhaustive:
        a51 = cons.suzuki_A(5, 1, cap=cap)
        a52 = cons.suzuki_A(5, 2, cap=cap)
        eng = special2_map_search(_square_layers(a51.group),
                                  _square_layers(a52.group))
        add("twist-vs-squared-twist-1024", "layer-map search",
            "no pair", "found" if eng["found"] else "none",
            not eng["found"], nodes=eng["nodes"],
            fiber_match=eng["fiber_match"])

    proofs = ("generator-image search", "layer-map search")
    status = _proof_status(
        [c["ok"] for c in checks
         if c["method"] in proofs and c["name"] != control],
        evidence=[c["ok"] for c in checks if c["method"] not in proofs],
        controls=[c["ok"] for c in checks if c["name"] == control])
    params = {"exhaustive": bool(exhaustive)}
    return _report("irredundant-catalog", "irredundant-catalog", params,
                   status, witnesses={"checks": checks},
                   wall_ms=(time.perf_counter() - t0) * 1000)


# ------------------------------------------------------- 4-orbit claims

q8_on_c3c3 = cons.q8_on_c3c3  # its old name, which perfbench calls


# four-orbit claim -> (family; claim parameters with their defaults;
# pinned orbit lengths, for extraspecial2 a function of the parameters)
FOUR_ORBIT = {
    "gl3-tower": ("gl3-tower", {"q": 3}, [1, 2, 78, 2106]),
    "extraspecial2": ("extraspecial2", {"k": 2, "eps": "+"}, None),
    "line2-frobenius": ("line2", {"p": 2, "r": 3, "ell": 2, "d": 1},
                        [1, 63, 128, 384]),
    "q8-c3c3": ("q8-c3c3", {}, [1, 8, 9, 54]),
}


def verify_four_orbit(family, params, *, cap=None):
    """omega = 4 verification with the frozen stratum data."""
    t0 = time.perf_counter()
    if family not in FOUR_ORBIT:
        raise ValueError("unknown 4-orbit family %r" % family)
    build_as, defaults, expect = FOUR_ORBIT[family]
    _reject_unknown(params, defaults, family)
    params = {k: type(v)(params.get(k, v)) for k, v in defaults.items()}
    if family == "gl3-tower" and params["q"] != 3:
        q = params["q"]
        raise ValueError("only q = 3 is implemented: q = %d gives order "
                         "%d^7 = %d" % (q, q, q ** 7))
    inst, _ = cons.build(build_as, {k: params[k] for k in
                                    cons.family_params(build_as)}, cap)
    G, acts = inst.group, inst.acts
    expect_orders = None
    witnesses = {}
    if family == "q8-c3c3":
        expect_orders = [1, 3, 2, 4]
        witnesses["aut_order"] = len(acts)
        witnesses["method"] = "exhaustive automorphism enumeration"
    elif family == "gl3-tower":
        witnesses["gamma_orders"] = [len(g) for g in G.gamma_series()]
        witnesses["exponent"] = G.exponent()
    elif family == "extraspecial2":
        qq = 2 ** params["k"]
        sgn = 1 if params["eps"] == "+" else -1
        expect = sorted(x for x in
                        [1, 1, qq * qq + sgn * qq - 2, qq * (qq - sgn)]
                        if x > 0)
    elif family == "line2-frobenius":
        witnesses["frattini_note"] = "beyond the subgroup-lattice cap"

    caut = _caut_or_none(G)
    om = omega_exact(G, acts, caut=caut)
    core = characteristic_core(G)
    sizes = _subgroup_sizes(core)

    pins = [om["report"]["lengths"] == expect]
    if expect_orders is not None:
        pins.append(om["report"]["orders"] == expect_orders)
    status = _status(om, len(expect), facts=[], pins=pins)

    cid = "four-orbit:%s" % family
    if params:
        cid += ":" + _param_str(params)
    anchor = "four-orbit-%s" % family
    return _report(cid, anchor, params, status, omega=_omega_dict(om),
                   lengths=om["report"]["lengths"],
                   orders=om["report"]["orders"], subgroups=sizes,
                   witnesses=witnesses or None,
                   wall_ms=(time.perf_counter() - t0) * 1000)


# ------------------------------------------------------- linear checks

# hering check -> its parameters, in report order
HERING_PARAMS = {"gammaL1": ("p", "m"), "sp": ("d", "q"), "sl": ("d", "q"),
                 "sl2-5": ("p",)}


def verify_hering(kind, params):
    """Transitivity certificates for the linear-group stacks."""
    t0 = time.perf_counter()
    if kind not in HERING_PARAMS:
        raise ValueError("unknown check %r" % kind)
    _reject_unknown(params, HERING_PARAMS[kind], kind)
    missing = [k for k in HERING_PARAMS[kind] if params.get(k) is None]
    if missing:
        raise ValueError("%s needs parameter %r" % (kind, missing[0]))
    params = {k: int(params[k]) for k in HERING_PARAMS[kind]}
    witnesses = {}
    if kind == "gammaL1":
        gens = hering.gammaL1_gens(params["p"], params["m"])
        trans = hering.transitive_on_nonzero(gens)
        witnesses["nonzero_vectors"] = params["p"] ** params["m"] - 1
        ok = trans
    elif kind == "sp":
        gens = hering.sp_gens(params["d"], params["q"])
        trans = hering.transitive_on_nonzero(gens)
        order = hering.group_order(gens)
        resid = hering.solvable_residual(gens)
        witnesses["closure_order"] = order
        witnesses["residual_order"] = resid.meta["order"]
        witnesses["perfect"] = resid.meta["perfect"]
        witnesses["nonzero_vectors"] = params["q"] ** params["d"] - 1
        ok = trans and resid.meta["perfect"] \
            and resid.meta["order"] == order
    elif kind == "sl":
        gens = hering.sl_gens(params["d"], params["q"])
        trans = hering.transitive_on_nonzero(gens)
        witnesses["closure_order"] = hering.group_order(gens)
        witnesses["nonzero_vectors"] = params["q"] ** params["d"] - 1
        ok = trans
    elif kind == "sl2-5":
        gens = hering.sl2_5_search(params["p"])
        trans = hering.transitive_on_nonzero(gens)
        witnesses["order"] = gens.meta["order"]
        witnesses["nonzero_vectors"] = params["p"] ** 2 - 1
        ok = trans and gens.meta["order"] == 120
    witnesses["transitive"] = bool(trans)
    status = VERIFIED if ok else REFUTED
    cid = "hering:%s:%s" % (kind, _param_str(params))
    return _report(cid, "hering-%s" % kind, params, status,
                   witnesses=witnesses,
                   wall_ms=(time.perf_counter() - t0) * 1000)


# ------------------------------------------------------------ batteries

def table_battery():
    """Every line at minimal parameters plus one larger instance per
    line where the caps allow it."""
    return [
        (1, {"p": 2, "n": 1}), (1, {"p": 3, "n": 1}), (1, {"p": 2, "n": 2}),
        (2, {"p": 2, "r": 3}), (2, {"p": 3, "r": 2}), (2, {"p": 2, "r": 5}),
        (3, {"n": 3, "theta": 1}), (3, {"n": 5, "theta": 1}),
        (4, {"n": 1}), (4, {"n": 2}), (4, {"n": 3}),
        (5, {}),
        (6, {"q": 3}),
        (7, {"p": 3, "m": 2, "n": 1, "b": 1}),
        (7, {"p": 5, "m": 2, "n": 1, "b": 1}),
        (7, {"p": 3, "m": 4, "n": 2, "b": 2}),
    ]


def four_orbit_battery():
    return [
        ("gl3-tower", {"q": 3}),
        ("extraspecial2", {"k": 2, "eps": "+"}),
        ("extraspecial2", {"k": 2, "eps": "-"}),
        ("line2-frobenius", {"p": 2, "r": 3, "ell": 2, "d": 1}),
        ("q8-c3c3", {}),
    ]


def gfgf_battery():
    return [(3, 2, 1), (3, 4, 1), (3, 2, 2)]


def hering_battery():
    return [
        ("gammaL1", {"p": 2, "m": 3}), ("gammaL1", {"p": 2, "m": 4}),
        ("gammaL1", {"p": 2, "m": 6}), ("gammaL1", {"p": 3, "m": 2}),
        ("sp", {"d": 4, "q": 3}), ("sl", {"d": 3, "q": 3}),
        ("sl2-5", {"p": 11}),
    ]


def run_job(job, cap=None):
    """Dispatch one (kind, *args) claim job to its verifier; cap is the
    table-byte cap of every construction (None for the default)."""
    kind = job[0]
    if kind == "line":
        return verify_table_line(job[1], job[2], cap=cap)
    if kind == "gfgf":
        return verify_gfgf_iso(job[1], job[2], job[3], cap=cap)
    if kind == "irredundant":
        return verify_irredundant(job[1], cap=cap)
    if kind == "four":
        return verify_four_orbit(job[1], job[2], cap=cap)
    if kind == "hering":
        return verify_hering(job[1], job[2])
    raise ValueError("unknown job kind %r" % kind)
