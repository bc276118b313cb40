"""Orbit computation under verified automorphism sets.

The two-sided strategy: a lower bound for the number of Aut-orbits comes
from a fixed invariant feature partition (element order, class size,
membership in the characteristic subgroups); an upper bound comes from
counting orbits under an explicitly verified set of automorphisms.  When
the two meet, the orbit count is exact; otherwise both bounds are
reported and nothing is guessed.
"""

import math

import numpy as np

from ._kernels import BLOCK_CELLS, orbit_labels, transitive_off
from .gf_arith import prime_power
from .group_engine import (automorphism_group, characteristic_core,
                           is_isomorphism)
from .permgroup import PermGroup

HOLOMORPH_CAP = 64


class AutomorphismSet:
    """A list of verified automorphism permutations of a group.  With
    `order`, the rows generate a group of that order, and len() is it."""

    def __init__(self, G, perms, *, verify=True, order=None):
        self.group, self.order = G, order
        perms = np.ascontiguousarray(np.asarray(perms, dtype=np.int64))
        self.perms = perms.reshape(len(perms), G.n) if len(perms) else \
            np.empty((0, G.n), dtype=np.int64)
        if verify:
            bad = np.flatnonzero(~is_isomorphism(G, G, self.perms))
            if len(bad):
                raise ValueError(f"perm {bad[0]} is not an automorphism")

    def __len__(self):
        return len(self.perms) if self.order is None else self.order

    def extended(self, other):
        """New set combining these perms with another verified set's;
        the rows are a list again, with no order."""
        if other.group is not self.group:
            raise ValueError("automorphism sets belong to different groups")
        combined = np.concatenate([self.perms, other.perms])
        out = AutomorphismSet(self.group, combined, verify=False)
        return out


def verify_automorphism(G, perm):
    """One map of G's n indices, proved an automorphism by
    is_isomorphism."""
    perm = np.asarray(perm, dtype=np.int64)
    return perm.shape == (G.n,) and bool(is_isomorphism(G, G, perm)[0])


def inner_automorphisms(G):
    """Conjugations by a generating sequence (enough for orbit purposes)."""
    perms = G.conjugation_perm(G.generating_sequence())
    return AutomorphismSet(G, perms, verify=False)


def orbits(G, acts):
    """OrbitReport under the group generated by the given automorphisms."""
    n = G.n
    labels = orbit_labels(acts.perms, n)
    orders = G.orders()
    # each orbit is labelled by its least index
    reps = np.flatnonzero(labels == np.arange(n))
    rows = []
    for rep in reps:
        members = np.nonzero(labels == rep)[0]
        o = orders[members]
        if (o != o[0]).any():
            raise AssertionError("element order not constant on an orbit")
        rows.append({"rep": int(rep), "length": int(len(members)),
                     "order": int(o[0])})
    rows.sort(key=lambda r: (r["length"], r["rep"]))
    if int(np.sum(labels == labels[G.e])) != 1:
        raise AssertionError("identity does not sit in its own orbit")
    if sum(r["length"] for r in rows) != n:
        raise AssertionError("orbit lengths do not sum to |G|")
    return {
        "labels": labels,
        "orbits": rows,
        "lengths": [r["length"] for r in rows],
        "orders": [r["order"] for r in rows],
        "count": len(rows),
    }


def _membership(n, subset):
    m = np.zeros(n, dtype=bool)
    m[subset] = True
    return m


def invariant_features(G):
    """Per-element feature tuples the Aut-orbits must refine: element
    order, conjugacy class size, membership in Z, G', Phi, N, each lower
    central term, and each agemo layer (p-groups)."""
    core = characteristic_core(G)
    feats = [G.orders(), G.class_sizes()]
    for key in ("center", "derived", "frattini", "N"):
        if core[key] is not None:
            feats.append(_membership(G.n, core[key]))
    for gam in core["gamma"][1:]:
        feats.append(_membership(G.n, gam))
    pp = prime_power(G.n)
    if pp is not None and G.n > 1:
        p = pp[0]
        i = 1
        while True:
            layer = G.closure(G.power_map(p ** i))
            if len(layer) == 1:
                break
            feats.append(_membership(G.n, layer))
            i += 1
    return np.stack([f.astype(np.int64) for f in feats], axis=1)


def omega_exact(G, acts, *, caut=None, inner=True):
    """Two-sided orbit count.  Returns a report with lower and upper
    bounds and, when they meet, the exact value."""
    combined = acts
    if caut is not None:
        combined = combined.extended(caut)
    if inner:
        combined = combined.extended(inner_automorphisms(G))
    rep = orbits(G, combined)
    feats = invariant_features(G)
    # distinct feature rows: sorted, each row that differs from the one
    # before it starts a class
    srt = feats[np.lexsort(feats.T[::-1])]
    lower = 1 + int(np.count_nonzero((srt[1:] != srt[:-1]).any(axis=1)))
    upper = rep["count"]
    if lower > upper:
        raise AssertionError("invariant partition coarser than orbits")
    # an orbit's label is a member, so the orbit is constant iff every
    # member has its label's features
    if (feats != feats[rep["labels"]]).any():
        raise AssertionError("an orbit crosses an invariant class")
    return {
        "lower": lower,
        "upper": upper,
        "exact": upper if lower == upper else None,
        "report": rep,
    }


# ------------------------------------------------- central automorphisms

def _cosets(G, N):
    """(coset, reps, pos_in_N) for a subgroup N: reps lists the least
    element of each coset of N in increasing order, coset[g] is the
    position of gN in reps, and pos_in_N[g] is the position of g in the
    sorted N (-1 outside N)."""
    reps, coset = np.unique(G.mul[:, N].min(axis=1), return_inverse=True)
    pos_in_N = np.full(G.n, -1, dtype=np.int64)
    pos_in_N[N] = np.arange(len(N))
    return coset, reps, pos_in_N


def _layer_coords(G, basis, p, slot):
    """(words, coords) for an elementary abelian layer of order p^k, k =
    len(basis), whose members slot numbers 0..p^k - 1 (slot[g] is the
    member holding g: its coset, or its position in N).  words[c] is
    the basis-power word b_0^c_0 ... b_{k-1}^c_{k-1} for the
    little-endian base-p digits c_i of c.  The words must meet every
    member once; member slot[words[c]] then gets coordinates (c_i), and
    these are checked additive on every pair of words."""
    k = len(basis)
    words = np.array([G.e], dtype=np.int64)
    for b in basis:
        powers = [G.e]
        for _ in range(p - 1):
            powers.append(G.mul[powers[-1], b])
        # index c + p^i t holds word(c) * b^t
        words = G.mul[words[None, :], np.array(powers)[:, None]].ravel()
    digits = np.arange(p ** k)[:, None] // p ** np.arange(k) % p
    member = slot[words]
    if not np.array_equal(np.sort(member), np.arange(p ** k)):
        raise ValueError("layer words do not meet every member once")
    coords = np.empty_like(digits)
    coords[member] = digits
    if not np.array_equal(coords[slot[G.mul[words[:, None], words]]],
                          (digits[:, None, :] + digits[None, :, :]) % p):
        raise AssertionError("layer coordinates are not additive")
    return words, coords


def linear_split(G):
    """Layer coordinates for a p-group with 1 < N <= Z(G) and both N and
    G/N elementary abelian: bases for the two layers, additive coset
    coordinates for every element, and coordinates inside N, all checked
    for additivity against the multiplication table.  rep_by_coords
    holds the least element of the coset with each coordinate vector,
    little-endian."""
    pp = prime_power(G.n)
    if pp is None:
        raise ValueError("not a p-group")
    p = pp[0]
    core = characteristic_core(G)
    Z, N = core["center"], core["N"]
    zmask = _membership(G.n, Z)
    if N is None or len(N) == 1 or len(N) == G.n:
        raise ValueError("need 1 < N < G")
    if not zmask[N].all():
        raise ValueError("N is not central")
    ords = G.orders()
    if np.any(ords[N] > p):
        raise ValueError("N is not elementary abelian")
    n_dim = round(math.log(len(N), p))
    m_dim = round(math.log(G.n // len(N), p))
    w_basis = G.greedy_generators(N, [G.e])
    v_basis = G.greedy_generators(np.arange(G.n), N)
    if len(w_basis) != n_dim or len(v_basis) != m_dim:
        raise ValueError("basis extraction failed")
    coset, reps, pos_in_N = _cosets(G, N)
    if not np.all(coset[G.power_map(p)] == coset[G.e]):
        raise ValueError("G/N is not elementary abelian")
    words, coords = _layer_coords(G, v_basis, p, coset)
    _, wc = _layer_coords(G, w_basis, p, pos_in_N)
    return {
        "p": p, "m": m_dim, "n": n_dim,
        "v_basis": v_basis, "w_basis": w_basis,
        "N": N, "coset_coords": coords[coset], "w_coords": wc,
        "pos_in_N": pos_in_N, "rep_by_coords": reps[coset[words]],
    }


def central_automorphisms(G):
    """Generators of the homomorphism-group CAut: for a p-group with
    G' <= Z and N = <G', Phi> with elementary abelian N and G/N, the maps
    g -> g * w^(i-th N-coset coordinate of g), one per (V-basis position,
    N-basis element).  The mn generators commute, have order p, and are
    independent (applying a product to the i-th coset representative
    recovers its exponents), so they generate a group of order p^(mn).

    Returns (AutomorphismSet, p, m, n_dim, count)."""
    sp = linear_split(G)
    p, m_dim, n_dim = sp["p"], sp["m"], sp["n"]
    v_basis, w_basis = sp["v_basis"], sp["w_basis"]
    cc = sp["coset_coords"]
    # wpow[j, t] = w_j^t; generator (i, j) is g -> g w_j^(cc[g, i])
    wpow = np.empty((n_dim, p), dtype=np.int64)
    wpow[:, 0] = G.e
    for t in range(1, p):
        wpow[:, t] = G.mul[wpow[:, t - 1], w_basis]
    vi, wj = np.divmod(np.arange(m_dim * n_dim), n_dim)
    ar = np.arange(G.n)
    acts = AutomorphismSet(G, G.mul[ar, wpow[wj[:, None], cc[:, vi].T]])
    P = acts.perms
    # order p, commuting and the displacement property, as block
    # compares of composed rows: Q[r] is P[r]^t after t rounds, and
    # P[r] P[s] = P[s] P[r] for every s > r, one r at a time
    Q = P
    for _ in range(p - 1):
        Q = np.take_along_axis(P, Q, axis=1)
    if not (Q == ar).all():
        raise AssertionError("central generator order exceeds p")
    for r in range(len(P) - 1):
        if not np.array_equal(P[r][P[r + 1:]], P[r + 1:, P[r]]):
            raise AssertionError("central generators do not commute")
    expect = np.tile(v_basis, (len(P), 1))
    expect[np.arange(len(P)), vi] = G.mul[np.asarray(v_basis)[vi],
                                          np.asarray(w_basis)[wj]]
    if not np.array_equal(P[:, v_basis], expect):
        raise AssertionError("displacement property fails")
    count = p ** (m_dim * n_dim)
    # an automorphism fixing the generating sequence fixes all of G
    if count <= (1 << 12) and PermGroup(
            acts.perms, G.n, G.generating_sequence()).order() != count:
        raise AssertionError("central automorphism count mismatch")
    return acts, p, m_dim, n_dim, count


# -------------------------------------------------------- induced actions

def induced_pair(G, N, acts):
    """Quotient action on G/N and restriction to N for each generator,
    with transitivity checks and the orders of the induced groups: |A|
    on the quotient, |B| on N, and |J| of the joint action on both,
    which is faithful.  K = |J|/|B| counts the elements of J that act
    trivially on N.  A_to_B_function reports whether acting trivially on
    the quotient forces acting trivially on N (|J| = |A|); when it does
    (N central, for instance), K is the kernel of the map A -> B."""
    N = np.asarray(sorted(int(x) for x in N), dtype=np.int64)
    coset, reps, pos_in_N = _cosets(G, N)
    qn = len(reps)
    a_perms, b_perms = [], []
    for p in acts.perms:
        bhat = pos_in_N[p[N]]
        if (bhat < 0).any():
            raise ValueError("acting set does not stabilize N")
        ahat = coset[p[reps]]
        if not np.array_equal(ahat[coset], coset[p]):
            raise AssertionError("quotient action ill-defined")
        a_perms.append(ahat)
        b_perms.append(bhat)
    a_perms = np.array(a_perms, dtype=np.int64).reshape(len(acts.perms), qn)
    b_perms = np.array(b_perms, dtype=np.int64).reshape(len(acts.perms),
                                                        len(N))
    # bases: the images of S generate G/N, and a generating set of N
    # generates N, so a map induced by an automorphism that fixes them
    # is the identity
    a_base = coset[G.generating_sequence()]
    b_base = pos_in_N[G.greedy_generators(N, [G.e])]
    b_order = PermGroup(b_perms, len(N), b_base).order()
    # row layout [a-part raw | b-part + qn]: one permutation of both parts
    pair = np.concatenate([a_perms, b_perms + qn], axis=1)
    J = PermGroup(pair, qn + len(N), np.concatenate([a_base, b_base + qn]))
    j_order = J.order()
    # the elements of J fixing a_base, which generates G/N, act trivially
    # on the quotient: the kernel of J -> A, so |A| = |J : J_(a_base)|
    a_order = J.order(len(a_base))
    return {
        "A_perms": a_perms, "B_perms": b_perms,
        "A_transitive": transitive_off(a_perms, qn, coset[G.e]),
        "B_transitive": transitive_off(b_perms, len(N), pos_in_N[G.e]),
        "A_order": a_order, "B_order": b_order, "K_order": j_order // b_order,
        "A_to_B_function": j_order == a_order,
        "quotient_size": qn, "N_size": len(N),
    }


# --------------------------------------------------------------- oracles

def brute_force_aut(G):
    """Aut(G) as strong generators plus its order, found by the
    exhaustive base-image backtrack of automorphism_group, as an
    AutomorphismSet whose len() is |Aut(G)| (each generator is proved an
    automorphism by the search; re-verification skipped)."""
    gens, order = automorphism_group(G)
    return AutomorphismSet(G, gens, verify=False, order=order)


def holomorph_rank(G, aut_set=None):
    """Rank of the holomorph acting on G: the number of orbits of
    <right translations, Aut(G)> on ordered pairs.  Aut(G) comes as
    generators, by default the strong generators of brute_force_aut; the
    group they generate with the translations has the same pair orbits,
    and the translations by the generating sequence S generate all of
    them.  The pair permutations (x, y) -> (xs, ys), s in S, and
    (x, y) -> (a(x), a(y)) are built and labelled one kernel block at a
    time."""
    if G.n > HOLOMORPH_CAP:
        raise ValueError("holomorph: group order %d exceeds cap %d"
                         % (G.n, HOLOMORPH_CAP))
    n = G.n
    if aut_set is None:
        aut_set = brute_force_aut(G)
    step = max(1, BLOCK_CELLS // (n * n))
    labels = None
    right = G.mul.T[G.generating_sequence() or [G.e]]  # row s: x -> x*s
    for perms in (right, aut_set.perms):
        for lo in range(0, len(perms), step):
            blk = perms[lo:lo + step]
            pairs = (blk[:, :, None] * n + blk[:, None, :]).reshape(
                len(blk), n * n)
            labels = orbit_labels(pairs, n * n, start=labels)
    # each pair orbit is labelled by its least index
    return int(np.count_nonzero(labels == np.arange(n * n)))
