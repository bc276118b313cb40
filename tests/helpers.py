"""Reference helpers that only the tests use: a group built from a
Python multiplication oracle, the scalar wedge product that
wedge_power_matrix is checked against, the listing of every
automorphism and the one-search-per-candidate backtrack that
automorphism_group is checked against."""

import numpy as np

from orbitforge import group_engine as ge
from orbitforge._kernels import orbit_labels
from orbitforge.group_engine import FiniteGroup
from orbitforge.linalg_mod import wedge_basis


def group_from_oracle(elements, mul):
    """A FiniteGroup on the sorted element codes, its table filled by n^2
    calls of the multiplication mul on codes."""
    elems = sorted(elements)
    index = {c: i for i, c in enumerate(elems)}
    table = np.array([[index[mul(a, b)] for b in elems] for a in elems],
                     dtype=np.int64)
    return FiniteGroup(elems, table)


def wedge_vec(F, u, v, d):
    """Coordinates of u^v in the wedge basis (k = 2)."""
    basis = wedge_basis(d, 2)
    out = np.zeros(len(basis), dtype=np.int64)
    for r, (i, j) in enumerate(basis):
        a = F.mul_elems(int(u[i]), int(v[j]))
        b = F.mul_elems(int(u[j]), int(v[i]))
        out[r] = F.add_elems(a, F.neg_elem(b))
    return out


def all_automorphisms(G):
    """Every automorphism of G as an (m, n) permutation array, in
    lexicographic order: every map the search yields, proved by
    is_isomorphism."""
    if G.n > ge.AUT_ENUM_CAP:
        raise ValueError("automorphism enumeration: group order %d exceeds "
                         "cap %d" % (G.n, ge.AUT_ENUM_CAP))
    phis = np.array(list(ge._HomSearch(G, G).hits()))
    phis = phis[ge.is_isomorphism(G, G, phis)]
    return phis[np.lexsort(phis.T[::-1])]


def automorphism_group_unscreened(G):
    """automorphism_group without its level screen: every candidate c
    the loop reaches gets its own find-first search, which evaluates the
    row g_0..g_{j-1}, c by itself and descends from it."""
    search = ge._HomSearch(G, G)
    base = search.gens
    gens = np.empty((0, G.n), dtype=np.int64)
    order = 1
    for j in reversed(range(search.k_total)):
        lab = orbit_labels(gens, G.n)
        ruled_out = []
        for c in search.buckets[j].tolist():
            if lab[c] == lab[base[j]] or lab[c] in lab[ruled_out]:
                continue
            row = np.array([base[:j] + [c]], dtype=np.int64)
            keep, phi = search._evaluate(row, j + 1)
            if not len(keep):
                hit = None
            elif j + 1 == search.k_total:
                hit = phi[0, search.col]
            else:
                hit = next(search._descend(row, j + 1), None)
            if hit is None:
                ruled_out.append(c)
                continue
            gens = np.concatenate([gens, hit[None]])
            lab = orbit_labels(hit[None], G.n, start=lab)
        order *= int(np.count_nonzero(lab == lab[base[j]]))
    return gens, order
