"""Reference helpers that only the tests use: a group built from a
Python multiplication oracle, the scalar wedge product that
wedge_power_matrix is checked against, and the listing of every
automorphism that automorphism_group is checked against."""

import numpy as np

from orbitforge import group_engine as ge
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
