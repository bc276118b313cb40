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


class _FindAll(ge._HomSearch):
    """The homomorphism search with every hit kept."""

    def _collect(self, phi):
        if len(phi):
            self.found.append(phi[:, self.col])
        return False


def all_automorphisms(G):
    """Every automorphism of G as an (m, n) permutation array, in
    lexicographic order, listed by the find-all search."""
    if G.n > ge.AUT_ENUM_CAP:
        raise ValueError("automorphism enumeration: group order %d exceeds "
                         "cap %d" % (G.n, ge.AUT_ENUM_CAP))
    phis = _FindAll(G, G).run()
    phis = phis[ge.hom_on_generators(G, G, phis)]
    ar = np.arange(G.n)
    phis = phis[np.all(np.sort(phis, axis=1) == ar, axis=1)]
    return phis[np.lexsort(phis.T[::-1])]
