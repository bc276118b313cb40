import numpy as np
import pytest

from orbitforge import hering as hr
from orbitforge import linalg_mod as lm
from orbitforge.gf_arith import field_create


def test_gammaL1_transitive():
    for (p, m) in ((2, 3), (2, 4), (2, 6), (3, 2)):
        g = hr.gammaL1_gens(p, m)
        assert g.d == m and g.field == (p, 1)
        assert hr.transitive_on_nonzero(g)


def _elements(gens):
    """Every element of a matrix group, breadth first: the reference
    the stabilizer chains are checked against."""
    F = gens.field_obj()
    eye = lm.identity_mat(gens.d)
    seen = {eye.tobytes(): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for M in frontier:
            for g in gens.mats:
                P = lm.vec_batch_apply(F, M, g)
                if P.tobytes() not in seen:
                    seen[P.tobytes()] = P
                    nxt.append(P)
        frontier = nxt
    return list(seen.values())


def test_sl_closures():
    assert hr.group_order(hr.sl_gens(2, 3)) == 24
    assert hr.group_order(hr.sl_gens(3, 3)) == 5616
    assert len(_elements(hr.sl_gens(2, 3))) == 24
    F = field_create(3, 1)
    for M in hr.sl_gens(3, 3).mats:
        assert lm.mat_det(F, M) == 1


def test_sp_gens_preserve_form():
    g = hr.sp_gens(4, 3)
    F = field_create(3, 1)
    J = lm.standard_symplectic(F, 4)
    for M in g.mats:
        assert lm.sp_multiplier(F, J, M) == 1
    assert hr.transitive_on_nonzero(g)
    with pytest.raises(ValueError):
        hr.sp_gens(3, 3)


def test_solvable_residual():
    # Sp_2(3) = SL_2(3) is solvable: the residual collapses to 1
    res = hr.solvable_residual(hr.sp_gens(2, 3))
    assert res.meta["order"] == 1 and not res.meta["perfect"]
    # a perfect group is its own residual
    res120 = hr.solvable_residual(hr.sl2_5_search(11))
    assert res120.meta["order"] == 120 and res120.meta["perfect"]
    res33 = hr.solvable_residual(hr.sl_gens(3, 3))
    assert res33.meta["order"] == 5616 and res33.meta["perfect"]


def test_sl2_5_search():
    g = hr.sl2_5_search(11)
    assert g.meta == {"order": 120, "p": 11}
    assert len(g.mats) == 2
    assert hr.transitive_on_nonzero(g)
    # the first order-10 matrix of SL_2(11), in entry order, that makes
    # an order-120 pair with the order-4 generator
    assert g.mats[1].tolist() == [[0, 2], [5, 4]]
    # unique involution: exactly one element squares to 1 besides 1
    elems = _elements(g)
    assert len(elems) == 120
    eye = lm.identity_mat(2)
    F = field_create(11, 1)
    sq = [M for M in elems
          if np.array_equal(lm.vec_batch_apply(F, M, M), eye)
          and not np.array_equal(M, eye)]
    assert len(sq) == 1
    with pytest.raises(ValueError):
        hr.sl2_5_search(13)


@pytest.mark.parametrize("p", [11, 19])
def test_sl2_elements_match_determinant_filter(p):
    idx = np.arange(p ** 4, dtype=np.int64)
    quads = np.stack([(idx // p ** t) % p for t in (3, 2, 1, 0)], axis=1)
    det = (quads[:, 0] * quads[:, 3] - quads[:, 1] * quads[:, 2]) % p
    assert np.array_equal(hr._sl2_elements(p),
                          quads[det == 1].reshape(-1, 2, 2))


def test_closure_cap():
    with pytest.raises(ValueError, match=r"reached \d+, above the cap 5"):
        hr.group_order(hr.sl_gens(2, 3), cap=5)
    assert hr.group_order(hr.sl_gens(2, 3), cap=24) == 24


def test_orbit_sizes():
    # the nonzero-vector orbit of gammaL1 covers the whole punctured
    # space, and its per-generator permutations are actual bijections
    g = hr.gammaL1_gens(3, 2)
    perms, n, _ = hr._vector_perms(g)
    assert n == 9
    for pr in perms:
        assert sorted(pr.tolist()) == list(range(n))
