import itertools

import numpy as np
import pytest

from orbitforge import hering as hr
from orbitforge import linalg_mod as lm
from orbitforge.gf_arith import field_create
from orbitforge.permgroup import PermGroup


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


def _residual_one_at_a_time(gens):
    """solvable_residual's generators, one candidate at a time: each
    joins when the chain so far lacks it.  The reference for the block
    strips, which must give the same generators in the same order."""
    perms, n, base = hr._vector_perms(gens)
    cur = list(perms)
    order = PermGroup(cur, n, base).order()
    while True:
        inv = [np.argsort(g) for g in cur]
        der, chain = [], PermGroup([], n, base)
        comms = [b[a[bi[ai]]] for a, ai in zip(cur, inv)
                 for b, bi in zip(cur, inv)]
        for c in itertools.chain(comms, (x[d[xi]] for d in der
                                         for x, xi in zip(cur, inv))):
            if not chain.contains(c):
                der.append(c)
                chain.add(c)
        if chain.order() in (order, 1):
            return cur if chain.order() == order else []
        cur, order = der, chain.order()


@pytest.mark.parametrize("make", [
    lambda: hr.sl2_5_search(19),    # perfect only after one step
    lambda: hr.sp_gens(2, 3),       # solvable
    lambda: hr.sl_gens(2, 4),
], ids=["sl2-5(19)", "sp(2,3)", "sl(2,4)"])
def test_residual_generators_in_one_at_a_time_order(make):
    gens = make()
    ref = _residual_one_at_a_time(gens)
    res = hr.solvable_residual(gens)
    if not ref:
        assert not res.meta["perfect"]
        return
    _, _, base = hr._vector_perms(gens)
    want = [g[base][:, None] // base % gens.field_obj().q for g in ref]
    assert len(res.mats) == len(want)
    assert all(np.array_equal(m, w) for m, w in zip(res.mats, want))


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


@pytest.mark.parametrize("p, pick", [
    (11, [[0, 2], [5, 4]]), (19, [[0, 7], [8, 5]]),
    (29, [[2, 4], [9, 4]]), (59, [[2, 7], [32, 24]])])
def test_sl2_5_search_picks_are_pinned(p, pick):
    # the first order-10 candidate whose pair has order 120; a cap
    # refusal during the orbit walk must not change which one that is
    assert hr.sl2_5_search(p).mats[1].tolist() == pick


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


@pytest.mark.parametrize("make", [
    lambda: hr.sp_gens(2, 1031),
    lambda: hr.sl_gens(3, 128),
    lambda: hr._vector_perms(hr.MatrixGroupGens(
        (2, 1), 21, [lm.identity_mat(21)], "big")),
], ids=["sp_gens", "sl_gens", "vector_perms"])
def test_vector_cap_refusal_names_cap_and_size(make):
    with pytest.raises(ValueError, match=r"vector space exceeds cap 1048576: "
                                         r"q\^d = \d+\^\d+ = \d+"):
        make()


def test_field_cap_refusal_names_cap_and_size():
    with pytest.raises(ValueError, match=r"field exceeds vector cap 1048576: "
                                         r"q = 2\^21 = 2097152"):
        hr.gammaL1_gens(2, 21)
