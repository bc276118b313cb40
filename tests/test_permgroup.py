import numpy as np
import pytest

from orbitforge import hering as hr
from orbitforge.permgroup import PermGroup


def _enumerate(gens, n):
    """Every element of <gens> as a tuple, breadth first: the reference
    for the stabilizer chain."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [np.arange(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = np.asarray(g)[w]
                if tuple(c) not in seen:
                    seen.add(tuple(c))
                    nxt.append(c)
        frontier = nxt
    return seen


def _chain(gens):
    perms, n, _ = hr._vector_perms(gens)
    return PermGroup(perms, n)


def test_orders_closed_formulas():
    assert _chain(hr.sl_gens(2, 3)).order() == 24
    assert _chain(hr.sl_gens(3, 3)).order() == 3 ** 3 * 8 * 26
    assert _chain(hr.sp_gens(4, 3)).order() == 3 ** 4 * 8 * 80
    # SL(2, 4) = A_5 over a field that is not prime
    assert _chain(hr.sl_gens(2, 4)).order() == 60
    s5 = PermGroup([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5)
    assert s5.order() == 120
    assert PermGroup([], 4).order() == 1
    assert PermGroup([[0, 1, 2, 3]], 4).order() == 1


def test_contains():
    a5 = PermGroup([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]], 5)
    assert a5.order() == 60
    assert a5.contains([0, 1, 2, 3, 4])
    assert a5.contains([2, 0, 1, 3, 4])          # a 3-cycle
    assert a5.contains([1, 0, 3, 2, 4])          # two transpositions
    assert not a5.contains([1, 0, 2, 3, 4])      # one transposition
    assert not a5.contains([1, 2, 3, 0, 4])      # a 4-cycle
    trivial = PermGroup([], 3)
    assert trivial.contains([0, 1, 2])
    assert not trivial.contains([1, 0, 2])


def test_random_groups_match_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(1, 8))
        gens = [rng.permutation(n) for _ in range(int(rng.integers(0, 4)))]
        pick = rng.integers(3)
        if gens and pick == 1:      # a cyclic subgroup
            gens = [gens[0][gens[0]]]
        elif pick == 2:             # intransitive: blocks 0..k-1, k..n-1
            k = int(rng.integers(0, n + 1))
            gens = [np.concatenate([rng.permutation(k),
                                    k + rng.permutation(n - k)])
                    for _ in range(2)]
        ref = _enumerate(gens, n)
        G = PermGroup(gens, n)
        assert G.order() == len(ref)
        for _ in range(6):
            p = rng.permutation(n)
            assert G.contains(p) == (tuple(p) in ref)
        for p in list(ref)[:6]:
            assert G.contains(p)


def test_entries_above_255_stay_distinct():
    # an int8 key of the matrix entries maps 256 to 0, so [[1, 256],
    # [0, 1]] would merge with the identity; the chain keeps the whole
    # cyclic group of order 257
    gens = hr.MatrixGroupGens((257, 1), 2,
                              [np.array([[1, 1], [0, 1]], dtype=np.int64)],
                              "unipotent")
    assert hr.group_order(gens) == 257
    G = _chain(gens)
    last = hr.MatrixGroupGens((257, 1), 2,
                              [np.array([[1, 256], [0, 1]], dtype=np.int64)],
                              "last")
    perm = hr._vector_perms(last)[0][0]
    assert not np.array_equal(perm, np.arange(len(perm)))
    assert G.contains(perm)


def test_cap_refusal_names_cap_and_order():
    with pytest.raises(ValueError, match=r"reached (\d+), above the cap 10"):
        PermGroup([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5, cap=10)
    assert PermGroup([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5,
                     cap=120).order() == 120
