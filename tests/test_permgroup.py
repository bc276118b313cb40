import re

import numpy as np
import pytest

from orbitforge import constructions as cons
from orbitforge import group_engine as ge
from orbitforge import hering as hr
from orbitforge import verify_suite as vs
from orbitforge.permgroup import PermGroup
from helpers import automorphism_group_unscreened


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
    # a linear map is determined by its images of the unit vectors
    perms, n, weights = hr._vector_perms(gens)
    return PermGroup(perms, n, weights)


def test_orders_closed_formulas():
    assert _chain(hr.sl_gens(2, 3)).order() == 24
    assert _chain(hr.sl_gens(3, 3)).order() == 3 ** 3 * 8 * 26
    assert _chain(hr.sp_gens(4, 3)).order() == 3 ** 4 * 8 * 80
    # SL(2, 4) = A_5 over a field that is not prime
    assert _chain(hr.sl_gens(2, 4)).order() == 60
    s5 = PermGroup([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5, range(5))
    assert s5.order() == 120
    assert PermGroup([], 4, range(4)).order() == 1
    assert PermGroup([[0, 1, 2, 3]], 4, range(4)).order() == 1


def test_contains():
    a5 = PermGroup([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]], 5, range(5))
    assert a5.order() == 60
    assert a5.contains([0, 1, 2, 3, 4])
    assert a5.contains([2, 0, 1, 3, 4])          # a 3-cycle
    assert a5.contains([1, 0, 3, 2, 4])          # two transpositions
    assert not a5.contains([1, 0, 2, 3, 4])      # one transposition
    assert not a5.contains([1, 2, 3, 0, 4])      # a 4-cycle
    trivial = PermGroup([], 3, range(3))
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
        G = PermGroup(gens, n, range(n))
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
        PermGroup([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5, range(5),
                  cap=10)
    assert PermGroup([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5, range(5),
                     cap=120).order() == 120


def test_cap_is_tested_during_the_orbit_walk():
    # C_1000 on one base point: the walk is refused once its partial
    # orbit passes the cap, long before the orbit of 1000 points ends
    cycle = np.roll(np.arange(1000), -1)
    with pytest.raises(ValueError, match=r"above the cap 10") as err:
        PermGroup([cycle], 1000, [0], cap=10)
    reached = int(re.search(r"reached (\d+),", str(err.value)).group(1))
    assert 10 < reached < 1000


def test_add_matches_enumeration():
    """A chain grown one generator at a time by add() has the order of
    the enumeration at every step, and add() says whether g was new."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        gens = [rng.permutation(n) for _ in range(int(rng.integers(1, 5)))]
        G = PermGroup([], n, range(n))
        for i, g in enumerate(gens):
            ref = _enumerate(gens[:i + 1], n)
            was_in = G.contains(g)
            assert G.add(g) == (not was_in)
            assert G.order() == len(ref)
            for p in list(ref)[:4]:
                assert G.contains(p)
        # a product of members is no longer new
        assert not G.add(np.asarray(gens[0])[np.asarray(gens[-1])])


def test_members_is_a_block_contains():
    a5 = PermGroup([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]], 5, range(5))
    perms = np.array([[0, 1, 2, 3, 4], [2, 0, 1, 3, 4], [1, 0, 2, 3, 4],
                      [1, 2, 3, 0, 4], [1, 0, 3, 2, 4]])
    assert a5.members(perms).tolist() == [a5.contains(p) for p in perms] \
        == [True, True, False, False, True]


# the aut-oracle inventory: tag -> (constructor, arguments); None is
# verify_suite.q8_on_c3c3
ORACLE_GROUPS = {
    "line1(2,1)": ("line1_abelian", (2, 1)),
    "line1(3,1)": ("line1_abelian", (3, 1)),
    "line1(2,2)": ("line1_abelian", (2, 2)),
    "line1(5,1)": ("line1_abelian", (5, 1)),
    "line1(2,3)": ("line1_abelian", (2, 3)),
    "line2(2,3)": ("line2_frobenius", (2, 3, 1, 1)),
    "line2(3,2)": ("line2_frobenius", (3, 2, 1, 1)),
    "line2(2,5)": ("line2_frobenius", (2, 5, 1, 1)),
    "line3(3,1)": ("suzuki_A", (3, 1)),
    "line3(3,2)": ("suzuki_A", (3, 2)),
    "line4(1)": ("suzuki_B", (1,)),
    "line4(2)": ("suzuki_B", (2,)),
    "line7(3,2,1,1)": ("heisenberg_trace", ((3, 1), (3, 1), 2)),
    "line7(5,2,1,1)": ("heisenberg_trace", ((5, 1), (5, 1), 2)),
    "es2(1,+)": ("extraspecial2", (1, "+")),
    "es2(2,+)": ("extraspecial2", (2, "+")),
    "es2(2,-)": ("extraspecial2", (2, "-")),
    "q8_on_c3c3": (None, ()),
}


def _oracle_group(tag):
    ctor, args = ORACLE_GROUPS[tag]
    return vs.q8_on_c3c3() if ctor is None else \
        getattr(cons, ctor)(*args).group


@pytest.mark.parametrize("tag", sorted(ORACLE_GROUPS))
def test_aut_chain_on_generating_sequence(tag):
    """The generating sequence S is a base of Aut(G): the chain on S has
    the order of the chain on every point, and automorphism_group's."""
    G = _oracle_group(tag)
    gens, order = ge.automorphism_group(G)
    S = G.generating_sequence()
    assert PermGroup(gens, G.n, S).order() == order
    assert PermGroup(gens, G.n, range(G.n)).order() == order


@pytest.mark.parametrize("tag", sorted(ORACLE_GROUPS))
def test_level_screen_keeps_generators(tag):
    """The level screen rules out exactly the candidates whose own
    search misses: the strong generators, row for row, and |Aut| are
    those of one find-first search per candidate."""
    G = _oracle_group(tag)
    gens, order = ge.automorphism_group(G)
    ref_gens, ref_order = automorphism_group_unscreened(G)
    assert order == ref_order
    assert gens.dtype == ref_gens.dtype and np.array_equal(gens, ref_gens)


def test_order_of_the_first_levels():
    """order(k) is |G : G_(B[:k])|: S4 on base (0, 1, 2) has basic orbit
    lengths 4, 3, 2."""
    S4 = PermGroup([[1, 2, 3, 0], [1, 0, 2, 3]], 4, [0, 1, 2])
    assert [S4.order(k) for k in range(4)] == [1, 4, 12, 24]
    assert S4.order() == S4.order(3) == 24


@pytest.mark.parametrize("tag", ["line1(2,2)", "es2(2,+)", "q8_on_c3c3"])
def test_aut_cross_check_needs_a_base(tag, monkeypatch):
    """S minus its last generator is no base of Aut(G): an automorphism
    moving only that generator strips to the base and counts as the
    identity, and the cross-check in automorphism_group must say so."""
    def cut(gens, n, base, cap=None):
        return PermGroup(gens, n, list(base)[:-1], cap)

    monkeypatch.setattr(ge, "PermGroup", cut)
    with pytest.raises(AssertionError,
                       match="strong generators do not give"):
        ge.automorphism_group(_oracle_group(tag))
