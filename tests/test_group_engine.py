import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from orbitforge import constructions as cons
from orbitforge import group_engine as ge
from orbitforge import orbit_machine as om
from orbitforge import verify_suite as vs


def cyclic(n):
    return ge.group_from_oracle(list(range(n)), lambda a, b: (a + b) % n)


def direct(orders):
    elems = list(itertools.product(*[range(n) for n in orders]))

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    return ge.group_from_oracle(elems, mul)


def perm_group(gen_perms):
    """Closure of permutation tuples under composition."""
    gens = [tuple(p) for p in gen_perms]
    n = len(gens[0])
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(a[g[i]] for i in range(n))
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt

    def mul(a, b):
        return tuple(a[b[i]] for i in range(n))

    return ge.group_from_oracle(sorted(elems), mul)


def quat():
    # signed quaternion units 1,-1,i,-i,j,-j,k,-k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1",
            ("k", "k"): "-1", ("i", "j"): "k", ("j", "k"): "i",
            ("k", "i"): "j", ("j", "i"): "-k", ("k", "j"): "-i",
            ("i", "k"): "-j"}

    def umul(a, b):
        sa = -1 if a.startswith("-") else 1
        sb = -1 if b.startswith("-") else 1
        ua, ub = a.lstrip("-"), b.lstrip("-")
        if ua == "1":
            r = ub
        elif ub == "1":
            r = ua
        else:
            r = base[(ua, ub)]
        s = sa * sb * (-1 if r.startswith("-") else 1)
        return r.lstrip("-") if s == 1 else "-" + r.lstrip("-")

    idx = {nm: i for i, nm in enumerate(names)}
    return ge.group_from_oracle(
        list(range(8)), lambda a, b: idx[umul(names[a], names[b])])


def test_cyclic_basics():
    C4 = cyclic(4)
    assert C4.order_profile() == ((1, 1), (2, 1), (4, 2))
    assert C4.exponent() == 4
    assert len(C4.center()) == 4
    assert ge.find_isomorphism(C4, direct([2, 2])) is None
    assert ge.find_isomorphism(C4, cyclic(4)) is not None


def test_s3():
    S3 = perm_group([(1, 2, 0), (1, 0, 2)])
    assert S3.n == 6
    assert len(S3.center()) == 1
    assert len(S3.derived()) == 3
    assert sorted(np.unique(S3.class_sizes()).tolist()) == [1, 2, 3]
    assert len(ge.all_automorphisms(S3)) == 6


def test_a4_core():
    A4 = perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    assert A4.n == 12
    core = ge.characteristic_core(A4)
    assert len(core["derived"]) == 4
    assert len(core["frattini"]) == 1
    assert len(core["N"]) == 4
    assert len(ge.all_automorphisms(A4)) == 24


def test_q8():
    Q8 = quat()
    core = ge.characteristic_core(Q8)
    assert len(core["center"]) == 2
    assert len(core["derived"]) == 2
    assert len(core["frattini"]) == 2
    assert len(core["N"]) == 2
    assert Q8.order_profile() == ((1, 1), (2, 1), (4, 6))
    assert len(ge.all_automorphisms(Q8)) == 24


def test_elementary_abelian_aut():
    assert len(ge.all_automorphisms(direct([2, 2, 2]))) == 168
    assert len(ge.all_automorphisms(direct([3, 3, 3]))) == 11232


def test_d4_not_q8():
    D4 = perm_group([(1, 2, 3, 0), (1, 0, 3, 2)])
    assert D4.n == 8
    assert len(ge.all_automorphisms(D4)) == 8
    assert ge.find_isomorphism(D4, quat()) is None


def test_gamma_series():
    gam = quat().gamma_series()
    assert [len(g) for g in gam] == [8, 2, 1]
    S3 = perm_group([(1, 2, 0), (1, 0, 2)])
    assert [len(g) for g in S3.gamma_series()] == [6, 3]


def test_frattini_and_maximals():
    assert len(direct([4, 2]).frattini()) == 2
    S3 = perm_group([(1, 2, 0), (1, 0, 2)])
    assert len(S3.frattini()) == 1
    C6 = cyclic(6)
    assert sorted(len(m) for m in C6.maximal_subgroups()) == [2, 3]
    assert len(C6.frattini()) == 1


def test_cayley_roundtrip(tmp_path):
    Q8 = quat()
    path = str(tmp_path / "q8.g3o")
    ge.export_cayley(Q8, path)
    back = ge.import_cayley(path)
    assert np.array_equal(back.mul, Q8.mul)
    with open(path, "rb") as fh:
        assert fh.read(4) == ge.CAYLEY_MAGIC


def test_cayley_rejects_bad_sizes(tmp_path):
    Q8 = quat()
    path = tmp_path / "q8.g3o"
    ge.export_cayley(Q8, str(path))
    good = path.read_bytes()
    assert len(good) == 8 + 4 * 64
    for bad in (good[:-1], good + b"\0", good[:6],
                # a header claiming n = 65535 would need 17 GB of table
                ge.CAYLEY_MAGIC + (65535).to_bytes(4, "little") + good[8:]):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            ge.import_cayley(str(path))


def intercalate_swap(n):
    """Z_n with the intercalate in rows 1, 1+h and columns 2, 2+h
    (h = n/2) swapped: still a Latin square with identity 0, but not
    associative."""
    h = n // 2
    ar = np.arange(n)
    mul = (ar[:, None] + ar[None, :]) % n
    rows = [1, 1, 1 + h, 1 + h]
    mul[rows, [2, 2 + h, 2, 2 + h]] = mul[rows, [2 + h, 2, 2 + h, 2]]
    return mul


def octonion_loop():
    """The 16 units +-e0..+-e7 (code i + 8 for -e_i) under the octonion
    product with e_i e_{i+1} = e_{i+3}, indices mod 7 in 1..7."""
    sign = np.ones((8, 8), dtype=np.int64)
    prod = np.zeros((8, 8), dtype=np.int64)
    prod[0, :] = prod[:, 0] = np.arange(8)
    for i in range(1, 8):
        prod[i, i], sign[i, i] = 0, -1
        a, b, c = i, i % 7 + 1, (i + 2) % 7 + 1
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            prod[x, y] = prod[y, x] = z
            sign[y, x] = -1
    codes = np.arange(16)
    s, u = np.where(codes < 8, 1, -1), codes % 8
    val = s[:, None] * s[None, :] * sign[u[:, None], u[None, :]]
    return prod[u[:, None], u[None, :]] + 8 * (val < 0)


@pytest.mark.parametrize("n", [258, 300, 512])
def test_intercalate_swap_is_rejected(n, tmp_path):
    mul = intercalate_swap(n)
    assert np.all(np.sort(mul, axis=0) == np.arange(n)[:, None])
    with pytest.raises(ValueError, match="associativity"):
        ge.FiniteGroup(list(range(n)), mul)
    # the same table arriving from outside, as a Cayley file
    path = str(tmp_path / "bad.g3o")
    ge.export_cayley(SimpleNamespace(n=n, mul=mul), path)
    with pytest.raises(ValueError, match="associativity"):
        ge.import_cayley(path)


def test_octonion_loop_is_rejected():
    mul = octonion_loop()
    assert np.all(np.sort(mul, axis=1) == np.arange(16))
    assert np.all(np.sort(mul, axis=0) == np.arange(16)[:, None])
    with pytest.raises(ValueError, match="associativity"):
        ge.FiniteGroup(list(range(16)), mul)


def test_d6_aut():
    D6 = perm_group([(1, 2, 0, 3, 4), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)])
    assert D6.n == 12
    assert len(ge.all_automorphisms(D6)) == 12


def test_find_isomorphism_random_relabel():
    # relabelling a group gives an isomorphic oracle; the search must
    # recover some isomorphism, and its table must check out
    rng = np.random.RandomState(7)
    A4 = perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    for _ in range(5):
        perm = rng.permutation(A4.n)
        inv = np.argsort(perm)
        mul2 = perm[A4.mul[inv][:, inv]]
        H = ge.FiniteGroup(list(range(A4.n)), mul2)
        phi = ge.find_isomorphism(A4, H)
        assert phi is not None
        assert np.array_equal(phi[A4.mul], H.mul[phi[:, None], phi[None, :]])


def test_class_labels_in_blocks(monkeypatch):
    G = cons.dornhoff_P().group
    assert G.n >= 512
    perms = np.array([G.conjugation_perm(g) for g in range(G.n)])
    ref = ge.orbit_labels(perms, G.n)
    sizes = []
    inner = ge.orbit_labels

    def spy(block, n, start=None):
        sizes.append(block.size)
        return inner(block, n, start=start)

    monkeypatch.setattr(ge, "orbit_labels", spy)
    G._cache.pop("class_labels", None)    # the constructor may have filled it
    assert np.array_equal(G.class_labels(), ref)
    assert len(sizes) > 1 and max(sizes) <= ge.BLOCK_CELLS


def _table_cyclic(n):
    """Z_n from a numpy table; cyclic() calls a Python oracle n^2 times."""
    i = np.arange(n)
    return ge.FiniteGroup(list(range(n)), (i[:, None] + i[None, :]) % n)


def _reference_lattice(G):
    """Every subgroup by cyclic extension with every element outside H,
    closures by a Python BFS."""
    def close(seed):
        found, frontier = {G.e}, [G.e]
        while frontier:
            frontier = [int(G.mul[x, s]) for x in frontier for s in seed
                        if int(G.mul[x, s]) not in found]
            found.update(frontier)
        return frozenset(found)

    seen = {close([])}
    todo = list(seen)
    while todo:
        H = todo.pop()
        for g in set(range(G.n)) - H:
            K = close(list(H) + [g])
            if K not in seen:
                seen.add(K)
                todo.append(K)
    return sorted((sorted(H) for H in seen), key=lambda h: (len(h), h))


def sl2_3():
    """SL(2, 3) acting on the 8 nonzero vectors of GF(3)^2."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def act(m):
        return tuple(idx[((m[0][0] * a + m[0][1] * b) % 3,
                          (m[1][0] * a + m[1][1] * b) % 3)] for a, b in vecs)

    return perm_group([act(((1, 1), (0, 1))), act(((1, 0), (1, 1)))])


def s4():
    return perm_group([(1, 2, 3, 0), (1, 0, 2, 3)])


def a4():
    return perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])


def test_lattice_matches_reference():
    """The double-coset walk against the every-element reference: S4, A4,
    D4 and SL(2, 3) have non-normal subgroups, so H g H is more than one
    coset, and the generators of C12 have four coprime powers."""
    S4 = s4()
    assert S4.n == 24
    assert len(S4.derived()) == 12
    for G, n, count in ((perm_group([(1, 2, 0), (1, 0, 2)]), 6, 6),
                        (quat(), 8, 6), (S4, 24, 30), (a4(), 12, 10),
                        (perm_group([(1, 2, 3, 0), (1, 0, 3, 2)]), 8, 10),
                        (cyclic(12), 12, 6), (sl2_3(), 24, 15)):
        assert G.n == n
        got = [H.tolist() for H in G.all_subgroups()]
        assert len(got) == count
        assert got == _reference_lattice(G)


@pytest.mark.parametrize("build, order", [
    (lambda: cyclic(12), 2), (sl2_3, 2), (s4, 1), (a4, 1)],
    ids=["C12", "SL(2,3)", "S4", "A4"])
def test_frattini_of_non_p_group_matches_reference(build, order):
    """The lattice branch of frattini(): the intersection of the maximal
    subgroups of the reference lattice."""
    G = build()
    assert ge._prime_power(G.n) is None
    subs = [set(H) for H in _reference_lattice(G)[:-1]]
    phi = set(range(G.n))
    for H in subs:
        if not any(H < K for K in subs):
            phi &= H
    assert G.frattini().tolist() == sorted(phi)
    assert len(phi) == order


def test_lattice_sizes():
    assert len(cons.line2_frobenius(2, 5, 1, 1).group.all_subgroups()) == 84
    assert len(vs.q8_on_c3c3().all_subgroups()) == 68


@pytest.mark.parametrize("build, size, most", [
    (lambda: cons.line2_frobenius(2, 5, 1, 1).group, 84, 460),
    (vs.q8_on_c3c3, 68, 361)], ids=["line2_frobenius", "q8_on_c3c3"])
def test_lattice_closes_once_per_double_coset_class(build, size, most,
                                                    monkeypatch):
    """all_subgroups closes <H, g> once per class H{g^k}H, k prime to
    |g|: 460 and 361 closures, where one per right coset Hg took 1709
    and 1155."""
    G = build()
    calls = []
    inner = ge.closure_subgroup

    def spy(mul, seed):
        calls.append(seed)
        return inner(mul, seed)

    monkeypatch.setattr(ge, "closure_subgroup", spy)
    G._cache.pop("subgroups", None)
    assert len(G.all_subgroups()) == size
    assert len(calls) <= most


@pytest.mark.parametrize("trip, order, cap", [
    (lambda: _table_cyclic(576).all_subgroups(), 576, 512),
    (lambda: ge.find_isomorphism(_table_cyclic(4), _table_cyclic(1025)),
     1025, 1024),
    (lambda: ge.all_automorphisms(_table_cyclic(12), cap=10), 12, 10),
    (lambda: om.holomorph_rank(_table_cyclic(65)), 65, 64),
    (lambda: om.brute_force_aut(_table_cyclic(1024)), 1024, 512),
], ids=["lattice", "isomorphism", "automorphisms", "holomorph",
        "automorphism-group"])
def test_cap_refusal_names_order_and_cap(trip, order, cap):
    with pytest.raises(ValueError) as err:
        trip()
    assert "group order %d exceeds cap %d" % (order, cap) in str(err.value)


@pytest.fixture(scope="module")
def gl3():
    return cons.gl3_tower((3, 1), (3, 1)).group


def _table_derived(G):
    """G' from the full n^2 commutator table."""
    m2 = G.mul[G.inv[None, :], G.mul]
    return G.closure(np.unique(G.mul[G.inv[:, None], m2]))


def _table_gamma(G):
    """Lower central series from n * |gamma_k| commutator slabs."""
    mul, inv = G.mul, G.inv
    series = [np.arange(G.n), _table_derived(G)]
    while len(series[-1]) > 1:
        cur = series[-1]
        c = mul[inv[:, None], mul[inv[cur][None, :], mul[:, cur]]]
        nxt = G.closure(np.unique(c))
        if np.array_equal(nxt, cur):
            break
        series.append(nxt)
    return series


@pytest.mark.parametrize("build", [
    lambda: perm_group([(1, 2, 0), (1, 0, 2)]),
    lambda: perm_group([(1, 2, 3, 0), (1, 0, 2, 3)]),
    lambda: perm_group([(1, 2, 0, 3), (0, 2, 3, 1)]),
    quat,
    lambda: perm_group([(1, 2, 3, 0), (1, 0, 3, 2)]),
    vs.q8_on_c3c3,
    lambda: cons.line2_frobenius(2, 5, 1, 1).group,
    lambda: cons.suzuki_A(3, 1).group,
    lambda: cons.extraspecial2(2, "-").group,
    lambda: cons.heisenberg_trace((3, 1), (3, 1), 2).group,
    None,
], ids=["S3", "S4", "A4", "Q8", "D4", "q8_on_c3c3", "line2_frobenius",
        "suzuki_A", "extraspecial2", "heisenberg_trace", "gl3_tower"])
def test_characteristic_series_match_table_reference(build, gl3):
    G = gl3 if build is None else build()
    D = _table_derived(G)
    assert np.array_equal(G.derived(), D)
    assert ([g.tolist() for g in G.gamma_series()] ==
            [g.tolist() for g in _table_gamma(G)])
    pp = ge._prime_power(G.n)
    if pp is not None:
        phi = G.closure(np.unique(np.concatenate([D, G.power_map(pp[0])])))
        assert np.array_equal(G.frattini(), phi)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_gl3_tower_core_in_bounded_memory(gl3):
    """Validation and the characteristic core read the 38 MB table of
    order 2187 in slabs and from generators: no n^2 temporary."""
    H, built_mb = _traced_peak_mb(lambda: ge.FiniteGroup(gl3.elems,
                                                         gl3.mul))
    core, core_mb = _traced_peak_mb(lambda: ge.characteristic_core(H))
    assert [len(g) for g in core["gamma"]] == [2187, 81, 3, 1]
    assert built_mb < 8 and core_mb < 8
