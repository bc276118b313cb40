import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from orbitforge import constructions as cons
from orbitforge import group_engine as ge
from orbitforge import orbit_machine as om
from orbitforge import verify_suite as vs
from orbitforge.gf_arith import prime_power
from helpers import all_automorphisms, group_from_oracle


def cyclic(n):
    return group_from_oracle(list(range(n)), lambda a, b: (a + b) % n)


def direct(orders):
    elems = list(itertools.product(*[range(n) for n in orders]))

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    return group_from_oracle(elems, mul)


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

    return group_from_oracle(sorted(elems), mul)


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
    return group_from_oracle(
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
    assert len(all_automorphisms(S3)) == 6


def test_a4_core():
    A4 = perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    assert A4.n == 12
    core = ge.characteristic_core(A4)
    assert len(core["derived"]) == 4
    assert len(core["frattini"]) == 1
    assert len(core["N"]) == 4
    assert len(all_automorphisms(A4)) == 24


def test_q8():
    Q8 = quat()
    core = ge.characteristic_core(Q8)
    assert len(core["center"]) == 2
    assert len(core["derived"]) == 2
    assert len(core["frattini"]) == 2
    assert len(core["N"]) == 2
    assert Q8.order_profile() == ((1, 1), (2, 1), (4, 6))
    assert len(all_automorphisms(Q8)) == 24


def test_elementary_abelian_aut():
    assert len(all_automorphisms(direct([2, 2, 2]))) == 168
    assert len(all_automorphisms(direct([3, 3, 3]))) == 11232


def test_d4_not_q8():
    D4 = perm_group([(1, 2, 3, 0), (1, 0, 3, 2)])
    assert D4.n == 8
    assert len(all_automorphisms(D4)) == 8
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


@pytest.mark.parametrize("build", [
    lambda: cons.sl3_pair((3, 1)).group,
    lambda: cons.suzuki_A(3, 1).group,
], ids=["order729", "order64"])
def test_cayley_roundtrip_keeps_table_dtype(build, tmp_path):
    G = build()
    path = tmp_path / "g.g3o"
    ge.export_cayley(G, str(path))
    data = path.read_bytes()
    assert data[8:] == G.mul.astype("<u4").tobytes()
    back = ge.import_cayley(str(path))
    assert back.mul.dtype == G.mul.dtype == ge.table_dtype(G.n)
    assert np.array_equal(back.mul, G.mul)
    ge.export_cayley(back, str(path))
    assert path.read_bytes() == data


def test_table_dtype_splits_at_one_block():
    assert ge.table_dtype(256) == np.int64
    assert ge.table_dtype(257) == np.int32


@pytest.mark.parametrize("n", [16, 300])
@pytest.mark.parametrize("bad", [-1, "n", 1 << 32])
def test_out_of_range_entries_are_refused(n, bad):
    """Checked on the caller's table before it is narrowed: as int32,
    2^32 would wrap to 0, which is in range."""
    ar = np.arange(n, dtype=np.int64)
    mul = (ar[:, None] + ar) % n
    mul[1, 2] = n if bad == "n" else bad
    with pytest.raises(ValueError, match="^table entries out of range$"):
        ge.FiniteGroup(list(range(n)), mul)


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


@pytest.mark.parametrize("n", [16, 300])
@pytest.mark.parametrize("bad", ["n", 1 << 31, (1 << 32) - 1])
def test_cayley_file_entries_out_of_range(n, bad, tmp_path):
    """A <u4 entry of 2^31 or more would wrap negative as int32, so each
    row block is range-checked before it is narrowed into the table."""
    ar = np.arange(n, dtype=np.int64)
    data = ((ar[:, None] + ar) % n).astype("<u4")
    data[n - 1, 2] = n if bad == "n" else bad
    path = tmp_path / "bad.g3o"
    path.write_bytes(ge.CAYLEY_MAGIC + n.to_bytes(4, "little") +
                     data.tobytes())
    with pytest.raises(ValueError, match="^table entries out of range$"):
        ge.import_cayley(str(path))


def test_empty_table_is_refused_by_name(tmp_path):
    with pytest.raises(ValueError, match="not a group: the table is empty"):
        ge.FiniteGroup([], np.zeros((0, 0)))
    path = tmp_path / "empty.g3o"
    path.write_bytes(ge.CAYLEY_MAGIC + (0).to_bytes(4, "little"))
    with pytest.raises(ValueError, match="not a group: the table is empty"):
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
    assert len(all_automorphisms(D6)) == 12


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


def test_is_isomorphism_judges_each_row():
    """One call on a block: every automorphism passes, and a bijection
    that is not a homomorphism and a homomorphism that is not a
    bijection fail, each in its own row."""
    Q8 = quat()
    auts = all_automorphisms(Q8)
    swap = np.arange(Q8.n)
    swap[[Q8.e, (Q8.e + 1) % Q8.n]] = swap[[(Q8.e + 1) % Q8.n, Q8.e]]
    trivial = np.full(Q8.n, Q8.e)
    assert not ge.hom_on_generators(Q8, Q8, swap)[0]
    assert ge.hom_on_generators(Q8, Q8, trivial)[0]
    rows = np.concatenate([auts[:12], [swap], auts[12:], [trivial]])
    expect = [True] * 12 + [False] + [True] * (len(auts) - 12) + [False]
    assert ge.is_isomorphism(Q8, Q8, rows).tolist() == expect
    # an injective homomorphism onto the first |G| indices of a larger H
    C2, V4 = cyclic(2), direct([2, 2])
    assert ge.hom_on_generators(C2, V4, [0, 1])[0]
    assert not ge.is_isomorphism(C2, V4, [0, 1])[0]


def test_find_isomorphism_proof_survives_optimize():
    # python -O strips assert statements, and the proof of a search hit
    # must still raise there; the patched search returns the map onto the
    # identity, a homomorphism that is not a bijection
    script = "\n".join([
        "import numpy as np",
        "from orbitforge import group_engine as ge",
        "i = np.arange(4)",
        "G = ge.FiniteGroup(list(range(4)), (i[:, None] + i) % 4)",
        "ge._HomSearch.hits = lambda self: iter([np.full(G.n, G.e)])",
        "print(__debug__)",
        "try:",
        "    ge.find_isomorphism(G, G)",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    src = os.path.dirname(os.path.dirname(ge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.stdout == "False\nsearch hit is not an isomorphism\n", \
        proc.stderr


def _all_conjugation_labels(G):
    """Classes from conjugation by every element, a block at a time."""
    lab, step = None, max(1, ge.BLOCK_CELLS // G.n)
    for lo in range(0, G.n, step):
        g = np.arange(lo, min(lo + step, G.n))
        lab = ge.orbit_labels(G.conjugation_perm(g), G.n, start=lab)
    return lab


@pytest.mark.parametrize("build", [
    None,
    lambda: cons.suzuki_A(5, 1).group,
    vs.q8_on_c3c3,
    lambda: perm_group([(1, 2, 3, 0), (1, 0, 2, 3)]),
], ids=["gl3_tower", "suzukiA(5,1)", "q8_on_c3c3", "S4"])
def test_generating_sequence_candidates_follow_the_sorted_key(build, gl3,
                                                              monkeypatch):
    # candidates by highest order, then smallest class, then index: the
    # lexsort order is the sorted order, ties included
    G = gl3 if build is None else build()
    orders, csz = G.orders(), G.class_sizes()

    def key(i):
        return -int(orders[i]), int(csz[i])

    assert len({key(i) for i in range(G.n)}) < G.n
    seen = []
    greedy = ge.FiniteGroup.greedy_generators

    def spy(self, cand, start):
        seen.append([int(x) for x in cand])
        return greedy(self, cand, start)

    monkeypatch.setattr(ge.FiniteGroup, "greedy_generators", spy)
    gens = G._cache.pop("gens")
    assert G.generating_sequence() == gens
    assert seen == [sorted(range(G.n), key=lambda i: (*key(i), i))]


@pytest.mark.parametrize("build", [
    lambda: perm_group([(1, 2, 3, 0), (1, 0, 2, 3)]),
    vs.q8_on_c3c3,
    lambda: cons.line2_frobenius(2, 5, 1, 1).group,
    lambda: cons.dornhoff_P().group,
    None,
], ids=["S4", "q8_on_c3c3", "line2_frobenius", "dornhoff_P", "gl3_tower"])
def test_class_labels_by_generators(build, gl3, monkeypatch):
    G = gl3 if build is None else build()
    ref = _all_conjugation_labels(G)
    orders = G.orders()
    S = G.greedy_generators(sorted(range(G.n),
                                   key=lambda i: (-int(orders[i]), i)), [G.e])
    rows = []
    inner = ge.orbit_labels

    def spy(perms, n, start=None):
        rows.append(np.array(perms))
        return inner(perms, n, start=start)

    monkeypatch.setattr(ge, "orbit_labels", spy)
    G._cache.pop("class_labels", None)    # the constructor filled it
    assert np.array_equal(G.class_labels(), ref)
    # one call, one conjugation row per generator of S'
    assert len(rows) == 1 and len(rows[0]) == len(S)
    assert np.array_equal(rows[0], G.conjugation_perm(S))


def _pinned_group(name, args, gl3):
    if name == "gl3_tower":
        return gl3
    if name == "q8_on_c3c3":
        return vs.q8_on_c3c3()
    return getattr(cons, name)(*args).group


# generating_sequence() and a sha256 prefix of class_labels() for every
# group the table-battery, iso-search and aut-oracle batteries build, as
# the all-n-conjugation labels gave them: class sizes break the
# sequence's ties, so a wrong label would reorder every search
SEQUENCE_PINS = [
    ("line1_abelian", (2, 1), 4, [1], "a1e03200f1f82ad2"),
    ("line1_abelian", (3, 1), 9, [1], "419ce84f0e9d8926"),
    ("line1_abelian", (2, 2), 16, [1, 4], "f23d672bb9b341f9"),
    ("line1_abelian", (2, 3), 64, [1, 4, 16], "7a4644928f3a08db"),
    ("line1_abelian", (5, 1), 25, [1], "2a0a16a7ce85c211"),
    ("line2_frobenius", (2, 3, 1, 1), 12, [4, 5], "63b3c92a19b54450"),
    ("line2_frobenius", (3, 2, 1, 1), 6, [1, 3], "d2c643e29acbe152"),
    ("line2_frobenius", (2, 5, 1, 1), 80, [16, 17], "598746a75308ad7b"),
    ("line2_frobenius", (2, 3, 2, 1), 576, [64, 65], "539c979ada73bea6"),
    ("suzuki_A", (3, 1), 64, [8, 16, 32], "ad1c687d257aebfb"),
    ("suzuki_A", (3, 2), 64, [8, 16, 32], "403c1e9c2d8c6855"),
    ("suzuki_A", (5, 1), 1024, [32, 64, 128, 256, 512], "64d038787ef4700c"),
    ("suzuki_B", (1, 0), 8, [2, 4], "283e78f1761b9b15"),
    ("suzuki_B", (2, 0), 64, [4, 8, 16, 32], "a77ad347cd6ca060"),
    ("suzuki_B", (2, 1), 64, [4, 8, 16, 32], "a77ad347cd6ca060"),
    ("suzuki_B", (3, 0), 512, [8, 16, 32, 64, 128, 256], "6e0d02b57d06be93"),
    ("dornhoff_P", (), 512, [8, 16, 32, 64, 128, 256], "6e0d02b57d06be93"),
    ("sl3_pair", ((3, 1),), 729, [27, 81, 243], "388340432ed4adee"),
    ("heisenberg_trace", ((3, 1), (3, 1), 2), 27, [3, 9], "b073da21c88fedc8"),
    ("heisenberg_trace", ((3, 1), (3, 1), 4), 243, [3, 9, 27, 81],
     "f2ee11b2e3abeb2b"),
    ("heisenberg_trace", ((3, 2), (3, 1), 2), 243, [3, 9, 27, 81],
     "f2ee11b2e3abeb2b"),
    ("heisenberg_trace", ((3, 2), (3, 2), 2), 729, [9, 27, 81, 243],
     "6f900e85d9ed5cd6"),
    ("heisenberg_trace", ((5, 1), (5, 1), 2), 125, [5, 25], "904ea85aad6d6dd4"),
    ("gl3_tower", None, 2187, [81, 243, 729], "e3d9af53df710d99"),
    ("extraspecial2", (1, "+"), 8, [6, 2], "283e78f1761b9b15"),
    ("extraspecial2", (2, "+"), 32, [6, 14, 22, 26], "286eef63e7444046"),
    ("extraspecial2", (2, "-"), 32, [2, 4, 10, 18], "286eef63e7444046"),
    ("q8_on_c3c3", None, 72, [4, 9], "4a2c07acad7c6262"),
]


@pytest.mark.parametrize(
    "name,args,order,gens,labels", SEQUENCE_PINS,
    ids=[p[0] + str(p[1] or "").replace(" ", "").replace("'", "")
         for p in SEQUENCE_PINS])
def test_generating_sequence_pinned(name, args, order, gens, labels, gl3):
    G = _pinned_group(name, args, gl3)
    assert G.n == order
    assert G.generating_sequence() == gens
    lab = G.class_labels().astype("<i8").tobytes()
    assert hashlib.sha256(lab).hexdigest()[:16] == labels


def test_inverses_and_orders_from_power_walk(gl3):
    """On every pinned group, inv[x] = x^(o(x)-1) from the power walk is
    the entry that a search of row x for e finds, and the orders are the
    first k with x^k = e."""
    for name, args, _, _, _ in SEQUENCE_PINS:
        G = _pinned_group(name, args, gl3)
        ar = np.arange(G.n)
        assert G.inv.dtype == np.int64
        assert np.array_equal(G.inv, np.argmax(G.mul == G.e, axis=1)), name
        assert np.all(G.mul[G.inv, ar] == G.e), name
        orders, cur = np.zeros(G.n, dtype=np.int64), ar
        for k in range(1, G.exponent() + 1):
            orders[(cur == G.e) & (orders == 0)] = k
            cur = G.mul[cur, ar]
        assert np.array_equal(G.orders(), orders), name


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
    """The prime-index walk against the every-element reference: S4, A4,
    D4 and SL(2, 3) have non-normal subgroups, so N_G(H) is smaller than
    G, and C12 has cosets of composite order."""
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
    assert prime_power(G.n) is None
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


@pytest.mark.parametrize("build, size", [
    (lambda: cons.line2_frobenius(2, 5, 1, 1).group, 84),
    (vs.q8_on_c3c3, 68)], ids=["line2_frobenius", "q8_on_c3c3"])
def test_lattice_takes_no_closure(build, size, monkeypatch):
    """all_subgroups builds each subgroup as a union of cosets of a
    normal subgroup of prime index, so it makes no closure_subgroup
    call."""
    G = build()
    calls = []
    inner = ge.closure_subgroup

    def spy(mul, seed, start=()):
        calls.append(seed)
        return inner(mul, seed, start)

    monkeypatch.setattr(ge, "closure_subgroup", spy)
    G._cache.pop("subgroups", None)
    assert len(G.all_subgroups()) == size
    assert calls == []


def test_lattice_refuses_a_non_solvable_group():
    """A5 is perfect, so no subgroup of prime index in A5 exists and the
    walk stops short of G."""
    A5 = perm_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    assert A5.n == 60 and len(A5.derived()) == 60
    with pytest.raises(ValueError,
                       match="the group of order 60 is not solvable"):
        A5.all_subgroups()


@pytest.mark.parametrize("trip, order, cap", [
    (lambda: _table_cyclic(576).all_subgroups(), 576, 512),
    (lambda: ge.find_isomorphism(_table_cyclic(4), _table_cyclic(1025)),
     1025, 1024),
    (lambda: all_automorphisms(_table_cyclic(513)), 513, 512),
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
    pp = prime_power(G.n)
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
    """Validation and the characteristic core read the 19 MB int32
    table of order 2187 in slabs and from generators: no n^2
    temporary, and no widened or copied table (a closure allocates
    less than the table's own bytes)."""
    assert gl3.mul.dtype == np.int32
    H, built_mb = _traced_peak_mb(lambda: ge.FiniteGroup(gl3.elems,
                                                         gl3.mul))
    core, core_mb = _traced_peak_mb(lambda: ge.characteristic_core(H))
    members, closure_mb = _traced_peak_mb(
        lambda: ge.closure_subgroup(gl3.mul, gl3.generating_sequence()))
    assert [len(g) for g in core["gamma"]] == [2187, 81, 3, 1]
    assert H.mul.dtype == np.int32 and len(members) == gl3.n
    assert built_mb < 8 and core_mb < 8
    assert closure_mb * 1e6 < gl3.mul.nbytes


def test_gl3_tower_cayley_io_in_row_blocks(gl3, tmp_path):
    """Export and import each hold the 19 MB table and one row block,
    not a whole second copy; the file is the table as <u4."""
    path = str(tmp_path / "gl3.g3o")
    _, export_mb = _traced_peak_mb(lambda: ge.export_cayley(gl3, path))
    back, import_mb = _traced_peak_mb(lambda: ge.import_cayley(path))
    table_mb = gl3.mul.nbytes / 1e6
    assert export_mb < 1.25 * table_mb and import_mb < 1.25 * table_mb
    assert back.mul.dtype == np.int32 and np.array_equal(back.mul, gl3.mul)
    with open(path, "rb") as fh:
        fh.seek(8)
        assert np.array_equal(np.fromfile(fh, dtype="<u4"), gl3.mul.ravel())


@pytest.mark.parametrize("codes", [[0, 1, 1, 2], [0, 2, 1, 3]],
                         ids=["duplicate", "unsorted"])
def test_element_codes_must_increase(codes):
    """Duplicate codes are refused by the same check as unsorted ones."""
    i = np.arange(4)
    with pytest.raises(ValueError, match="sorted"):
        ge.FiniteGroup(codes, (i[:, None] + i[None, :]) % 4)


@pytest.mark.parametrize("n", [8, 300])
def test_latin_check_reads_columns(n):
    """Every row of this table is a permutation, but its last row copies
    the first, so each column repeats an entry; the identity check finds
    0 twice in column 0."""
    mul = (np.arange(n)[:, None] + np.arange(n)) % n
    mul[-1] = mul[0]
    assert np.all(np.sort(mul, axis=1) == np.arange(n))
    with pytest.raises(ValueError, match="column 0 holds 0 in 2 rows"):
        ge.FiniteGroup(list(range(n)), mul)


def test_column_without_zero_is_refused():
    """Column 0 of an all-ones table holds no 0: a ValueError that names
    the count, not an IndexError."""
    with pytest.raises(ValueError, match="column 0 holds 0 in 0 rows"):
        ge.FiniteGroup(list(range(5)), np.ones((5, 5), dtype=np.int64))


def test_monoid_without_inverses_is_refused():
    """Z_4 under multiplication, relabelled so that 1 is index 0: an
    associative table with a two-sided identity, but the powers of 0 and
    2 never return to 1."""
    # index i stands for the residue code[i]; code is an involution, so it
    # also takes residues back to indices
    code = np.array([1, 0, 2, 3])
    mul = code[code[:, None] * code[None, :] % 4]
    assert np.array_equal(mul[0], np.arange(4))
    assert np.array_equal(mul[:, 0], np.arange(4))
    with pytest.raises(ValueError, match="powers of element 1 do not "
                       "return to the identity within \\|G\\| = 4"):
        ge.FiniteGroup(list(range(4)), mul)


def _reference_is_group(tables):
    """For each (n, n) table of the (m, n, n) stack: Latin rows and
    columns, a two-sided identity, and associativity on all n^3
    triples."""
    m, n, _ = tables.shape
    ar = np.arange(n)
    latin = (np.all(np.sort(tables, axis=2) == ar, axis=(1, 2)) &
             np.all(np.sort(tables, axis=1) == ar[:, None], axis=(1, 2)))
    ident = np.any(np.all(tables == ar, axis=2) &
                   np.all(tables.transpose(0, 2, 1) == ar, axis=2), axis=1)
    t = np.arange(m)[:, None, None, None]
    a, b, c = np.meshgrid(ar, ar, ar, indexing="ij")
    assoc = np.all(tables[t, tables[t, a, b], c] ==
                   tables[t, a, tables[t, b, c]], axis=(1, 2, 3))
    return latin & ident & assoc


def _accepted(tables):
    """Whether FiniteGroup accepts each table; any refusal other than a
    ValueError propagates and fails the test."""
    out = []
    for mul in tables:
        try:
            ge.FiniteGroup(list(range(len(mul))), mul)
        except ValueError:
            out.append(False)
        else:
            out.append(True)
    return np.array(out)


def test_every_order_3_table_matches_reference():
    """All 3^9 tables on {0, 1, 2}: FiniteGroup accepts exactly the
    three labellings of Z_3 that the brute-force reference accepts."""
    tables = np.array(list(itertools.product(range(3), repeat=9)),
                      dtype=np.int64).reshape(-1, 3, 3)
    ref = _reference_is_group(tables)
    assert np.count_nonzero(ref) == 3
    assert np.array_equal(_accepted(tables), ref)


def test_order_4_tables_match_reference():
    """Every labelled group table on {0, 1, 2, 3} (12 copies of Z_4 and 4
    of the Klein group), plus a seeded sample of tables with identity 0
    (row and column 0 fixed, the other nine entries random)."""
    ar = np.arange(4)
    groups = set()
    for table in ((ar[:, None] + ar) % 4, ar[:, None] ^ ar):
        for p in itertools.permutations(range(4)):
            p = np.array(p)
            groups.add(p[table[np.argsort(p)][:, np.argsort(p)]].tobytes())
    groups = np.array([np.frombuffer(g, dtype=np.int64).reshape(4, 4)
                       for g in sorted(groups)])
    assert len(groups) == 16
    sample = np.broadcast_to(ar[:, None], (3000, 4, 4)).copy()
    sample[:, 0] = ar
    sample[:, 1:, 1:] = np.random.RandomState(17).randint(0, 4, (3000, 3, 3))
    tables = np.concatenate([groups, sample])
    ref = _reference_is_group(tables)
    assert np.all(ref[:16])
    assert np.array_equal(_accepted(tables), ref)


@pytest.mark.parametrize("family, params", [
    ("line1", {"p": 2, "n": 1}), ("line1", {"p": 2, "n": 2}),
    ("line1", {"p": 3, "n": 1}),
    ("suzukiA", {"n": 3}), ("suzukiA", {"n": 5}),
    ("suzukiB", {"n": 1}), ("suzukiB", {"n": 2}), ("suzukiB", {"n": 3}),
    ("dornhoff", {}),
    ("heisenberg", {"p": 3, "m": 2, "n": 1, "b": 1}),
    ("heisenberg", {"p": 5, "m": 2, "n": 1, "b": 1}),
    ("heisenberg", {"p": 3, "m": 4, "n": 2, "b": 2}),
    ("gl3-tower", None),
    ("extraspecial2", {"k": 2, "eps": "+"}),
    ("extraspecial2", {"k": 2, "eps": "-"}),
    ("sl3", {"q": 3}),
], ids=lambda v: v if isinstance(v, str) else
    ",".join("%s=%s" % kv for kv in (v or {}).items()))
def test_generating_sequence_has_d_generators(family, params, gl3):
    """Burnside's basis theorem: every irredundant generating set of a
    p-group has d(G) = log_p |G : Phi(G)| members, and the reverse pass
    leaves the greedy sequence irredundant."""
    G = gl3 if params is None else cons.build(family, params)[0].group
    p = prime_power(G.n)[0]
    index, d = G.n // len(G.frattini()), 0
    while index > 1:
        index, d = index // p, d + 1
    assert len(G.generating_sequence()) == d


def _evaluate_one_at_a_time(search, rows, k):
    """Reference for _HomSearch._evaluate, one row and one element at a
    time: assign the image of every element of <gens[:k]> by a walk from
    e and gens[:k], then check every (element, generator) edge, then
    injectivity.  Returns what _evaluate returns: the surviving row
    indices and their images, columns in the level's order."""
    G, H, gens = search.G, search.H, search.gens[:k]
    order_k = search.levels[k - 1]["order"].tolist()
    keep, images = [], []
    for r, row in enumerate(rows.tolist()):
        phi = {G.e: H.e}
        phi.update(zip(gens, row))
        queue = deque(phi)
        while queue:
            s = queue.popleft()
            for g, x in zip(gens, row):
                t = int(G.mul[s, g])
                if t not in phi:
                    phi[t] = int(H.mul[phi[s], x])
                    queue.append(t)
        if (all(H.mul[phi[s], x] == phi[int(G.mul[s, g])]
                for s in phi for g, x in zip(gens, row)) and
                len(set(phi.values())) == len(phi)):
            keep.append(r)
            images.append([phi[x] for x in order_k])
    return (np.array(keep, dtype=np.int64),
            np.array(images, dtype=np.int64).reshape(-1, len(order_k)))


@pytest.mark.parametrize("build", [
    lambda: cons.extraspecial2(2, "+").group,
    lambda: cons.extraspecial2(2, "-").group,
    lambda: cons.suzuki_A(3, 1).group,
    lambda: cons.heisenberg_trace((5, 1), (5, 1), 2).group,
    vs.q8_on_c3c3,
], ids=["es2(2,+)", "es2(2,-)", "suzukiA(3)", "line7(5,2,1,1)",
        "q8_on_c3c3"])
def test_staged_evaluation_matches_reference(build, monkeypatch):
    """Random candidate rows drawn from the buckets, mixed with the
    generator images of true automorphisms so that every level has
    survivors: the staged evaluation keeps the same rows, in the same
    order, with the same images, as the one-at-a-time reference.  So
    automorphism_group returns the same generators with either."""
    G = build()
    search = ge._HomSearch(G, G)
    auts = all_automorphisms(G)
    gens, order = ge.automorphism_group(G)
    assert order == len(auts)
    rng = np.random.default_rng(13)
    pruned = False
    for k in range(1, search.k_total + 1):
        rand = np.stack([rng.choice(b, 300) for b in search.buckets[:k]],
                        axis=1)
        true = auts[rng.choice(len(auts), 40)][:, search.gens[:k]]
        rows = rng.permutation(np.concatenate([rand, true]))
        keep, phi = search._evaluate(rows, k)
        ref_keep, ref_phi = _evaluate_one_at_a_time(search, rows, k)
        assert np.array_equal(keep, ref_keep), k
        assert np.array_equal(phi, ref_phi), k
        assert len(ref_keep) >= 40
        pruned |= len(ref_keep) < len(rows)
    assert pruned

    monkeypatch.setattr(ge._HomSearch, "_evaluate", _evaluate_one_at_a_time)
    ref_gens, ref_order = ge.automorphism_group(G)
    assert ref_order == order and np.array_equal(ref_gens, gens)


@pytest.mark.parametrize("build", [
    lambda: cons.extraspecial2(2, "-").group,
    vs.q8_on_c3c3,
    lambda: cons.heisenberg_trace((3, 1), (3, 1), 2).group,
], ids=["es2(2,-)", "q8_on_c3c3", "line7(3,2,1,1)"])
def test_aut_search_across_block_boundaries(build, monkeypatch):
    """With BLOCK_CELLS at 3n, _extend takes one parent row per chunk,
    so the search meets a block boundary after nearly every row: the
    generators, row for row, and |Aut| stay those of the full blocks.
    The group is built first, because table_dtype reads BLOCK_CELLS."""
    G = build()
    gens, order = ge.automorphism_group(G)
    monkeypatch.setattr(ge, "BLOCK_CELLS", 3 * G.n)
    small_gens, small_order = ge.automorphism_group(G)
    assert small_order == order and np.array_equal(small_gens, gens)


def test_iso_search_across_block_boundaries(monkeypatch):
    """The find-first search returns the same map when its blocks are
    cut to 3n cells."""
    G, H = cons.suzuki_A(3, 1).group, cons.suzuki_A(3, 2).group
    phi = ge.find_isomorphism(G, H)
    assert phi is not None
    monkeypatch.setattr(ge, "BLOCK_CELLS", 3 * G.n)
    assert np.array_equal(ge.find_isomorphism(G, H), phi)
