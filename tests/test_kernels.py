"""Kernel pair agreement: the numba path and the numpy path must give
identical answers, the streamed orbit labels must equal one unblocked
kernel run, the generator-row homomorphism proof must agree with the
full table, and ORBITFORGE_PURE_NUMPY=1 must force the numpy path."""

import itertools
import os
import subprocess
import sys

import numpy as np

from orbitforge import _kernels as K
from orbitforge import constructions as cons
from orbitforge import group_engine as ge


def _random_perms(rng, k, n):
    return np.array([rng.permutation(n) for _ in range(k)], dtype=np.int64)


def _cyclic_mul(n):
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def test_orbit_labels_basic():
    n = 12
    shift = np.roll(np.arange(n), 1)
    lab = K.orbit_labels(shift[None, :], n)
    assert np.all(lab == 0)
    # two 6-cycles
    two = np.concatenate([np.roll(np.arange(6), 1), 6 + np.roll(np.arange(6), 1)])
    lab = K.orbit_labels(two[None, :], n)
    assert set(lab.tolist()) == {0, 6}
    # no generators: everything is its own orbit
    assert np.array_equal(K.orbit_labels(np.empty((0, 5)), 5), np.arange(5))


def test_orbit_labels_paths_agree():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 400))
        k = int(rng.integers(1, 6))
        perms = _random_perms(rng, k, n)
        ref = K._orbit_labels_np(perms, n)
        assert np.array_equal(K.orbit_labels(perms, n), ref)
        if K.HAS_NUMBA:
            assert np.array_equal(K._orbit_labels_nb(perms, n), ref)
        # labels are the least member of each orbit
        for v in np.unique(ref):
            members = np.nonzero(ref == v)[0]
            assert members.min() == v


def test_closure_paths_agree():
    mul = _cyclic_mul(24)
    for seed in ([0], [1], [8], [6, 8], [18]):
        got = K.closure_subgroup(mul, np.array(seed))
        ref = K._closure_np(np.asarray(mul, dtype=np.int64),
                            np.asarray(seed, dtype=np.int64))
        assert np.array_equal(got, np.sort(ref))
        # closed under the table
        sub = set(got.tolist())
        assert all(mul[a, b] in sub for a in sub for b in sub)
    assert len(K.closure_subgroup(mul, np.array([1]))) == 24
    assert len(K.closure_subgroup(mul, np.array([8]))) == 3


def _transposition_perms(rng, k, n):
    """k rows, each the identity with one random pair of points swapped:
    every row adds one edge, so classes merge slowly across blocks."""
    perms = np.tile(np.arange(n, dtype=np.int64), (k, 1))
    for row in perms:
        i, j = rng.choice(n, size=2, replace=False)
        row[[i, j]] = row[[j, i]]
    return perms


def _streamed_cases():
    rng = np.random.default_rng(11)
    yield _transposition_perms(rng, 1500, 2000), 2000
    yield _transposition_perms(rng, 3000, 97), 97
    yield _random_perms(rng, 700, 300), 300
    G = cons.suzuki_B(3).group
    assert G.n == 512
    conj = np.array([G.conjugation_perm(g) for g in range(G.n)])
    yield conj, G.n


def test_orbit_labels_streamed_blocks():
    for perms, n in _streamed_cases():
        assert perms.size > 3 * K.BLOCK_CELLS
        ref = K._orbit_labels_np(perms, n)     # one block, no skipping
        assert np.array_equal(K.orbit_labels(perms, n), ref)
        # start= chaining over a split of the rows gives the same classes
        cuts = sorted(np.random.default_rng(n).choice(len(perms), 3,
                                                      replace=False))
        lab = None
        for part in np.split(perms, cuts):
            lab = K.orbit_labels(part, n, start=lab)
        assert np.array_equal(lab, ref)


def test_orbit_labels_block_bound(monkeypatch):
    name = "_orbit_labels_nb" if K.HAS_NUMBA else "_orbit_labels_np"
    inner = getattr(K, name)
    rows = []

    def spy(perms, n):
        rows.append(perms.shape[0])
        return inner(perms, n)

    monkeypatch.setattr(K, name, spy)
    rng = np.random.default_rng(3)
    n = 300
    perms = _transposition_perms(rng, 900, n)
    assert np.array_equal(K.orbit_labels(perms, n), inner(perms, n))
    # each kernel call sees one block plus the row of current labels
    assert rows and max(rows) <= K.BLOCK_CELLS // n + 1


def test_hom_on_generators():
    mul = _cyclic_mul(30).astype(np.int64)
    G = ge.FiniteGroup(list(range(30)), mul)
    ident = np.arange(30, dtype=np.int64)
    neg = (-ident) % 30
    dbl = (2 * ident) % 30          # not injective but still a homomorphism
    bad = ident.copy()
    bad[[3, 7]] = bad[[7, 3]]
    # a bijection that respects the row of 2, the generator of the proper
    # subgroup of even residues, but not the row of 1: odd x -> x + 2
    sub = np.where(ident % 2, (ident + 2) % 30, ident)
    assert np.array_equal(np.sort(sub), ident)
    assert np.array_equal(sub[mul[2]], mul[sub[2], sub])
    assert not np.array_equal(sub[mul[1]], mul[sub[1], sub])
    got = ge.hom_on_generators(G, G, np.stack([ident, neg, bad, dbl, sub]))
    assert got.tolist() == [True, True, False, True, False]
    assert ge.hom_on_generators(G, G, np.empty((0, 30))).shape == (0,)


def test_hom_on_generators_matches_full_table():
    # every bijection of S3 and of Q8 fixing the identity: the generator
    # proof agrees with the full n^2 table check, between distinct groups
    # too (H is G relabelled)
    elems = list(itertools.permutations(range(3)))
    s3 = ge.FiniteGroup(elems, [[elems.index(tuple(a[i] for i in b))
                                 for b in elems] for a in elems])
    q8 = cons.extraspecial2(1, "-").group
    for G in (s3, q8):
        rest = [i for i in range(G.n) if i != G.e]
        phis = np.array([[G.e] + list(p) for p in
                         itertools.permutations(rest)], dtype=np.int64)
        phis = phis[:, np.argsort([G.e] + rest)]
        relabel = np.random.default_rng(G.n).permutation(G.n)
        back = np.argsort(relabel)
        H = ge.FiniteGroup(list(range(G.n)), relabel[G.mul[back][:, back]])
        for K2, maps in ((G, phis), (H, relabel[phis])):
            full = np.array([np.array_equal(ph[G.mul],
                                            K2.mul[ph[:, None], ph[None, :]])
                             for ph in maps])
            assert full.any() and not full.all()
            assert np.array_equal(ge.hom_on_generators(G, K2, maps), full)


def test_env_flag_forces_numpy():
    code = ("import orbitforge._kernels as K; import numpy as np;"
            "print(K.HAS_NUMBA, K.orbit_labels("
            "np.roll(np.arange(6),1)[None,:], 6).tolist())")
    env = dict(os.environ, ORBITFORGE_PURE_NUMPY="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    flag, rest = out.stdout.split(None, 1)
    assert flag == "False"
    assert rest.strip() == "[0, 0, 0, 0, 0, 0]"
