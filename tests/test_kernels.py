"""Kernels against references: the streamed orbit labels must equal one
unblocked kernel run, the subgroup closure must equal a plain Python
BFS from any start inside the result, and the generator-row
homomorphism proof must agree with the full table."""

import itertools
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

from orbitforge import _kernels as K
from orbitforge import constructions as cons
from orbitforge import group_engine as ge
from orbitforge import verify_suite as vs


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
        # labels are the least member of each orbit
        for v in np.unique(ref):
            members = np.nonzero(ref == v)[0]
            assert members.min() == v


def _bfs_closure(mul, seed):
    """The subgroup generated by seed: close {e} under multiplication by
    the seed elements, one element at a time."""
    e = int(np.flatnonzero(np.all(mul == np.arange(len(mul)), axis=1))[0])
    found, queue = {e}, deque([e])
    while queue:
        x = queue.popleft()
        for s in seed:
            y = int(mul[x, s])
            if y not in found:
                found.add(y)
                queue.append(y)
    return sorted(found)


def _s3_mul():
    elems = list(itertools.permutations(range(3)))
    return np.array([[elems.index(tuple(a[i] for i in b)) for b in elems]
                     for a in elems], dtype=np.int64)


def test_closure_matches_bfs():
    rng = np.random.default_rng(5)
    tables = [_cyclic_mul(24), _s3_mul(), cons.extraspecial2(1, "-").group.mul,
              vs.q8_on_c3c3().mul]
    for mul in tables:
        n = len(mul)
        e = _bfs_closure(mul, [])[0]
        seeds = [[int(g)] for g in range(n) if g != e]
        seeds += [sorted(rng.choice(n, size=k, replace=False).tolist())
                  for k in (2, 3) for _ in range(10)]
        seeds = [s for s in seeds if e not in s]
        for seed in seeds:
            ref = _bfs_closure(mul, seed)
            prefix = seed[:max(1, len(seed) - 1)]
            # members of <seed> without e: never a subgroup
            part = rng.choice([x for x in ref if x != e],
                              size=int(rng.integers(1, len(ref))),
                              replace=False)
            for start in ([], K.closure_subgroup(mul, prefix), ref, part):
                got = K.closure_subgroup(mul, np.array(seed), start)
                assert got.tolist() == ref
            # a whole member list closes to itself
            assert np.array_equal(K.closure_subgroup(mul, got), got)
    mul = _cyclic_mul(24)
    assert K.closure_subgroup(mul, np.array([0])).tolist() == [0]
    assert len(K.closure_subgroup(mul, np.array([1]))) == 24
    assert K.closure_subgroup(mul, np.array([8])).tolist() == [0, 8, 16]
    assert K.closure_subgroup(mul, np.array([6, 8])).tolist() == \
        list(range(0, 24, 2))
    # one generator of Z_512: a 512-step walk
    assert np.array_equal(K.closure_subgroup(_cyclic_mul(512), [1]),
                          np.arange(512))
    # a start that is no subgroup is walked, not just marked
    assert K.closure_subgroup(_cyclic_mul(6), [1], [2]).tolist() == \
        list(range(6))


def test_closure_refuses_empty_seed_under_optimize():
    # python -O strips assert statements, and an empty seed must still
    # raise there rather than return an empty "subgroup"
    script = "\n".join([
        "from orbitforge import _kernels as K",
        "print(__debug__)",
        "try:",
        "    K.closure_subgroup([[0]], [])",
        "except ValueError as exc:",
        "    print(exc)",
    ])
    src = os.path.dirname(os.path.dirname(K.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.stdout == "False\nclosure_subgroup: the seed is empty\n", \
        proc.stderr


_GROWERS = ("greedy_generators", "normal_closure")


@pytest.mark.parametrize("build", [
    lambda: cons.line2_frobenius(2, 5, 1, 1).group, vs.q8_on_c3c3,
    lambda: cons.suzuki_B(2).group, lambda: cons.extraspecial2(2, "+").group],
    ids=["line2_frobenius", "q8_on_c3c3", "suzuki_B", "extraspecial2"])
def test_group_closures_from_start_match_scratch(build, monkeypatch):
    """Every closure the group machinery grows from a known subgroup
    equals the closure of the same seed from scratch, and each of the
    two callers that pass a start does pass a non-empty one.  The
    subgroup lattice is walked too, so any closure it took would also be
    checked."""
    inner = K.closure_subgroup
    calls = []

    def spy(mul, seed, start=()):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in _GROWERS:
            frame = frame.f_back
        caller = frame.f_code.co_name if frame is not None else None
        got = inner(mul, seed, start)
        calls.append((caller, len(start)))
        assert np.array_equal(got, inner(mul, seed)), caller
        return got

    monkeypatch.setattr(ge, "closure_subgroup", spy)
    G = build()
    ge.characteristic_core(G)
    G.all_subgroups()
    G.class_labels()
    G.generating_sequence()
    for caller in _GROWERS:
        assert any(c == caller and k for c, k in calls), caller


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
    conj = G.conjugation_perm(np.arange(G.n))
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
    inner = K._orbit_labels_np
    rows = []

    def spy(perms, n):
        rows.append(perms.shape[0])
        return inner(perms, n)

    monkeypatch.setattr(K, "_orbit_labels_np", spy)
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
    s3 = ge.FiniteGroup(list(range(6)), _s3_mul())
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

