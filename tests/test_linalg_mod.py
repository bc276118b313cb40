import hashlib
import itertools
import math

import numpy as np
import pytest

from orbitforge import linalg_mod as lm
from orbitforge.gf_arith import field_create
from helpers import wedge_vec

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F9 = field_create(3, 2)


def test_inverse_and_rank():
    rng = np.random.RandomState(0)
    for _ in range(50):
        while True:
            g = rng.randint(0, 3, size=(3, 3)).astype(np.int64)
            if lm.mat_det(F3, g) != 0:
                break
        gi = lm.mat_inv(F3, g)
        assert np.array_equal(lm.vec_batch_apply(F3, g, gi),
                              lm.identity_mat(3))
        assert len(lm.nullspace_basis(F3, g)) == 0
    sing = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    ns = lm.nullspace_basis(F3, sing)
    assert len(ns) == 1
    assert np.all(lm.vec_batch_apply(F3, ns, sing) == 0)


def test_det_against_numpy():
    rng = np.random.RandomState(1)
    for _ in range(200):
        g = rng.randint(0, 3, size=(4, 4)).astype(np.int64)
        d1 = lm.mat_det(F3, g)
        d2 = int(round(np.linalg.det(g.astype(float)))) % 3
        assert d1 == d2


def test_wedge_diagonal():
    # diag(a,b,c) acts on the wedge basis as diag(bc, ca, ab) up to the
    # basis ordering used by wedge_basis
    for (a, b, c) in itertools.product(range(1, 3), repeat=3):
        g = np.diag([a, b, c]).astype(np.int64)
        w = lm.wedge_power_matrix(F3, g, 2)
        got = sorted(int(w[i, i]) for i in range(3))
        exp = sorted([F3.mul_elems(b, c), F3.mul_elems(c, a),
                      F3.mul_elems(a, b)])
        assert np.count_nonzero(w) == 3 and got == exp


def test_wedge_functorial():
    rng = np.random.RandomState(2)
    for F, d, trials in ((F9, 3, 40), (F3, 4, 40)):
        done = 0
        while done < trials:
            g = rng.randint(0, F.q, size=(d, d)).astype(np.int64)
            h = rng.randint(0, F.q, size=(d, d)).astype(np.int64)
            if lm.mat_det(F, g) == 0 or lm.mat_det(F, h) == 0:
                continue
            done += 1
            lhs = lm.wedge_power_matrix(F, lm.vec_batch_apply(F, g, h), 2)
            rhs = lm.vec_batch_apply(F, lm.wedge_power_matrix(F, g, 2),
                                     lm.wedge_power_matrix(F, h, 2))
            assert np.array_equal(lhs, rhs)


def test_wedge_det_exhaustive_gl3_3():
    cnt = 0
    for flat in itertools.product(range(3), repeat=9):
        g = np.array(flat, dtype=np.int64).reshape(3, 3)
        dg = lm.mat_det(F3, g)
        if dg == 0:
            continue
        cnt += 1
        w = lm.wedge_power_matrix(F3, g, 2)
        assert lm.mat_det(F3, w) == F3.mul_elems(dg, dg)
    assert cnt == 11232          # |GL_3(3)|


def test_wedge_vec_compatible():
    rng = np.random.RandomState(3)
    for _ in range(100):
        u = rng.randint(0, 9, size=3).astype(np.int64)
        v = rng.randint(0, 9, size=3).astype(np.int64)
        g = rng.randint(0, 9, size=(3, 3)).astype(np.int64)
        if lm.mat_det(F9, g) == 0:
            continue
        lhs = wedge_vec(F9, lm.vec_batch_apply(F9, u, g),
                           lm.vec_batch_apply(F9, v, g), 3)
        rhs = lm.vec_batch_apply(F9, wedge_vec(F9, u, v, 3),
                                 lm.wedge_power_matrix(F9, g, 2))
        assert np.array_equal(lhs, rhs)


def test_wedge_kernel_scalars():
    # lambda I acts on wedge^k as lambda^k, so the scalars in the kernel
    # of g -> wedge^k g are the gcd(k, q - 1) roots of lambda^k = 1
    for F, d, k in ((F9, 3, 2), (F4, 2, 2), (F3, 3, 3)):
        kernel = 0
        for lam in range(1, F.q):
            w = lm.wedge_power_matrix(F, lam * lm.identity_mat(d), k)
            lam_k = F.pow_elem(lam, k)
            assert np.array_equal(w, lam_k * lm.identity_mat(len(w)))
            kernel += lam_k == 1
        assert kernel == math.gcd(k, F.q - 1)
    # wedge^d is the determinant, so SL_d lies in the kernel
    for flat in itertools.product(range(F4.q), repeat=4):
        g = np.array(flat, dtype=np.int64).reshape(2, 2)
        if lm.mat_det(F4, g) == 1:
            assert lm.wedge_power_matrix(F4, g, 2).tolist() == [[1]]


def test_symplectic_transvections():
    gens = lm.symplectic_transvection_gens(F9, 2)
    assert len(gens) == (9 + 1) * 2
    J = lm.standard_symplectic(F9, 2)
    for g in gens:
        assert lm.sp_multiplier(F9, J, g) == 1


def test_sp_lambda2_submodules():
    for ell, q in ((2, 3), (3, 3), (2, 2), (2, 5)):
        rep = lm.sp_lambda2_submodules(ell, q)
        assert rep["ok"], (ell, q, rep)
        assert rep["D_invariant"] and rep["W_invariant"]
        assert rep["D_in_W"] == rep["expected_D_in_W"]


def test_nullspace_non_prime_fields():
    rng = np.random.RandomState(4)
    for F in (F4, F9):
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 6)
            M = rng.randint(0, F.q, size=(rows, cols)).astype(np.int64)
            if rng.rand() < 0.5:     # a repeated row: a nonzero kernel
                M = np.vstack([M, M[-1]])
            ns = lm.nullspace_basis(F, M)
            assert ns.shape[1] == len(M)
            assert not lm.vec_batch_apply(F, ns, M).any()
            # the rows span the whole left kernel, counted by brute force
            V = np.array(list(itertools.product(range(F.q), repeat=len(M))))
            kernel = np.count_nonzero(~lm.vec_batch_apply(F, V, M).any(1))
            assert kernel == F.q ** len(ns)


def test_inverse_gf9():
    rng = np.random.RandomState(5)
    done = 0
    while done < 40:
        g = rng.randint(0, 9, size=(3, 3)).astype(np.int64)
        if lm.mat_det(F9, g) == 0:
            with pytest.raises(ValueError, match="singular"):
                lm.mat_inv(F9, g)
            continue
        done += 1
        gi = lm.mat_inv(F9, g)
        eye = lm.identity_mat(3)
        assert np.array_equal(lm.vec_batch_apply(F9, g, gi), eye)
        assert np.array_equal(lm.vec_batch_apply(F9, gi, g), eye)
    sing = np.array([[1, 2, 5], [0, 0, 0], [4, 0, 1]], dtype=np.int64)
    sing[1] = F9.mul[3, sing[0]]     # row 1 is t times row 0
    with pytest.raises(ValueError, match="singular"):
        lm.mat_inv(F9, sing)


def test_sp_multiplier_similitude():
    J = lm.standard_symplectic(F9, 2)
    for lam in range(2, 9):
        # diag(lam, 1) scales f(e_0, e_1) by lam
        assert lm.sp_multiplier(F9, J, np.diag([lam, 1])) == lam
    # on d = 2 every matrix scales the form by its determinant
    assert lm.sp_multiplier(F9, J, np.array([[1, 1], [1, 1]])) == 0
    # e_0 -> e_0 + e_2 pairs e_0 with e_3, which the form keeps apart
    g = lm.identity_mat(4)
    g[0, 2] = 1
    assert lm.sp_multiplier(F9, lm.standard_symplectic(F9, 4), g) is None


def test_transvections_gf9_pinned():
    gens = np.array(lm.symplectic_transvection_gens(F9, 4))
    assert gens.shape == (1640, 4, 4)
    assert hashlib.sha256(gens.tobytes()).hexdigest()[:16] == \
        "d7f822853ae004fe"
