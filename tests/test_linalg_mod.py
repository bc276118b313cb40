import itertools
import math

import numpy as np

from orbitforge import linalg_mod as lm
from orbitforge.gf_arith import field_create

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
        assert np.array_equal(lm.mat_mul(F3, g, gi), lm.identity_mat(3))
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
            lhs = lm.wedge_power_matrix(F, lm.mat_mul(F, g, h), 2)
            rhs = lm.mat_mul(F, lm.wedge_power_matrix(F, g, 2),
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
        lhs = lm.wedge_vec(F9, lm.mat_vec(F9, u, g),
                           lm.mat_vec(F9, v, g), 3)
        rhs = lm.mat_vec(F9, lm.wedge_vec(F9, u, v, 3),
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
