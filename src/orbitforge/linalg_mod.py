"""Vectors, matrices, and forms over finite fields.

Matrices are numpy (d, d) arrays of field element indices and act on row
vectors: v -> v @ g in field arithmetic.  Wedge squares use the basis
e_i^e_j, i < j, in lexicographic order, except d = 3, k = 2 where the
cyclic basis (e2^e3, e3^e1, e1^e2) is used so that g^g = det(g) g^{-T}
holds entrywise.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .gf_arith import field_create, prime_power


# ------------------------------------------------------------ matrix algebra

def identity_mat(d):
    return np.eye(d, dtype=np.int64)


def mat_mul(F, A, B):
    d = A.shape[0]
    C = np.zeros((d, B.shape[1]), dtype=np.int64)
    for k in range(B.shape[0]):
        C = F.add[C, F.mul[A[:, k][:, None], B[k, :][None, :]]]
    return C


def mat_vec(F, v, M):
    """Row vector image v @ M."""
    out = np.zeros(M.shape[1], dtype=np.int64)
    for i in range(len(v)):
        out = F.add[out, F.mul[v[i], M[i]]]
    return out


def vec_batch_apply(F, V, M):
    """Apply M to each row of V (shape (m, d))."""
    out = np.zeros((V.shape[0], M.shape[1]), dtype=np.int64)
    for i in range(M.shape[0]):
        out = F.add[out, F.mul[V[:, i][:, None], M[i][None, :]]]
    return out


def mat_det(F, M):
    A = M.copy()
    d = A.shape[0]
    det = 1
    for col in range(d):
        piv = None
        for r in range(col, d):
            if A[r, col] != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            det = F.neg_elem(det)
        det = F.mul_elems(det, int(A[col, col]))
        inv_p = F.inv_elem(int(A[col, col]))
        for r in range(col + 1, d):
            if A[r, col] != 0:
                c = F.mul_elems(int(A[r, col]), inv_p)
                A[r] = F.add[A[r], F.neg[F.mul[c, A[col]]]]
    return det


def mat_inv(F, M):
    d = M.shape[0]
    A = M.copy()
    I = identity_mat(d)
    for col in range(d):
        piv = None
        for r in range(col, d):
            if A[r, col] != 0:
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            I[[col, piv]] = I[[piv, col]]
        inv_p = F.inv_elem(int(A[col, col]))
        A[col] = F.mul[inv_p, A[col]]
        I[col] = F.mul[inv_p, I[col]]
        for r in range(d):
            if r != col and A[r, col] != 0:
                c = int(A[r, col])
                A[r] = F.add[A[r], F.neg[F.mul[c, A[col]]]]
                I[r] = F.add[I[r], F.neg[F.mul[c, I[col]]]]
    return I


def nullspace_basis(F, M):
    """Rows spanning {v : v @ M = 0}. Gaussian elimination on M^T."""
    A = M.T.copy()
    rows, cols = A.shape
    pivots = []
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if A[r, col] != 0:
                piv = r
                break
        if piv is None:
            continue
        A[[rank, piv]] = A[[piv, rank]]
        inv_p = F.inv_elem(int(A[rank, col]))
        A[rank] = F.mul[inv_p, A[rank]]
        for r in range(rows):
            if r != rank and A[r, col] != 0:
                c = int(A[r, col])
                A[r] = F.add[A[r], F.neg[F.mul[c, A[rank]]]]
        pivots.append(col)
        rank += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg_elem(int(A[r, fc]))
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), cols)


# ------------------------------------------------------------------- forms

@dataclass(frozen=True)
class BilinearForm:
    field: object
    gram: np.ndarray
    alternating: bool
    non_degenerate: bool


def standard_symplectic(F, d):
    if d % 2 != 0 or d < 2:
        raise ValueError("d must be even and >= 2")
    gram = np.zeros((d, d), dtype=np.int64)
    for i in range(0, d, 2):
        gram[i, i + 1] = 1
        gram[i + 1, i] = F.neg_elem(1)
    return BilinearForm(F, gram, alternating=True, non_degenerate=True)


def form_eval(form, u, v):
    F = form.field
    w = mat_vec(F, np.asarray(u, dtype=np.int64), form.gram)
    acc = 0
    for i in range(len(v)):
        acc = F.add_elems(acc, F.mul_elems(int(w[i]), int(v[i])))
    return acc


# ------------------------------------------------------------------- wedges

def wedge_basis(d, k):
    if d == 3 and k == 2:
        return [(1, 2), (2, 0), (0, 1)]
    return list(itertools.combinations(range(d), k))


def wedge_vec(F, u, v, d):
    """Coordinates of u^v in the wedge basis (k = 2)."""
    basis = wedge_basis(d, 2)
    out = np.zeros(len(basis), dtype=np.int64)
    for r, (i, j) in enumerate(basis):
        a = F.mul_elems(int(u[i]), int(v[j]))
        b = F.mul_elems(int(u[j]), int(v[i]))
        out[r] = F.add_elems(a, F.neg_elem(b))
    return out


def wedge_power_matrix(F, g, k):
    d = g.shape[0]
    if k > d:
        raise ValueError("k must be <= d")
    if mat_det(F, g) == 0:
        raise ValueError("singular matrix")
    if k == d:
        return np.array([[mat_det(F, g)]], dtype=np.int64)
    if k != 2:
        raise ValueError("only k = 2 (or k = d) wedge powers are supported")
    basis = wedge_basis(d, 2)
    M = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for r, (i, j) in enumerate(basis):
        for s, (a, b) in enumerate(basis):
            t1 = F.mul_elems(int(g[i, a]), int(g[j, b]))
            t2 = F.mul_elems(int(g[i, b]), int(g[j, a]))
            M[r, s] = F.add_elems(t1, F.neg_elem(t2))
    return M


# --------------------------------------------- Sp generators and submodules

def symplectic_transvection_gens(F, d, form=None):
    """Transvections x -> x + lambda f(x, v) v, for v over all projective
    directions and lambda over a GF(p)-basis of F.  Basis directions alone
    generate a proper subgroup for d >= 4 (they never mix hyperbolic
    planes), hence the full sweep."""
    if form is None:
        form = standard_symplectic(F, d)
    gens = []
    seen_dirs = set()
    for flat in itertools.product(range(F.q), repeat=d):
        v = np.array(flat, dtype=np.int64)
        if not v.any():
            continue
        # canonical projective representative: first nonzero coordinate = 1
        nz = int(np.nonzero(v)[0][0])
        if v[nz] != 1:
            continue
        key = tuple(v.tolist())
        if key in seen_dirs:
            continue
        seen_dirs.add(key)
        for s in range(F.k):
            lam = F.p ** s  # t^s, a GF(p)-basis element of F
            T = identity_mat(d)
            fv = np.array([form_eval(form, identity_mat(d)[i], v)
                           for i in range(d)], dtype=np.int64)
            for i in range(d):
                coef = F.mul_elems(lam, int(fv[i]))
                T[i] = F.add[T[i], F.mul[coef, v]]
            gens.append(T)
    return gens


def sp_multiplier(F, form, g):
    """delta with f(ug, vg) = delta f(u, v) on all basis pairs; None if
    the form is not preserved up to a single scalar."""
    d = form.gram.shape[0]
    E = identity_mat(d)
    images = [mat_vec(F, E[i], g) for i in range(d)]
    delta = None
    pairs = []
    for i in range(d):
        for j in range(d):
            lhs = form_eval(form, images[i], images[j])
            rhs = form_eval(form, E[i], E[j])
            pairs.append((lhs, rhs))
            if rhs != 0 and delta is None:
                delta = F.mul_elems(lhs, F.inv_elem(rhs))
    if delta is None:
        return None
    for lhs, rhs in pairs:
        if lhs != F.mul_elems(delta, rhs):
            return None
    return delta


def sp_lambda2_submodules(ell, q):
    """Invariance of D = <sum e_{2i-1}^e_{2i}> and W = ker(gram functional)
    inside Lambda^2 of GF(q)^{2 ell} under Sp generators, and the D <= W
    test (which must come out as p | ell)."""
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p = pk[0]
    F = field_create(*pk)
    d = 2 * ell
    form = standard_symplectic(F, d)
    basis = wedge_basis(d, 2)
    omega = np.zeros(len(basis), dtype=np.int64)
    for r, (i, j) in enumerate(basis):
        if j == i + 1 and i % 2 == 0:
            omega[r] = 1
    # functional: sum lam_ij f(e_i, e_j)
    func = np.array([form_eval(form, identity_mat(d)[i], identity_mat(d)[j])
                     for (i, j) in basis], dtype=np.int64).reshape(-1, 1)
    W_basis = nullspace_basis(F, func)
    gens = symplectic_transvection_gens(F, d, form)
    dim_w = W_basis.shape[0]

    def in_W(vec):
        acc = 0
        for r in range(len(vec)):
            acc = F.add_elems(acc, F.mul_elems(int(vec[r]), int(func[r, 0])))
        return acc == 0

    D_invariant = True
    W_invariant = True
    for g in gens:
        wg = wedge_power_matrix(F, g, 2)
        img = mat_vec(F, omega, wg)
        # image must be a scalar multiple of omega
        ratio = None
        okD = True
        for r in range(len(basis)):
            if omega[r] == 0:
                if img[r] != 0:
                    okD = False
            else:
                c = F.mul_elems(int(img[r]), F.inv_elem(int(omega[r])))
                if ratio is None:
                    ratio = c
                elif ratio != c:
                    okD = False
        D_invariant = D_invariant and okD
        for row in W_basis:
            if not in_W(mat_vec(F, row, wg)):
                W_invariant = False
    d_in_w = in_W(omega)
    return {
        "ell": ell, "q": q,
        "dim_lambda2": len(basis),
        "dim_W": dim_w,
        "D_invariant": D_invariant,
        "W_invariant": W_invariant,
        "D_in_W": d_in_w,
        "expected_D_in_W": (ell % p == 0),
        "ok": D_invariant and W_invariant and (d_in_w == (ell % p == 0)),
    }
