"""Vectors, matrices, and forms over finite fields.

Matrices are numpy (d, d) arrays of field element indices and act on row
vectors: v -> v @ g in field arithmetic.  There is one product,
vec_batch_apply, and one Gauss-Jordan reduction, _row_reduce, from which
mat_det, mat_inv and nullspace_basis all read.  A bilinear form is its
Gram matrix G, f(u, v) = u G v^T, so forms are evaluated by products as
well, all through form_matrix.  Wedge squares use the basis e_i^e_j,
i < j, in lexicographic order, except d = 3, k = 2 where the cyclic
basis (e2^e3, e3^e1, e1^e2) is used so that g^g = det(g) g^{-T} holds
entrywise.
"""

import itertools

import numpy as np

from .gf_arith import field_create, prime_power


# ------------------------------------------------------------ matrix algebra

def identity_mat(d):
    return np.eye(d, dtype=np.int64)


def vec_batch_apply(F, V, M):
    """Each row of V (shape (m, d), or a single row of shape (d,)) times
    M; a matrix product when V is a matrix."""
    V = np.asarray(V, dtype=np.int64)
    out = F.mul[V[..., 0, None], M[0]]
    for i in range(1, M.shape[0]):
        out = F.add[out, F.mul[V[..., i, None], M[i]]]
    return out


def _row_reduce(F, M):
    """Gauss-Jordan elimination: (R, pivots, det) with R the reduced row
    echelon form of M, pivots its pivot columns, and det the determinant
    of M when M is square (0 when it is singular or not square)."""
    R = np.array(M, dtype=np.int64)
    rows, cols = R.shape
    pivots, det = [], 1
    for col in range(cols):
        r = len(pivots)
        nz = np.flatnonzero(R[r:, col])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
            det = F.neg_elem(det)
        det = F.mul_elems(det, int(R[r, col]))
        R[r] = F.mul[F.inv_elem(int(R[r, col])), R[r]]
        c = R[:, col].copy()
        c[r] = 0
        R = F.add[R, F.neg[F.mul[c[:, None], R[r]]]]
        pivots.append(col)
    return R, pivots, det if len(pivots) == rows == cols else 0


def mat_det(F, M):
    return _row_reduce(F, M)[2]


def mat_inv(F, M):
    d = M.shape[0]
    R, pivots, _ = _row_reduce(F, np.hstack([M, identity_mat(d)]))
    if pivots != list(range(d)):
        raise ValueError("singular matrix")
    return R[:, d:]


def nullspace_basis(F, M):
    """Rows spanning {v : v @ M = 0}, one per free column of the reduced
    echelon form of M^T."""
    R, pivots, _ = _row_reduce(F, M.T)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = F.neg[R[:len(pivots), free].T]
    return basis


# ------------------------------------------------------------------- forms

def form_matrix(F, U, gram, W):
    """The values f(u, w) = u G w^T of the form with Gram matrix G, for
    every row u of U and w of W: the (len(U), len(W)) matrix U G W^T."""
    return vec_batch_apply(F, vec_batch_apply(F, U, gram), W.T)


def standard_symplectic(F, d):
    """Gram matrix of the standard alternating form: f(e_2i, e_2i+1) = 1
    and f(e_2i+1, e_2i) = -1, all other basis pairs 0."""
    if d % 2 != 0 or d < 2:
        raise ValueError("d must be even and >= 2")
    gram = np.zeros((d, d), dtype=np.int64)
    even = np.arange(0, d, 2)
    gram[even, even + 1] = 1
    gram[even + 1, even] = F.neg_elem(1)
    return gram


# ------------------------------------------------------------------- wedges

def wedge_basis(d, k):
    if d == 3 and k == 2:
        return [(1, 2), (2, 0), (0, 1)]
    return list(itertools.combinations(range(d), k))


def wedge_power_matrix(F, g, k):
    d = g.shape[0]
    if k > d:
        raise ValueError("k must be <= d")
    det = mat_det(F, g)
    if det == 0:
        raise ValueError("singular matrix")
    if k == d:
        return np.array([[det]], dtype=np.int64)
    if k != 2:
        raise ValueError("only k = 2 (or k = d) wedge powers are supported")
    # entry (r, s) is the 2x2 minor of g on rows basis[r], columns basis[s]
    i, j = np.array(wedge_basis(d, 2)).T
    r, c = i[:, None], j[:, None]
    return F.add[F.mul[g[r, i], g[c, j]], F.neg[F.mul[g[r, j], g[c, i]]]]


# --------------------------------------------- Sp generators and submodules

def symplectic_transvection_gens(F, d):
    """Transvections x -> x + lambda f(x, v) v of the standard form f,
    for v over all projective directions and lambda over a GF(p)-basis
    of F.  Basis directions alone generate a proper subgroup for d >= 4
    (they never mix hyperbolic planes), hence the full sweep."""
    gram = standard_symplectic(F, d)
    eye = identity_mat(d)
    gens = []
    for flat in itertools.product(range(F.q), repeat=d):
        v = np.array(flat, dtype=np.int64)
        nz = np.flatnonzero(v)
        # canonical projective representative: first nonzero coordinate = 1
        if not nz.size or v[nz[0]] != 1:
            continue
        fv = vec_batch_apply(F, gram, v[:, None])[:, 0]   # f(e_i, v)
        for s in range(F.k):
            coef = F.mul[F.p ** s, fv]   # t^s, a GF(p)-basis element of F
            gens.append(F.add[eye, F.mul[coef[:, None], v]])
    return gens


def sp_multiplier(F, gram, g):
    """delta with g G g^T = delta G for the Gram matrix G; None if the
    form is not preserved up to a single scalar."""
    moved = form_matrix(F, g, gram, g)
    nz = np.flatnonzero(gram)
    if not nz.size:
        return None
    delta = F.mul_elems(int(moved.flat[nz[0]]),
                        F.inv_elem(int(gram.flat[nz[0]])))
    return delta if np.array_equal(moved, F.mul[delta, gram]) else None


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
    gram = standard_symplectic(F, d)
    i, j = np.array(wedge_basis(d, 2)).T
    omega = ((j == i + 1) & (i % 2 == 0)).astype(np.int64)
    r0 = int(np.flatnonzero(omega)[0])
    # functional: sum lam_ij f(e_i, e_j)
    func = gram[i, j][:, None]
    W_basis = nullspace_basis(F, func)

    D_invariant = True
    W_invariant = True
    for g in symplectic_transvection_gens(F, d):
        wg = wedge_power_matrix(F, g, 2)
        # the image must be a scalar multiple of omega (entries 0 or 1)
        img = vec_batch_apply(F, omega, wg)
        D_invariant &= np.array_equal(img, F.mul[img[r0], omega])
        W_img = vec_batch_apply(F, W_basis, wg)
        W_invariant &= not vec_batch_apply(F, W_img, func).any()
    d_in_w = not vec_batch_apply(F, omega, func).any()
    return {
        "ell": ell, "q": q,
        "dim_lambda2": len(i),
        "dim_W": W_basis.shape[0],
        "D_invariant": D_invariant,
        "W_invariant": W_invariant,
        "D_in_W": d_in_w,
        "expected_D_in_W": (ell % p == 0),
        "ok": D_invariant and W_invariant and (d_in_w == (ell % p == 0)),
    }
