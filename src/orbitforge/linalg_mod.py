"""Vectors, matrices, and forms over finite fields.

Matrices are numpy (d, d) arrays of field element indices and act on row
vectors: v -> v @ g in field arithmetic.  Wedge squares use the basis
e_i^e_j, i < j, in lexicographic order, except d = 3, k = 2 where the
cyclic basis (e2^e3, e3^e1, e1^e2) is used so that g^g = det(g) g^{-T}
holds entrywise.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gf_arith
from .gf_arith import field_create, trace_table


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


def mat_pow(F, M, e):
    R = identity_mat(M.shape[0])
    B = M
    while e:
        if e & 1:
            R = mat_mul(F, R, B)
        B = mat_mul(F, B, B)
        e >>= 1
    return R


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


def mat_rank(F, M):
    A = M.copy()
    rows, cols = A.shape
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
        rank += 1
    return rank


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


def wedge_kernel_report(F, d, k, sample=10_000, exhaustive=False, seed=0):
    """Scalar and determinant checks for the kernel of g -> wedge^k g."""
    report = {"field": (F.p, F.k), "d": d, "k": k}
    kernel_scalars = []
    for lam in range(1, F.q):
        lam_k = F.pow_elem(lam, k)
        if lam_k == 1:
            kernel_scalars.append(lam)
    # scalars act on the wedge by lambda^k, so membership is lambda^k = 1
    for lam in kernel_scalars:
        scalar_mat = np.where(identity_mat(d) == 1, lam, 0).astype(np.int64)
        M = wedge_power_matrix(F, scalar_mat, k)
        assert np.array_equal(M, identity_mat(M.shape[0]))
    report["kernel_scalar_count"] = len(kernel_scalars)
    report["kernel_scalar_count_expected"] = math.gcd(k, F.q - 1)
    report["scalars_ok"] = (len(kernel_scalars) == math.gcd(k, F.q - 1))
    if k == d:
        total = F.q ** (d * d)
        sl_ok = True
        if exhaustive or total <= 10 ** 6:
            count = 0
            for flat in itertools.product(range(F.q), repeat=d * d):
                g = np.array(flat, dtype=np.int64).reshape(d, d)
                if mat_det(F, g) == 1:
                    count += 1
                    if wedge_power_matrix(F, g, k)[0, 0] != 1:
                        sl_ok = False
        else:
            rng = np.random.RandomState(seed)
            count = 0
            while count < sample:
                g = rng.randint(0, F.q, size=(d, d)).astype(np.int64)
                det = mat_det(F, g)
                if det == 0:
                    continue
                # force determinant 1 by scaling the first row
                g[0] = [F.mul_elems(F.inv_elem(det), int(x)) for x in g[0]]
                count += 1
                if wedge_power_matrix(F, g, k)[0, 0] != 1:
                    sl_ok = False
        report["sl_in_kernel"] = sl_ok
        report["sl_checked"] = count
    return report


# --------------------------------------------------- trace hyperplane (U)

class TraceHyperplane:
    """Kernel U of  Lambda^2(V over GF(p)) -> F0,  v1^v2 -> Tr(f(v1, v2)).

    V = F^d with an alternating non-degenerate F-form f; everything is
    re-expressed over the prime field GF(p).  The quotient Lambda^2/U is
    identified with F0 itself: the coset label of a wedge coordinate
    vector is its image under the trace functional.
    """

    def __init__(self, form, F0_degree):
        F = form.field
        p = F.p
        if not form.alternating or not form.non_degenerate:
            raise ValueError("need an alternating non-degenerate form")
        if F.k % F0_degree != 0:
            raise ValueError("F0 must be a subfield")
        d = form.gram.shape[0]
        self.F = F
        self.F0 = field_create(p, F0_degree)
        self.Fp = field_create(p, 1)
        self.dim_V_p = d * F.k
        self.pair_basis = wedge_basis(self.dim_V_p, 2)
        tr = trace_table(F, F0_degree)
        # prime-field basis vector a = (coordinate i, field basis power s)
        basis_vecs = []
        for i in range(d):
            for s in range(F.k):
                v = np.zeros(d, dtype=np.int64)
                v[i] = p ** s  # field element t^s
                basis_vecs.append(v)
        self.basis_vecs = basis_vecs
        n0 = F0_degree
        # T[r] = F0-value (as digit vector) of the pair basis element r
        T = np.zeros((len(self.pair_basis), n0), dtype=np.int64)
        for r, (a, b) in enumerate(self.pair_basis):
            val = form_eval(form, basis_vecs[a], basis_vecs[b])
            T[r] = self.F0.digits_of(int(tr[val]))
        self.T = T
        self.codim = mat_rank(self.Fp, T)
        self.U_basis = nullspace_basis(self.Fp, T)
        self.form = form

    def quotient_label(self, wedge_coords):
        """F0 element index of the coset of U containing the given
        Lambda^2 coordinate vector (over GF(p))."""
        digs = (wedge_coords @ self.T) % self.F.p
        return int(self.F0.from_digits(list(digs)))


def trace_hyperplane(form, F0_degree):
    return TraceHyperplane(form, F0_degree)


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
    p = None
    for cand in range(2, q + 1):
        if gf_arith.is_prime(cand) and q % cand == 0:
            p = cand
            break
    k = 0
    qq = q
    while qq > 1:
        qq //= p
        k += 1
    F = field_create(p, k)
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
