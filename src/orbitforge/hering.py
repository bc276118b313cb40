"""Transitive linear groups: generator kits and closure diagnostics.

Matrix groups are given by small generator lists over a finite field and
act on row vectors.  Transitivity certificates come from orbit labels
propagated along the generators' permutations of the vectors
(_kernels.orbit_labels), never from full group enumeration.  Group
orders and solvable residuals come from stabilizer chains (permgroup)
of the faithful action on the q^d vectors, so no element list is ever
built; CLOSURE_CAP bounds the order any chain may reach.  The chains'
base is the d unit vectors, since a linear map fixing a basis is the
identity, so an element is stripped as its d base images; the
residual's candidates wait as base images too, and only the ones that
join are built on all q^d vectors.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg_mod as lm
from ._kernels import transitive_off
from .gf_arith import element_of_order, field_create, prime_power
from .permgroup import PermGroup

CLOSURE_CAP = 10 ** 6
VECTOR_CAP = 1 << 20


@dataclass
class MatrixGroupGens:
    field: tuple          # (p, k)
    d: int
    mats: list            # list of (d, d) int64 arrays of field indices
    label: str
    meta: dict = field(default_factory=dict)

    def field_obj(self):
        return field_create(*self.field)


def _check_vectors(q, d):
    if q ** d > VECTOR_CAP:
        raise ValueError("vector space exceeds cap %d: q^d = %d^%d = %d"
                         % (VECTOR_CAP, q, d, q ** d))


def _vector_perms(gens):
    F = gens.field_obj()
    d = gens.d
    n = F.q ** d
    _check_vectors(F.q, d)
    weights = F.q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    V = (idx[:, None] // weights[None, :]) % F.q
    perms = []
    for M in gens.mats:
        img = lm.vec_batch_apply(F, V, M)
        perms.append(img @ weights)
    return np.array(perms, dtype=np.int64), n, weights


def group_order(gens, cap=CLOSURE_CAP):
    """Order of the generated matrix group, from a stabilizer chain of
    its faithful action on the vectors; ValueError once it passes cap."""
    perms, n, weights = _vector_perms(gens)
    # weights index the unit vectors; a linear map fixing them is the identity
    return PermGroup(perms, n, weights, cap).order()


def transitive_on_nonzero(gens):
    """True iff the generated group has a single orbit on nonzero
    vectors (certified by orbit-label propagation along the generators,
    not group enumeration); the zero vector is index 0."""
    perms, n, _ = _vector_perms(gens)
    return transitive_off(perms, n, 0)


def gammaL1_gens(p, m):
    """Multiplication by a primitive field element (a Singer generator,
    transitive on its own) plus the Frobenius matrix, as GF(p) maps."""
    if p ** m > VECTOR_CAP:
        raise ValueError("field exceeds vector cap %d: q = %d^%d = %d"
                         % (VECTOR_CAP, p, m, p ** m))
    F = field_create(p, m)
    xi = element_of_order(F, F.q - 1) if F.q > 2 else 1
    basis = [F.from_digits([1 if t == i else 0 for t in range(m)])
             for i in range(m)]
    mult = np.array([F.digits_of(F.mul_elems(b, xi)) for b in basis],
                    dtype=np.int64)
    frob = np.array([F.digits_of(F.pow_elem(b, p)) for b in basis],
                    dtype=np.int64)
    Fp = field_create(p, 1)
    if F.q > 2:
        order = 1
        M = mult.copy()
        while not np.array_equal(M, lm.identity_mat(m)):
            M = lm.vec_batch_apply(Fp, M, mult)
            order += 1
        if order != F.q - 1:
            raise AssertionError("Singer generator has wrong order")
    return MatrixGroupGens((p, 1), m, [mult, frob], "gammaL1",
                           {"p": p, "m": m, "singer_order": F.q - 1})


def sp_gens(d, q):
    """Symplectic transvection generators; each is checked to preserve
    the standard alternating form exactly (multiplier 1)."""
    if d % 2 != 0:
        raise ValueError("d must be even")
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    F = field_create(*pk)
    _check_vectors(F.q, d)
    gram = lm.standard_symplectic(F, d)
    mats = lm.symplectic_transvection_gens(F, d)
    for M in mats:
        if lm.sp_multiplier(F, gram, M) != 1:
            raise AssertionError("transvection fails the form check")
    return MatrixGroupGens(pk, d, mats, "sp", {"d": d, "q": q})


def sl_gens(d, q):
    """Elementary transvections E_ij(t^s); determinant 1 checked."""
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    F = field_create(*pk)
    _check_vectors(F.q, d)
    mats = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for s in range(F.k):
                M = lm.identity_mat(d)
                M[i, j] = F.p ** s    # the field index of t^s
                if lm.mat_det(F, M) != 1:
                    raise AssertionError("elementary matrix determinant")
                mats.append(M)
    return MatrixGroupGens(pk, d, mats, "sl", {"d": d, "q": q})


def solvable_residual(gens, cap=CLOSURE_CAP):
    """Iterated derived subgroup until stable, returned by generators.

    Each derived subgroup is the normal closure of the commutators of
    the current generators: their conjugates by the current generators
    join until none is new.  A candidate joins only when the stabilizer
    chain built so far does not contain it, so each chain has only a
    few generators; the orders come from the chains.  The candidates
    wait as base images (the images of the unit vectors, a base since a
    linear map fixing a basis is the identity), one block strip at a
    time; only the one that joins is built as a full permutation, so
    `der` comes out in the order of one candidate at a time."""
    cur, n, base = _vector_perms(gens)
    order = PermGroup(cur, n, base, cap).order()
    while True:
        cur = np.asarray(cur)
        inv, k = np.argsort(cur, axis=1), len(cur)
        x = np.arange(k)
        der, chain = [], PermGroup([], n, base, cap)
        # the pending candidates in the order of one at a time: row
        # (-1, a, b) of `src` is a^-1 b^-1 a b, row (d, -1, x) is
        # x^-1 der[d] x, queued as der[d] joins
        a, b = np.divmod(np.arange(k * k), k)
        src = np.stack([np.full(k * k, -1), a, b], axis=1)
        images = cur[b[:, None], cur[a[:, None],
                                     inv[b[:, None], inv[a[:, None], base]]]]
        while len(miss := np.flatnonzero(
                np.logical_not(chain.members(images)))):
            d, i, j = src[miss[0]]
            g = cur[j][der[d][inv[j]]] if d >= 0 else \
                cur[j][cur[i][inv[j][inv[i]]]]
            if not chain.add(g):
                raise AssertionError("block strip disagrees with the "
                                     "full strip")
            der.append(g)
            src = np.concatenate([src[miss[1:]], np.stack(
                [np.full(k, len(der) - 1), np.full(k, -1), x], axis=1)])
            images = np.concatenate([images[miss[1:]],
                                     cur[x[:, None], g[inv[:, base]]]])
        perfect = chain.order() == order
        if perfect or chain.order() == 1:
            # row r of a matrix is the image of the basis vector e_r
            mats = [(g[base][:, None] // base % gens.field_obj().q)
                    for g in cur] if perfect else [lm.identity_mat(gens.d)]
            return MatrixGroupGens(gens.field, gens.d, mats,
                                   gens.label + "^inf",
                                   {"order": chain.order(),
                                    "perfect": perfect})
        cur, order = der, chain.order()


def _sl2_elements(p):
    """SL_2(p) as a (p^3 - p, 2, 2) array, in lexicographic (a, b, c, d)
    order of [[a, b], [c, d]]: for a = 0, ad - bc = 1 fixes c = -1/b and
    leaves d free; for a != 0 it fixes d = (1 + bc)/a."""
    r = np.arange(p, dtype=np.int64)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)],
                   dtype=np.int64)
    b0 = np.repeat(r[1:], p)
    zero = np.stack([np.zeros_like(b0), b0, -inv[b0] % p,
                     np.tile(r, p - 1)], axis=1)
    a, b, c = (x.ravel() for x in np.meshgrid(r[1:], r, r, indexing="ij"))
    rest = np.stack([a, b, c, (1 + b * c) * inv[a] % p], axis=1)
    return np.concatenate([zero, rest]).reshape(-1, 2, 2)


def sl2_5_search(p):
    """Search GL_2(p) for a copy of the order-120 perfect group with a
    unique involution, seeded by (order 4, order 10) generator pairs.
    For p > 11 the result is augmented with the scalar primitive so the
    listed generators act transitively on nonzero vectors."""
    if p not in (11, 19, 29, 59):
        raise ValueError("p must be one of 11, 19, 29, 59")
    F = field_create(p, 1)
    A = np.array([[0, p - 1], [1, 0]], dtype=np.int64)
    # enumerate SL_2(p) and keep the order-10 elements as candidates
    sl2 = _sl2_elements(p)
    # order exactly 10: M^10 = I, M^5 != I and M^2 != I (entries are the
    # residues mod p, so plain integer matrix products serve)
    M2 = sl2 @ sl2 % p
    M5 = (M2 @ M2 % p) @ sl2 % p
    eye = np.eye(2, dtype=np.int64)
    order10 = (np.all(M5 @ M5 % p == eye, axis=(1, 2))
               & np.any(M5 != eye, axis=(1, 2))
               & np.any(M2 != eye, axis=(1, 2)))
    found = None
    for cand in sl2[order10]:
        # -I is the only involution of SL_2(p), so an order-120 subgroup
        # has exactly one
        pair = MatrixGroupGens((p, 1), 2, [A, cand], "sl2_5")
        try:
            if group_order(pair, cap=120) != 120:
                continue
        except ValueError:
            continue
        found = cand
        break
    if found is None:
        raise RuntimeError("no order-120 subgroup found; search is buggy")
    mats = [A, found]
    meta = {"order": 120, "p": p}
    if p * p - 1 > 120:
        xi = element_of_order(F, p - 1)
        mats.append(np.array([[xi, 0], [0, xi]], dtype=np.int64))
        meta["scalar_augmented"] = True
    out = MatrixGroupGens((p, 1), 2, mats, "sl2_5", meta)
    if not transitive_on_nonzero(out):
        raise RuntimeError("augmented generators are not transitive")
    return out

