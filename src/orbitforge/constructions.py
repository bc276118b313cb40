"""Explicit constructors for the group families under study.

Every family is realized on tuple codes (field element indices or small
residues), its multiplication table is built vectorized from coordinate
formulas, one coordinate column at a time, and each structured
automorphism generator attached to the family is verified against the
table before it is returned.  A bilinear cocycle or form is evaluated
through its Gram matrix (linalg_mod.form_matrix over a field, integer
products mod 2 for the extraspecial 2-groups).

FAMILIES maps each family name to a function whose signature is the
family's parameter schema: names in report order, defaults for the
optional ones.  build() checks a parameter map against it and builds.
"""

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg_mod as lm
from .gf_arith import (TABLE_CAP, element_of_order, field_create, frob_table,
                       is_prime, prime_power, subfield_embed, trace_table)
from .group_engine import FiniteGroup
from .orbit_machine import AutomorphismSet

SIZE_CAP = 1 << 13


@dataclass
class FamilyInstance:
    tag: str
    params: dict
    group: FiniteGroup
    acts: AutomorphismSet
    meta: dict = field(default_factory=dict)


class _Coder:
    """Mixed-radix tuple codes; index order equals lexicographic order."""

    def __init__(self, shapes):
        self.shapes = tuple(int(s) for s in shapes)
        k = len(self.shapes)
        w = [1] * k
        for t in range(k - 2, -1, -1):
            w[t] = w[t + 1] * self.shapes[t + 1]
        self.weights = np.array(w, dtype=np.int64)
        self.n = int(np.prod(self.shapes, dtype=np.int64))
        idx = np.arange(self.n, dtype=np.int64)
        self.digits = np.empty((self.n, k), dtype=np.int64)
        for t in range(k):
            self.digits[:, t] = (idx // w[t]) % self.shapes[t]

    def elems(self):
        return [tuple(map(int, row)) for row in self.digits]

    def encode_cols(self, cols):
        """Codes of the tuples whose coordinate t is cols[t], by Horner's
        rule in place.  cols may be a generator: each column is dropped
        once added, so only the output and one column are alive."""
        cols = iter(cols)
        out = np.array(next(cols), dtype=np.int64)
        for s in self.shapes[1:]:
            out *= s
            out += next(cols)
        return out


def _check_cap(n, cap=None, *fields):
    """Refuse a group of order n above cap (SIZE_CAP when None), and any
    of fields that has no add/mul tables for the table formulas."""
    cap = SIZE_CAP if cap is None else cap
    if n > cap:
        raise ValueError(f"group order {n} exceeds cap {cap}")
    for F in fields:
        if F.add is None:
            raise ValueError(f"field order {F.q} exceeds TABLE_CAP "
                             f"{TABLE_CAP}")


def _inverse_embedding(F_small, F_big):
    emb = subfield_embed(F_small, F_big)
    inv = np.full(F_big.q, -1, dtype=np.int64)
    inv[emb] = np.arange(F_small.q)
    return emb, inv


def _pick(arr, inv):
    out = inv[arr]
    if (out < 0).any():
        raise AssertionError("value left the expected subfield")
    return out


def _instance(tag, params, coder, table, gen_perms, meta):
    group = FiniteGroup(coder.elems(), table)
    perms = np.array(gen_perms, dtype=np.int64).reshape(len(gen_perms),
                                                        group.n)
    acts = AutomorphismSet(group, perms)
    return FamilyInstance(tag, params, group, acts, meta)


# -------------------------------------------------------- line 1: abelian

def _glq_generator_mats(F, d):
    """Generators of GL_d(q): a primitive scalar in the first coordinate,
    the d-cycle and a transvection (the identity alone for GL_1(2))."""
    mats = []
    xi = element_of_order(F, F.q - 1) if F.q > 2 else 1
    sc = lm.identity_mat(d)
    sc[0, 0] = xi
    if F.q > 2:
        mats.append(sc)
    if d >= 2:
        cyc = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            cyc[i, (i + 1) % d] = 1
        mats.append(cyc)
        tv = lm.identity_mat(d)
        tv[0, 1] = 1
        mats.append(tv)
    if not mats:
        mats.append(lm.identity_mat(d))
    return mats


def line1_abelian(p, n, *, cap=None):
    """(C_{p^2})^n with the entrywise-lifted GL_n(p) action."""
    if not is_prime(p) or n < 1:
        raise ValueError("need prime p and n >= 1")
    _check_cap(p ** (2 * n), cap)
    psq = p * p
    coder = _Coder([psq] * n)
    D = coder.digits
    table = coder.encode_cols((D[:, t][:, None] + D[:, t][None, :]) % psq
                              for t in range(n))
    perms = []
    for M in _glq_generator_mats(field_create(p, 1), n):
        img = (D @ M.T) % psq  # row vector image with integer matrix, mod p^2
        perms.append(coder.encode_cols([img[:, t] for t in range(n)]))
    meta = {"p": p, "n_dim": n, "r": p, "m_dim": n,
            "W_order": p ** n, "V_order": p ** n}
    return _instance("line1", {"p": p, "n": n}, coder, table, perms, meta)


# --------------------------------------------- line 2: scalar Frobenius

def line2_frobenius(p, r, ell, d, *, cap=None):
    """C_{r^ell} acting by a fixed order-e scalar on GF(q)^d,
    q = p^phi(e), with e = r^ell and p of full multiplicative order
    mod e."""
    if not (is_prime(p) and is_prime(r)) or p == r:
        raise ValueError("need distinct primes p, r")
    if ell < 1 or d < 1:
        raise ValueError("need ell, d >= 1")
    e = r ** ell
    phi = e - e // r
    # p must have full order phi(e) mod e
    o, x = 0, 1
    for t in range(1, phi + 1):
        x = (x * p) % e
        if x == 1:
            o = t
            break
    if o != phi:
        raise ValueError("p is not a primitive root for the required modulus")
    F = field_create(p, phi)
    q = F.q
    _check_cap(e * q ** d, cap, F)
    lam = element_of_order(F, e)
    lampow = np.empty(e, dtype=np.int64)
    lampow[0] = 1
    for t in range(1, e):
        lampow[t] = F.mul_elems(int(lampow[t - 1]), lam)
    coder = _Coder([e] + [q] * d)
    D = coder.digits
    A, B = D[:, 0][:, None], D[:, 0][None, :]

    def cols():
        yield (A + B) % e
        for t in range(1, d + 1):
            yield F.add[F.mul[D[:, t][:, None], lampow[B]], D[:, t][None, :]]

    table = coder.encode_cols(cols())
    perms = []
    # GF(q)-linear maps on the vector part
    for M in _glq_generator_mats(F, d):
        img = lm.vec_batch_apply(F, D[:, 1:], M)
        perms.append(coder.encode_cols([D[:, 0]] +
                                       [img[:, t] for t in range(d)]))
    # Galois: both coordinates through Frobenius
    fr = frob_table(F, 1)
    perms.append(coder.encode_cols([(D[:, 0] * p) % e] +
                                   [fr[D[:, t]] for t in range(1, d + 1)]))
    meta = {"p": p, "r": r, "ell": ell, "d": d, "e": e, "q": q,
            "W_order": q ** d, "V_order": e,
            "n_dim": phi * d, "m_dim": ell}
    return _instance("line2", {"p": p, "r": r, "ell": ell, "d": d},
                     coder, table, perms, meta)


# ------------------------------------------------- lines 3-5: 2-groups

def suzuki_A(n, i, *, cap=None):
    """Type-A group on GF(2^n) x GF(2^n) with twist x -> x^(2^i)."""
    theta_order = n // math.gcd(n, i)
    if theta_order % 2 == 0 or theta_order <= 1:
        raise ValueError("twist order must be odd and > 1")
    F = field_create(2, n)
    q = F.q
    _check_cap(q * q, cap, F)
    th = frob_table(F, i)
    coder = _Coder([q, q])
    D = coder.digits
    L1, L2 = D[:, 0][:, None], D[:, 0][None, :]
    Z1, Z2 = D[:, 1][:, None], D[:, 1][None, :]

    def cols():
        yield F.add[L1, L2]
        yield F.add[F.add[Z1, Z2], F.mul[th[L1], L2]]

    table = coder.encode_cols(cols())
    xi = element_of_order(F, q - 1)
    perms = []
    for a_exp, lam in ((0, xi), (1, 1)):
        fr = frob_table(F, a_exp)
        lam_factor = F.mul_elems(lam, int(th[lam]))
        mu = F.mul[fr[D[:, 0]], lam]
        ze = F.mul[fr[D[:, 1]], lam_factor]
        perms.append(coder.encode_cols([mu, ze]))
    meta = {"p": 2, "q": q, "theta_exp": i,
            "W_order": q, "V_order": q, "n_dim": n, "m_dim": n, "r": 2}
    return _instance("suzukiA", {"n": n, "i": i}, coder, table, perms, meta)


def suzuki_B(n, eps_choice=0, *, cap=None):
    """Type-B group on GF(2^(2n)) x GF(2^n); the cocycle is
    x + x^q with x = l1 * l2^q * eps for an element eps of order q + 1.

    The q-power Galois map is a *candidate* action only: it is tested
    and always fails the homomorphism check, which is recorded in the
    instance metadata rather than silently skipped."""
    if n < 1:
        raise ValueError("n >= 1")
    F2 = field_create(2, 2 * n)
    F = field_create(2, n)
    q = F.q
    _check_cap(q ** 3, cap, F, F2)
    order = q + 1
    choices = [x for x in range(1, F2.q) if F2.elem_order(x) == order]
    if eps_choice >= len(choices):
        raise ValueError("epsilon choice out of range")
    eps = choices[eps_choice]
    frq = frob_table(F2, n)
    emb, inv_emb = _inverse_embedding(F, F2)
    coder = _Coder([F2.q, q])
    D = coder.digits
    L1, L2 = D[:, 0][:, None], D[:, 0][None, :]
    Z1, Z2 = D[:, 1][:, None], D[:, 1][None, :]
    tr = trace_table(F2, n)     # x -> x + x^q, read in F

    def cols():
        yield F2.add[L1, L2]
        yield F.add[F.add[Z1, Z2], tr[F2.mul[F2.mul[L1, frq[L2]], eps]]]

    table = coder.encode_cols(cols())
    # scaling by a generator mu of GF(q^2)^*: zeta scales by the norm
    mu = element_of_order(F2, F2.q - 1)
    norm_mu = int(_pick(np.array([F2.mul_elems(mu, int(frq[mu]))]),
                        inv_emb)[0])
    perms = [coder.encode_cols([F2.mul[D[:, 0], mu],
                                F.mul[D[:, 1], norm_mu]])]
    meta = {"p": 2, "q": q, "epsilon": eps, "epsilon_choice": eps_choice,
            "W_order": q, "V_order": q * q,
            "n_dim": n, "m_dim": 2 * n, "r": 2}
    inst = _instance("suzukiB", {"n": n, "eps_choice": eps_choice},
                     coder, table, perms, meta)
    # candidate Galois map (mu, zeta) -> (mu^q, zeta): verify, then drop
    cand = coder.encode_cols([frq[D[:, 0]], D[:, 1]])
    from .orbit_machine import verify_automorphism
    inst.meta["galois_dropped"] = not verify_automorphism(inst.group, cand)
    return inst


def dornhoff_P(*, cap=None):
    """The order-512 group on GF(64) x GF(8) with cocycle x + x^8,
    x = l1 * l2^2 * eps, eps primitive of order 63, together with its
    two defining automorphisms."""
    _check_cap(512, cap)
    F64 = field_create(2, 6)
    F8 = field_create(2, 3)
    eps = element_of_order(F64, 63)
    tr = trace_table(F64, 3)    # x -> x + x^8, read in GF(8)
    emb, inv_emb = _inverse_embedding(F8, F64)
    coder = _Coder([64, 8])
    D = coder.digits
    L1, L2 = D[:, 0][:, None], D[:, 0][None, :]
    Z1, Z2 = D[:, 1][:, None], D[:, 1][None, :]

    def cols():
        yield F64.add[L1, L2]
        yield F8.add[F8.add[Z1, Z2],
                     tr[F64.mul[F64.mul[L1, F64.mul[L2, L2]], eps]]]

    table = coder.encode_cols(cols())
    eps3 = F64.pow_elem(eps, 3)
    eps9_in8 = int(_pick(np.array([F64.pow_elem(eps, 9)]), inv_emb)[0])
    psi = coder.encode_cols([F64.mul[D[:, 0], eps3],
                             F8.mul[D[:, 1], eps9_in8]])
    fr4_64 = frob_table(F64, 2)
    fr4_8 = frob_table(F8, 2)
    phi = coder.encode_cols([F64.mul[fr4_64[D[:, 0]], eps],
                             fr4_8[D[:, 1]]])
    meta = {"p": 2, "q": 8, "W_order": 8, "V_order": 64,
            "n_dim": 3, "m_dim": 6, "r": 2}
    return _instance("dornhoffP", {}, coder, table, [psi, phi], meta)


# ------------------------------------- lines 6-7 and towers: odd p-groups

def heisenberg_trace(F, F0, d, *, cap=None):
    """F^d x F0 with cocycle Tr(f(v1, v2)) for the standard symplectic f.
    F and F0 are (p, k) pairs or field objects; F0 must sit inside F."""
    F = field_create(*F) if isinstance(F, tuple) else F
    F0 = field_create(*F0) if isinstance(F0, tuple) else F0
    if F.p != F0.p or F.k % F0.k != 0:
        raise ValueError("F0 must be a subfield of F")
    if F.p == 2:
        raise ValueError("odd characteristic required")
    if d % 2 != 0 or d < 2:
        raise ValueError("d must be even and >= 2")
    _check_cap(F.q ** d * F0.q, cap, F, F0)
    tr = trace_table(F, F0.k)
    coder = _Coder([F.q] * d + [F0.q])
    D = coder.digits
    V = D[:, :d]

    def cols():
        for t in range(d):
            yield F.add[V[:, t][:, None], V[:, t][None, :]]
        J = lm.standard_symplectic(F, d)
        yield F0.add[F0.add[D[:, d][:, None], D[:, d][None, :]],
                     tr[lm.form_matrix(F, V, J, V)]]

    table = coder.encode_cols(cols())
    perms = []
    for g in lm.symplectic_transvection_gens(F, d):
        img = lm.vec_batch_apply(F, V, g)
        perms.append(coder.encode_cols([img[:, t] for t in range(d)] +
                                       [D[:, d]]))
    if F0.q > 2:
        delta0 = element_of_order(F0, F0.q - 1)
        delta = int(subfield_embed(F0, F)[delta0]) if F.k != F0.k else delta0
        gd = lm.identity_mat(d)
        for t in range(0, d, 2):
            gd[t, t] = delta
        img = lm.vec_batch_apply(F, V, gd)
        perms.append(coder.encode_cols([img[:, t] for t in range(d)] +
                                       [F0.mul[D[:, d], delta0]]))
    if F.k > 1:
        frF, fr0 = frob_table(F, 1), frob_table(F0, 1)
        perms.append(coder.encode_cols([frF[V[:, t]] for t in range(d)] +
                                       [fr0[D[:, d]]]))
    meta = {"p": F.p, "W_order": F0.q, "V_order": F.q ** d,
            "n_dim": F0.k, "m_dim": d * F.k, "r": F.p}
    return _instance("heisenberg", {"F": (F.p, F.k), "F0": (F0.p, F0.k),
                                    "d": d}, coder, table, perms, meta)


def _gl3_action_cols(F, D, g):
    """Image columns of (v, w) under v -> vg, w -> w (g wedge g)."""
    wg = lm.wedge_power_matrix(F, g, 2)
    vi = lm.vec_batch_apply(F, D[:, 0:3], g)
    wi = lm.vec_batch_apply(F, D[:, 3:6], wg)
    cols = [vi[:, t] for t in range(3)] + [wi[:, t] for t in range(3)]
    return cols


def sl3_pair(F, *, cap=None):
    """F^3 x F^3 with cocycle v1 wedge v2 in the cyclic basis."""
    F = field_create(*F) if isinstance(F, tuple) else F
    if F.p == 2:
        raise ValueError("odd q required")
    _check_cap(F.q ** 6, cap, F)
    coder = _Coder([F.q] * 6)
    D = coder.digits

    def cols():
        for t in range(3):
            yield F.add[D[:, t][:, None], D[:, t][None, :]]
        # wedge term added to the w-coordinates, cyclic basis
        for t, (i, j) in enumerate(lm.wedge_basis(3, 2), 3):
            yield F.add[F.add[D[:, t][:, None], D[:, t][None, :]],
                        F.add[F.mul[D[:, i][:, None], D[:, j][None, :]],
                              F.neg[F.mul[D[:, j][:, None],
                                          D[:, i][None, :]]]]]

    table = coder.encode_cols(cols())
    perms = []
    for g in _glq_generator_mats(F, 3):
        perms.append(coder.encode_cols(_gl3_action_cols(F, D, g)))
    if F.k > 1:
        fr = frob_table(F, 1)
        perms.append(coder.encode_cols([fr[D[:, t]] for t in range(6)]))
    meta = {"p": F.p, "W_order": F.q ** 3, "V_order": F.q ** 3,
            "n_dim": 3 * F.k, "m_dim": 3 * F.k, "r": F.p}
    return _instance("sl3pair", {"F": (F.p, F.k)}, coder, table, perms, meta)


def gl3_tower(F, F0, *, cap=None):
    """The free 3-generator exponent-3 group (order 3^7, class 3):
    layers V, wedge^2 V, wedge^3 V with GL(V) inducing (g, g^g, det g).

    Only F = F0 = GF(3) fits the order cap: any larger field puts
    q^7 far beyond reach.  Built by polycyclic collection on normal
    forms  x1^a1 x2^a2 x3^a3 y21^b1 y31^b2 y32^b3 z^c  where
    y_ij = [x_i, x_j] and z = [[x2, x1], x3]; triple commutators
    alternate (exponent 3 forces the 2-Engel law), so
    [[x_i, x_j], x_k] = z^(-eps(ijk)).
    """
    F = field_create(*F) if isinstance(F, tuple) else F
    F0 = field_create(*F0) if isinstance(F0, tuple) else F0
    if (F.p, F.k) != (3, 1) or (F0.p, F0.k) != (3, 1):
        q = max(F.q, F0.q)
        raise ValueError("only the GF(3) tower fits the order cap %d: "
                         "GF(%d) gives order %d^7 = %d"
                         % (SIZE_CAP if cap is None else cap, q, q, q ** 7))
    _check_cap(3 ** 7, cap)
    coder = _Coder([3] * 7)
    D = coder.digits
    n = coder.n
    a1, a2, a3 = D[:, 0], D[:, 1], D[:, 2]
    b21, b31, b32, zc = D[:, 3], D[:, 4], D[:, 5], D[:, 6]
    gen_perms = [
        # right multiplication by x1, x2, x3 (collection formulas)
        coder.encode_cols([(a1 + 1) % 3, a2, a3, (b21 + a2) % 3,
                           (b31 + a3) % 3, b32, (zc + b32 + a2 * a3) % 3]),
        coder.encode_cols([a1, (a2 + 1) % 3, a3, b21, b31,
                           (b32 + a3) % 3, (zc - b31) % 3]),
        coder.encode_cols([a1, a2, (a3 + 1) % 3, b21, b31, b32,
                           (zc + b21) % 3]),
        # right multiplication by y21, y31, y32, z (all central mod z)
        coder.encode_cols([a1, a2, a3, (b21 + 1) % 3, b31, b32, zc]),
        coder.encode_cols([a1, a2, a3, b21, (b31 + 1) % 3, b32, zc]),
        coder.encode_cols([a1, a2, a3, b21, b31, (b32 + 1) % 3, zc]),
        coder.encode_cols([a1, a2, a3, b21, b31, b32, (zc + 1) % 3]),
    ]
    # column h of the table is the right-regular map of h, built by
    # peeling h's last nonzero digit
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for h in range(1, n):
        t = 6
        while D[h, t] == 0:
            t -= 1
        prev = h - coder.weights[t]
        table[:, h] = gen_perms[t][table[:, prev]]
    if not np.array_equal(table[0], np.arange(n)):
        raise AssertionError("right-regular columns are misaligned")
    group = FiniteGroup(coder.elems(), table)
    if group.exponent() != 3 or \
            [len(g) for g in group.gamma_series()] != [n, 81, 3, 1]:
        raise AssertionError("tower structure check failed")

    def image_perm(gen_images):
        phi = np.full(n, group.e, dtype=np.int64)
        for t in range(7):
            m = gen_images[t]
            mpow = np.array([group.e, m, table[m, m]], dtype=np.int64)
            phi = table[phi, mpow[D[:, t]]]
        return phi

    def derived_images(x_imgs):
        y21i = group.commutator(x_imgs[1], x_imgs[0])
        y31i = group.commutator(x_imgs[2], x_imgs[0])
        y32i = group.commutator(x_imgs[2], x_imgs[1])
        zi = group.commutator(y21i, x_imgs[2])
        return list(x_imgs) + [y21i, y31i, y32i, zi]

    perms = []
    gl_gens = [np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),  # 3-cycle
               np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),  # transvection
               np.array([[2, 0, 0], [0, 1, 0], [0, 0, 1]])]  # scalar part
    for g in gl_gens:
        x_imgs = [int(coder.encode_cols(
            [np.array([g[i, 0]]), np.array([g[i, 1]]), np.array([g[i, 2]]),
             np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
             np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)])[0])
            for i in range(3)]
        perms.append(image_perm(derived_images(x_imgs)))
    # kernel-of-abelianization generators: x_i -> x_i * u, u in gamma_2;
    # freeness makes each such assignment an automorphism
    basis_elts = [int(coder.weights[3]), int(coder.weights[4]),
                  int(coder.weights[5]), int(coder.weights[6])]
    for slot in range(3):
        for u in basis_elts:
            x_imgs = [coder.weights[i] for i in range(3)]
            x_imgs[slot] = int(table[x_imgs[slot], u])
            perms.append(image_perm(derived_images(
                [int(x) for x in x_imgs])))
    acts = AutomorphismSet(group, np.array(perms, dtype=np.int64))
    meta = {"p": 3, "q": 3}
    return FamilyInstance("gl3tower", {"F": (3, 1), "F0": (3, 1)},
                          group, acts, meta)


# ------------------------------------------------ extraspecial 2-groups

def _es2_beta(k, eps):
    d = 2 * k
    beta = np.zeros((d, d), dtype=np.int64)
    for i in range(0, d, 2):
        beta[i, i + 1] = 1
    if eps == "-":
        beta[d - 2, d - 2] = 1
        beta[d - 1, d - 1] = 1
    return beta


def extraspecial2(k, eps, *, cap=None):
    """GF(2)^(2k) x GF(2) with cocycle c(v1, v2) = v1 beta v2^T, where the
    Gram matrix beta gives the type-eps quadratic form Q(v) = v beta v^T;
    squaring realizes Q.  The attached action is the orthogonal group
    O(Q), generated by the transvections in the nonsingular vectors (and
    block swaps for eps = +), each lifted by the correction h(v) = v U v^T
    with U the upper triangle of the alternating g beta g^T + beta."""
    if k < 1 or eps not in ("+", "-"):
        raise ValueError("k >= 1 and eps in {+, -}")
    d = 2 * k
    _check_cap(2 ** (d + 1), cap)
    beta = _es2_beta(k, eps)
    polar = (beta + beta.T) % 2
    coder = _Coder([2] * (d + 1))
    D = coder.digits
    V = D[:, :d]

    def cols():
        for t in range(d):
            yield V[:, t][:, None] ^ V[:, t][None, :]
        yield (D[:, d][:, None] + D[:, d][None, :] + V @ beta @ V.T) % 2

    table = coder.encode_cols(cols())
    # every vector of GF(2)^d, bit t of x as coordinate t, and Q on it
    X = (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1
    Q = ((X @ beta) * X).sum(axis=1) % 2
    mats = [(np.eye(d, dtype=np.int64) + np.outer(polar @ a, a)) % 2
            for a in X[Q == 1]]
    if eps == "+" and k >= 2:
        for blk in range(k - 1):
            sw = np.eye(d, dtype=np.int64)
            i, j = 2 * blk, 2 * blk + 2
            sw[[i, j]] = sw[[j, i]]
            sw[[i + 1, j + 1]] = sw[[j + 1, i + 1]]
            mats.append(sw)
    perms = []
    for g in mats:
        if not np.array_equal(Q[(X @ g) % 2 @ (1 << np.arange(d))], Q):
            raise AssertionError("generator does not preserve Q")
        s = (g @ beta @ g.T + beta) % 2
        if (s != s.T).any() or s.diagonal().any():
            raise AssertionError("correction form is not alternating")
        h = ((V @ np.triu(s, 1)) * V).sum(axis=1) % 2
        img = (V @ g) % 2
        perms.append(coder.encode_cols([img[:, t] for t in range(d)] +
                                       [(D[:, d] + h) % 2]))
    meta = {"p": 2, "eps": eps, "k": k, "W_order": 2, "V_order": 2 ** d}
    return _instance("extraspecial2", {"k": k, "eps": eps},
                     coder, table, perms, meta)


# ------------------------------------------------------- family table

def _sl3(q, *, cap):
    pk = prime_power(q)
    if pk is None:
        raise ValueError("%d is not a prime power" % q)
    return sl3_pair(pk, cap=cap)


def _heisenberg(p, m, n, b, *, cap):
    """Line 7: GF(p^b)^(m/b) x GF(p^n), so |V| = p^m and |W| = p^n."""
    if b % n or m % b or (m // b) % 2:
        raise ValueError("need n | b | m with m/b even")
    return heisenberg_trace((p, b), (p, n), m // b, cap=cap)


# these functions look each constructor up when called, so a wrapper put on
# the module attribute (a profiling span, a test double) sees the call
FAMILIES = {
    "line1": lambda p, n, *, cap: line1_abelian(p, n, cap=cap),
    "line2": lambda p, r, ell=1, d=1, *, cap: line2_frobenius(p, r, ell, d,
                                                             cap=cap),
    "suzukiA": lambda n, theta=1, *, cap: suzuki_A(n, theta, cap=cap),
    "suzukiB": lambda n, eps_choice=0, *, cap: suzuki_B(n, eps_choice,
                                                        cap=cap),
    "dornhoff": lambda *, cap: dornhoff_P(cap=cap),
    "sl3": _sl3,
    "heisenberg": _heisenberg,
    "gl3-tower": lambda *, cap: gl3_tower((3, 1), (3, 1), cap=cap),
    "extraspecial2": lambda k, eps, *, cap: extraspecial2(k, eps, cap=cap),
}


@functools.cache
def family_params(family):
    """The family's parameter names in report order."""
    return tuple(k for k in inspect.signature(FAMILIES[family]).parameters
                 if k != "cap")


def build(family, params, cap=None):
    """(instance, canonical params) for one family: params must name
    only the family's parameters and give every one without a default;
    the canonical map lists all of them, in report order, as ints (eps
    as its sign string)."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    make = FAMILIES[family]
    try:
        bound = inspect.signature(make).bind(cap=cap, **params)
    except TypeError as exc:
        raise ValueError("%s: %s" % (family, exc)) from None
    bound.apply_defaults()
    prm = {k: str(v) if k == "eps" else int(v)
           for k, v in bound.arguments.items() if k != "cap"}
    return make(**prm, cap=cap), prm
