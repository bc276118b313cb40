"""Explicit constructors for the group families under study.

Every family is realized on tuple codes (field element indices or small
residues), and each structured automorphism generator attached to the
family is verified against the table before it is returned; q8-c3c3
takes the whole of Aut(G) from the base-image backtrack instead.

The multiplication table is evaluated from the family's coordinate
formulas on every pair (x, y), by _Coder.table: the (n, n) output is
filled in row blocks of at most BLOCK_CELLS cells, and each coordinate
term of the product is read from a small table over only the digits it
depends on (a field's add or mul table, a cocycle on the grid of its
two arguments, a form on the grid of vectors), expanded to the block by
one row gather and one column gather (_outer).  A bilinear cocycle or
form is evaluated once on its grid through its Gram matrix
(linalg_mod.form_matrix over a field, integer products mod 2 for the
extraspecial 2-groups).  gl3_tower rests on a normal-form identity:
with y = (x1^a1' x2^a2' x3^a3')(y21^b1' y31^b2' y32^b3' z^c'), xy is
x (x1^a1' x2^a2' x3^a3') with (b', c') added digitwise mod 3 to its low
four digits, so a row block is one gather from the grid of
x (x1^a1' x2^a2' x3^a3') into the table of that low-digit add.

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
from ._kernels import BLOCK_CELLS
from .group_engine import FiniteGroup, table_dtype
from .orbit_machine import AutomorphismSet, brute_force_aut

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
        return list(map(tuple, self.digits.tolist()))

    def encode_cols(self, cols, out=None):
        """Codes of the tuples whose coordinate t is cols[t], by Horner's
        rule in place, in out when it is given (else in a copy of the
        first column, which may be a view the caller still needs).  cols
        may be a generator: each column is dropped once added, so only
        the output and one column are alive."""
        cols = iter(cols)
        if out is None:
            out = np.array(next(cols), dtype=np.int64)
        else:
            out[...] = next(cols)
        for s in self.shapes[1:]:
            out *= s
            out += next(cols)
        return out

    def table(self, cols):
        """The (n, n) table whose row x, column y is the code of the
        product xy.  cols(r) yields the product's coordinates for the
        rows in the slice r against every y, each an array of shape
        (rows, n); the rows are taken in blocks of at most BLOCK_CELLS
        cells, into a table of table_dtype(n)."""
        n = self.n
        out = np.empty((n, n), dtype=table_dtype(n))
        step = max(1, BLOCK_CELLS // n)
        for lo in range(0, n, step):
            r = slice(lo, min(lo + step, n))
            self.encode_cols(cols(r), out[r])
        return out


def _outer(T, a, b):
    """T[a[i], b[j]] for every i, j: a small table expanded by one row
    gather and one column gather."""
    return T[a][:, b]


def table_bytes(n):
    """The bytes of an order-n table in its table_dtype."""
    return table_dtype(n).itemsize * n * n


def _check_cap(n, cap=None, *fields):
    """Refuse a group of order n whose table needs more than cap bytes
    (table_bytes(SIZE_CAP) when None, which admits exactly the orders
    up to SIZE_CAP), and any of fields that has no add/mul tables for
    the table formulas."""
    cap = table_bytes(SIZE_CAP) if cap is None else cap
    if table_bytes(n) > cap:
        raise ValueError(f"group order {n} needs {table_bytes(n)} table "
                         f"bytes, above the cap of {cap} table bytes")
    for F in fields:
        if F.add is None:
            raise ValueError(f"field order {F.q} exceeds TABLE_CAP "
                             f"{TABLE_CAP}")


def _inverse_embedding(F_small, F_big):
    inv = np.full(F_big.q, -1, dtype=np.int64)
    inv[subfield_embed(F_small, F_big)] = np.arange(F_small.q)
    return inv


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
    res = np.arange(psq)
    add = (res[:, None] + res) % psq
    table = coder.table(lambda r: (_outer(add, D[r, t], D[:, t])
                                   for t in range(n)))
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
    res = np.arange(e)
    add_e = (res[:, None] + res) % e
    # coordinate t of xy reads (x_t, y_0, y_t): x_t lambda^(y_0) + y_t,
    # a q x (e q) table keyed by x_t and y_0 q + y_t
    twist = F.add[F.mul[:, lampow][:, :, None], np.arange(q)].reshape(q, e * q)
    keys = [D[:, 0] * q + D[:, t] for t in range(1, d + 1)]

    def cols(r):
        yield _outer(add_e, D[r, 0], D[:, 0])
        for t, k in enumerate(keys, 1):
            yield _outer(twist, D[r, t], k)

    table = coder.table(cols)
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
    L, Z = D[:, 0], D[:, 1]
    cocycle = F.mul[th]         # (l1, l2) -> l1^theta l2

    def cols(r):
        yield _outer(F.add, L[r], L)
        yield F.add[_outer(F.add, Z[r], Z), _outer(cocycle, L[r], L)]

    table = coder.table(cols)
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
    inv_emb = _inverse_embedding(F, F2)
    coder = _Coder([F2.q, q])
    D = coder.digits
    L, Z = D[:, 0], D[:, 1]
    tr = trace_table(F2, n)     # x -> x + x^q, read in F
    cocycle = tr[F2.mul[F2.mul[:, frq], eps]]

    def cols(r):
        yield _outer(F2.add, L[r], L)
        yield F.add[_outer(F.add, Z[r], Z), _outer(cocycle, L[r], L)]

    table = coder.table(cols)
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
    inv_emb = _inverse_embedding(F8, F64)
    coder = _Coder([64, 8])
    D = coder.digits
    L, Z = D[:, 0], D[:, 1]
    squares = F64.mul[np.arange(64), np.arange(64)]
    cocycle = tr[F64.mul[F64.mul[:, squares], eps]]

    def cols(r):
        yield _outer(F64.add, L[r], L)
        yield F8.add[_outer(F8.add, Z[r], Z), _outer(cocycle, L[r], L)]

    table = coder.table(cols)
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
    # Tr f(v1, v2) on the grid of vectors, keyed by each element's V-code
    VV = _Coder([F.q] * d).digits
    form = tr[lm.form_matrix(F, VV, lm.standard_symplectic(F, d), VV)]
    vcode = np.arange(coder.n) // F0.q

    def cols(r):
        for t in range(d):
            yield _outer(F.add, V[r, t], V[:, t])
        yield F0.add[_outer(F0.add, D[r, d], D[:, d]),
                     _outer(form, vcode[r], vcode)]

    table = coder.table(cols)
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
    # w-coordinate t of xy is x_t + y_t + x_i y_j - x_j y_i, (i, j) its
    # wedge in the cyclic basis: a q^3 x q^3 table keyed by the digits
    # (t, i, j) of x and of y
    at, ai, aj = _Coder([F.q] * 3).digits.T
    wedge = F.add[_outer(F.add, at, at),
                  F.add[_outer(F.mul, ai, aj), F.neg[_outer(F.mul, aj, ai)]]]
    keys = [D[:, t] * F.q ** 2 + D[:, i] * F.q + D[:, j]
            for t, (i, j) in enumerate(lm.wedge_basis(3, 2), 3)]

    def cols(r):
        for t in range(3):
            yield _outer(F.add, D[r, t], D[:, t])
        for k in keys:
            yield _outer(wedge, k[r], k)

    table = coder.table(cols)
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

    Only F = F0 = GF(3) is implemented: the collection formulas below
    are those of exponent 3.  Built by polycyclic collection on normal
    forms  x1^a1 x2^a2 x3^a3 y21^b1 y31^b2 y32^b3 z^c  where
    y_ij = [x_i, x_j] and z = [[x2, x1], x3]; triple commutators
    alternate (exponent 3 forces the 2-Engel law), so
    [[x_i, x_j], x_k] = z^(-eps(ijk)).
    """
    F = field_create(*F) if isinstance(F, tuple) else F
    F0 = field_create(*F0) if isinstance(F0, tuple) else F0
    if (F.p, F.k) != (3, 1) or (F0.p, F0.k) != (3, 1):
        q = max(F.q, F0.q)
        raise ValueError("only the GF(3) tower is implemented: "
                         "GF(%d) gives order %d^7 = %d" % (q, q, q ** 7))
    _check_cap(3 ** 7, cap)
    coder = _Coder([3] * 7)
    D = coder.digits
    n = coder.n
    a1, a2, a3 = D[:, 0], D[:, 1], D[:, 2]
    b21, b31, b32, zc = D[:, 3], D[:, 4], D[:, 5], D[:, 6]
    # right multiplication by x1, x2, x3 (collection formulas)
    xr = [coder.encode_cols([(a1 + 1) % 3, a2, a3, (b21 + a2) % 3,
                             (b31 + a3) % 3, b32, (zc + b32 + a2 * a3) % 3]),
          coder.encode_cols([a1, (a2 + 1) % 3, a3, b21, b31,
                             (b32 + a3) % 3, (zc - b31) % 3]),
          coder.encode_cols([a1, a2, (a3 + 1) % 3, b21, b31, b32,
                             (zc + b21) % 3])]
    # grid[x, a'] = x x1^a1' x2^a2' x3^a3', a' = 9 a1' + 3 a2' + a3':
    # each generator's powers appended as a new last digit of a'
    grid = np.arange(n)[:, None]
    for m in xr:
        grid = np.stack([grid, m[grid], m[m[grid]]], axis=2).reshape(n, -1)
    # gamma_2 = <y21, y31, y32, z> is elementary abelian (class 3), so
    # appending y21^b1' y31^b2' y32^b3' z^c' to a normal form adds
    # (b', c') digitwise to its low four digits: right[g, l] is g times
    # the element of low-digit code l
    low = _Coder([3] * 4)
    L = low.digits
    add81 = (L[:, None] + L) % 3 @ low.weights
    g = np.arange(n)
    right = (g - g % low.n)[:, None] + add81[g % low.n]
    # y = a' 81 + l, so row x of the table is right[grid[x]] flattened
    table = _Coder([n]).table(lambda r: (right[grid[r]].reshape(-1, n),))
    if not np.array_equal(table[0], np.arange(n)):
        raise AssertionError("normal-form rows are misaligned")
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
    xor = np.array([[0, 1], [1, 0]])
    # c(v1, v2) on the grid of vectors, keyed by each element's V-code
    VV = _Coder([2] * d).digits
    form = (VV @ beta @ VV.T) % 2
    vcode = np.arange(coder.n) // 2

    def cols(r):
        for t in range(d):
            yield _outer(xor, V[r, t], V[:, t])
        yield _outer(xor, D[r, d], D[:, d]) ^ _outer(form, vcode[r], vcode)

    table = coder.table(cols)
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


# ------------------------------------------------- four-orbit: Q8 on C3^2

def q8_on_c3c3(*, cap=None):
    """Order-72 semidirect product: the quaternion group, realized by
    2x2 matrices over GF(3), acting on the natural plane.

    The element (v0, v1, a) is the vector v = (v0, v1) with the matrix
    M_a, and (v, a)(w, b) = (v M_b + w, ab).  The table is built by
    _Coder.table on the codes (v, a), each coordinate of the product
    read from a small table: the 9 x 8 grid of v M_b, the 9 x 9 vector
    add, and the 8 x 8 table of Q8."""
    _check_cap(72, cap)
    gi = np.array([[0, 2], [1, 0]], dtype=np.int64)
    gj = np.array([[1, 1], [1, 2]], dtype=np.int64)
    # the eight elements i^a j^b; a product table inside these eight
    # proves they are closed, hence the group <i, j>
    mats = [np.linalg.matrix_power(gi, a) @ np.linalg.matrix_power(gj, b)
            % 3 for b in range(2) for a in range(4)]
    key = {M.tobytes(): t for t, M in enumerate(mats)}
    prods = [[((a @ b) % 3).tobytes() for b in mats] for a in mats]
    if len(key) != 8 or not all(k in key for row in prods for k in row):
        raise AssertionError("i^a j^b are not a group of order 8")
    qmul = np.array([[key[k] for k in row] for row in prods], dtype=np.int64)
    plane = _Coder([3, 3])
    V = plane.digits
    vm = ((V @ np.array(mats)) % 3 @ plane.weights).T
    vadd = (V[:, None] + V) % 3 @ plane.weights
    coder = _Coder([9, 8])
    v, a = coder.digits.T
    table = coder.table(lambda r: (vadd[_outer(vm, v[r], a), v],
                                   _outer(qmul, a[r], a)))
    return FiniteGroup(_Coder([3, 3, 8]).elems(), table)


def _q8_c3c3(*, cap):
    """q8_on_c3c3 acted on by all of Aut(G): no structured
    automorphisms of it are known."""
    G = q8_on_c3c3(cap=cap)
    return FamilyInstance("q8c3c3", {}, G, brute_force_aut(G))


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
    "q8-c3c3": _q8_c3c3,
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
