"""Exact arithmetic in GF(p^k).

Elements are ints 0..p^k-1, read base p as the coefficient vector of the
polynomial representative, constant term first:

    index c0 + c1*p + ... + c_{k-1}*p^{k-1}   <->   c0 + c1*t + ...

so index 0 is zero and index 1 is one.  The defining polynomial is the
lexicographically first monic irreducible of degree k (coefficients
compared low-degree-first as integers), which makes every field, and
every embedding computed from it, deterministic.

Fields of at most TABLE_CAP elements carry dense numpy add/mul tables,
and everything but mul_elems, pow_elem and elem_order reads them.
Larger fields (allowed up to SIZE_CAP) have only those three, by
polynomial arithmetic per operation.
"""

import math

import numpy as np

SIZE_CAP = 1 << 20
TABLE_CAP = 1 << 11


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n):
    """(p, k) with n = p^k for a prime p and k >= 1, or None when n is
    not a prime power."""
    if n < 2:
        return None
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


# ------------------------------------------------- polynomials over GF(p)
# dense int lists, low degree first, not necessarily normalized

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, f, p):
    a = list(a)
    df = len(f) - 1
    while len(a) > df:
        c = a[-1] % p
        if c:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, f, p)


def _poly_powmod(a, e, f, p):
    result = [1]
    base = _poly_mod(list(a), f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        r = list(a)
        while True:
            _poly_trim(r)
            if len(r) < len(b):
                break
            c = (r[-1] * inv_lead) % p
            shift = len(r) - len(b)
            for i in range(len(b)):
                r[shift + i] = (r[shift + i] - c * b[i]) % p
            r.pop()  # leading coefficient was just cancelled
        a, b = b, r
    return a


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f, p):
    """Rabin test: f (monic, degree k) is irreducible over GF(p) iff
    t^(p^k) = t mod f and gcd(t^(p^(k/l)) - t, f) = 1 for prime l | k."""
    k = len(f) - 1
    if k == 1:
        return True
    if f[0] == 0:
        return False
    t = [0, 1]
    x = _poly_powmod(t, p ** k, f, p)
    if _poly_trim([(xi - ti) % p for xi, ti in
                   zip(x + [0] * 2, t + [0] * len(x))]):
        return False
    for ell in _prime_factors(k):
        x = _poly_powmod(t, p ** (k // ell), f, p)
        diff = [(c - (1 if i == 1 else 0)) % p for i, c in
                enumerate(x + [0] * (2 - len(x)))]
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _first_irreducible(p, k):
    for m in range(p ** k):
        coeffs = []
        mm = m
        for _ in range(k):
            coeffs.append(mm % p)
            mm //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """GF(p^k) with canonical indexing.  Immutable after construction."""

    def __init__(self, p, k):
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        if k < 1:
            raise ValueError("k must be >= 1")
        q = p ** k
        if q > SIZE_CAP:
            raise ValueError("field size %d exceeds cap %d" % (q, SIZE_CAP))
        self.p = p
        self.k = k
        self.q = q
        self.poly = tuple(_first_irreducible(p, k))
        self._digit_weights = np.array([p ** i for i in range(k)], dtype=np.int64)
        self._build_tables()
        self._order_cache = {}

    # -------------------------------------------------------------- tables
    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        if q > TABLE_CAP:
            self.add = None
            self.mul = None
            self.neg = None
            self.inv = None
            return
        digits = np.zeros((q, k), dtype=np.int64)
        idx = np.arange(q)
        for i in range(k):
            digits[:, i] = (idx // (p ** i)) % p
        self._digits = digits

        add = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            add[a] = ((digits[a] + digits) % p) @ self._digit_weights
        self.add = add
        self.neg = (((-digits) % p) @ self._digit_weights).astype(np.int64)

        # reduction rows: t^j mod f for j = 0..2k-2
        red = np.zeros((2 * k - 1, k), dtype=np.int64)
        for j in range(2 * k - 1):
            r = _poly_mod([0] * j + [1], list(self.poly), p)
            red[j, : len(r)] = r
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            da = digits[a]
            conv = np.zeros((q, 2 * k - 1), dtype=np.int64)
            for i in range(k):
                if da[i]:
                    conv[:, i : i + k] += da[i] * digits
            conv %= p
            mul[a] = ((conv @ red) % p) @ self._digit_weights
        self.mul = mul

        inv = np.zeros(q, dtype=np.int64)
        rows = mul[1:, 1:]
        # x * y = 1 has exactly one solution y per nonzero x
        xi, yi = np.nonzero(rows == 1)
        inv[xi + 1] = yi + 1
        self.inv = inv
        assert self.mul[1, 1] == 1 and self.add[0, 1] == 1

    # ------------------------------------------------------------- scalars
    def digits_of(self, x):
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def from_digits(self, ds):
        v = 0
        for i, d in enumerate(ds):
            v += (d % self.p) * self.p ** i
        return v

    def add_elems(self, a, b):
        return int(self.add[a, b])

    def neg_elem(self, a):
        return int(self.neg[a])

    def mul_elems(self, a, b):
        if self.mul is not None:
            return int(self.mul[a, b])
        r = _poly_mulmod(self.digits_of(a), self.digits_of(b),
                         list(self.poly), self.p)
        return self.from_digits(r + [0] * (self.k - len(r)))

    def pow_elem(self, a, e):
        if a == 0:
            return 0 if e else 1
        e %= self.q - 1
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_elems(result, base)
            base = self.mul_elems(base, base)
            e >>= 1
        return result

    def inv_elem(self, a):
        assert a != 0
        return int(self.inv[a])

    def elem_order(self, x):
        """Multiplicative order of nonzero x."""
        assert x != 0
        if x in self._order_cache:
            return self._order_cache[x]
        n = self.q - 1
        order = n
        for ell in _prime_factors(n):
            while order % ell == 0 and self.pow_elem(x, order // ell) == 1:
                order //= ell
        self._order_cache[x] = order
        return order

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.k)


_field_cache = {}


def field_create(p, k):
    """The canonical GF(p^k) (cached; fields are immutable)."""
    key = (p, k)
    if key not in _field_cache:
        _field_cache[key] = FiniteField(p, k)
    return _field_cache[key]


def element_of_order(F, n):
    """Least element (by index) of multiplicative order exactly n."""
    if n < 1 or (F.q - 1) % n != 0:
        raise ValueError("order %d does not divide %d" % (n, F.q - 1))
    for x in range(1, F.q):
        if F.elem_order(x) == n:
            return x
    raise AssertionError("cyclic group must contain the order")  # unreachable


def subfield_embed(F_small, F_big):
    """Embedding table: numpy array emb with emb[x] = the image of x.

    Found by locating the least-index root beta of F_small's defining
    polynomial inside F_big, evaluated by Horner's rule at every element
    at once; x with digits (c_i) maps to sum c_i beta^i.
    """
    if F_small.p != F_big.p or F_big.k % F_small.k != 0:
        raise ValueError("no embedding %r -> %r" % (F_small, F_big))
    cand = np.arange(F_big.q)
    acc = np.zeros(F_big.q, dtype=np.int64)
    for c in reversed(F_small.poly):
        acc = F_big.add[F_big.mul[acc, cand], c]
    beta = int(np.flatnonzero(acc == 0)[0])
    emb = np.zeros(F_small.q, dtype=np.int64)
    power = 1
    for i in range(F_small.k):
        emb = F_big.add[emb, F_big.mul[F_small._digits[:, i], power]]
        power = F_big.mul_elems(power, beta)
    assert np.bincount(emb).max() == 1
    return emb


def trace_table(F, n):
    """Tr from F = GF(p^k) down to GF(p^n), n | k, at every element of F,
    as indices in the canonical field_create(p, n)."""
    if F.k % n != 0:
        raise ValueError("%d does not divide %d" % (n, F.k))
    F_sub = field_create(F.p, n)
    back = np.full(F.q, -1, dtype=np.int64)
    back[subfield_embed(F_sub, F)] = np.arange(F_sub.q)
    frob_n = frob_table(F, n)
    acc = np.arange(F.q, dtype=np.int64)
    tr = np.arange(F.q, dtype=np.int64)
    for _ in range(F.k // n - 1):
        acc = frob_n[acc]
        tr = F.add[tr, acc]
    out = back[tr]
    if (out < 0).any():
        raise AssertionError("trace left the subfield")
    return out


def frob_table(F, i=1):
    """Table of x -> x^(p^i) over all of F."""
    e = F.p ** (i % F.k)
    out = np.ones(F.q, dtype=np.int64)
    out[0] = 0
    base = np.arange(F.q, dtype=np.int64)
    while e:
        if e & 1:
            out = F.mul[out, base]
        base = F.mul[base, base]
        e >>= 1
    return out
