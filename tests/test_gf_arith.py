import numpy as np

from orbitforge.gf_arith import (element_of_order, field_create, frob_table,
                                 is_prime, prime_power, subfield_embed,
                                 trace_table)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes), n


def test_prime_power_small():
    for n in range(130):
        want = next(((p, k) for p in range(2, n + 1) if is_prime(p)
                     for k in range(1, 8) if p ** k == n), None)
        assert prime_power(n) == want, n


def test_field_axioms_random():
    rng = np.random.RandomState(1)
    for p, k in ((2, 3), (3, 2), (5, 2), (2, 4), (7, 1)):
        F = field_create(p, k)
        assert F.q == p ** k
        for _ in range(150):
            a, b, c = (int(rng.randint(F.q)) for _ in range(3))
            assert F.add_elems(a, b) == F.add_elems(b, a)
            assert F.mul_elems(a, b) == F.mul_elems(b, a)
            assert F.add_elems(F.add_elems(a, b), c) == \
                F.add_elems(a, F.add_elems(b, c))
            assert F.mul_elems(F.mul_elems(a, b), c) == \
                F.mul_elems(a, F.mul_elems(b, c))
            assert F.mul_elems(a, F.add_elems(b, c)) == \
                F.add_elems(F.mul_elems(a, b), F.mul_elems(a, c))
            assert F.add_elems(a, F.neg_elem(a)) == 0
            if a:
                assert F.mul_elems(a, F.inv_elem(a)) == 1
        # indices 0 and 1 really are the additive and multiplicative units
        assert F.add_elems(0, 5 % F.q) == 5 % F.q
        assert F.mul_elems(1, 5 % F.q) == 5 % F.q


def test_field_caching():
    assert field_create(3, 2) is field_create(3, 2)


def test_element_orders():
    F = field_create(3, 4)
    g = element_of_order(F, 80)
    assert F.elem_order(g) == 80
    h = element_of_order(F, 16)
    assert F.elem_order(h) == 16
    seen = {F.pow_elem(h, t) for t in range(16)}
    assert len(seen) == 16


def test_frobenius():
    F = field_create(2, 6)
    rng = np.random.RandomState(2)
    tab = frob_table(F, 1)
    for _ in range(100):
        a, b = int(rng.randint(F.q)), int(rng.randint(F.q))
        assert tab[a] == F.mul_elems(a, a)
        # field automorphism
        assert tab[F.add_elems(a, b)] == F.add_elems(int(tab[a]), int(tab[b]))
    # order of Frobenius is the degree
    x = element_of_order(F, F.q - 1)
    y = x
    for _ in range(6):
        y = tab[y]
    assert y == x
    # x -> x^(p^i) is the i-th power of x -> x^p, exponent taken mod k
    assert np.array_equal(frob_table(F, 2), tab[tab])
    assert np.array_equal(frob_table(F, 6), np.arange(F.q))


def test_trace_surjective_additive():
    for (p, k, n) in ((2, 4, 2), (3, 4, 2), (2, 6, 3), (5, 2, 1)):
        F = field_create(p, k)
        tt = trace_table(F, n)
        F0 = field_create(p, n)
        vals = set(tt.tolist())
        assert vals == set(range(F0.q))          # onto the subfield
        counts = np.bincount(tt, minlength=F0.q)
        assert np.all(counts == F.q // F0.q)     # balanced fibers
        rng = np.random.RandomState(3)
        for _ in range(60):
            a, b = int(rng.randint(F.q)), int(rng.randint(F.q))
            assert tt[F.add_elems(a, b)] == F0.add_elems(int(tt[a]),
                                                         int(tt[b]))


def test_trace_tower_transitive():
    F = field_create(2, 6)
    mid = trace_table(F, 3)
    F3 = field_create(2, 3)
    low = trace_table(F3, 1)
    assert np.array_equal(low[mid], trace_table(F, 1))


def test_subfield_embed():
    F2 = field_create(2, 2)
    F6 = field_create(2, 6)
    emb = subfield_embed(F2, F6)
    assert emb[0] == 0 and emb[1] == 1
    for a in range(4):
        for b in range(4):
            assert emb[F2.add_elems(a, b)] == \
                F6.add_elems(int(emb[a]), int(emb[b]))
            assert emb[F2.mul_elems(a, b)] == \
                F6.mul_elems(int(emb[a]), int(emb[b]))
    # image is exactly the fixed field of Frobenius^2
    img = set(emb.tolist())
    fixed = set(np.flatnonzero(frob_table(F6, 2) == np.arange(F6.q)).tolist())
    assert img == fixed
    # embedding a field into itself is the identity
    assert np.array_equal(subfield_embed(F6, F6), np.arange(F6.q))
