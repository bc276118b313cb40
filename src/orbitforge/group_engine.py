"""Finite groups as dense multiplication tables.

A group is a sorted list of element codes (tuples of small ints, or plain
ints) plus an (n, n) index table.  Everything downstream -- orders,
center, conjugacy classes, derived and Frattini subgroups,
and the isomorphism / automorphism search -- works on the table.

Every table is proved a group on construction: Latin square, two-sided
identity and inverses, and associativity by Light's test on a generating
set S, at n^2 * |S| cost for every order.  The center is the centralizer
of S; G', the lower central terms and a p-group's Frattini subgroup are
normal closures of commutators and p-th powers of generators.  A
non-p-group's Frattini subgroup is the intersection of its maximal
subgroups, read off the whole subgroup lattice; the lattice walk closes
<H, g> once per class H{g^k : gcd(k, |g|) = 1}H, since every member of
that class gives the same subgroup.  Caps: the lattice at |G| <= 512,
isomorphism search at |G| <= 1024, and Aut(G) at |G| <= 512, found as
strong generators plus its order by an exhaustive base-image backtrack.
"""

import math
import os
import struct
from collections import Counter, deque

import numpy as np

from ._kernels import BLOCK_CELLS, closure_subgroup, orbit_labels
from .permgroup import PermGroup

LATTICE_CAP = 512
ISO_CAP = 1 << 10
AUT_ENUM_CAP = 1 << 9


def _prime_power(n):
    """(p, a) with n = p^a, or None."""
    if n < 2:
        return None
    p = None
    m = n
    for cand in range(2, int(math.isqrt(n)) + 1):
        if m % cand == 0:
            p = cand
            break
    if p is None:
        return (n, 1)
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    return (p, a) if m == 1 else None


class FiniteGroup:
    """Immutable once built; caches fill lazily."""

    def __init__(self, elems, mul):
        self.elems = list(elems)
        self.n = len(self.elems)
        self.index = {c: i for i, c in enumerate(self.elems)}
        if len(self.index) != self.n:
            raise ValueError("duplicate element codes")
        if any(self.elems[i] >= self.elems[i + 1] for i in range(self.n - 1)):
            raise ValueError("element codes must be sorted")
        self.mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int64))
        if self.mul.shape != (self.n, self.n):
            raise ValueError("table shape mismatch")
        self._cache = {}
        self._validate()

    # ------------------------------------------------------------- checks

    def _validate(self):
        n, mul = self.n, self.mul
        ar = np.arange(n, dtype=np.int64)
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("table entries out of range")
        # every pass over the whole table reads slabs of BLOCK_CELLS cells
        step = max(1, BLOCK_CELLS // n)
        for lo in range(0, n, step):
            if not (np.all(np.sort(mul[lo:lo + step], axis=1) == ar) and
                    np.all(np.sort(mul[:, lo:lo + step], axis=0) ==
                           ar[:, None])):
                raise ValueError("table is not a Latin square")
        # only the row with 0 in column 0 can be a left identity
        e = int(np.flatnonzero(mul[:, 0] == 0)[0])
        if not (np.array_equal(mul[e], ar) and np.array_equal(mul[:, e], ar)):
            raise ValueError("no two-sided identity")
        self.e = e
        # each row of a Latin square holds e exactly once
        inv = np.concatenate([np.argmax(mul[lo:lo + step] == e, axis=1)
                              for lo in range(0, n, step)])
        if not np.all(mul[inv, ar] == e):
            raise ValueError("left/right inverse mismatch")
        self.inv = inv
        # Light's associativity test: (xs)y = x(sy) for every x, y and
        # every s of the generating sequence, rows of x in blocks.  The s
        # that pass are closed under products ((x(st))y = ((xs)t)y =
        # (xs)(ty) = x(s(ty)) = x((st)y)) and closure() builds the
        # generated set from products alone, so this proves the table
        # associative.  The sequence is well defined on any Latin square
        # with an identity: right multiplication is a permutation, so
        # orders() ends, and classes and closures are sets of entries.
        for s in self.generating_sequence():
            sy = mul[s]
            for lo in range(0, n, step):
                xs = mul[lo:lo + step, s]
                if not np.array_equal(mul[xs], mul[lo:lo + step][:, sy]):
                    raise ValueError("associativity fails at generator %d"
                                     % s)

    # -------------------------------------------------------------- basics

    def orders(self):
        if "orders" not in self._cache:
            n, mul = self.n, self.mul
            ar = np.arange(n, dtype=np.int64)
            out = np.zeros(n, dtype=np.int64)
            cur = ar.copy()
            k = 1
            out[cur == self.e] = 1
            while np.any(out == 0):
                cur = mul[cur, ar]
                k += 1
                out[(cur == self.e) & (out == 0)] = k
                if k > n:
                    raise RuntimeError("order computation overran |G|")
            self._cache["orders"] = out
        return self._cache["orders"]

    def exponent(self):
        return math.lcm(*{int(o) for o in self.orders()})

    def center(self):
        """The elements that commute with every generator."""
        if "center" not in self._cache:
            S = self.generating_sequence()
            mask = np.all(self.mul[:, S] == self.mul[S].T, axis=1)
            self._cache["center"] = np.nonzero(mask)[0].astype(np.int64)
        return self._cache["center"]

    def commutator(self, a, b):
        """a^-1 b^-1 a b, elementwise on indices or index arrays."""
        mul, inv = self.mul, self.inv
        return mul[mul[inv[a], inv[b]], mul[a, b]]

    def conjugation_perm(self, g):
        return self.mul[self.inv[g]][self.mul[:, g]]

    def class_labels(self):
        """Conjugacy class labels, one block of conjugations at a time."""
        if "class_labels" not in self._cache:
            n, mul, lab = self.n, self.mul, None
            step = max(1, BLOCK_CELLS // n)
            for lo in range(0, n, step):
                g = np.arange(lo, min(lo + step, n))
                # row t is conjugation_perm(g[t])
                lab = orbit_labels(mul[self.inv[g][:, None], mul[:, g].T], n,
                                   start=lab)
            self._cache["class_labels"] = lab
        return self._cache["class_labels"]

    def class_sizes(self):
        """Size of the conjugacy class of each element."""
        lab = self.class_labels()
        _, invidx, counts = np.unique(lab, return_inverse=True,
                                      return_counts=True)
        return counts[invidx]

    def closure(self, seed):
        return closure_subgroup(self.mul, np.append(
            np.asarray(seed, dtype=np.int64), self.e))

    def normal_closure(self, seed):
        """(sorted members, generators) of the smallest normal subgroup K
        holding seed, at |K| * |generators| cells per closure.  An element
        the closure lacks becomes a generator and queues its conjugates by
        the generating sequence S; an empty queue means K^s <= K for
        every s in S, so K is normal."""
        S = self.generating_sequence()
        members, gens = self.closure([]), []
        inK = np.arange(self.n) == self.e
        queue = deque(np.ravel(seed).tolist())
        while queue:
            x = queue.popleft()
            if inK[x]:
                continue
            gens.append(x)
            members = self.closure(gens)
            inK[members] = True
            queue.extend(self.mul[self.mul[self.inv[S], x], S].tolist())
        return members, gens

    def _derived_pair(self):
        """G' as the normal closure of [s, t] for s, t in S."""
        if "derived" not in self._cache:
            S = np.asarray(self.generating_sequence(), dtype=np.int64)
            self._cache["derived"] = self.normal_closure(
                self.commutator(S[:, None], S))
        return self._cache["derived"]

    def derived(self):
        return self._derived_pair()[0]

    def power_map(self, k):
        ar = np.arange(self.n, dtype=np.int64)
        out = np.full(self.n, self.e, dtype=np.int64)
        base = ar.copy()
        while k:
            if k & 1:
                out = self.mul[out, base]
            base = self.mul[base, base]
            k >>= 1
        return out

    def order_profile(self):
        cnt = Counter(int(o) for o in self.orders())
        return tuple(sorted(cnt.items()))

    # ----------------------------------------------- subgroup machinery

    def all_subgroups(self):
        """Every subgroup, by cyclic extension (Holt, Eick & O'Brien,
        Handbook of Computational Group Theory, 2005): each subgroup H is
        queued with the generators that built it and extended by one g
        from each class H{g^k : gcd(k, |g|) = 1}H outside H.  Every
        member h g^k h' of that class gives <H, h g^k h'> = <H, g>, since
        g^k generates <g>, so skipping the rest of the class loses no
        subgroup, and the walk still reaches every subgroup.  The coprime
        powers P of g come from one table of x^k for k < exp(G), and the
        class is marked as (H P) H, two steps of at most n |H| cells
        each; |G| <= 512."""
        if self.n > LATTICE_CAP:
            raise ValueError("subgroup lattice: group order %d exceeds cap %d"
                             % (self.n, LATTICE_CAP))
        if "subgroups" not in self._cache:
            mul, orders = self.mul, self.orders()
            ar = np.arange(self.n)
            powers = np.empty((self.exponent(), self.n), dtype=np.int64)
            powers[0] = self.e
            for k in range(1, len(powers)):
                powers[k] = mul[powers[k - 1], ar]
            units = {o: np.flatnonzero(np.gcd(np.arange(o), o) == 1)
                     for o in set(orders.tolist())}
            triv = self.closure([])
            seen = {triv.tobytes(): triv}
            queue = deque([(triv, [])])
            while queue:
                H, hgens = queue.popleft()
                covered = np.zeros(self.n, dtype=bool)
                covered[H] = True
                for g in range(self.n):
                    if covered[g]:
                        continue
                    P = powers[units[int(orders[g])], g]
                    X = np.unique(mul[np.ix_(H, P)])
                    covered[mul[np.ix_(X, H)]] = True
                    K = closure_subgroup(mul, hgens + [g])
                    key = K.tobytes()
                    if key not in seen:
                        seen[key] = K
                        queue.append((K, hgens + [g]))
            self._cache["subgroups"] = sorted(seen.values(),
                                              key=lambda a: (len(a),
                                                             a.tolist()))
        return self._cache["subgroups"]

    def maximal_subgroups(self):
        subs = [H for H in self.all_subgroups() if len(H) < self.n]
        sets = [frozenset(H.tolist()) for H in subs]
        out = []
        for i, H in enumerate(subs):
            if not any(j != i and sets[i] < sets[j] for j in range(len(subs))):
                out.append(H)
        return out

    def frattini(self):
        """Frattini subgroup; None when the group is not a p-group and
        exceeds the lattice cap."""
        if "frattini" not in self._cache:
            pp = _prime_power(self.n)
            if self.n == 1:
                phi = np.array([self.e], dtype=np.int64)
            elif pp is not None:
                # Phi = G'G^p (Burnside's basis theorem): the normal
                # closure of the generators of G' and the p-th powers of S
                S = self.generating_sequence()
                phi = self.normal_closure(self._derived_pair()[1] +
                                          self.power_map(pp[0])[S].tolist())[0]
            elif self.n <= LATTICE_CAP:
                maxes = self.maximal_subgroups()
                mask = np.ones(self.n, dtype=bool)
                for H in maxes:
                    hm = np.zeros(self.n, dtype=bool)
                    hm[H] = True
                    mask &= hm
                phi = np.nonzero(mask)[0].astype(np.int64)
            else:
                phi = None
            self._cache["frattini"] = phi
        return self._cache["frattini"]

    def gamma_series(self):
        """Lower central series gamma_1 = G, gamma_{k+1} = [G, gamma_k],
        until trivial or stable: the normal closure of [s, h] for s in S
        and h among the generators of gamma_k."""
        if "gamma" not in self._cache:
            S = np.asarray(self.generating_sequence(), dtype=np.int64)
            series = [np.arange(self.n, dtype=np.int64)]
            cur, hgens = self._derived_pair()
            series.append(cur)
            while len(cur) > 1:
                nxt, hgens = self.normal_closure(self.commutator(
                    S[:, None], np.asarray(hgens, dtype=np.int64)))
                if np.array_equal(nxt, cur):
                    break
                series.append(nxt)
                cur = nxt
            self._cache["gamma"] = series
        return self._cache["gamma"]

    def generating_sequence(self):
        """Greedy: highest element order first, then smallest class."""
        if "gens" not in self._cache:
            orders = self.orders()
            csz = self.class_sizes()
            cand = sorted(range(self.n),
                          key=lambda i: (-int(orders[i]), int(csz[i]), i))
            self._cache["gens"] = self.greedy_generators(cand, [self.e])
        return self._cache["gens"]

    def greedy_generators(self, cand, start):
        """The members of cand, in order, that are not yet in the closure
        of start and the members taken before them; stops once that
        closure has len(cand) elements, so cand should list a subgroup
        holding start."""
        gens, start = [], list(start)
        cur = self.closure(start)
        member = np.zeros(self.n, dtype=bool)
        member[cur] = True
        for c in cand:
            c = int(c)
            if member[c]:
                continue
            gens.append(c)
            cur = self.closure(start + gens)
            member[:] = False
            member[cur] = True
            if len(cur) == len(cand):
                break
        return gens


def group_from_oracle(elements, mul):
    """Build a FiniteGroup from element codes and either a multiplication
    callable on codes or a precomputed index table (elements then must
    already be sorted)."""
    if callable(mul):
        elems = sorted(elements)
        index = {c: i for i, c in enumerate(elems)}
        n = len(elems)
        table = np.empty((n, n), dtype=np.int64)
        for i, a in enumerate(elems):
            row = table[i]
            for j, b in enumerate(elems):
                row[j] = index[mul(a, b)]
        return FiniteGroup(elems, table)
    return FiniteGroup(elements, mul)


def characteristic_core(G):
    """Center, derived, Frattini, N = <G', Phi>, and the lower central
    series, as sorted index arrays (Frattini and N may be None past the
    non-p-group lattice cap)."""
    Z = G.center()
    D = G.derived()
    phi = G.frattini()
    if phi is None:
        N = None
    else:
        N = G.closure(np.unique(np.concatenate([D, phi])))
    return {"center": Z, "derived": D, "frattini": phi, "N": N,
            "gamma": G.gamma_series()}


# ----------------------------------------------------------- Cayley files

CAYLEY_MAGIC = b"G3O1"


def export_cayley(G, path):
    with open(path, "wb") as fh:
        fh.write(CAYLEY_MAGIC)
        fh.write(struct.pack("<I", G.n))
        fh.write(G.mul.astype("<u4").tobytes())


def import_cayley(path):
    """Rebuild and re-validate a group from a G3O1 file: magic, uint32 n,
    then n*n little-endian uint32 entries, and nothing after them."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] != CAYLEY_MAGIC:
            raise ValueError("bad magic")
        if len(head) != 8:
            raise ValueError("truncated header")
        (n,) = struct.unpack("<I", head[4:])
        size = os.fstat(fh.fileno()).st_size
        if size != 8 + 4 * n * n:
            raise ValueError("file holds %d bytes, header n=%d needs %d"
                             % (size, n, 8 + 4 * n * n))
        data = np.frombuffer(fh.read(4 * n * n), dtype="<u4")
    return FiniteGroup(list(range(n)), data.reshape(n, n).astype(np.int64))


# ------------------------------------------------- homomorphism search

class _HomSearch:
    """Layered backtracking over generator images, vectorized per chunk.

    Level k knows S_k = <gens[:k]> in G as a BFS tree; a batch of partial
    image rows is propagated down the tree in one numpy pass, then pruned
    by the multiplication constraints on every (element of S_k, generator)
    pair and by injectivity on S_k.
    """

    def __init__(self, G, H, find_all):
        self.G, self.H, self.find_all = G, H, find_all
        self.gens = G.generating_sequence()
        self.k_total = len(self.gens)
        g_ord, g_csz = G.orders(), G.class_sizes()
        h_ord, h_csz = H.orders(), H.class_sizes()
        self.buckets = []
        for g in self.gens:
            sel = (h_ord == g_ord[g]) & (h_csz == g_csz[g])
            self.buckets.append(np.nonzero(sel)[0].astype(np.int64))
        self.levels = [self._level(k) for k in range(1, self.k_total + 1)]

    def _level(self, k):
        G = self.G
        gset = self.gens[:k]
        members = G.closure(gset)
        assigned = {G.e}
        assigned.update(gset)
        assign_edges = []   # (target, source, gen position)
        check_edges = [[] for _ in range(k)]  # per gen: (source, target)
        queue = deque(sorted(assigned))
        pending = set(queue)
        while queue:
            s = queue.popleft()
            for i, g in enumerate(gset):
                t = int(G.mul[s, g])
                if t in assigned:
                    check_edges[i].append((s, t))
                else:
                    assigned.add(t)
                    assign_edges.append((t, s, i))
                    if t not in pending:
                        pending.add(t)
                        queue.append(t)
        return {"members": members, "assign": assign_edges,
                "check": [np.array(ce, dtype=np.int64).reshape(-1, 2)
                          for ce in check_edges]}

    def _evaluate(self, rows, k):
        """rows: (B, k) candidate image tuples; returns (mask, phi)."""
        G, H = self.G, self.H
        lev = self.levels[k - 1]
        B = rows.shape[0]
        phi = np.full((B, G.n), -1, dtype=np.int64)
        phi[:, G.e] = H.e
        for j in range(k):
            phi[:, self.gens[j]] = rows[:, j]
        for (t, s, i) in lev["assign"]:
            phi[:, t] = H.mul[phi[:, s], rows[:, i]]
        ok = np.ones(B, dtype=bool)
        for i in range(k):
            ce = lev["check"][i]
            if ce.size == 0:
                continue
            lhs = H.mul[phi[:, ce[:, 0]], rows[:, i][:, None]]
            ok &= np.all(lhs == phi[:, ce[:, 1]], axis=1)
        mem = lev["members"]
        sub = np.sort(phi[:, mem], axis=1)
        if sub.shape[1] > 1:
            ok &= np.all(sub[:, 1:] != sub[:, :-1], axis=1)
        return ok, phi

    def _collect(self, ok, phi):
        hits = phi[ok]
        if len(hits):
            self.found.append(hits if self.find_all else hits[:1])
        return bool(len(hits)) and not self.find_all

    def _descend(self, rows, k):
        """rows have survived level k; extend by bucket k and recurse."""
        bucket = self.buckets[k]
        if bucket.size == 0:
            return False
        max_rows = max(1, BLOCK_CELLS // self.G.n)
        step = max(1, max_rows // bucket.size)
        for lo in range(0, rows.shape[0], step):
            chunk = rows[lo:lo + step]
            B = chunk.shape[0]
            ext = np.empty((B * bucket.size, k + 1), dtype=np.int64)
            ext[:, :k] = np.repeat(chunk, bucket.size, axis=0)
            ext[:, k] = np.tile(bucket, B)
            ok, phi = self._evaluate(ext, k + 1)
            if k + 1 == self.k_total:
                if self._collect(ok, phi):
                    return True
            else:
                surv = ext[ok]
                if surv.shape[0] and self._descend(surv, k + 1):
                    return True
        return False

    def run(self, prefix=()):
        """The maps found, as an (m, |G|) array; with a prefix, only the
        maps sending gens[:len(prefix)] to it."""
        self.found = []
        if self.k_total == 0:
            return np.array([[self.H.e]], dtype=np.int64)
        rows = np.asarray(prefix, dtype=np.int64).reshape(1, -1)
        k = rows.shape[1]
        if k == 0:
            self._descend(rows, 0)
        elif k == self.k_total:
            self._collect(*self._evaluate(rows, k))
        elif self._evaluate(rows, k)[0][0]:
            self._descend(rows, k)
        if not self.found:
            return np.empty((0, self.G.n), dtype=np.int64)
        return np.concatenate(self.found)


def _invariant_screen(G, H):
    if G.n != H.n:
        return False
    if G.order_profile() != H.order_profile():
        return False
    gz, hz = len(G.center()), len(H.center())
    if gz != hz:
        return False
    if len(G.derived()) != len(H.derived()):
        return False
    g_csz, h_csz = G.class_sizes(), H.class_sizes()
    g_ord, h_ord = G.orders(), H.orders()
    g_prof = sorted(zip(g_csz.tolist(), g_ord.tolist()))
    if g_prof != sorted(zip(h_csz.tolist(), h_ord.tolist())):
        return False
    return True


def hom_on_generators(G, H, phis):
    """Row t says whether the index map phis[t]: G -> H is a
    homomorphism, proved by phi(gx) = phi(g)phi(x) for every x and every
    g of G's generating sequence.  The g that pass are closed under
    products (take x = h to get phi(gh) = phi(g)phi(h)), so in a finite
    group they form a subgroup, which holds the generators and so is G.
    Costs |gens| * n cells per map instead of n^2."""
    phis = np.asarray(phis, dtype=np.int64).reshape(-1, G.n)
    gens = G.generating_sequence() or [G.e]
    ok = np.ones(len(phis), dtype=bool)
    step = max(1, BLOCK_CELLS // G.n)
    for lo in range(0, len(phis), step):
        blk = phis[lo:lo + step]
        for g in gens:
            ok[lo:lo + step] &= np.all(
                blk[:, G.mul[g]] == H.mul[blk[:, g][:, None], blk], axis=1)
    return ok


def find_isomorphism(G, H):
    """Element-index map G -> H, or None.  Exhaustive given the screens:
    if no generator-image assignment survives, the groups are not
    isomorphic."""
    n = max(G.n, H.n)
    if n > ISO_CAP:
        raise ValueError("isomorphism: group order %d exceeds cap %d"
                         % (n, ISO_CAP))
    if not _invariant_screen(G, H):
        return None
    found = _HomSearch(G, H, find_all=False).run()
    if not len(found):
        return None
    phi = found[0]
    assert hom_on_generators(G, H, phi)[0]
    assert np.array_equal(np.sort(phi), np.arange(G.n))
    return phi


def all_automorphisms(G, cap=AUT_ENUM_CAP):
    """Every automorphism of G as an (m, n) permutation array, listed by
    the find-all search; the reference the tests hold
    automorphism_group to."""
    if G.n > cap:
        raise ValueError("automorphism enumeration: group order %d exceeds "
                         "cap %d" % (G.n, cap))
    phis = _HomSearch(G, G, find_all=True).run()
    phis = phis[hom_on_generators(G, G, phis)]
    ar = np.arange(G.n)
    bij = np.all(np.sort(phis, axis=1) == ar, axis=1)
    phis = phis[bij]
    order = np.lexsort(phis.T[::-1])
    return phis[order]


def automorphism_group(G, cap=AUT_ENUM_CAP):
    """(gens, order): strong generators of Aut(G) as an (m, n)
    permutation array, and |Aut(G)|, by a base-image backtrack with the
    generating sequence g_0..g_{k-1} as base (Butler, Fundamental
    Algorithms for Permutation Groups, LNCS 559, 1991, ch. 10; Leon, J.
    Symb. Comput. 12, 1991).

    A_j, the automorphisms fixing g_0..g_{j-1}, is built from the deepest
    level up.  At level j every automorphism found so far lies in A_j.
    Each candidate image c of g_j outside the orbit of g_j under them,
    and outside every orbit already ruled out, gets one find-first
    search below the images g_0..g_{j-1}, c.  A hit becomes a generator.
    A miss rules out c's whole orbit: a known automorphism carrying c to
    c' would carry a hit for c' back to one for c.  Once every candidate
    is settled, the generators contain A_{j+1} and are transitive on the
    A_j-orbit of g_j, so they generate A_j and |A_j| is that orbit's
    length times |A_{j+1}|.  Exhaustive, like all_automorphisms."""
    if G.n > cap:
        raise ValueError("automorphism group: group order %d exceeds cap %d"
                         % (G.n, cap))
    search = _HomSearch(G, G, find_all=False)
    base = search.gens
    gens = np.empty((0, G.n), dtype=np.int64)
    ar = np.arange(G.n)
    order = 1
    for j in reversed(range(search.k_total)):
        lab = orbit_labels(gens, G.n)
        ruled_out = []
        for c in search.buckets[j].tolist():
            if lab[c] == lab[base[j]] or lab[c] in lab[ruled_out]:
                continue
            hit = search.run(base[:j] + [c])   # one row or none
            if not len(hit):
                ruled_out.append(c)
                continue
            if not (hom_on_generators(G, G, hit)[0] and
                    np.array_equal(np.sort(hit[0]), ar)):
                raise AssertionError("search hit is not an automorphism")
            gens = np.concatenate([gens, hit])
            lab = orbit_labels(hit, G.n, start=lab)
        order *= int(np.count_nonzero(lab == lab[base[j]]))
    if PermGroup(gens, G.n).order() != order:
        raise AssertionError("strong generators do not give |Aut|")
    return gens, order
