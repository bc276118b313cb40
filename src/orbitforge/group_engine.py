"""Finite groups as dense multiplication tables.

A group is a sorted list of element codes (tuples of small ints, or plain
ints) plus an (n, n) index table.  Everything downstream -- orders,
center, conjugacy classes, derived and Frattini subgroups,
and the isomorphism / automorphism search -- works on the table.

A table of more than BLOCK_CELLS cells (n > 256) is int32, half the
bytes of int64 (its entries are below n, and the families stop at
SIZE_CAP = 2^13); smaller tables stay int64 (table_dtype).  Their
searches chain gathers, and numpy converts every int32 index array to
intp, so an all-int32 variant ran the order <= 128 Aut oracle 4-6%
slower.  Tables are built in their dtype and read in it: no kernel
widens one to int64.

Every table is proved a group on construction, and only the range check
and Light's test read the whole table (n^2 * |S| cells for a generating
set S, at every order).  The s that pass Light's test are closed under
products and S generates the table, so it is associative (Clifford &
Preston, The Algebraic Theory of Semigroups I, 1961, 1.2).  With a
two-sided identity (the one row holding 0 in column 0) and the left
inverses x^(o(x)-1) of the power walk that also gives the orders, it is
a monoid with left inverses, hence a group and a Latin square.  S is
picked before associativity is known, from the power walk, class labels
and closures, and each of these ends on any in-range table: the walk
stops at |G| steps, orbit labels only fall to a fixed point, and a
closure is a breadth-first walk over a finite set.  S is irredundant (a
greedy pick, then a reverse pass that drops each generator the rest
still generate), so a p-group gets d(G) = log_p |G : Phi(G)| generators,
and everything priced per generator scales with d(G).  Conjugacy classes
are the orbits of conjugation by another generating set S' (greedy by
element order, then index, since S breaks ties by class size), at |S'| n
cells.  They are labelled before Light's test, on a table not yet proved
associative; there they only order the candidates for S, and Light's
proof needs only some generating set, so no wrong label lets a non-group
pass.  The center is the centralizer of S; G', the lower central terms
and a p-group's Frattini subgroup are normal closures of commutators and
p-th powers of generators.  A non-p-group's Frattini subgroup is the
intersection of its maximal subgroups, read off the whole subgroup
lattice.  The lattice takes no closure: each subgroup K > 1 is the union
of the p cosets of a normal subgroup of prime index p, so the walk also
proves G solvable and refuses any other group.  The greedy pick and
normal closures grow each closure from the one before it.
Caps: the lattice at |G| <= 512, isomorphism search at |G| <= 1024, and
Aut(G) at |G| <= 512, found as strong generators plus its order by an
exhaustive base-image backtrack on the base S.  Both searches walk one
generator, _HomSearch._descend (from the root through hits, or from a
screened candidate), which evaluates candidate generator images one BFS
depth of <S> at a time, drops a candidate at the first depth where a
relation fails, and yields the survivors lazily; every hit a caller
keeps is then proved by is_isomorphism.
"""

import functools
import math
import os
import struct
from collections import Counter, deque

import numpy as np

from ._kernels import BLOCK_CELLS, closure_subgroup, orbit_labels
from .gf_arith import is_prime, prime_power
from .permgroup import PermGroup

LATTICE_CAP = 512
ISO_CAP = 1 << 10
AUT_ENUM_CAP = 1 << 9


def table_dtype(n):
    """The dtype of an order-n table: int32 past BLOCK_CELLS cells,
    else int64 (see the module docstring)."""
    return np.dtype(np.int32 if n * n > BLOCK_CELLS else np.int64)


class FiniteGroup:
    """Immutable once built; caches fill lazily."""

    def __init__(self, elems, mul):
        self.elems = list(elems)
        self.n = len(self.elems)
        # strictly increasing, so also free of duplicates
        if any(self.elems[i] >= self.elems[i + 1] for i in range(self.n - 1)):
            raise ValueError("element codes must be sorted")
        mul = np.asarray(mul)
        if mul.shape != (self.n, self.n):
            raise ValueError("table shape mismatch")
        if self.n == 0:
            raise ValueError("not a group: the table is empty")
        # on the caller's array: narrowed to int32, 2^32 would wrap to 0
        if mul.min() < 0 or mul.max() >= self.n:
            raise ValueError("table entries out of range")
        self.mul = np.ascontiguousarray(mul, dtype=table_dtype(self.n))
        self._cache = {}
        self._validate()

    # ------------------------------------------------------------- checks

    def _validate(self):
        """Prove the in-range table a group; after the range check in
        __init__ only Light's test reads the whole table.  e is the one
        row holding 0 in column 0 (a group's column is a permutation),
        checked two-sided.  The power walk x^k = x^(k-1) x gives
        orders() and the left inverses inv[x] = x^(o(x)-1); in a group
        it reaches e within |G| steps, so a walk that overruns is
        refused.  Light's test then proves the table associative, and a
        monoid with left inverses is a group, so every row and column is
        a permutation.  The walk, the class labels and the closures that
        pick S end on any in-range table (see the module docstring)."""
        n, mul = self.n, self.mul
        ar = np.arange(n, dtype=np.int64)
        zeros = np.flatnonzero(mul[:, 0] == 0)
        if len(zeros) != 1:
            raise ValueError("not a group: column 0 holds 0 in %d rows"
                             % len(zeros))
        e = int(zeros[0])
        if not (np.array_equal(mul[e], ar) and np.array_equal(mul[:, e], ar)):
            raise ValueError("no two-sided identity")
        self.e = e
        orders = np.zeros(n, dtype=np.int64)
        inv = np.empty(n, dtype=np.int64)
        prev, cur = np.full(n, e, dtype=np.int64), ar
        for k in range(1, n + 1):
            hit = (cur == e) & (orders == 0)
            orders[hit] = k
            inv[hit] = prev[hit]
            if np.all(orders):
                break
            prev, cur = cur, mul[cur, ar]
        else:
            raise ValueError("not a group: the powers of element %d do not "
                             "return to the identity within |G| = %d steps"
                             % (np.flatnonzero(orders == 0)[0], n))
        self._cache["orders"] = orders
        self.inv = inv
        # Light's associativity test: (xs)y = x(sy) for every x, y and
        # every s of the generating sequence, rows of x in blocks.  The s
        # that pass are closed under products ((x(st))y = ((xs)t)y =
        # (xs)(ty) = x(s(ty)) = x((st)y)) and closure() builds the
        # generated set from products alone, so this proves the table
        # associative.  Both sides gather into two blocks allocated once;
        # the entries are in range, so mode="clip" lets np.take write in
        # place.
        S = self.generating_sequence()
        step = max(1, BLOCK_CELLS // n)
        lhs = np.empty((min(step, n), n), dtype=mul.dtype)
        rhs = np.empty_like(lhs)
        for s in S:
            sy = mul[s]
            for lo in range(0, n, step):
                rows = mul[lo:lo + step]
                m = len(rows)
                np.take(mul, rows[:, s], axis=0, out=lhs[:m], mode="clip")
                np.take(rows, sy, axis=1, out=rhs[:m], mode="clip")
                if not np.array_equal(lhs[:m], rhs[:m]):
                    raise ValueError("associativity fails at generator %d"
                                     % s)

    # -------------------------------------------------------------- basics

    def orders(self):
        """Element orders, from the power walk of _validate."""
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
        """Row t is conjugation x -> g[t]^-1 x g[t], for an index array
        g."""
        g = np.asarray(g, dtype=np.int64)
        return self.mul[self.inv[g][:, None], self.mul[:, g].T]

    def class_labels(self):
        """Conjugacy class labels: the orbits of conjugation by a
        generating set S', one orbit_labels call on |S'| n cells.  The
        conjugations by S' generate Inn(G), so their orbits are the
        classes.  S' is the greedy pick by highest order, then index;
        generating_sequence cannot supply it, since its tie-break reads
        these labels.  Before Light's test the table may not be a group,
        but there the labels only order generating_sequence's candidates,
        and Light's proof holds on any sequence whose closure is the
        table, so a wrong label cannot let a non-group pass."""
        if "class_labels" not in self._cache:
            cand = np.argsort(-self.orders(), kind="stable")
            S = self.greedy_generators(cand, [self.e])
            self._cache["class_labels"] = orbit_labels(
                self.conjugation_perm(S), self.n)
        return self._cache["class_labels"]

    def class_sizes(self):
        """Size of the conjugacy class of each element."""
        lab = self.class_labels()
        _, invidx, counts = np.unique(lab, return_inverse=True,
                                      return_counts=True)
        return counts[invidx]

    def closure(self, seed, start=()):
        """Sorted members of <seed>; start must lie in <seed>."""
        return closure_subgroup(self.mul, np.append(
            np.asarray(seed, dtype=np.int64), self.e), start)

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
            # members closes gens[:-1], a prefix of gens
            members = self.closure(gens, members)
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
        """Every subgroup of a solvable group, by cyclic extension
        (Neubueser, 1960; Holt, Eick & O'Brien, Handbook of Computational
        Group Theory, 2005, ch. 10).  Each K > 1 has a normal H of prime
        index p (K/K' is abelian), and K is the union of the cosets H g^i,
        i < p, for any g in K - H.  So H is extended by each g of
        N_G(H) - H (g^-1 H g within H, at n |H| cells) whose coset has
        prime order p, the first k with g^k in H, from one table of x^k,
        k <= exp(G); the rest of K - H gives the same K.  The walk reaches
        G exactly when G is solvable, else it is refused; |G| <= 512."""
        if self.n > LATTICE_CAP:
            raise ValueError("subgroup lattice: group order %d exceeds cap %d"
                             % (self.n, LATTICE_CAP))
        if "subgroups" not in self._cache:
            mul = self.mul
            ar = np.arange(self.n)
            powers = np.empty((self.exponent() + 1, self.n), dtype=np.int64)
            powers[0] = self.e
            for k in range(1, len(powers)):
                powers[k] = mul[powers[k - 1], ar]
            triv = np.array([self.e], dtype=np.int64)
            seen = {triv.tobytes(): triv}
            queue = deque([triv])
            while queue:
                H = queue.popleft()
                if len(H) == self.n:
                    continue        # no g outside G extends it
                inH = np.zeros(self.n, dtype=bool)
                inH[H] = True
                conj = mul[mul[self.inv[:, None], H], ar[:, None]]
                todo = inH[conj].all(axis=1) & ~inH
                for g in np.flatnonzero(todo):
                    if not todo[g]:
                        continue
                    p = int(np.argmax(inH[powers[1:, g]])) + 1
                    if not is_prime(p):
                        continue
                    # the p cosets H g^i are disjoint, since gH has
                    # order p in N(H)/H, so K has no repeats to drop
                    K = np.sort(mul[H[:, None], powers[:p, g]], axis=None)
                    todo[K] = False
                    if K.tobytes() not in seen:
                        seen[K.tobytes()] = K
                        queue.append(K)
            subs = sorted(seen.values(), key=lambda a: (len(a), a.tolist()))
            if len(subs[-1]) < self.n:
                raise ValueError("subgroup lattice: the group of order %d "
                                 "is not solvable" % self.n)
            self._cache["subgroups"] = subs
        return self._cache["subgroups"]

    def maximal_subgroups(self):
        subs = self.all_subgroups()[:-1]
        sets = [set(H.tolist()) for H in subs]
        return [H for H, s in zip(subs, sets) if not any(s < t for t in sets)]

    def frattini(self):
        """Frattini subgroup; None when the group is not a p-group and
        exceeds the lattice cap, whose walk refuses a non-solvable one."""
        if "frattini" not in self._cache:
            pp = prime_power(self.n)
            if self.n == 1:
                phi = np.array([self.e], dtype=np.int64)
            elif pp is not None:
                # Phi = G'G^p (Burnside's basis theorem): the normal
                # closure of the generators of G' and the p-th powers of S
                S = self.generating_sequence()
                phi = self.normal_closure(self._derived_pair()[1] +
                                          self.power_map(pp[0])[S].tolist())[0]
            elif self.n <= LATTICE_CAP:
                phi = functools.reduce(
                    functools.partial(np.intersect1d, assume_unique=True),
                    self.maximal_subgroups())
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
        """An irredundant generating sequence.  The greedy pick (highest
        element order first, then smallest class) can keep generators
        that later picks make redundant, so one reverse pass then drops
        each generator whose removal still leaves the closure at |G|, at
        n |S| cells per closure.  A generator kept by the pass stays
        needed once earlier ones go, since fewer elements generate no
        more, so no member can be left out; for a p-group that makes
        |S| = d(G) = log_p |G : Phi(G)| (Burnside's basis theorem).
        Light's test and hom_on_generators need only some set whose
        closure is G, so both stay proofs on this one."""
        if "gens" not in self._cache:
            # stable, so ties go by index
            cand = np.lexsort((self.class_sizes(), -self.orders()))
            gens = self.greedy_generators(cand, [self.e])
            for i in reversed(range(len(gens))):
                rest = gens[:i] + gens[i + 1:]
                if len(self.closure(rest)) == self.n:
                    gens = rest
            self._cache["gens"] = gens
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
            # cur closes start + gens[:-1], a prefix of start + gens
            cur = self.closure(start + gens, cur)
            member[:] = False
            member[cur] = True
            if len(cur) == len(cand):
                break
        return gens


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
        N = G.closure(np.concatenate([D, phi]))
    return {"center": Z, "derived": D, "frattini": phi, "N": N,
            "gamma": G.gamma_series()}


# ----------------------------------------------------------- Cayley files

CAYLEY_MAGIC = b"G3O1"


def export_cayley(G, path):
    """Write G as a G3O1 file, the table in row blocks of BLOCK_CELLS
    cells, so no whole copy of it is made."""
    step = max(1, BLOCK_CELLS // G.n)
    with open(path, "wb") as fh:
        fh.write(CAYLEY_MAGIC)
        fh.write(struct.pack("<I", G.n))
        for lo in range(0, G.n, step):
            fh.write(G.mul[lo:lo + step].astype("<u4").tobytes())


def import_cayley(path):
    """Rebuild and re-validate a group from a G3O1 file: magic, uint32 n,
    then n*n little-endian uint32 entries, and nothing after them.  Row
    blocks of BLOCK_CELLS cells are read into a table_dtype(n) table,
    each range-checked before it is narrowed: as int32, an entry of 2^31
    or more would wrap negative."""
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
        mul = np.empty((n, n), dtype=table_dtype(n))
        step = max(1, BLOCK_CELLS // max(n, 1))
        for lo in range(0, n, step):
            blk = np.frombuffer(fh.read(4 * n * min(step, n - lo)),
                                dtype="<u4")
            if blk.max() >= n:
                raise ValueError("table entries out of range")
            mul[lo:lo + step] = blk.reshape(-1, n)
    return FiniteGroup(list(range(n)), mul)


# ------------------------------------------------- homomorphism search

class _HomSearch:
    """Layered backtracking over generator images, vectorized per chunk.

    Level k knows S_k = <gens[:k]> in G as a BFS tree from e and
    gens[:k], split into depth stages.  A batch of candidate image rows
    is evaluated one stage per gather: the stage's images come from the
    previous depth, then the multiplication constraints on the
    (element, generator) edges whose later endpoint has depth <= d are
    checked, and the batch shrinks to the rows that pass before the next
    stage.  Injectivity on S_k is tested last, on the rows still left.
    Each (element, generator) edge is either an image step or a check
    at the stage of its later endpoint, so the survivors, and their
    order, are those of building every image first and checking every
    edge after.  One generator, _descend, walks the levels depth first
    and yields the last level's survivors one map at a time, so a caller
    that stops after the first map stops the walk there; hits starts it
    at the root.
    """

    def __init__(self, G, H):
        self.G, self.H = G, H
        self.gens = G.generating_sequence()
        self.k_total = len(self.gens)
        g_ord, g_csz = G.orders(), G.class_sizes()
        h_ord, h_csz = H.orders(), H.class_sizes()
        self.buckets = []
        for g in self.gens:
            sel = (h_ord == g_ord[g]) & (h_csz == g_csz[g])
            self.buckets.append(np.nonzero(sel)[0].astype(np.int64))
        self.levels = [self._level(k) for k in range(1, self.k_total + 1)]
        # the last level spans G: its columns, read back in index order
        self.col = (np.argsort(self.levels[-1]["order"]) if self.levels
                    else None)

    def _level(self, k):
        """The BFS tree of S_k from e and gens[:k] under right
        multiplication by gens[:k], by depth.  Column j of an image row
        holds the image of order[j]: e, then gens[:k], then each depth in
        turn.  The stage of depth d is (hi, src, gen, check): the columns
        below hi are the elements of depth <= d; the column at lo + c, lo
        the previous stage's hi, is the image of column src[c] times the
        image of gens[gen[c]]; and check holds the edges (s, t, i),
        s gens[i] = t, whose later endpoint has depth d, to test
        phi(s) phi(gens[i]) = phi(t).  A depth with neither is left
        out."""
        G = self.G
        gset = self.gens[:k]
        order = [G.e] + list(gset)
        col = {x: j for j, x in enumerate(order)}
        depth = dict.fromkeys(order, 0)
        assign, check = [[]], [[]]
        front = list(order)
        while front:
            assign.append([])
            check.append([])
            nxt = []
            for s in front:
                for i, g in enumerate(gset):
                    t = int(G.mul[s, g])
                    if t in col:
                        check[max(depth[s], depth[t])].append(
                            (col[s], col[t], i))
                    else:
                        col[t], depth[t] = len(order), depth[s] + 1
                        order.append(t)
                        assign[-1].append((col[s], i))
                        nxt.append(t)
            front = nxt
        stages, hi = [], k + 1
        for a, c in zip(assign, check):
            hi += len(a)
            a = np.array(a, dtype=np.int64).reshape(-1, 2).T
            c = np.array(c, dtype=np.int64).reshape(-1, 3).T
            if a.size or c.size:
                stages.append((hi, a[0], a[1], c))
        return {"order": np.array(order, dtype=np.int64), "stages": stages}

    def _evaluate(self, rows, k):
        """rows: (B, k) candidate images of gens[:k].  Returns (keep,
        phi): the indices of the rows that extend to an injective
        homomorphism on S_k, in their order, and those rows' images with
        columns as in the level's order.  One gather per stage fills its
        columns, its checks run at once, and the batch shrinks to the
        rows that pass, so later stages and the injectivity test see
        only those; no per-element loop."""
        H, lev = self.H, self.levels[k - 1]
        keep = np.arange(rows.shape[0])
        phi = np.empty((rows.shape[0], len(lev["order"])), dtype=np.int64)
        phi[:, 0] = H.e
        phi[:, 1:k + 1] = rows
        lo = k + 1
        for hi, src, gen, (cs, ct, ci) in lev["stages"]:
            if hi > lo:
                phi[:, lo:hi] = H.mul[phi[:, src], rows[:, gen]]
            lo = hi
            if len(cs):
                ok = np.all(H.mul[phi[:, cs], rows[:, ci]] == phi[:, ct],
                            axis=1)
                if not ok.all():
                    keep, rows, phi = keep[ok], rows[ok], phi[ok]
        sub = np.sort(phi, axis=1)
        ok = np.all(sub[:, 1:] != sub[:, :-1], axis=1)
        return keep[ok], phi[ok]

    def hits(self):
        """The maps that survive every level, yielded lazily as (|G|,)
        index maps in lexicographic order of the generator images:
        next() finds the first, list() all of them."""
        if self.k_total == 0:
            yield np.array([self.H.e], dtype=np.int64)
            return
        yield from self._descend(np.empty((1, 0), dtype=np.int64), 0)

    def _extend(self, rows, k):
        """rows have survived level k; extend each by bucket k and yield
        (surviving rows, their images) per chunk of as many parent rows
        as fit BLOCK_CELLS cells, one _evaluate call each."""
        bucket = self.buckets[k]
        if bucket.size == 0:
            return
        max_rows = max(1, BLOCK_CELLS // self.G.n)
        step = max(1, max_rows // bucket.size)
        for lo in range(0, rows.shape[0], step):
            chunk = rows[lo:lo + step]
            B = chunk.shape[0]
            ext = np.empty((B * bucket.size, k + 1), dtype=np.int64)
            ext[:, :k] = np.repeat(chunk, bucket.size, axis=0)
            ext[:, k] = np.tile(bucket, B)
            keep, phi = self._evaluate(ext, k + 1)
            yield ext[keep], phi

    def _descend(self, rows, k):
        """rows have survived level k; extend them one chunk at a time
        and yield the last level's survivors one by one."""
        for ext, phi in self._extend(rows, k):
            if k + 1 == self.k_total:
                for row in phi:
                    yield row[self.col]
            elif len(ext):
                yield from self._descend(ext, k + 1)


def _invariant_screen(G, H):
    """Order, the sorted (class size, element order) profile, which
    also fixes the order profile and |Z| (the classes of size 1), and
    |G'|."""
    if G.n != H.n:
        return False
    g_prof = sorted(zip(G.class_sizes().tolist(), G.orders().tolist()))
    if g_prof != sorted(zip(H.class_sizes().tolist(), H.orders().tolist())):
        return False
    return len(G.derived()) == len(H.derived())


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


def is_isomorphism(G, H, phis):
    """Row t says whether the index map phis[t]: G -> H is an
    isomorphism: a bijection (the row sorts to 0..n-1, n = |G| = |H|)
    and a homomorphism by hom_on_generators, which only the bijective
    rows go on to."""
    phis = np.asarray(phis, dtype=np.int64).reshape(-1, G.n)
    ok = (G.n == H.n) & np.all(np.sort(phis, axis=1) == np.arange(G.n),
                               axis=1)
    ok[ok] = hom_on_generators(G, H, phis[ok])
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
    phi = next(_HomSearch(G, H).hits(), None)
    if phi is None:
        return None
    if not is_isomorphism(G, H, phi)[0]:
        raise AssertionError("search hit is not an isomorphism")
    return phi


def automorphism_group(G):
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
    length times |A_{j+1}|.  Exhaustive: every candidate image of every
    base point is settled.

    Level j's bucket is screened first: _extend of the one row
    g_0..g_{j-1} keeps, in bucket order, the candidates c whose row
    g_0..g_{j-1}, c passes level j + 1.  A search below that prefix
    begins with the same row and _evaluate treats rows independently,
    so a dropped c is a search that misses.  The loop walks only the
    survivors, which is exact: each known automorphism fixes
    g_0..g_{j-1}, so it maps survivors to survivors, a dropped c shares
    no orbit with a survivor, and skipping it leaves ruled_out, lab and
    gens unchanged.  A survivor descends from its screened row; at the
    deepest level that row's images are the hit."""
    if G.n > AUT_ENUM_CAP:
        raise ValueError("automorphism group: group order %d exceeds cap %d"
                         % (G.n, AUT_ENUM_CAP))
    search = _HomSearch(G, G)
    base = search.gens
    gens = np.empty((0, G.n), dtype=np.int64)
    order = 1
    for j in reversed(range(search.k_total)):
        prefix = np.array(base[:j], dtype=np.int64).reshape(1, j)
        rows, phi = map(np.concatenate, zip(*search._extend(prefix, j)))
        lab = orbit_labels(gens, G.n)
        ruled_out = []
        for row, p in zip(rows, phi):
            c = int(row[j])
            if lab[c] == lab[base[j]] or lab[c] in lab[ruled_out]:
                continue
            if j + 1 == search.k_total:
                hit = p[search.col]
            else:
                hit = next(search._descend(row[None], j + 1), None)
            if hit is None:
                ruled_out.append(c)
                continue
            if not is_isomorphism(G, G, hit)[0]:
                raise AssertionError("search hit is not an automorphism")
            hit = hit[None]
            gens = np.concatenate([gens, hit])
            lab = orbit_labels(hit, G.n, start=lab)
        order *= int(np.count_nonzero(lab == lab[base[j]]))
    # the base is S: an automorphism fixing S fixes <S> = G
    if PermGroup(gens, G.n, base).order() != order:
        raise AssertionError("strong generators do not give |Aut|")
    return gens, order
