"""Permutation groups by a deterministic Schreier-Sims stabilizer chain
on a base that the caller knows.

A permutation of 0..n-1 is an integer array whose entry i is the image
of i; products read left to right, so g*h is the array h[g].  The caller
passes a base B: points such that only the identity of the group fixes
all of them, so an element g is determined by its base images g[B].
Level l of the chain belongs to the base point B[l].  It keeps its
strong generators, their orbit of B[l], a Schreier vector (per point,
the label of the tree edge that reached it) and an (orbit, |B|) table of
the base images of the coset representatives read off the tree (Holt,
Eick & O'Brien, Handbook of Computational Group Theory, 2005, 4.1.1;
Seress, Permutation Group Algorithms, 2003, ch. 4-5).

Elements are stripped as base images: dividing by one tree edge gathers
|B| entries per element, not n.  The chain is complete once every
Schreier generator u_b x u_{b^x}^-1 strips to the identity through the
levels below its own (Sims 1970; Holt 4.4.2); the order is then the
product of the orbit lengths.  A level strips all of its untested
Schreier generators as one (rows, |B|) block, taken from the table by
one gather.  A row that strips to the identity stays so as the chain
grows, since tree labels once set never change; the rows that fail stay
pending.  The first one is rebuilt once as a full permutation, checked
against the block's residue, and joins as a strong generator.

Precondition: a residue that fixes every base point is taken for the
identity.  So `contains`, `members` and `add` are exact only for
elements of a group for which B is a base, such as a group of linear
maps with a basis as B, or of automorphisms with a generating set as B.
range(n) is a base of every permutation group on n points.
"""

import math

import numpy as np


class PermGroup:
    """The group generated by the rows of `gens`, acting on n points,
    with `base` a base of it (see the module docstring).  With `cap`,
    construction raises ValueError once the product of the orbit lengths
    so far, a lower bound for the order, passes it; it is tested after
    every round of an orbit walk, so a refused level's orbit is not
    walked to its end."""

    def __init__(self, gens, n, base, cap=None):
        self.n, self.cap = n, cap
        self.base = np.array(base, dtype=np.int64).reshape(-1)
        self._ident = np.arange(n, dtype=np.int64)
        # tree edge labels: row 2k of _perms is strong generator k, row
        # 2k + 1 its inverse, and _flip[lab] the label of lab's inverse
        self._perms = np.empty((0, n), dtype=np.int64)
        self._flip = np.empty(0, dtype=np.int64)
        self._gens, self._vec, self._orbit, self._reps, self._todo = \
            [], [], [], [], []
        for b in self.base:
            self._gens.append([])
            self._vec.append(np.full(n, -1, dtype=np.int64))
            self._vec[-1][b] = -2                     # the tree's root
            self._orbit.append(np.array([b], dtype=np.int64))
            self._reps.append(self.base[None, :])     # u_b = identity
            # pending Schreier generators: (orbit position, generator)
            self._todo.append((np.empty(0, np.int64),) * 2)
        # Sims' order: strip and join every generator, then test the
        # levels from the deepest up
        for g in np.asarray(gens, dtype=np.int64).reshape(-1, n):
            h, j = self._strip(g, 0)
            if j is not None:
                self._add_strong(h, 0, j)
        self._complete(len(self.base) - 1)

    def order(self, k=None):
        """|G|; with k, |G : G_(B[:k])|, the product of the first k
        basic orbit lengths, which is the order of G's action on any set
        whose pointwise stabilizer in G is that of B[:k]."""
        return math.prod(len(o) for o in self._orbit[:k])

    def add(self, g):
        """Extend the chain by g; True when g was not yet a member."""
        h, j = self._strip(np.asarray(g, dtype=np.int64), 0)
        if j is not None:
            self._add_strong(h, 0, j)
            self._complete(j)
        return j is not None

    def contains(self, g):
        return bool(self.members(np.asarray(g)[self.base][None, :])[0])

    def members(self, images):
        """Which rows of the (rows, |B|) array `images`, each the base
        images of an element, are members; one block strip."""
        return self._sift(np.array(images, dtype=np.int64), 0) < 0

    def _complete(self, i):
        """Test levels i up to 0, the levels below i being complete.  A
        residue that fails at level j below i joins levels i+1..j, and
        testing goes on from j; deeper levels do not change, so they
        stay complete."""
        while i >= 0:
            failed = self._test_level(i)
            if failed is None:
                i -= 1
            else:
                h, j = failed
                self._add_strong(h, i + 1, j)
                i = j

    def _add_strong(self, h, lo, hi):
        """h fixes the base points before hi."""
        k = len(self._perms) // 2
        inv = np.empty_like(h)
        inv[h] = self._ident
        self._perms = P = np.concatenate([self._perms, [h, inv]])
        self._flip = np.concatenate([self._flip, [2 * k + 1, 2 * k]])
        for l in range(lo, hi + 1):
            self._gens[l].append(k)
            gens = np.array(self._gens[l], dtype=np.int64)
            every = (2 * gens[:, None] + [0, 1]).ravel()
            vec, orbit, reps = self._vec[l], self._orbit[l], self._reps[l]
            # breadth first, all labels of a round in one gather; the old
            # orbit is closed under the old generators, so it meets h and
            # h^-1 only.  Labels already set stay, so earlier strips stay
            # valid.
            old, labs = len(orbit), every[-2:]
            front, front_reps = orbit, reps
            # the other levels' orbit lengths times the partial orbit is
            # a lower bound for the order, tested after every round
            rest = self.order() // old
            while len(front):
                img = P[labs[:, None], front].ravel()
                hit = (vec[img] == -1).nonzero()[0]
                img, lab, src = (img[hit], labs[hit // len(front)],
                                 hit % len(front))
                vec[img] = lab      # a point hit twice keeps one label
                got = (vec[img] == lab).nonzero()[0]
                front, lab = img[got], lab[got]
                front_reps = P[lab[:, None], front_reps[src[got]]]
                orbit = np.concatenate([orbit, front])
                reps = np.concatenate([reps, front_reps])
                labs = every
                if self.cap is not None and len(orbit) * rest > self.cap:
                    raise ValueError("group order reached %d, above the cap "
                                     "%d" % (len(orbit) * rest, self.cap))
            self._orbit[l], self._reps[l] = orbit, reps
            # new Schreier generators: old points under h, new points
            # under every generator; tree edges give the identity
            new = np.arange(old, len(orbit))
            t = np.concatenate([np.arange(old), new.repeat(len(gens))])
            x = np.concatenate([np.full(old, k), np.broadcast_to(
                gens, (len(new), len(gens))).ravel()])
            b = orbit[t]
            keep = np.logical_not((vec[P[2 * x, b]] == 2 * x) |
                                  (vec[b] == 2 * x + 1))
            todo_t, todo_x = self._todo[l]
            self._todo[l] = (np.concatenate([todo_t, t[keep]]),
                             np.concatenate([todo_x, x[keep]]))

    def _strip(self, h, lo):
        """Divide the full permutation h by coset representatives from
        level lo down: the residue, and the level where it fails (None
        once it fixes every base point)."""
        for l in range(lo, len(self.base)):
            vec = self._vec[l]
            b = h[self.base[l]]
            lab = vec[b]
            if lab == -1:
                return h, l
            while lab >= 0:
                inv = self._perms[self._flip[lab]]
                h, b = inv.take(h), inv[b]
                lab = vec[b]
        return h, None

    def _sift(self, rows, lo):
        """Strip the base-image rows (rows, |B|) from level lo, one
        gather of |B| entries per row and tree step: per row the level
        where it fails, or -1 once it reaches the base.  A row that fails
        is left holding its residue there."""
        fail = np.full(len(rows), -1, dtype=np.int64)
        live, cur = np.arange(len(rows)), rows
        for l in range(lo, len(self.base)):
            vec = self._vec[l]
            lab = vec[cur[:, l]]
            off = lab == -1
            out = off.nonzero()[0]
            if len(out):
                fail[live[out]] = l
                rows[live[out]] = cur[out]
                keep = np.logical_not(off)
                live, cur, lab = live[keep], cur[keep], lab[keep]
            walk = (lab >= 0).nonzero()[0]
            while len(walk):
                cur[walk] = self._perms[self._flip[lab[walk]][:, None],
                                        cur[walk]]
                lab[walk] = vec[cur[walk, l]]
                walk = walk[lab[walk] >= 0]
        return fail

    def _test_level(self, i):
        """Strip the pending Schreier generators u_b x of level i as one
        block; the rows that fail stay pending, and the first of them is
        rebuilt as a full permutation and comes back as (residue,
        level)."""
        t, x = self._todo[i]
        if not len(t):
            return None
        rows = self._perms[2 * x[:, None], self._reps[i][t]]
        fail = self._sift(rows, i)
        bad = (fail >= 0).nonzero()[0]
        self._todo[i] = (t[bad], x[bad])
        if not len(bad):
            return None
        r = bad[0]
        vec, u, c = self._vec[i], self._ident, self._orbit[i][t[r]]
        while vec[c] >= 0:      # u_b, read off the tree
            u = u.take(self._perms[vec[c]])
            c = self._perms[self._flip[vec[c]]][c]
        h, j = self._strip(self._perms[2 * x[r]].take(u), i)
        if j != fail[r] or not np.array_equal(h[self.base], rows[r]):
            raise AssertionError("block strip disagrees with the full strip")
        return h, j
