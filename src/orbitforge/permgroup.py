"""Permutation groups by a deterministic Schreier-Sims stabilizer chain.

A permutation of 0..n-1 is an integer array whose entry i is the image
of i; products read left to right, so g*h is the array h[g].  Each level
of the chain keeps a base point, its strong generators, their orbit of
the base point and a Schreier vector: per orbit point, the label of the
tree edge that reached it.  Coset representatives are read off the tree
and never stored, so a level costs O(n) memory (Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005, 4.1.1).  The chain is
complete once every Schreier generator strips to the identity through
the levels below its own (Sims 1970; Holt 4.4.2); the order is then the
product of the orbit lengths.  A new level's base point is the least
point its generator moves, so equal inputs give equal chains.
"""

import math

import numpy as np


class PermGroup:
    """The group generated by the rows of `gens`, acting on n points.
    With `cap`, construction raises ValueError once the product of the
    orbit lengths so far, a lower bound for the order, passes it."""

    def __init__(self, gens, n, cap=None):
        self.n, self.cap, self.base = n, cap, []
        self._ident = np.arange(n, dtype=np.int64)
        self._perms = []     # label 2k: strong generator k; 2k + 1: inverse
        self._gens = []      # per level: its strong generators
        self._vec = []       # per level: edge label per point, -1 off orbit
        self._orbit = []     # per level: orbit points in discovery order
        self._tested = []    # per level: generator -> orbit points tested
        for g in np.array(gens, dtype=np.int64).reshape(-1, n):
            h, j = self._strip(g, 0)
            if j is not None:
                self._join(h, j)

    def order(self):
        return math.prod(len(o) for o in self._orbit)

    def contains(self, g):
        return self._strip(np.asarray(g, dtype=np.int64), 0)[1] is None

    def _join(self, h, j):
        """Add a generator whose residue h failed to strip at level j,
        then test levels j up to 0, adding every residue that fails at
        level i to levels i+1..j in turn; deeper levels do not change,
        so they stay complete."""
        i = -1
        while True:
            self._add_strong(h, i + 1, j)
            i = j
            while i >= 0 and (failed := self._test_level(i)) is None:
                i -= 1
            if i < 0:
                return
            h, j = failed

    def _add_strong(self, h, lo, hi):
        """h fixes the base points before hi; hi == len(base) opens a
        level at the least point h moves."""
        k = len(self._perms) // 2
        inv = np.empty_like(h)
        inv[h] = self._ident
        self._perms += [h, inv]
        if hi == len(self.base):
            b = int(np.flatnonzero(h != self._ident)[0])
            self.base.append(b)
            self._vec.append(np.full(self.n, -1, dtype=np.int64))
            self._vec[-1][b] = -2
            self._orbit.append(np.array([b], dtype=np.int64))
            self._gens.append([])
            self._tested.append({})
        for l in range(lo, hi + 1):
            self._gens[l].append(k)
            # breadth first over generators and inverses; labels already
            # set stay, so earlier tests remain valid
            vec, orbit = self._vec[l], self._orbit[l]
            front = orbit
            while len(front):
                found = []
                for lab in [2 * m + s for m in self._gens[l] for s in (0, 1)]:
                    img = self._perms[lab][front]
                    img = img[vec[img] == -1]
                    vec[img] = lab
                    found.append(img)
                front = np.concatenate(found)
                orbit = np.concatenate([orbit, front])
            self._orbit[l] = orbit
            if self.cap is not None and self.order() > self.cap:
                raise ValueError("group order reached %d, above the cap %d"
                                 % (self.order(), self.cap))

    def _strip(self, h, lo):
        """Divide h by coset representatives from level lo down: the
        residue, and the level where it fails (None: it is the
        identity; len(base): it fixes every base point but is not)."""
        perms = self._perms
        for l in range(lo, len(self.base)):
            vec = self._vec[l]
            b = h[self.base[l]]
            lab = vec[b]
            if lab == -1:
                return h, l
            while lab >= 0:
                inv = perms[lab ^ 1]
                h, b = inv.take(h), inv[b]
                lab = vec[b]
        return h, None if np.array_equal(h, self._ident) else len(self.base)

    def _test_level(self, i):
        """Strip the untested Schreier generators u_b x u_{b^x}^-1 of
        level i, point by point so each u_b is built once; the first
        residue that fails comes back as (residue, level)."""
        vec, orbit, tested = self._vec[i], self._orbit[i], self._tested[i]
        gens, perms = self._gens[i], self._perms
        for t in range(min(tested.get(k, 0) for k in gens), len(orbit)):
            b, u = orbit[t], None
            for k in gens:
                if tested.get(k, 0) > t:
                    continue
                tested[k] = t + 1
                x = perms[2 * k]
                # along a tree edge u_b * x = u_{b^x}: nothing to strip
                if vec[x[b]] == 2 * k or vec[b] == 2 * k + 1:
                    continue
                if u is None:    # u_b, read off the tree
                    u, c = self._ident, b
                    while vec[c] >= 0:
                        u = u.take(perms[vec[c]])
                        c = perms[vec[c] ^ 1][c]
                h, j = self._strip(x.take(u), i)
                if j is not None:
                    return h, j
        return None
