"""Hot integer-array loops shared by the group machinery.

Two kernels live here: orbit label propagation under a set of
permutations, and subgroup closure over a multiplication table.  Each
has a numba @njit implementation and a pure-numpy implementation.
numba wins when it imports, unless ORBITFORGE_PURE_NUMPY=1 is set in the
environment.  Public wrappers normalize dtypes so callers never care
which path is live.
"""

import os

import numpy as np

HAS_NUMBA = False
if os.environ.get("ORBITFORGE_PURE_NUMPY", "") != "1":
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        pass


# ---------------------------------------------------------------- orbit labels
#
# labels start as identity; repeatedly pull the smaller label across every
# generator edge (i, perm[i]).  Labels always point at an element of the same
# orbit, so the fixed point assigns every element the least index in its orbit.

def _orbit_labels_np(perms, n):
    lab = np.arange(n, dtype=np.int64)
    while True:
        nxt = lab.copy()
        for k in range(perms.shape[0]):
            pm = perms[k]
            np.minimum.at(nxt, pm, lab)          # push: label(p(i)) <= label(i)
            np.minimum(nxt, lab[pm], out=nxt)    # pull: label(i) <= label(p(i))
        nxt = np.minimum(nxt, nxt[nxt])          # pointer jumping
        if np.array_equal(nxt, lab):
            return lab
        lab = nxt


if HAS_NUMBA:

    @njit(cache=True)
    def _orbit_labels_nb(perms, n):
        k = perms.shape[0]
        lab = np.arange(n, dtype=np.int64)
        changed = True
        while changed:
            changed = False
            for j in range(k):
                for i in range(n):
                    a = lab[i]
                    b = lab[perms[j, i]]
                    if a < b:
                        lab[perms[j, i]] = a
                        changed = True
                    elif b < a:
                        lab[i] = b
                        changed = True
        return lab


# rows x columns per block wherever rows are batched (orbit labels, the
# homomorphism proof, the image search): temporaries stay small
BLOCK_CELLS = 1 << 16


def orbit_labels(perms, n, start=None):
    """Least-index orbit label for each of 0..n-1 under the permutation
    group generated by the rows of perms (shape (k, n)), joined with the
    classes of `start` when given (labels as this function returns them:
    start[i] lies in the class of i).

    Orbits are the connected components of the rows' edges (i, row[i]),
    so the rows are taken in blocks of at most BLOCK_CELLS cells and one
    pass suffices: a block whose rows keep every point in its current
    class adds nothing and is skipped after one vectorised test;
    otherwise the kernel runs on the block plus the current labels as
    one more row of edges (i, lab[i])."""
    perms = np.asarray(perms, dtype=np.int64).reshape(len(perms), n)
    lab = np.arange(n, dtype=np.int64) if start is None else \
        np.asarray(start, dtype=np.int64).copy()
    kernel = _orbit_labels_nb if HAS_NUMBA else _orbit_labels_np
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, perms.shape[0], step):
        block = perms[lo:lo + step]
        if np.array_equal(lab[block], np.broadcast_to(lab, block.shape)):
            continue
        lab = kernel(np.concatenate([block, lab[None, :]]), n)
    return lab


# ------------------------------------------------------------ subgroup closure

def _closure_np(mul, seed):
    n = mul.shape[0]
    inset = np.zeros(n, dtype=bool)
    inset[seed] = True
    members = np.flatnonzero(inset)
    while True:
        prods = mul[np.ix_(members, members)].ravel()
        fresh = prods[~inset[prods]]
        if fresh.size == 0:
            return members.astype(np.int64)
        inset[fresh] = True
        members = np.flatnonzero(inset)


if HAS_NUMBA:

    @njit(cache=True)
    def _closure_nb(mul, seed):
        n = mul.shape[0]
        inset = np.zeros(n, dtype=np.uint8)
        members = np.empty(n, dtype=np.int64)
        cnt = 0
        for s in seed:
            if inset[s] == 0:
                inset[s] = 1
                members[cnt] = s
                cnt += 1
        lo = 0
        while lo < cnt:
            hi = cnt
            for i in range(lo, hi):
                x = members[i]
                for j in range(hi):
                    y = members[j]
                    z = mul[x, y]
                    if inset[z] == 0:
                        inset[z] = 1
                        members[cnt] = z
                        cnt += 1
                    z = mul[y, x]
                    if inset[z] == 0:
                        inset[z] = 1
                        members[cnt] = z
                        cnt += 1
            lo = hi
        return np.sort(members[:cnt])


def closure_subgroup(mul, seed):
    """Sorted element indices of the subgroup generated by seed inside the
    finite group given by the full multiplication table mul.  seed must be
    non-empty (closure of a non-empty subset of a finite group is a group)."""
    mul = np.ascontiguousarray(mul, dtype=np.int64)
    seed = np.asarray(seed, dtype=np.int64)
    assert seed.size > 0
    if HAS_NUMBA:
        return _closure_nb(mul, seed)
    return _closure_np(mul, seed)
