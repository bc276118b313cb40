"""Hot integer-array loops shared by the group machinery.

Two kernels live here, each with one plain-numpy implementation: orbit
label propagation under a set of permutations, streamed in blocks, with
the one transitivity test built on it, and subgroup closure over a
multiplication table, a breadth-first walk from the generators S and
from `start`, members already known to lie in <S> (start a subset of
<S>), at (|start| + |<S> - start|) * |S| table cells.
"""

import numpy as np

# read by perfbench's env stamp; every kernel here is plain numpy
HAS_NUMBA = False


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
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, perms.shape[0], step):
        block = perms[lo:lo + step]
        if np.array_equal(lab[block], np.broadcast_to(lab, block.shape)):
            continue
        lab = _orbit_labels_np(np.concatenate([block, lab[None, :]]), n)
    return lab


def transitive_off(perms, n, fixed):
    """True iff the group generated by the rows of perms (shape (k, n))
    has the n - 1 points other than `fixed` as one orbit."""
    if n <= 1:
        return True
    lab = orbit_labels(perms, n)
    other = 1 if fixed == 0 else 0
    return bool(lab[fixed] != lab[other]) and \
        int(np.sum(lab == lab[other])) == n - 1


# ------------------------------------------------------------ subgroup closure

def closure_subgroup(mul, seed, start=()):
    """Sorted element indices of the subgroup generated by seed inside the
    finite group given by the full multiplication table mul, read in its
    own dtype and never copied.  seed must be non-empty; start lists
    members already known to lie in <seed>, such as the closure of a
    prefix of seed (start a subset of <seed>, not checked).

    Breadth-first walk under right multiplication by the seed S from
    S and start: each marked element is multiplied once by every seed
    element, in one gather per round.  The products not yet marked are
    marked and become the next frontier, each once: a scatter of their
    positions keeps the one copy whose position landed, with no sort.
    The cost is (|start| + |<S> - start|) * |S| table cells.  In a finite
    group the positive words in S already form <S>, so the identity need
    not be in the seed."""
    seed = np.asarray(seed, dtype=np.int64)
    if seed.size == 0:
        raise ValueError("closure_subgroup: the seed is empty")
    inset = np.zeros(mul.shape[0], dtype=bool)
    inset[seed] = True
    seed = np.flatnonzero(inset)        # sorted, each element once
    inset[np.asarray(start, dtype=np.int64)] = True
    front = np.flatnonzero(inset)
    slot = np.empty(mul.shape[0], dtype=np.int64)
    while front.size:
        prods = mul[front[:, None], seed].ravel()
        new = prods[~inset[prods]]
        inset[new] = True
        pos = np.arange(new.size)
        slot[new] = pos
        front = new[slot[new] == pos]
    return np.flatnonzero(inset)
