import itertools
from collections import deque

import numpy as np
import pytest

from orbitforge import constructions as cons
from orbitforge import group_engine as ge
from orbitforge import orbit_machine as om
from orbitforge import verify_suite as vs
from orbitforge.permgroup import PermGroup
from helpers import all_automorphisms, group_from_oracle
from test_acceptance import _small_inventory


def cyclic(n):
    return group_from_oracle(list(range(n)), lambda a, b: (a + b) % n)


def direct(orders):
    elems = list(itertools.product(*[range(n) for n in orders]))

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    return group_from_oracle(elems, mul)


def perm_group(gen_perms):
    gens = [tuple(p) for p in gen_perms]
    n = len(gens[0])
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(a[g[i]] for i in range(n))
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt

    def mul(a, b):
        return tuple(a[b[i]] for i in range(n))

    return group_from_oracle(sorted(elems), mul)


def quat():
    return cons.extraspecial2(1, "-").group


def test_cyclic_omega():
    C4 = cyclic(4)
    aut = om.brute_force_aut(C4)
    assert len(aut) == 2
    assert om.orbits(C4, aut)["lengths"] == [1, 1, 2]
    om_c4 = om.omega_exact(C4, aut)
    assert om_c4["lower"] == 3
    assert om_c4["exact"] == 3
    assert om.holomorph_rank(C4) == 3


def test_abelian_omega_values():
    C4C2 = direct([4, 2])
    om_c4c2 = om.omega_exact(C4C2, om.brute_force_aut(C4C2))
    assert om_c4c2["lower"] == 4
    assert om_c4c2["exact"] == 4
    C23 = direct([2, 2, 2])
    assert om.omega_exact(C23, om.brute_force_aut(C23))["exact"] == 2
    assert om.holomorph_rank(C23) == 2


def test_nonabelian_omega():
    S3 = perm_group([(1, 2, 0), (1, 0, 2)])
    assert om.omega_exact(S3, om.brute_force_aut(S3))["exact"] == 3
    assert om.holomorph_rank(S3) == 3
    A4 = perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    aut4 = om.brute_force_aut(A4)
    assert len(aut4) == 24
    res = om.omega_exact(A4, aut4)
    assert res["exact"] == 3
    assert sorted(res["report"]["lengths"]) == [1, 3, 8]
    assert om.holomorph_rank(A4) == 3


def test_q8_central_automorphisms():
    Q8 = quat()
    caut, p, m, n, count = om.central_automorphisms(Q8)
    assert (p, m, n, count) == (2, 2, 1, 4)
    # CAut orbits refine G into Z-singletons plus nontrivial cosets
    repc = om.orbits(Q8, caut)
    assert sorted(repc["lengths"]) == [1, 1, 2, 2, 2]
    autq = om.brute_force_aut(Q8)
    res = om.omega_exact(Q8, autq)
    assert res["exact"] == 3
    assert res["report"]["lengths"] == [1, 1, 6]
    assert om.holomorph_rank(Q8) == 3


def test_holomorph_rank_streamed():
    S3 = perm_group([(1, 2, 0), (1, 0, 2)])
    A4 = perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    for G in (S3, quat(), A4, direct([2, 2, 2])):
        aut = om.brute_force_aut(G)
        assert om.holomorph_rank(G, aut) == om.orbits(G, aut)["count"]
        # right translations alone: n orbits on n^2 pairs
        ident = om.AutomorphismSet(G, [np.arange(G.n)])
        assert om.holomorph_rank(G, ident) == G.n


def test_holomorph_one_pair_block(monkeypatch):
    G = direct([2, 2, 2, 2])
    aut = om.AutomorphismSet(G, all_automorphisms(G), verify=False)
    assert len(aut) == 20160         # GL(4, 2): 79 blocks of 256 pair perms
    count = om.orbits(G, aut)["count"]
    inner = om.orbit_labels
    sizes = []

    def spy(perms, n, start=None):
        sizes.append(perms.size)
        return inner(perms, n, start=start)

    monkeypatch.setattr(om, "orbit_labels", spy)
    assert om.holomorph_rank(G, aut) == count == 2
    # one block of right translations, then the automorphisms
    assert len(sizes) == 80 and max(sizes) <= om.BLOCK_CELLS


def test_q8_induced_pair():
    Q8 = quat()
    autq = om.brute_force_aut(Q8)
    core = ge.characteristic_core(Q8)
    pair = om.induced_pair(Q8, core["N"], autq)
    assert pair["A_order"] == 6 and pair["B_order"] == 1
    assert pair["K_order"] == 6
    assert pair["A_transitive"] and pair["B_transitive"]
    assert pair["A_to_B_function"] is True


def test_induced_pair_not_single_valued():
    # kernel of the quotient action can move N when N is not central;
    # the A -> B correspondence is then reported as not a function
    a4 = cons.line2_frobenius(2, 3, 1, 1)
    G = a4.group
    pair = om.induced_pair(G, ge.characteristic_core(G)["N"],
                           om.brute_force_aut(G))
    assert pair["A_to_B_function"] is False
    assert pair["A_transitive"] and pair["B_transitive"]


def test_verify_automorphism_rejects():
    Q8 = quat()
    perm = np.arange(8, dtype=np.int64)
    good = 0
    for i in range(1, 8):
        for j in range(i + 1, 8):
            cand = perm.copy()
            cand[[i, j]] = cand[[j, i]]
            if om.verify_automorphism(Q8, cand):
                good += 1
    # single transpositions fixing the identity are rarely automorphisms
    assert good < 8
    ident = np.arange(8, dtype=np.int64)
    assert om.verify_automorphism(Q8, ident)


@pytest.mark.parametrize("bad_row", [1, 3, 5])
@pytest.mark.parametrize("kind", ["transposition", "non-bijective",
                                  "out-of-range"])
def test_automorphism_set_names_first_bad_row(bad_row, kind):
    """verify=True proves every row in one call and names the first row
    that fails, wherever it sits; a second bad row after it changes
    nothing."""
    Q8 = quat()
    rows = np.array(list(om.brute_force_aut(Q8).perms) * 4)[:7]
    assert len(rows) == 7
    om.AutomorphismSet(Q8, rows)
    bad = np.arange(8)
    if kind == "transposition":
        bad[[1, 2]] = bad[[2, 1]]
    elif kind == "non-bijective":
        bad[1] = bad[2]
    else:
        bad[1] = 8
    assert not om.verify_automorphism(Q8, bad)
    rows[bad_row] = bad
    rows[-1] = bad
    with pytest.raises(ValueError,
                       match="^perm %d is not an automorphism$" % bad_row):
        om.AutomorphismSet(Q8, rows)
    om.AutomorphismSet(Q8, rows, verify=False)


def test_induced_order_read_off_the_joint_chain():
    """|A| read off the J chain equals the order of the A chain built on
    its own, on every small family instance."""
    for tag, inst in _small_inventory():
        G = inst.group
        core = ge.characteristic_core(G)
        pair = om.induced_pair(G, core["N"], inst.acts)
        qn = pair["quotient_size"]
        assert pair["A_order"] == PermGroup(pair["A_perms"], qn,
                                            range(qn)).order(), tag


def test_inner_automorphism_orbits():
    S3 = perm_group([(1, 2, 0), (1, 0, 2)])
    inn = om.inner_automorphisms(S3)
    rep = om.orbits(S3, inn)
    assert sorted(rep["lengths"]) == [1, 2, 3]


def _walk_coords(G, key, reps, basis, p):
    """Reference layer coordinates by a breadth-first walk from key[e]:
    key[r * basis[i]] gets the coordinates of r plus the i-th unit
    vector.  Returns (relabel, coords), coords[relabel[r]] those of the
    layer member r."""
    relabel = np.full(G.n, -1, dtype=np.int64)
    relabel[reps] = np.arange(len(reps))
    coords = np.full((len(reps), len(basis)), -1, dtype=np.int64)
    start = int(key[G.e])
    coords[relabel[start]] = 0
    frontier = deque([start])
    while frontier:
        r = frontier.popleft()
        for i, b in enumerate(basis):
            t = relabel[key[G.mul[r, b]]]
            if coords[t, 0] < 0:
                coords[t] = coords[relabel[r]]
                coords[t, i] = (coords[t, i] + 1) % p
                frontier.append(reps[t])
    assert (coords >= 0).all()
    return relabel, coords


def _walk_split(G, sp):
    """linear_split's coordinates from the walk, on the same bases."""
    p, N = sp["p"], sp["N"]
    L = G.mul[:, N].min(axis=1)
    reps = np.unique(L)
    relabel, coords = _walk_coords(G, L, reps, sp["v_basis"], p)
    pos_in_N, wc = _walk_coords(G, np.arange(G.n), N, sp["w_basis"], p)
    rep_by_coords = np.full(p ** sp["m"], -1, dtype=np.int64)
    rep_by_coords[coords @ p ** np.arange(sp["m"])] = reps
    return {"coset_coords": coords[relabel[L]], "w_coords": wc,
            "pos_in_N": pos_in_N, "rep_by_coords": rep_by_coords}


def test_linear_split_layers():
    """The basis-power coordinates are additive on every pair of
    elements and agree with the breadth-first walk they replaced."""
    cases = [
        (quat(), (2, 1)),
        (cons.heisenberg_trace((3, 1), (3, 1), 2).group, (2, 1)),
        (cons.suzuki_B(2).group, (4, 2)),
        (cons.extraspecial2(2, "+").group, (4, 1)),
        (cons.suzuki_A(3, 1).group, None),
        (cons.dornhoff_P().group, None),
        (cons.sl3_pair((3, 1)).group, None),
    ]
    for G, dims in cases:
        sp = om.linear_split(G)
        p, cc = sp["p"], sp["coset_coords"]
        assert np.array_equal(cc[G.mul],
                              (cc[:, None, :] + cc[None, :, :]) % p)
        for key, ref in _walk_split(G, sp).items():
            assert np.array_equal(sp[key], ref), (G.n, key)
        assert (sp["rep_by_coords"] >= 0).all()
        if dims is not None:
            assert (sp["m"], sp["n"]) == dims
            caut, _, mm, nn, count = om.central_automorphisms(G)
            assert count == p ** (mm * nn)


def test_layer_words_must_meet_every_member():
    """A repeated basis element gives words that miss a coset."""
    Q8 = quat()
    sp = om.linear_split(Q8)
    coset = om._cosets(Q8, sp["N"])[0]
    v = sp["v_basis"][0]
    with pytest.raises(ValueError, match="meet every member once"):
        om._layer_coords(Q8, [v, v], sp["p"], coset)


def test_brute_force_aut_is_group():
    Q8 = quat()
    aut = om.brute_force_aut(Q8)
    group = PermGroup(aut.perms, 8, range(8))
    assert group.order() == len(aut) == 24
    assert all(group.contains(p) for p in all_automorphisms(Q8))


def _gate_groups():
    for tag, inst in _small_inventory():
        yield tag, inst.group
    yield "q8_on_c3c3", vs.q8_on_c3c3()
    yield "S3", perm_group([(1, 2, 0), (1, 0, 2)])
    yield "A4", perm_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    yield "S4", perm_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    yield "Q8", quat()
    yield "D4", perm_group([(1, 2, 3, 0), (1, 0, 3, 2)])
    yield "(C2)^4", direct([2, 2, 2, 2])
    yield "(C3)^3", direct([3, 3, 3])


def test_aut_generators_match_enumeration():
    """Strong generators and |Aut| against the find-all listing."""
    for tag, G in _gate_groups():
        aut = om.brute_force_aut(G)
        full = all_automorphisms(G)
        listed = om.AutomorphismSet(G, full, verify=False)
        assert len(aut) == len(full), tag
        assert np.array_equal(om.orbits(G, aut)["labels"],
                              om.orbits(G, listed)["labels"]), tag
        assert all(om.verify_automorphism(G, p) for p in aut.perms), tag
        if G.n <= om.HOLOMORPH_CAP:
            assert om.holomorph_rank(G, aut) == \
                om.holomorph_rank(G, listed), tag
        if len(full) <= 20000:
            # with base range(n), the base images are the permutations
            group = PermGroup(aut.perms, G.n, range(G.n))
            assert group.members(full).all(), tag
