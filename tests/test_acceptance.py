"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured numbers once its assertions hold.  Everything is an
exact check; no tolerances anywhere."""

import time

import pytest

from orbitforge import constructions as cons
from orbitforge import verify_suite as vs
from orbitforge.orbit_machine import (brute_force_aut, central_automorphisms,
                                      holomorph_rank, omega_exact, orbits)


def _stamp(name, t0, extra=""):
    print("criterion %s: PASS (%.1fs)%s"
          % (name, time.time() - t0, " " + extra if extra else ""))


def test_criterion_1_table_lines():
    t0 = time.time()
    reports = [vs.run_job(("line", line, prm))
               for line, prm in vs.table_battery()]
    named = {
        "table-line-1:p=2,n=1", "table-line-1:p=3,n=1",
        "table-line-2:p=2,r=3", "table-line-2:p=2,r=5",
        "table-line-3:n=3,theta=1",
        "table-line-4:n=1,eps_choice=0", "table-line-4:n=2,eps_choice=0",
        "table-line-5",
        "table-line-6:q=3",
        "table-line-7:p=3,m=2,n=1,b=1", "table-line-7:p=3,m=4,n=2,b=2",
    }
    seen = {r["claim_id"] for r in reports}
    missing = named - seen
    assert not missing, missing
    bad = [r["claim_id"] for r in reports if r["status"] != vs.VERIFIED]
    assert not bad, bad
    for r in reports:
        assert r["omega"]["exact"] == 3, r["claim_id"]
        sc = r["witnesses"]["side_conditions"]
        assert sc["orbit_lengths_formula"], r["claim_id"]
        assert sc["N_order"], r["claim_id"]
        assert sc["A_transitive"] and sc["B_transitive"], r["claim_id"]
    _stamp("1 (table lines)", t0, "%d claims verified" % len(reports))
    test_criterion_1_table_lines.reports = reports


def test_criterion_2_central_automorphism_counts():
    t0 = time.time()
    cases = [
        (cons.extraspecial2(1, "-").group, 4),
        (cons.heisenberg_trace((3, 1), (3, 1), 2).group, 9),
        (cons.suzuki_B(2).group, 256),
    ]
    got = []
    for G, want in cases:
        count = central_automorphisms(G)[4]
        assert count == want, (G.n, count, want)
        got.append(count)
    _stamp("2 (central automorphisms)", t0, "counts %s" % got)


def test_criterion_3_field_tower_isomorphism():
    t0 = time.time()
    for (q, d, e) in vs.gfgf_battery():
        rep = vs.verify_gfgf_iso(q, d, e)
        assert rep["status"] == vs.VERIFIED, rep["claim_id"]
        w = rep["witnesses"]
        assert w["bijective"] and w["homomorphism"], rep["claim_id"]
    _stamp("3 (tower isomorphisms)", t0, "3 parameter triples")


@pytest.mark.parametrize("exhaustive", [False, True])
def test_criterion_4_irredundancy(exhaustive):
    t0 = time.time()
    rep = vs.verify_irredundant(exhaustive)
    assert rep["status"] == vs.VERIFIED
    checks = {c["name"]: c for c in rep["witnesses"]["checks"]}
    assert checks["twist-vs-inverse-twist-64"]["ok"]
    assert checks["epsilon-independence-64"]["ok"]
    assert checks["norm-512-vs-trace-512"]["ok"]
    gated = "twist-vs-squared-twist-1024" in checks
    assert gated == exhaustive
    _stamp("4 (irredundancy)", t0,
           "%d checks%s" % (len(checks),
                            ", incl. order-1024" if gated else ""))


def test_criterion_5_four_orbit_instances():
    t0 = time.time()
    want = {
        "four-orbit:gl3-tower:q=3": [1, 2, 78, 2106],
        "four-orbit:extraspecial2:k=2,eps=+": [1, 1, 12, 18],
        "four-orbit:extraspecial2:k=2,eps=-": [1, 1, 10, 20],
        "four-orbit:q8-c3c3": [1, 8, 9, 54],
        "four-orbit:line2-frobenius:p=2,r=3,ell=2,d=1": [1, 63, 128, 384],
    }
    reports = [vs.run_job(("four", fam, prm))
               for fam, prm in vs.four_orbit_battery()]
    assert {r["claim_id"] for r in reports} == set(want)
    for r in reports:
        assert r["status"] == vs.VERIFIED, r["claim_id"]
        assert r["omega"]["exact"] == 4, r["claim_id"]
        assert sorted(r["orbit_lengths"]) == want[r["claim_id"]], \
            r["claim_id"]
    _stamp("5 (four-orbit instances)", t0, "5 instances")


def test_criterion_6_transitive_linear_groups():
    t0 = time.time()
    reports = {r["claim_id"]: r for r in
               (vs.run_job(("hering", kind, prm))
                for kind, prm in vs.hering_battery())}
    assert all(r["status"] == vs.VERIFIED for r in reports.values()), \
        sorted(k for k, r in reports.items() if r["status"] != vs.VERIFIED)
    for (p, m) in ((2, 3), (2, 4), (2, 6), (3, 2)):
        w = reports["hering:gammaL1:p=%d,m=%d" % (p, m)]["witnesses"]
        assert w["transitive"]
    sp = reports["hering:sp:d=4,q=3"]["witnesses"]
    assert sp["transitive"] and sp["nonzero_vectors"] == 80
    assert sp["perfect"] and sp["residual_order"] == sp["closure_order"]
    sl = reports["hering:sl:d=3,q=3"]["witnesses"]
    assert sl["transitive"] and sl["nonzero_vectors"] == 26
    s5 = reports["hering:sl2-5:p=11"]["witnesses"]
    assert s5["order"] == 120 and s5["transitive"]
    assert s5["nonzero_vectors"] == 120
    _stamp("6 (transitive linear groups)", t0,
           "sp closure %d" % sp["closure_order"])


def test_criterion_7_wedge_submodules():
    t0 = time.time()
    from orbitforge.linalg_mod import sp_lambda2_submodules
    for (ell, q) in ((2, 3), (3, 3), (2, 2), (2, 5)):
        rep = sp_lambda2_submodules(ell, q)
        assert rep["ok"], (ell, q, rep)
    # 6 is no prime power: refused, not computed over GF(4)
    with pytest.raises(ValueError):
        sp_lambda2_submodules(1, 6)
    _stamp("7 (wedge submodule lattice)", t0, "4 parameter pairs")


def _small_inventory():
    yield "line1(2,1)", cons.line1_abelian(2, 1)
    yield "line1(3,1)", cons.line1_abelian(3, 1)
    yield "line1(2,2)", cons.line1_abelian(2, 2)
    yield "line1(5,1)", cons.line1_abelian(5, 1)
    yield "line1(2,3)", cons.line1_abelian(2, 3)
    yield "line2(2,3)", cons.line2_frobenius(2, 3, 1, 1)
    yield "line2(3,2)", cons.line2_frobenius(3, 2, 1, 1)
    yield "line2(2,5)", cons.line2_frobenius(2, 5, 1, 1)
    yield "line3(3,1)", cons.suzuki_A(3, 1)
    yield "line3(3,2)", cons.suzuki_A(3, 2)
    yield "line4(1)", cons.suzuki_B(1)
    yield "line4(2)", cons.suzuki_B(2)
    yield "line7(3,2,1,1)", cons.heisenberg_trace((3, 1), (3, 1), 2)
    yield "line7(5,2,1,1)", cons.heisenberg_trace((5, 1), (5, 1), 2)
    yield "es2(1,+)", cons.extraspecial2(1, "+")
    yield "es2(2,+)", cons.extraspecial2(2, "+")
    yield "es2(2,-)", cons.extraspecial2(2, "-")


def test_criterion_8_oracle_coherence():
    t0 = time.time()
    checked = holo = 0
    for tag, inst in _small_inventory():
        G = inst.group
        assert G.n <= 128, tag
        aut = brute_force_aut(G)
        truth = orbits(G, aut)["count"]
        om = omega_exact(G, inst.acts, caut=vs._caut_or_none(G))
        assert om["exact"] == truth, (tag, om, truth)
        checked += 1
        if G.n <= 64:
            assert holomorph_rank(G, aut) == truth, tag
            holo += 1
    # the one four-orbit group in range, with no family action of its own
    G = vs.q8_on_c3c3()
    aut = brute_force_aut(G)
    truth = orbits(G, aut)["count"]
    assert truth == 4
    assert omega_exact(G, aut, inner=False)["exact"] == truth
    checked += 1
    _stamp("8 (oracle coherence)", t0,
           "%d groups, %d holomorph ranks" % (checked, holo))


def test_criterion_8_aut_at_order_512():
    """The two order-512 catalog groups, line 4 at n = 3 (norm-512) and
    line 5 (trace-512), have automorphism groups of different orders, so
    they are not isomorphic: a proof independent of the layer-map
    search of the irredundancy check.  Each has three Aut-orbits, and
    omega_exact on the family action agrees."""
    t0 = time.time()
    auts = []
    for inst in (cons.suzuki_B(3), cons.dornhoff_P()):
        G = inst.group
        aut = brute_force_aut(G)
        assert orbits(G, aut)["count"] == 3, inst.tag
        om = omega_exact(G, inst.acts, caut=vs._caut_or_none(G))
        assert om["exact"] == 3, inst.tag
        auts.append(aut)
    norm, trace = auts
    assert len(norm) == 99090432
    assert len(trace) == 16515072
    _stamp("8 (Aut at order 512)", t0, "|Aut| %d and %d"
           % (len(norm), len(trace)))


def test_criterion_9_structural_invariants():
    t0 = time.time()
    reports = getattr(test_criterion_1_table_lines, "reports", None)
    if reports is None:
        reports = [vs.run_job(("line", line, prm))
                   for line, prm in vs.table_battery()]
    for r in reports:
        line = int(r["anchor"].rsplit("-", 1)[1])
        sc = r["witnesses"]["side_conditions"]
        assert all(sc.values()), (r["claim_id"], sc)
        assert sc["m_ge_n"] if "m_ge_n" in sc else True
        if line in (6, 7):
            assert sc["exponent_p"], r["claim_id"]
        if line in (3, 4, 5):
            assert sc["element_orders_124"], r["claim_id"]
        if line in (3, 4, 5, 6, 7):
            assert sc["N_is_center_derived_frattini"], r["claim_id"]
        if line == 1:
            assert sc["N_is_frattini"], r["claim_id"]
        if line == 2:
            assert sc["N_is_derived"], r["claim_id"]
    _stamp("9 (structural invariants)", t0,
           "%d reports swept" % len(reports))
