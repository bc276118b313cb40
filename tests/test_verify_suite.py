import json

import numpy as np
import pytest

from orbitforge import cli
from orbitforge import constructions as cons
from orbitforge import verify_suite as vs


def test_report_key_order():
    rep = vs.verify_table_line(4, {"n": 1})
    assert tuple(rep.keys()) == cli.REPORT_KEYS
    assert rep["status"] == vs.VERIFIED
    assert rep["claim_id"] == "table-line-4:n=1,eps_choice=0"
    assert rep["anchor"] == "table-line-4"
    assert sorted(rep["omega"].keys()) == ["exact", "lower", "upper"]
    assert rep["omega"]["exact"] == 3
    assert sorted(rep["orbit_lengths"]) == [1, 1, 6]
    assert json.dumps(rep)  # json-safe end to end


def test_report_exact_key_presence():
    rep = vs.verify_table_line(1, {"p": 2, "n": 1})
    om = rep["omega"]
    assert ("exact" in om) == (om["lower"] == om["upper"])


def test_line2_report():
    rep = vs.verify_table_line(2, {"p": 2, "r": 3})
    assert rep["status"] == vs.VERIFIED
    assert rep["claim_id"] == "table-line-2:p=2,r=3"
    assert sorted(rep["orbit_lengths"]) == [1, 3, 8]
    assert rep["induced"]["A_transitive"] and rep["induced"]["B_transitive"]
    checks = rep["witnesses"]["side_conditions"]
    assert checks["N_is_derived"] and checks["orbit_lengths_formula"]
    assert checks["frattini_inside_N"]


def test_line_rejects_bad_params():
    with pytest.raises(ValueError):
        vs.verify_table_line(1, {"p": 2})
    with pytest.raises(ValueError):
        vs.verify_table_line(8, {})
    with pytest.raises(ValueError):
        vs.verify_table_line(3, {"n": 4})   # needs odd n


def test_py_conversion():
    x = vs._py({"a": np.int64(3), "b": [np.bool_(True), np.int32(1)],
                "c": (np.float64(2.5),)})
    assert x == {"a": 3, "b": [True, 1], "c": [2.5]}
    assert isinstance(x["a"], int) and isinstance(x["b"][0], bool)


def test_square_layers_requires_special_2_group():
    heis = cons.heisenberg_trace((3, 1), (3, 1), 2).group
    with pytest.raises(ValueError):
        vs._square_layers(heis)             # odd p
    import itertools

    from orbitforge.group_engine import group_from_oracle
    elems = list(itertools.product(range(4), range(2)))
    c4c2 = group_from_oracle(
        elems, lambda a, b: ((a[0] + b[0]) % 4, (a[1] + b[1]) % 2))
    with pytest.raises(ValueError):
        vs._square_layers(c4c2)             # not special


def test_square_layers_shape():
    G = cons.suzuki_B(2).group
    lay = vs._square_layers(G)
    assert (lay["m"], lay["n"]) == (4, 2)
    Q = lay["Q"]
    assert Q.shape == (1 << 4,)
    assert Q[0] == 0
    # squaring map is a quadratic form: parallelogram check on samples
    # is covered by the engine; here just bounds
    assert Q.min() >= 0 and Q.max() < (1 << 2)


def test_map_search_positive_control():
    a1 = vs._square_layers(cons.suzuki_A(3, 1).group)
    a2 = vs._square_layers(cons.suzuki_A(3, 2).group)
    out = vs.special2_map_search(a1, a2)
    assert out["found"] and out["fiber_match"]
    assert out["nodes"] == 3
    # returned pair must actually transport the squaring tables:
    # sigma is the full quotient-layer map, tau a list of GF(2) row masks
    sig, tau = out["sigma"], out["tau"]
    m, n = a1["m"], a1["n"]
    assert sorted(sig.tolist()) == list(range(1 << m))
    tmap = np.array(
        [sum(((bin(tau[i] & w).count("1") & 1) << i) for i in range(n))
         for w in range(1 << n)], dtype=np.int64)
    assert sorted(tmap.tolist()) == list(range(1 << n))
    assert np.array_equal(tmap[a1["Q"]], a2["Q"][sig])


def test_map_search_negative_is_exhaustive():
    b3 = vs._square_layers(cons.suzuki_B(3).group)
    dp = vs._square_layers(cons.dornhoff_P().group)
    out = vs.special2_map_search(b3, dp)
    assert not out["found"]
    assert out["fiber_match"]       # coarse invariants agree, search needed
    assert out["nodes"] == 269_577  # full tree, deterministic


def test_q8_on_c3c3():
    G = vs.q8_on_c3c3()
    assert G.n == 72
    assert len(G.center()) == 1
    assert G.order_profile()[0] == (1, 1)


def test_four_orbit_q8():
    rep = vs.verify_four_orbit("q8-c3c3", {})
    assert rep["status"] == vs.VERIFIED
    assert rep["claim_id"] == "four-orbit:q8-c3c3"
    assert rep["omega"]["exact"] == 4
    assert sorted(rep["orbit_lengths"]) == [1, 8, 9, 54]
    assert sorted(rep["orbit_orders"]) == [1, 2, 3, 4]


def test_four_orbit_extraspecial():
    rep = vs.verify_four_orbit("extraspecial2", {"k": 2, "eps": "+"})
    assert rep["status"] == vs.VERIFIED
    assert sorted(rep["orbit_lengths"]) == [1, 1, 12, 18]
    rep = vs.verify_four_orbit("extraspecial2", {"k": 2, "eps": "-"})
    assert rep["status"] == vs.VERIFIED
    assert sorted(rep["orbit_lengths"]) == [1, 1, 10, 20]


def test_hering_claims():
    rep = vs.verify_hering("gammaL1", {"p": 2, "m": 6})
    assert rep["status"] == vs.VERIFIED
    assert rep["claim_id"] == "hering:gammaL1:p=2,m=6"
    assert rep["witnesses"]["transitive"] is True
    rep = vs.verify_hering("sl2-5", {"p": 11})
    assert rep["status"] == vs.VERIFIED
    assert rep["witnesses"]["order"] == 120


def test_gfgf_smallest():
    rep = vs.verify_gfgf_iso(3, 2, 1)
    assert rep["status"] == vs.VERIFIED
    assert rep["claim_id"] == "gfgf-iso:q=3,d=2,e=1"
    w = rep["witnesses"]
    assert w["bijective"] and w["homomorphism"]
    assert w["oracle"] == "independent-search-agrees"
    assert w["order"] == 27


def test_run_job_dispatch():
    rep = vs.run_job(("line", 4, {"n": 1}))
    assert rep["anchor"] == "table-line-4"
    rep = vs.run_job(("hering", "gammaL1", {"p": 2, "m": 3}))
    assert rep["status"] == vs.VERIFIED
    with pytest.raises(ValueError):
        vs.run_job(("nope",))


def test_batteries_shape():
    assert len(vs.table_battery()) == 16
    assert len(vs.four_orbit_battery()) == 5
    assert vs.gfgf_battery() == [(3, 2, 1), (3, 4, 1), (3, 2, 2)]
    assert len(vs.hering_battery()) == 7


def test_stripped_actions_are_inconclusive(monkeypatch):
    # without the family's automorphisms the bounds do not meet and the
    # acting set is not transitive; neither shows the claim is false
    import dataclasses
    from orbitforge.orbit_machine import AutomorphismSet
    build = cons.build

    def stripped(family, params, cap=None):
        inst, prm = build(family, params, cap)
        return (dataclasses.replace(inst, acts=AutomorphismSet(inst.group,
                                                               [])), prm)

    monkeypatch.setattr(cons, "build", stripped)
    rep = vs.verify_table_line(3, {"n": 3, "theta": 1})
    assert rep["omega"] == {"lower": 3, "upper": 15}
    assert rep["status"] == vs.INCONCLUSIVE
    assert not rep["witnesses"]["side_conditions"]["A_transitive"]


def test_status_rule():
    def om(lower, upper):
        return {"lower": lower, "upper": upper,
                "exact": upper if lower == upper else None}

    st = vs._status
    assert st(om(3, 3), 3, facts=[True], pins=[True]) == vs.VERIFIED
    assert st(om(4, 6), 3, facts=[True], pins=[True]) == vs.REFUTED
    assert st(om(1, 2), 3, facts=[True], pins=[True]) == vs.REFUTED
    assert st(om(3, 5), 3, facts=[False], pins=[True]) == vs.REFUTED
    # pins count only when the bounds meet at k
    assert st(om(3, 5), 3, facts=[True], pins=[False]) == vs.INCONCLUSIVE
    assert st(om(3, 3), 3, facts=[True], pins=[False]) == vs.REFUTED
    # a witness of the supplied automorphisms never refutes
    assert st(om(3, 3), 3, facts=[True], pins=[True],
              witnesses=[False]) == vs.INCONCLUSIVE
