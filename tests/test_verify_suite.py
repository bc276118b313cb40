import hashlib
import json
import tracemalloc

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

    from helpers import group_from_oracle
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


# sha256 prefix of json.dumps of the report without wall_ms, for triples
# outside the battery (and so outside the frozen answers); d = 4 and 6
# rebase onto a symplectic basis that is not the unit basis
GFGF_PINS = {
    (5, 2, 1): "b0b5ab70ee208769199018e878e0fc87",
    (3, 6, 1): "081ccd3e66b95136806188328a15700d",
    (9, 2, 1): "2f97b561035badfec419f0a632733f3c",
    (5, 4, 1): "92e961be510bc09c1f508b054a9452cb",
    (7, 2, 1): "f80d7c2221de8ae09fc95955fe445bfd",
}


@pytest.mark.parametrize("triple", list(GFGF_PINS),
                         ids=["q=%d,d=%d,e=%d" % t for t in GFGF_PINS])
def test_gfgf_report_pinned(triple):
    rep = vs.verify_gfgf_iso(*triple)
    rep.pop("wall_ms")
    text = json.dumps(rep)
    assert rep["status"] == vs.VERIFIED, text
    assert hashlib.sha256(text.encode()).hexdigest()[:32] == \
        GFGF_PINS[triple], text


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


# ------------------------------------------- squaring-map search pins
# found, nodes and the cap's trip point are pinned from the
# one-candidate-at-a-time search that preceded the batched one

def _layers(*groups):
    return tuple(vs._square_layers(inst.group) for inst in groups)


def _reference_map_search(da, db):
    """The search one candidate at a time, with tau found by online
    GF(2) elimination over its n*n unknowns: the loop the batched
    search replaced, kept as its reference."""
    m, n, QA, QB = da["m"], da["n"], da["Q"], db["Q"]
    fibA = np.bincount(QA, minlength=1 << n)
    fibB = np.bincount(QB, minlength=1 << n)
    if sorted(fibA) != sorted(fibB):
        return {"found": False, "nodes": 0}
    span_img, in_img = [0] * (1 << m), {0}
    state = {"nodes": 0}

    def install(piv, row):           # False: the row is inconsistent
        while row >> 1:
            hi = (row >> 1).bit_length() - 1
            if piv[hi] == 0:
                piv[hi] = row
                return True
            row ^= piv[hi]
        return row == 0

    def invertible_solution(piv):
        free = [u for u in range(n * n) if piv[u] == 0]
        for combo in range(1 << len(free)):
            t = sum(1 << u for b, u in enumerate(free) if combo >> b & 1)
            for u in range(n * n):
                r = piv[u]
                if r and (r & 1) ^ bin(t & r >> 1 & ((1 << u) - 1)).count(
                        "1") & 1:
                    t |= 1 << u
            rows = [t >> (i * n) & ((1 << n) - 1) for i in range(n)]
            img = {sum((bin(rows[i] & w).count("1") & 1) << i
                       for i in range(n)) for w in range(1 << n)}
            if len(img) == 1 << n:
                return rows
        return None

    def rec(k, piv):
        if k == m:
            return invertible_solution(piv)
        half = 1 << k
        for c in range(1, 1 << m):
            if c in in_img:
                continue
            state["nodes"] += 1
            piv2 = list(piv)
            ok = all(fibA[QA[x | half]] == fibB[QB[span_img[x] ^ c]]
                     and all(install(piv2, (int(QA[x | half]) << (i * n)
                                            << 1)
                                     | (int(QB[span_img[x] ^ c]) >> i & 1))
                             for i in range(n))
                     for x in range(half))
            if not ok:
                continue
            span_img[half:2 * half] = [s ^ c for s in span_img[:half]]
            in_img.update(span_img[half:2 * half])
            found = rec(k + 1, piv2)
            if found is not None:
                return found
            in_img.difference_update(span_img[half:2 * half])
        return None

    tau = rec(0, [0] * (n * n))
    out = {"found": tau is not None, "nodes": state["nodes"]}
    if tau is not None:
        out.update(sigma=list(span_img), tau=tau)
    return out


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ int(v) for s in span}
    return span


def _random_layers(rng, m, n):
    """A random quadratic map GF(2)^m -> GF(2)^n."""
    coef = rng.integers(0, 1 << n, size=(m, m))
    x = np.arange(1 << m)
    Q = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        for j in range(i, m):
            Q ^= np.where((x >> i & 1) & (x >> j & 1), coef[i, j], 0)
    return {"m": m, "n": n, "Q": Q}


def test_map_search_matches_the_reference():
    rng = np.random.default_rng(11)
    kinds = {"found": 0, "none": 0, "fibers differ": 0}
    while min(kinds.values()) < 8:
        m, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        da = _random_layers(rng, m, n)
        if len(_span(da["Q"])) < 1 << n:
            continue                 # squares of a 2-group span Phi
        db = _random_layers(rng, m, n)
        if rng.integers(2):          # a transported copy, maybe tampered
            basis = []
            while len(basis) < m:
                c = int(rng.integers(1, 1 << m))
                if c not in _span(basis):
                    basis.append(c)
            x = np.arange(1 << m)
            sigma = np.zeros(1 << m, dtype=np.int64)
            for i, b in enumerate(basis):
                sigma ^= np.where(x >> i & 1, b, 0)
            db["Q"][sigma] = da["Q"]
            if rng.integers(2):
                db["Q"][rng.integers(1, 1 << m)] ^= rng.integers(1, 1 << n)
        want = _reference_map_search(da, db)
        got = vs.special2_map_search(da, db)
        assert (got["found"], got["nodes"]) == (want["found"], want["nodes"])
        if want["found"]:
            assert got["sigma"].tolist() == want["sigma"]
            assert got["tau"] == want["tau"]
        kinds["found" if want["found"] else
              "none" if got["fiber_match"] else "fibers differ"] += 1


@pytest.fixture(scope="module")
def pair_512():
    return _layers(cons.suzuki_B(3), cons.dornhoff_P())


@pytest.fixture(scope="module")
def pair_1024():
    return _layers(cons.suzuki_A(5, 1), cons.suzuki_A(5, 2))


@pytest.fixture(scope="module")
def pair_eps_64():
    return _layers(cons.suzuki_B(2, 0), cons.suzuki_B(2, 1))


def _assert_transports(da, db, out):
    sig, tau = out["sigma"], out["tau"]
    n = da["n"]
    assert sorted(sig.tolist()) == list(range(1 << da["m"]))
    tmap = np.array(
        [sum(((bin(tau[i] & w).count("1") & 1) << i) for i in range(n))
         for w in range(1 << n)], dtype=np.int64)
    assert sorted(tmap.tolist()) == list(range(1 << n))
    assert np.array_equal(tmap[da["Q"]], db["Q"][sig])


def test_map_search_1024_pair(pair_1024):
    out = vs.special2_map_search(*pair_1024)
    assert out["fiber_match"] and not out["found"]
    assert out["nodes"] == 51_801


@pytest.mark.parametrize("side", [0, 1], ids=["suzuki_B(3)", "dornhoff_P"])
def test_map_search_self_pairs(pair_512, side):
    da = pair_512[side]
    out = vs.special2_map_search(da, da)
    assert out["found"] and out["nodes"] == 6
    _assert_transports(da, da, out)


def test_map_search_epsilon_pair(pair_eps_64):
    out = vs.special2_map_search(*pair_eps_64)
    assert out["found"] and out["nodes"] == 4
    _assert_transports(*pair_eps_64, out)


def test_map_search_needs_an_invertible_tau():
    # hand-made layers: Q_A hits a basis of GF(2)^3, Q_B only a plane,
    # so every tau with tau . Q_A = Q_B . sigma is singular
    da = {"m": 2, "n": 3, "Q": np.array([0, 1, 2, 4])}
    db = {"m": 2, "n": 3, "Q": np.array([0, 1, 2, 3])}
    out = vs.special2_map_search(da, db)
    assert out["fiber_match"] and not out["found"]
    assert out["nodes"] == 9


def test_map_search_node_cap_names_cap_and_count(monkeypatch):
    monkeypatch.setattr(vs, "MAP_SEARCH_NODE_CAP", 5)
    da = {"m": 2, "n": 3, "Q": np.array([0, 1, 2, 4])}
    db = {"m": 2, "n": 3, "Q": np.array([0, 1, 2, 3])}
    with pytest.raises(RuntimeError,
                       match=r"search node cap 5 exceeded: (\d+) nodes") \
            as err:
        vs.special2_map_search(da, db)
    assert int(str(err.value).split(": ")[1].split()[0]) > 5


def test_gl3_tower_refusal_names_cap_and_order():
    with pytest.raises(ValueError, match=r"only q = 3 is implemented: "
                                         r"q = 5 gives order 5\^7 = 78125"):
        vs.verify_four_orbit("gl3-tower", {"q": 5})


@pytest.mark.parametrize("cap,raises", [(269_576, True), (269_577, False)])
def test_map_search_node_cap_trips_where_it_did(pair_512, monkeypatch,
                                                cap, raises):
    monkeypatch.setattr(vs, "MAP_SEARCH_NODE_CAP", cap)
    if raises:
        with pytest.raises(RuntimeError, match="node cap"):
            vs.special2_map_search(*pair_512)
    else:
        assert vs.special2_map_search(*pair_512)["nodes"] == cap


def _transported(rng, da):
    """da moved by a random invertible sigma: a pair with a solution."""
    m = da["m"]
    basis = []
    while len(basis) < m:
        c = int(rng.integers(1, 1 << m))
        if c not in _span(basis):
            basis.append(c)
    x = np.arange(1 << m)
    sigma = np.bitwise_xor.reduce(
        np.where(x[:, None] >> np.arange(m) & 1, basis, 0), axis=1)
    Q = np.empty_like(da["Q"])
    Q[sigma] = da["Q"]
    return {"m": m, "n": da["n"], "Q": Q}


def _seeded_pairs(seed, count):
    """count random pairs whose fibers match, every other one a
    transported copy (so with a solution), each with the reference
    search's result."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        m, n = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        da = _random_layers(rng, m, n)
        if len(_span(da["Q"])) < 1 << n:
            continue
        db = (_transported(rng, da) if len(pairs) % 2 == 0
              else _random_layers(rng, m, n))
        want = _reference_map_search(da, db)
        if want["nodes"]:
            pairs.append((da, db, want))
    return pairs


@pytest.fixture(scope="module")
def search_pairs(pair_512, pair_1024, pair_eps_64):
    """The catalog pairs and both 512 self-pairs, found and not found."""
    return {"512": pair_512, "1024": pair_1024, "eps-64": pair_eps_64,
            "512-self-0": pair_512[:1] * 2, "512-self-1": pair_512[1:] * 2}


@pytest.mark.parametrize("cells", [1, 7 * 64])
def test_map_search_blocks_do_not_change_the_walk(search_pairs, monkeypatch,
                                                  cells):
    # one node per block, and blocks cut across a level's nodes at odd
    # places: the same pair, count and cap trip point as the default
    want = {name: vs.special2_map_search(*pair)
            for name, pair in search_pairs.items()}
    monkeypatch.setattr(vs, "BLOCK_CELLS", cells)
    for name, pair in search_pairs.items():
        got, ref = vs.special2_map_search(*pair), want[name]
        assert (got["found"], got["nodes"], got["tau"]) == \
            (ref["found"], ref["nodes"], ref["tau"]), name
        if ref["found"]:
            assert np.array_equal(got["sigma"], ref["sigma"]), name
    for da, db, ref in _seeded_pairs(5, 12):
        got = vs.special2_map_search(da, db)
        assert (got["found"], got["nodes"]) == (ref["found"], ref["nodes"])
        if ref["found"]:
            assert got["sigma"].tolist() == ref["sigma"]
            assert got["tau"] == ref["tau"]


def test_map_search_cap_trips_at_the_count(search_pairs, monkeypatch):
    # found and not-found trees alike: a cap one below the count trips,
    # a cap at the count does not
    cases = [search_pairs[name] for name in
             ("512-self-0", "512-self-1", "eps-64")]
    cases += [(da, db) for da, db, _ in _seeded_pairs(9, 10)]
    for da, db in cases:
        nodes = vs.special2_map_search(da, db)["nodes"]
        with monkeypatch.context() as mp:
            mp.setattr(vs, "MAP_SEARCH_NODE_CAP", nodes - 1)
            with pytest.raises(RuntimeError, match="node cap"):
                vs.special2_map_search(da, db)
            mp.setattr(vs, "MAP_SEARCH_NODE_CAP", nodes)
            assert vs.special2_map_search(da, db)["nodes"] == nodes


@pytest.mark.parametrize("name", ["512", "1024"])
def test_map_search_blocks_stay_small(search_pairs, name):
    tracemalloc.start()
    try:
        vs.special2_map_search(*search_pairs[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


# ---------------------------------------------- refuted needs a proof

def _break_explicit_map(monkeypatch):
    real = vs._symplectic_basis

    def rescaled(F, gram):
        # b_0 -> -b_0: still a basis, no longer symplectic
        B = real(F, gram).copy()
        B[0] = F.mul[B[0], F.neg[1]]
        return B

    monkeypatch.setattr(vs, "_symplectic_basis", rescaled)


def test_gfgf_broken_map_is_inconclusive(monkeypatch):
    _break_explicit_map(monkeypatch)
    rep = vs.verify_gfgf_iso(3, 2, 1)
    assert rep["claim_id"] == "gfgf-iso:q=3,d=2,e=1"
    assert not rep["witnesses"]["homomorphism"]
    assert rep["witnesses"]["oracle"] == "independent-search-agrees"
    assert rep["status"] == vs.INCONCLUSIVE


def test_gfgf_broken_map_without_search_is_inconclusive(monkeypatch):
    _break_explicit_map(monkeypatch)
    monkeypatch.setattr(vs, "ISO_CAP", 8)
    rep = vs.verify_gfgf_iso(3, 2, 1)
    assert rep["witnesses"]["oracle"] == "skipped-above-cap"
    assert rep["status"] == vs.INCONCLUSIVE


def test_gfgf_refuted_only_by_the_search(monkeypatch):
    _break_explicit_map(monkeypatch)
    monkeypatch.setattr(vs, "find_isomorphism", lambda G, H: None)
    assert vs.verify_gfgf_iso(3, 2, 1)["status"] == vs.REFUTED


def test_gfgf_map_against_search_is_internal(monkeypatch):
    monkeypatch.setattr(vs, "find_isomorphism", lambda G, H: None)
    with pytest.raises(AssertionError, match="search finds none"):
        vs.verify_gfgf_iso(3, 2, 1)


def _failed(rep):
    return [c["name"] for c in rep["witnesses"]["checks"] if not c["ok"]]


def test_irredundant_failed_proof_refutes(monkeypatch):
    monkeypatch.setattr(vs, "find_isomorphism", lambda G, H: None)
    rep = vs.verify_irredundant()
    assert _failed(rep) == ["twist-vs-inverse-twist-64",
                            "epsilon-independence-64"]
    assert rep["status"] == vs.REFUTED


def test_irredundant_failed_evidence_is_inconclusive(monkeypatch):
    # line 1 built as line 4's group: the center orders coincide, which
    # does not make the listed groups isomorphic
    monkeypatch.setattr(cons, "line1_abelian",
                        lambda p, n, cap=None: cons.suzuki_B(2, 0, cap=cap))
    rep = vs.verify_irredundant()
    assert _failed(rep) == ["order-64-center-separation"]
    assert rep["status"] == vs.INCONCLUSIVE


def test_irredundant_failed_control_is_internal(monkeypatch):
    search = vs.special2_map_search

    def blind_on_the_control(da, db):
        out = search(da, db)
        if da["m"] == 3:                    # the order-64 control pair
            out["found"] = False
        return out

    monkeypatch.setattr(vs, "special2_map_search", blind_on_the_control)
    with pytest.raises(AssertionError, match="control"):
        vs.verify_irredundant()
