import hashlib
import tracemalloc

import numpy as np
import pytest

from orbitforge import constructions as cons
from orbitforge import verify_suite as vs
from orbitforge.group_engine import find_isomorphism, table_dtype
from orbitforge.orbit_machine import central_automorphisms, omega_exact


def two_sided(inst, caut=True):
    cset = central_automorphisms(inst.group)[0] if caut else None
    rep = omega_exact(inst.group, inst.acts, caut=cset)
    assert rep["exact"] is not None, "bounds did not meet"
    return rep


def test_line1_small():
    inst = cons.line1_abelian(2, 1)
    G = inst.group
    assert G.n == 4 and G.exponent() == 4
    rep = two_sided(inst)
    assert sorted(rep["report"]["lengths"]) == [1, 1, 2]
    assert sorted(two_sided(cons.line1_abelian(3, 1))
                  ["report"]["lengths"]) == [1, 2, 6]
    inst22 = cons.line1_abelian(2, 2)
    assert inst22.group.n == 16
    assert sorted(two_sided(inst22)["report"]["lengths"]) == [1, 3, 12]


def test_line2_frobenius():
    a4 = cons.line2_frobenius(2, 3, 1, 1)
    assert a4.group.n == 12 and len(a4.group.center()) == 1
    assert len(a4.group.derived()) == 4
    rep = two_sided(a4, caut=False)
    assert sorted(rep["report"]["lengths"]) == [1, 3, 8]
    s3 = cons.line2_frobenius(3, 2, 1, 1)
    assert s3.group.n == 6
    assert sorted(two_sided(s3, caut=False)
                  ["report"]["lengths"]) == [1, 2, 3]
    with pytest.raises(ValueError):
        cons.line2_frobenius(4, 3, 1, 1)


def test_suzuki_a():
    sa = cons.suzuki_A(3, 1)
    G = sa.group
    assert G.n == 64
    assert len(G.center()) == len(G.derived()) == len(G.frattini()) == 8
    assert sorted(two_sided(sa)["report"]["lengths"]) == [1, 7, 56]


def test_suzuki_b():
    q8 = cons.suzuki_B(1)
    assert q8.group.n == 8 and q8.meta["galois_dropped"]
    assert find_isomorphism(q8.group,
                            cons.extraspecial2(1, "-").group) is not None
    sb2 = cons.suzuki_B(2)
    assert sb2.group.n == 1 << 6
    assert sb2.meta["galois_dropped"]
    sb3 = cons.suzuki_B(3)
    assert sb3.group.n == 1 << 9
    assert isinstance(sb3.meta["galois_dropped"], bool)
    assert sorted(two_sided(sb3)["report"]["lengths"]) == [1, 7, 504]


def test_dornhoff_relations():
    dp = cons.dornhoff_P()
    assert dp.group.n == 512
    psi, phi = dp.acts.perms
    ident = np.arange(512)
    psi_p, phi_p = psi.copy(), phi.copy()
    for _ in range(20):
        psi_p = psi_p[psi]
    for _ in range(8):
        phi_p = phi_p[phi]
    assert np.array_equal(psi_p, ident) and np.array_equal(phi_p, ident)
    inv_phi = np.empty(512, dtype=np.int64)
    inv_phi[phi] = ident
    conj = phi[psi[inv_phi]]
    psi4 = psi[psi[psi[psi]]]
    assert np.array_equal(conj, psi4)
    psi7 = psi4[psi[psi[psi]]]
    assert np.array_equal(psi7, phi[phi[phi]])


def test_heisenberg_trace():
    inst = cons.heisenberg_trace((3, 1), (3, 1), 2)
    G = inst.group
    assert G.n == 27 and G.exponent() == 3
    assert len(G.center()) == 3
    assert sorted(two_sided(inst)["report"]["lengths"]) == [1, 2, 24]
    big = cons.heisenberg_trace((5, 1), (5, 1), 2)
    assert sorted(two_sided(big)["report"]["lengths"]) == [1, 4, 120]
    # the middle field must sit between the extension and the base
    with pytest.raises(ValueError):
        cons.heisenberg_trace((3, 1), (3, 2), 2)


def test_extraspecial2():
    d8 = cons.extraspecial2(1, "+")
    q8 = cons.extraspecial2(1, "-")
    assert d8.group.n == q8.group.n == 8
    assert find_isomorphism(d8.group, q8.group) is None
    # element order split tells the two types apart
    assert d8.group.order_profile() == ((1, 1), (2, 5), (4, 2))
    assert q8.group.order_profile() == ((1, 1), (2, 1), (4, 6))
    for k, eps in ((2, "+"), (2, "-")):
        inst = cons.extraspecial2(k, eps)
        G = inst.group
        assert G.n == 1 << (2 * k + 1)
        assert len(G.center()) == 2


def test_sl3_pair_meta():
    inst = cons.sl3_pair((3, 1))
    G = inst.group
    assert G.n == 729 and G.exponent() == 3
    assert len(G.center()) == 27
    assert inst.meta["W_order"] == 27 and inst.meta["V_order"] == 27


def test_gl3_tower_refusal_names_cap_and_order():
    with pytest.raises(ValueError, match=r"only the GF\(3\) tower is "
                                         r"implemented: GF\(2\) gives "
                                         r"order 2\^7 = 128"):
        cons.gl3_tower((2, 1), (2, 1))


def test_gl3_tower_core():
    inst = cons.gl3_tower((3, 1), (3, 1))
    assert inst.group.n == 3 ** 7
    assert len(inst.group.derived()) == 81


def test_size_cap():
    # 5^7 = 78125 wants more than the default cap allows
    with pytest.raises(ValueError):
        cons.heisenberg_trace((5, 3), (5, 1), 2)


def test_default_cap_admits_exactly_the_orders_up_to_size_cap():
    # the default byte cap is the int32 table of order SIZE_CAP; every
    # int64 table (order <= 256) is far below it
    cons._check_cap(cons.SIZE_CAP)
    n = cons.SIZE_CAP + 1
    with pytest.raises(ValueError, match="group order %d needs %d table "
                                         "bytes, above the cap of %d table "
                                         "bytes" % (n, 4 * n * n,
                                                    4 * cons.SIZE_CAP ** 2)):
        cons._check_cap(n)


def test_meta_orbit_formula():
    # the advertised orbit lengths follow |W| and |V| in every family
    for inst in (cons.line1_abelian(3, 1), cons.suzuki_A(3, 1),
                 cons.heisenberg_trace((3, 1), (3, 1), 2)):
        w, v = inst.meta["W_order"], inst.meta["V_order"]
        assert inst.group.n == w * v
        rep = two_sided(inst)
        assert sorted(rep["report"]["lengths"]) == sorted(
            [1, w - 1, w * (v - 1)])


def test_build_checks_params_against_the_family_schema():
    inst, prm = cons.build("line2", {"r": "3", "p": 2})
    assert list(prm.items()) == [("p", 2), ("r", 3), ("ell", 1), ("d", 1)]
    assert inst.group.n == 12
    # line 7 with n < b: F = GF(9), d = m/b = 2, F0 = GF(3)
    inst, _ = cons.build("heisenberg", {"p": 3, "m": 4, "n": 1, "b": 2})
    assert inst.params == {"F": (3, 2), "F0": (3, 1), "d": 2}
    for family, params in (("line1", {"p": 2}),              # missing n
                           ("line1", {"p": 2, "n": 1, "q": 3}),
                           ("sl3", {"q": 12}),                # not p^k
                           ("no-such-family", {})):
        with pytest.raises(ValueError):
            cons.build(family, params)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8")
                          .tobytes()).hexdigest()[:32]


# sha256 prefixes of the multiplication table and of the action's
# permutation rows, as int64 little-endian bytes
TABLE_PINS = {
    ("es2", 1, "+"): ("5359c50283b917a56695405a73bef51b",
                      "4c32491596bc927ec4fdbb3c3e27d040"),
    ("es2", 1, "-"): ("9a2ee5146c11f4b9255cac57e2934def",
                      "55439196b4d8bb421b5aca587406655a"),
    ("es2", 2, "+"): ("e1a1f5ffbae209c2c4eb3e1c8ad0e847",
                      "49dff77c9b94e0b868839a48b01fad39"),
    ("es2", 2, "-"): ("5122ed61c165a19e6a65fad6fd0c0fd0",
                      "194b9835d55de63dc553e6c552a78992"),
    ("es2", 3, "+"): ("5d7fd0a134179e05b19c842cc5ceb437",
                      "86e3ab1760ce44230853629ab973cc44"),
    ("es2", 3, "-"): ("a090ecd7335f4f1f6e476fd9ce2a220f",
                      "33417823851e450d7a2e120546dae63e"),
    ("heis", (3, 1), (3, 1), 2): ("fb8369ed57bac3bd286ede06976118eb",
                                  "fc686e39c5733cfb6c6160ecd5a8335c"),
    ("heis", (5, 1), (5, 1), 2): ("163f1f0ae419d8b68e480b4fa375d176",
                                  "ac904745389798c60282e3d8150e7c5f"),
    ("heis", (3, 2), (3, 1), 2): ("f48f65adfc5937dab082dca25e461e33",
                                  "7bb0b461b74d02c21a912a3d208d274e"),
    ("heis", (3, 1), (3, 1), 4): ("9bc8d6a51be1a3b04abc2e0d4b48a5b9",
                                  "3c0274788081a4bc80b237585147b0ca"),
    ("heis", (3, 2), (3, 2), 2): ("ec2677e2c3f291fb084363f9f781bdfa",
                                  "b3cc33ba39cb77762490988b2e203327"),
    ("heis", (7, 1), (7, 1), 2): ("bb9eaa3b26b58ba65faabe1b69552dcf",
                                  "55258cd987d0817bf3437e9fcdee0d0f"),
    ("line1", 2, 1): ("6fc74d0f65895396cdb611ac0cfc55c2",
                      "a1e03200f1f82ad2c1cec8795c271aae"),
    ("line1", 3, 1): ("043e711f8858a640cf58fef5a260eb57",
                      "e58409572058e865f1a449e242483dad"),
    ("line1", 2, 2): ("6eb31adbcc8563234943ede8b6e51d54",
                      "d4137730cda817971781af31cb195328"),
    ("line1", 2, 3): ("af9a59fcf653deb0141c214707c48a42",
                      "e2cde6df3f51d29297cdc8753ca803cf"),
    ("line2", 2, 3, 1, 1): ("31a6bd1b0811dbb5d8c12bf5777b3e44",
                            "74e03f6575c5a53ee51215e25b34b481"),
    ("line2", 3, 2, 1, 1): ("854cfed876ed62d0cd8ecf16d94ac909",
                            "b71f2d5e49a5938f999afd42a18b97ea"),
    ("line2", 2, 5, 1, 1): ("da3c091a5db1fd585623eb520021978e",
                            "72c7dfa5dbb2f30f73eaaecf7be204b2"),
    ("line2", 2, 3, 2, 1): ("e349ae4f3e4550d515701c1f1853d39b",
                            "d99c400fbba1caa7a2d02f5f0fc2b951"),
    ("line2", 2, 3, 1, 2): ("6ace017c7d5780880b71b8b53f557872",
                            "8f5a1d96a3614eb3a5bf1da18c0fc671"),
    ("suzukiA", 3, 1): ("2a43835015606d30350401ef2602a7b4",
                        "796942c06f906bfa6538b5d798ebe114"),
    ("suzukiA", 3, 2): ("460e66ed619a6e40e25ae5cea045a42c",
                        "4c2732a2736c586d4f1d4a13b1d1922a"),
    ("suzukiA", 5, 1): ("38de0a5e5225038cd60a56340a96e516",
                        "58d472170bdb179136bc7bf2ecc9a752"),
    ("suzukiA", 5, 2): ("eed98de85a0f945dfd48a1bb29e0cb1a",
                        "190c6d47ea7eebc4f643d6737d224a38"),
    ("suzukiB", 1): ("9a2ee5146c11f4b9255cac57e2934def",
                     "ba4e4d011725a6bc65d346d89d674d35"),
    ("suzukiB", 2): ("72073ecb0c3b14bbb61b3374b213f494",
                     "dac48a8f214a9d6931a82bf987825af8"),
    ("suzukiB", 2, 1): ("039139330c909decc7b647510f469ec3",
                        "dac48a8f214a9d6931a82bf987825af8"),
    ("suzukiB", 3): ("b1b50da519abd820d9cb9b7ba29353b8",
                     "0ff30249a497c6c70575b69d0dbd9e58"),
    ("dornhoff",): ("3590fc5b14522c2f2e0fcedd948bc26b",
                    "54c5083395767c15bedec851cd1e3e0f"),
    ("sl3", (3, 1)): ("5fd0547f61a0188ef111ae2dfd399a2c",
                      "be4d508f926d162940e9b1f3ba513d4e"),
    ("gl3tower",): ("b20dc386d2dea1dcb74d1f7993422275",
                    "1835f0e67a5387f03685594b9a7952b0"),
}

MAKERS = {"es2": cons.extraspecial2, "heis": cons.heisenberg_trace,
          "line1": cons.line1_abelian, "line2": cons.line2_frobenius,
          "suzukiA": cons.suzuki_A, "suzukiB": cons.suzuki_B,
          "dornhoff": cons.dornhoff_P, "sl3": cons.sl3_pair,
          "gl3tower": lambda: cons.gl3_tower((3, 1), (3, 1))}


def _make(key):
    return MAKERS[key[0]](*key[1:])


def _group(key):
    """The group of a TABLE_PINS key, or verify_suite's q8_on_c3c3,
    which has no attached action."""
    return vs.q8_on_c3c3() if key == ("q8c3c3",) else _make(key).group


def _key_id(key):
    return "-".join(str(x).replace(" ", "") for x in key)


@pytest.mark.parametrize("key", list(TABLE_PINS), ids=_key_id)
def test_table_and_action_pinned(key):
    inst = _make(key)
    assert (_sha(inst.group.mul), _sha(inst.acts.perms)) == TABLE_PINS[key]


def test_q8_on_c3c3_table_and_elements_pinned():
    # sha256 prefixes of the table and of the (v0, v1, a) element list
    G = vs.q8_on_c3c3()
    assert (_sha(G.mul), _sha(G.elems)) == (
        "316ded583548a5935eaba12df42ec912",
        "dadbc5602b0f4768d1f94aacdc96bc39")


# one instance per table built by _Coder.table; no n here is a multiple
# of 7, so 7-row blocks end in a short block
BLOCKED = [("line1", 2, 3), ("line2", 2, 3, 2, 1), ("suzukiA", 5, 1),
           ("suzukiB", 3), ("dornhoff",), ("heis", (3, 2), (3, 2), 2),
           ("sl3", (3, 1)), ("es2", 3, "-"), ("gl3tower",), ("q8c3c3",)]


@pytest.mark.parametrize("key", BLOCKED, ids=_key_id)
def test_table_independent_of_row_blocks(key, monkeypatch):
    table = _group(key).mul
    n = len(table)
    for cells in (1, 7 * n):
        monkeypatch.setattr(cons, "BLOCK_CELLS", cells)
        assert np.array_equal(_group(key).mul, table), cells


@pytest.mark.parametrize("key", [("sl3", (3, 1)), ("suzukiA", 5, 1),
                                 ("heis", (3, 2), (3, 2), 2), ("gl3tower",)],
                         ids=_key_id)
def test_build_peak_memory_stays_near_the_table(key):
    # the blocks hold every temporary of the formulas, so the build
    # allocates little beyond the (n, n) table itself
    tracemalloc.start()
    try:
        inst = _make(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # built in its final dtype, not filled as int64 and narrowed after
    assert inst.group.mul.dtype == table_dtype(inst.group.n)
    assert peak <= 2 * inst.group.mul.nbytes
