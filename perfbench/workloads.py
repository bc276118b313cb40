"""The four claim batteries and their known answers.

A claim is ``(claim_id, kind, arg)``:

- kind ``"cli"``: ``arg`` is the argv of one single-claim verb, run
  through ``orbitforge.cli.run``; its one JSON report is the verdict.
- kind ``"oracle"``: ``arg`` names a family instance (see
  ``ORACLE_GROUPS``); the claim enumerates Aut by brute force and checks
  that the orbit count, ``omega_exact`` and (order <= 64) the holomorph
  rank all equal the catalog omega.

The answers below come from the catalog and from closed formulas; the
program never recomputes them.  ``answers/<workload>.jsonl`` additionally
freezes every report with ``wall_ms`` stripped, so a report that changes
in any field counts as a failed claim.
"""


def _cli(*argv):
    return list(argv) + ["--json"]


TABLE_LINES = [
    ("table-line-1:p=2,n=1", _cli("verify-line", "1", "--p", "2", "--n", "1")),
    ("table-line-1:p=3,n=1", _cli("verify-line", "1", "--p", "3", "--n", "1")),
    ("table-line-1:p=2,n=2", _cli("verify-line", "1", "--p", "2", "--n", "2")),
    ("table-line-2:p=2,r=3", _cli("verify-line", "2", "--p", "2", "--r", "3")),
    ("table-line-2:p=3,r=2", _cli("verify-line", "2", "--p", "3", "--r", "2")),
    ("table-line-2:p=2,r=5", _cli("verify-line", "2", "--p", "2", "--r", "5")),
    ("table-line-3:n=3,theta=1",
     _cli("verify-line", "3", "--n", "3", "--theta", "1")),
    ("table-line-3:n=5,theta=1",
     _cli("verify-line", "3", "--n", "5", "--theta", "1")),
    ("table-line-4:n=1,eps_choice=0", _cli("verify-line", "4", "--n", "1")),
    ("table-line-4:n=2,eps_choice=0", _cli("verify-line", "4", "--n", "2")),
    ("table-line-4:n=3,eps_choice=0", _cli("verify-line", "4", "--n", "3")),
    ("table-line-5", _cli("verify-line", "5")),
    ("table-line-6:q=3", _cli("verify-line", "6", "--q", "3")),
    ("table-line-7:p=3,m=2,n=1,b=1",
     _cli("verify-line", "7", "--p", "3", "--m", "2", "--n", "1", "--b", "1")),
    ("table-line-7:p=5,m=2,n=1,b=1",
     _cli("verify-line", "7", "--p", "5", "--m", "2", "--n", "1", "--b", "1")),
    ("table-line-7:p=3,m=4,n=2,b=2",
     _cli("verify-line", "7", "--p", "3", "--m", "4", "--n", "2", "--b", "2")),
]

FOUR_ORBIT = [
    ("four-orbit:gl3-tower:q=3", _cli("verify-4orbit", "gl3-tower", "--q", "3")),
    ("four-orbit:extraspecial2:k=2,eps=+",
     _cli("verify-4orbit", "extraspecial2", "--k", "2", "--eps", "+")),
    ("four-orbit:extraspecial2:k=2,eps=-",
     _cli("verify-4orbit", "extraspecial2", "--k", "2", "--eps", "-")),
    ("four-orbit:line2-frobenius:p=2,r=3,ell=2,d=1",
     _cli("verify-4orbit", "line2-frobenius", "--p", "2", "--r", "3",
          "--ell", "2", "--d", "1")),
    ("four-orbit:q8-c3c3", _cli("verify-4orbit", "q8-c3c3")),
]

ISO = [
    ("gfgf-iso:q=3,d=2,e=1", _cli("verify-iso", "--q", "3", "--d", "2", "--e", "1")),
    ("gfgf-iso:q=3,d=4,e=1", _cli("verify-iso", "--q", "3", "--d", "4", "--e", "1")),
    ("gfgf-iso:q=3,d=2,e=2", _cli("verify-iso", "--q", "3", "--d", "2", "--e", "2")),
    ("irredundant-catalog", _cli("verify-irredundant")),
]

LINEAR = [
    ("hering:gammaL1:p=2,m=3", _cli("hering-check", "gammaL1", "--p", "2", "--m", "3")),
    ("hering:gammaL1:p=2,m=4", _cli("hering-check", "gammaL1", "--p", "2", "--m", "4")),
    ("hering:gammaL1:p=2,m=6", _cli("hering-check", "gammaL1", "--p", "2", "--m", "6")),
    ("hering:gammaL1:p=3,m=2", _cli("hering-check", "gammaL1", "--p", "3", "--m", "2")),
    ("hering:sl:d=3,q=3", _cli("hering-check", "sl", "--d", "3", "--q", "3")),
    ("hering:sl2-5:p=11", _cli("hering-check", "sl2-5", "--p", "11")),
    ("hering:sp:d=2,q=19", _cli("hering-check", "sp", "--d", "2", "--q", "19")),
    ("hering:sl:d=3,q=5", _cli("hering-check", "sl", "--d", "3", "--q", "5")),
]

# tag -> (constructor in orbitforge.constructions, its arguments, catalog
# omega); the q8 group has no family constructor and is built by
# verify_suite.q8_on_c3c3.
ORACLE_GROUPS = {
    "line1(2,1)": ("line1_abelian", (2, 1), 3),
    "line1(3,1)": ("line1_abelian", (3, 1), 3),
    "line1(2,2)": ("line1_abelian", (2, 2), 3),
    "line1(5,1)": ("line1_abelian", (5, 1), 3),
    "line1(2,3)": ("line1_abelian", (2, 3), 3),
    "line2(2,3)": ("line2_frobenius", (2, 3, 1, 1), 3),
    "line2(3,2)": ("line2_frobenius", (3, 2, 1, 1), 3),
    "line2(2,5)": ("line2_frobenius", (2, 5, 1, 1), 3),
    "line3(3,1)": ("suzuki_A", (3, 1), 3),
    "line3(3,2)": ("suzuki_A", (3, 2), 3),
    "line4(1)": ("suzuki_B", (1,), 3),
    "line4(2)": ("suzuki_B", (2,), 3),
    "line7(3,2,1,1)": ("heisenberg_trace", ((3, 1), (3, 1), 2), 3),
    "line7(5,2,1,1)": ("heisenberg_trace", ((5, 1), (5, 1), 2), 3),
    "es2(1,+)": ("extraspecial2", (1, "+"), 4),
    "es2(2,+)": ("extraspecial2", (2, "+"), 4),
    "es2(2,-)": ("extraspecial2", (2, "-"), 4),
    "q8_on_c3c3": (None, (), 4),
}
HOLOMORPH_MAX_ORDER = 64

WORKLOADS = {
    "table-battery": [(cid, "cli", argv) for cid, argv in TABLE_LINES + FOUR_ORBIT],
    "iso-search": [(cid, "cli", argv) for cid, argv in ISO],
    "aut-oracle": [("aut-oracle:" + tag, "oracle", tag) for tag in ORACLE_GROUPS],
    "linear-certs": [(cid, "cli", argv) for cid, argv in LINEAR],
}

# orbit lengths pinned by acceptance criterion 5
FOUR_ORBIT_LENGTHS = {
    "four-orbit:gl3-tower:q=3": [1, 2, 78, 2106],
    "four-orbit:extraspecial2:k=2,eps=+": [1, 1, 12, 18],
    "four-orbit:extraspecial2:k=2,eps=-": [1, 1, 10, 20],
    "four-orbit:q8-c3c3": [1, 8, 9, 54],
    "four-orbit:line2-frobenius:p=2,r=3,ell=2,d=1": [1, 63, 128, 384],
}

# |SL(3,3)| = 3^3 (3^2-1)(3^3-1); |Sp(2,19)| = |SL(2,19)| = 19 (19^2-1);
# |SL(3,5)| = 5^3 (5^2-1)(5^3-1); SL(2,5) has order 120
CLOSURE_ORDERS = {
    "hering:sl:d=3,q=3": 5616,
    "hering:sp:d=2,q=19": 6840,
    "hering:sl:d=3,q=5": 372000,
}
SL2_5_ORDER = 120

IRREDUNDANT_OUTCOMES = {
    "twist-vs-inverse-twist-64": "isomorphic",
    "epsilon-independence-64": "isomorphic",
    "squaring-pair-positive-control": "found",
    "norm-512-vs-trace-512": "none",
}


def check_semantics(rep):
    """Problems of one stripped report against the known answers; an
    empty list means the claim agrees with them."""
    cid = rep.get("claim_id", "")
    bad = []

    def want(cond, what):
        if not cond:
            bad.append(what)

    if cid.startswith("aut-oracle:"):
        omega = ORACLE_GROUPS[cid.split(":", 1)[1]][2]
        want(rep["aut_orbits"] == omega, "brute-force orbit count != catalog omega")
        want(rep["omega"].get("exact") == omega, "omega_exact != catalog omega")
        if rep["order"] <= HOLOMORPH_MAX_ORDER:
            want(rep["holomorph_rank"] == omega, "holomorph rank != catalog omega")
        return bad
    want(rep.get("status") == "verified", "status %r" % rep.get("status"))
    wit = rep.get("witnesses") or {}
    if cid.startswith("table-line-"):
        want(rep["omega"].get("exact") == 3, "omega is not 3")
        want(all(wit.get("side_conditions", {}).values()), "side condition fails")
    elif cid.startswith("four-orbit:"):
        want(rep["omega"].get("exact") == 4, "omega is not 4")
        want(sorted(rep["orbit_lengths"]) == FOUR_ORBIT_LENGTHS[cid],
             "orbit lengths differ from the pinned ones")
    elif cid.startswith("gfgf-iso:"):
        want(wit.get("bijective") and wit.get("homomorphism"),
             "map is not a bijective homomorphism")
        want(wit.get("oracle") in ("independent-search-agrees",
                                   "skipped-above-cap"), "oracle disagrees")
    elif cid == "irredundant-catalog":
        got = {c["name"]: (c["observed"], c["ok"]) for c in wit.get("checks", [])}
        for name, outcome in IRREDUNDANT_OUTCOMES.items():
            want(got.get(name) == (outcome, True), "%s is not %s" % (name, outcome))
    elif cid.startswith("hering:"):
        want(wit.get("transitive") is True, "not transitive")
        if cid in CLOSURE_ORDERS:
            want(wit.get("closure_order") == CLOSURE_ORDERS[cid], "closure order")
        if cid.startswith("hering:sp:"):
            want(wit.get("perfect") is True and
                 wit.get("residual_order") == CLOSURE_ORDERS[cid], "residual")
        if cid.startswith("hering:sl2-5:"):
            want(wit.get("order") == SL2_5_ORDER, "order is not 120")
    else:
        bad.append("unknown claim")
    return bad
