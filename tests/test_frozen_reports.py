"""Every claim report of the table-battery, iso-search and linear-certs
workloads, with wall_ms stripped, and every aut-oracle row equals its
frozen line in perfbench/answers/ (read only)."""

import json
import os

import pytest

from orbitforge import constructions as cons
from orbitforge import orbit_machine as om
from orbitforge import verify_suite as vs
from test_permgroup import ORACLE_GROUPS

ANSWERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "answers")


def _frozen(workload):
    with open(os.path.join(ANSWERS, workload + ".jsonl")) as fh:
        return [line.rstrip("\n") for line in fh]


FROZEN = {json.loads(line)["claim_id"]: line
          for line in _frozen("table-battery")}
CLI_FROZEN = _frozen("iso-search") + _frozen("linear-certs")
ORACLE_FROZEN = {json.loads(line)["claim_id"]: line
                 for line in _frozen("aut-oracle")}
# aut-oracle takes the holomorph rank up to this order
HOLOMORPH_MAX_ORDER = 64

JOBS = ([("line", line, prm) for line, prm in vs.table_battery()]
        + [("four", fam, prm) for fam, prm in vs.four_orbit_battery()])


def test_every_frozen_report_has_a_job():
    assert len(JOBS) == len(FROZEN) == 21
    assert len(CLI_FROZEN) == 12


def _job_id(job):
    kind, what, prm = job
    return "%s-%s-%s" % (kind, what, ",".join("%s=%s" % kv
                                             for kv in prm.items()))


@pytest.mark.parametrize("job", JOBS, ids=_job_id)
def test_report_matches_frozen(job):
    rep = dict(vs.run_job(job))
    rep.pop("wall_ms", None)
    assert json.dumps(rep) == FROZEN[rep["claim_id"]]


def _job_of(frozen):
    """The run_job job that rebuilds a frozen line, from its anchor and
    params."""
    anchor, prm = frozen["anchor"], frozen["params"]
    if anchor == "gfgf-iso":
        return ("gfgf", prm["q"], prm["d"], prm["e"])
    if anchor == "irredundant-catalog":
        return ("irredundant", prm["exhaustive"])
    assert anchor.startswith("hering-")
    return ("hering", anchor[len("hering-"):], prm)


@pytest.mark.parametrize("line", CLI_FROZEN,
                         ids=[json.loads(line)["claim_id"]
                              for line in CLI_FROZEN])
def test_cli_report_matches_frozen(line):
    rep = dict(vs.run_job(_job_of(json.loads(line))))
    rep.pop("wall_ms", None)
    assert json.dumps(rep) == line


def test_every_oracle_group_has_a_frozen_row():
    assert sorted(ORACLE_FROZEN) == sorted("aut-oracle:" + tag
                                           for tag in ORACLE_GROUPS)


@pytest.mark.parametrize("tag", sorted(ORACLE_GROUPS))
def test_oracle_row_matches_frozen(tag):
    """The aut-oracle row, rebuilt as perfbench's child builds it: Aut(G)
    and its orbits, omega from the instance's acts and CAut (from Aut(G)
    itself for q8_on_c3c3), and the holomorph rank up to order 64.  The
    two line2 groups and q8_on_c3c3 take the subgroup lattice."""
    ctor, args = ORACLE_GROUPS[tag]
    inst = None if ctor is None else getattr(cons, ctor)(*args)
    G = vs.q8_on_c3c3() if inst is None else inst.group
    aut = om.brute_force_aut(G)
    if inst is None:
        omega = om.omega_exact(G, aut, inner=False)
    else:
        try:
            caut = om.central_automorphisms(G)[0]
        except ValueError:
            caut = None
        omega = om.omega_exact(G, inst.acts, caut=caut)
    bounds = {"lower": int(omega["lower"]), "upper": int(omega["upper"])}
    if omega["exact"] is not None:
        bounds["exact"] = int(omega["exact"])
    holo = om.holomorph_rank(G, aut) if G.n <= HOLOMORPH_MAX_ORDER else None
    rep = {"claim_id": "aut-oracle:" + tag, "order": int(G.n),
           "aut_order": len(aut),
           "aut_orbits": int(om.orbits(G, aut)["count"]), "omega": bounds,
           "holomorph_rank": None if holo is None else int(holo)}
    assert json.dumps(rep) == ORACLE_FROZEN[rep["claim_id"]]
