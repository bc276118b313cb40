"""Every claim report of the table-battery, iso-search and linear-certs
workloads, with wall_ms stripped, equals its frozen line in
perfbench/answers/ (read only)."""

import json
import os

import pytest

from orbitforge import verify_suite as vs

ANSWERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "answers")


def _frozen(workload):
    with open(os.path.join(ANSWERS, workload + ".jsonl")) as fh:
        return [line.rstrip("\n") for line in fh]


FROZEN = {json.loads(line)["claim_id"]: line
          for line in _frozen("table-battery")}
CLI_FROZEN = _frozen("iso-search") + _frozen("linear-certs")

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
