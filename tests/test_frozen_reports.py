"""Every table-line and four-orbit report, with wall_ms stripped, equals
its frozen line in perfbench/answers/table-battery.jsonl (read only)."""

import json
import os

import pytest

from orbitforge import verify_suite as vs

ANSWERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "answers", "table-battery.jsonl")

with open(ANSWERS) as fh:
    FROZEN = {json.loads(line)["claim_id"]: line.rstrip("\n") for line in fh}

JOBS = ([("line", line, prm) for line, prm in vs.table_battery()]
        + [("four", fam, prm) for fam, prm in vs.four_orbit_battery()])


def test_every_frozen_report_has_a_job():
    assert len(JOBS) == len(FROZEN) == 21


def _job_id(job):
    kind, what, prm = job
    return "%s-%s-%s" % (kind, what, ",".join("%s=%s" % kv
                                             for kv in prm.items()))


@pytest.mark.parametrize("job", JOBS, ids=_job_id)
def test_report_matches_frozen(job):
    rep = dict(vs.run_job(job))
    rep.pop("wall_ms", None)
    assert json.dumps(rep) == FROZEN[rep["claim_id"]]
