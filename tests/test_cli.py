import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import orbitforge
from orbitforge import cli
from orbitforge import constructions as cons
from orbitforge.group_engine import import_cayley


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    return code, buf.getvalue()


def test_verify_line_json():
    code, text = run_cli(["verify-line", "4", "--n", "1", "--json"])
    assert code == 0
    rep = json.loads(text.strip())
    assert tuple(rep.keys()) == cli.REPORT_KEYS
    assert rep["status"] == "verified"
    assert sorted(rep["orbit_lengths"]) == [1, 1, 6]
    assert rep["omega"]["exact"] == 3


def test_verify_line_human():
    code, text = run_cli(["verify-line", "4", "--n", "1"])
    assert code == 0
    assert "table-line-4:n=1,eps_choice=0" in text
    assert "verified" in text


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-verb"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify-line", "9"])
    assert exc.value.code == 1
    # family params that fail validation inside the handler return 1
    code, _ = run_cli(["verify-line", "3", "--n", "4"])
    assert code == 1
    # partial iso flags: all of q, d, e or none
    code, _ = run_cli(["verify-iso", "--q", "3"])
    assert code == 1


def test_construct_and_cayley_roundtrip(tmp_path):
    path = str(tmp_path / "a4.g3o")
    code, text = run_cli(["construct", "line2", "--p", "2", "--r", "3",
                          "--export-cayley", path, "--json"])
    assert code == 0
    info = json.loads(text.strip())
    assert info["order"] == 12 and info["cayley_file"] == path
    G = import_cayley(path)
    ref = cons.line2_frobenius(2, 3, 1, 1).group
    assert np.array_equal(G.mul, ref.mul)


def test_export_cayley_verb(tmp_path):
    path = str(tmp_path / "q8.g3o")
    code, _ = run_cli(["export-cayley", "extraspecial2", "--k", "1",
                       "--eps", "-", "--out", path])
    assert code == 0
    with open(path, "rb") as fh:
        assert fh.read(4) == b"G3O1"
    assert import_cayley(path).n == 8


def test_orbits_verb():
    code, text = run_cli(["orbits", "heisenberg", "--p", "3", "--n", "1",
                          "--m", "2", "--b", "1", "--json"])
    assert code == 0
    rep = json.loads(text.strip())
    assert rep["omega"]["exact"] == 3
    assert sorted(rep["orbit_lengths"]) == [1, 2, 24]


def test_hering_single():
    code, text = run_cli(["hering-check", "gammaL1", "--p", "2",
                          "--m", "3", "--json"])
    assert code == 0
    rep = json.loads(text.strip())
    assert rep["status"] == "verified"
    assert rep["witnesses"]["transitive"] is True
    # missing params is a usage error
    code, _ = run_cli(["hering-check", "gammaL1"])
    assert code == 1


def test_cap_rejects_large_build():
    code, _ = run_cli(["construct", "sl3", "--q", "3", "--cap", "1000"])
    assert code == 1
    code, _ = run_cli(["construct", "line1", "--p", "2", "--n", "1"])
    assert code == 0


def test_cap_does_not_leak():
    # --cap binds one call only: the same order-729 build then succeeds
    code, _ = run_cli(["construct", "sl3", "--q", "3", "--cap", "1000"])
    assert code == 1
    code, text = run_cli(["construct", "sl3", "--q", "3", "--json"])
    assert code == 0
    assert json.loads(text)["order"] == 729


def test_thread_determinism():
    outs = []
    for t in ("1", "2"):
        code, text = run_cli(["verify-4orbit", "all", "--json",
                              "--threads", t])
        assert code == 0
        rows = [json.loads(ln) for ln in text.strip().splitlines()]
        for r in rows:
            r.pop("wall_ms")
        outs.append(rows)
    assert outs[0] == outs[1]


def test_report_schema_matches():
    sch = cli.report_schema()
    assert tuple(sch.keys()) == cli.REPORT_KEYS
    assert all(isinstance(v, str) and v for v in sch.values())


def test_module_entrypoint():
    # the child imports the same orbitforge as this process, installed or
    # put on sys.path by pytest's `pythonpath` setting
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitforge.cli", "verify-line", "4",
         "--n", "1", "--json"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout.strip())
    assert rep["status"] == "verified"
