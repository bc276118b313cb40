import argparse
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
from orbitforge import verify_suite as vs
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


# each family at its smallest parameters: the flags given, then the
# construct --json summary (pinned)
CONSTRUCT_PINS = [
    (["line1", "--p", "2", "--n", "1"],
     {"family": "line1", "params": {"p": 2, "n": 1}, "order": 4,
      "generators_given": 1,
      "meta": {"p": 2, "n_dim": 1, "r": 2, "m_dim": 1, "W_order": 2,
               "V_order": 2}}),
    (["line2", "--p", "2", "--r", "3"],
     {"family": "line2", "params": {"p": 2, "r": 3, "ell": 1, "d": 1},
      "order": 12, "generators_given": 2,
      "meta": {"p": 2, "r": 3, "ell": 1, "d": 1, "e": 3, "q": 4,
               "W_order": 4, "V_order": 3, "n_dim": 2, "m_dim": 1}}),
    (["suzukiA", "--n", "3"],
     {"family": "suzukiA", "params": {"n": 3, "theta": 1}, "order": 64,
      "generators_given": 2,
      "meta": {"p": 2, "q": 8, "theta_exp": 1, "W_order": 8, "V_order": 8,
               "n_dim": 3, "m_dim": 3, "r": 2}}),
    (["suzukiB", "--n", "1"],
     {"family": "suzukiB", "params": {"n": 1, "eps_choice": 0}, "order": 8,
      "generators_given": 1,
      "meta": {"p": 2, "q": 2, "epsilon": 2, "epsilon_choice": 0,
               "W_order": 2, "V_order": 4, "n_dim": 1, "m_dim": 2, "r": 2,
               "galois_dropped": True}}),
    (["dornhoff"],
     {"family": "dornhoff", "params": {}, "order": 512,
      "generators_given": 2,
      "meta": {"p": 2, "q": 8, "W_order": 8, "V_order": 64, "n_dim": 3,
               "m_dim": 6, "r": 2}}),
    (["sl3", "--q", "3"],
     {"family": "sl3", "params": {"q": 3}, "order": 729,
      "generators_given": 3,
      "meta": {"p": 3, "W_order": 27, "V_order": 27, "n_dim": 3,
               "m_dim": 3, "r": 3}}),
    (["heisenberg", "--p", "3", "--m", "2", "--n", "1", "--b", "1"],
     {"family": "heisenberg", "params": {"p": 3, "m": 2, "n": 1, "b": 1},
      "order": 27, "generators_given": 5,
      "meta": {"p": 3, "W_order": 3, "V_order": 9, "n_dim": 1, "m_dim": 2,
               "r": 3}}),
    (["gl3-tower"],
     {"family": "gl3-tower", "params": {}, "order": 2187,
      "generators_given": 15, "meta": {"p": 3, "q": 3}}),
    (["extraspecial2", "--k", "1", "--eps", "+"],
     {"family": "extraspecial2", "params": {"k": 1, "eps": "+"}, "order": 8,
      "generators_given": 1,
      "meta": {"p": 2, "eps": "+", "k": 1, "W_order": 2, "V_order": 4}}),
    (["q8-c3c3"],
     {"family": "q8-c3c3", "params": {}, "order": 72, "generators_given": 4,
      "meta": {}}),
]


@pytest.mark.parametrize("flags,want", CONSTRUCT_PINS,
                         ids=[f[0] for f, _ in CONSTRUCT_PINS])
def test_construct_every_family(flags, want):
    code, text = run_cli(["construct"] + flags + ["--json"])
    assert code == 0
    # byte-level: the key order of params is part of the report
    assert text == json.dumps(want) + "\n"


def test_parameter_errors_exit_1():
    code, _ = run_cli(["verify-line", "2", "--p", "2"])      # no --r
    assert code == 1
    code, _ = run_cli(["verify-line", "6", "--q", "4"])      # even q
    assert code == 1
    code, _ = run_cli(["construct", "heisenberg", "--p", "3", "--m", "3",
                       "--n", "1", "--b", "1"])               # m/b odd
    assert code == 1
    with pytest.raises(ValueError):
        vs.verify_table_line(1, {"p": 2, "n": 1, "q": 3})
    with pytest.raises(ValueError):                           # held at 1
        vs.verify_table_line(2, {"p": 2, "r": 3, "ell": 2})


@pytest.mark.parametrize("argv,flag", [
    (["construct", "line1", "--p", "2", "--n", "1", "--q", "7"], "--q"),
    (["export-cayley", "line1", "--p", "2", "--n", "1", "--k", "2",
      "--out", os.devnull], "--k"),
    (["orbits", "q8-c3c3", "--p", "3"], "--p"),
    (["verify-line", "1", "--p", "2", "--n", "1", "--theta", "1"],
     "--theta"),
    (["verify-line", "all", "--p", "3"], "--p"),
    (["verify-4orbit", "gl3-tower", "--k", "5"], "--k"),
    (["verify-4orbit", "q8-c3c3", "--q", "3"], "--q"),
    (["hering-check", "sp", "--d", "4", "--q", "3", "--p", "5"], "--p"),
    (["hering-check", "all", "--m", "2"], "--m"),
])
def test_stray_flags_exit_1(argv, flag, capsys):
    # a flag the chosen family, line, check or battery does not take is
    # refused by name, not dropped
    code, text = run_cli(argv)
    assert code == 1 and text == ""
    assert "does not take %s" % flag in capsys.readouterr().err


def test_verifiers_reject_unknown_keys():
    with pytest.raises(ValueError, match="gl3-tower: \\['k'\\]"):
        vs.verify_four_orbit("gl3-tower", {"q": 3, "k": 5})
    with pytest.raises(ValueError, match="sl2-5: \\['q'\\]"):
        vs.verify_hering("sl2-5", {"p": 11, "q": 3})


def test_every_choice_resolves_in_the_tables():
    verbs = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices

    def choices(verb):
        return [c for c in next(a for a in verbs[verb]._actions
                                if a.dest in ("family", "line")).choices
                if c != "all"]

    for verb in ("construct", "orbits", "export-cayley"):
        assert set(choices(verb)) == set(cons.FAMILIES), verb
    assert [int(t) for t in choices("verify-line")] == list(range(1, 8))
    assert all(vs.LINES[t][0] in cons.FAMILIES for t in range(1, 8))
    assert choices("verify-4orbit") == list(vs.FOUR_ORBIT)
    assert all(fam in cons.FAMILIES for fam, _, _ in vs.FOUR_ORBIT.values())


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


@pytest.mark.parametrize("argv, order, nbytes", [
    (["construct", "suzukiB", "--n", "3"], 512, 4 * 512 ** 2),
    (["construct", "line1", "--p", "2", "--n", "4"], 256, 8 * 256 ** 2),
    (["verify-line", "1", "--p", "3", "--n", "2"], 81, 8 * 81 ** 2),
    (["verify-4orbit", "q8-c3c3"], 72, 8 * 72 ** 2),
    (["orbits", "q8-c3c3"], 72, 8 * 72 ** 2),
], ids=["int32-512", "int64-256", "verify-81", "verify-4orbit-q8",
        "orbits-q8"])
def test_cap_counts_real_table_bytes(argv, order, nbytes, capsys):
    """--cap BYTES admits a table of exactly BYTES bytes in its own
    dtype, and one byte less refuses it, naming the order and bytes."""
    assert cons.table_bytes(order) == nbytes
    code, _ = run_cli(argv + ["--cap", str(nbytes)])
    assert code == 0
    capsys.readouterr()
    code, text = run_cli(argv + ["--cap", str(nbytes - 1)])
    assert code == 1 and text == ""
    assert ("group order %d needs %d table bytes, above the cap of %d "
            "table bytes" % (order, nbytes, nbytes - 1)
            in capsys.readouterr().err)


def test_cap_help_names_the_default_table_bytes():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    text = sub.choices["construct"].format_help()
    assert "default %d bytes, order <= %d" % (
        4 * cons.SIZE_CAP ** 2, cons.SIZE_CAP) in " ".join(text.split())


# reports of code no frozen answer covers: the line-1 GL kit, Sp(4, 3)
# and GammaL(1, 4096), whose field has no tables (wall_ms stripped)
REPORT_PINS = [
    (["verify-line", "1", "--p", "3", "--n", "2"],
     '{"claim_id": "table-line-1:p=3,n=2", "anchor": "table-line-1", '
     '"params": {"p": 3, "n": 2}, "status": "verified", "omega": '
     '{"lower": 3, "upper": 3, "exact": 3}, "orbit_lengths": [1, 8, '
     '72], "orbit_orders": [1, 3, 9], "subgroup_orders": {"Z": 81, '
     '"Gprime": 1, "Phi": 9, "N": 9}, "induced": {"A_order": 48, '
     '"B_order": 48, "A_transitive": true, "B_transitive": true}, '
     '"witnesses": {"family": "line1", "m_dim": 2, "n_dim": 2, '
     '"side_conditions": {"orbit_lengths_formula": true, "N_order": '
     'true, "A_transitive": true, "B_transitive": true, '
     '"N_is_frattini": true, "m_ge_n": true, '
     '"quotient_action_determines_N_action": true}}}'),
    (["hering-check", "sp", "--d", "4", "--q", "3"],
     '{"claim_id": "hering:sp:d=4,q=3", "anchor": "hering-sp", '
     '"params": {"d": 4, "q": 3}, "status": "verified", "omega": '
     'null, "orbit_lengths": null, "orbit_orders": null, '
     '"subgroup_orders": null, "induced": null, "witnesses": '
     '{"closure_order": 51840, "residual_order": 51840, "perfect": '
     'true, "nonzero_vectors": 80, "transitive": true}}'),
    (["hering-check", "gammaL1", "--p", "2", "--m", "12"],
     '{"claim_id": "hering:gammaL1:p=2,m=12", "anchor": '
     '"hering-gammaL1", "params": {"p": 2, "m": 12}, "status": '
     '"verified", "omega": null, "orbit_lengths": null, '
     '"orbit_orders": null, "subgroup_orders": null, "induced": null, '
     '"witnesses": {"nonzero_vectors": 4095, "transitive": true}}'),
]


@pytest.mark.parametrize("argv,want", REPORT_PINS,
                         ids=[" ".join(a[:2]) for a, _ in REPORT_PINS])
def test_report_pinned(argv, want):
    code, text = run_cli(argv + ["--json"])
    assert code == 0
    rep = json.loads(text)
    rep.pop("wall_ms")
    assert json.dumps(rep) == want


@pytest.mark.parametrize("argv", [
    ["construct", "line2", "--p", "4091", "--r", "2"],    # GF(4091)
    ["construct", "line2", "--p", "47", "--r", "3"],      # GF(47^2)
    ["verify-line", "2", "--p", "4091", "--r", "2"],
])
def test_field_without_tables_exits_1(argv, capsys):
    code, text = run_cli(argv)
    assert code == 1 and text == ""
    assert "exceeds TABLE_CAP 2048" in capsys.readouterr().err


def _fresh(args):
    """Run python with args in a child process.  The child imports the
    same orbitforge as this process, installed or put on sys.path by
    pytest's `pythonpath` setting."""
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, timeout=300, env=env)


def _fresh_cli(argv):
    return _fresh(["-m", "orbitforge.cli"] + argv)


def test_module_entrypoint():
    proc = _fresh_cli(["verify-line", "4", "--n", "1", "--json"])
    assert proc.returncode == 0
    rep = json.loads(proc.stdout.strip())
    assert rep["status"] == "verified"


def test_calls_in_one_process_match_fresh_processes():
    # one call must not change the next: the parser is built once per
    # process, and each report equals the same call's run alone
    argvs = [["verify-line", "2", "--p", "2", "--r", "3", "--json"],
             ["hering-check", "sl", "--d", "3", "--q", "3", "--json"],
             ["verify-line", "1", "--p", "2", "--n", "1", "--json"]]
    in_process = [run_cli(argv) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    for argv, (code, text) in zip(argvs, in_process):
        proc = _fresh_cli(argv)
        assert code == proc.returncode == 0
        shared, alone = json.loads(text), json.loads(proc.stdout)
        shared.pop("wall_ms")
        alone.pop("wall_ms")
        assert shared == alone, argv


def _fresh_python(script):
    """stdout of a script run by _fresh, which must succeed."""
    proc = _fresh(["-c", script])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_claims_never_load_numpy_ma():
    # numpy 2's plain np.unique (and np.intersect1d without
    # assume_unique) asks np.ma.is_masked, which imports numpy.ma on
    # first use and sets up a hash table on every call; no claim path
    # takes that detour
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if _fresh_python(probe) == "True\n":
        pytest.skip("import numpy alone loads numpy.ma")
    # every verb that makes a claim, each battery whole (under 1 s)
    argvs = [["verify-line", "all"], ["verify-4orbit", "all"],
             ["verify-iso"], ["verify-irredundant"], ["hering-check", "all"],
             ["orbits", "line2", "--p", "2", "--r", "3"]]
    script = "\n".join([
        "import io, sys",
        "from orbitforge import cli",
        "for argv in %r:" % argvs,
        "    assert cli.run(argv + ['--json'], out=io.StringIO()) == 0, argv",
        "print('numpy.ma' in sys.modules)",
    ])
    assert _fresh_python(script) == "False\n"
