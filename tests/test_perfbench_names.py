"""perfbench reaches into orbitforge by name: spans.py wraps functions
it looks up by module and attribute, and child.py and workloads.py call
functions, read a flag and run CLI command lines.  A lookup that stops
resolving silently zeroes a per-layer metric, and a call that stops
resolving breaks the benchmark, so both are pinned here.  The modules
are read as data; no tracer is installed."""

import importlib
import inspect
import os
import sys

import pytest

from orbitforge import _kernels, cli
from orbitforge import constructions as cons
from orbitforge import orbit_machine as om
from orbitforge import verify_suite as vs

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

# spanned names that no longer exist in orbitforge
DEAD_SPANS = {"group_engine.all_automorphisms", "hering.matrix_closure",
              "_kernels.hom_table_ok", "_kernels.hom_ok_batch"}


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        yield (importlib.import_module("spans"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(PERFBENCH)


def _resolve(mod, attr):
    """What Tracer.install would wrap for (mod, attr), or None."""
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module("orbitforge." + mod)
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return getattr(owner, name, None)


def test_spanned_names_resolve(perfbench):
    spans, _ = perfbench
    found, dead = [], set()
    for mod, attr, _, _ in spans.SPANNED:
        fn = _resolve(mod, attr)
        if fn is None:
            dead.add("%s.%s" % (mod, attr))
        else:
            assert callable(fn), (mod, attr)
            found.append((mod, attr))
    assert dead == DEAD_SPANS
    assert len(found) == 32


def test_child_calls_resolve(perfbench):
    """The calls of child.py, in the shapes it makes them."""
    _, workloads = perfbench
    assert _kernels.HAS_NUMBA is False
    inspect.signature(cli.run).bind(["verify-iso"], out=None)
    for fn in (om.brute_force_aut, om.central_automorphisms):
        inspect.signature(fn).bind(None)
    for fn in (om.orbits, om.holomorph_rank):
        inspect.signature(fn).bind(None, None)
    inspect.signature(om.omega_exact).bind(None, None, inner=False)
    inspect.signature(om.omega_exact).bind(None, None, caut=None)
    inspect.signature(vs.q8_on_c3c3).bind()
    for tag, (ctor, args, _) in workloads.ORACLE_GROUPS.items():
        if ctor is not None:
            inspect.signature(getattr(cons, ctor)).bind(*args)


def test_workload_command_lines_parse(perfbench):
    _, workloads = perfbench
    parser = cli.build_parser()
    for claims in workloads.WORKLOADS.values():
        for cid, kind, arg in claims:
            if kind == "cli":
                parser.parse_args(arg)
