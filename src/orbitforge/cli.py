"""Command-line front end: construct families, print orbit structure,
run claim verifiers, and export Cayley tables.

Exit codes: 0 all claims verified, 1 usage or parameter error, 2 at
least one claim refuted, 3 at least one claim inconclusive or a search
hit its cap."""

import argparse
import functools
import json
import sys

from . import constructions as cons
from . import verify_suite as vs
from .group_engine import export_cayley
from .orbit_machine import omega_exact

REPORT_KEYS = ("claim_id", "anchor", "params", "status", "omega",
               "orbit_lengths", "orbit_orders", "subgroup_orders",
               "induced", "witnesses", "wall_ms")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    refuted claims, so downgrade usage errors to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _given(args, names, choice):
    """The flags among names that the command line set, in that order;
    a set parameter flag outside names is an error that names it."""
    stray = [k for k in args.param_flags
             if k not in names and getattr(args, k) is not None]
    if stray:
        raise ValueError("%s %s does not take --%s"
                         % (args.verb, choice, stray[0]))
    return {k: getattr(args, k) for k in names
            if getattr(args, k) is not None}


def _union(name_lists):
    return tuple(dict.fromkeys(k for names in name_lists for k in names))


def _build_instance(args):
    names = cons.family_params(args.family)
    return cons.build(args.family, _given(args, names, args.family),
                      _size_cap(args))


def _add_common(sp):
    sp.add_argument("--json", action="store_true",
                    help="emit JSON lines instead of human-readable rows")
    sp.add_argument("--cap", type=int, metavar="BYTES", default=None,
                    help="Cayley table memory budget per group, "
                         "counted in the table's own cell width "
                         "(default %d bytes, order <= %d)"
                         % (cons.table_bytes(cons.SIZE_CAP), cons.SIZE_CAP))


def _add_param_flags(sp, names):
    sp.set_defaults(param_flags=names)
    helptext = {
        "p": "prime", "n": "layer dimension or size index",
        "r": "prime acting order", "q": "field size", "m": "top dimension",
        "b": "middle field degree", "theta": "Galois twist exponent",
        "eps_choice": "norm-form variant index", "ell": "acting power",
        "d": "vector dimension", "k": "field degree", "e": "tower step",
    }
    for k in names:
        if k == "eps":
            sp.add_argument("--eps", choices=("+", "-"),
                            help="quadratic form type")
        else:
            sp.add_argument("--" + k, type=int, help=helptext.get(k, ""))


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and shared after it;
    parse_args leaves a parser unchanged, so one call cannot alter the
    next."""
    ap = _Parser(prog="orbitforge",
                 description="construct and verify finite groups with "
                             "few automorphism orbits")
    sub = ap.add_subparsers(dest="verb", required=True, metavar="VERB")

    families = sorted(cons.FAMILIES)
    family_flags = _union(cons.family_params(f) for f in families)
    sp = sub.add_parser("construct", help="build one family instance")
    sp.add_argument("family", choices=families)
    _add_param_flags(sp, family_flags)
    sp.add_argument("--export-cayley", metavar="PATH", default=None,
                    help="also write the Cayley table to PATH")
    _add_common(sp)

    sp = sub.add_parser("orbits", help="orbit structure of one instance")
    sp.add_argument("family", choices=families)
    _add_param_flags(sp, family_flags)
    _add_common(sp)

    sp = sub.add_parser("verify-line", help="three-orbit claim for a "
                                            "catalog line")
    sp.add_argument("line", choices=[str(t) for t in vs.LINES] + ["all"])
    _add_param_flags(sp, _union(vs.line_params(t) for t in vs.LINES))
    _add_common(sp)

    sp = sub.add_parser("verify-iso", help="explicit isomorphism between "
                                           "the two subfield models "
                                           "(battery unless --q/--d/--e)")
    _add_param_flags(sp, ("q", "d", "e"))
    _add_common(sp)

    sp = sub.add_parser("verify-irredundant",
                        help="catalog irredundancy checks")
    sp.add_argument("--exhaustive", action="store_true",
                    help="include the order-1024 twist pair")
    _add_common(sp)

    sp = sub.add_parser("verify-4orbit", help="four-orbit claims")
    sp.add_argument("family", choices=list(vs.FOUR_ORBIT) + ["all"])
    _add_param_flags(sp, _union(prm for _, prm, _ in
                                 vs.FOUR_ORBIT.values()))
    _add_common(sp)

    sp = sub.add_parser("hering-check", help="transitive linear group "
                                             "certificates")
    sp.add_argument("kind", choices=list(vs.HERING_PARAMS) + ["all"])
    _add_param_flags(sp, _union(vs.HERING_PARAMS.values()))
    _add_common(sp)

    sp = sub.add_parser("export-cayley", help="write a Cayley table file")
    sp.add_argument("family", choices=families)
    _add_param_flags(sp, family_flags)
    sp.add_argument("--out", metavar="PATH", required=True)
    _add_common(sp)

    return ap


def _size_cap(args):
    """Table-byte cap from --cap BYTES, or None for the default."""
    cap = getattr(args, "cap", None)
    if cap is None:
        return None
    if cap < 8:
        raise ValueError("--cap must be at least 8 bytes")
    return cap


def _run_jobs(jobs, args):
    cap = _size_cap(args)
    return sorted((vs.run_job(j, cap) for j in jobs),
                  key=lambda r: r["claim_id"])


def _detail(rep):
    """Compact human-readable summary column for one claim row."""
    om = rep["omega"]
    if om is not None:
        omtxt = str(om["exact"]) if "exact" in om else \
            "%d..%d" % (om["lower"], om["upper"])
        return "omega=%-5s lengths=%s" % (omtxt, rep["orbit_lengths"])
    wit = rep.get("witnesses") or {}
    if "transitive" in wit:
        bits = ["transitive: %s" % str(wit["transitive"]).lower()]
        for k in ("closure_order", "residual_order", "perfect", "order"):
            if k in wit:
                bits.append("%s=%s" % (k, wit[k]))
        return "  ".join(bits)
    if "homomorphism" in wit:
        return "order=%s bijective=%s homomorphism=%s oracle=%s" % (
            wit["order"], wit["bijective"], wit["homomorphism"],
            wit["oracle"])
    if "checks" in wit:
        good = sum(1 for c in wit["checks"] if c["ok"])
        return "checks %d/%d ok" % (good, len(wit["checks"]))
    return "-"


def _emit_reports(reports, as_json, out):
    counts = {"verified": 0, "refuted": 0, "inconclusive": 0}
    for rep in reports:
        counts[rep["status"]] += 1
        if as_json:
            out.write(json.dumps(rep) + "\n")
        else:
            out.write("%-46s %-13s %s  %dms\n"
                      % (rep["claim_id"], rep["status"], _detail(rep),
                         rep["wall_ms"]))
    if not as_json and len(reports) > 1:
        out.write("claims: %d verified, %d refuted, %d inconclusive\n"
                  % (counts["verified"], counts["refuted"],
                     counts["inconclusive"]))
    if counts["refuted"]:
        return 2
    if counts["inconclusive"]:
        return 3
    return 0


def _instance_summary(inst, family, prm):
    return {
        "family": family,
        "params": prm,
        "order": inst.group.n,
        "generators_given": len(inst.acts.perms),
        "meta": vs._py(inst.meta),
    }


def _do_construct(args, out):
    inst, prm = _build_instance(args)
    info = _instance_summary(inst, args.family, prm)
    path = getattr(args, "export_cayley", None)
    if path:
        export_cayley(inst.group, path)
        info["cayley_file"] = path
    if args.json:
        out.write(json.dumps(info) + "\n")
    else:
        name = args.family + (" %s" % prm if prm else "")
        out.write("%s: order %d\n" % (name, inst.group.n))
        if path:
            out.write("wrote %s (%d entries)\n"
                      % (path, inst.group.n ** 2))
    return 0


def _do_orbits(args, out):
    inst, prm = _build_instance(args)
    G = inst.group
    om = omega_exact(G, inst.acts, caut=vs._caut_or_none(G))
    info = {
        "family": args.family,
        "params": prm,
        "order": G.n,
        "omega": vs._omega_dict(om),
        "orbit_lengths": om["report"]["lengths"],
        "orbit_orders": om["report"]["orders"],
    }
    if args.json:
        out.write(json.dumps(vs._py(info)) + "\n")
    else:
        name = args.family + (" %s" % prm if prm else "")
        out.write("%s: order %d, omega %s\n" % (name, G.n, info["omega"]))
        out.write("orbit lengths %s, element orders %s\n"
                  % (info["orbit_lengths"], info["orbit_orders"]))
    return 0


def _do_verify_line(args, out):
    if args.line == "all":
        _given(args, (), "all")
        jobs = [("line", line, prm) for line, prm in vs.table_battery()]
    else:
        line = int(args.line)
        jobs = [("line", line, _given(args, vs.line_params(line), args.line))]
    return _emit_reports(_run_jobs(jobs, args), args.json, out)


def _do_verify_iso(args, out):
    explicit = [getattr(args, k) for k in ("q", "d", "e")]
    if any(v is not None for v in explicit):
        if None in explicit:
            raise ValueError("give all of --q, --d, --e or none")
        jobs = [("gfgf", *explicit)]
    else:
        jobs = [("gfgf", *t) for t in vs.gfgf_battery()]
    return _emit_reports(_run_jobs(jobs, args), args.json, out)


def _do_verify_irredundant(args, out):
    jobs = [("irredundant", bool(args.exhaustive))]
    return _emit_reports(_run_jobs(jobs, args), args.json, out)


def _do_verify_4orbit(args, out):
    if args.family == "all":
        _given(args, (), "all")
        jobs = [("four", fam, prm) for fam, prm in vs.four_orbit_battery()]
    else:
        defaults = vs.FOUR_ORBIT[args.family][1]
        jobs = [("four", args.family, _given(args, defaults, args.family))]
    return _emit_reports(_run_jobs(jobs, args), args.json, out)


def _do_hering(args, out):
    if args.kind == "all":
        _given(args, (), "all")
        jobs = [("hering", kind, prm) for kind, prm in vs.hering_battery()]
    else:
        prm = _given(args, vs.HERING_PARAMS[args.kind], args.kind)
        jobs = [("hering", args.kind, prm)]
    return _emit_reports(_run_jobs(jobs, args), args.json, out)


def _do_export(args, out):
    inst, prm = _build_instance(args)
    export_cayley(inst.group, args.out)
    if args.json:
        out.write(json.dumps({"family": args.family, "params": prm,
                              "order": inst.group.n,
                              "cayley_file": args.out}) + "\n")
    else:
        out.write("wrote %s: order %d\n" % (args.out, inst.group.n))
    return 0


_HANDLERS = {
    "construct": _do_construct,
    "orbits": _do_orbits,
    "verify-line": _do_verify_line,
    "verify-iso": _do_verify_iso,
    "verify-irredundant": _do_verify_irredundant,
    "verify-4orbit": _do_verify_4orbit,
    "hering-check": _do_hering,
    "export-cayley": _do_export,
}


def run(argv, out=None):
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _size_cap(args)  # reject a bad --cap before any work
        return _HANDLERS[args.verb](args, out)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except RuntimeError as exc:
        sys.stderr.write("inconclusive: %s\n" % exc)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
