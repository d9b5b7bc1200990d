"""Command-line front end.

One job per invocation; all results are emitted as canonical JSON on
stdout (or a plain-text rendering with --format text).  Exit status 0 on
success, 1 when a validation fails (the report goes to stderr), 2 on
malformed input.
"""

import argparse
import sys

from . import io
from .cochains import RealComplex, cohomology, complex_for, invariant_sections
from .groupoids import cover_groupoid, cech_groupoid
from .nerve import nerve, check_simplicial_identities
from .proper import vanishing_check, canonical_cutoff, verify_cutoff


def _emit(args, payload):
    if args.format == "text":
        for line in _render_text(payload):
            print(line)
    else:
        sys.stdout.write(io.dumps(payload))


def _render_text(payload, prefix=""):
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _render_text(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                yield from _render_text(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"
    else:
        yield f"{prefix}{payload}"


def _groupoid(args):
    return io.groupoid_from_json(io.load_json(args.groupoid))


def _coeff(args):
    if args.coeff.endswith(".json"):
        return io.coefficients_from_json(io.load_json(args.coeff))
    return io.coefficients_from_json(args.coeff)


def cmd_validate(args):
    g = _groupoid(args)
    report = g.validate()
    if report:
        for line in report:
            print(line, file=sys.stderr)
        return 1
    _emit(args, {"valid": True, "objects": g.n_objects, "arrows": g.n_arrows})
    return 0


def cmd_nerve(args):
    g = _groupoid(args)
    # one enumeration, read downwards and extended for the identities; a
    # negative degree lists no level
    top = nerve(g, args.max_degree) if args.max_degree >= 0 else None
    levels, level = [], top
    while level is not None:
        levels.insert(0, {"n": level.n, "count": len(level)})
        level = level.lower
    violations = check_simplicial_identities(g, min(args.max_degree, 4), top)
    if violations:
        for line in violations:
            print(line, file=sys.stderr)
        return 1
    _emit(args, {"levels": levels, "identities_verified": True})
    return 0


def cmd_cohomology(args):
    g = _groupoid(args)
    S = _coeff(args)
    h = cohomology(g, S, args.n)
    _emit(args, io.presentation_to_json(h))
    return 0


def cmd_invariant_sections(args):
    g = _groupoid(args)
    S = _coeff(args)
    pres = invariant_sections(g, S)
    h0 = cohomology(g, S, 0)
    _emit(args, {"sections": io.presentation_to_json(pres),
                 "matches_degree_zero": pres.group_key() == h0.group_key()})
    return 0


def cmd_ext(args):
    from . import extensions as ext
    if args.ext_command == "classify":
        g = _groupoid(args)
        table = ext.ext_classification_table(g, args.m)
        _emit(args, {
            "h1_z2": {"free_rank": table["h1_z2"][0],
                      "torsion": list(table["h1_z2"][1])},
            "h2_s": {"free_rank": table["h2_s"][0],
                     "torsion": list(table["h2_s"][1])},
            "h2_matches_z2_count": table["h2_matches_z2_count"],
            "classes": table["classes"],
        })
        return 0
    if args.ext_command == "build":
        t = io.twist_from_json(io.load_json(args.twist))
        E = ext.build_extension(t.base, t.S, t.omega)
        G = E.as_groupoid()
        bad = E.verify(G)
        if bad:
            for line in bad:
                print(line, file=sys.stderr)
            return 1
        _emit(args, {"extension": io.groupoid_to_json(G),
                     "order": len(E.elements)})
        return 0
    if args.ext_command == "extract":
        t = io.twist_from_json(io.load_json(args.twist))
        E = ext.build_extension(t.base, t.S, t.omega)
        om = ext.extract_cocycle(E)
        _emit(args, {"omega": io.cochain_to_json(om),
                     "matches_input": bool(all((om - t.omega).vector == 0))})
        return 0
    if args.ext_command == "sum":
        t1 = io.twist_from_json(io.load_json(args.twist))
        t2 = io.twist_from_json(io.load_json(args.twist2))
        kappa = tuple(args.kappa) if args.kappa else None
        s = ext.baer_sum(t1, t2, kappa)
        _emit(args, io.twist_to_json(s))
        return 0
    if args.ext_command == "dd":
        t = io.twist_from_json(io.load_json(args.twist))
        dc, wc, h1, h2 = ext.dd_class(t)
        _emit(args, {
            "delta_class": list(dc),
            "omega_class": list(wc),
            "h1_z2": io.presentation_to_json(h1),
            "h2_s": io.presentation_to_json(h2),
        })
        return 0
    raise AssertionError(args.ext_command)


def cmd_cup(args):
    from . import extensions as ext
    g = _groupoid(args)
    S = _coeff(args)
    zcx = RealComplex(g, ext.Z2)
    delta = io.cochain_from_json(zcx, io.load_json(args.delta))
    delta2 = io.cochain_from_json(zcx, io.load_json(args.delta_prime))
    kappa = tuple(args.kappa) if args.kappa else None
    h2, cls, coc = ext.cup(g, S, delta, delta2, kappa)
    _emit(args, {
        "class": list(cls),
        "h2": io.presentation_to_json(h2),
        "representative": io.cochain_to_json(coc),
        "trivial": all(v == 0 for v in cls),
    })
    return 0


def cmd_bundle(args):
    from . import bundles
    g = _groupoid(args)
    S = _coeff(args)
    if args.bundle_command == "classify":
        h1, reps = bundles.classify_bundles(g, S)
        _emit(args, {
            "h1": io.presentation_to_json(h1),
            "count": len(reps),
            "representatives": [
                {"class": list(coords), "cocycle": io.cochain_to_json(b.cocycle)}
                for coords, b in reps],
        })
        return 0
    if args.bundle_command == "iso":
        cx = RealComplex(g, S)
        c1 = io.cochain_from_json(cx, io.load_json(args.c1))
        c2 = io.cochain_from_json(cx, io.load_json(args.c2))
        z1 = bundles.bundle_from_cocycle(g, S, c1)
        z2 = bundles.bundle_from_cocycle(g, S, c2)
        flag, witness = bundles.bundles_isomorphic(z1, z2,
                                                   cross_check=args.cross_check)
        out = {"isomorphic": flag}
        if witness is not None:
            out["witness"] = io.cochain_to_json(witness)
        _emit(args, out)
        return 0
    raise AssertionError(args.bundle_command)


def cmd_morita(args):
    g = _groupoid(args)
    S = _coeff(args)
    if args.cover:
        cov = io.cover_from_json(g, io.load_json(args.cover))
        other, _ = cover_groupoid(g, cov)
        kind = "cover"
    elif args.cech:
        if not g.is_space():
            print("cech comparison requires a units-only groupoid",
                  file=sys.stderr)
            return 1
        pi, rho_total = io.surjection_from_json(io.load_json(args.cech), g.n_objects)
        other = cech_groupoid(pi, rho_total, list(g.rho_obj), g.n_objects)
        kind = "cech"
    else:
        print("one of --cover/--cech is required", file=sys.stderr)
        return 2
    degrees = []
    all_match = True
    cx_other, cx_base = complex_for(other, S), complex_for(g, S)
    for n in range(args.max_degree + 1):
        a = cx_other.cohomology(n).group_key()
        b = cx_base.cohomology(n).group_key()
        match = a == b
        all_match = all_match and match
        degrees.append({
            "n": n,
            "base": {"free_rank": b[0], "torsion": list(b[1])},
            "derived": {"free_rank": a[0], "torsion": list(a[1])},
            "isomorphic": match,
        })
    _emit(args, {"kind": kind, "degrees": degrees, "all_isomorphic": all_match})
    return 0 if all_match else 1


def cmd_vanish(args):
    g = _groupoid(args)
    rep = io.representation_from_json(g, io.load_json(args.rep))
    bad = rep.validate()
    if bad:
        for line in bad:
            print(line, file=sys.stderr)
        return 1
    cut = canonical_cutoff(g)
    assert verify_cutoff(g, cut) == []
    report = vanishing_check(g, rep, args.n_max)
    all_zero = all(r["free_rank"] == 0 for r in report)
    _emit(args, {"degrees": report, "all_zero": all_zero})
    return 0 if all_zero else 1


def cmd_les(args):
    from .les import long_exact_sequence_check
    g = _groupoid(args)
    ses = io.sequence_from_json(io.load_json(args.sequence))
    report = long_exact_sequence_check(ses, g, args.max_degree)
    groups = {k: [{"free_rank": r, "torsion": list(t)} for r, t in v]
              for k, v in report["groups"].items()}
    _emit(args, {"slots": report["slots"], "groups": groups,
                 "exact": report["exact"]})
    return 0 if report["exact"] else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="realcech",
        description="Exact cohomology of finite groupoids with involution")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the groupoid axioms")
    p.add_argument("groupoid")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("nerve", help="nerve sizes and simplicial identities")
    p.add_argument("groupoid")
    p.add_argument("--max-degree", type=int, default=3)
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("cohomology", help="HR^n for one degree")
    p.add_argument("groupoid")
    p.add_argument("--coeff", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("invariant-sections",
                       help="degree-zero sections, solved directly")
    p.add_argument("groupoid")
    p.add_argument("--coeff", required=True)
    p.set_defaults(func=cmd_invariant_sections)

    p = sub.add_parser("ext", help="graded extension operations")
    esub = p.add_subparsers(dest="ext_command", required=True)
    e = esub.add_parser("classify")
    e.add_argument("groupoid")
    e.add_argument("--m", type=int, default=4)
    e.set_defaults(func=cmd_ext)
    for name in ("build", "extract", "dd"):
        e = esub.add_parser(name)
        e.add_argument("twist")
        e.set_defaults(func=cmd_ext)
    e = esub.add_parser("sum")
    e.add_argument("twist")
    e.add_argument("twist2")
    e.add_argument("--kappa", type=int, nargs="*")
    e.set_defaults(func=cmd_ext)

    p = sub.add_parser("cup", help="cup product of two Z/2 1-cocycles")
    p.add_argument("groupoid")
    p.add_argument("--coeff", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--delta-prime", required=True)
    p.add_argument("--kappa", type=int, nargs="*")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("bundle", help="principal bundle operations")
    bsub = p.add_subparsers(dest="bundle_command", required=True)
    b = bsub.add_parser("classify")
    b.add_argument("groupoid")
    b.add_argument("--coeff", required=True)
    b.set_defaults(func=cmd_bundle)
    b = bsub.add_parser("iso")
    b.add_argument("groupoid")
    b.add_argument("--coeff", required=True)
    b.add_argument("--c1", required=True)
    b.add_argument("--c2", required=True)
    b.add_argument("--cross-check", action="store_true")
    b.set_defaults(func=cmd_bundle)

    p = sub.add_parser("morita-check",
                       help="compare HR against a cover or Cech groupoid")
    p.add_argument("groupoid")
    p.add_argument("--coeff", required=True)
    p.add_argument("--cover")
    p.add_argument("--cech")
    p.add_argument("--max-degree", type=int, default=2)
    p.set_defaults(func=cmd_morita)

    p = sub.add_parser("vanish",
                       help="vanishing report for a rational representation")
    p.add_argument("groupoid")
    p.add_argument("--rep", required=True)
    p.add_argument("--n-max", type=int, default=2)
    p.set_defaults(func=cmd_vanish)

    p = sub.add_parser("les", help="long exact sequence check")
    p.add_argument("groupoid")
    p.add_argument("--sequence", required=True)
    p.add_argument("--max-degree", type=int, default=2)
    p.set_defaults(func=cmd_les)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except io.FormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
