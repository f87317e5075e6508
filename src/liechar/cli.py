"""Command-line driver over JSON workspace files.

Subcommands: validate, cohomology, curvature, chern-weil, secondary,
verify-theorem.  Every computation is the corresponding library call on the
parsed workspace; there is no CLI-only logic.  Exit codes: 0 success,
1 validation or computation failure, 2 parse error (file or command line).
"""

from __future__ import annotations

import argparse
import sys

from .characteristic import (DegreeError, NotACocycle, NotAdmissible, NotClosed,
                             NotInvariant, chern_weil, cohomology_space,
                             secondary_class, verify_main_theorem)
from .extensions import (ExactnessViolation, InvalidSection, section_curvature)
from .liealg import trivial_representation
from .workspace import (ParseError, ValidationError, canonical_dumps,
                        class_to_json, cochain_to_json, parse_workspace)

_FAILURES = (ValidationError, NotAdmissible, NotInvariant, NotACocycle,
             NotClosed, DegreeError, ExactnessViolation, InvalidSection)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liechar",
        description="Exact cohomology and characteristic classes of Lie algebra extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="workspace JSON file")
        p.add_argument("--output", choices=("text", "json"), default="text")
        return p

    add("validate", help="parse and validate a workspace")

    p = add("cohomology", help="dimensions of Z, B and H in one degree")
    p.add_argument("--algebra", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = add("curvature", help="curvature of a section in kernel coordinates")
    p.add_argument("--extension", required=True)
    p.add_argument("--section", required=True)

    p = add("chern-weil", help="primary characteristic class of an invariant map")
    p.add_argument("--extension", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--section", required=True)
    p.add_argument("--rep")
    p.add_argument("--invariance", choices=("section", "strict"), default="section")

    p = add("secondary", help="secondary characteristic class of two sections")
    p.add_argument("--extension", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--sections", required=True, help="two comma-separated section names")
    p.add_argument("--rep")
    p.add_argument("--invariance", choices=("section", "strict"), default="section")

    p = add("verify-theorem", help="check the boundary identity for n+1 sections")
    p.add_argument("--extension", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--sections", required=True, help="comma-separated section names")
    p.add_argument("--rep")
    p.add_argument("--invariance", choices=("section", "strict"), default="section")

    return parser


def _lookup(registry, name, kind):
    if name not in registry:
        raise ValidationError(f"unknown {kind} '{name}'")
    return registry[name]


def _resolve_rep(ws, args, ext):
    if not getattr(args, "rep", None):
        return trivial_representation(ext.base, 1)
    rep = _lookup(ws.representations, args.rep, "representation")
    if rep.algebra != ext.base:
        raise ValidationError(
            f"representation '{args.rep}' is not over the base of extension "
            f"'{args.extension}'")
    return rep


def _print_cochain(w, indent=""):
    names = w.source.basis_names
    printed = False
    for key, val in w.values.items():
        if all(v == 0 for v in val):
            continue
        arg = ",".join(names[i] for i in key) if key else "()"
        print(f"{indent}({arg}) -> ({', '.join(str(v) for v in val)})")
        printed = True
    if not printed:
        print(f"{indent}zero")


def _cmd_validate(ws, args):
    payload = {
        "ok": True,
        "algebras": len(ws.algebras),
        "representations": len(ws.representations),
        "extensions": len(ws.extensions),
        "sections": len(ws.sections),
        "polynomials": len(ws.polynomials),
    }
    if args.output == "json":
        print(canonical_dumps(payload), end="")
    else:
        counts = ", ".join(f"{v} {k}" for k, v in payload.items() if k != "ok")
        print(f"ok: {counts}")
    return 0


def _cmd_cohomology(ws, args):
    alg = _lookup(ws.algebras, args.algebra, "algebra")
    rep = _lookup(ws.representations, args.rep, "representation")
    if rep.algebra is not alg:
        raise ValidationError(
            f"representation '{args.rep}' is not over algebra '{args.algebra}'")
    space = cohomology_space(alg, rep, args.degree)
    payload = {
        "algebra": args.algebra,
        "rep": args.rep,
        "degree": args.degree,
        "z_dim": len(space.cocycle_basis),
        "b_dim": len(space.coboundary_basis),
        "h_dim": space.h_dim,
    }
    if args.output == "json":
        print(canonical_dumps(payload), end="")
    else:
        print(f"degree {args.degree} cohomology of '{args.algebra}' with "
              f"coefficients in '{args.rep}': dim Z = {payload['z_dim']}, "
              f"dim B = {payload['b_dim']}, dim H = {payload['h_dim']}")
    return 0


def _cmd_curvature(ws, args):
    ext = _lookup(ws.extensions, args.extension, "extension")
    sec = _lookup(ws.sections, args.section, "section")
    curv = section_curvature(ext, sec)
    if args.output == "json":
        payload = {
            "extension": args.extension,
            "section": args.section,
            "curvature": cochain_to_json(curv),
        }
        print(canonical_dumps(payload), end="")
    else:
        print(f"curvature of '{args.section}' (values in kernel coordinates):")
        _print_cochain(curv, indent="  ")
    return 0


def _print_class(label, cls, output):
    if output == "json":
        print(canonical_dumps(class_to_json(cls)), end="")
        return
    coords = ", ".join(str(c) for c in cls.coordinates)
    print(f"{label}: degree {cls.degree}, H-dimension {cls.h_space.h_dim}, "
          f"coordinates [{coords}]")
    print("representative:")
    _print_cochain(cls.representative, indent="  ")


def _cmd_chern_weil(ws, args):
    ext = _lookup(ws.extensions, args.extension, "extension")
    f = _lookup(ws.polynomials, args.poly, "polynomial")
    sec = _lookup(ws.sections, args.section, "section")
    rep = _resolve_rep(ws, args, ext)
    cls = chern_weil(ext, f, sec, rep, mode=args.invariance)
    _print_class("primary class", cls, args.output)
    return 0


def _cmd_secondary(ws, args):
    ext = _lookup(ws.extensions, args.extension, "extension")
    f = _lookup(ws.polynomials, args.poly, "polynomial")
    names = [s for s in args.sections.split(",") if s]
    if len(names) != 2:
        raise ValidationError("secondary needs exactly two section names")
    sec_a = _lookup(ws.sections, names[0], "section")
    sec_b = _lookup(ws.sections, names[1], "section")
    rep = _resolve_rep(ws, args, ext)
    cls = secondary_class(ext, f, sec_a, sec_b, rep, mode=args.invariance)
    _print_class("secondary class", cls, args.output)
    return 0


def _cmd_verify_theorem(ws, args):
    ext = _lookup(ws.extensions, args.extension, "extension")
    f = _lookup(ws.polynomials, args.poly, "polynomial")
    names = [s for s in args.sections.split(",") if s]
    if len(names) < 2:
        raise ValidationError("verify-theorem needs at least two section names")
    sections = [_lookup(ws.sections, n, "section") for n in names]
    rep = _resolve_rep(ws, args, ext)
    report = verify_main_theorem(ext, f, sections, rep, mode=args.invariance)
    sign = {1: "+1", -1: "-1", 0: "0", None: None}[report.sign]
    if args.output == "json":
        payload = {
            "equal": report.equal,
            "sign": sign,
            "lhs": cochain_to_json(report.lhs),
            "rhs": cochain_to_json(report.rhs),
        }
        print(canonical_dumps(payload), end="")
    else:
        print(f"equal: {'true' if report.equal else 'false'}")
        if report.sign == 0:
            print("sign: 0 (both sides vanish)")
        elif report.sign is None:
            print("sign: none (sides differ beyond sign); difference:")
            _print_cochain(report.difference, indent="  ")
        else:
            print(f"sign: {sign}")
    return 0


_DISPATCH = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "curvature": _cmd_curvature,
    "chern-weil": _cmd_chern_weil,
    "secondary": _cmd_secondary,
    "verify-theorem": _cmd_verify_theorem,
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"parse error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        ws = parse_workspace(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](ws, args)
    except _FAILURES as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
