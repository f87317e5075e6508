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
from .workspace import (ParseError, ValidationError, _lookup, canonical_dumps,
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

    for name, help_text, sections, sections_help in (
            ("chern-weil", "primary characteristic class of an invariant map", "--section",
             None),
            ("secondary", "secondary characteristic class of two sections", "--sections",
             "two comma-separated section names"),
            ("verify-theorem", "check the boundary identity for n+1 sections", "--sections",
             "comma-separated section names")):
        p = add(name, help=help_text)
        p.add_argument("--extension", required=True)
        p.add_argument("--poly", required=True)
        p.add_argument(sections, required=True, help=sections_help)
        p.add_argument("--rep")
        p.add_argument("--invariance", choices=("section", "strict"), default="section")

    return parser


def _representation(ws, name, algebra, over):
    """The representation called name, over an algebra equal to algebra (an
    extension may inline its base, so structure is compared, not identity);
    over names that algebra in the error.  No name: the trivial module R."""
    if not name:
        return trivial_representation(algebra, 1)
    rep = _lookup(ws.representations, name, "representation")
    if rep.algebra != algebra:
        raise ValidationError(f"representation '{name}' is not over {over}")
    return rep


def _resolve_extension(ws, args, section_names):
    """(extension, sections, map, module) named by an extension command.

    Each name is looked up and each object checked to fit the extension: the
    sections belong to it, and the map goes from its kernel into the module.
    Map and module are None for a command without --poly (curvature).
    """
    ext = _lookup(ws.extensions, args.extension, "extension")
    sections = [_lookup(ws.sections, name, "section") for name in section_names]
    for name, sec in zip(section_names, sections):
        if sec.extension is not ext:
            raise ValidationError(
                f"section '{name}' is not a section of extension '{args.extension}'")
    if not hasattr(args, "poly"):
        return ext, sections, None, None
    f = _lookup(ws.polynomials, args.poly, "polynomial")
    rep = _representation(ws, args.rep, ext.base,
                          f"the base of extension '{args.extension}'")
    if f.source.dim != ext.kernel.dim:
        raise ValidationError(
            f"polynomial '{args.poly}' is not defined on the kernel of extension "
            f"'{args.extension}'")
    if f.target_dim != rep.space_dim:
        raise ValidationError(
            f"polynomial '{args.poly}' does not map into the module of dimension "
            f"{rep.space_dim}")
    return ext, sections, f, rep


def _print_cochain(w):
    """An indented line per stored (nonzero) value, in key order; "zero" if none is."""
    names = w.source.basis_names
    for key in sorted(w.nonzero):
        arg = ",".join(names[i] for i in key) if key else "()"
        print(f"  ({arg}) -> ({', '.join(str(v) for v in w.nonzero[key])})")
    if not w.nonzero:
        print("  zero")


def _cmd_validate(ws, args):
    counts = {key: len(registry) for key, registry in vars(ws).items()}
    if args.output == "json":
        print(canonical_dumps({"ok": True, **counts}), end="")
    else:
        print("ok: " + ", ".join(f"{n} {key}" for key, n in counts.items()))
    return 0


def _cmd_cohomology(ws, args):
    alg = _lookup(ws.algebras, args.algebra, "algebra")
    rep = _representation(ws, args.rep, alg, f"algebra '{args.algebra}'")
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
    ext, (sec,), _, _ = _resolve_extension(ws, args, [args.section])
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
        _print_cochain(curv)
    return 0


def _print_class(label, cls, output):
    if output == "json":
        print(canonical_dumps(class_to_json(cls)), end="")
        return
    coords = ", ".join(str(c) for c in cls.coordinates)
    print(f"{label}: degree {cls.degree}, H-dimension {cls.h_space.h_dim}, "
          f"coordinates [{coords}]")
    print("representative:")
    _print_cochain(cls.representative)


def _cmd_chern_weil(ws, args):
    ext, (sec,), f, rep = _resolve_extension(ws, args, [args.section])
    cls = chern_weil(ext, f, sec, rep, mode=args.invariance)
    _print_class("primary class", cls, args.output)
    return 0


def _cmd_secondary(ws, args):
    names = [s for s in args.sections.split(",") if s]
    if len(names) != 2:
        raise ValidationError("secondary needs exactly two section names")
    ext, (sec_a, sec_b), f, rep = _resolve_extension(ws, args, names)
    cls = secondary_class(ext, f, sec_a, sec_b, rep, mode=args.invariance)
    _print_class("secondary class", cls, args.output)
    return 0


def _cmd_verify_theorem(ws, args):
    names = [s for s in args.sections.split(",") if s]
    if len(names) < 2:
        raise ValidationError("verify-theorem needs at least two section names")
    ext, sections, f, rep = _resolve_extension(ws, args, names)
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
            _print_cochain(report.difference)
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


# Built once, at import: parse_args keeps no state between calls.
_PARSER = _build_parser()


def run_command(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
