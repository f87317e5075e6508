"""The boundary identity for relative cochains, on an extension where both
sides are visibly nonzero.

For n+1 sections s_0..s_n of an extension and an invariant symmetric map f
of degree k, the relative cochain Delta_f(s_0..s_n) integrates f applied to
the section differences and k-n copies of the interpolated curvature R_t
over the simplex.  These cochains satisfy

    (k - n + 1) d(Delta_f(s_0..s_n)) = sum_i (-1)^i Delta_f(.. s_i omitted ..)

exactly.  On the filiform algebra n4 (basis x1, x2, x3, c with [x1,x2] = x3,
[x1,x3] = c) viewed as a central extension of the Heisenberg algebra, the
curvature depends on the section, so the two-section case already produces
nonzero sides and pins the sign of the identity.
"""

from fractions import Fraction

from liechar import (
    Section, delta_f, integrate_poly_simplex, param_curvature, verify_main_theorem,
)
from liechar.catalog import filiform_workspace


def show(cochain, names, indent="  "):
    shown = False
    for key, val in cochain.values.items():
        if all(v == 0 for v in val):
            continue
        args = ",".join(names[i] for i in key)
        print(f"{indent}({args}) -> {val[0]}")
        shown = True
    if not shown:
        print(f"{indent}zero")


def main():
    ws = filiform_workspace()
    ext = ws.extensions["fil"]
    triv = ws.representations["triv"]
    f1 = ws.polynomials["f1"]
    names = ext.base.basis_names

    s0 = ws.sections["s0"]
    s1 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [Fraction(1, 2), 0, 3]])

    print("interpolated curvature of the pair (s0, s1):")
    curv_t = param_curvature(ext, [s0, s1])
    for key, val in curv_t.values.items():
        args = ",".join(names[i] for i in key)
        print(f"  R_t({args}) = {val[0]}")

    print("\nintegrating the x1-slot of the family over the interval:")
    entry = curv_t.entry((0, 1))[0]
    print(f"  int_0^1 R_t(x1,x2) dt = {integrate_poly_simplex(entry)}")

    print("\nboth sides of the identity for (s0, s1), k = 1:")
    report = verify_main_theorem(ext, f1, [s0, s1], triv)
    print("lhs = d(Delta_f(s0, s1)):")
    show(report.lhs, names)
    print("rhs = Delta_f(s1) - Delta_f(s0):")
    show(report.rhs, names)
    print(f"equal: {report.equal}, sign: {report.sign:+d}")

    print("\nthree sections, k = 2: each face cochain is nonzero, but the")
    print("alternating sum collapses to the (identically zero) left side:")
    s2 = ws.sections["s2"]
    f2 = ws.polynomials["f2"]
    for label, pair in (("(s1,s2)", [s1, s2]), ("(s0,s2)", [s0, s2]),
                        ("(s0,s1)", [s0, s1])):
        face = delta_f(ext, f2, pair, triv)
        print(f"Delta_f{label}:")
        show(face, names)
    report3 = verify_main_theorem(ext, f2, [s0, s1, s2], triv)
    print(f"equal: {report3.equal} (both sides zero: {report3.sign == 0})")


if __name__ == "__main__":
    main()
