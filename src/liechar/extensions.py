"""Lie algebra extensions 0 -> n -> g^ -> g -> 0 and their sections.

An extension carries the three algebras plus the inclusion matrix iota
(dim g^ x dim n) and the projection matrix q (dim g x dim g^); no adapted
basis is assumed.  Values lying in the image of iota are converted to kernel
coordinates by an exact linear solve; ExactnessViolation signals a value that
escapes the kernel, which only happens on corrupted input.

A section is any linear right inverse of q.  Its curvature
R(x,y) = [sigma x, sigma y] - sigma([x,y]) lands in the kernel, and
S(x) = ad(sigma x) restricted to the kernel gives the induced action used in
the invariance condition for symmetric maps.  Families sigma_t interpolating
n+1 sections over the simplex (t_0 eliminated as 1 - t_1 - ... - t_n) have
polynomial entries, and their curvature R_t flows through the same code with
MultiPoly scalars.
"""

from __future__ import annotations

from fractions import Fraction

from .cochains import Cochain, LinearAction, nondecreasing_tuples
from .liealg import LieAlgebra, Representation, bracket
from .linalg import identity, mat_mul, mat_vec, rank, solve_linear, vec_sub, vec_zero
from .scalars import MultiPoly, as_poly

__all__ = [
    "Extension",
    "Section",
    "ExactnessViolation",
    "InvalidSection",
    "InvarianceWarning",
    "validate_extension",
    "validate_section",
    "kernel_coords",
    "section_curvature",
    "s_from_section",
    "section_difference",
    "is_invariant",
    "param_section",
    "param_curvature",
]


class ExactnessViolation(ValueError):
    """A value that should lie in the image of iota does not."""


class InvalidSection(ValueError):
    """A map claimed to be a section fails q . sigma = id."""


class InvarianceWarning(UserWarning):
    """The symmetric map fails the configured invariance condition."""


def _coerce_entry(x):
    if isinstance(x, MultiPoly):
        return x
    return Fraction(x)


class Extension:
    """Short exact sequence data: total, base, kernel, inclusion and projection."""

    __slots__ = ("total", "base", "kernel", "iota", "proj")

    def __init__(self, total: LieAlgebra, base: LieAlgebra, kernel: LieAlgebra,
                 iota, proj):
        iota = [[Fraction(c) for c in row] for row in iota]
        proj = [[Fraction(c) for c in row] for row in proj]
        if len(iota) != total.dim or any(len(row) != kernel.dim for row in iota):
            raise ValueError("iota must be dim(total) x dim(kernel)")
        if len(proj) != base.dim or any(len(row) != total.dim for row in proj):
            raise ValueError("q must be dim(base) x dim(total)")
        self.total = total
        self.base = base
        self.kernel = kernel
        self.iota = iota
        self.proj = proj

    def __repr__(self):
        return (f"Extension(0 -> {self.kernel.dim} -> {self.total.dim} "
                f"-> {self.base.dim} -> 0)")


def validate_extension(ext: Extension):
    """Every violated exactness/homomorphism invariant, as messages; empty = ok."""
    failures = []
    dn, dg, dt = ext.kernel.dim, ext.base.dim, ext.total.dim
    if dn + dg != dt:
        failures.append(
            f"dimension count fails: dim kernel {dn} + dim base {dg} != dim total {dt}")
    if rank(ext.iota) != dn:
        failures.append("iota is not injective")
    if rank(ext.proj) != dg:
        failures.append("q is not surjective")
    if any(c != 0 for row in mat_mul(ext.proj, ext.iota) for c in row):
        failures.append("q . iota is not zero")
    iota_cols = [[ext.iota[r][j] for r in range(dt)] for j in range(dn)]
    for i in range(dn):
        for j in range(i + 1, dn):
            lhs = [sum(ext.iota[r][k] * ext.kernel.structure[i][j][k] for k in range(dn))
                   for r in range(dt)]
            rhs = bracket(ext.total, iota_cols[i], iota_cols[j])
            if lhs != rhs:
                failures.append(
                    f"iota is not a homomorphism on kernel pair ({i},{j})")
    for x in range(dt):
        ex = [Fraction(1) if r == x else Fraction(0) for r in range(dt)]
        for j in range(dn):
            w = bracket(ext.total, ex, iota_cols[j])
            if solve_linear(ext.iota, w) is None:
                failures.append(
                    f"iota image is not an ideal: [e_{x}, iota e_{j}] escapes")
    for i in range(dt):
        for j in range(i + 1, dt):
            ei = [Fraction(1) if r == i else Fraction(0) for r in range(dt)]
            ej = [Fraction(1) if r == j else Fraction(0) for r in range(dt)]
            lhs = [sum(ext.proj[r][k] * ext.total.structure[i][j][k] for k in range(dt))
                   for r in range(dg)]
            rhs = bracket(ext.base, mat_vec(ext.proj, ei), mat_vec(ext.proj, ej))
            if lhs != rhs:
                failures.append(f"q is not a homomorphism on pair ({i},{j})")
    return failures


class Section:
    """Linear right inverse of the projection, as a dim(total) x dim(base) matrix."""

    __slots__ = ("extension", "matrix")

    def __init__(self, extension: Extension, matrix):
        mat = [[_coerce_entry(c) for c in row] for row in matrix]
        if len(mat) != extension.total.dim or any(
            len(row) != extension.base.dim for row in mat
        ):
            raise ValueError("section matrix must be dim(total) x dim(base)")
        self.extension = extension
        self.matrix = mat

    @property
    def is_polynomial(self) -> bool:
        return any(isinstance(c, MultiPoly) for row in self.matrix for c in row)

    def column(self, j):
        return [row[j] for row in self.matrix]

    def __repr__(self):
        kind = "polynomial" if self.is_polynomial else "rational"
        return f"Section({kind}, {self.extension!r})"


def validate_section(ext: Extension, sec: Section) -> bool:
    """True iff q . sigma is exactly the identity (as polynomials if applicable)."""
    if len(sec.matrix) != ext.total.dim:
        raise ValueError("dimension mismatch")
    prod = mat_mul(ext.proj, sec.matrix)
    ident = identity(ext.base.dim)
    return all(
        prod[i][j] == ident[i][j]
        for i in range(ext.base.dim) for j in range(ext.base.dim)
    )


def kernel_coords(ext: Extension, vec):
    """Coordinates w with iota w = vec; ExactnessViolation when unsolvable."""
    w = solve_linear(ext.iota, vec)
    if w is None:
        raise ExactnessViolation("value does not lie in the image of iota")
    return w


def section_curvature(ext: Extension, sec: Section) -> Cochain:
    """R(x,y) = [sigma x, sigma y] - sigma([x,y]) in kernel coordinates."""
    g = ext.base

    def fn(key):
        i, j = key
        val = bracket(ext.total, sec.column(i), sec.column(j))
        for k, c in enumerate(g.bracket_basis(i, j)):
            if c == 0:
                continue
            col = sec.column(k)
            val = [v - c * x for v, x in zip(val, col)]
        return kernel_coords(ext, val)

    return Cochain.from_function(g, 2, ext.kernel.dim, fn)


def s_from_section(ext: Extension, sec: Section) -> LinearAction:
    """S(x) = ad(sigma x) restricted to the kernel, in kernel coordinates."""
    dn = ext.kernel.dim
    iota_cols = [[ext.iota[r][j] for r in range(ext.total.dim)] for j in range(dn)]
    mats = []
    for i in range(ext.base.dim):
        sx = sec.column(i)
        cols = [kernel_coords(ext, bracket(ext.total, sx, iota_cols[j]))
                for j in range(dn)]
        mats.append([[cols[j][r] for j in range(dn)] for r in range(dn)])
    return LinearAction(ext.base, mats)


def section_difference(ext: Extension, sec_a: Section, sec_b: Section) -> Cochain:
    """The kernel-valued 1-cochain x -> sigma_a(x) - sigma_b(x)."""
    def fn(key):
        (i,) = key
        return kernel_coords(ext, vec_sub(sec_a.column(i), sec_b.column(i)))

    return Cochain.from_function(ext.base, 1, ext.kernel.dim, fn)


_MODES = ("section", "strict")


def is_invariant(f, ext: Extension, rep: Representation, mode: str = "section",
                 sigma: Section | None = None) -> bool:
    """Check x.f(y_1..y_p) = sum_i f(y_1, .., S(x) y_i, .., y_p) on basis data.

    mode "section": x runs over the base with S = ad(sigma x)|kernel and the
    module action of the base representation.  mode "strict": x runs over
    the whole total algebra with S(x) = ad(x) restricted to the kernel and the
    module action pulled back along q.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown invariance mode {mode!r}")
    if f.source.dim != ext.kernel.dim or f.target_dim != rep.space_dim:
        raise ValueError("dimension mismatch")
    dn = ext.kernel.dim
    if mode == "section":
        if sigma is None:
            raise ValueError("section mode needs a section")
        s_mats = s_from_section(ext, sigma).matrices
        act_mats = rep.matrices
    else:
        dt = ext.total.dim
        iota_cols = [[ext.iota[r][j] for r in range(dt)] for j in range(dn)]
        s_mats = []
        act_mats = []
        for x in range(dt):
            ex = [Fraction(1) if r == x else Fraction(0) for r in range(dt)]
            cols = [kernel_coords(ext, bracket(ext.total, ex, iota_cols[j]))
                    for j in range(dn)]
            s_mats.append([[cols[j][r] for j in range(dn)] for r in range(dn)])
            qx = [sum(ext.proj[r][c] * ex[c] for c in range(dt))
                  for r in range(ext.base.dim)]
            acted = [[sum(qx[b] * rep.matrices[b][r][s] for b in range(ext.base.dim))
                      for s in range(rep.space_dim)] for r in range(rep.space_dim)]
            act_mats.append(acted)
    for x in range(len(s_mats)):
        s_mat = s_mats[x]
        for key in nondecreasing_tuples(dn, f.degree):
            lhs = mat_vec(act_mats[x], list(f.entry(key)))
            rhs = vec_zero(f.target_dim)
            for slot in range(f.degree):
                moved = [s_mat[r][key[slot]] for r in range(dn)]
                vecs = []
                for t in range(f.degree):
                    if t == slot:
                        vecs.append(moved)
                    else:
                        unit = vec_zero(dn)
                        unit[key[t]] = Fraction(1)
                        vecs.append(unit)
                rhs = [a + b for a, b in zip(rhs, f.evaluate(vecs))]
            if any(a != b for a, b in zip(lhs, rhs)):
                return False
    return True


def param_section(ext: Extension, sections) -> Section:
    """Interpolating section sigma_t = sigma_0 + sum_i t_i (sigma_i - sigma_0).

    Given n+1 valid rational sections, returns a section with MultiPoly
    entries in t_1..t_n; the barycentric t_0 is eliminated at construction.
    """
    sections = list(sections)
    n = len(sections) - 1
    if n < 1:
        raise ValueError("need at least two sections to interpolate")
    for idx, sec in enumerate(sections):
        if sec.is_polynomial:
            raise InvalidSection(f"input section {idx} must be rational")
        if not validate_section(ext, sec):
            raise InvalidSection(f"input section {idx} fails q . sigma = id")
    base = sections[0].matrix
    rows, cols = ext.total.dim, ext.base.dim
    matrix = []
    for r in range(rows):
        row = []
        for c in range(cols):
            entry = MultiPoly.constant(n, base[r][c])
            for i in range(1, n + 1):
                diff = sections[i].matrix[r][c] - base[r][c]
                if diff:
                    entry = entry + MultiPoly.variable(n, i - 1) * diff
            row.append(entry)
        matrix.append(row)
    return Section(ext, matrix)


def param_curvature(ext: Extension, sec_t: Section) -> Cochain:
    """Curvature of an interpolating section, with MultiPoly entries throughout."""
    nvars = None
    for row in sec_t.matrix:
        for c in row:
            if isinstance(c, MultiPoly):
                nvars = c.nvars
                break
        if nvars is not None:
            break
    if nvars is None:
        raise ValueError("expected a polynomial section from param_section")
    return section_curvature(ext, sec_t).map_values(lambda s: as_poly(s, nvars))
