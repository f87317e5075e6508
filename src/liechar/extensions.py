"""Lie algebra extensions 0 -> n -> g^ -> g -> 0 and their sections.

An extension carries the three algebras plus the inclusion matrix iota
(dim g^ x dim n) and the projection matrix q (dim g x dim g^); no adapted
basis is assumed.  At construction it runs one elimination of the rows of
iota, each bracket [e_x, iota e_j] carried along as an extra column.  Other
values in the image of iota are converted to kernel coordinates by an exact
linear solve; ExactnessViolation signals a value that escapes the kernel,
which only happens on corrupted input.

A section is any linear right inverse of q.  Its curvature
R(x,y) = [sigma x, sigma y] - sigma([x,y]) lands in the kernel; it is the
curvature formula of cochains, applied with the bracket of the total algebra
and followed by kernel coordinates.  One helper reads ad(v) restricted to the
kernel, in kernel coordinates, off the echelon: S(x) = ad(sigma x)|n for the
section policy, ad(e_x)|n over the total basis for the strict one.
Invariance of a symmetric map f, x.f(key) = sum over slots s and kernel
indices r of S(x)[r][key_s] f(key with key_s replaced by r) for every
non-decreasing key, is read straight off the table of f and the nonzero
entries of S(x).  Families sigma_t interpolating n+1 sections over the
simplex (t_0 eliminated as 1 - t_1 - ... - t_n) have polynomial entries, and
their curvature R_t flows through the same code with MultiPoly scalars.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .cochains import Cochain, LinearAction, _coerce_scalar, _curvature_values
from .liealg import LieAlgebra, Representation, bracket
from .linalg import (identity, mat_mul, mat_vec, rank, solve_linear, sparse_rref, transpose,
                     vec_sub)
from .scalars import MultiPoly, _fraction, as_poly

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


class Extension:
    """Short exact sequence data: total, base, kernel, inclusion and projection."""

    __slots__ = ("total", "base", "kernel", "iota", "proj", "_echelon")

    def __init__(self, total: LieAlgebra, base: LieAlgebra, kernel: LieAlgebra,
                 iota, proj):
        iota = [[_fraction(c) for c in row] for row in iota]
        proj = [[_fraction(c) for c in row] for row in proj]
        if len(iota) != total.dim or any(len(row) != kernel.dim for row in iota):
            raise ValueError("iota must be dim(total) x dim(kernel)")
        if len(proj) != base.dim or any(len(row) != total.dim for row in proj):
            raise ValueError("q must be dim(base) x dim(total)")
        self.total = total
        self.base = base
        self.kernel = kernel
        self.iota = iota
        self.proj = proj
        # the rows of iota, with [e_x, iota e_j] carried as column dn + x dn + j
        dn = kernel.dim
        iota_rows = [{j: a for j, a in enumerate(row) if a} for row in iota]
        rows = [dict(row) for row in iota_rows]
        for x, plane in enumerate(total.structure):
            for k, iota_k in enumerate(iota_rows):
                if not iota_k:
                    continue
                terms = [(l, c) for l, c in enumerate(plane[k]) if c]
                for j, a in iota_k.items():
                    col = dn + x * dn + j
                    for l, c in terms:
                        rows[l][col] = rows[l].get(col, 0) + a * c
        self._echelon = sparse_rref(rows, dn)

    def __repr__(self):
        return (f"Extension(0 -> {self.kernel.dim} -> {self.total.dim} "
                f"-> {self.base.dim} -> 0)")


def validate_extension(ext: Extension):
    """Every violated exactness/homomorphism invariant, as messages; empty = ok.

    The elimination of the rows of iota that the extension ran at
    construction decides both injectivity and the ideal property.  The
    brackets [e_x, iota e_j] ride along as carried columns past dim(kernel).
    The rows whose kernel columns cancel are a basis of the linear forms
    vanishing on the image of iota, evaluated on every bracket, so a bracket
    escapes the image exactly when its carried column is nonzero in one of
    the rows sparse_rref returns as inconsistent.
    """
    failures = []
    dn, dg, dt = ext.kernel.dim, ext.base.dim, ext.total.dim
    if dn + dg != dt:
        failures.append(
            f"dimension count fails: dim kernel {dn} + dim base {dg} != dim total {dt}")
    escapes = {col - dn for p, row in ext._echelon if p == dn
               for col, v in row.items() if v}
    if sum(p < dn for p, _ in ext._echelon) != dn:
        failures.append("iota is not injective")
    if rank(ext.proj) != dg:
        failures.append("q is not surjective")
    if any(c != 0 for row in mat_mul(ext.proj, ext.iota) for c in row):
        failures.append("q . iota is not zero")
    iota_cols = [[row[j] for row in ext.iota] for j in range(dn)]
    for i, j in combinations(range(dn), 2):
        if mat_vec(ext.iota, ext.kernel.structure[i][j]) != bracket(
                ext.total, iota_cols[i], iota_cols[j]):
            failures.append(f"iota is not a homomorphism on kernel pair ({i},{j})")
    for pair in sorted(escapes):
        x, j = divmod(pair, dn)
        failures.append(f"iota image is not an ideal: [e_{x}, iota e_{j}] escapes")
    q_cols = [[row[i] for row in ext.proj] for i in range(dt)]
    for i, j in combinations(range(dt), 2):
        if mat_vec(ext.proj, ext.total.structure[i][j]) != bracket(
                ext.base, q_cols[i], q_cols[j]):
            failures.append(f"q is not a homomorphism on pair ({i},{j})")
    return failures


class Section:
    """Linear right inverse of the projection, as a dim(total) x dim(base) matrix."""

    __slots__ = ("extension", "matrix")

    def __init__(self, extension: Extension, matrix):
        mat = [[_coerce_scalar(c) for c in row] for row in matrix]
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
    values = _curvature_values(ext.base, transpose(sec.matrix).__getitem__,
                               lambda u, v: bracket(ext.total, u, v))
    return Cochain(ext.base, 2, ext.kernel.dim,
                   {key: kernel_coords(ext, val) for key, val in values.items()})


def _kernel_action(ext: Extension, v):
    """ad(v) restricted to the kernel, as a matrix in kernel coordinates.

    [v, iota e_j] = sum_x v_x [e_x, iota e_j], so a pivot row's combination of
    its carried columns is a kernel coordinate and an inconsistent row's is
    nonzero exactly when the bracket escapes; non-pivot coordinates read 0.
    Carried entries that cancelled still take part, so entry kinds are those
    of kernel_coords on the bracket.
    """
    dn = ext.kernel.dim
    if len(v) != ext.total.dim:
        raise ValueError("dimension mismatch")
    support = [(dn + x * dn, c) for x, c in enumerate(v) if c]
    mat = [[Fraction(0)] * dn for _ in range(dn)]
    for p, row in ext._echelon:
        out = mat[p] if p < dn else [Fraction(0)] * dn
        for offset, c in support:
            for j in range(dn):
                e = row.get(offset + j)
                if e is not None:
                    out[j] = out[j] + c * e
        if p == dn and any(out):
            raise ExactnessViolation("value does not lie in the image of iota")
    return mat


def s_from_section(ext: Extension, sec: Section) -> LinearAction:
    """S(x) = ad(sigma x) restricted to the kernel, in kernel coordinates."""
    return LinearAction(ext.base, [_kernel_action(ext, col) for col in transpose(sec.matrix)])


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
    if (f.source.dim != ext.kernel.dim or f.target_dim != rep.space_dim
            or rep.algebra.dim != ext.base.dim):
        raise ValueError("dimension mismatch")
    dn = ext.kernel.dim
    if mode == "section":
        if sigma is None:
            raise ValueError("section mode needs a section")
        s_mats = s_from_section(ext, sigma).matrices
        act_mats = rep.matrices
    else:
        s_mats = [_kernel_action(ext, v) for v in identity(ext.total.dim)]
        m = rep.space_dim
        q_cols = [[row[x] for row in ext.proj] for x in range(ext.total.dim)]
        act_mats = [[[sum(c * mat[r][s] for c, mat in zip(qx, rep.matrices))
                      for s in range(m)] for r in range(m)]
                    for qx in q_cols]
    values = f.values
    for s_mat, act in zip(s_mats, act_mats):
        cols = [[(r, row[k]) for r, row in enumerate(s_mat) if row[k]] for k in range(dn)]
        for key, val in values.items():
            rhs = [Fraction(0)] * f.target_dim
            for slot, k in enumerate(key):
                if slot and key[slot - 1] == k:
                    continue
                rest = key[:slot] + key[slot + 1:]
                times = key.count(k)
                for r, c in cols[k]:
                    c = c * times
                    rhs = [a + c * b for a, b in zip(rhs, values[tuple(sorted(rest + (r,)))])]
            if mat_vec(act, list(val)) != rhs:
                return False
    return True


def param_section(ext: Extension, sections) -> Section:
    """Interpolating section sigma_t = sigma_0 + sum_i t_i (sigma_i - sigma_0).

    Given n+1 valid rational sections, returns a section with MultiPoly
    entries in t_1..t_n; the barycentric t_0 is eliminated at construction.
    """
    sections = list(sections)
    if len(sections) < 2:
        raise ValueError("need at least two sections to interpolate")
    for idx, sec in enumerate(sections):
        if sec.is_polynomial:
            raise InvalidSection(f"input section {idx} must be rational")
        if not validate_section(ext, sec):
            raise InvalidSection(f"input section {idx} fails q . sigma = id")
    return _interpolate(ext, sections)


def _interpolate(ext: Extension, sections) -> Section:
    """param_section on rational sections that are already validated."""
    n = len(sections) - 1
    constant = (0,) * n
    units = [tuple(int(i == v) for v in range(n)) for i in range(n)]
    matrix = []
    for r, base_row in enumerate(sections[0].matrix):
        row = []
        for c, b in enumerate(base_row):
            terms = {constant: b} if b else {}
            for unit, sec in zip(units, sections[1:]):
                diff = sec.matrix[r][c] - b
                if diff:
                    terms[unit] = diff
            row.append(MultiPoly._of(n, terms))
        matrix.append(row)
    return Section(ext, matrix)


def param_curvature(ext: Extension, sec_t: Section) -> Cochain:
    """Curvature of an interpolating section, with MultiPoly entries throughout."""
    nvars = next((c.nvars for row in sec_t.matrix for c in row if isinstance(c, MultiPoly)),
                 None)
    if nvars is None:
        raise ValueError("expected a polynomial section from param_section")
    return section_curvature(ext, sec_t).map_values(lambda s: as_poly(s, nvars))
