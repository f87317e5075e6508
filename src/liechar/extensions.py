"""Lie algebra extensions 0 -> n -> g^ -> g -> 0 and their sections.

An extension carries the three algebras plus the inclusion matrix iota
(dim g^ x dim n) and the projection matrix q (dim g x dim g^); no adapted
basis is assumed.  It keeps each row of iota and of q as a {column: entry}
dict of its nonzero entries, and one set-up builds everything else from
those rows: the dense matrices, and one elimination of the rows of iota,
each bracket [e_x, iota e_j] carried along as an extra column.  The public
constructor reaches it after coercing its dense input; the workspace reader,
through the trusted Extension._of, with the rows it read.  Validation
transposes both row forms, with the sparse structure constants.
The values of a kernel-valued cochain (a curvature, a section difference) are
converted to kernel coordinates together, by one exact solve on iota with
one right-hand side per value: one elimination per cochain, several
right-hand sides; the data of a tuple of sections below takes one solve for
all its cochains.  ExactnessViolation signals a value that escapes the
kernel, which only happens on corrupted input.

A section is any rational linear right inverse of q.  It keeps, at
construction, only the nonzero Fraction entries {row: entry} of each column
sigma e_i; its matrix, for the writer and the API, is built on read.  The
workspace reader builds a section through the trusted Section._of from the
columns of the rows it read, then runs validate_section.
Every reader goes through the columns: the curvature, the difference of two
sections, S(e_i) and validate_section, each of which first checks that the
section's extension has the shape of the one it is given.  The curvature
R(x,y) = [sigma x, sigma y] - sigma([x,y]) lands in the kernel; it is taken
with the bracket of the total algebra on the supports of the columns, by the
package's one curvature loop, which section_curvature reads in kernel
coordinates.  One helper reads ad(v) restricted to the kernel, in kernel
coordinates, off the echelon, as the nonzero entries of each column: of
S(e_i) = ad(sigma e_i)|n for the section policy, of ad(e_x)|n over the total
basis for the strict one.
Invariance of a symmetric map f, x.f(key) = sum over slots s and kernel
indices r of S(x)[r][key_s] f(key with key_s replaced by r) for every
non-decreasing key, is read off those columns and the nonzero entries of the
table of f and of the module action rho(x).  That action comes from rep.sparse,
pulled back along q in the strict mode; a basis element with S(x) = 0 and
rho(x) = 0 is skipped, since both sides are 0 there.  validate_section sums
q . sigma over the nonzero entries of the columns of sigma and of the rows of
q.  The family sigma_t = sigma_0 + sum_i t_i (sigma_i - sigma_0) through n+1
rational sections (t_0 eliminated as 1 - t_1 - ... - t_n) is never built:
its curvature R_t is exactly quadratic in t, so it follows from rational
data at the vertices (each section's curvature, the differences D_i and the
cross brackets [D_i x, D_j y], all read by one kernel_coords call),
assembled into one MultiPoly per entry: the only polynomials of this
module.  param_curvature and Delta_f both read R_t that way, after one check
of the tuple of sections, and the data of each face of the simplex follows
from the tuple's without a solve.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations

from .cochains import Cochain, _ZERO, _nonzero, increasing_tuples
from .liealg import LieAlgebra, Representation, _bracket_into
from .linalg import solve_linear, sparse_rref, sparse_transpose
from .scalars import MultiPoly, _fraction

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
    "is_invariant",
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

    __slots__ = ("total", "base", "kernel", "iota", "proj", "_iota_rows", "_proj_rows",
                 "_echelon")

    def __init__(self, total: LieAlgebra, base: LieAlgebra, kernel: LieAlgebra,
                 iota, proj):
        iota = [[_fraction(c) for c in row] for row in iota]
        proj = [[_fraction(c) for c in row] for row in proj]
        if len(iota) != total.dim or any(len(row) != kernel.dim for row in iota):
            raise ValueError("iota must be dim(total) x dim(kernel)")
        if len(proj) != base.dim or any(len(row) != total.dim for row in proj):
            raise ValueError("q must be dim(base) x dim(total)")
        self._store(total, base, kernel,
                    [{j: a for j, a in enumerate(row) if a} for row in iota],
                    [{x: a for x, a in enumerate(row) if a} for row in proj])

    @classmethod
    def _of(cls, total: LieAlgebra, base: LieAlgebra, kernel: LieAlgebra, iota_rows,
            proj_rows) -> "Extension":
        """Trusted constructor from the rows as stored: the {column: entry} dicts of
        the nonzero Fraction entries of each row of iota (dim(total) rows of
        dim(kernel) columns) and of q (dim(base) rows of dim(total) columns).
        Shapes are not checked, nor exactness; callers run validate_extension."""
        ext = object.__new__(cls)
        ext._store(total, base, kernel, iota_rows, proj_rows)
        return ext

    def _store(self, total, base, kernel, iota_rows, proj_rows):
        """Keep the algebras and the rows, the dense matrices the rows hold, and
        the elimination of the rows of iota with [e_x, iota e_j] carried as
        column dn + x dn + j."""
        self.total = total
        self.base = base
        self.kernel = kernel
        self._iota_rows = iota_rows
        self._proj_rows = proj_rows
        self.iota = [[row.get(j, _ZERO) for j in range(kernel.dim)] for row in iota_rows]
        self.proj = [[row.get(x, _ZERO) for x in range(total.dim)] for row in proj_rows]
        dn = kernel.dim
        rows = [dict(row) for row in iota_rows]
        for x, plane in enumerate(total.sparse):
            for terms, iota_k in zip(plane, iota_rows):
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
    if len(sparse_rref(ext._proj_rows, dt)) != dg:
        failures.append("q is not surjective")
    if any(sum(a * ext._iota_rows[x][j] for x, a in terms.items() if j in ext._iota_rows[x])
           for terms in ext._proj_rows for j in range(dn)):
        failures.append("q . iota is not zero")
    iota_cols = sparse_transpose(ext._iota_rows, dn)
    for i, j in combinations(range(dn), 2):
        if not _preserves_bracket(iota_cols, ext.kernel, ext.total, i, j):
            failures.append(f"iota is not a homomorphism on kernel pair ({i},{j})")
    for pair in sorted(escapes):
        x, j = divmod(pair, dn)
        failures.append(f"iota image is not an ideal: [e_{x}, iota e_{j}] escapes")
    q_cols = sparse_transpose(ext._proj_rows, dt)
    for i, j in combinations(range(dt), 2):
        if not _preserves_bracket(q_cols, ext.total, ext.base, i, j):
            failures.append(f"q is not a homomorphism on pair ({i},{j})")
    return failures


def _preserves_bracket(cols, source, target, i, j):
    """True iff the map whose columns, one per source basis vector, are the
    given {row: entry} dicts of nonzero entries takes [e_i, e_j] of source to
    the bracket of the images."""
    out = _bracket_into(defaultdict(int), target, cols[i].items(), cols[j].items())
    for k, c in source.sparse[i][j]:
        for r, a in cols[k].items():
            out[r] -= a * c
    return not any(out.values())


class Section:
    """Rational linear right inverse of the projection, given as a
    dim(total) x dim(base) matrix; ``_cols[i]`` holds the nonzero Fraction
    entries {row: entry} of sigma e_i."""

    __slots__ = ("extension", "_cols")

    @classmethod
    def _of(cls, extension: Extension, cols) -> "Section":
        """Trusted constructor: ``cols`` as stored, unchecked."""
        sec = object.__new__(cls)
        sec.extension, sec._cols = extension, cols
        return sec

    def __init__(self, extension: Extension, matrix):
        mat = [[_fraction(c) for c in row] for row in matrix]
        if len(mat) != extension.total.dim or any(
            len(row) != extension.base.dim for row in mat
        ):
            raise ValueError("section matrix must be dim(total) x dim(base)")
        self.extension = extension
        self._cols = [{r: row[i] for r, row in enumerate(mat) if row[i]}
                      for i in range(extension.base.dim)]

    @property
    def matrix(self):
        """The dim(total) x dim(base) matrix, built on read; an entry that is
        not stored reads as Fraction(0)."""
        return [[col.get(r, _ZERO) for col in self._cols]
                for r in range(self.extension.total.dim)]

    def __repr__(self):
        return f"Section({self.extension!r})"


def _check_shape(ext: Extension, *sections):
    """ValueError unless each section's extension has the total and base
    dimensions of ext."""
    if any(sec.extension.total.dim != ext.total.dim or sec.extension.base.dim != ext.base.dim
           for sec in sections):
        raise ValueError("dimension mismatch")


def validate_section(ext: Extension, sec: Section) -> bool:
    """True iff q . sigma is exactly the identity."""
    _check_shape(ext, sec)
    for j in range(ext.base.dim):
        col = sec._cols[j]
        for i, terms in enumerate(ext._proj_rows):
            acc = 0
            for x, c in col.items():
                a = terms.get(x)
                if a is not None:
                    c = c if a == 1 else a * c
                    acc = acc + c if acc else c
            if acc != (1 if i == j else 0):
                return False
    return True


def _check_sections(ext: Extension, sections, names=None):
    """Raise on an entry of a tuple of sections that is not a valid section of
    ext: TypeError on one that is not a Section, InvalidSection on one that
    fails q . sigma = id.  ``names`` labels the sections in the messages, by
    default "section {idx}"."""
    if names is None:
        names = [f"section {idx}" for idx in range(len(sections))]
    for name, sec in zip(names, sections):
        if not isinstance(sec, Section):
            raise TypeError(f"{name} must be a Section, not {type(sec).__name__}")
        if not validate_section(ext, sec):
            raise InvalidSection(f"{name} fails q . sigma = id")


def kernel_coords(ext: Extension, *vecs):
    """The exact coordinates w with iota w = vec of each vector, one tuple per
    vector, from one solve_linear call on the rows of iota with the vectors as
    its right-hand sides; ExactnessViolation when any of them is unsolvable.
    With no vector it returns [] and eliminates nothing."""
    if not vecs:
        return []
    w = solve_linear(ext._iota_rows, vecs, ext.kernel.dim)
    if w is None:
        raise ExactnessViolation("value does not lie in the image of iota")
    return w


def _curvature_values(ext: Extension, sec: Section):
    """R(x,y) = [sigma x, sigma y] - sigma([x,y]) in total coordinates, one dense
    vector per increasing pair, over the nonzero entries of the columns of
    sigma: the package's one curvature loop."""
    _check_shape(ext, sec)
    cols = sec._cols
    vals = []
    for i, j in increasing_tuples(ext.base.dim, 2):
        val = _bracket_into([_ZERO] * ext.total.dim, ext.total, cols[i].items(),
                            cols[j].items())
        for k, c in ext.base.sparse[i][j]:
            for r, x in cols[k].items():
                val[r] = val[r] - x * c
        vals.append(val)
    return vals


def _kernel_cochain(ext: Extension, degree: int, coords) -> Cochain:
    """The kernel-valued cochain of the given degree on the base whose values,
    in key order, are the kernel coordinates coords."""
    return Cochain._of(ext.base, degree, ext.kernel.dim,
                       _nonzero(zip(increasing_tuples(ext.base.dim, degree), coords)))


def section_curvature(ext: Extension, sec: Section) -> Cochain:
    """The curvature of sec in kernel coordinates, all its values read by one
    kernel_coords call."""
    return _kernel_cochain(ext, 2, kernel_coords(ext, *_curvature_values(ext, sec)))


def _kernel_action(ext: Extension, v):
    """ad(v) restricted to the kernel, in kernel coordinates, for v given as the
    pairs (index, value) of its nonzero entries: for each kernel basis vector
    j, the pairs (r, entry) of the nonzero entries of column j, by r.

    [v, iota e_j] = sum_x v_x [e_x, iota e_j], so a pivot row's combination of
    its carried columns is a kernel coordinate and an inconsistent row's is
    nonzero exactly when the bracket escapes; non-pivot coordinates read 0.
    """
    dn = ext.kernel.dim
    cols = [[] for _ in range(dn)]
    for p, row in ext._echelon:
        out = {}
        for x, c in v:
            offset = dn + x * dn
            for j in range(dn):
                e = row.get(offset + j)
                if e is not None:
                    out[j] = out[j] + c * e if j in out else c * e
        if p == dn and any(out.values()):
            raise ExactnessViolation("value does not lie in the image of iota")
        for j, e in out.items():  # all 0 on an inconsistent row that got here
            if e:
                cols[j].append((p, e))
    return cols


def s_from_section(ext: Extension, sec: Section):
    """S(e_i) = ad(sigma e_i) restricted to the kernel, in kernel coordinates,
    one per base vector: for each kernel basis vector j, the pairs (r, entry)
    of the nonzero entries of column j of S(e_i)."""
    _check_shape(ext, sec)
    return [_kernel_action(ext, col.items()) for col in sec._cols]


def _difference_values(ext: Extension, sec_a: Section, sec_b: Section):
    """sigma_a(e_i) - sigma_b(e_i) in total coordinates, one dense vector per
    base vector, over the union of the supports of the two columns."""
    _check_shape(ext, sec_a, sec_b)
    diffs = []
    for col_a, col_b in zip(sec_a._cols, sec_b._cols):
        diff = [_ZERO] * ext.total.dim
        for r, a in col_a.items():
            diff[r] = a
        for r, b in col_b.items():
            diff[r] = diff[r] - b
        diffs.append(diff)
    return diffs


class _Vertices:
    """What Delta_f reads of sections s_0..s_n, in kernel coordinates: the
    family sigma_t = sigma_0 + sum_i t_i D_i, D_i = sigma_i - sigma_0, has
    the curvature

        R_t = R_0 + sum_i t_i (R_i - R_0 - Q_ii) + sum_{i,j} t_i t_j Q_ij,

    Q_ij(x,y) = [D_i x, D_j y], exactly quadratic in t.  ``curvatures[i]`` is
    R_i, the curvature of s_i; ``differences[i - 1]`` is D_i; ``cross[i, j]``,
    1 <= i <= j <= n, is the coefficient of t_i t_j: Q_ii, or Q_ij + Q_ji.
    All are Cochains on the base; curvatures and cross are None when they
    were not built.  A face (one section dropped) is derived, not solved."""

    __slots__ = ("base", "curvatures", "differences", "cross")

    def __init__(self, base, curvatures, differences, cross):
        self.base = base
        self.curvatures = curvatures
        self.differences = differences
        self.cross = cross

    @classmethod
    def of(cls, ext: Extension, sections, curved: bool) -> "_Vertices":
        """The data of the sections: the differences always, the curvatures and
        the cross terms when curved, every value read in kernel coordinates by
        one kernel_coords call.  The cross brackets are taken in the total
        algebra, so a value that escapes the kernel raises ExactnessViolation."""
        n = len(sections) - 1
        keys = increasing_tuples(ext.base.dim, 2)
        diffs = [_difference_values(ext, sec, sections[0]) for sec in sections[1:]]
        vals = [v for diff in diffs for v in diff]
        pairs = []
        if curved:
            vals += [v for sec in sections for v in _curvature_values(ext, sec)]
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            supports = [[[(r, x) for r, x in enumerate(col) if x] for col in diff]
                        for diff in diffs]
        for i, j in pairs:
            d_i, d_j = supports[i - 1], supports[j - 1]
            for a, b in keys:
                val = _bracket_into([_ZERO] * ext.total.dim, ext.total, d_i[a], d_j[b])
                if i != j:
                    _bracket_into(val, ext.total, d_j[a], d_i[b])
                vals.append(val)
        coords = iter(kernel_coords(ext, *vals))

        def take(degree, count):
            return _kernel_cochain(ext, degree, [next(coords) for _ in range(count)])

        differences = [take(1, ext.base.dim) for _ in diffs]
        if not curved:
            return cls(ext.base, None, differences, None)
        curvs = [take(2, len(keys)) for _ in sections]
        return cls(ext.base, curvs, differences, {pair: take(2, len(keys)) for pair in pairs})

    def face(self, i: int) -> "_Vertices":
        """The data of the sections without s_i.  For i >= 1 index i is dropped;
        without s_0, s_1 is the new base point: D'_j = D_j - D_1 and
        Q'_ij = Q_ij - Q_i1 - Q_1j + Q_11."""
        curvs, cross = self.curvatures, self.cross
        if i:
            differences = self.differences[:i - 1] + self.differences[i:]
        else:
            d_1 = self.differences[0]
            differences = [d - d_1 for d in self.differences[1:]]
        if curvs is None:
            return _Vertices(self.base, None, differences, None)
        if i:
            cross = {(a - (a > i), b - (b > i)): c for (a, b), c in cross.items()
                     if i not in (a, b)}
        else:
            q_11 = cross[1, 1]
            cross = {(a - 1, b - 1): (c - cross[1, a] + q_11 if a == b else
                                      c - cross[1, a] - cross[1, b] + q_11.scale(2))
                     for (a, b), c in cross.items() if a > 1}
        return _Vertices(self.base, curvs[:i] + curvs[i + 1:], differences, cross)


def _family_curvature(vertices: _Vertices) -> Cochain:
    """R_t of the family through the vertices, assembled from their curvatures
    and cross terms: every entry a MultiPoly in t_1..t_n."""
    n = len(vertices.differences)
    curvs, cross = vertices.curvatures, vertices.cross

    def monomial(*indices):
        return tuple(indices.count(v) for v in range(1, n + 1))

    coefficients = [(monomial(), curvs[0])]
    coefficients += [(monomial(i), curvs[i] - curvs[0] - cross[i, i]) for i in range(1, n + 1)]
    coefficients += [(monomial(i, j), q) for (i, j), q in cross.items()]
    dn = curvs[0].target_dim
    entries = {}
    for exps, coefficient in coefficients:
        for key, val in coefficient.nonzero.items():
            terms = entries.get(key)
            if terms is None:
                terms = entries[key] = [{} for _ in range(dn)]
            for t, x in zip(terms, val):
                if x:
                    t[exps] = x
    return Cochain._of(vertices.base, 2, dn, {
        key: tuple(MultiPoly._of(n, t) for t in terms) for key, terms in entries.items()})


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
    m = rep.space_dim
    if mode == "section":
        if sigma is None:
            raise ValueError("section mode needs a section")
        s_cols = s_from_section(ext, sigma)
        actions = rep.sparse
    else:
        s_cols = [_kernel_action(ext, [(x, 1)]) for x in range(ext.total.dim)]
        actions = _pullback(ext, rep)
    keys = f.key_tuples(f.source.dim, f.degree)
    values = f.nonzero
    zero = [Fraction(0)] * m
    for cols, act in zip(s_cols, actions):
        if act is None and not any(cols):
            continue
        for key in keys:
            val = values.get(key, zero)
            lhs = zero if act is None else [
                sum((val[s] * e for s, e in terms if val[s]), Fraction(0)) for terms in act]
            rhs = list(zero)
            for slot, k in enumerate(key):
                if not cols[k] or slot and key[slot - 1] == k:
                    continue
                rest = key[:slot] + key[slot + 1:]
                times = key.count(k)
                for r, c in cols[k]:
                    c = c * times
                    for i, b in enumerate(values.get(tuple(sorted(rest + (r,))), zero)):
                        if b:
                            rhs[i] = rhs[i] + c * b
            if lhs != rhs:
                return False
    return True


def _pullback(ext: Extension, rep: Representation):
    """The module action rho(q e_x) for each total basis vector e_x, as the
    nonzero (column, entry) pairs of each row; None where it is zero."""
    pulled = [[{} for _ in range(rep.space_dim)] for _ in range(ext.total.dim)]
    for rows, terms in zip(rep.sparse, ext._proj_rows):
        if rows is not None:
            for x, a in terms.items():
                for acc, row in zip(pulled[x], rows):
                    for s, e in row:
                        acc[s] = acc.get(s, 0) + a * e
    pulled = [[[(s, e) for s, e in acc.items() if e] for acc in act] for act in pulled]
    return [rows if any(rows) else None for rows in pulled]


def param_curvature(ext: Extension, sections) -> Cochain:
    """R_t of the family sigma_t = sigma_0 + sum_i t_i (sigma_i - sigma_0)
    through n+1 valid rational sections, every entry a MultiPoly in
    t_1..t_n (the barycentric t_0 eliminated), assembled from the data of
    the sections, all read by one kernel_coords call."""
    sections = list(sections)
    if len(sections) < 2:
        raise ValueError("need at least two sections to interpolate")
    _check_sections(ext, sections)
    return _family_curvature(_Vertices.of(ext, sections, True))
