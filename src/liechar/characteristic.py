"""Cohomology spaces, Bott-Lecomte cochains, and characteristic classes.

H^p(g, V) is computed from exact sparse rows of the Chevalley-Eilenberg
differential, from the one builder of the rows of d_S in cochains (S = rho,
no entries from a zero rho(e_t)).  d is very sparse (on h_11 in degree 5 it
is 462 x 462 with 350 nonzeros), so its rows hold only nonzero entries and
never pass through dense form.  The cocycle space Z is the nullspace of the
echelon form of d on degree p; the coboundary space B is spanned by the
echelon rows of the transpose of d on degree p-1 (zero for p = 0).  The
rest is the reduced echelon form of [B | Z], whose columns are the B vectors
followed by the Z vectors: its pivot columns past B are a greedy choice H of
cocycles completing B to a basis of Z, and its H rows, restricted to the Z
columns, hold the H-coordinates of each cocycle basis vector
(class_projection).  Each Z vector is 1 at its own free column of d_p and 0
at the others, so restricting [B | Z] to those columns keeps its row space,
and one elimination of B there gives that form: with the columns in reversed
order, the nullspace vectors of its echelon, read back, are the reduced H
rows, led by the H columns, and h = dim Z - dim B.  Reduced row echelon
forms are unique, so bases and coordinates of classes are reproducible.
Basis cochains store only the blocks their sparse vectors touch, and the H
rows stay sparse until class_projection is read.

For an extension with kernel n and an invariant symmetric map f of degree p,
the relative cochain of n+1 sections is the simplex integral

    Delta_f(s_0..s_n) = int_{D_n} f  applied to
                        (a_1 ^ ... ^ a_n ^ R_t ^ ... ^ R_t)  dt,

with a_i = s_i - s_0, R_t the curvature of the interpolating section, and
p - n copies of R_t; the result has degree 2p - n.  R_t is exactly quadratic
in t (Chern-Simons; Bott),

    R_t = R_0 + sum_i t_i (R_i - R_0 - Q_ii) + sum_{i,j} t_i t_j Q_ij,
    Q_ij(x, y) = [a_i x, a_j y],

so Delta_f reads the rational data of the vertices (the curvatures R_i of the
sections, the differences a_i and the cross terms Q_ij), all put in kernel
coordinates by one kernel_coords call, and assembles R_t from it, one
MultiPoly per entry.  For n = 0 no integration happens and Delta_f(s) is f
applied to p copies of the section curvature.  For p = n >= 1 the integrand
has no curvature slot and is constant, so Delta_f = f(a_1 ^ ... ^ a_n) / n!,
since D_n has volume 1/n!, and no curvature is computed.  The section
differences a_i stay rational in every case; only R_t is a MultiPoly, and
the integrand is a polynomial only through it.  A cochain of degree above
dim g is zero: Delta_f of degree 2p - n > dim g is returned as the zero
cochain without R_t or any composition.  The vertex data is still built, so
every input check runs and a vertex value that escapes the kernel still
raises ExactnessViolation.
The primary (Chern-Weil) class of f is (1/p!) [Delta_f(s)], independent of
the section; the secondary class of an admissible f (Delta_f(s_a) and
Delta_f(s_b) vanish) is [Delta_f(s_a, s_b)] in degree 2p - 1.

verify_main_theorem checks the simplex-face boundary identity

    (k - n + 1) d(Delta_f(s_0..s_n)) = sum_i (-1)^i Delta_f(.. s_i omitted ..)

exactly, and reports which global sign makes both sides agree.  It builds the
data of the full tuple once and derives each face's: dropping s_i (i >= 1)
drops index i; dropping s_0 makes s_1 the base point, with differences
a_j - a_1 and Q'_ij = Q_ij - Q_i1 - Q_1j + Q_11.  secondary_class reads its
two admissibility checks off the faces of its pair in the same way.  Both
sides of the identity have degree 2p - n + 1; above dim g they are zero, and
verify_main_theorem returns them after the checks and the vertex data, with
no d and no face.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .cochains import (Cochain, SymMultiMap, _ZERO, _differential_rows, _flatten,
                       ce_differential, compose_sym, increasing_tuples)
from .extensions import (Extension, InvarianceWarning, Section, _check_sections,
                         _family_curvature, _Vertices, is_invariant)
from .liealg import LieAlgebra, Representation
from .linalg import echelon_nullspace, solve_linear, sparse_rref, sparse_transpose
from .scalars import as_poly, integrate_poly_simplex

__all__ = [
    "CohomologySpace",
    "CharacteristicClass",
    "TheoremReport",
    "DegreeError",
    "NotACocycle",
    "NotClosed",
    "NotAdmissible",
    "NotInvariant",
    "cohomology_space",
    "classes_equal",
    "delta_f",
    "chern_weil",
    "secondary_class",
    "verify_main_theorem",
]


class DegreeError(ValueError):
    """Degrees of the inputs cannot be combined as requested."""


class NotACocycle(ValueError):
    """A cochain expected to be closed is not."""


class NotClosed(ValueError):
    """A computed representative fails d = 0 (invariance violation or corrupt data)."""


class NotAdmissible(ValueError):
    """A secondary class needs both section-curvature composites to vanish."""


class NotInvariant(ValueError):
    """The symmetric map fails the configured invariance policy."""


def _unflatten(vec, keys, algebra: LieAlgebra, degree: int, m: int) -> Cochain:
    """The cochain of a sparse vector of nonzero Fractions in the tuple-major
    basis over keys: the blocks it touches, padded with Fraction(0)."""
    blocks = {}
    for i, x in vec.items():
        blocks.setdefault(keys[i // m], [_ZERO] * m)[i % m] = x
    return Cochain._of(algebra, degree, m,
                       {key: tuple(block) for key, block in blocks.items()})


class CohomologySpace:
    """Z^p, B^p and H^p data with deterministic bases and class coordinates."""

    def __init__(self, algebra: LieAlgebra, rep: Representation, degree: int):
        if degree < 0:
            raise DegreeError("cohomology degree must be non-negative")
        self.algebra = algebra
        self.rep = rep
        self.degree = degree
        m = rep.space_dim
        dim_c = comb(algebra.dim, degree) * m
        zvecs = echelon_nullspace(
            sparse_rref(_differential_rows(algebra, rep, degree), dim_c), dim_c)
        bvecs = []
        if degree and dim_c:
            below = comb(algebra.dim, degree - 1) * m
            bvecs = [row for _, row in sparse_rref(
                sparse_transpose(_differential_rows(algebra, rep, degree - 1), below),
                dim_c)]
        nz = len(zvecs)
        # Cocycle k is 1 at the k-th free column of d_p (its largest index) and 0 at
        # the others.  B on those columns, numbered nz - 1 - k: the nullspace of its
        # echelon, read back in reverse, is the class projection in reduced form.
        rev = {max(z): nz - 1 - k for k, z in enumerate(zvecs)}
        h_rows = echelon_nullspace(sparse_rref(
            [{rev[c]: x for c, x in b.items() if c in rev} for b in bvecs], nz), nz)[::-1]
        self.h_dim = len(h_rows)
        keys = increasing_tuples(algebra.dim, degree)
        self.cocycle_basis = [_unflatten(v, keys, algebra, degree, m) for v in zvecs]
        self.coboundary_basis = [_unflatten(v, keys, algebra, degree, m) for v in bvecs]
        self._basis = bvecs + [zvecs[nz - 1 - max(row)] for row in h_rows]
        self._h_rows = h_rows

    @property
    def class_projection(self):
        """The h x z matrix of the H-coordinates of the cocycle basis, built on read."""
        return [[row.get(j, _ZERO) for j in reversed(range(len(self.cocycle_basis)))]
                for row in self._h_rows]

    def coordinates_of(self, w: Cochain):
        """H-coordinates of a cocycle; NotACocycle if d w != 0.

        B + H spans exactly Z, so the solve fails exactly when d w != 0.
        """
        if (w.degree != self.degree or w.target_dim != self.rep.space_dim
                or w.source.dim != self.algebra.dim):
            raise ValueError("cochain shape does not match this cohomology space")
        vec = _flatten(w)
        x = solve_linear(sparse_transpose(self._basis, len(vec)), [vec], len(self._basis))
        if x is None:
            raise NotACocycle("differential of the cochain is nonzero")
        return x[0][len(self._basis) - self.h_dim:]

    def __repr__(self):
        return (f"CohomologySpace(degree={self.degree}, z={len(self.cocycle_basis)}, "
                f"b={len(self.coboundary_basis)}, h={self.h_dim})")


def cohomology_space(algebra: LieAlgebra, rep: Representation, degree: int) -> CohomologySpace:
    if rep.algebra is not algebra and rep.algebra != algebra:
        raise ValueError("representation is over a different algebra")
    return CohomologySpace(algebra, rep, degree)


def classes_equal(a: Cochain, b: Cochain, space: CohomologySpace) -> bool:
    """True iff a - b is a coboundary; both inputs must be cocycles."""
    return space.coordinates_of(a) == space.coordinates_of(b)


@dataclass
class CharacteristicClass:
    """A cocycle representative with its coordinates in a cohomology space."""

    degree: int
    representative: Cochain
    coordinates: tuple
    h_space: CohomologySpace


def _check_delta_inputs(ext, f, sections, rep, mode, names=None) -> bool:
    """Raise on inputs delta_f cannot use; True when f passes the invariance policy.

    ``names`` labels the sections in the messages of the section check.
    """
    _check_sections(ext, sections, names)
    if f.source.dim != ext.kernel.dim:
        raise ValueError("dimension mismatch: f is not defined on the kernel")
    if f.target_dim != rep.space_dim:
        raise ValueError("dimension mismatch: f does not map into the module")
    p = f.degree
    n = len(sections) - 1
    if p < n:
        raise DegreeError(
            f"map of degree {p} cannot absorb {n} section differences")
    if mode == "section":
        return all(is_invariant(f, ext, rep, "section", s) for s in sections)
    return is_invariant(f, ext, rep, mode)


def _delta_f(f: SymMultiMap, vertices: _Vertices) -> Cochain:
    """delta_f on the data of sections that _check_delta_inputs accepted; a
    cochain of degree 2p - n above dim g is zero and is not composed."""
    p = f.degree
    n = len(vertices.differences)
    if 2 * p - n > vertices.base.dim:
        return Cochain._of(vertices.base, 2 * p - n, f.target_dim, {})
    if n == 0:
        if p == 0:
            return Cochain(vertices.base, 0, f.target_dim, {(): f.entry(())})
        return compose_sym(f, [vertices.curvatures[0]] * p)
    if p == n:
        return compose_sym(f, vertices.differences).scale(Fraction(1, factorial(n)))
    integrand = compose_sym(f, vertices.differences + [_family_curvature(vertices)] * (p - n))
    return integrand.map_values(lambda s: integrate_poly_simplex(as_poly(s, n)))


def _checked_sections(ext, f, sections, rep, mode):
    """The sections as a list, after the checks of delta_f; InvarianceWarning
    (and proceed) when f fails the configured invariance policy."""
    sections = list(sections)
    if not sections:
        raise ValueError("need at least one section")
    if not _check_delta_inputs(ext, f, sections, rep, mode):
        warnings.warn(InvarianceWarning(
            "symmetric map fails the configured invariance condition; "
            "the computed cochain need not be closed"))
    return sections


def delta_f(ext: Extension, f: SymMultiMap, sections, rep: Representation,
            mode: str = "section") -> Cochain:
    """The relative cochain of n+1 sections: degree 2p - n, exact rational values.

    Emits InvarianceWarning (and proceeds) when f fails the configured
    invariance policy; raises DegreeError when f has fewer slots than there
    are section differences, InvalidSection on a section that fails
    q . sigma = id, and TypeError on an entry that is not a Section.
    """
    sections = _checked_sections(ext, f, sections, rep, mode)
    return _delta_f(f, _Vertices.of(ext, sections, f.degree > len(sections) - 1))


def _characteristic_class(ext, rep, representative, message) -> CharacteristicClass:
    """The class of a representative; NotClosed (with message) when d of it is nonzero."""
    space = cohomology_space(ext.base, rep, representative.degree)
    try:
        coords = space.coordinates_of(representative)
    except NotACocycle:
        raise NotClosed(message) from None
    return CharacteristicClass(representative.degree, representative, coords, space)


def chern_weil(ext: Extension, f: SymMultiMap, sec: Section, rep: Representation,
               mode: str = "section") -> CharacteristicClass:
    """Primary class (1/p!) [Delta_f(sec)] in H^{2p}(base, V).

    Requires f invariant under the configured policy; the representative is
    verified closed (NotClosed signals corrupt input).
    """
    if not _check_delta_inputs(ext, f, [sec], rep, mode):
        raise NotInvariant("symmetric map fails the configured invariance condition")
    vertices = _Vertices.of(ext, [sec], f.degree > 0)
    representative = _delta_f(f, vertices).scale(Fraction(1, factorial(f.degree)))
    return _characteristic_class(ext, rep, representative, "representative is not closed")


def secondary_class(ext: Extension, f: SymMultiMap, sec_a: Section, sec_b: Section,
                    rep: Representation, mode: str = "section") -> CharacteristicClass:
    """Secondary class [Delta_f(sec_a, sec_b)] in H^{2p-1}(base, V).

    Admissibility requires Delta_f(sec_a) and Delta_f(sec_b), f of p copies of
    each section curvature, to vanish (NotAdmissible otherwise); f must satisfy
    the configured invariance policy for both sections.
    """
    if f.degree < 1:
        raise DegreeError("secondary classes need a map of degree at least 1")
    sections = [sec_a, sec_b]
    invariant = _check_delta_inputs(ext, f, sections, rep, mode,
                                    ["first section", "second section"])
    vertices = _Vertices.of(ext, sections, True)
    for name, dropped in (("first", 1), ("second", 0)):
        if not _delta_f(f, vertices.face(dropped)).is_zero():
            raise NotAdmissible(
                f"f applied to the {name} section curvature is nonzero")
    if not invariant:
        raise NotInvariant("symmetric map fails the configured invariance condition")
    return _characteristic_class(ext, rep, _delta_f(f, vertices),
                                 "relative cochain of an admissible map is not closed")


@dataclass
class TheoremReport:
    """Both sides of the boundary identity and how they compare.

    sign is +1 when lhs == rhs, -1 when lhs == -rhs, 0 when both sides vanish
    (no sign information), and None when the sides differ beyond a sign, in
    which case ``difference`` holds lhs - rhs.
    """

    lhs: Cochain
    rhs: Cochain
    equal: bool
    sign: int | None
    difference: Cochain | None


def verify_main_theorem(ext: Extension, f: SymMultiMap, sections,
                        rep: Representation, mode: str = "section") -> TheoremReport:
    """Compare (k-n+1) d(Delta_f(all sections)) with the alternating sum of
    the Delta_f over each omitted section, exactly.

    The inputs are checked once, as delta_f checks them, and the data of the
    full tuple is built once; each face's data is derived from it.  When
    2p - n + 1 exceeds dim g both sides are zero by degree, and neither d nor
    a face is computed; the data is still built, so every check runs and an
    ExactnessViolation is raised where a vertex value escapes the kernel."""
    sections = list(sections)
    n = len(sections) - 1
    if n < 1:
        raise ValueError("the identity needs at least two sections")
    sections = _checked_sections(ext, f, sections, rep, mode)
    vertices = _Vertices.of(ext, sections, True)
    degree = 2 * f.degree - n + 1
    if degree > ext.base.dim:
        return TheoremReport(Cochain._of(ext.base, degree, rep.space_dim, {}),
                             Cochain._of(ext.base, degree, rep.space_dim, {}), True, 0, None)
    lhs = ce_differential(_delta_f(f, vertices), rep).scale(Fraction(f.degree - n + 1))
    rhs = _delta_f(f, vertices.face(0))
    for i in range(1, n + 1):
        term = _delta_f(f, vertices.face(i))
        rhs = rhs - term if i % 2 else rhs + term
    equal = lhs == rhs
    if lhs.is_zero() and rhs.is_zero():
        sign = 0
    elif equal:
        sign = 1
    elif lhs == -rhs:
        sign = -1
    else:
        sign = None
    difference = None if equal else lhs - rhs
    return TheoremReport(lhs, rhs, equal, sign, difference)
