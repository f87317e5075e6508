"""Cohomology spaces, Bott-Lecomte cochains, and characteristic classes.

H^p(g, V) is computed from exact matrices of the Chevalley-Eilenberg
differential, assembled from its term list (cochains): a block sign * rho(e_t)
per action term, coeff * I per bracket term.  The cocycle space Z is the
nullspace of d on degree p, the coboundary space B the column space of d on
degree p-1 (zero for p = 0), both with deterministic echelon bases.  One rref
of the matrix [B | Z], whose columns are the B vectors followed by the Z
vectors, gives the rest.  A column is a pivot exactly when it lies outside the
span of the columns before it, so the pivot columns past B are a greedy choice
H of cocycles completing B to a basis of Z.  The rows of those H pivots,
restricted to the Z columns, hold the H-coordinates of each cocycle basis
vector (class_projection).  Reduced row echelon forms are unique, so bases and
coordinates of classes are reproducible.

For an extension with kernel n and an invariant symmetric map f of degree p,
the relative cochain of n+1 sections is the simplex integral

    Delta_f(s_0..s_n) = int_{D_n} f  applied to
                        (a_1 ^ ... ^ a_n ^ R_t ^ ... ^ R_t)  dt,

with a_i = s_i - s_0, R_t the curvature of the interpolating section, and
p - n copies of R_t; the result has degree 2p - n.  For n = 0 no integration
happens and Delta_f(s) is f applied to p copies of the section curvature.
The primary (Chern-Weil) class of f is (1/p!) [Delta_f(s)], independent of
the section; the secondary class of an admissible f (both section curvature
composites vanish) is [Delta_f(s_a, s_b)] in degree 2p - 1.

verify_main_theorem checks the simplex-face boundary identity

    (k - n + 1) d(Delta_f(s_0..s_n)) = sum_i (-1)^i Delta_f(.. s_i omitted ..)

exactly, and reports which global sign makes both sides agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .cochains import (Cochain, SymMultiMap, _differential_terms, ce_differential,
                       compose_sym, increasing_tuples)
from .extensions import (Extension, InvalidSection, InvarianceWarning, Section,
                         is_invariant, param_curvature, param_section,
                         section_curvature, section_difference, validate_section)
from .liealg import LieAlgebra, Representation
from .linalg import column_space_basis, nullspace, rref, solve_linear
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
    "differential_matrix",
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


def _flatten(w: Cochain):
    return [x for val in w.values.values() for x in val]


def _unflatten(vec, algebra: LieAlgebra, degree: int, target_dim: int) -> Cochain:
    keys = increasing_tuples(algebra.dim, degree)
    return Cochain(algebra, degree, target_dim,
                   {key: vec[i * target_dim:(i + 1) * target_dim] for i, key in enumerate(keys)})


def differential_matrix(algebra: LieAlgebra, rep: Representation, degree: int):
    """Matrix of d: C^degree -> C^{degree+1} in the flattened tuple-major bases."""
    m = rep.space_dim
    col_of = {key: i * m for i, key in enumerate(increasing_tuples(algebra.dim, degree))}
    matrix = []
    for _, actions, brackets in _differential_terms(algebra, degree):
        block = [[Fraction(0)] * (len(col_of) * m) for _ in range(m)]
        for sgn, t, src in actions:
            for row, action_row in zip(block, rep.matrices[t]):
                for c, x in enumerate(action_row, col_of[src]):
                    if x:
                        row[c] += sgn * x
        for coeff, src in brackets:
            for i, row in enumerate(block, col_of[src]):
                row[i] += coeff
        matrix.extend(block)
    return matrix


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
        zvecs = nullspace(differential_matrix(algebra, rep, degree), ncols=dim_c)
        bvecs = []
        if degree and dim_c:
            bvecs = column_space_basis(differential_matrix(algebra, rep, degree - 1))
        nb = len(bvecs)
        rows, pivots = rref([list(col) for col in zip(*bvecs, *zvecs)])
        hvecs = [zvecs[c - nb] for c in pivots[nb:]]
        self._basis = bvecs + hvecs
        self.h_dim = len(hvecs)
        self.cocycle_basis = [
            _unflatten(v, algebra, degree, m) for v in zvecs]
        self.coboundary_basis = [
            _unflatten(v, algebra, degree, m) for v in bvecs]
        self.class_projection = [row[nb:] for row in rows[nb:nb + self.h_dim]]

    def coordinates_of(self, w: Cochain):
        """H-coordinates of a cocycle; NotACocycle if d w != 0."""
        if (w.degree != self.degree or w.target_dim != self.rep.space_dim
                or w.source.dim != self.algebra.dim):
            raise ValueError("cochain shape does not match this cohomology space")
        if not ce_differential(w, self.rep).is_zero():
            raise NotACocycle("differential of the cochain is nonzero")
        vec = _flatten(w)
        x = solve_linear([[col[i] for col in self._basis] for i in range(len(vec))], vec)
        if x is None:
            raise NotACocycle("cochain is not in the cocycle space")
        return tuple(x[len(x) - self.h_dim:])

    def __repr__(self):
        return (f"CohomologySpace(degree={self.degree}, z={len(self.cocycle_basis)}, "
                f"b={len(self.coboundary_basis)}, h={self.h_dim})")


def cohomology_space(algebra: LieAlgebra, rep: Representation, degree: int) -> CohomologySpace:
    if algebra.dim != rep.algebra.dim:
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


def _check_delta_inputs(ext, f, sections, rep, mode, names) -> bool:
    """Raise on inputs delta_f cannot use; True when f passes the invariance policy.

    ``names`` labels the sections in InvalidSection messages.
    """
    for name, sec in zip(names, sections):
        if not validate_section(ext, sec):
            raise InvalidSection(f"{name} fails q . sigma = id")
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


def _delta_f(ext: Extension, f: SymMultiMap, sections) -> Cochain:
    """delta_f on inputs that _check_delta_inputs accepted."""
    p = f.degree
    n = len(sections) - 1
    if n == 0:
        if p == 0:
            return Cochain(ext.base, 0, f.target_dim, {(): f.entry(())})
        curv = section_curvature(ext, sections[0])
        return compose_sym(f, [curv] * p)
    args = [section_difference(ext, sections[i], sections[0]).to_poly(n)
            for i in range(1, n + 1)]
    if p > n:
        curv_t = param_curvature(ext, param_section(ext, sections))
        args.extend([curv_t] * (p - n))
    integrand = compose_sym(f, args)
    return integrand.map_values(lambda s: integrate_poly_simplex(as_poly(s, n)))


def delta_f(ext: Extension, f: SymMultiMap, sections, rep: Representation,
            mode: str = "section") -> Cochain:
    """The relative cochain of n+1 sections: degree 2p - n, exact rational values.

    Emits InvarianceWarning (and proceeds) when f fails the configured
    invariance policy; raises DegreeError when f has fewer slots than there
    are section differences, and InvalidSection on a bad section.
    """
    sections = list(sections)
    if not sections:
        raise ValueError("need at least one section")
    names = [f"section {idx}" for idx in range(len(sections))]
    if not _check_delta_inputs(ext, f, sections, rep, mode, names):
        warnings.warn(InvarianceWarning(
            "symmetric map fails the configured invariance condition; "
            "the computed cochain need not be closed"))
    return _delta_f(ext, f, sections)


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
    if not _check_delta_inputs(ext, f, [sec], rep, mode, ["section 0"]):
        raise NotInvariant("symmetric map fails the configured invariance condition")
    representative = _delta_f(ext, f, [sec]).scale(Fraction(1, factorial(f.degree)))
    return _characteristic_class(ext, rep, representative, "representative is not closed")


def secondary_class(ext: Extension, f: SymMultiMap, sec_a: Section, sec_b: Section,
                    rep: Representation, mode: str = "section") -> CharacteristicClass:
    """Secondary class [Delta_f(sec_a, sec_b)] in H^{2p-1}(base, V).

    Admissibility requires f applied to p copies of either section curvature
    to vanish (NotAdmissible otherwise); f must satisfy the configured
    invariance policy for both sections.
    """
    p = f.degree
    if p < 1:
        raise DegreeError("secondary classes need a map of degree at least 1")
    sections = [sec_a, sec_b]
    invariant = _check_delta_inputs(ext, f, sections, rep, mode,
                                    ["first section", "second section"])
    for name, sec in zip(("first", "second"), sections):
        composite = compose_sym(f, [section_curvature(ext, sec)] * p)
        if not composite.is_zero():
            raise NotAdmissible(
                f"f applied to the {name} section curvature is nonzero")
    if not invariant:
        raise NotInvariant("symmetric map fails the configured invariance condition")
    return _characteristic_class(ext, rep, _delta_f(ext, f, sections),
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
    the Delta_f over each omitted section, exactly."""
    sections = list(sections)
    n = len(sections) - 1
    if n < 1:
        raise ValueError("the identity needs at least two sections")
    k = f.degree
    if k < n:
        raise DegreeError(f"map of degree {k} cannot absorb {n} section differences")
    full = delta_f(ext, f, sections, rep, mode)
    lhs = ce_differential(full, rep).scale(Fraction(k - n + 1))
    rhs = None
    for i in range(n + 1):
        omitted = sections[:i] + sections[i + 1:]
        term = delta_f(ext, f, omitted, rep, mode)
        if i % 2:
            term = -term
        rhs = term if rhs is None else rhs + term
    equal = lhs == rhs
    if lhs.is_zero() and rhs.is_zero():
        sign = 0
    elif equal:
        sign = 1
    elif lhs == rhs.scale(Fraction(-1)):
        sign = -1
    else:
        sign = None
    difference = None if equal else lhs - rhs
    return TheoremReport(lhs, rhs, equal, sign, difference)
