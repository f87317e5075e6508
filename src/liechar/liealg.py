"""Finite-dimensional Lie algebras by structure constants.

An algebra stores ``sparse[i][j]``, the pairs (k, c) of the nonzero
e_k-coefficients of [e_i, e_j], and a representation the nonzero entries of
each row of each rho(e_t); no dense copy is kept.  algebra_from_brackets
reads the table off bracket data for i < j, which is antisymmetric by
construction, the Representation constructor takes dense matrices and keeps
their nonzero entries, and the adjoint module reads ad(e_i) off the table.
The bracket of two vectors, given as the (index, value) pairs of their
nonzero entries, is the package's one bilinear loop.  The public
constructors check the Jacobi identity and the representation property, so
downstream operators may assume validity.  The representation property has
one checked path from sparse matrices, _require_representation, which the
constructor runs after it reads its dense matrices and the workspace reader
runs on the sparse rows it reads.  Only objects that are valid by
construction (abelian algebras, trivial and adjoint modules, actions that
semidirect_product checks itself) skip the checks through the trusted
constructors ``_of``.

Constructions used throughout: abelian algebras, the Heisenberg algebras
h_{2m+1}, semidirect products h x| a by derivations, and the oscillator
algebra h_3 x| R with the rotation derivation.

The representation and derivation checks share one matrix defect, summed
over the nonzero entries of the sparse module tables; check_representation
skips a pair whose defect is 0 by the zero pattern alone.  Jacobi keeps its
own loop over the sparse table, which never forms the matrices ad(e_i) of a
large table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add, sub

from .scalars import _fraction

__all__ = [
    "LieAlgebra",
    "Representation",
    "algebra_from_brackets",
    "check_jacobi",
    "is_derivation",
    "semidirect_product",
    "abelian",
    "heisenberg",
    "heisenberg3",
    "oscillator",
    "check_representation",
    "trivial_representation",
    "adjoint_representation",
]

_ZERO = Fraction(0)


class LieAlgebra:
    """Lie algebra with a named basis and rational structure constants;
    ``sparse[i][j]`` holds the pairs (k, c), by k, of the nonzero [e_i, e_j]_k.
    Built by algebra_from_brackets, or by _of when valid by construction."""

    __slots__ = ("dim", "basis_names", "sparse")

    @classmethod
    def _of(cls, names, sparse) -> "LieAlgebra":
        """Trusted constructor: ``names`` must be unique strings and ``sparse`` the
        sparse table, as tuples, of an antisymmetric table satisfying Jacobi."""
        alg = object.__new__(cls)
        alg.dim, alg.basis_names, alg.sparse = len(names), names, sparse
        return alg

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.basis_names == other.basis_names and self.sparse == other.sparse

    __hash__ = None

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


def algebra_from_brackets(basis_names, brackets) -> LieAlgebra:
    """Build an algebra from sparse data {(i, j): {k: coeff}} for i < j.

    The sparse table is read off the data: zero coefficients dropped, each
    (i, j) negated for (j, i)."""
    names = tuple(basis_names)
    d = len(names)
    sparse = [[()] * d for _ in range(d)]
    for (i, j), coeffs in brackets.items():
        if not 0 <= i < j < d:
            raise ValueError(f"bracket indices ({i},{j}) must satisfy 0 <= i < j < dim")
        vec = {}
        for k, c in coeffs.items():
            k = int(k)
            if not 0 <= k < d:
                raise ValueError(f"bracket coefficient index {k} out of range")
            vec[k] = _fraction(c)
        terms = sparse[i][j] = tuple(sorted((k, c) for k, c in vec.items() if c))
        sparse[j][i] = tuple((k, -c) for k, c in terms)
    return _require_jacobi(LieAlgebra._of(_basis_names(names), tuple(map(tuple, sparse))))


def _basis_names(basis_names):
    names = tuple(str(n) for n in basis_names)
    if len(set(names)) != len(names):
        raise ValueError("basis names must be unique")
    return names


def _require_jacobi(alg: LieAlgebra) -> LieAlgebra:
    """``alg`` itself, or a ValueError naming the first triple where Jacobi fails."""
    bad = check_jacobi(alg)
    if bad:
        i, j, k, defect = bad[0]
        names = alg.basis_names
        raise ValueError(f"Jacobi identity fails at ({names[i]},{names[j]},{names[k]}) "
                         f"with defect {list(map(str, defect))}")
    return alg


def check_jacobi(alg: LieAlgebra):
    """All basis triples i<j<k violating Jacobi, with the defect vector.

    The defect is [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j];
    an empty report means the table is a Lie algebra.
    """
    d = alg.dim
    c = alg.sparse
    violations = []
    for i, j, k in combinations(range(d), 3):
        defect = [_ZERO] * d
        for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
            for l, cab in c[a][b]:
                for m, clz in c[l][z]:
                    defect[m] += cab * clz
        if any(defect):
            violations.append((i, j, k, tuple(defect)))
    return violations


def _bracket_into(out, alg: LieAlgebra, xs, ys):
    """out with the bracket added of the vectors whose nonzero entries are the
    pairs (index, value) of xs and of ys: the package's one bilinear loop."""
    planes = alg.sparse
    for i, xi in xs:
        plane = planes[i]
        for j, yj in ys:
            for k, c in plane[j]:
                out[k] = out[k] + xi * yj * c
    return out


def _defect(a, b, terms, mats):
    """ab - ba - sum of c mats[k] over the pairs (k, c) of terms, the defect of either
    bracket identity on matrices: rho([e_i, e_j]) = [rho e_i, rho e_j] and
    [D, ad e_i] = ad(D e_i), over matrices given as in Representation.sparse: a dict
    of the entries (r, s) some nonzero product reached, 0 when all its values are."""
    out = {}
    if a is not None and b is not None:
        for x, y, op in ((a, b, add), (b, a, sub)):
            for r, row in enumerate(x):
                for k, u in row:
                    for s, v in y[k]:
                        out[r, s] = op(out.get((r, s), _ZERO), u * v)
    for k, c in terms:
        for r, row in enumerate(mats[k] or ()):
            for s, x in row:
                out[r, s] = out.get((r, s), _ZERO) - c * x
    return out


def _sparse_rows(mat):
    """The pairs (column, entry) of the nonzero entries of each row; None when all are 0."""
    rows = tuple([tuple([(c, x) for c, x in enumerate(row) if x]) for row in mat])
    return rows if any(rows) else None


def is_derivation(alg: LieAlgebra, mat) -> bool:
    """True iff D[x,y] = [Dx,y] + [x,Dy], i.e. [D, ad e_i] = ad(D e_i) for every i."""
    d = alg.dim
    if len(mat) != d or any(len(row) != d for row in mat):
        raise ValueError("dimension mismatch")
    ads = adjoint_representation(alg).sparse
    rows = _sparse_rows(mat)
    return not any(any(_defect(rows, ad_i, [(k, row[i]) for k, row in enumerate(mat) if row[i]],
                               ads).values())
                   for i, ad_i in enumerate(ads))


def semidirect_product(h: LieAlgebra, a: LieAlgebra, action) -> LieAlgebra:
    """h x| a with a acting on h by the given derivation matrices.

    The bracket is [(x,r),(y,s)] = ([x,y] + r.Dy - s.Dx, [r,s]_a) extended
    bilinearly, where r.D = sum_j r_j action[j].  The action matrices must be
    derivations of h and a representation of a; both are checked eagerly,
    and the product is built through algebra_from_brackets, which checks Jacobi.
    """
    dh, da = h.dim, a.dim
    action = [[[Fraction(c) for c in row] for row in mat] for mat in action]
    if len(action) != da or any(
        len(mat) != dh or any(len(row) != dh for row in mat) for mat in action
    ):
        raise ValueError("action must supply one dim(h) x dim(h) matrix per basis element of a")
    for j, mat in enumerate(action):
        if not is_derivation(h, mat):
            raise ValueError(f"action matrix for {a.basis_names[j]} is not a derivation of h")
    bad = check_representation(Representation._of(a, dh, tuple(map(_sparse_rows, action))))
    if bad:
        i, j, _ = bad[0]
        raise ValueError(
            f"action is not a representation of a: fails on "
            f"({a.basis_names[i]},{a.basis_names[j]})"
        )
    brackets = {}
    for off, alg in ((0, h), (dh, a)):
        for i, j in combinations(range(alg.dim), 2):
            brackets[off + i, off + j] = {off + k: c for k, c in alg.sparse[i][j]}
    for j, mat in enumerate(action):
        for i in range(dh):  # [x_i, w_j] = -D_j x_i
            brackets[i, dh + j] = {k: -row[i] for k, row in enumerate(mat) if row[i]}
    return algebra_from_brackets(h.basis_names + a.basis_names, brackets)


def abelian(dim: int, names=None) -> LieAlgebra:
    names = _basis_names(names if names is not None else [f"e{i + 1}" for i in range(dim)])
    if len(names) != dim:
        raise ValueError("abelian(dim, names) needs dim basis names")
    return LieAlgebra._of(names, (((),) * dim,) * dim)


def heisenberg(m: int) -> LieAlgebra:
    """Heisenberg algebra of dimension 2m+1: [p_i, q_i] = z, z central."""
    if m < 1:
        raise ValueError("heisenberg(m) needs m >= 1")
    names = tuple(f"p{i + 1}" for i in range(m)) + \
        tuple(f"q{i + 1}" for i in range(m)) + ("z",)
    brackets = {(i, m + i): {2 * m: 1} for i in range(m)}
    return algebra_from_brackets(names, brackets)


def heisenberg3() -> LieAlgebra:
    """Three-dimensional Heisenberg algebra, basis (p, q, z), [p, q] = z."""
    return algebra_from_brackets(("p", "q", "z"), {(0, 1): {2: 1}})


def oscillator() -> LieAlgebra:
    """h3 x| R with the rotation derivation Dp = q, Dq = -p, Dz = 0.

    Basis order (p, q, z, w) with w spanning the acting line.
    """
    rotation = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    return semidirect_product(heisenberg3(), abelian(1, ("w",)), [rotation])


class Representation:
    """Linear action of an algebra: one space_dim x space_dim matrix rho(e_t) per
    basis element; ``sparse[t]`` is None when rho(e_t) is zero, else the pairs
    (column, entry) of the nonzero entries of each of its rows."""

    __slots__ = ("algebra", "space_dim", "sparse")

    def __init__(self, algebra: LieAlgebra, space_dim: int, matrices):
        mats = [[[_fraction(c) for c in row] for row in mat] for mat in matrices]
        if len(mats) != algebra.dim or any(
            len(mat) != space_dim or any(len(row) != space_dim for row in mat)
            for mat in mats
        ):
            raise ValueError("representation needs one space_dim x space_dim matrix per basis element")
        self.algebra, self.space_dim = algebra, space_dim
        self.sparse = tuple(map(_sparse_rows, mats))
        _require_representation(self)

    @classmethod
    def _of(cls, algebra: LieAlgebra, space_dim: int, sparse) -> "Representation":
        """Trusted constructor: ``sparse`` must hold one matrix per basis element, as
        the attribute does; the representation property is not checked."""
        rep = object.__new__(cls)
        rep.algebra, rep.space_dim, rep.sparse = algebra, space_dim, sparse
        return rep

    def __repr__(self):
        return f"Representation(dim={self.algebra.dim} -> gl({self.space_dim}))"


def _require_representation(rep: Representation) -> Representation:
    """``rep`` itself, or a ValueError naming the first pair where the
    representation property fails: the one check of a module given by its
    sparse matrices, whether the constructor or the workspace reader read them."""
    bad = check_representation(rep)
    if bad:
        i, j, _ = bad[0]
        names = rep.algebra.basis_names
        raise ValueError(f"representation property fails on ({names[i]},{names[j]})")
    return rep


def check_representation(rep: Representation):
    """Pairs i<j where rho([e_i,e_j]) != [rho(e_i), rho(e_j)], with dense defects.

    A pair whose commutator has a zero factor and whose bracket has nonzero
    coefficients only on zero matrices has defect 0 and is skipped."""
    alg, sparse, m = rep.algebra, rep.sparse, rep.space_dim
    violations = []
    for i, j in combinations(range(alg.dim), 2):
        terms = alg.sparse[i][j]
        if (sparse[i] is None or sparse[j] is None) and all(
                sparse[k] is None for k, _ in terms):
            continue
        defect = _defect(sparse[i], sparse[j], terms, sparse)
        if any(defect.values()):
            violations.append((i, j, [[defect.get((r, s), _ZERO) for s in range(m)]
                                      for r in range(m)]))
    return violations


def trivial_representation(algebra: LieAlgebra, space_dim: int = 1) -> Representation:
    if space_dim < 0:
        raise ValueError("space_dim must be non-negative")
    return Representation._of(algebra, space_dim, (None,) * algebra.dim)


def adjoint_representation(algebra: LieAlgebra) -> Representation:
    """ad(e_i), read off the sparse table: row k of ad(e_i) holds (j, c) for
    each (k, c) in sparse[i][j]."""
    d = algebra.dim
    mats = []
    for plane in algebra.sparse:
        rows = [[] for _ in range(d)]
        for j, terms in enumerate(plane):
            for k, c in terms:
                rows[k].append((j, c))
        mats.append(tuple(map(tuple, rows)) if any(rows) else None)
    return Representation._of(algebra, d, tuple(mats))
