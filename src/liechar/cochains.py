"""Alternating and symmetric multilinear calculus on a Lie algebra.

A degree-p cochain with values in an m-dimensional target stores one value
vector per strictly increasing basis index tuple (i_1 < ... < i_p); its value
on arbitrary arguments is the alternating multilinear extension.  A symmetric
p-linear map stores one value per non-decreasing tuple and extends
symmetrically.  Both are thin subclasses of one keyed-table base, which
validates and stores the table, adds, scales and compares tables, and
evaluates the extension.  A subclass names only its canonical tuples and how
an arbitrary index tuple maps onto one: sorted with its permutation sign
(sign 0 on a repeated index) for cochains, plainly sorted for symmetric maps.
Evaluation sums over the product of the arguments' supports (their nonzero
coordinates), in the order of the full d^p loop, so the cost is the product
of the support sizes rather than d^p.  Scalar entries are Fraction or
MultiPoly; every operator here is generic over the two kinds.

Wedge products are computed as (p,q)-shuffle sums,

    (a ^_m b)(x_1..x_{p+q}) = sum over shuffles s of
                              sign(s) * m(a(x_s(1)..x_s(p)), b(x_s(p+1)..)),

which is division free and equals the normalized alternation
Alt(a ._m b) / (p! q!); the test suite exercises that equality exhaustively
in low degree.  The differential twisted by endomorphisms S(e_i) is

    (d_S w)(x_0..x_p) = sum_j (-1)^j S(x_j) . w(.., x_j omitted, ..)
                      + sum_{i<j} (-1)^{i+j} w([x_i,x_j], .., x_i, x_j omitted, ..);

the Chevalley-Eilenberg differential is the case S = rho for a module action
rho, and the covariant derivative is the case of an arbitrary linear S.  Both
apply one term list per increasing (p+1)-tuple key, which depends only on the
algebra: action terms (sign, t, src) add sign * S(e_t) . w(src); bracket terms
(coeff, src) add coeff * w(src), summed from each nonzero c_ab^k of the pair
at positions i < j of key, with k not in the rest of key and sign (-1)^{i+j}
times the shuffle sign of inserting k into the rest.  The matrix of d in
characteristic is assembled from the same list, so the formula exists once.
The curvature of a 1-cochain sigma into a Lie algebra is
R(x,y) = [sigma x, sigma y] - sigma([x,y]).
"""

from __future__ import annotations

import operator
from bisect import bisect
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from .liealg import LieAlgebra, Representation
from .linalg import mat_vec
from .scalars import MultiPoly, as_poly

__all__ = [
    "Cochain",
    "SymMultiMap",
    "BilinearProduct",
    "LinearAction",
    "increasing_tuples",
    "nondecreasing_tuples",
    "alt",
    "wedge",
    "ce_differential",
    "covariant_derivative",
    "curvature",
    "compose_sym",
    "sym_product",
    "lie_bracket_product",
    "scalar_multiplication",
    "evaluation_product",
    "sym_tensor_product",
]


def increasing_tuples(dim: int, degree: int):
    return list(combinations(range(dim), degree))


def nondecreasing_tuples(dim: int, degree: int):
    return list(combinations_with_replacement(range(dim), degree))


def _perm_sign(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _sort_with_sign(seq):
    """(sorted tuple, sign) for distinct indices; (None, 0) on repeats."""
    if len(set(seq)) != len(seq):
        return None, 0
    return tuple(sorted(seq)), _perm_sign(seq)


def _coerce_scalar(x):
    if isinstance(x, MultiPoly):
        return x
    return Fraction(x)


def _plain_sort(seq):
    return tuple(sorted(seq)), 1


class _Table:
    """One value vector per canonical index tuple, extended multilinearly.

    A subclass names its canonical tuples (``key_tuples``) and how an
    arbitrary index tuple maps onto one of them (``_normalize``: the
    canonical tuple and a sign, 0 when the term drops out).
    """

    __slots__ = ("source", "degree", "target_dim", "values")

    def __init__(self, source: LieAlgebra, degree: int, target_dim: int, values):
        keys = self.key_tuples(source.dim, degree)
        table = {}
        for key in keys:
            if key not in values:
                raise ValueError(f"missing {self._kind} entry for tuple {key}")
            val = tuple(_coerce_scalar(x) for x in values[key])
            if len(val) != target_dim:
                raise ValueError(f"{self._kind} value at {key} has wrong length")
            table[key] = val
        if len(values) != len(keys):
            raise ValueError(f"{self._kind} table has extra entries")
        self.source = source
        self.degree = degree
        self.target_dim = target_dim
        self.values = table

    @classmethod
    def from_function(cls, source, degree, target_dim, fn):
        return cls(source, degree, target_dim,
                   {key: fn(key) for key in cls.key_tuples(source.dim, degree)})

    @classmethod
    def zero(cls, source, degree, target_dim, nvars=None):
        z = Fraction(0) if nvars is None else MultiPoly.zero(nvars)
        return cls.from_function(source, degree, target_dim, lambda key: [z] * target_dim)

    def entry(self, key):
        return self.values[tuple(key)]

    def is_zero(self) -> bool:
        return all(x == 0 for val in self.values.values() for x in val)

    def map_values(self, fn):
        return type(self)(self.source, self.degree, self.target_dim,
                          {k: [fn(x) for x in v] for k, v in self.values.items()})

    def to_poly(self, nvars: int):
        return self.map_values(lambda x: as_poly(x, nvars))

    def scale(self, c):
        return self.map_values(lambda x: c * x)

    def _combine(self, other, op):
        if (type(other) is not type(self) or other.degree != self.degree
                or other.target_dim != self.target_dim
                or other.source.dim != self.source.dim):
            raise ValueError(f"{self._kind} shape mismatch")
        return type(self)(self.source, self.degree, self.target_dim,
                          {k: [op(a, b) for a, b in zip(v, other.values[k])]
                           for k, v in self.values.items()})

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return self.scale(Fraction(-1))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.degree == other.degree
                and self.target_dim == other.target_dim
                and self.source.dim == other.source.dim
                and self.values == other.values)

    __hash__ = None

    def _extend(self, args):
        """Sum of coeff * value over the product of the arguments' supports."""
        if len(args) != self.degree:
            raise ValueError("argument count mismatch")
        if any(len(vec) != self.source.dim for vec in args):
            raise ValueError("dimension mismatch")
        supports = [[(i, x) for i, x in enumerate(vec) if x] for vec in args]
        out = [Fraction(0)] * self.target_dim
        for terms in product(*supports):
            key, sgn = self._normalize(tuple(i for i, _ in terms))
            if sgn == 0:
                continue
            coeff = Fraction(sgn)
            for _, x in terms:
                coeff = coeff * x
            out = [o + coeff * x for o, x in zip(out, self.values[key])]
        return out

    def __repr__(self):
        return (f"{type(self).__name__}(degree={self.degree}, "
                f"source_dim={self.source.dim}, target_dim={self.target_dim})")


class Cochain(_Table):
    """Alternating multilinear map g^p -> V on a table of increasing tuples."""

    __slots__ = ()
    _kind = "cochain"
    key_tuples = staticmethod(increasing_tuples)
    _normalize = staticmethod(_sort_with_sign)

    def evaluate(self, args):
        """Alternating multilinear extension to arbitrary coefficient vectors."""
        return self._extend(args)


class SymMultiMap(_Table):
    """Symmetric multilinear map n^p -> V on a table of non-decreasing tuples."""

    __slots__ = ()
    _kind = "symmetric-map"
    key_tuples = staticmethod(nondecreasing_tuples)
    _normalize = staticmethod(_plain_sort)

    def evaluate(self, args):
        """Symmetric multilinear extension to arbitrary coefficient vectors."""
        return self._extend(args)


class BilinearProduct:
    """Bilinear map V1 x V2 -> V3 given by coefficients m[i][j][k]."""

    __slots__ = ("left_dim", "right_dim", "out_dim", "coeffs")

    def __init__(self, left_dim, right_dim, out_dim, coeffs):
        table = tuple(
            tuple(tuple(Fraction(c) for c in row) for row in plane)
            for plane in coeffs
        )
        if len(table) != left_dim or any(
            len(plane) != right_dim or any(len(row) != out_dim for row in plane)
            for plane in table
        ):
            raise ValueError("bilinear product table must be left x right x out")
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.out_dim = out_dim
        self.coeffs = table

    def apply(self, u, v):
        if len(u) != self.left_dim or len(v) != self.right_dim:
            raise ValueError("dimension mismatch")
        out = [Fraction(0)] * self.out_dim
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            plane = self.coeffs[i]
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                row = plane[j]
                for k in range(self.out_dim):
                    if row[k]:
                        out[k] = out[k] + ui * vj * row[k]
        return out


def lie_bracket_product(alg: LieAlgebra) -> BilinearProduct:
    """The bracket of alg as a bilinear product V x V -> V."""
    return BilinearProduct(alg.dim, alg.dim, alg.dim, alg.structure)


def scalar_multiplication(dim: int = 1) -> BilinearProduct:
    """Multiplication R x V -> V; with dim=1 plain scalar multiplication."""
    coeffs = [[[Fraction(1) if k == j else Fraction(0) for k in range(dim)]
               for j in range(dim)]]
    return BilinearProduct(1, dim, dim, coeffs)


def evaluation_product(dim: int) -> BilinearProduct:
    """End(V) x V -> V with endomorphisms flattened row-major (E_ij at i*dim+j)."""
    coeffs = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim * dim)]
    for i in range(dim):
        for j in range(dim):
            coeffs[i * dim + j][j][i] = Fraction(1)
    return BilinearProduct(dim * dim, dim, dim, coeffs)


def sym_tensor_product(dim: int, p: int, q: int) -> BilinearProduct:
    """S^p(V) x S^q(V) -> S^{p+q}(V) in the monomial bases of non-decreasing tuples."""
    left = nondecreasing_tuples(dim, p)
    right = nondecreasing_tuples(dim, q)
    out = nondecreasing_tuples(dim, p + q)
    out_index = {key: idx for idx, key in enumerate(out)}
    coeffs = [[[Fraction(0)] * len(out) for _ in right] for _ in left]
    for a, ka in enumerate(left):
        for b, kb in enumerate(right):
            coeffs[a][b][out_index[tuple(sorted(ka + kb))]] = Fraction(1)
    return BilinearProduct(len(left), len(right), len(out), coeffs)


class LinearAction:
    """A linear map x -> S(x) into endomorphisms of a target space."""

    __slots__ = ("source", "matrices", "space_dim")

    def __init__(self, source: LieAlgebra, matrices):
        mats = [[list(row) for row in mat] for mat in matrices]
        if len(mats) != source.dim:
            raise ValueError("need one matrix per basis element")
        m = len(mats[0]) if mats else 0
        if any(len(mat) != m or any(len(row) != m for row in mat) for mat in mats):
            raise ValueError("action matrices must be square and equal-sized")
        self.source = source
        self.matrices = mats
        self.space_dim = m


def alt(source: LieAlgebra, degree: int, target_dim: int, table) -> Cochain:
    """Antisymmetrization sum over permutations s of sign(s) * f(w_s(1),..,w_s(p)).

    ``table`` maps every length-``degree`` index tuple (repeats allowed) to a
    value vector; callables are accepted in place of a dict.  Already
    alternating input comes back multiplied by degree!.
    """
    get = table if callable(table) else table.__getitem__

    def fn(key):
        out = [Fraction(0)] * target_dim
        for perm in permutations(range(degree)):
            sgn = _perm_sign(perm)
            val = get(tuple(key[i] for i in perm))
            out = [o + sgn * x for o, x in zip(out, val)]
        return out

    return Cochain.from_function(source, degree, target_dim, fn)


def wedge(a: Cochain, b: Cochain, m: BilinearProduct) -> Cochain:
    """Shuffle-sum wedge product a ^_m b of degree a.degree + b.degree."""
    if a.source.dim != b.source.dim:
        raise ValueError("source algebra mismatch")
    if a.target_dim != m.left_dim or b.target_dim != m.right_dim:
        raise ValueError("dimension mismatch")
    p, q = a.degree, b.degree

    def fn(key):
        out = [Fraction(0)] * m.out_dim
        for left_pos in combinations(range(p + q), p):
            sgn = -1 if (sum(left_pos) - sum(range(p))) % 2 else 1
            left_key = tuple(key[i] for i in left_pos)
            right_key = tuple(key[i] for i in range(p + q) if i not in left_pos)
            val = m.apply(a.entry(left_key), b.entry(right_key))
            out = [o + sgn * x for o, x in zip(out, val)]
        return out

    return Cochain.from_function(a.source, p + q, m.out_dim, fn)


def _differential_terms(algebra: LieAlgebra, degree: int):
    """(key, action terms, bracket terms) of d_S for each increasing (degree+1)-tuple."""
    terms = []
    for key in increasing_tuples(algebra.dim, degree + 1):
        actions = [(-1 if j % 2 else 1, t, key[:j] + key[j + 1:]) for j, t in enumerate(key)]
        brackets = {}
        for ai, bi in combinations(range(degree + 1), 2):
            rest = key[:ai] + key[ai + 1:bi] + key[bi + 1:]
            for k, c in enumerate(algebra.structure[key[ai]][key[bi]]):
                if c and k not in rest:
                    pos = bisect(rest, k)
                    src = rest[:pos] + (k,) + rest[pos:]
                    brackets[src] = brackets.get(src, 0) + (-c if (ai + bi + pos) % 2 else c)
        terms.append((key, actions, [(c, src) for src, c in brackets.items() if c]))
    return terms


def _twisted_differential(w: Cochain, source_dim: int, space_dim: int, mats) -> Cochain:
    if w.source.dim != source_dim or w.target_dim != space_dim:
        raise ValueError("dimension mismatch")
    values = {}
    for key, actions, brackets in _differential_terms(w.source, w.degree):
        out = [Fraction(0)] * w.target_dim
        for sgn, t, src in actions:
            out = [o + sgn * x for o, x in zip(out, mat_vec(mats[t], w.values[src]))]
        for coeff, src in brackets:
            out = [o + coeff * x for o, x in zip(out, w.values[src])]
        values[key] = out
    return Cochain(w.source, w.degree + 1, w.target_dim, values)


def ce_differential(w: Cochain, rep: Representation) -> Cochain:
    """Chevalley-Eilenberg differential of w with module action rep."""
    return _twisted_differential(w, rep.algebra.dim, rep.space_dim, rep.matrices)


def covariant_derivative(w: Cochain, action: LinearAction) -> Cochain:
    """Differential twisted by the linear action S (trivial module underneath)."""
    return _twisted_differential(w, action.source.dim, action.space_dim, action.matrices)


def curvature(sigma: Cochain, br: BilinearProduct) -> Cochain:
    """R(x,y) = [sigma x, sigma y] - sigma([x,y]) for a 1-cochain into a Lie algebra."""
    if sigma.degree != 1:
        raise ValueError("curvature needs a 1-cochain")
    if not (br.left_dim == br.right_dim == br.out_dim == sigma.target_dim):
        raise ValueError("dimension mismatch")
    src = sigma.source

    def fn(key):
        i, j = key
        val = br.apply(sigma.entry((i,)), sigma.entry((j,)))
        for k, c in enumerate(src.bracket_basis(i, j)):
            if c == 0:
                continue
            sk = sigma.entry((k,))
            val = [v - c * x for v, x in zip(val, sk)]
        return val

    return Cochain.from_function(src, 2, sigma.target_dim, fn)


def _ordered_partitions(positions, sizes):
    if not sizes:
        yield []
        return
    for block in combinations(positions, sizes[0]):
        chosen = set(block)
        remaining = tuple(p for p in positions if p not in chosen)
        for tail in _ordered_partitions(remaining, sizes[1:]):
            yield [block] + tail


def compose_sym(f: SymMultiMap, args) -> Cochain:
    """f-tilde applied to the iterated symmetric-tensor wedge of the arguments.

    Each argument cochain (with values in the source of f) occupies one slot
    of f, so len(args) must equal f.degree.  Computed as the signed sum over
    ordered partitions of the output positions into per-argument increasing
    blocks, which avoids building symmetric tensor spaces explicitly.
    """
    if len(args) != f.degree:
        raise ValueError(
            f"slot-count mismatch: map of degree {f.degree} applied to {len(args)} cochains")
    if not args:
        raise ValueError("need at least one argument cochain")
    src = args[0].source
    for a in args:
        if a.source.dim != src.dim:
            raise ValueError("source algebra mismatch")
        if a.target_dim != f.source.dim:
            raise ValueError("dimension mismatch")
    degrees = [a.degree for a in args]
    total = sum(degrees)

    def fn(key):
        out = [Fraction(0)] * f.target_dim
        for blocks in _ordered_partitions(tuple(range(total)), degrees):
            seq = [pos for block in blocks for pos in block]
            sgn = _perm_sign(seq)
            vectors = [
                list(args[i].entry(tuple(key[pos] for pos in block)))
                for i, block in enumerate(blocks)
            ]
            val = f.evaluate(vectors)
            out = [o + sgn * x for o, x in zip(out, val)]
        return out

    return Cochain.from_function(src, total, f.target_dim, fn)


def sym_product(f: SymMultiMap, g: SymMultiMap, m: BilinearProduct) -> SymMultiMap:
    """Unsigned shuffle-sum product (f v g)(y_1..y_{p+q}) = sum m(f(block), g(block))."""
    if f.source.dim != g.source.dim:
        raise ValueError("source algebra mismatch")
    if f.target_dim != m.left_dim or g.target_dim != m.right_dim:
        raise ValueError("dimension mismatch")
    p, q = f.degree, g.degree

    def fn(key):
        out = [Fraction(0)] * m.out_dim
        for left_pos in combinations(range(p + q), p):
            left_key = tuple(key[i] for i in left_pos)
            right_key = tuple(key[i] for i in range(p + q) if i not in left_pos)
            val = m.apply(f.entry(left_key), g.entry(right_key))
            out = [o + x for o, x in zip(out, val)]
        return out

    return SymMultiMap.from_function(f.source, p + q, m.out_dim, fn)
