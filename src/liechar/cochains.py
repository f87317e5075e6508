"""Alternating and symmetric multilinear calculus on a Lie algebra.

A degree-p cochain with values in an m-dimensional target stores one value
vector per strictly increasing basis index tuple (i_1 < ... < i_p); its value
on arbitrary arguments is the alternating multilinear extension.  A symmetric
p-linear map stores one value per non-decreasing tuple and extends
symmetrically.  Both are thin subclasses of one keyed-table base, which
validates and stores the table, adds, scales and compares tables; each
subclass names its canonical tuples and evaluates its extension.  A table
stores only the tuples whose vector is not all zero (``nonzero``), which the
operators read; ``values`` is a read-only view of the full table, zeros
included, which the writers walk.  A cochain sums over the product of the
arguments' supports (their nonzero coordinates), so the cost is the product
of the support sizes rather than d^p; a symmetric map is contracted slot by
slot, last argument outermost, and terms that share a partial sum compute it
once.  Scalar entries are Fraction or MultiPoly; every operator here is
generic over the two kinds.
The public constructors check and coerce every entry of a full table;
package code that already holds the nonzero vectors of exact entries (the
basis cochains of a cohomology space, the operators here) builds the table
through the trusted constructor _of, which skips those checks.

The composition of a symmetric map f with cochains a_1..a_p is a signed
shuffle sum over the ordered partitions of the output positions into
increasing blocks, one block per argument,

    f~(a_1..a_p)(x_1..x_N) = sum over partitions B_1..B_p of
                             sign(B) * f(a_1(x_B_1), .., a_p(x_B_p)),

so the iterated wedge into symmetric tensors is never built.  The
partitions are enumerated once per call, into one table of (weight, blocks)
shared by every output key, and not at all when the output has no key.  A
run of r consecutive arguments that are one cochain of even degree (the p - n
copies of a curvature in Delta_f) keeps only the partitions whose blocks in
the run start in increasing order, weighted by r!: reordering even-size
blocks is an even permutation and f is symmetric, so all r! orderings give
the same term.  Odd-degree repeats are summed in full.  The
Chevalley-Eilenberg differential with module action rho is

    (d w)(x_0..x_p) = sum_j (-1)^j rho(x_j) . w(.., x_j omitted, ..)
                    + sum_{i<j} (-1)^{i+j} w([x_i,x_j], .., x_i, x_j omitted, ..);

it applies the sparse rows of d to the flattened cochain.  One builder emits
those rows from the sparse tables the algebra and the module fill at
construction: a block sign * rho(e_t) per position of the key (none when
rho(e_t) is zero, as for a trivial module) and a block coeff * I per nonzero
c_ab^k of a pair of positions.  The matrix of d and the cohomology spaces in
characteristic use the same rows, so the formula exists once.
"""

from __future__ import annotations

import operator
from bisect import bisect
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .liealg import LieAlgebra, Representation
from .scalars import MultiPoly, _coerce_scalar

__all__ = [
    "Cochain",
    "SymMultiMap",
    "increasing_tuples",
    "nondecreasing_tuples",
    "ce_differential",
    "compose_sym",
]

_ZERO = Fraction(0)


def increasing_tuples(dim: int, degree: int):
    # where no tuple exists, itertools would still allocate degree indices
    return [] if degree > dim else list(combinations(range(dim), degree))


def nondecreasing_tuples(dim: int, degree: int):
    return list(_nondecreasing_walk(dim, degree))


def _nondecreasing_walk(dim: int, degree: int):
    """The non-decreasing tuples in lexicographic order, one at a time: the
    canonical order of symmetric tables, which the workspace reader walks."""
    if degree > 0 and not dim:  # none exist, as in increasing_tuples
        return iter(())
    return combinations_with_replacement(range(dim), degree)


def _perm_sign(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _nonzero(pairs):
    """{key: vector} for the (key, vector) pairs whose vector is not all zero."""
    return {key: val for key, val in pairs if any(val)}


def _flatten(table):
    """The entries of a table in the tuple-major basis over all its canonical tuples."""
    zeros = (_ZERO,) * table.target_dim
    return [x for key in table.key_tuples(table.source.dim, table.degree)
            for x in table.nonzero.get(key, zeros)]


class _FullTable(Mapping):
    """Read-only view of a table over all its canonical tuples, in key order."""

    __slots__ = ("_table",)

    def __init__(self, table):
        self._table = table

    def __getitem__(self, key):
        return self._table.entry(key)

    def __iter__(self):
        return iter(self._table.key_tuples(self._table.source.dim, self._table.degree))

    def __len__(self):
        return sum(1 for _ in self)

    def __contains__(self, key):
        return key in self._table.key_tuples(self._table.source.dim, self._table.degree)


class _Table:
    """One value vector per canonical index tuple, extended multilinearly.

    ``nonzero`` maps each canonical tuple whose vector is not all zero to that
    vector.  A subclass names its canonical tuples (``key_tuples``) and
    evaluates its extension.
    """

    __slots__ = ("source", "degree", "target_dim", "nonzero")

    def __init__(self, source: LieAlgebra, degree: int, target_dim: int, values):
        keys = self.key_tuples(source.dim, degree)
        table = {}
        for key in keys:
            if key not in values:
                raise ValueError(f"missing {self._kind} entry for tuple {key}")
            val = tuple(_coerce_scalar(x) for x in values[key])
            if len(val) != target_dim:
                raise ValueError(f"{self._kind} value at {key} has wrong length")
            if any(val):
                table[key] = val
        if len(values) != len(keys):
            raise ValueError(f"{self._kind} table has extra entries")
        self.source = source
        self.degree = degree
        self.target_dim = target_dim
        self.nonzero = table

    @classmethod
    def _of(cls, source: LieAlgebra, degree: int, target_dim: int, nonzero: dict):
        """Trusted constructor: ``nonzero`` must map canonical tuples to tuples of
        target_dim Fraction or MultiPoly entries, none of them all zero."""
        obj = object.__new__(cls)
        obj.source = source
        obj.degree = degree
        obj.target_dim = target_dim
        obj.nonzero = nonzero
        return obj

    @classmethod
    def from_function(cls, source, degree, target_dim, fn):
        return cls(source, degree, target_dim,
                   {key: fn(key) for key in cls.key_tuples(source.dim, degree)})

    values = property(_FullTable)  # the full table, zeros included

    def entry(self, key):
        """The vector at a tuple; one not stored (canonical or not) reads as zeros
        of the stored entries' kind (MultiPoly if the first stored vector has one)."""
        val = self.nonzero.get(tuple(key))
        return val or (_zero(next(iter(self.nonzero.values()), ())),) * self.target_dim

    def is_zero(self) -> bool:
        return not self.nonzero

    def map_values(self, fn):
        """fn applied to every entry; fn must take zero to zero, as the tuples
        the table does not store are not passed to it."""
        return self._of(self.source, self.degree, self.target_dim, _nonzero(
            (key, tuple(_coerce_scalar(fn(x)) for x in val)) for key, val in self.nonzero.items()))

    def scale(self, c):
        return self.map_values(lambda x: c * x)

    def _combine(self, other, op):
        if (type(other) is not type(self) or other.degree != self.degree
                or other.target_dim != self.target_dim
                or other.source.dim != self.source.dim):
            raise ValueError(f"{self._kind} shape mismatch")
        a, b = self.nonzero, other.nonzero
        zeros = (_ZERO,) * self.target_dim
        return self._of(self.source, self.degree, self.target_dim, _nonzero(
            (k, tuple(map(op, a.get(k, zeros), b.get(k, zeros)))) for k in a.keys() | b.keys()))

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
                and self.nonzero == other.nonzero)

    __hash__ = None

    def _check_arguments(self, args):
        if len(args) != self.degree:
            raise ValueError("argument count mismatch")
        if any(len(vec) != self.source.dim for vec in args):
            raise ValueError("dimension mismatch")

    def __repr__(self):
        return (f"{type(self).__name__}(degree={self.degree}, "
                f"source_dim={self.source.dim}, target_dim={self.target_dim})")


class Cochain(_Table):
    """Alternating multilinear map g^p -> V on a table of increasing tuples."""

    __slots__ = ()
    _kind = "cochain"
    key_tuples = staticmethod(increasing_tuples)

    def evaluate(self, args):
        """Alternating multilinear extension to arbitrary coefficient vectors."""
        self._check_arguments(args)
        supports = [[(i, x) for i, x in enumerate(vec) if x] for vec in args]
        out = zeros = [_ZERO] * self.target_dim
        for terms in product(*supports):
            seq = tuple(i for i, _ in terms)
            if len(set(seq)) != len(seq):  # a repeated index: the term is 0
                continue
            coeff = Fraction(_perm_sign(seq))
            for _, x in terms:
                coeff = coeff * x
            val = self.nonzero.get(tuple(sorted(seq)), zeros)
            out = [o + coeff * x for o, x in zip(out, val)]
        return out


class SymMultiMap(_Table):
    """Symmetric multilinear map n^p -> V on a table of non-decreasing tuples."""

    __slots__ = ()
    _kind = "symmetric-map"
    key_tuples = staticmethod(nondecreasing_tuples)

    @staticmethod
    def key_count(dim: int, degree: int) -> int:
        return comb(dim + degree - 1, degree) if dim else int(degree == 0)

    def evaluate(self, args):
        """Symmetric multilinear extension to arbitrary coefficient vectors."""
        self._check_arguments(args)
        return _contraction(self, lambda j, key: args[j])([()] * self.degree)


def _differential_rows(algebra: LieAlgebra, rep: Representation, degree: int):
    """Sparse rows {column: entry} of d: C^degree -> C^{degree+1} with values in
    the module rep, in the flattened tuple-major bases; no zero entries (an entry
    whose contributions cancel is deleted where it happens)."""
    if degree + 1 > algebra.dim:
        return []
    m = rep.space_dim
    structure = algebra.sparse
    action = rep.sparse
    col_of = {key: i * m for i, key in enumerate(increasing_tuples(algebra.dim, degree))}
    pairs = list(combinations(range(degree + 1), 2))
    rows = []
    for key in increasing_tuples(algebra.dim, degree + 1):
        block = [{} for _ in range(m)]
        for j, t in enumerate(key):
            if action[t]:  # each position omits another key: fresh columns
                base = col_of[key[:j] + key[j + 1:]]
                for row, action_row in zip(block, action[t]):
                    for c, x in action_row:
                        row[base + c] = -x if j % 2 else x
        for ai, bi in pairs:
            terms = structure[key[ai]][key[bi]]
            if not terms:
                continue
            rest = key[:ai] + key[ai + 1:bi] + key[bi + 1:]
            for k, c in terms:
                if k not in rest:
                    pos = bisect(rest, k)
                    coeff = -c if (ai + bi + pos) % 2 else c
                    for i, row in enumerate(block, col_of[rest[:pos] + (k,) + rest[pos:]]):
                        v = row[i] + coeff if i in row else coeff
                        if v:
                            row[i] = v
                        else:
                            del row[i]
        rows.extend(block)
    return rows


def _zero(entries):
    """The zero of the entries' kind: a MultiPoly zero if one is a MultiPoly."""
    if MultiPoly in map(type, entries):
        return next(c for c in entries if type(c) is MultiPoly) * 0
    return _ZERO


def ce_differential(w: Cochain, rep: Representation) -> Cochain:
    """Chevalley-Eilenberg differential of w with module action rep: the rows of
    d applied to w; each entry starts from the zero of w's kind (a MultiPoly
    zero when w holds one, else Fraction(0)); an all-zero block is not stored."""
    m = rep.space_dim
    if w.source.dim != rep.algebra.dim or w.target_dim != m:
        raise ValueError("dimension mismatch")
    flat = _flatten(w)
    zero = _zero(flat)
    out = []
    for row in _differential_rows(w.source, rep, w.degree):
        acc = zero
        for c, x in row.items():
            y = flat[c]
            if y:
                acc = acc + x * y
        out.append(acc)
    keys = increasing_tuples(w.source.dim, w.degree + 1)
    return Cochain._of(w.source, w.degree + 1, m,
                       _nonzero((key, tuple(out[i * m:i * m + m])) for i, key in enumerate(keys)))


def _ordered_partitions(positions, sizes, tied, floor=-1):
    """The ordered partitions of positions into increasing blocks of the given
    sizes; a block j with tied[j] starts after the start of block j - 1
    (floor, the start of the previous block)."""
    if not sizes:
        yield []
        return
    free = [p for p in positions if p > floor] if tied[0] else positions
    for block in combinations(free, sizes[0]):
        chosen = set(block)
        remaining = tuple(p for p in positions if p not in chosen)
        for tail in _ordered_partitions(remaining, sizes[1:], tied[1:], block[0] if block else -1):
            yield [block] + tail


def _shuffle_sum(args, keys, out_dim, fn):
    """(key, sum of weight * fn(key restricted to each block)) for each key, over
    the ordered partitions of the positions of key into increasing blocks, one
    per argument and of its degree, weighted by the sign of the permutation the
    blocks spell.  One table of (weight, blocks) serves every key, and none is
    built without a key; a run of one cochain of even degree > 0 keeps the
    partitions whose blocks in the run start in increasing order, weighted r!
    (see the module docstring)."""
    if not keys:
        return
    sizes = [a.degree for a in args]
    tied = [j > 0 and a is args[j - 1] and a.degree > 0 and a.degree % 2 == 0
            for j, a in enumerate(args)]
    weight = run = 1
    for t in tied:
        run = run + 1 if t else 1
        weight *= run
    table = [(weight * _perm_sign([pos for block in blocks for pos in block]), blocks)
             for blocks in _ordered_partitions(tuple(range(sum(sizes))), sizes, tied)]
    for key in keys:
        out = [_ZERO] * out_dim
        for w, blocks in table:
            val = fn([tuple(key[pos] for pos in block) for block in blocks])
            out = [o + w * x for o, x in zip(out, val)]
        yield key, tuple(out)


def _contraction(f: SymMultiMap, vector):
    """keys -> f with each slot j contracted against vector(j, keys[j]).

    inner(prefix, chosen) is f at the sorted indices ``chosen`` of the later
    slots, slot j < len(prefix) contracted against vector(j, prefix[j]); None
    (not a zero of either kind) when such a slot is zero; memoised below the
    top, where no two calls share their keys."""
    memo = {}
    zeros = (_ZERO,) * f.target_dim

    def inner(prefix, chosen):
        if not prefix:
            return f.nonzero.get(chosen, zeros)
        if (prefix, chosen) in memo:
            return memo[prefix, chosen]
        out = None
        for i, x in enumerate(vector(len(prefix) - 1, prefix[-1])):
            if x:
                pos = bisect(chosen, i)
                sub = inner(prefix[:-1], chosen[:pos] + (i,) + chosen[pos:])
                if sub is None:
                    break
                out = ([x * s for s in sub] if out is None
                       else [o + x * s for o, s in zip(out, sub)])
        if chosen:
            memo[prefix, chosen] = out
        return out

    return lambda keys: list(inner(tuple(keys), ()) or [_ZERO] * f.target_dim)


def compose_sym(f: SymMultiMap, args) -> Cochain:
    """f-tilde applied to the iterated symmetric-tensor wedge of the arguments.

    Each argument cochain (with values in the source of f) occupies one slot
    of f, so len(args) must equal f.degree.  Computed as the signed sum over
    ordered partitions of the output positions into per-argument increasing
    blocks, which avoids building symmetric tensor spaces explicitly.  The
    terms share the partial sums of one contraction of f and one table of
    partitions, in which a repeated even-degree argument counts once per set
    of blocks.
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
    degree = sum(a.degree for a in args)
    zeros = (_ZERO,) * f.source.dim
    term = _contraction(f, lambda j, key: args[j].nonzero.get(key, zeros))
    return Cochain._of(src, degree, f.target_dim, _nonzero(
        _shuffle_sum(args, increasing_tuples(src.dim, degree), f.target_dim, term)))
