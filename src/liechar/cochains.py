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
of the support sizes rather than d^p; a symmetric map is contracted with the
symmetric tensor of its arguments, as in the composition below, each vector
a degree-0 argument.  Entries of a symmetric map are Fraction; those of a
cochain or an argument are Fraction or MultiPoly, and the operators take both.
The public constructors check and coerce every entry of a full table;
package code that already holds the nonzero vectors of exact entries (the
basis cochains of a cohomology space, the operators here) builds the table
through the trusted constructor _of, which skips those checks.

The composition of a symmetric map f with cochains a_1..a_p is f applied to
their iterated wedge, a signed shuffle sum over the ordered partitions of
the output positions into increasing blocks, one block per argument,

    f~(a_1..a_p)(x_1..x_N) = sum over partitions B_1..B_p of
                             sign(B) * f(a_1(x_B_1), .., a_p(x_B_p)).

The shuffle sum is associative, so it is built in p wedge steps.  The wedge
starts as the empty key with the tensor 1; step j joins each stored key K
with each nonzero key B of a_j disjoint from it, with the sign of the (K, B)
shuffle (the parity of the pairs k in K, b in B with k > b), and multiplies
the tensor of K by the vector a_j(B) into a sparse symmetric tensor on the
source of f, keyed by the multiset of its coordinates.  f is symmetric, so
every ordering of a multiset meets one entry of f, and a repeated argument
needs no weighting.  The steps run on integers: each distinct argument is
scaled once by the lcm L_j of its denominators (a MultiPoly entry gives one
integer term per monomial), and a tensor key is one int of bit fields, so
that multiplying two terms adds their keys.  f is then contracted once per
output key, reading only its entries at the tensor's keys, and each entry is
divided once by the product of the L_j.  The entries of an output key are
MultiPoly when a term behind the key holds a MultiPoly entry of an argument;
the others are Fraction, as the same sums from Fraction(0) would give.
Nothing is built when the output degree exceeds the dimension of the source.

The Chevalley-Eilenberg differential with module action rho is

    (d w)(x_0..x_p) = sum_j (-1)^j rho(x_j) . w(.., x_j omitted, ..)
                    + sum_{i<j} (-1)^{i+j} w([x_i,x_j], .., x_i, x_j omitted, ..);

it applies the sparse rows of d to the flattened cochain.  One builder emits
those rows from the sparse tables the algebra and the module fill at
construction: a block sign * rho(e_t) per position of the key (none when
rho(e_t) is zero, as for a trivial module) and a block coeff * I per nonzero
c_ab^k of a pair of positions.  The tables keep an integral entry as an int,
so the rows of d over integral constants are integer rows, which the
elimination takes as they are.  The matrix of d and the cohomology spaces in
characteristic use the same rows, so the formula exists once.
"""

from __future__ import annotations

import operator
from bisect import bisect
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm

from .liealg import LieAlgebra, Representation, _entry
from .scalars import MultiPoly, _coerce_scalar, _fraction

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
    vector.  A subclass names its canonical tuples (``key_tuples``), the
    coercion of its entries (``_coerce``) and evaluates its extension.
    """

    __slots__ = ("source", "degree", "target_dim", "nonzero")

    def __init__(self, source: LieAlgebra, degree: int, target_dim: int, values):
        keys = self.key_tuples(source.dim, degree)
        table = {}
        for key in keys:
            if key not in values:
                raise ValueError(f"missing {self._kind} entry for tuple {key}")
            val = tuple(self._coerce(x) for x in values[key])
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
        target_dim entries ``_coerce`` keeps as they are, none of them all zero."""
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
        """fn applied to every entry, coerced as the constructor does; fn must take
        zero to zero, as the tuples the table does not store are not passed to it."""
        return self._of(self.source, self.degree, self.target_dim, _nonzero(
            (key, tuple(self._coerce(fn(x)) for x in val)) for key, val in self.nonzero.items()))

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
    _coerce = staticmethod(_coerce_scalar)

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
    _coerce = staticmethod(_fraction)

    @staticmethod
    def key_count(dim: int, degree: int) -> int:
        return comb(dim + degree - 1, degree) if dim else int(degree == 0)

    def evaluate(self, args):
        """Symmetric multilinear extension to arbitrary coefficient vectors: the
        contraction of compose_sym, each vector a degree-0 argument."""
        self._check_arguments(args)
        forms = [_integer_form([((), [_coerce_scalar(x) for x in vec])]) for vec in args]
        return list(_composed(self, forms).get(0, (_ZERO,) * self.target_dim))


def _differential_rows(algebra: LieAlgebra, rep: Representation, degree: int):
    """Sparse rows {column: entry} of d: C^degree -> C^{degree+1} with values in
    the module rep, in the flattened tuple-major bases; no zero entries (an entry
    whose contributions cancel is deleted where it happens).  Each entry is an
    int when it is integral, else a Fraction, as in the tables it is read from:
    the rows of an algebra and a module with integral constants are integer
    rows, and an entry that sums several contributions is stored as the tables
    store theirs."""
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
                        v = _entry(row[i] + coeff) if i in row else coeff
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
                acc = acc + y * x
        out.append(acc)
    keys = increasing_tuples(w.source.dim, w.degree + 1)
    return Cochain._of(w.source, w.degree + 1, m,
                       _nonzero((key, tuple(out[i * m:i * m + m])) for i, key in enumerate(keys)))


def _integer_form(pairs):
    """One argument's (key, vector) pairs times L, the lcm of their entries'
    denominators: ([(mask, above, terms)], L, nvars, top).  mask has bit i set
    for each index i of the key; above is the XOR over i of the masks of the
    indices larger than i, so the parity of (K & above).bit_count() is the
    parity of the pairs k in K, i in the key with k > i.  terms lists
    (coordinate, exponents, n) for each nonzero entry, n the entry times L:
    exponents None for a rational entry, one term per monomial of a MultiPoly.
    A key whose vector is zero is dropped.  nvars is the set of the MultiPoly
    entries' variable counts and top their largest exponent."""
    pairs = list(pairs)
    dens, nvars, top = {1}, set(), 0
    for _, vec in pairs:
        for x in vec:
            if type(x) is MultiPoly:
                nvars.add(x.nvars)
                for e, c in x.terms.items():
                    dens.add(c.denominator)
                    top = max(top, *e, 0)
            else:
                dens.add(x.denominator)
    scale = lcm(*dens)
    form = []
    for key, vec in pairs:
        terms = []
        for c, x in enumerate(vec):
            if type(x) is MultiPoly:
                terms += [(c, e, v.numerator * (scale // v.denominator))
                          for e, v in x.terms.items()]
            elif x:
                terms.append((c, None, x.numerator * (scale // x.denominator)))
        if terms:
            mask = above = 0
            for i in key:
                mask |= 1 << i
                above ^= ~((2 << i) - 1)
            form.append((mask, above, terms))
    return form, scale, nvars, top


class _TensorKeys:
    """The keys of the symmetric tensors of one call, each one int of bit
    fields, so that multiplying two tensor terms adds their keys: a field per
    coordinate of the source of f holds how often the coordinate occurs, the
    next field how many factors were MultiPoly terms (0 for a rational term),
    and one field per variable its exponent.  A field of ``width`` bits holds
    up to the call's argument count, and an exponent field the sum of the
    arguments' largest exponents.  ``row`` decodes a key, once per call, into
    the entries of f the contraction reads."""

    def __init__(self, f, forms, nvars):
        self.f, self.nvars = f, nvars
        self.width = len(forms).bit_length()
        self.poly_at = self.width * f.source.dim
        self.exps_at = self.poly_at + self.width
        self.ebits = max(1, sum(form[3] for form in forms).bit_length())
        self.rows = {}

    def encode(self, c, e):
        key = 1 << self.width * c
        if e is not None:
            key += 1 << self.poly_at
            for v, a in enumerate(e):
                key += a << self.exps_at + self.ebits * v
        return key

    def row(self, key):
        """(exponents, entries) of a key: exponents None for a rational term;
        entries lists (r, (exponents, d), n) for each nonzero entry n/d of f
        at the key's coordinates."""
        out = self.rows.get(key)
        if out is None:
            field = (1 << self.width) - 1
            coords = tuple(c for c in range(self.f.source.dim)
                           for _ in range(key >> self.width * c & field))
            exps = None
            if key >> self.poly_at & field:
                exps = tuple(key >> self.exps_at + self.ebits * v & (1 << self.ebits) - 1
                             for v in range(self.nvars))
            val = self.f.nonzero.get(coords, ())
            out = self.rows[key] = (
                exps, [(r, (exps, x.denominator), x.numerator) for r, x in enumerate(val) if x])
        return out


def _wedge_step(wedge, form):
    """The wedge {mask: tensor} times one argument in integer form, its terms
    (key increment, n): each stored mask K and argument key B disjoint from it
    add sign(K, B) times the tensor of K multiplied by B's vector at K | B
    (see the module docstring)."""
    out = {}
    for kmask, tensor in wedge.items():
        for bmask, above, terms in form:
            if kmask & bmask:
                continue
            odd = (kmask & above).bit_count() & 1
            target = out.get(kmask | bmask)
            if target is None:
                target = out[kmask | bmask] = {}
            for key, w in tensor.items():
                if odd:
                    w = -w
                for inc, x in terms:
                    new = key + inc
                    target[new] = target.get(new, 0) + w * x
    return out


def _contract(tensor, scale, keys):
    """f contracted with one output key's tensor, each entry divided once by
    scale: a MultiPoly in nvars variables when a tensor term has exponents,
    else a Fraction.  Only the entries of f at the tensor's keys are read; an
    entry n/d of f adds t * n to an integer sum per (exponents, d), and each
    sum is put over d once."""
    m, nvars = keys.f.target_dim, keys.nvars
    sums = [{} for _ in range(m)]
    poly = False
    for key, t in tensor.items():
        e, entries = keys.row(key)
        poly = poly or e is not None
        for r, k, n in entries:
            s = sums[r]
            s[k] = s.get(k, 0) + t * n
    out = []
    for s in sums:
        groups = {}
        for (e, d), n in s.items():
            groups.setdefault(e, []).append((d, n))
        value = {}
        for e, pairs in groups.items():
            den = lcm(*(d for d, _ in pairs))
            value[e] = Fraction(sum(n * (den // d) for d, n in pairs), den * scale)
        const = value.pop(None, _ZERO)
        out.append(MultiPoly._of(nvars, {e: c for e, c in value.items() if c}) + const
                   if poly else const)
    return tuple(out)


def _composed(f, forms):
    """{output mask: value} of f on the wedge of the arguments in integer form:
    one wedge step per argument, in order, from the empty key with tensor 1,
    then one contraction per output mask."""
    nvars = set().union(*(form[2] for form in forms))
    if len(nvars) > 1:
        raise ValueError("polynomial variable counts differ")
    nvars = next(iter(nvars), 0)
    keys = _TensorKeys(f, forms, nvars)
    encoded = {}
    wedge, scale = {0: {0: 1}}, 1
    for form in forms:
        if id(form) not in encoded:
            encoded[id(form)] = [(mask, above, [(keys.encode(c, e), n) for c, e, n in terms])
                                 for mask, above, terms in form[0]]
        wedge = _wedge_step(wedge, encoded[id(form)])
        scale *= form[1]
    return {mask: _contract(tensor, scale, keys) for mask, tensor in wedge.items()}


def compose_sym(f: SymMultiMap, args) -> Cochain:
    """f-tilde applied to the iterated symmetric-tensor wedge of the arguments.

    Each argument cochain (with values in the source of f) occupies one slot
    of f, so len(args) must equal f.degree.  One wedge step per argument, on
    integers (each distinct argument object put in integer form once), then
    f contracted once per output key and one division per entry; nothing is
    built when the output degree exceeds the dimension of the source.
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
    if degree > src.dim:
        return Cochain._of(src, degree, f.target_dim, {})
    forms = {}
    for a in args:
        if id(a) not in forms:
            forms[id(a)] = _integer_form(a.nonzero.items())
    values = _composed(f, [forms[id(a)] for a in args])
    return Cochain._of(src, degree, f.target_dim, _nonzero(sorted(
        (tuple(i for i in range(src.dim) if mask >> i & 1), val)
        for mask, val in values.items())))
