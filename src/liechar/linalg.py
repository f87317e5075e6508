"""Exact fraction-free elimination over the rationals on sparse rows.

One loop, sparse_rref, does all elimination.  Its rows are {column: entry}
dicts of nonzero entries; it adds them one at a time, reducing each new row
against the pivot rows found so far, taking its lowest remaining column as a
new pivot and clearing that column from the older pivot rows.  The loop runs
on integers, Bareiss style (E. H. Bareiss, Math. Comp. 22, 1968): a row is
scaled by the lcm of its denominators, each reduction is
row = a row - b prow with a and b the two entries of the pivot column divided
by their gcd, and the row is then divided by the gcd of its entries, so it
stays primitive.  Each pivot row is divided by its pivot once, at the end.
The result is the reduced row echelon form over Fraction, which is unique
(the row space determines it), so it does not depend on the row order or on
which row supplies a pivot, and it equals the form reached by scanning
columns left to right.  Echelon forms, ranks, nullspace bases and solutions
are therefore reproducible.

Pivots come only from the first ncols columns.  Later columns are carried
along, scaled and divided with their row; each carried entry is made a
Fraction when its row is turned into integers, so every division on it is
exact, and like every other entry it is stored only while it is nonzero.
solve_linear puts the nonzero entries of its right-hand sides there, one
column each, so a list of right-hand sides shares one elimination.  That is
how a whole cochain of curvature values or section differences is expressed
in kernel coordinates: one elimination per cochain.  Every entry point takes
sparse rows of rationals; no dense matrix is built here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import _fraction

__all__ = ["sparse_rref", "sparse_transpose", "echelon_nullspace", "solve_linear"]

_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def _combine(row, a, b, prow, ncols):
    """row = (a * row - b * prow) / g in place, g the gcd of the integer entries in
    the first ncols columns; entries that cancel are dropped."""
    if a != 1:
        for k, x in row.items():
            row[k] = a * x
    for k, y in prow.items():
        v = row.get(k, 0) - b * y
        if v:
            row[k] = v
        else:
            del row[k]
    g = gcd(*[x for k, x in row.items() if k < ncols])
    if g > 1:
        for k, x in row.items():
            row[k] = x // g if k < ncols else x / g


def sparse_rref(rows, ncols):
    """Reduced row echelon form of sparse rows: [(pivot column, row)] by pivot.

    The rows are {column: entry} dicts of rationals (Fraction or int) with no
    zero entry in the first ncols columns; they are not modified.  Every
    returned row holds only nonzero Fraction entries: in a pivot row,
    Fraction(1) at its pivot and no entry at any other pivot.
    Entries past ncols are never pivots; they are scaled with their row, and
    a zero one, given or left by a cancellation, is not stored.  A row whose
    first ncols entries cancel while a later entry does not is an
    inconsistent equation for solve_linear; it is returned, after the pivot
    rows, under the pivot ncols, as a nonzero rational multiple of the row
    that Gauss-Jordan elimination over Fraction would leave.  Callers only
    test its carried entries for zero.
    """
    pivots = {}
    inconsistent = []
    for row in rows:
        lead = [c for c in row if c < ncols]
        if lead:  # the integer row, reduced against the pivot rows
            den = lcm(*[row[c].denominator for c in lead])
            if den == 1:
                row = {c: x.numerator if c < ncols else _fraction(x)
                       for c, x in row.items() if x}
            else:
                row = {c: x.numerator * (den // x.denominator) if c < ncols
                       else _fraction(x) * den
                       for c, x in row.items() if x}
            hits = [c for c in lead if c in pivots]
            for c in hits:
                prow = pivots[c]
                g = gcd(prow[c], row[c])
                _combine(row, prow[c] // g, row[c] // g, prow, ncols)
            if hits:
                lead = [c for c in row if c < ncols]
        if not lead:
            if any(row.values()):
                inconsistent.append((ncols, {c: _fraction(x) for c, x in row.items() if x}))
            continue
        c = min(lead)
        for prow in pivots.values():
            if c in prow:
                g = gcd(row[c], prow[c])
                _combine(prow, row[c] // g, prow[c] // g, row, ncols)
        pivots[c] = row
    made = {}  # one Fraction per (entry, pivot) pair: building one takes a microsecond
    echelon = []
    for c, row in sorted(pivots.items()):
        p = row[c]
        out = {}
        for k, x in row.items():
            if k >= ncols:
                out[k] = x if p == 1 else x / p
            elif k == c:
                out[k] = _FRACTION_ONE
            elif (x, p) in made:
                out[k] = made[x, p]
            else:
                out[k] = made[x, p] = Fraction(x, p)
        echelon.append((c, out))
    return echelon + inconsistent


def sparse_transpose(rows, ncols):
    """The ncols columns of sparse rows, as sparse rows indexed by row number."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def echelon_nullspace(echelon, ncols):
    """Sparse kernel basis from sparse_rref output, one vector per free column.

    The vector of a free column has entry 1 there and minus the echelon entry
    at each pivot; the vectors come in free-column order.
    """
    pivset = {p for p, _ in echelon}
    vecs = {free: {free: _FRACTION_ONE} for free in range(ncols) if free not in pivset}
    for p, row in echelon:
        for k, x in row.items():
            if k in vecs:
                vecs[k][p] = -x
    return list(vecs.values())


def solve_linear(rows, rhs, ncols):
    """One exact solution x of a x = b for each right-hand side b in rhs, as a
    tuple of ncols entries, or None if any of the systems is inconsistent;
    a is the matrix of ncols columns given by its sparse rows.

    Each b has len(rows) entries, Fraction or int.  The systems share one
    elimination, their right-hand sides carried as len(rhs) columns of which
    only the nonzero entries are stored, so every solution entry is a
    Fraction.  Free variables are set to zero.
    """
    if any(len(b) != len(rows) for b in rhs):
        raise ValueError("matrix dimension mismatch")
    echelon = sparse_rref([{**row, **{ncols + n: b[i] for n, b in enumerate(rhs) if b[i]}}
                           for i, row in enumerate(rows)], ncols)
    if echelon and echelon[-1][0] == ncols:
        return None
    x = [[_FRACTION_ZERO] * ncols for _ in rhs]
    for p, row in echelon:
        for n, xs in enumerate(x):
            xs[p] = row.get(ncols + n, _FRACTION_ZERO)
    return [tuple(xs) for xs in x]
