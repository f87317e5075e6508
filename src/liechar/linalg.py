"""Gaussian elimination over the rationals with deterministic pivoting.

Matrices are lists of equal-length row lists with Fraction entries.  Pivot
selection scans columns left to right and takes the first row with a nonzero
entry, so echelon forms, ranks, nullspace bases and solutions are fully
reproducible.  rref and solve_linear share one elimination loop; solve_linear
runs it on the rows augmented by the right-hand side, which may have MultiPoly
entries (the coefficient matrix stays rational); that is how curvature values
of polynomial section families are expressed in kernel coordinates.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "vec_zero", "vec_sub", "vec_is_zero",
    "zeros", "identity", "transpose", "mat_mul", "mat_vec",
    "rref", "rank", "nullspace", "column_space_basis", "solve_linear",
]


def vec_zero(m):
    return [Fraction(0)] * m


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_is_zero(u):
    return all(a == 0 for a in u)


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    out = []
    for row in a:
        out.append([sum(row[k] * b[k][j] for k in range(len(b)))
                    for j in range(len(b[0]) if b else 0)])
    return out


def mat_vec(a, x):
    if a and len(a[0]) != len(x):
        raise ValueError("matrix dimension mismatch")
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def _eliminate(m, ncols):
    """Reduce the rows m in place to reduced row echelon form in their first
    ncols columns and return the pivot columns.  Entries past ncols are
    carried along by the row operations and may be MultiPoly."""
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def rref(a):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(row) for row in a]
    return m, _eliminate(m, len(m[0]) if m else 0)


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a, ncols=None):
    """Deterministic basis of the kernel.  For each free column the basis
    vector has entry 1 there and minus the echelon entry at each pivot."""
    if not a:
        if ncols is None:
            return []
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    m, pivots = rref(a)
    n = len(a[0])
    basis = []
    pivset = set(pivots)
    for free in range(n):
        if free in pivset:
            continue
        v = vec_zero(n)
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][free]
        basis.append(v)
    return basis


def column_space_basis(a):
    """Deterministic basis of the column space: nonzero rows of rref(a^T)."""
    if not a or not a[0]:
        return []
    rows, _ = rref(transpose(a))
    return [row for row in rows if not vec_is_zero(row)]


def solve_linear(a, b):
    """One exact solution of a x = b, or None if inconsistent.

    Free variables are set to zero.  Entries of b may be MultiPoly; row
    operations then mix Fraction coefficients into the polynomial entries.
    """
    if len(b) != len(a):
        raise ValueError("matrix dimension mismatch")
    ncols = len(a[0]) if a else 0
    m = [[*row, y] for row, y in zip(a, b)]
    pivots = _eliminate(m, ncols)
    if any(not row[ncols] == 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(m, pivots):
        x[p] = row[ncols]
    return x
