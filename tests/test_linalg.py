import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import liechar
from liechar import MultiPoly, linalg, solve_linear
from liechar.linalg import echelon_nullspace, sparse_rref, sparse_transpose

from helpers import (dense_kernel, dense_mat_mul, dense_mat_vec, dense_rref, dense_solve,
                     fraction_sparse_rref, rand_fraction, rand_matrix, rank,
                     rational_multiple, sparse_rows, to_dense)


def F(x):  # noqa: N802 - terse literal helper
    return Fraction(x)


def fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


# Dense views of the sparse results, for literal matrices in the tests below.

def rref(a):
    """(echelon rows padded with zero rows, pivot columns) from sparse_rref."""
    ncols = len(a[0]) if a else 0
    echelon = sparse_rref(sparse_rows(a), ncols)
    rows = to_dense([row for _, row in echelon], ncols)
    return rows + [[F(0)] * ncols for _ in range(len(a) - len(rows))], [p for p, _ in echelon]


def nullspace(a):
    """Kernel basis from echelon_nullspace, one vector per free column."""
    ncols = len(a[0]) if a else 0
    return to_dense(echelon_nullspace(sparse_rref(sparse_rows(a), ncols), ncols), ncols)


def solve_all(a, rhs):
    """solve_linear on the sparse rows of a dense matrix, which it leaves as they
    are, with the right-hand sides rhs: one tuple per right-hand side, or None."""
    rows = sparse_rows(a)
    ncols = len(a[0]) if a else 0
    x = solve_linear(rows, rhs, ncols)
    assert rows == sparse_rows(a)
    if x is not None:
        assert len(x) == len(rhs) and all(type(xs) is tuple and len(xs) == ncols for xs in x)
    return x


def solve(a, b):
    """The solution of a x = b, as a list, from a solve_linear call with b as
    its one right-hand side; None if inconsistent."""
    x = solve_all(a, [b])
    return None if x is None else list(x[0])


def column_space_basis(a):
    """The echelon rows of the sparse transpose: a basis of the column space."""
    cols = sparse_transpose(sparse_rows(a), len(a[0]) if a else 0)
    return to_dense([row for _, row in sparse_rref(cols, len(a))], len(a))


def test_every_entry_point_takes_sparse_rows():
    """The dense rank and to_dense live in the tests; nothing re-sparsifies."""
    assert linalg.__all__ == ["sparse_rref", "sparse_transpose", "echelon_nullspace",
                              "solve_linear"]
    assert not any(hasattr(linalg, name) for name in ("rank", "to_dense", "_sparse"))
    assert not hasattr(liechar, "rank")


class TestSolve:
    def test_identity(self):
        assert solve(fmat([[1, 0], [0, 1]]), [F(3), F(5)]) == [3, 5]

    def test_inconsistent_rows(self):
        assert solve(fmat([[1, 1], [2, 2]]), [F(1), F(3)]) is None

    def test_diagonal_back_substitution(self):
        assert solve(fmat([[2, 0], [0, 4]]), [F(1), F(1)]) == \
            [Fraction(1, 2), Fraction(1, 4)]

    def test_underdetermined_returns_some_solution(self):
        a = fmat([[1, 1, 0]])
        x = solve(a, [F(5)])
        assert dense_mat_vec(a, x) == [5]


    def test_polynomial_right_hand_side(self):
        # right-hand sides are rational: a MultiPoly entry is refused, whether
        # its row holds a pivot or is zero
        t = MultiPoly(1, {(1,): 1})
        a = fmat([[2, 0], [0, 1], [0, 0]])
        for b in ([t * 2, F(3), F(0)], [F(2), F(3), t]):
            with pytest.raises(TypeError, match="^polynomial .* is not a rational scalar$"):
                solve(a, b)


class TestRankNullspace:
    def test_zero_matrix(self):
        assert rank(fmat([[0, 0], [0, 0]])) == 0
        assert nullspace(fmat([[0, 0], [0, 0]])) == [[1, 0], [0, 1]]

    def test_identity(self):
        assert rank(fmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
        assert nullspace(fmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []

    def test_proportional_rows(self):
        assert rank(fmat([[1, 2], [2, 4]])) == 1

    def test_single_row_kernel(self):
        # convention: the free variable gets 1, pivots get minus the entry
        assert nullspace(fmat([[1, 1]])) == [[-1, 1]]

    def test_rank_plus_nullity_seeded(self):
        rng = random.Random(5)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, rows, cols)
            assert rank(a) + len(nullspace(a)) == cols

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(6)
        for _ in range(50):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            for v in nullspace(a):
                assert all(x == 0 for x in dense_mat_vec(a, v))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 16))
    def test_rank_transpose_invariant(self, seed):
        rng = random.Random(seed)
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        at = [list(col) for col in zip(*a)]
        assert rank(a) == rank(at)


class TestColumnSpace:
    def test_spans_the_image(self):
        rng = random.Random(9)
        for _ in range(40):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            basis = column_space_basis(a)
            assert len(basis) == rank(a)
            if basis:
                mat = [[col[i] for col in basis] for i in range(len(a))]
                for j in range(len(a[0])):
                    col = [a[i][j] for i in range(len(a))]
                    assert solve(mat, col) is not None

    def test_deterministic(self):
        a = fmat([[1, 2], [2, 4], [0, 1]])
        assert column_space_basis(a) == column_space_basis(a)


class TestRref:
    def test_pivot_normalization(self):
        r, pivots = rref(fmat([[0, 2, 4], [1, 1, 1]]))
        assert pivots == [0, 1]
        assert r[0][0] == 1 and r[1][1] == 1


def seeded_matrices(rng, count):
    """Random rational matrices, with zero, rank-deficient and empty ones among them."""
    yield []
    yield [[]]
    yield [[], []]
    for _ in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.randrange(4)
        if kind == 0:
            yield [[F(0)] * cols for _ in range(rows)]
        elif kind == 1:
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            yield dense_mat_mul(rand_matrix(rng, rows, inner), rand_matrix(rng, inner, cols))
        elif kind == 2:
            # sparse: most entries zero
            yield [[rand_fraction(rng) if rng.random() < 0.3 else F(0) for _ in range(cols)]
                   for _ in range(rows)]
        else:
            yield rand_matrix(rng, rows, cols)


def kinds(rows):
    return [[type(x) for x in row] for row in rows]


class TestAgainstDenseLoop:
    """The one sparse loop and the dense views of its results against the dense
    reference loop."""

    def test_sparse_rref_matches_dense_rref(self):
        rng = random.Random(71)
        for a in seeded_matrices(rng, 300):
            ncols = len(a[0]) if a else 0
            rows, pivots = dense_rref(a)
            given = sparse_rows(a)
            echelon = sparse_rref(given, ncols)
            assert given == sparse_rows(a)
            assert [p for p, _ in echelon] == pivots
            assert sparse_rows(rows) == [row for _, row in echelon] + [{}] * (len(a) - len(pivots))
            assert all(type(x) is Fraction for _, row in echelon for x in row.values())

    def test_row_order_does_not_matter(self):
        rng = random.Random(72)
        for a in seeded_matrices(rng, 100):
            ncols = len(a[0]) if a else 0
            shuffled = list(a)
            rng.shuffle(shuffled)
            assert sparse_rref(sparse_rows(shuffled), ncols) == sparse_rref(sparse_rows(a), ncols)

    def test_dense_wrappers_match(self):
        rng = random.Random(73)
        for a in seeded_matrices(rng, 200):
            rows, pivots = dense_rref(a)
            got_rows, got_pivots = rref(a)
            assert (got_rows, got_pivots) == (rows, pivots)
            assert kinds(got_rows) == [[Fraction] * len(row) for row in rows]
            assert rank(a) == len(pivots)
            if a and a[0]:
                expected = dense_kernel(a, len(a[0]))
                assert nullspace(a) == expected
                assert kinds(nullspace(a)) == kinds(expected)
                at_rows, at_pivots = dense_rref([list(col) for col in zip(*a)])
                assert column_space_basis(a) == at_rows[:len(at_pivots)]

    def test_echelon_nullspace_and_transpose(self):
        rng = random.Random(74)
        for a in seeded_matrices(rng, 100):
            ncols = len(a[0]) if a else 0
            kernel = echelon_nullspace(sparse_rref(sparse_rows(a), ncols), ncols)
            for v in kernel:
                dense = [v.get(j, F(0)) for j in range(ncols)]
                assert all(x == 0 for x in dense_mat_vec(a, dense))
            assert len(kernel) == ncols - rank(a)
            assert sparse_transpose(sparse_rows(a), ncols) == sparse_rows(
                [list(col) for col in zip(*a)] if ncols else [])

    def test_solve_linear_matches_dense_loop(self):
        rng = random.Random(75)
        for a in seeded_matrices(rng, 300):
            if not a:
                continue
            ncols = len(a[0])
            for b in ([rand_fraction(rng) for _ in a],
                      dense_mat_vec(a, [rand_fraction(rng) for _ in range(ncols)])):
                expected = dense_solve(a, b)
                got = solve(a, b)
                assert got == expected
                if expected is not None:
                    assert [type(x) for x in got] == [Fraction] * ncols

    @staticmethod
    def rhs_entries(rng):
        """Random Fraction and int entries, by kind."""
        return {"fraction": lambda: rand_fraction(rng),
                "int": lambda: rng.randint(-3, 3)}

    def test_several_rhs_match_one_solve_each(self):
        """k right-hand sides give the k one-vector solutions, one tuple each, of
        Fraction entries."""
        rng = random.Random(77)
        entries = self.rhs_entries(rng)
        deficient = solvable = 0
        for a in seeded_matrices(rng, 200):
            if not a or not a[0]:
                continue
            ncols = len(a[0])
            deficient += rank(a) < min(len(a), ncols)
            for kind, entry in entries.items():
                k = rng.randint(1, 4)
                cols = [dense_mat_vec(a, [entry() for _ in range(ncols)]) for _ in range(k)]
                if rng.random() < 0.5:  # a column that may well be inconsistent
                    cols.insert(rng.randrange(k + 1), [entry() for _ in a])
                singles = [solve(a, b) for b in cols]
                assert singles == [dense_solve(a, b) for b in cols]
                got = solve_all(a, cols)
                if None in singles:
                    assert got is None
                    continue
                solvable += 1
                assert got == [tuple(x) for x in singles]
                assert kinds(got) == [[Fraction] * ncols for _ in singles]
        assert deficient > 50 and solvable > 200

    def test_one_inconsistent_rhs_gives_none(self):
        """The result is None when exactly one of the right-hand sides, at any
        position, is inconsistent and the others are solvable."""
        rng = random.Random(78)
        entries = self.rhs_entries(rng)
        seen = dict.fromkeys(entries, 0)
        for a in seeded_matrices(rng, 300):
            if not a or not a[0]:
                continue
            ncols = len(a[0])
            for kind, entry in entries.items():
                bad = [entry() for _ in a]
                if dense_solve(a, bad) is not None:
                    continue
                k = rng.randint(1, 3)
                good = [dense_mat_vec(a, [entry() for _ in range(ncols)]) for _ in range(k)]
                assert solve_all(a, good) is not None
                for pos in range(k + 1):
                    assert solve_all(a, good[:pos] + [bad] + good[pos:]) is None
                seen[kind] += 1
        assert min(seen.values()) > 50

    def test_several_rhs_shapes(self):
        a = fmat([[1, 0], [0, 2], [1, 1]])
        assert solve_all(a, [[F(1), F(2), F(2)], [F(0), F(4), F(2)]]) == [(1, 1), (0, 2)]
        assert solve_all(a, [(F(1), F(2), F(2))]) == [(1, 1)]
        assert solve_all(a, []) == []
        assert solve_linear([], [], 0) == []
        assert solve_linear([], [[]], 0) == [()]
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            solve_all(a, [[F(1), F(2), F(2)], [F(0), F(4)]])
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            solve_all(a, [[F(1), F(2), F(2), F(0)]])


class TestZeroCarriedEntries:
    """No zero is stored past ncols: not one given, not one left by a
    cancellation, not a zero right-hand-side entry of solve_linear."""

    def test_given_zeros_are_dropped(self):
        assert sparse_rref([{0: F(2), 1: 0, 2: F(3), 3: F(0)}], 1) == [(0, {0: 1, 2: F(3) / 2})]

    def test_cancelled_carried_entries_are_dropped(self):
        # the second row minus the first is (0, -1 | 0): its carried 2 cancels
        echelon = sparse_rref([{0: F(1), 1: F(1), 2: F(2)}, {0: F(1), 2: F(2)}], 2)
        assert echelon == [(0, {0: 1, 2: 2}), (1, {1: 1})]

    def test_solve_linear_carries_only_nonzero_right_hand_sides(self, monkeypatch):
        captured = []
        original = linalg.sparse_rref

        def capture(rows, ncols):
            captured.extend(dict(row) for row in rows)
            return original(rows, ncols)

        monkeypatch.setattr(linalg, "sparse_rref", capture)
        x = solve_linear([{0: F(1)}, {1: F(1)}], [[F(0), F(2)], [3, 0]], 2)
        assert captured == [{0: 1, 3: 3}, {1: 1, 2: 2}]
        assert x == [(0, 2), (3, 0)]
        assert all(type(v) is Fraction for xs in x for v in xs)


class TestExactCarriedEntries:
    """Carried entries are made exact before any division, so int and Fraction
    input never comes back as a float."""

    def test_one_half(self):
        x = solve_linear([{0: Fraction(2)}], [[1]], 1)
        assert x == [(Fraction(1, 2),)] and type(x[0][0]) is Fraction

    def test_sparse_rref_carries_fractions(self):
        ((p, row),) = sparse_rref([{0: Fraction(2), 1: 3}], 1)
        assert (p, row) == (0, {0: 1, 1: Fraction(3, 2)})
        assert type(row[1]) is Fraction
        ((_, row),) = sparse_rref([{0: 1, 1: 3}], 1)
        assert type(row[1]) is Fraction

    def test_integer_systems_with_several_rhs_match_dense_solve(self):
        rng = random.Random(79)
        solvable = inconsistent = 0
        for _ in range(200):
            rows, ncols, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
            a = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                 for _ in range(rows)]
            rhs = [[rng.randint(-5, 5) for _ in range(rows)] for _ in range(k)]
            if rng.random() < 0.5:  # every system consistent
                rhs = [[sum(r * y for r, y in zip(row, ys)) for row in a]
                       for ys in ([rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k))]
            expected = [dense_solve(a, b) for b in rhs]
            got = solve_linear(sparse_rows(a), rhs, ncols)
            if None in expected:
                assert got is None
                inconsistent += 1
                continue
            solvable += 1
            assert got == [tuple(x) for x in expected]
            assert all(type(x) is Fraction for xs in got for x in xs)
        assert solvable > 50 and inconsistent > 50


def scaled_matrices(rng, count):
    """Rational matrices whose rows carry non-unit denominators and signs, with
    rows that are zero (empty when sparse) and rows that repeat a multiple of
    an earlier one, so pivots come out negative and non-unit."""
    for _ in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 6)
        a = []
        for _ in range(rows):
            kind = rng.randrange(5)
            if kind == 0 or not a and kind == 1:
                a.append([F(0)] * cols)
            elif kind == 1:
                c = Fraction(rng.choice([-3, -2, 2, 5]), rng.choice([1, 3, 7]))
                a.append([c * x for x in rng.choice(a)])
            else:
                den = rng.choice([2, 3, 4, 6, 35])
                a.append([Fraction(rng.randint(-9, 9), den * rng.randint(1, 3))
                          if rng.random() < 0.6 else F(0) for _ in range(cols)])
        yield a


class TestFractionFree:
    """sparse_rref eliminates on integer rows; its output is still the reduced
    echelon form over Fraction, checked against the dense and the Fraction
    reference loops."""

    def test_matches_dense_rref_on_scaled_rows(self):
        rng = random.Random(171)
        negative = fractional = 0
        for a in scaled_matrices(rng, 400):
            ncols = len(a[0])
            rows, pivots = dense_rref(a)
            given = sparse_rows(a)
            echelon = sparse_rref(given, ncols)
            assert given == sparse_rows(a)
            assert [p for p, _ in echelon] == pivots
            assert [row for _, row in echelon] == sparse_rows(rows[:len(pivots)])
            assert all(type(x) is Fraction for _, row in echelon for x in row.values())
            assert all(row[p] == 1 for p, row in echelon)
            firsts = [row[min(row)] for row in given if row]
            negative += any(x < 0 for x in firsts)
            fractional += any(x.denominator > 1 for x in firsts)
        assert negative > 200 and fractional > 300

    @staticmethod
    def carried(rng, kind):
        if kind == "fraction" or rng.random() < 0.3:
            return rand_fraction(rng, span=5, max_den=6)
        return rng.randint(-5, 5)

    def test_carried_columns_keep_their_kind(self):
        """Carried Fraction and int entries, zeros among them, come back as the
        nonzero Fraction entries of the Fraction loop's rows."""
        rng = random.Random(172)
        seen = {"fraction": 0, "int": 0, "inconsistent": 0}
        for a in scaled_matrices(rng, 300):
            ncols = len(a[0])
            kind = rng.choice(["fraction", "int"])
            extra = rng.randint(1, 2)
            rows = sparse_rows(a)
            for row in rows:
                for k in range(ncols, ncols + extra):
                    if rng.random() < 0.8:
                        row[k] = self.carried(rng, kind)
            got = sparse_rref(rows, ncols)
            want = fraction_sparse_rref(rows, ncols)
            npiv = sum(p < ncols for p, _ in want)
            assert all(type(x) is Fraction and x for _, row in got for x in row.values())
            # pivot rows: equal entry for entry
            assert got[:npiv] == want[:npiv]
            # inconsistent rows: a nonzero rational multiple of the Fraction loop's
            assert [p for p, _ in got[npiv:]] == [p for p, _ in want[npiv:]]
            for (_, row), (_, ref) in zip(got[npiv:], want[npiv:]):
                assert min(row) >= ncols and rational_multiple(row, ref)
                seen["inconsistent"] += 1
            if len(want) == npiv:
                dense, pivots = dense_rref(to_dense(rows, ncols + extra), ncols)
                assert to_dense([row for _, row in got], ncols + extra) == dense[:len(pivots)]
            seen[kind] += 1
        assert min(seen.values()) > 50

    def test_solutions_match_dense_solve_on_scaled_rows(self):
        rng = random.Random(173)
        for a in scaled_matrices(rng, 200):
            ncols = len(a[0])
            x = [rand_fraction(rng, span=4, max_den=5) for _ in range(ncols)]
            for b in (dense_mat_vec(a, x), [rand_fraction(rng) for _ in a],
                      [rng.randint(-2, 2) for _ in a]):
                expected = dense_solve(a, b)
                got = solve(a, b)
                assert got == expected
                if expected is not None:
                    assert [type(v) for v in got] == [Fraction] * ncols

    def test_small_worked_example(self):
        # rows (-2/3, 1/2 | 1) and (4/5, 0 | 3): the integer rows are
        # (-4, 3 | 6) and (4, 0 | 15); the echelon form is over Fraction again
        rows = [{0: Fraction(-2, 3), 1: F(1) / 2, 2: F(1)}, {0: Fraction(4, 5), 2: 3}]
        (p0, r0), (p1, r1) = sparse_rref(rows, 2)
        assert (p0, p1) == (0, 1)
        assert r0 == {0: 1, 2: Fraction(15, 4)}
        assert r1 == {1: 1, 2: 7}
        assert all(type(x) is Fraction for row in (r0, r1) for x in row.values())
        # a repeated equation with another right-hand side is inconsistent
        bad = sparse_rref(rows + [{0: Fraction(-4, 3), 1: F(1), 2: F(3)}], 2)
        assert bad[-1][0] == 2 and min(bad[-1][1]) == 2 and bad[-1][1][2]
