"""Cochain operators against brute-force oracles.

Two independent routes are checked throughout: the shuffle-sum wedge against
the normalized alternation Alt(a ._m b)/(p! q!), and the partition-sum
compose_sym against explicit iterated symmetric-tensor wedges.
"""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

import pytest

from liechar import (Cochain, LinearAction, MultiPoly, SymMultiMap, abelian, ad_matrix,
                     adjoint_representation, alt, ce_differential, compose_sym,
                     covariant_derivative, curvature, differential_matrix,
                     evaluation_product, heisenberg3, lie_bracket_product, nondecreasing_tuples,
                     scalar_multiplication, sym_product, sym_tensor_product,
                     trivial_representation, wedge)

from helpers import (SMALL_ALGEBRAS, conjugate_algebra, dense_cochain_evaluate,
                     dense_differential_matrix, dense_symmap_evaluate, rand_cochain,
                     rand_fraction, rand_matrix, rand_symmap, rand_vector, random_algebra,
                     random_representation, reference_twisted_differential)


def unit(d, i):
    v = [Fraction(0)] * d
    v[i] = Fraction(1)
    return v


def raw_product_table(a, b, m):
    """(a ._m b) on every basis tuple, via the multilinear extensions."""
    d = a.source.dim
    table = {}
    for combo in iproduct(range(d), repeat=a.degree + b.degree):
        u = a.evaluate([unit(d, i) for i in combo[:a.degree]])
        v = b.evaluate([unit(d, i) for i in combo[a.degree:]])
        table[combo] = m.apply(u, v)
    return table


def compose_oracle(f, args):
    """Explicit iterated wedge into symmetric tensor coordinates, then f-tilde."""
    d = f.source.dim
    acc = args[0]
    degree_so_far = 1
    for a in args[1:]:
        acc = wedge(acc, a, sym_tensor_product(d, degree_so_far, 1))
        degree_so_far += 1
    keys = nondecreasing_tuples(d, f.degree)

    def fn(key):
        coords = acc.entry(key)
        out = [Fraction(0)] * f.target_dim
        for idx, basis_key in enumerate(keys):
            fv = f.values[basis_key]
            out = [o + coords[idx] * x for o, x in zip(out, fv)]
        return out

    return Cochain.from_function(acc.source, acc.degree, f.target_dim, fn)


def rand_poly(rng, nvars=2):
    return MultiPoly(nvars, {(rng.randint(0, 2), rng.randint(0, 1)): rand_fraction(rng)
                             for _ in range(rng.randint(0, 3))})


def sparse_args(rng, d, p, scalar):
    """p coefficient vectors of length d with about half their entries zero."""
    return [[scalar(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(d)]
            for _ in range(p)]


class TestTables:
    KINDS = ((Cochain, rand_cochain, dense_cochain_evaluate),
             (SymMultiMap, rand_symmap, dense_symmap_evaluate))

    @pytest.mark.parametrize("kind", [0, 1], ids=["cochain", "symmap"])
    def test_evaluate_matches_dense_oracle(self, kind):
        _, make, oracle = self.KINDS[kind]
        rng = random.Random(5 + kind)
        for d in range(1, 5):
            g = abelian(d)
            for p in range(4):
                for _ in range(6):
                    table = make(rng, g, p, 2)
                    args = sparse_args(rng, d, p, rand_fraction)
                    assert table.evaluate(args) == oracle(table, args)
                    poly_table = table.map_values(lambda x: x * rand_poly(rng))
                    poly_args = sparse_args(rng, d, p, rand_poly)
                    assert poly_table.evaluate(poly_args) == oracle(poly_table, poly_args)

    @pytest.mark.parametrize("cls", [Cochain, SymMultiMap])
    def test_argument_length_must_match_dimension(self, cls):
        table = cls.zero(heisenberg3(), 2, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            table.evaluate([[1, 0, 0, 5], [0, 1, 0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            table.evaluate([[1, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="argument count"):
            table.evaluate([[1, 0, 0]])

    def test_kinds_never_mix(self):
        g = abelian(2)
        w = Cochain(g, 1, 1, {(0,): [2], (1,): [3]})
        f = SymMultiMap(g, 1, 1, {(0,): [2], (1,): [3]})
        assert w.values == f.values
        assert w != f and f != w
        for a, b in ((w, f), (f, w)):
            with pytest.raises(ValueError, match="shape mismatch"):
                a + b
            with pytest.raises(ValueError, match="shape mismatch"):
                a - b

    def test_shared_operations_on_symmetric_maps(self):
        rng = random.Random(7)
        f = rand_symmap(rng, heisenberg3(), 2)
        assert f - f == SymMultiMap.zero(heisenberg3(), 2, 1)
        assert -f == f.scale(-1)
        poly = f.to_poly(2)
        assert poly.values == f.values
        assert all(isinstance(x, MultiPoly) for v in poly.values.values() for x in v)
        assert SymMultiMap.zero(heisenberg3(), 1, 1, nvars=2).entry((0,)) == (MultiPoly.zero(2),)
        assert repr(f) == "SymMultiMap(degree=2, source_dim=3, target_dim=1)"


class TestAlt:
    def test_degree_one_unchanged(self):
        g = abelian(3)
        rng = random.Random(0)
        table = {(i,): [rand_fraction(rng)] for i in range(3)}
        out = alt(g, 1, 1, table)
        assert all(out.entry((i,)) == tuple(table[(i,)]) for i in range(3))

    def test_two_term_signed_sum(self):
        g = abelian(3)
        table = {combo: [Fraction(1) if combo == (1, 2) else Fraction(0)]
                 for combo in iproduct(range(3), repeat=2)}
        out = alt(g, 2, 1, table)
        assert out.entry((1, 2)) == (1,)
        assert out.evaluate([unit(3, 2), unit(3, 1)]) == [-1]
        assert out.entry((0, 1)) == (0,)

    def test_alternating_input_doubles(self):
        g = abelian(4)
        rng = random.Random(1)
        w = rand_cochain(rng, g, 2, 2)
        table = {combo: w.evaluate([unit(4, i) for i in combo])
                 for combo in iproduct(range(4), repeat=2)}
        assert alt(g, 2, 2, table) == w + w


class TestWedge:
    def test_zero_factor_gives_zero(self):
        g = abelian(3)
        rng = random.Random(2)
        a = rand_cochain(rng, g, 1, 1)
        b = Cochain.zero(g, 2, 1)
        assert wedge(a, b, scalar_multiplication(1)).is_zero()

    def test_two_functionals(self):
        g = abelian(2)
        a = Cochain(g, 1, 1, {(0,): [2], (1,): [3]})
        b = Cochain(g, 1, 1, {(0,): [5], (1,): [7]})
        ab = wedge(a, b, scalar_multiplication(1))
        # a(x)b(y) - a(y)b(x) on (e1, e2)
        assert ab.entry((0, 1)) == (2 * 7 - 3 * 5,)

    def test_degree_one_self_sym_wedge_vanishes(self):
        rng = random.Random(3)
        g = abelian(3)
        a = rand_cochain(rng, g, 1, 2)
        assert wedge(a, a, sym_tensor_product(2, 1, 1)).is_zero()

    def test_wedge_with_zero_cochain_multiplies_pointwise(self):
        g = abelian(3)
        rng = random.Random(4)
        scalar = Cochain(g, 0, 1, {(): [Fraction(5, 2)]})
        b = rand_cochain(rng, g, 2, 1)
        out = wedge(scalar, b, scalar_multiplication(1))
        assert out == b.scale(Fraction(5, 2))

    def test_matches_normalized_alt_exhaustively(self):
        rng = random.Random(11)
        for d in range(1, 5):
            g = abelian(d)
            for p in range(0, 5):
                for q in range(0, 5 - p):
                    a = rand_cochain(rng, g, p, 1)
                    b = rand_cochain(rng, g, q, 1)
                    m = scalar_multiplication(1)
                    by_shuffles = wedge(a, b, m)
                    normalized = alt(g, p + q, 1, raw_product_table(a, b, m)) \
                        .scale(Fraction(1, factorial(p) * factorial(q)))
                    assert by_shuffles == normalized

    def test_graded_commutativity_for_symmetric_products(self):
        rng = random.Random(12)
        g = abelian(4)
        for p in range(3):
            for q in range(3):
                a = rand_cochain(rng, g, p, 1)
                b = rand_cochain(rng, g, q, 1)
                m = scalar_multiplication(1)
                lhs = wedge(a, b, m)
                rhs = wedge(b, a, m)
                if (p * q) % 2:
                    rhs = -rhs
                assert lhs == rhs


class TestDifferential:
    def test_abelian_trivial_rep_kills_everything(self):
        g = abelian(3)
        rng = random.Random(21)
        w = rand_cochain(rng, g, 2, 1)
        assert ce_differential(w, trivial_representation(g, 1)).is_zero()

    def test_z_dual_on_heisenberg(self):
        h3 = heisenberg3()
        zdual = Cochain(h3, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})
        d = ce_differential(zdual, trivial_representation(h3, 1))
        assert d.entry((0, 1)) == (-1,)
        assert d.entry((0, 2)) == (0,)
        assert d.entry((1, 2)) == (0,)

    def test_p_dual_on_heisenberg_is_closed(self):
        h3 = heisenberg3()
        pdual = Cochain(h3, 1, 1, {(0,): [1], (1,): [0], (2,): [0]})
        assert ce_differential(pdual, trivial_representation(h3, 1)).is_zero()

    def test_d_squared_zero_seeded(self):
        rng = random.Random(22)
        for _ in range(40):
            alg = random_algebra(rng)
            rep = random_representation(rng, alg)
            p = rng.randint(0, alg.dim)
            w = rand_cochain(rng, alg, p, rep.space_dim)
            assert ce_differential(ce_differential(w, rep), rep).is_zero()

    def test_top_degree_maps_to_empty_table(self):
        h3 = heisenberg3()
        rng = random.Random(23)
        w = rand_cochain(rng, h3, 3, 1)
        d = ce_differential(w, trivial_representation(h3, 1))
        assert d.degree == 4 and d.values == {}


class TestOneDifferential:
    """d and its matrix come from one term list; both match the term-by-term
    formula and the unit-cochain matrix built from it."""

    @staticmethod
    def cases(rng):
        for name in sorted(SMALL_ALGEBRAS):
            for conjugated in (False, True):
                alg = SMALL_ALGEBRAS[name]()
                if conjugated:
                    alg = conjugate_algebra(rng, alg)
                for rep in (trivial_representation(alg, 1), trivial_representation(alg, 2),
                            adjoint_representation(alg), random_representation(rng, alg)):
                    yield alg, rep

    def test_matrix_matches_unit_cochain_oracle(self):
        rng = random.Random(24)
        for alg, rep in self.cases(rng):
            for p in range(alg.dim + 2):
                got = differential_matrix(alg, rep, p)
                assert got == dense_differential_matrix(alg, rep, p), (alg.basis_names, p)
                assert all(type(x) is Fraction for row in got for x in row)

    def test_ce_differential_matches_reference(self):
        rng = random.Random(25)
        for alg, rep in self.cases(rng):
            for p in range(alg.dim + 2):
                w = rand_cochain(rng, alg, p, rep.space_dim)
                for cochain in (w, w.map_values(lambda x: x * rand_poly(rng))):
                    got = ce_differential(cochain, rep)
                    want = reference_twisted_differential(cochain, rep.matrices)
                    assert got == want
                    assert [type(x) for v in got.values.values() for x in v] == \
                        [type(x) for v in want.values.values() for x in v]

    def test_covariant_derivative_matches_reference(self):
        rng = random.Random(26)
        for _ in range(30):
            g = random_algebra(rng)
            m = rng.randint(1, 3)
            mats = [rand_matrix(rng, m, m) for _ in range(g.dim)]
            if rng.random() < 0.5:
                mats = [[[x * rand_poly(rng) for x in row] for row in mat] for mat in mats]
            action = LinearAction(g, mats)
            for p in range(g.dim + 2):
                w = rand_cochain(rng, g, p, m)
                assert covariant_derivative(w, action) == \
                    reference_twisted_differential(w, mats)


class TestCovariantDerivative:
    def test_zero_action_reduces_to_trivial_differential(self):
        rng = random.Random(31)
        h3 = heisenberg3()
        w = rand_cochain(rng, h3, 2, 2)
        s = LinearAction(h3, [[[0, 0], [0, 0]] for _ in range(3)])
        assert covariant_derivative(w, s) == \
            ce_differential(w, trivial_representation(h3, 2))

    def test_degree_zero_returns_action_values(self):
        g = abelian(2)
        rng = random.Random(32)
        mats = [[[rand_fraction(rng) for _ in range(2)] for _ in range(2)]
                for _ in range(2)]
        s = LinearAction(g, mats)
        v = rand_vector(rng, 2)
        w = Cochain(g, 0, 2, {(): v})
        d = covariant_derivative(w, s)
        for i in range(2):
            expect = [sum(mats[i][r][c] * v[c] for c in range(2)) for r in range(2)]
            assert list(d.entry((i,))) == expect

    def test_splits_as_action_wedge_plus_differential(self):
        rng = random.Random(33)
        g = random_algebra(rng)
        m = 2
        w = rand_cochain(rng, g, 2, m)
        mats = [[[rand_fraction(rng) for _ in range(m)] for _ in range(m)]
                for _ in range(g.dim)]
        action = LinearAction(g, mats)
        as_cochain = Cochain(
            g, 1, m * m,
            {(i,): [mats[i][r][c] for r in range(m) for c in range(m)]
             for i in range(g.dim)})
        lhs = covariant_derivative(w, action)
        rhs = wedge(as_cochain, w, evaluation_product(m)) + \
            ce_differential(w, trivial_representation(g, m))
        assert lhs == rhs

    def test_bianchi_for_arbitrary_one_cochains(self):
        rng = random.Random(34)
        target = heisenberg3()
        for _ in range(20):
            g = random_algebra(rng)
            sigma = rand_cochain(rng, g, 1, 3)
            r = curvature(sigma, lie_bracket_product(target))
            s = LinearAction(
                g, [ad_matrix(target, list(sigma.entry((i,))))
                    for i in range(g.dim)])
            assert covariant_derivative(r, s).is_zero()

    def test_leibniz_rule_seeded(self):
        rng = random.Random(35)
        target = heisenberg3()
        m = lie_bracket_product(target)
        for _ in range(30):
            g = random_algebra(rng)
            s = LinearAction(
                g, [ad_matrix(target, rand_vector(rng, 3)) for _ in range(g.dim)])
            p = rng.randint(0, 2)
            q = rng.randint(0, min(2, 4 - p))
            a = rand_cochain(rng, g, p, 3)
            b = rand_cochain(rng, g, q, 3)
            lhs = covariant_derivative(wedge(a, b, m), s)
            rhs = wedge(covariant_derivative(a, s), b, m)
            term = wedge(a, covariant_derivative(b, s), m)
            rhs = rhs + (term if p % 2 == 0 else -term)
            assert lhs == rhs


class TestCurvature:
    def test_homomorphism_has_zero_curvature(self):
        h3 = heisenberg3()
        # the identity map of h3 as a 1-cochain is a homomorphism
        sigma = Cochain(h3, 1, 3, {(i,): unit(3, i) for i in range(3)})
        assert curvature(sigma, lie_bracket_product(h3)).is_zero()

    def test_plane_into_heisenberg(self):
        g = abelian(2)
        sigma = Cochain(g, 1, 3, {(0,): [1, 0, 0], (1,): [0, 1, 0]})
        r = curvature(sigma, lie_bracket_product(heisenberg3()))
        assert r.entry((0, 1)) == (0, 0, 1)

    def test_equals_differential_plus_half_self_bracket(self):
        rng = random.Random(41)
        target = heisenberg3()
        br = lie_bracket_product(target)
        for _ in range(20):
            g = random_algebra(rng)
            sigma = rand_cochain(rng, g, 1, 3)
            direct = curvature(sigma, br)
            indirect = ce_differential(sigma, trivial_representation(g, 3)) + \
                wedge(sigma, sigma, br).scale(Fraction(1, 2))
            assert direct == indirect


class TestComposeSym:
    def test_single_linear_slot(self):
        h3 = heisenberg3()
        g = abelian(2)
        rng = random.Random(51)
        f = rand_symmap(rng, h3, 1)
        a = rand_cochain(rng, g, 1, 3)
        out = compose_sym(f, [a])
        for i in range(2):
            assert list(out.entry((i,))) == f.evaluate([list(a.entry((i,)))])

    def test_matches_tensor_oracle(self):
        rng = random.Random(52)
        h3 = heisenberg3()
        g = abelian(4)
        f2 = rand_symmap(rng, h3, 2)
        r1 = rand_cochain(rng, g, 2, 3)
        r2 = rand_cochain(rng, g, 2, 3)
        assert compose_sym(f2, [r1, r2]) == compose_oracle(f2, [r1, r2])
        f3 = rand_symmap(rng, h3, 3)
        a = rand_cochain(rng, g, 1, 3)
        assert compose_sym(f3, [a, r1, r2]) == compose_oracle(f3, [a, r1, r2])

    def test_odd_slots_anticommute_even_slots_commute(self):
        rng = random.Random(53)
        h3 = heisenberg3()
        g = abelian(4)
        f = rand_symmap(rng, h3, 2)
        a = rand_cochain(rng, g, 1, 3)
        b = rand_cochain(rng, g, 1, 3)
        assert compose_sym(f, [a, b]) == -compose_sym(f, [b, a])
        r1 = rand_cochain(rng, g, 2, 3)
        r2 = rand_cochain(rng, g, 2, 3)
        assert compose_sym(f, [r1, r2]) == compose_sym(f, [r2, r1])

    def test_slot_count_mismatch(self):
        rng = random.Random(54)
        h3 = heisenberg3()
        f = rand_symmap(rng, h3, 2)
        a = rand_cochain(rng, abelian(2), 1, 3)
        with pytest.raises(ValueError, match="slot-count"):
            compose_sym(f, [a])


class TestSymProduct:
    def test_two_functionals(self):
        g = abelian(2)
        f = SymMultiMap(g, 1, 1, {(0,): [2], (1,): [3]})
        h = SymMultiMap(g, 1, 1, {(0,): [5], (1,): [7]})
        fg = sym_product(f, h, scalar_multiplication(1))
        # f(y1)h(y2) + f(y2)h(y1)
        assert fg.entry((0, 0)) == (2 * 5 * 2,)
        assert fg.entry((0, 1)) == (2 * 7 + 3 * 5,)

    def test_commutative_for_commutative_target(self):
        rng = random.Random(61)
        g = heisenberg3()
        f = rand_symmap(rng, g, 2)
        h = rand_symmap(rng, g, 1)
        m = scalar_multiplication(1)
        assert sym_product(f, h, m) == sym_product(h, f, m)

    def test_symmetric_extension_consistency(self):
        rng = random.Random(62)
        g = abelian(3)
        f = rand_symmap(rng, g, 1)
        h = rand_symmap(rng, g, 1)
        fg = sym_product(f, h, scalar_multiplication(1))
        u, v = rand_vector(rng, 3), rand_vector(rng, 3)
        direct = fg.evaluate([u, v])
        expected = [f.evaluate([u])[0] * h.evaluate([v])[0] +
                    f.evaluate([v])[0] * h.evaluate([u])[0]]
        assert direct == expected
