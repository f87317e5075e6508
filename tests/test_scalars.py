"""Rational/polynomial arithmetic and simplex integration.

The integration oracle here is an independent path: iterated univariate
antiderivatives with the upper bound t_k = 1 - t_1 - ... - t_{k-1}
substituted as a polynomial, never the closed-form factorial formula.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (MultiPoly, integrate_monomial_simplex,
                     integrate_poly_simplex, poly_to_json,
                     rational_from_str, rational_to_str)

from helpers import poly_diff, poly_eval_at, poly_from_json, poly_variable, rand_fraction


def _antiderivative(p: MultiPoly, var: int) -> MultiPoly:
    terms = {}
    for e, c in p.terms.items():
        key = e[:var] + (e[var] + 1,) + e[var + 1:]
        terms[key] = c / (e[var] + 1)
    return MultiPoly(p.nvars, terms)


def _substitute(p: MultiPoly, var: int, replacement: MultiPoly) -> MultiPoly:
    out = MultiPoly(p.nvars, {})
    powers = {0: MultiPoly.constant(p.nvars, 1)}

    def power(k):
        if k not in powers:
            powers[k] = power(k - 1) * replacement
        return powers[k]

    for e, c in p.terms.items():
        rest = MultiPoly(p.nvars, {e[:var] + (0,) + e[var + 1:]: c})
        out = out + rest * power(e[var])
    return out


def fubini_integral(p: MultiPoly) -> Fraction:
    """Integrate over D_n by one variable at a time, innermost last."""
    n = p.nvars
    current = p
    for var in reversed(range(n)):
        upper = MultiPoly.constant(n, 1)
        for i in range(var):
            upper = upper - poly_variable(n, i)
        anti = _antiderivative(current, var)
        # lower bound 0 contributes nothing: every antiderivative term
        # carries a positive power of the integrated variable
        current = _substitute(anti, var, upper)
    return current.constant_value()


class TestRationalStrings:
    def test_round_trip_is_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert rational_from_str(rational_to_str(x)) == x

    def test_formats(self):
        assert rational_to_str(Fraction(3)) == "3"
        assert rational_to_str(Fraction(-6, 4)) == "-3/2"
        assert rational_from_str("-3/2") == Fraction(-3, 2)
        with pytest.raises(ValueError):
            rational_from_str("1/0")
        with pytest.raises(ValueError):
            rational_from_str("x")

    @pytest.mark.parametrize("literal", ["1.5", "4/6", " 2 ", "1e5", "+3", "-0", "007",
                                         "3/1", "2/4", "0/5", "-0/3", "1/-2", "1_000",
                                         "1\n", "\u0663", ""])
    def test_only_the_canonical_grammar_parses(self, literal):
        with pytest.raises(ValueError, match="invalid rational literal"):
            rational_from_str(literal)

    def test_exponent_literal_rejected_before_building_a_value(self, monkeypatch):
        import liechar.scalars as scalars

        def no_fraction(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(scalars, "Fraction", no_fraction)
        with pytest.raises(ValueError, match="invalid rational literal"):
            rational_from_str("1e100000")

    def test_overlong_digit_string_rejected(self):
        with pytest.raises(ValueError, match="invalid rational literal"):
            rational_from_str("9" * 5000)
        with pytest.raises(ValueError, match="invalid rational literal"):
            rational_from_str("1/" + "7" * 5000)


class TestMultiPoly:
    def test_zero_coefficients_never_stored(self):
        p = MultiPoly(2, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms
        assert (p - p).terms == {}

    def test_mixed_arithmetic_with_fractions(self):
        t1 = poly_variable(2, 0)
        p = Fraction(1, 2) + t1 * 3 - 1
        assert p.terms.get((0, 0), 0) == Fraction(-1, 2)
        assert p.terms.get((1, 0), 0) == 3
        assert sum([t1, t1]) == t1 * 2
        assert (t1 - t1) == 0
        assert MultiPoly.constant(2, Fraction(5, 7)) == Fraction(5, 7)

    def test_graded_lex_term_order(self):
        p = MultiPoly(2, {(0, 2): 1, (1, 0): 2, (2, 0): 3, (0, 1): 4})
        order = [e for e, _ in p.sorted_terms()]
        assert order == [(0, 1), (1, 0), (0, 2), (2, 0)]

    def test_degree_zero_round_trips_to_rational(self):
        p = MultiPoly.constant(3, Fraction(-7, 3))
        assert p.is_constant()
        assert p.constant_value() == Fraction(-7, 3)

    def test_json_round_trip(self):
        p = MultiPoly(2, {(1, 1): Fraction(1, 2), (0, 0): -2, (3, 0): 5})
        assert poly_to_json(p) == [{"exponents": [0, 0], "coeff": "-2"},
                                   {"exponents": [1, 1], "coeff": "1/2"},
                                   {"exponents": [3, 0], "coeff": "5"}]
        assert poly_from_json(poly_to_json(p), 2) == p

    def test_diff_and_eval(self):
        t1, t2 = poly_variable(2, 0), poly_variable(2, 1)
        p = t1 * t1 * t2 + t2 * 3
        assert poly_diff(p, 0) == t1 * t2 * 2
        assert poly_eval_at(p, [Fraction(1, 2), Fraction(2)]) == Fraction(13, 2)

    def test_variable_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            poly_variable(2, 0) + poly_variable(3, 0)


def _rand_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[e] = terms.get(e, Fraction(0)) + rand_fraction(rng)
    return MultiPoly(nvars, terms)


def _pairs(x, nvars, sign=1):
    """(exponents, coefficient) pairs of a polynomial, or of a scalar as a constant."""
    if isinstance(x, MultiPoly):
        return [(e, sign * v) for e, v in x.terms.items()]
    return [((0,) * nvars, sign * x)]


def _summed(nvars, pairs):
    """The sum of (exponents, coefficient) pairs, through the public constructor."""
    terms = {}
    for e, c in pairs:
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(nvars, terms)


def _assert_invariants(p, nvars):
    assert type(p) is MultiPoly and p.nvars == nvars
    for e, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == nvars
        assert all(type(k) is int and k >= 0 for k in e)


class TestMultiPolyInvariants:
    """Arithmetic results hold the invariants the trusted constructor relies on.

    Each result is compared term for term with the same sum or product formed
    through the public constructor, which checks its input and drops zeros.
    """

    @staticmethod
    def cases(seed):
        rng = random.Random(seed)
        for _ in range(80):
            n = rng.randint(1, 3)
            p = _rand_poly(rng, n)
            q = _rand_poly(rng, n)
            r = rng.random()  # force cancellations in sums and products
            if r < 0.4:
                q = q - p if r < 0.2 else -p
            elif r < 0.6:  # (a + b + ..)(-a + b - ..): the cross terms cancel
                q = MultiPoly(n, {e: v if i % 2 else -v
                                  for i, (e, v) in enumerate(p.terms.items())})
            k = rng.randint(-2, 2)
            c = rand_fraction(rng) if rng.random() < 0.8 else Fraction(0)
            yield n, p, q, c, [(p, q), (q, p), (p, k), (k, p), (p, c), (c, p)]

    def test_sums_and_differences(self):
        for n, p, q, _, operands in self.cases(301):
            for a, b in operands:
                for sign, result in ((1, a + b), (-1, a - b)):
                    _assert_invariants(result, n)
                    assert result.terms == _summed(n, _pairs(a, n) + _pairs(b, n, sign)).terms
            _assert_invariants(-q, n)
            assert (-q).terms == _summed(n, _pairs(q, n, -1)).terms

    def test_products_quotients_and_derivatives(self):
        for n, p, _, c, operands in self.cases(302):
            results = [(a * b, _pairs(a, n), _pairs(b, n)) for a, b in operands]
            if c:
                results.append((p / c, _pairs(p, n), _pairs(1 / c, n)))
            for result, left, right in results:
                _assert_invariants(result, n)
                expected = _summed(n, [(tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                                       for ea, ca in left for eb, cb in right])
                assert result.terms == expected.terms
            for i in range(n):
                _assert_invariants(poly_diff(p, i), n)
                expected = _summed(n, [(e[:i] + (e[i] - 1,) + e[i + 1:], v * e[i])
                                       for e, v in p.terms.items() if e[i]])
                assert poly_diff(p, i).terms == expected.terms

    def test_public_constructor_keeps_its_checks(self):
        with pytest.raises(ValueError, match="non-negative"):
            MultiPoly(-1)
        for bad in [(1,), (1, 0, 0), (1, -1), (-2, 0), (1.0, 0), (False, 1)]:
            with pytest.raises(ValueError, match="bad exponent vector"):
                MultiPoly(2, {bad: 1})
        p = MultiPoly(2, {(1, 0): 2, (0, 1): Fraction(0), (0, 0): Fraction(1, 2)})
        _assert_invariants(p, 2)
        assert p.terms == {(1, 0): Fraction(2), (0, 0): Fraction(1, 2)}


class TestSimplexIntegration:
    def test_unit_interval_length(self):
        assert integrate_monomial_simplex(1, (0,)) == 1

    def test_triangle_area(self):
        assert integrate_monomial_simplex(2, (0, 0)) == Fraction(1, 2)

    def test_t1_t2_over_triangle(self):
        # oracle value: fubini gives 1/24
        assert fubini_integral(MultiPoly(2, {(1, 1): 1})) == Fraction(1, 24)
        assert integrate_monomial_simplex(2, (1, 1)) == Fraction(1, 24)

    def test_linear_poly_example(self):
        p = MultiPoly(2, {(2, 0): 3, (0, 1): -1})
        assert fubini_integral(p) == Fraction(1, 12)
        assert integrate_poly_simplex(p) == Fraction(1, 12)

    def test_half_from_t_on_interval(self):
        assert integrate_poly_simplex(MultiPoly(1, {(1,): 1})) == Fraction(1, 2)

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            integrate_monomial_simplex(0, ())
        with pytest.raises(ValueError):
            integrate_poly_simplex(MultiPoly.constant(0, 1))

    def test_matches_fubini_oracle_on_random_polynomials(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                terms[e] = terms.get(e, Fraction(0)) + rand_fraction(rng)
            p = MultiPoly(n, terms)
            assert integrate_poly_simplex(p) == fubini_integral(p)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                      st.fractions(max_denominator=6)),
            min_size=0, max_size=5),
        extra=st.lists(
            st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                      st.fractions(max_denominator=6)),
            min_size=0, max_size=5),
        c=st.fractions(max_denominator=6),
    )
    def test_integration_is_linear(self, data, extra, c):
        def build(items):
            terms = {}
            for e, v in items:
                terms[e] = terms.get(e, Fraction(0)) + v
            return MultiPoly(2, terms)

        p, q = build(data), build(extra)
        lhs = integrate_poly_simplex(p * c + q)
        rhs = c * integrate_poly_simplex(p) + integrate_poly_simplex(q)
        assert lhs == rhs


class TestEqualityAcrossVariableCounts:
    """Polynomials in different numbers of variables are equal only when both
    are zero; a constant compares with a scalar whatever its variable count."""

    @pytest.mark.parametrize("value", [1, Fraction(-2, 3)])
    def test_nonzero_constants_differ(self, value):
        a, b = MultiPoly.constant(1, value), MultiPoly.constant(2, value)
        assert a != b and b != a
        assert a == value and b == value

    def test_zero_polynomials_are_equal(self):
        assert MultiPoly(1) == MultiPoly(3)
        assert MultiPoly.constant(0, 0) == MultiPoly(2, {(1, 0): 0})
