"""Exact scalars: rationals, simplex-parameter polynomials, closed-form integration.

Every number in this library is exact.  Plain scalars are
``fractions.Fraction``; every coercion to one refuses a float and a MultiPoly.
Only the curvature R_t of a section family and what it enters before the
simplex integral are ``MultiPoly`` values: sparse polynomials with Fraction
coefficients in the coordinates ``t_1 .. t_n`` of the projected simplex

    D_n = { t in R^n : t_i >= 0  and  t_1 + ... + t_n <= 1 }.

A polynomial stores a map from exponent tuples to nonzero coefficients; the
zero polynomial is the empty map.  Every instance keeps three invariants:
each coefficient is a nonzero Fraction, and each key is a tuple of nvars
non-negative ints.  The public constructor refuses a variable count or an
exponent that is not an int and coerces each coefficient into that form;
the arithmetic methods build their results through the trusted constructor
``_of``, which skips those checks, so each of them drops the zero
coefficients it produces itself and combines only terms that already hold
the invariants.  Terms are printed in graded-lexicographic order, so equal
polynomials print alike.

Integration over D_n with Lebesgue measure is closed form on monomials,

    int_{D_n} t_1^a_1 ... t_n^a_n dt  =  a_1! ... a_n! / (n + a_1 + ... + a_n)!

and extends linearly to polynomials.  Mixed arithmetic between MultiPoly and
Fraction/int promotes the scalar to a constant polynomial, so generic cochain
code can accumulate either kind starting from ``Fraction(0)``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import factorial, gcd, prod

__all__ = [
    "MultiPoly",
    "rational_from_str",
    "rational_to_str",
    "integrate_monomial_simplex",
    "integrate_poly_simplex",
]


_RATIONAL = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def _fraction(x) -> Fraction:
    """x itself when it is already a Fraction, else Fraction(x); TypeError on a
    float, whose binary value is not the decimal it was written as, and on a
    MultiPoly."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact scalar; use an int, a Fraction "
                        "or a 'p/q' string")
    if isinstance(x, MultiPoly):
        raise TypeError(f"polynomial {x!r} is not a rational scalar")
    return Fraction(x)


def _coerce_scalar(x):
    """x itself when it is a MultiPoly, else x as a Fraction."""
    return x if isinstance(x, MultiPoly) else _fraction(x)


def rational_to_str(x: Fraction) -> str:
    """Format as ``p/q`` in lowest terms, or ``p`` when the denominator is 1."""
    return str(_fraction(x))


def rational_from_str(s: str) -> Fraction:
    """Parse exactly the strings :func:`rational_to_str` produces.

    That is ``p`` or ``p/q`` with q > 1 and gcd(p, q) = 1, digits only, no
    leading zeros, no plus sign, no spaces, and no sign on zero.
    """
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    try:
        if match is None or s == "-0":
            raise ValueError
        num, den = int(match[1]), int(match[2] or 1)  # int caps the digit count
        if match[2] and (den == 1 or gcd(num, den) != 1):
            raise ValueError
    except ValueError:
        raise ValueError(f"invalid rational literal {s!r}") from None
    return Fraction(num, den)


def _variable_count(nvars) -> int:
    """nvars itself; ValueError unless it is a non-negative int (a float or a
    bool is refused)."""
    if type(nvars) is not int or nvars < 0:
        raise ValueError(f"variable count must be a non-negative int, not {nvars!r}")
    return nvars


class MultiPoly:
    """Polynomial in the simplex parameters t_1..t_nvars over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = _variable_count(nvars)
        clean = {}
        for key, coeff in (terms or {}).items():
            exps = tuple(key)
            if len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {key!r} for {nvars} variables")
            coeff = _fraction(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Trusted constructor: ``terms`` must already hold the class invariants."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- queries ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not a constant polynomial")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def sorted_terms(self):
        """Terms in graded-lexicographic order (total degree, then lex)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial variable counts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly._of(self.nvars, {(0,) * self.nvars: Fraction(other)} if other else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            c = terms.get(e, 0) + c
            if c:
                terms[e] = c
            else:
                del terms[e]
        return MultiPoly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly._of(self.nvars, {})
            return MultiPoly._of(self.nvars, {e: v * other for e, v in self.terms.items()})
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial variable counts differ")
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    key = tuple(map(operator.add, ea, eb))
                    out[key] = out.get(key, 0) + ca * cb
            return MultiPoly._of(self.nvars, {e: c for e, c in out.items() if c})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, MultiPoly):  # keys have nvars entries: only zeros match
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == Fraction(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            names = "*".join(
                f"t{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k
            )
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append(names)
            elif c == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{c}*{names}")
        return " + ".join(parts).replace("+ -", "- ")


def integrate_monomial_simplex(n: int, exponents) -> Fraction:
    """Integral of t_1^a_1 ... t_n^a_n over D_n: prod(a_i!) / (n + sum a_i)!.

    n must be an int of at least 1 and each exponent a non-negative int; any
    other value (a float, a string, a bool) is refused, not truncated, and
    the message names the value or the vector as given."""
    if type(n) is not int:
        raise ValueError(f"simplex dimension must be an int, not {n!r}")
    if n < 1:
        raise ValueError("simplex dimension must be at least 1")
    exponents = list(exponents)
    if len(exponents) != n or any(type(a) is not int or a < 0 for a in exponents):
        raise ValueError(f"bad exponent vector {exponents!r} for D_{n}")
    return Fraction(prod(factorial(a) for a in exponents),
                    factorial(n + sum(exponents)))


def integrate_poly_simplex(p: MultiPoly) -> Fraction:
    """Linear extension of the monomial integral over D_n to a MultiPoly."""
    if not isinstance(p, MultiPoly):
        raise TypeError(f"can only integrate a MultiPoly, not {type(p).__name__}")
    if p.nvars < 1:
        raise ValueError("simplex dimension must be at least 1")
    total = Fraction(0)
    for e, c in p.terms.items():
        total += c * integrate_monomial_simplex(p.nvars, e)
    return total
