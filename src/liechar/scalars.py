"""Exact scalars: rationals, simplex-parameter polynomials, closed-form integration.

Every number in this library is exact.  Plain scalars are
``fractions.Fraction``.  Quantities that vary over a simplex of section
parameters (interpolated sections and their curvatures) are ``MultiPoly``
values: sparse polynomials with Fraction coefficients in the coordinates
``t_1 .. t_n`` of the projected simplex

    D_n = { t in R^n : t_i >= 0  and  t_1 + ... + t_n <= 1 }.

A polynomial stores a map from exponent tuples to nonzero coefficients; the
zero polynomial is the empty map.  Terms are ordered graded-lexicographically
for serialization, so equal polynomials serialize to identical bytes.

Integration over D_n with Lebesgue measure is closed form on monomials,

    int_{D_n} t_1^a_1 ... t_n^a_n dt  =  a_1! ... a_n! / (n + a_1 + ... + a_n)!

and extends linearly to polynomials.  Mixed arithmetic between MultiPoly and
Fraction/int promotes the scalar to a constant polynomial, so generic cochain
code can accumulate either kind starting from ``Fraction(0)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd, prod

Rational = Fraction

__all__ = [
    "Rational",
    "MultiPoly",
    "as_poly",
    "rational_from_str",
    "rational_to_str",
    "poly_from_json",
    "poly_to_json",
    "integrate_monomial_simplex",
    "integrate_poly_simplex",
]


_RATIONAL = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def rational_to_str(x: Fraction) -> str:
    """Format as ``p/q`` in lowest terms, or ``p`` when the denominator is 1."""
    return str(Fraction(x))


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


class MultiPoly:
    """Polynomial in the simplex parameters t_1..t_nvars over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for {nvars} variables")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        """The polynomial t_{index+1} (indices are 0-based)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- queries ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not a constant polynomial")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

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
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

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
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.nvars)
            return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial variable counts differ")
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    out[key] = out.get(key, Fraction(0)) + ca * cb
            return MultiPoly(self.nvars, out)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                return (self.is_constant() and other.is_constant()
                        and self.constant_value() == other.constant_value())
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == Fraction(other)
        return NotImplemented

    __hash__ = None

    # -- calculus ---------------------------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to t_{index+1}."""
        out = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            key = e[:index] + (e[index] - 1,) + e[index + 1:]
            out[key] = out.get(key, Fraction(0)) + c * e[index]
        return MultiPoly(self.nvars, out)

    def eval_at(self, point) -> Fraction:
        """Evaluate at a rational point (a sequence of nvars values)."""
        point = [Fraction(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong length")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * prod(p ** k for p, k in zip(point, e) if k)
        return total

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


def as_poly(x, nvars: int) -> MultiPoly:
    """Promote a Fraction/int to a constant polynomial; pass polynomials through."""
    if isinstance(x, MultiPoly):
        if x.nvars != nvars:
            raise ValueError("polynomial variable counts differ")
        return x
    return MultiPoly.constant(nvars, x)


def poly_to_json(p: MultiPoly):
    """Graded-lex list of ``{"exponents": [...], "coeff": "p/q"}`` terms."""
    return [
        {"exponents": list(e), "coeff": rational_to_str(c)}
        for e, c in p.sorted_terms()
    ]


def poly_from_json(obj, nvars: int) -> MultiPoly:
    """Read a poly_to_json term list; ValueError on any other shape."""
    terms = {}
    for item in obj if isinstance(obj, list) else [None]:  # a non-list fails as a bad term
        exps = item.get("exponents") if isinstance(item, dict) and len(item) == 2 else None
        if not (isinstance(exps, list) and len(exps) == nvars and "coeff" in item
                and all(type(e) is int and e >= 0 for e in exps)):
            raise ValueError("expected a list of {exponents, coeff} terms with "
                             f"{nvars} non-negative integer exponents")
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + rational_from_str(item["coeff"])
    return MultiPoly(nvars, terms)


def integrate_monomial_simplex(n: int, exponents) -> Fraction:
    """Integral of t_1^a_1 ... t_n^a_n over D_n: prod(a_i!) / (n + sum a_i)!."""
    if n < 1:
        raise ValueError("simplex dimension must be at least 1")
    exponents = [int(a) for a in exponents]
    if len(exponents) != n or any(a < 0 for a in exponents):
        raise ValueError(f"bad exponent vector {exponents!r} for D_{n}")
    return Fraction(prod(factorial(a) for a in exponents),
                    factorial(n + sum(exponents)))


def integrate_poly_simplex(p: MultiPoly) -> Fraction:
    """Linear extension of the monomial integral over D_n to polynomials."""
    if p.nvars < 1:
        raise ValueError("simplex dimension must be at least 1")
    total = Fraction(0)
    for e, c in p.terms.items():
        total += c * integrate_monomial_simplex(p.nvars, e)
    return total
