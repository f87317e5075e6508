"""Acceptance suite: one test per criterion, exact equality everywhere.

Every check is exact (tolerance zero) because all values live in the
rationals.  Each test measures its own runtime against the stated budget and
prints one PASS line; run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they go by.
"""

import json
import random
import time
from fractions import Fraction
from math import comb, factorial

from liechar import (BilinearProduct, LinearAction, MultiPoly, SymMultiMap,
                     abelian, ad_matrix, adjoint_representation,
                     algebra_from_brackets, alt, ce_differential, chern_weil,
                     classes_equal, cohomology_space, covariant_derivative,
                     delta_f, differential_matrix, heisenberg, heisenberg3,
                     integrate_poly_simplex, lie_bracket_product,
                     parse_workspace, rank, s_from_section,
                     scalar_multiplication, secondary_class, section_curvature,
                     serialize_workspace, trivial_representation,
                     verify_main_theorem, wedge)
from liechar.catalog import heisenberg_central_extension
from liechar.cli import run_command

from helpers import (conjugate_algebra, fixture_extensions, rand_cochain, rand_fraction,
                     rand_section, rand_vector, random_algebra,
                     random_invariant_symmap, random_representation,
                     section_pool)
from test_cochains import raw_product_table
from test_scalars import fubini_integral


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label}: {elapsed:.2f}s over {self.limit}s budget"
        print(f"PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_oscillator_golden(capsys, fixtures_dir):
    budget = Budget(1.0)
    path = str(fixtures_dir / "oscillator.json")
    ws = parse_workspace((fixtures_dir / "oscillator.json").read_text("utf-8"))
    ext = ws.extensions["osc"]
    assert section_curvature(ext, ws.sections["s0"]).is_zero()
    assert section_curvature(ext, ws.sections["sz"]).is_zero()
    code = run_command(["secondary", path, "--extension", "osc", "--poly", "fz",
                        "--sections", "s0,sz", "--output", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 1
    assert payload["h_dim"] == 1
    assert payload["coordinates"] == ["1"]
    cls = secondary_class(ext, ws.polynomials["fz"], ws.sections["s0"],
                          ws.sections["sz"], ws.representations["triv"])
    assert cls.coordinates == (1,)
    with capsys.disabled():
        budget.done("criterion 1: oscillator golden secondary class = 1")


def test_criterion_02_section_independence():
    budget = Budget(5.0)
    rng = random.Random(20240202)
    ext = heisenberg_central_extension()
    triv = trivial_representation(ext.base, 1)
    f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
    classes = [chern_weil(ext, f, rand_section(rng, ext), triv)
               for _ in range(5)]
    for cls in classes:
        assert cls.coordinates == (1,)
        assert cls.h_space.h_dim == 1
    for a in classes:
        for b in classes:
            assert classes_equal(a.representative, b.representative, a.h_space)
    budget.done("criterion 2: primary class independent of 5 random sections")


def test_criterion_03_main_theorem_sweep():
    budget = Budget(60.0)
    rng = random.Random(20240203)
    named = fixture_extensions()
    signs = set()
    stated_tuples = 0
    # the two extensions named by the criterion
    for name in ("oscillator", "heisenberg"):
        ext = named[name]
        triv = trivial_representation(ext.base, 1)
        for n in (1, 2):
            for k in range(n, 4):
                f = random_invariant_symmap(rng, name, ext, k)
                if f is None:
                    continue
                for _ in range(11):
                    sections = section_pool(rng, name, ext, n + 1)
                    report = verify_main_theorem(ext, f, sections, triv)
                    assert report.sign in (0, 1), (name, n, k)
                    signs.add(report.sign)
                    stated_tuples += 1
    assert stated_tuples >= 100
    # richer extensions (dim total <= 5) pin the global sign via nonzero sides
    nondegenerate = 0
    for name in ("filiform", "affine", "heisenberg5"):
        ext = named[name]
        triv = trivial_representation(ext.base, 1)
        for n in (1, 2):
            for k in range(n, 4):
                f = random_invariant_symmap(rng, name, ext, k)
                if f is None:
                    continue
                for _ in range(4):
                    sections = section_pool(rng, name, ext, n + 1)
                    report = verify_main_theorem(ext, f, sections, triv)
                    assert report.sign in (0, 1), (name, n, k)
                    signs.add(report.sign)
                    if report.sign == 1:
                        nondegenerate += 1
    assert nondegenerate > 0
    recorded = sorted(signs - {0})
    assert recorded == [1]
    budget.done(
        f"criterion 3: boundary identity on {stated_tuples}+ tuples, "
        f"global sign {recorded[0]:+d}")


def test_criterion_04_single_section_cocycle():
    budget = Budget(30.0)
    rng = random.Random(20240204)
    named = fixture_extensions()
    pool = sorted(named)
    checked = 0
    while checked < 50:
        name = pool[checked % len(pool)]
        ext = named[name]
        triv = trivial_representation(ext.base, 1)
        k = rng.randint(1, 3)
        f = random_invariant_symmap(rng, name, ext, k)
        if f is None:
            continue
        sec = section_pool(rng, name, ext, 1)[0]
        out = delta_f(ext, f, [sec], triv)
        assert ce_differential(out, triv).is_zero(), (name, k)
        checked += 1
    budget.done("criterion 4: d(Delta_f(s)) = 0 on 50 random triples")


def test_criterion_05_bianchi():
    budget = Budget(10.0)
    rng = random.Random(20240205)
    named = fixture_extensions()
    pool = sorted(named)
    for i in range(50):
        name = pool[i % len(pool)]
        ext = named[name]
        sec = rand_section(rng, ext)
        r = section_curvature(ext, sec)
        action = s_from_section(ext, sec)
        assert covariant_derivative(r, action).is_zero(), name
    budget.done("criterion 5: Bianchi identity on 50 random sections")


def _gl2_product():
    coeffs = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for l in range(2):
                coeffs[i * 2 + j][j * 2 + l][i * 2 + l] = Fraction(1)
    return BilinearProduct(4, 4, 4, coeffs)


def _gl2_commutator_action(mm):
    """Matrix of X -> [M, X] on flattened 2x2 matrices: a derivation of gl2."""
    ad = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    v = mm[i][k] if l == j else Fraction(0)
                    if i == k:
                        v -= mm[l][j]
                    ad[i * 2 + j][k * 2 + l] = v
    return ad


def test_criterion_06_leibniz():
    budget = Budget(30.0)
    rng = random.Random(20240206)
    h3 = heisenberg3()
    gl2 = _gl2_product()
    checked = 0
    while checked < 100:
        g = random_algebra(rng)
        if rng.random() < 0.5:
            m = lie_bracket_product(h3)
            action = LinearAction(
                g, [ad_matrix(h3, rand_vector(rng, 3)) for _ in range(g.dim)])
            dim_v = 3
        else:
            m = gl2
            action = LinearAction(
                g, [_gl2_commutator_action([rand_vector(rng, 2) for _ in range(2)])
                    for _ in range(g.dim)])
            dim_v = 4
        p = rng.randint(0, 2)
        q = rng.randint(0, min(2, 4 - p))
        a = rand_cochain(rng, g, p, dim_v)
        b = rand_cochain(rng, g, q, dim_v)
        lhs = covariant_derivative(wedge(a, b, m), action)
        rhs = wedge(covariant_derivative(a, action), b, m)
        term = wedge(a, covariant_derivative(b, action), m)
        rhs = rhs + (term if p % 2 == 0 else -term)
        assert lhs == rhs
        checked += 1
    budget.done("criterion 6: Leibniz rule on 100 random tuples")


def test_criterion_07_shuffle_vs_alt():
    budget = Budget(30.0)
    rng = random.Random(20240207)
    cases = 0
    for d in range(1, 5):
        g = abelian(d)
        for p in range(0, 5):
            for q in range(0, 5 - p):
                m = scalar_multiplication(1)
                a = rand_cochain(rng, g, p, 1)
                b = rand_cochain(rng, g, q, 1)
                by_shuffles = wedge(a, b, m)
                normalized = alt(g, p + q, 1, raw_product_table(a, b, m)) \
                    .scale(Fraction(1, factorial(p) * factorial(q)))
                assert by_shuffles == normalized, (d, p, q)
                cases += 1
    budget.done(f"criterion 7: shuffle wedge = normalized alternation, {cases} cases")


def test_criterion_08_integration_oracle():
    budget = Budget(5.0)
    rng = random.Random(20240208)
    for _ in range(50):
        n = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 7)):
            e = tuple(rng.randint(0, 6 // n) for _ in range(n))
            terms[e] = terms.get(e, Fraction(0)) + rand_fraction(rng)
        p = MultiPoly(n, terms)
        assert integrate_poly_simplex(p) == fubini_integral(p)
    budget.done("criterion 8: closed-form simplex integral = Fubini oracle, 50 polys")


def test_criterion_09_cohomology_dimensions(fixtures_dir):
    budget = Budget(5.0)
    line = abelian(1)
    assert cohomology_space(line, trivial_representation(line, 1), 1).h_dim == 1
    for name in ("oscillator", "heisenberg", "filiform"):
        ws = parse_workspace((fixtures_dir / f"{name}.json").read_text("utf-8"))
        for alg in ws.algebras.values():
            triv = trivial_representation(alg, 1)
            assert cohomology_space(alg, triv, 0).h_dim == 1
    h3 = heisenberg3()
    triv = trivial_representation(h3, 1)
    betti = [cohomology_space(h3, triv, p).h_dim for p in range(4)]
    assert betti == [1, 2, 2, 1]
    for p in range(4):
        dim_c = comb(3, p)
        r_p = rank(differential_matrix(h3, triv, p))
        r_prev = rank(differential_matrix(h3, triv, p - 1)) if p >= 1 else 0
        assert betti[p] == dim_c - r_p - r_prev
    budget.done("criterion 9: cohomology dimensions incl. Betti (1,2,2,1)")


def test_criterion_10_d_squared_zero():
    budget = Budget(30.0)
    rng = random.Random(20240210)
    for _ in range(200):
        alg = random_algebra(rng)
        rep = random_representation(rng, alg)
        p = rng.randint(0, alg.dim)
        w = rand_cochain(rng, alg, p, rep.space_dim)
        assert ce_differential(ce_differential(w, rep), rep).is_zero()
    budget.done("criterion 10: d . d = 0 on 200 random cochains")


def test_criterion_11_cli_round_trip(capsys, fixtures_dir, tmp_path):
    budget = Budget(1.0)
    for name in ("oscillator", "heisenberg", "filiform"):
        text = (fixtures_dir / f"{name}.json").read_text("utf-8")
        assert serialize_workspace(parse_workspace(text)) == text
    assert run_command(["validate", str(fixtures_dir / "oscillator.json")]) == 0
    broken = {"algebras": {"broken": {
        "dim": 3, "basis": ["p", "q", "z"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                     {"i": 1, "j": 2, "coeffs": {"1": "1"}}]}}}
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps(broken), encoding="utf-8")
    assert run_command(["validate", str(bad_path)]) == 1
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json", encoding="utf-8")
    assert run_command(["validate", str(mangled)]) == 2
    capsys.readouterr()
    with capsys.disabled():
        budget.done("criterion 11: byte round-trip and exit codes 0/1/2")


def santharoubane_betti(m):
    """dim H^p(h_{2m+1}, R) = C(2m, p) - C(2m, p-2) for p <= m, and Poincare
    duality dim H^p = dim H^{2m+1-p} above (Santharoubane, Proc. AMS 1983)."""
    low = [comb(2 * m, p) - (comb(2 * m, p - 2) if p >= 2 else 0) for p in range(m + 1)]
    return low + low[::-1]


def test_criterion_12_heisenberg_betti_and_whitehead(capsys):
    budget = Budget(20.0)
    rng = random.Random(20240212)
    for m in range(1, 5):
        std = heisenberg(m)
        betti = santharoubane_betti(m)
        assert len(betti) == 2 * m + 2
        for alg in (std, conjugate_algebra(rng, std)):
            triv = trivial_representation(alg, 1)
            assert [cohomology_space(alg, triv, p).h_dim for p in range(2 * m + 2)] == betti
    sl2 = algebra_from_brackets(
        ("h", "e", "f"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    for alg in (sl2, conjugate_algebra(rng, sl2)):
        triv = trivial_representation(alg, 1)
        adj = adjoint_representation(alg)
        assert [cohomology_space(alg, triv, p).h_dim for p in range(4)] == [1, 0, 0, 1]
        assert [cohomology_space(alg, adj, p).h_dim for p in range(4)] == [0, 0, 0, 0]
    with capsys.disabled():
        budget.done("criterion 12: Betti numbers of h_3..h_9 (two bases) and Whitehead for sl_2")


def test_criterion_13_h9_degree_four(capsys):
    budget = Budget(3.0)
    h9 = heisenberg(4)
    assert cohomology_space(h9, trivial_representation(h9, 1), 4).h_dim == 42
    with capsys.disabled():
        budget.done("criterion 13: H^4(h_9) has dimension 42")
