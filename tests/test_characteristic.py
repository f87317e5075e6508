import random
import warnings
from fractions import Fraction

import pytest

from liechar import (Cochain, InvarianceWarning, NotACocycle, NotAdmissible,
                     NotInvariant, DegreeError, Section, SymMultiMap,
                     abelian, adjoint_representation, ce_differential,
                     chern_weil, classes_equal, cohomology_space, compose_sym,
                     delta_f, differential_matrix, heisenberg, heisenberg3,
                     rank, secondary_class, section_curvature,
                     trivial_representation, verify_main_theorem)
from liechar.catalog import (filiform_extension, heisenberg_central_extension,
                             oscillator_extension)

from helpers import (fixture_extensions, greedy_cohomology, rand_cochain,
                     rand_fraction, random_algebra, random_invariant_symmap,
                     random_representation, section_pool)


def oscillator_setup():
    ext = oscillator_extension()
    s0 = Section(ext, [[0], [0], [0], [1]])
    sz = Section(ext, [[0], [0], [1], [1]])
    fz = SymMultiMap(ext.kernel, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})
    triv = trivial_representation(ext.base, 1)
    return ext, s0, sz, fz, triv


class TestCohomologySpace:
    def test_line_degree_one(self):
        line = abelian(1)
        space = cohomology_space(line, trivial_representation(line, 1), 1)
        assert space.h_dim == 1

    def test_degree_zero_constants(self):
        for alg in (abelian(1), abelian(2), heisenberg3()):
            space = cohomology_space(alg, trivial_representation(alg, 1), 0)
            assert space.h_dim == 1

    def test_plane_top_degree(self):
        plane = abelian(2)
        space = cohomology_space(plane, trivial_representation(plane, 1), 2)
        assert space.h_dim == 1

    def test_heisenberg_betti_numbers(self):
        h3 = heisenberg3()
        triv = trivial_representation(h3, 1)
        assert [cohomology_space(h3, triv, p).h_dim for p in range(4)] == [1, 2, 2, 1]

    def test_dimensions_against_rank_nullity(self):
        # independent route: dim H^p = dim C^p - rank d_p - rank d_{p-1}
        from math import comb
        h3 = heisenberg3()
        triv = trivial_representation(h3, 1)
        for p in range(4):
            dim_c = comb(3, p)
            r_p = rank(differential_matrix(h3, triv, p)) if dim_c else 0
            r_prev = rank(differential_matrix(h3, triv, p - 1)) if p >= 1 else 0
            assert cohomology_space(h3, triv, p).h_dim == dim_c - r_p - r_prev

    def test_coboundaries_inside_cocycles(self):
        h3 = heisenberg3()
        triv = trivial_representation(h3, 1)
        space = cohomology_space(h3, triv, 2)
        for w in space.coboundary_basis:
            assert ce_differential(w, triv).is_zero()

    def test_beyond_top_degree_is_zero_space(self):
        h3 = heisenberg3()
        space = cohomology_space(h3, trivial_representation(h3, 1), 4)
        assert space.h_dim == 0 and space.cocycle_basis == []


class TestAgainstGreedyReference:
    """The single-echelon H^p matches the per-cocycle greedy construction."""

    def check(self, rng, alg, rep):
        for degree in range(alg.dim + 2):
            space = cohomology_space(alg, rep, degree)
            h_dim, projection, coords = greedy_cohomology(alg, rep, degree)
            assert space.h_dim == h_dim
            assert space.class_projection == projection
            for _ in range(3):
                w = Cochain.zero(alg, degree, rep.space_dim)
                for z in space.cocycle_basis:
                    w = w + z.scale(rand_fraction(rng))
                assert space.coordinates_of(w) == coords(w)

    def test_random_algebras_and_modules(self):
        rng = random.Random(93)
        for _ in range(6):
            alg = random_algebra(rng)
            for rep in (trivial_representation(alg, 1), random_representation(rng, alg)):
                self.check(rng, alg, rep)

    def test_heisenberg5_adjoint(self):
        h5 = heisenberg(2)
        self.check(random.Random(94), h5, adjoint_representation(h5))


class TestClassesEqual:
    def test_reflexive(self):
        rng = random.Random(91)
        h3 = heisenberg3()
        triv = trivial_representation(h3, 1)
        space = cohomology_space(h3, triv, 2)
        w = space.cocycle_basis[0]
        assert classes_equal(w, w, space)

    def test_shift_by_coboundary(self):
        rng = random.Random(92)
        h3 = heisenberg3()
        triv = trivial_representation(h3, 1)
        space = cohomology_space(h3, triv, 2)
        w = space.cocycle_basis[1]
        eta = rand_cochain(rng, h3, 1, 1)
        assert classes_equal(w, w + ce_differential(eta, triv), space)

    def test_plane_area_form_not_null(self):
        plane = abelian(2)
        triv = trivial_representation(plane, 1)
        space = cohomology_space(plane, triv, 2)
        area = Cochain(plane, 2, 1, {(0, 1): [1]})
        zero = Cochain.zero(plane, 2, 1)
        assert not classes_equal(area, zero, space)

    def test_rejects_non_cocycles(self):
        h3 = heisenberg3()
        triv = trivial_representation(h3, 1)
        space = cohomology_space(h3, triv, 1)
        zdual = Cochain(h3, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})
        with pytest.raises(NotACocycle):
            classes_equal(zdual, zdual, space)


class TestDeltaF:
    def test_oscillator_golden_value(self):
        ext, s0, sz, fz, triv = oscillator_setup()
        out = delta_f(ext, fz, [s0, sz], triv)
        assert out.degree == 1
        assert out.entry((0,)) == (1,)

    def test_single_section_identity_functional(self):
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        sec = Section(ext, [[1, 0], [0, 1], [0, 0]])
        out = delta_f(ext, f, [sec], triv)
        assert out.degree == 2 and out.entry((0, 1)) == (1,)

    def test_equal_sections_vanish(self):
        ext, s0, _, fz, triv = oscillator_setup()
        assert delta_f(ext, fz, [s0, s0], triv).is_zero()

    def test_degree_error_when_more_sections_than_slots(self):
        ext, s0, sz, fz, triv = oscillator_setup()
        with pytest.raises(DegreeError):
            delta_f(ext, fz, [s0, sz, s0], triv)

    def test_invariance_warning_attached_but_computation_proceeds(self):
        ext, s0, _, _, triv = oscillator_setup()
        pdual = SymMultiMap(ext.kernel, 1, 1, {(0,): [1], (1,): [0], (2,): [0]})
        with pytest.warns(InvarianceWarning):
            out = delta_f(ext, pdual, [s0], triv)
        assert out.is_zero()  # curvature vanishes regardless

    def test_constant_integrand_scaled_by_simplex_volume(self):
        # p = n = 2: no curvature slots; the integral over D_2 contributes 1/2
        ext = filiform_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 2, 1, {(0, 0): [1]})
        s0 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
        s1 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])
        s2 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]])
        out = delta_f(ext, f, [s0, s1, s2], triv)
        # alpha_1 = x1* c, alpha_2 = x2* c; the (1,1)-partition sum gives
        # f(a1(x1), a2(x2)) - f(a1(x2), a2(x1)) = 1 on (x1, x2), then * 1/2
        assert out.entry((0, 1)) == (Fraction(1, 2),)


class TestChernWeil:
    def test_heisenberg_identity_functional_coordinate_one(self):
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        rng = random.Random(101)
        for _ in range(3):
            sec = section_pool(rng, "heisenberg", ext, 1)[0]
            cls = chern_weil(ext, f, sec, triv)
            assert cls.coordinates == (1,)
            assert cls.h_space.h_dim == 1

    def test_section_independence(self):
        ext = filiform_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        rng = random.Random(102)
        sections = section_pool(rng, "filiform", ext, 4)
        classes = [chern_weil(ext, f, sec, triv) for sec in sections]
        for a in classes:
            for b in classes:
                assert a.coordinates == b.coordinates
                assert classes_equal(a.representative, b.representative, a.h_space)

    def test_oscillator_flat_sections_give_zero_class(self):
        ext, s0, _, fz, triv = oscillator_setup()
        cls = chern_weil(ext, fz, s0, triv)
        assert cls.representative.is_zero()
        assert all(c == 0 for c in cls.coordinates)

    def test_requires_invariance(self):
        ext, s0, _, _, triv = oscillator_setup()
        pdual = SymMultiMap(ext.kernel, 1, 1, {(0,): [1], (1,): [0], (2,): [0]})
        with pytest.raises(NotInvariant):
            chern_weil(ext, pdual, s0, triv)

    def test_degree_beyond_top_lands_in_zero_space(self):
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 2, 1, {(0, 0): [1]})
        sec = Section(ext, [[1, 0], [0, 1], [0, 0]])
        cls = chern_weil(ext, f, sec, triv)  # degree 4 > dim 2
        assert cls.degree == 4 and cls.coordinates == () and cls.h_space.h_dim == 0


class TestProductHomomorphism:
    def test_degree_one_one_case_on_symplectic_central_extension(self):
        # (1/2!) (f v g) applied to two curvature slots equals the wedge of
        # the two single-slot composites; on the rank-2 symplectic central
        # extension both sides are a nonzero top-degree cochain
        from liechar import scalar_multiplication, sym_product, wedge

        rng = random.Random(121)
        ext = heisenberg_central_extension(2)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [Fraction(2, 3)]})
        g = SymMultiMap(ext.kernel, 1, 1, {(0,): [Fraction(-5, 2)]})
        mult = scalar_multiplication(1)
        fg = sym_product(f, g, mult)
        sec = section_pool(rng, "heisenberg5", ext, 1)[0]
        r = section_curvature(ext, sec)
        lhs = compose_sym(fg, [r, r]).scale(Fraction(1, 2))
        rhs = wedge(compose_sym(f, [r]), compose_sym(g, [r]), mult)
        assert lhs == rhs
        assert not lhs.is_zero()

    def test_class_level_product(self):
        # the class of f v g is the product of the two primary classes
        rng = random.Random(122)
        ext = heisenberg_central_extension(2)
        triv = trivial_representation(ext.base, 1)
        from liechar import scalar_multiplication, sym_product, wedge

        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [Fraction(2, 3)]})
        g = SymMultiMap(ext.kernel, 1, 1, {(0,): [Fraction(-5, 2)]})
        fg = sym_product(f, g, scalar_multiplication(1))
        sec = section_pool(rng, "heisenberg5", ext, 1)[0]
        cls = chern_weil(ext, fg, sec, triv)
        assert cls.degree == 4 and cls.h_space.h_dim == 1
        # curvature is z times the symplectic form s = e1*^e3* + e2*^e4*;
        # expanding the six (2,2)-shuffles by hand, (s ^ s)(e1,e2,e3,e4) = -2
        # (only the position pairs (1,3)|(2,4) and (2,4)|(1,3) survive, both
        # with negative shuffle sign), so the coordinate is f(z) g(z) (-2)
        assert cls.coordinates == (Fraction(2, 3) * Fraction(-5, 2) * -2,)
        parts = [chern_weil(ext, h, sec, triv) for h in (f, g)]
        product = wedge(parts[0].representative, parts[1].representative,
                        scalar_multiplication(1))
        assert classes_equal(cls.representative, product, cls.h_space)


class TestSecondaryClass:
    def test_oscillator_golden_class(self):
        ext, s0, sz, fz, triv = oscillator_setup()
        cls = secondary_class(ext, fz, s0, sz, triv)
        assert cls.degree == 1
        assert cls.h_space.h_dim == 1
        assert cls.coordinates == (1,)

    def test_equal_sections_give_zero_class(self):
        ext, s0, _, fz, triv = oscillator_setup()
        cls = secondary_class(ext, fz, s0, s0, triv)
        assert cls.representative.is_zero()
        assert all(c == 0 for c in cls.coordinates)

    def test_p_dual_is_admissible_but_null(self):
        # flat curvature keeps any functional admissible, but p* is not
        # invariant, so the class itself is refused; the relative cochain
        # computes to zero because p*((sz - s0)(w)) = p*(z) = 0
        ext, s0, sz, _, triv = oscillator_setup()
        pdual = SymMultiMap(ext.kernel, 1, 1, {(0,): [1], (1,): [0], (2,): [0]})
        composite = compose_sym(pdual, [section_curvature(ext, s0)])
        assert composite.is_zero()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InvarianceWarning)
            out = delta_f(ext, pdual, [s0, sz], triv)
        assert out.is_zero()

    def test_not_admissible_raises(self):
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        s0 = Section(ext, [[1, 0], [0, 1], [0, 0]])
        s1 = Section(ext, [[1, 0], [0, 1], [1, 0]])
        with pytest.raises(NotAdmissible):
            secondary_class(ext, f, s0, s1, triv)  # curvature z never vanishes

    def test_split_extension_nonzero_secondary_class(self):
        # the situation the construction is for: flat sections, vanishing
        # primary classes, yet a nonzero degree-(2p-1) class
        ext, s0, sz, fz, triv = oscillator_setup()
        primary = chern_weil(ext, fz, s0, triv)
        assert primary.representative.is_zero()
        secondary = secondary_class(ext, fz, s0, sz, triv)
        assert secondary.coordinates == (1,)


class TestMainTheorem:
    def test_filiform_nondegenerate_sign(self):
        ext = filiform_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        s0 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
        s1 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [Fraction(1, 2), 0, 3]])
        report = verify_main_theorem(ext, f, [s0, s1], triv)
        assert report.equal and report.sign == 1
        assert not report.lhs.is_zero()
        # d(f(alpha)) on (x1, x2) is -alpha_c(x3) = -3
        assert report.lhs.entry((0, 1)) == (-3,)

    def test_filiform_three_sections_cancellation(self):
        ext = filiform_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 2, 1, {(0, 0): [1]})
        rng = random.Random(111)
        sections = section_pool(rng, "filiform", ext, 3)
        report = verify_main_theorem(ext, f, sections, triv)
        assert report.equal
        # individually nonzero faces must cancel exactly
        parts = [delta_f(ext, f, sections[:i] + sections[i + 1:], triv)
                 for i in range(3)]
        assert any(not p.is_zero() for p in parts)

    def test_identical_sections_give_zero_sides(self):
        ext, s0, _, fz, triv = oscillator_setup()
        report = verify_main_theorem(ext, fz, [s0, s0], triv)
        assert report.equal and report.sign == 0

    def test_degree_error(self):
        ext, s0, sz, fz, triv = oscillator_setup()
        with pytest.raises(DegreeError):
            verify_main_theorem(ext, fz, [s0, sz, s0], triv)

    def test_seeded_sweep_consistent_sign(self):
        rng = random.Random(112)
        signs = set()
        checked = 0
        for name in ("oscillator", "heisenberg", "filiform", "affine", "heisenberg5"):
            ext = fixture_extensions()[name]
            triv = trivial_representation(ext.base, 1)
            for n in (1, 2):
                for k in range(n, 4):
                    f = random_invariant_symmap(rng, name, ext, k)
                    if f is None:
                        continue
                    for _ in range(3):
                        sections = section_pool(rng, name, ext, n + 1)
                        report = verify_main_theorem(ext, f, sections, triv)
                        assert report.sign in (0, 1), (name, n, k)
                        signs.add(report.sign)
                        checked += 1
        assert checked >= 60
        assert 1 in signs  # at least one nondegenerate case pinned the sign


class TestCorollaries:
    def test_single_section_cochain_is_closed(self):
        # degree-0 face of the boundary identity
        rng = random.Random(113)
        for name in ("heisenberg", "filiform", "affine", "heisenberg5", "oscillator"):
            ext = fixture_extensions()[name]
            triv = trivial_representation(ext.base, 1)
            for k in (1, 2):
                f = random_invariant_symmap(rng, name, ext, k)
                if f is None:
                    continue
                sec = section_pool(rng, name, ext, 1)[0]
                out = delta_f(ext, f, [sec], triv)
                assert ce_differential(out, triv).is_zero(), (name, k)

    def test_two_section_comparison(self):
        # degree-1 face: k d(Delta_f(s0, s1)) equals Delta_f(s1) - Delta_f(s0)
        rng = random.Random(114)
        for name in ("heisenberg", "filiform", "affine", "heisenberg5"):
            ext = fixture_extensions()[name]
            triv = trivial_representation(ext.base, 1)
            for k in (1, 2):
                f = random_invariant_symmap(rng, name, ext, k)
                s0, s1 = section_pool(rng, name, ext, 2)
                lhs = ce_differential(delta_f(ext, f, [s0, s1], triv), triv) \
                    .scale(Fraction(k))
                rhs = delta_f(ext, f, [s1], triv) - delta_f(ext, f, [s0], triv)
                assert lhs == rhs, (name, k)

    def test_class_equality_across_sections(self):
        rng = random.Random(115)
        ext = filiform_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        s0, s1 = section_pool(rng, "filiform", ext, 2)
        a = delta_f(ext, f, [s0], triv)
        b = delta_f(ext, f, [s1], triv)
        space = cohomology_space(ext.base, triv, 2)
        assert classes_equal(a, b, space)

    def test_admissible_pair_cochain_is_closed(self):
        rng = random.Random(116)
        ext, s0, sz, fz, triv = oscillator_setup()
        sections = section_pool(rng, "oscillator", ext, 2)
        out = delta_f(ext, fz, sections, triv)
        assert ce_differential(out, triv).is_zero()
