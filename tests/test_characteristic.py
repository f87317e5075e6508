import random
import time
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from liechar import (Cochain, DegreeError, InvalidSection, InvarianceWarning,
                     NotACocycle, NotAdmissible, NotClosed, NotInvariant,
                     Representation, Section, SymMultiMap, abelian,
                     adjoint_representation, ce_differential,
                     chern_weil, classes_equal, cohomology_space, compose_sym,
                     delta_f, heisenberg, heisenberg3, oscillator,
                     increasing_tuples, is_invariant, secondary_class,
                     section_curvature, trivial_representation, verify_main_theorem)
from liechar.catalog import (filiform_extension, heisenberg_central_extension,
                             oscillator_extension)
from liechar.cochains import _differential_rows
from liechar.linalg import sparse_rref

from helpers import (SMALL_ALGEBRAS, assert_exact_entries, conjugate_algebra, conjugate_extension,
                     dense_cohomology, dense_differential_matrix, dense_matrices,
                     direct_sum_extension, exact_entry, fixture_extensions,
                     greedy_cohomology, point_base_extension, rand_cochain, rand_fraction,
                     rand_section, rand_symmap, random_algebra, random_invariant_symmap,
                     random_module, random_representation, raise_everywhere, rank,
                     reference_delta_f, reference_twisted_differential, reference_wedge,
                     scalar_multiplication,
                     section_difference, section_pool, sl_n, sym_product, zero_table)


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
            r_p = rank(dense_differential_matrix(h3, triv, p)) if dim_c else 0
            r_prev = rank(dense_differential_matrix(h3, triv, p - 1)) if p >= 1 else 0
            assert cohomology_space(h3, triv, p).h_dim == dim_c - r_p - r_prev

    def test_coboundaries_inside_cocycles(self):
        h3 = heisenberg3()
        triv = trivial_representation(h3, 1)
        space = cohomology_space(h3, triv, 2)
        for w in space.coboundary_basis:
            assert ce_differential(w, triv).is_zero()

    @pytest.mark.parametrize("build, module", [(lambda: heisenberg(2), "trivial"),
                                               (heisenberg3, "adjoint"),
                                               (oscillator, "adjoint")],
                             ids=["h5-trivial", "h3-adjoint", "oscillator-adjoint"])
    def test_projection_holds_coordinates_of_the_cocycle_basis(self, build, module):
        # column j of class_projection is the class of cocycle_basis[j]; coboundaries are 0
        rng = random.Random(17)
        std = build()
        for alg in (std, conjugate_algebra(rng, std)):
            rep = (trivial_representation(alg, 1) if module == "trivial"
                   else adjoint_representation(alg))
            for degree in range(alg.dim + 2):
                space = cohomology_space(alg, rep, degree)
                projection = space.class_projection
                assert len(projection) == space.h_dim
                assert all(len(row) == len(space.cocycle_basis) for row in projection)
                for j, z in enumerate(space.cocycle_basis):
                    assert space.coordinates_of(z) == tuple(row[j] for row in projection)
                for w in space.coboundary_basis:
                    assert space.coordinates_of(w) == (Fraction(0),) * space.h_dim

    def test_module_over_an_equal_algebra_object_is_accepted(self):
        # the module's algebra is compared by structure, not by identity
        h3, twin = heisenberg3(), heisenberg3()
        assert twin is not h3
        for p in range(4):
            space = cohomology_space(h3, adjoint_representation(twin), p)
            same = cohomology_space(h3, adjoint_representation(h3), p)
            assert space.h_dim == same.h_dim
            assert space.coboundary_basis == same.coboundary_basis

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
                w = zero_table(Cochain, alg, degree, rep.space_dim)
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


class TestAgainstDensePath:
    """The sparse H^p matches the dense construction value for value and kind for kind."""

    @staticmethod
    def entries(cochains):
        return [x for w in cochains for val in w.values.values() for x in val]

    @pytest.mark.parametrize("name", sorted(SMALL_ALGEBRAS))
    def test_small_algebras(self, name):
        rng = random.Random(sorted(SMALL_ALGEBRAS).index(name) + 4100)
        std = SMALL_ALGEBRAS[name]()
        for alg in (std, conjugate_algebra(rng, std)):
            for rep in (trivial_representation(alg, 1), adjoint_representation(alg),
                        random_module(rng, alg)):
                for degree in range(alg.dim + 2):
                    space = cohomology_space(alg, rep, degree)
                    ref = dense_cohomology(alg, rep, degree)
                    assert space.h_dim == ref.h_dim
                    assert space.cocycle_basis == ref.cocycle_basis
                    assert space.coboundary_basis == ref.coboundary_basis
                    assert space.class_projection == ref.class_projection
                    values = (self.entries(space.cocycle_basis + space.coboundary_basis)
                              + [x for row in space.class_projection for x in row])
                    assert all(type(x) is Fraction for x in values)
                    for _ in range(3):
                        w = zero_table(Cochain, alg, degree, rep.space_dim)
                        for z in space.cocycle_basis + space.coboundary_basis:
                            w = w + z.scale(rand_fraction(rng))
                        coords = space.coordinates_of(w)
                        assert coords == ref.coordinates_of(w)
                        assert all(type(x) is Fraction for x in coords)


class TestClassStepEdgeShapes:
    """The H step on its edge shapes, against both references: no coboundaries
    (degree 0), B = Z with B nonzero (sl_2 adjoint), the top degree, and an
    empty cochain space past it."""

    @staticmethod
    def assert_reduced(projection):
        leads = [next(j for j, x in enumerate(row) if x) for row in projection]
        assert leads == sorted(set(leads))
        for row, lead in zip(projection, leads):
            assert [row[j] for j in leads] == [int(j == lead) for j in leads]

    @pytest.mark.parametrize("name, module, degree, shape", [
        ("heisenberg3", "trivial", 0, "no B"),
        ("filiform4", "adjoint", 0, "no B"),
        ("sl2", "adjoint", 1, "B = Z"),
        ("sl2", "adjoint", 2, "B = Z"),
        ("sl2", "adjoint", 3, "B = Z"),
        ("filiform4", "trivial", 4, "top"),
        ("heisenberg3", "adjoint", 3, "top"),
        ("heisenberg3", "trivial", 4, "empty"),
        ("sl2", "adjoint", 5, "empty"),
    ])
    def test_edge_shape(self, name, module, degree, shape):
        rng = random.Random(sorted(SMALL_ALGEBRAS).index(name) + 10 * degree + 4300)
        std = SMALL_ALGEBRAS[name]()
        for alg in (std, conjugate_algebra(rng, std)):
            rep = (trivial_representation(alg, 1) if module == "trivial"
                   else adjoint_representation(alg))
            space = cohomology_space(alg, rep, degree)
            nz, nb = len(space.cocycle_basis), len(space.coboundary_basis)
            assert {"no B": nb == 0 < nz, "B = Z": nz == nb > 0,
                    "top": degree == alg.dim and nz > 0,
                    "empty": nz == 0 and degree > alg.dim}[shape]
            assert space.h_dim == nz - nb
            ref = dense_cohomology(alg, rep, degree)
            h_dim, projection, coords = greedy_cohomology(alg, rep, degree)
            assert space.h_dim == ref.h_dim == h_dim
            assert space.cocycle_basis == ref.cocycle_basis
            assert space.coboundary_basis == ref.coboundary_basis
            assert space.class_projection == ref.class_projection == projection
            assert len(space.class_projection) == space.h_dim
            assert all(len(row) == nz for row in space.class_projection)
            self.assert_reduced(space.class_projection)
            w = zero_table(Cochain, alg, degree, rep.space_dim)
            for z in space.cocycle_basis:
                w = w + z.scale(rand_fraction(rng))
            assert space.coordinates_of(w) == ref.coordinates_of(w) == coords(w)


class TestNonCocycles:
    """coordinates_of rejects a cochain with d w != 0 through its own solve."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_seeded_cochain_in_every_degree(self, m):
        rng = random.Random(130 + m)
        alg = heisenberg(m)
        rep = adjoint_representation(alg)
        for degree in range(alg.dim):
            space = cohomology_space(alg, rep, degree)
            w = rand_cochain(rng, alg, degree, rep.space_dim)
            for z in space.cocycle_basis:
                w = w + z.scale(rand_fraction(rng))
            assert not ce_differential(w, rep).is_zero()
            with pytest.raises(NotACocycle, match=r"^differential of the cochain is nonzero$"):
                space.coordinates_of(w)


class TestReferencesShareNoCode:
    """The dense oracles never reach the library's elimination or rows of d."""

    def test_dense_and_greedy_cohomology(self, monkeypatch):
        from liechar import cochains, linalg

        h3, h5 = heisenberg3(), heisenberg(2)
        cases = []
        for alg, rep in ((h5, trivial_representation(h5, 1)), (h3, adjoint_representation(h3))):
            for degree in range(alg.dim + 2):
                space = cohomology_space(alg, rep, degree)
                cases.append((alg, rep, degree, space.h_dim, space.class_projection))
        raise_everywhere(monkeypatch, linalg, "sparse_rref")
        raise_everywhere(monkeypatch, cochains, "_differential_rows")
        for alg, rep, degree, h_dim, projection in cases:
            ref = dense_cohomology(alg, rep, degree)
            assert (ref.h_dim, ref.class_projection) == (h_dim, projection)
            assert greedy_cohomology(alg, rep, degree)[:2] == (h_dim, projection)


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
        zero = zero_table(Cochain, plane, 2, 1)
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


class TestDeltaFAgainstReference:
    """delta_f equals the reference that promotes every argument to a MultiPoly
    and integrates every entry, value for value and kind for kind."""

    @staticmethod
    def extensions():
        return {**fixture_extensions(), "direct_sum": direct_sum_extension()}

    @staticmethod
    def assert_same(out, ref):
        assert (out.degree, out.target_dim) == (ref.degree, ref.target_dim)
        assert out.values == ref.values
        assert all(type(x) is Fraction for w in (out, ref) for v in w.values.values() for x in v)

    @staticmethod
    def quiet(compute):
        with warnings.catch_warnings():  # the seeded maps need not be invariant
            warnings.simplefilter("ignore", InvarianceWarning)
            return compute()

    @pytest.mark.parametrize("p,n", [(p, n) for p in range(1, 5) for n in range(min(p, 3) + 1)])
    def test_delta_f(self, p, n):
        rng = random.Random(1000 + 10 * p + n)
        for name, ext in self.extensions().items():
            triv = trivial_representation(ext.base, 1)
            for _ in range(2):
                f = rand_symmap(rng, ext.kernel, p)
                sections = section_pool(rng, name, ext, n + 1)
                out = self.quiet(lambda: delta_f(ext, f, sections, triv))
                self.assert_same(out, reference_delta_f(ext, f, sections))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constant_integrand_at_p_equal_n(self, monkeypatch, n):
        # no curvature, no polynomial, no integration: f(a_1..a_n) / n!
        from liechar import characteristic, extensions
        for name in ("_family_curvature", "integrate_poly_simplex"):
            monkeypatch.setattr(characteristic, name, None)
        monkeypatch.setattr(extensions, "_curvature_values", None)
        rng = random.Random(1100 + n)
        for name, ext in self.extensions().items():
            triv = trivial_representation(ext.base, 1)
            f = rand_symmap(rng, ext.kernel, n)
            sections = section_pool(rng, name, ext, n + 1)
            out = self.quiet(lambda: delta_f(ext, f, sections, triv))
            self.assert_same(out, reference_delta_f(ext, f, sections))
            diffs = [section_difference(ext, s, sections[0]) for s in sections[1:]]
            assert out == compose_sym(f, diffs).scale(Fraction(1, factorial(n)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verify_main_theorem_faces_and_sides(self, n):
        rng = random.Random(1200 + n)
        for name, ext in self.extensions().items():
            triv = trivial_representation(ext.base, 1)
            for k in range(n, 4):
                f = rand_symmap(rng, ext.kernel, k)
                sections = section_pool(rng, name, ext, n + 1)
                report = self.quiet(lambda: verify_main_theorem(ext, f, sections, triv))
                lhs = ce_differential(reference_delta_f(ext, f, sections), triv)
                self.assert_same(report.lhs, lhs.scale(Fraction(k - n + 1)))
                faces = [sections[:i] + sections[i + 1:] for i in range(n + 1)]
                rhs = None
                for i, face in enumerate(faces):
                    ref = reference_delta_f(ext, f, face)
                    self.assert_same(self.quiet(lambda: delta_f(ext, f, face, triv)), ref)
                    ref = -ref if i % 2 else ref
                    rhs = ref if rhs is None else rhs + ref
                self.assert_same(report.rhs, rhs)


class TestOneKernelSolve:
    """delta_f with n >= 1, secondary_class and verify_main_theorem read every
    value they need in kernel coordinates (vertex curvatures, differences, cross
    brackets; every face of the identity included) with one kernel_coords call."""

    def test_one_kernel_coords_call_per_public_call(self, monkeypatch):
        from liechar import extensions
        calls = []
        original = extensions.kernel_coords

        def counting(ext, *vecs):
            calls.append(len(vecs))
            return original(ext, *vecs)

        monkeypatch.setattr(extensions, "kernel_coords", counting)
        rng = random.Random(1500)
        quiet = TestDeltaFAgainstReference.quiet
        for name, ext in TestDeltaFAgainstReference.extensions().items():
            triv = trivial_representation(ext.base, 1)
            for n in (1, 2, 3):
                for p in range(n, 4):
                    f = rand_symmap(rng, ext.kernel, p)
                    sections = section_pool(rng, name, ext, n + 1)
                    calls.clear()
                    quiet(lambda: delta_f(ext, f, sections, triv))
                    assert len(calls) == 1, (name, n, p)
                    calls.clear()
                    quiet(lambda: verify_main_theorem(ext, f, sections, triv))
                    assert len(calls) == 1, (name, n, p)
                    if n == 1:
                        calls.clear()
                        try:
                            secondary_class(ext, f, *sections, triv)
                        except (NotAdmissible, NotInvariant):
                            pass
                        assert len(calls) == 1, (name, p)
        ext, s0, sz, fz, triv = oscillator_setup()
        calls.clear()
        assert secondary_class(ext, fz, s0, sz, triv).coordinates == (1,)
        assert len(calls) == 1


class TestZeroByDegree:
    """Delta_f of degree 2p - n above dim g, and both sides of the boundary
    identity when 2p - n + 1 exceeds dim g, are zero by degree: they come out
    with no R_t, no composition and no d, after every input check and the one
    kernel_coords call of the vertex data, and equal the references."""

    @staticmethod
    def module(base):
        """A module on which the base acts by nonzero matrices: the adjoint plus a
        trivial line in a seeded basis when the base is not abelian, else e_i
        acting by (i + 1) N for one nilpotent N (these commute)."""
        if any(rows is not None for rows in adjoint_representation(base).sparse):
            return random_module(random.Random(base.dim), base)
        return Representation(base, 2, [[[0, i + 1], [0, 0]] for i in range(base.dim)])

    @staticmethod
    def degrees(base_dim):
        """(p, n) with 1 <= p <= 4 and n <= min(p, 3) where Delta_f or the
        identity is zero by degree; the flags say which of the two."""
        for n in range(4):
            for p in range(max(n, 1), 5):
                delta_zero = 2 * p - n > base_dim
                theorem_zero = n > 0 and 2 * p - n + 1 > base_dim
                if delta_zero or theorem_zero:
                    yield p, n, delta_zero, theorem_zero

    def test_no_composition_curvature_or_differential(self, monkeypatch):
        from liechar import characteristic, extensions
        calls = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        for name in ("compose_sym", "_family_curvature", "ce_differential"):
            count(characteristic, name)
        count(extensions, "kernel_coords")
        rng = random.Random(1600)
        quiet = TestDeltaFAgainstReference.quiet
        seen = set()
        for name, ext in fixture_extensions().items():
            triv = trivial_representation(ext.base, 1)
            for p, n, delta_zero, theorem_zero in self.degrees(ext.base.dim):
                f = rand_symmap(rng, ext.kernel, p)
                sections = section_pool(rng, name, ext, n + 1)
                if delta_zero:
                    calls.clear()
                    out = quiet(lambda: delta_f(ext, f, sections, triv))
                    assert out.is_zero() and out.degree == 2 * p - n
                    assert calls == {"kernel_coords": 1}, (name, p, n)
                    seen.add((name, "delta_f"))
                if theorem_zero:
                    calls.clear()
                    report = quiet(lambda: verify_main_theorem(ext, f, sections, triv))
                    assert report.lhs.is_zero() and report.rhs.is_zero()
                    assert calls == {"kernel_coords": 1}, (name, p, n)
                    seen.add((name, "theorem"))
        assert seen == {(name, call) for name in fixture_extensions()
                        for call in ("delta_f", "theorem")}

    def test_against_the_references(self):
        rng = random.Random(1601)
        quiet = TestDeltaFAgainstReference.quiet
        assert_same = TestDeltaFAgainstReference.assert_same
        classes = 0
        for name, plain in fixture_extensions().items():
            for ext in (plain, conjugate_extension(rng, plain)):
                for rep in (trivial_representation(ext.base, 1), self.module(ext.base)):
                    m = rep.space_dim
                    for p, n, delta_zero, theorem_zero in self.degrees(ext.base.dim):
                        f = random_invariant_symmap(rng, name, ext, p) if m == 1 else None
                        f = f or rand_symmap(rng, ext.kernel, p, m)
                        sections = (section_pool(rng, name, ext, n + 1) if ext is plain
                                    else [rand_section(rng, ext) for _ in range(n + 1)])
                        ref = reference_delta_f(ext, f, sections)
                        for mode in ("section", "strict"):
                            invariant = (all(is_invariant(f, ext, rep, mode, s) for s in sections)
                                         if mode == "section" else is_invariant(f, ext, rep, mode))
                            if delta_zero:
                                assert_same(quiet(lambda: delta_f(ext, f, sections, rep, mode)),
                                            ref)
                            if delta_zero and n == 0:
                                classes += self.assert_class(
                                    invariant, lambda: chern_weil(ext, f, sections[0], rep, mode),
                                    ref.scale(Fraction(1, factorial(p))))
                            if theorem_zero and n == 1:
                                classes += self.assert_class(
                                    invariant,
                                    lambda: secondary_class(ext, f, *sections, rep, mode), ref)
                            if theorem_zero:
                                self.assert_report(
                                    quiet(lambda: verify_main_theorem(ext, f, sections, rep, mode)),
                                    ext, f, sections, rep)
        assert classes > 0

    @staticmethod
    def assert_class(invariant, compute, representative):
        """The class of a representative whose faces or itself are zero by
        degree, or NotInvariant; True when a class was computed."""
        if not invariant:
            with pytest.raises(NotInvariant):
                compute()
            return False
        cls = compute()
        TestDeltaFAgainstReference.assert_same(cls.representative, representative)
        assert cls.coordinates == cls.h_space.coordinates_of(representative)
        if representative.degree > representative.source.dim:
            assert cls.coordinates == () and cls.h_space.h_dim == 0
        return True

    @staticmethod
    def assert_report(report, ext, f, sections, rep):
        p, n = f.degree, len(sections) - 1
        assert_same = TestDeltaFAgainstReference.assert_same
        lhs = reference_twisted_differential(reference_delta_f(ext, f, sections),
                                             dense_matrices(rep))
        assert_same(report.lhs, lhs.scale(Fraction(p - n + 1)))
        rhs = None
        for i in range(n + 1):
            ref = reference_delta_f(ext, f, sections[:i] + sections[i + 1:])
            ref = -ref if i % 2 else ref
            rhs = ref if rhs is None else rhs + ref
        assert_same(report.rhs, rhs)
        assert report.lhs.target_dim == rep.space_dim
        assert (report.equal, report.sign, report.difference) == (True, 0, None)

    def test_invariance_warning_from_the_identity(self):
        # p = n = 1 on the oscillator: both sides have degree 2 > dim g = 1
        ext, s0, sz, _, triv = oscillator_setup()
        pdual = SymMultiMap(ext.kernel, 1, 1, {(0,): [1], (1,): [0], (2,): [0]})
        for mode in ("section", "strict"):
            with pytest.warns(InvarianceWarning):
                report = verify_main_theorem(ext, pdual, [s0, sz], triv, mode)
            assert report.lhs.degree == 2 and (report.equal, report.sign) == (True, 0)


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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_heisenberg_powers_of_the_symplectic_form(self, m):
        # h_{2m+1} -> R^{2m} with the standard lift: the curvature is the
        # symplectic form w = sum_i p_i* ^ q_i*, and (1/p!) [f(R, .., R)] for
        # f = z^p is w^p / p! = sum over p-sets I of the wedge of p_i* ^ q_i*,
        # i in I.  On the increasing key (p_I, q_I) that wedge is
        # (-1)^(p(p-1)/2); it vanishes off such keys, and for p > m entirely.
        ext = heisenberg_central_extension(m)
        triv = trivial_representation(ext.base, 1)
        sec = Section(ext, [[int(r == c) for c in range(2 * m)] for r in range(2 * m + 1)])
        for p in range(1, m + 2):
            f = SymMultiMap(ext.kernel, p, 1, {(0,) * p: [1]})
            cls = chern_weil(ext, f, sec, triv)
            sign = -1 if p * (p - 1) // 2 % 2 else 1
            expected = {tuple(subset) + tuple(i + m for i in subset): (sign,)
                        for subset in combinations(range(m), p)}
            assert cls.degree == 2 * p and cls.h_space.h_dim == comb(2 * m, 2 * p)
            assert cls.representative.values == {
                key: expected.get(key, (0,)) for key in increasing_tuples(2 * m, 2 * p)}
            assert any(cls.coordinates) == (p <= m), (m, p)

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


class TestInputChecks:
    """The class and relative-cochain entry points check each input once."""

    @staticmethod
    def counting(monkeypatch, name, calls, key=lambda *args: True, module="characteristic"):
        import importlib

        owner = importlib.import_module(f"liechar.{module}")
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if key(*args):
                calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def count_checks(self, monkeypatch, compute):
        calls = {}
        self.counting(monkeypatch, "validate_section", calls, module="extensions")
        self.counting(monkeypatch, "is_invariant", calls)
        closedness = []
        self.counting(monkeypatch, "ce_differential", calls,
                      key=lambda w, rep: closedness.append(w) or False)
        cls = compute()
        calls["ce_differential"] = sum(1 for w in closedness if w is cls.representative)
        return calls

    def test_chern_weil(self, monkeypatch):
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        sec = Section(ext, [[1, 0], [0, 1], [0, 0]])
        calls = self.count_checks(monkeypatch, lambda: chern_weil(ext, f, sec, triv))
        assert calls == {"validate_section": 1, "is_invariant": 1, "ce_differential": 0}

    def test_secondary_class(self, monkeypatch):
        ext, s0, sz, fz, triv = oscillator_setup()
        calls = self.count_checks(
            monkeypatch, lambda: secondary_class(ext, fz, s0, sz, triv))
        assert calls == {"validate_section": 2, "is_invariant": 2, "ce_differential": 0}

    @pytest.mark.parametrize("mode", ["section", "strict"])
    @pytest.mark.parametrize("count", [2, 3])
    def test_delta_f_and_verify_main_theorem(self, monkeypatch, mode, count):
        # validate_section is counted where the section check calls it
        rng = random.Random(40 + count)
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 2, 1, {(0, 0): [1]})
        sections = [rand_section(rng, ext) for _ in range(count)]
        for compute in (delta_f, verify_main_theorem):
            calls = {}
            self.counting(monkeypatch, "validate_section", calls, module="extensions")
            self.counting(monkeypatch, "is_invariant", calls)
            compute(ext, f, sections, triv, mode)
            monkeypatch.undo()
            assert calls == {"validate_section": count,
                             "is_invariant": count if mode == "section" else 1}, compute

    def test_invalid_section_messages(self):
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [0]})
        good = Section(ext, [[1, 0], [0, 1], [0, 0]])
        bad = Section(ext, [[2, 0], [0, 1], [0, 0]])
        with pytest.raises(InvalidSection, match="^section 0 fails q . sigma = id$"):
            chern_weil(ext, f, bad, triv)
        with pytest.raises(InvalidSection, match="^section 1 fails q . sigma = id$"):
            delta_f(ext, f, [good, bad], triv)
        with pytest.raises(InvalidSection, match="^second section fails q . sigma = id$"):
            secondary_class(ext, f, good, bad, triv)

    def test_non_closed_representative_raises_not_closed(self, monkeypatch):
        import liechar.characteristic as characteristic

        ext = heisenberg_central_extension()
        # a module on which the first base vector acts by 1: constants and
        # the dual of the second base vector are no longer closed
        rep = Representation(ext.base, 1, [[[1]], [[0]]])
        sec = Section(ext, [[1, 0], [0, 1], [0, 0]])
        const = SymMultiMap(ext.kernel, 0, 1, {(): [1]})
        with pytest.raises(NotInvariant):
            chern_weil(ext, const, sec, rep)
        monkeypatch.setattr(characteristic, "is_invariant", lambda *args: True)
        with pytest.raises(NotClosed, match="^representative is not closed$"):
            chern_weil(ext, const, sec, rep)
        zero = SymMultiMap(ext.kernel, 1, 1, {(0,): [0]})
        other = Section(ext, [[1, 0], [0, 1], [1, 0]])
        not_closed = Cochain(ext.base, 1, 1, {(0,): [0], (1,): [1]})
        real_delta_f = characteristic._delta_f
        # the one-section admissibility tests still run through the real _delta_f
        monkeypatch.setattr(
            characteristic, "_delta_f", lambda f, vertices: not_closed
            if len(vertices.differences) == 1 else real_delta_f(f, vertices))
        with pytest.raises(NotClosed, match="admissible map is not closed"):
            secondary_class(ext, zero, sec, other, rep)


class TestProductHomomorphism:
    def test_degree_one_one_case_on_symplectic_central_extension(self):
        # (1/2!) (f v g) applied to two curvature slots equals the wedge of
        # the two single-slot composites; on the rank-2 symplectic central
        # extension both sides are a nonzero top-degree cochain
        rng = random.Random(121)
        ext = heisenberg_central_extension(2)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [Fraction(2, 3)]})
        g = SymMultiMap(ext.kernel, 1, 1, {(0,): [Fraction(-5, 2)]})
        mult = scalar_multiplication(1)
        fg = sym_product(f, g, mult)
        sec = section_pool(rng, "heisenberg5", ext, 1)[0]
        r = section_curvature(ext, sec)
        lhs = compose_sym(fg, [r, r]).scale(Fraction(1, 2))
        rhs = reference_wedge(compose_sym(f, [r]), compose_sym(g, [r]), mult)
        assert lhs == rhs
        assert not lhs.is_zero()

    def test_class_level_product(self):
        # the class of f v g is the product of the two primary classes
        rng = random.Random(122)
        ext = heisenberg_central_extension(2)
        triv = trivial_representation(ext.base, 1)
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
        product = reference_wedge(parts[0].representative, parts[1].representative,
                                  scalar_multiplication(1))
        assert classes_equal(cls.representative, product, cls.h_space)


class TestSecondaryClass:
    def test_oscillator_golden_class(self):
        ext, s0, sz, fz, triv = oscillator_setup()
        cls = secondary_class(ext, fz, s0, sz, triv)
        assert cls.degree == 1
        assert cls.h_space.h_dim == 1
        assert cls.coordinates == (1,)

    def test_cocycle_property_on_seeded_triples(self):
        # [Delta(s_b,s_c)] - [Delta(s_a,s_c)] + [Delta(s_a,s_b)] = 0; for the
        # sections s_c: w -> w + c z each class is c_b - c_a, an answer read
        # off the sections that shares no code with compose_sym
        ext, _, _, fz, triv = oscillator_setup()
        rng = random.Random(61)
        for _ in range(8):
            cs = [rand_fraction(rng) for _ in range(3)]
            sections = [Section(ext, [[0], [0], [c], [1]]) for c in cs]
            coords = {}
            for i, j in combinations(range(3), 2):
                cls = secondary_class(ext, fz, sections[i], sections[j], triv)
                assert cls.coordinates == (cs[j] - cs[i],)
                coords[i, j] = cls.coordinates[0]
            assert coords[1, 2] - coords[0, 2] + coords[0, 1] == 0

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


class TestZeroDimensionalBase:
    """0 -> h3 -> h3 -> 0 -> 0 with the degree-2 map z*^2: every cochain
    over the 0-dimensional base of positive degree is zero."""

    @staticmethod
    def inputs():
        ext = point_base_extension()
        f = SymMultiMap(ext.kernel, 2, 1, {key: [int(key == (2, 2))]
                                           for key in SymMultiMap.key_tuples(3, 2)})
        sec = Section(ext, [[], [], []])
        return ext, f, sec, trivial_representation(ext.base, 1)

    def test_delta_f_of_two_sections_is_zero(self):
        ext, f, sec, triv = self.inputs()
        got = delta_f(ext, f, [sec, sec], triv)
        assert got.degree == 3 and got.is_zero()

    def test_main_theorem_sides_vanish(self):
        ext, f, sec, triv = self.inputs()
        report = verify_main_theorem(ext, f, [sec, sec], triv)
        assert report.equal and report.sign == 0

    def test_secondary_class_is_zero_dimensional(self):
        ext, f, sec, triv = self.inputs()
        cls = secondary_class(ext, f, sec, sec, triv)
        assert (cls.degree, cls.h_space.h_dim, cls.coordinates) == (3, 0, ())


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


class TestMainTheoremSignsBesidesPlus:
    """The report of sides that agree only up to -1, or not at all; in both
    cases difference holds lhs - rhs."""

    def test_sign_minus_one(self, monkeypatch):
        import liechar.characteristic as characteristic

        ext = filiform_extension()
        triv = trivial_representation(ext.base, 1)
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        s0 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
        s1 = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [Fraction(1, 2), 0, 3]])
        real = characteristic.ce_differential
        monkeypatch.setattr(characteristic, "ce_differential", lambda w, rep: -real(w, rep))
        report = verify_main_theorem(ext, f, [s0, s1], triv)
        assert (report.equal, report.sign) == (False, -1)
        assert report.lhs == -report.rhs and not report.lhs.is_zero()
        assert report.difference == report.lhs - report.rhs
        assert report.difference.entry((0, 1)) == (6,)

    def test_sign_none_for_a_map_that_is_not_invariant(self):
        ext = heisenberg_central_extension()
        # e1 of the base acts on R by 1: f(z) = z is no longer invariant
        rep = Representation(ext.base, 1, [[[1]], [[0]]])
        f = SymMultiMap(ext.kernel, 1, 1, {(0,): [1]})
        s0 = Section(ext, [[1, 0], [0, 1], [0, 0]])
        s1 = Section(ext, [[1, 0], [0, 1], [0, 2]])
        with pytest.warns(InvarianceWarning):
            report = verify_main_theorem(ext, f, [s0, s1], rep)
        assert (report.equal, report.sign) == (False, None)
        assert report.rhs.is_zero()
        assert report.lhs.nonzero == {(0, 1): (2,)}
        assert report.difference == report.lhs - report.rhs


class TestPublicOutputsStayFraction:
    """The algebra and module tables keep an integral constant as an int, so the
    rows of d are integer rows on an integral algebra; every public output read
    from them is Fraction all the same, on integral algebras and on conjugated
    copies with rational constants."""

    @staticmethod
    def cases():
        rng = random.Random(390)
        for std in (heisenberg(2), oscillator(), SMALL_ALGEBRAS["sl2"]()):
            for alg in (std, conjugate_algebra(rng, std)):
                for rep in (trivial_representation(alg, 1), adjoint_representation(alg)):
                    yield std is alg, alg, rep

    def test_tables_hold_ints_and_outputs_hold_fractions(self):
        rng = random.Random(391)
        seen = {"int rows": 0, "rational constants": 0, "classes": 0}
        for integral, alg, rep in self.cases():
            constants = [c for plane in alg.sparse for terms in plane for _, c in terms]
            if integral:
                assert all(type(c) is int for c in constants)
            else:
                assert all(exact_entry(c) for c in constants)
                seen["rational constants"] += any(type(c) is Fraction for c in constants)
            for p in range(min(alg.dim, 4) + 1):
                rows = _differential_rows(alg, rep, p)
                assert all(exact_entry(x) for row in rows for x in row.values())
                if integral:
                    assert all(type(x) is int for row in rows for x in row.values())
                    seen["int rows"] += bool(rows)
                echelon = sparse_rref(rows, comb(alg.dim, p) * rep.space_dim)
                assert all(type(x) is Fraction for _, row in echelon for x in row.values())
                space = cohomology_space(alg, rep, p)
                for w in space.cocycle_basis + space.coboundary_basis:
                    assert_exact_entries(w)
                    assert_exact_entries(ce_differential(w, rep))
                assert all(type(x) is Fraction for row in space.class_projection for x in row)
                for w in space.cocycle_basis[:4]:
                    assert all(type(x) is Fraction for x in space.coordinates_of(w))
                seen["classes"] += space.h_dim
                assert_exact_entries(ce_differential(rand_cochain(rng, alg, p, rep.space_dim),
                                                     rep))
        assert seen["int rows"] > 20 and seen["rational constants"] == 6 and seen["classes"] > 20


class TestSl3:
    """sl_3 in the basis E_ij, h_i, whose constants are 0, +-1 and +-2."""

    def test_sl2_from_sl_n(self):
        # (e, f, h) = (E_12, E_21, h_1): [e, f] = h, [e, h] = -2 e, [f, h] = 2 f
        sl2 = sl_n(2)
        assert sl2.basis_names == ("E1_2", "E2_1", "h1")
        assert (sl2.sparse[0][1], sl2.sparse[0][2], sl2.sparse[1][2]) == (
            ((2, 1),), ((0, -2),), ((1, 2),))

    def test_poincare_polynomial(self):
        # H^*(sl_3) = (1 + t^3)(1 + t^5) (Chevalley-Eilenberg 1948), in the standard
        # basis, on integer rows, and in a seeded basis with rational constants
        sl3 = sl_n(3)
        assert {c for plane in sl3.sparse for terms in plane for _, c in terms} == {
            -2, -1, 1, 2}
        conj = conjugate_algebra(random.Random(392), sl3)
        assert any(type(c) is Fraction for plane in conj.sparse for terms in plane
                   for _, c in terms)
        start = time.perf_counter()
        for alg in (sl3, conj):
            triv = trivial_representation(alg, 1)
            assert [cohomology_space(alg, triv, p).h_dim for p in range(9)] == [
                1, 0, 0, 1, 0, 1, 0, 0, 1]
        assert time.perf_counter() - start < 1.0
