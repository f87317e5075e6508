import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from liechar import (ExactnessViolation, Extension, InvalidSection, MultiPoly, NotInvariant,
                     Section, SymMultiMap, abelian, adjoint_representation, chern_weil,
                     algebra_from_brackets, as_poly, covariant_derivative,
                     heisenberg3, identity, is_invariant, param_curvature,
                     param_section, parse_workspace, s_from_section,
                     section_curvature, section_difference, trivial_representation,
                     validate_extension, validate_section)
from liechar import extensions as extensions_module
from liechar.catalog import (affine_split_extension, filiform_extension,
                             heisenberg_central_extension, oscillator_extension)

from helpers import (conjugate_extension, direct_sum_extension, euclidean_extension,
                     fixture_extensions, kernel_functional, point_base_extension,
                     poly_diff, poly_eval_at, poly_total_degree, rand_fraction,
                     rand_section, rand_symmap, random_invariant_symmap, reference_is_invariant,
                     reference_kernel_action, reference_section_curvature,
                     reference_validate_extension, section_pool, to_poly)

ROTATION = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]


def oscillator_sections():
    ext = oscillator_extension()
    s0 = Section(ext, [[0], [0], [0], [1]])
    sz = Section(ext, [[0], [0], [1], [1]])
    return ext, s0, sz


def fz_map(kernel):
    return SymMultiMap(kernel, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})


def _aff1(names=("a", "b")):
    return algebra_from_brackets(names, {(0, 1): {1: 1}})


# One broken extension per failure kind of validate_extension, each with its
# full failure list in the order the checks run.
BROKEN_EXTENSIONS = {
    "dimension_count": (
        lambda: Extension(heisenberg3(), abelian(1), abelian(1),
                          [[0], [0], [1]], [[1, 0, 0]]),
        ["dimension count fails: dim kernel 1 + dim base 1 != dim total 3"]),
    "iota_not_injective": (
        lambda: Extension(heisenberg3(), abelian(2), abelian(1),
                          [[0], [0], [0]], [[1, 0, 0], [0, 1, 0]]),
        ["iota is not injective"]),
    "q_not_surjective": (
        lambda: Extension(heisenberg3(), abelian(2), abelian(1),
                          [[0], [0], [1]], [[1, 0, 0], [0, 0, 0]]),
        ["q is not surjective"]),
    "q_iota_nonzero": (
        lambda: Extension(abelian(3), abelian(2), abelian(1),
                          [[0], [0], [1]], [[1, 0, 1], [0, 1, 0]]),
        ["q . iota is not zero"]),
    "iota_not_homomorphism": (
        lambda: Extension(abelian(3), abelian(1), _aff1(),
                          [[1, 0], [0, 1], [0, 0]], [[0, 0, 1]]),
        ["iota is not a homomorphism on kernel pair (0,1)"]),
    "image_not_ideal": (
        lambda: Extension(_aff1(), abelian(1), abelian(1), [[1], [0]], [[0, 1]]),
        ["iota image is not an ideal: [e_1, iota e_0] escapes",
         "q is not a homomorphism on pair (0,1)"]),
    "q_not_homomorphism": (
        lambda: Extension(heisenberg3(), _aff1(), abelian(1),
                          [[0], [0], [1]], [[1, 0, 0], [0, 1, 0]]),
        ["q is not a homomorphism on pair (0,1)"]),
    "plane_in_heisenberg": (
        lambda: Extension(heisenberg3(), abelian(1), abelian(2),
                          [[1, 0], [0, 1], [0, 0]], [[0, 0, 1]]),
        ["iota is not a homomorphism on kernel pair (0,1)",
         "iota image is not an ideal: [e_0, iota e_1] escapes",
         "iota image is not an ideal: [e_1, iota e_0] escapes",
         "q is not a homomorphism on pair (0,1)"]),
    "everything_at_once": (
        lambda: Extension(heisenberg3(), _aff1(("c", "d")), _aff1(),
                          [[1, 1], [0, 0], [0, 0]], [[1, 1, 1], [0, 0, 0]]),
        ["dimension count fails: dim kernel 2 + dim base 2 != dim total 3",
         "iota is not injective",
         "q is not surjective",
         "q . iota is not zero",
         "iota is not a homomorphism on kernel pair (0,1)",
         "iota image is not an ideal: [e_1, iota e_0] escapes",
         "iota image is not an ideal: [e_1, iota e_1] escapes",
         "q is not a homomorphism on pair (0,1)"]),
}


class TestValidateExtension:
    def test_fixture_extensions_are_exact(self):
        for name, ext in fixture_extensions().items():
            assert validate_extension(ext) == [], name

    def test_heisenberg_central_by_hand(self):
        ext = heisenberg_central_extension()
        assert ext.iota == [[0], [0], [1]]
        assert validate_extension(ext) == []

    def test_zero_projection_fails_surjectivity(self):
        good = oscillator_extension()
        bad = Extension(good.total, good.base, good.kernel, good.iota, [[0, 0, 0, 0]])
        failures = validate_extension(bad)
        assert any("surjective" in f for f in failures)

    def test_non_ideal_kernel_detected(self):
        # span(p, q) inside h3 is not an ideal: [p, q] = z escapes it
        from liechar import abelian
        h3 = heisenberg3()
        kernel = abelian(2, ("u", "v"))
        iota = [[1, 0], [0, 1], [0, 0]]
        proj = [[0, 0, 1]]
        ext = Extension(h3, abelian(1, ("t",)), kernel, iota, proj)
        failures = validate_extension(ext)
        assert any("ideal" in f for f in failures)

    @pytest.mark.parametrize("case", sorted(BROKEN_EXTENSIONS))
    def test_full_failure_list(self, case):
        build, expected = BROKEN_EXTENSIONS[case]
        assert validate_extension(build()) == expected


def corruptions(rng, ext):
    """Broken copies of ext: one perturbed entry of iota or q, a kernel or a
    base swapped for an abelian algebra, a dropped row of q, a shrunken iota."""
    dt, dg, dn = ext.total.dim, ext.base.dim, ext.kernel.dim
    for _ in range(3):
        iota = [list(row) for row in ext.iota]
        iota[rng.randrange(dt)][rng.randrange(dn)] += rand_fraction(rng) or 1
        yield Extension(ext.total, ext.base, ext.kernel, iota, ext.proj)
        proj = [list(row) for row in ext.proj]
        proj[rng.randrange(dg)][rng.randrange(dt)] += rand_fraction(rng) or 1
        yield Extension(ext.total, ext.base, ext.kernel, ext.iota, proj)
    yield Extension(ext.total, ext.base, abelian(dn), ext.iota, ext.proj)
    yield Extension(ext.total, abelian(dg), ext.kernel, ext.iota, ext.proj)
    yield Extension(abelian(dt), ext.base, ext.kernel, ext.iota, ext.proj)
    if dg > 1:
        yield Extension(ext.total, abelian(dg - 1), ext.kernel, ext.iota, ext.proj[1:])
    if dn > 1:
        yield Extension(ext.total, ext.base, abelian(dn - 1), [row[1:] for row in ext.iota],
                        ext.proj)
    # the first dn coordinate lines as kernel: rarely an ideal in a dense basis
    unit_iota = [[Fraction(int(r == c)) for c in range(dn)] for r in range(dt)]
    yield Extension(ext.total, ext.base, abelian(dn), unit_iota, ext.proj)


def validation_cases():
    """Catalog, fixture and conjugated extensions, each with its corruptions,
    and the hand-built broken extensions."""
    rng = random.Random(93)
    root = Path(__file__).resolve().parents[1]
    valid = list(fixture_extensions().values()) + [
        heisenberg_central_extension(3), direct_sum_extension()]
    for name in ("oscillator", "heisenberg", "filiform"):
        text = (root / "fixtures" / f"{name}.json").read_text(encoding="utf-8")
        valid += parse_workspace(text).extensions.values()
    valid += [conjugate_extension(rng, ext) for ext in list(valid)]
    for ext in valid:
        yield ext
        yield from corruptions(rng, ext)
    for build, _ in BROKEN_EXTENSIONS.values():
        yield build()


class TestValidateAgainstReference:
    """validate_extension against one solve_linear per ideal pair and dense products."""

    def test_failure_lists_match(self):
        seen = set()
        count = 0
        for ext in validation_cases():
            failures = validate_extension(ext)
            assert failures == reference_validate_extension(ext), ext
            seen.update(f.split(":")[0].split(" on ")[0] for f in failures)
            count += 1
        assert count > 200
        assert seen == {"dimension count fails", "iota is not injective",
                        "q is not surjective", "q . iota is not zero",
                        "iota is not a homomorphism", "iota image is not an ideal",
                        "q is not a homomorphism"}

    def test_one_elimination_whatever_the_size(self, monkeypatch):
        """One sparse_rref per extension covers its construction, its validation,
        the induced actions of three sections and the strict actions."""
        calls = []
        original = extensions_module.sparse_rref

        def counting(rows, ncols):
            calls.append(ncols)
            return original(rows, ncols)

        def no_solve(a, b):
            raise AssertionError("validation and kernel actions must not solve per value")

        rng = random.Random(94)
        plain = direct_sum_extension()
        monkeypatch.setattr(extensions_module, "sparse_rref", counting)
        monkeypatch.setattr(extensions_module, "solve_linear", no_solve)
        counts, built = [], []
        for build in (heisenberg_central_extension, lambda: conjugate_extension(rng, plain)):
            calls.clear()
            ext = build()
            assert validate_extension(ext) == []
            for _ in range(3):
                s_from_section(ext, rand_section(rng, ext))
            triv = trivial_representation(ext.base, 1)
            is_invariant(rand_symmap(rng, ext.kernel, 2), ext, triv, "strict")
            counts.append(len(calls))
            built.append(ext)
        small, large = built
        assert counts == [1, 1]
        assert large.total.dim * large.kernel.dim == 24 > small.total.dim * small.kernel.dim


def _same_entries(got, want):
    """Equal matrices whose entries also agree in kind (Fraction or MultiPoly)."""
    assert got == want
    assert [[type(c) for c in row] for row in got] == [[type(c) for c in row] for row in want]


def _action_or_escape(action, ext, v):
    try:
        return action(ext, v)
    except ExactnessViolation:
        return "escapes"


class TestKernelActionAgainstReference:
    """The kernel actions read off the stored echelon agree with one
    kernel_coords solve of reference_bracket per column (reference_kernel_action)."""

    @staticmethod
    def cases():
        rng = random.Random(95)
        for name, ext in fixture_extensions().items():
            for copy in (ext, conjugate_extension(rng, ext)):
                sections = [rand_section(rng, copy) for _ in range(3)]
                if copy is ext:
                    sections += section_pool(rng, name, ext, 3)
                families = [param_section(copy, sections[:2]), param_section(copy, sections[:3]),
                            param_section(copy, [sections[0], sections[0]])]
                yield name, copy, sections + families

    def test_induced_actions_match(self):
        kinds = set()
        for name, ext, sections in self.cases():
            for sec in sections:
                got = s_from_section(ext, sec).matrices
                for i, mat in enumerate(got):
                    _same_entries(mat, reference_kernel_action(ext, sec.column(i)))
                    kinds.update(type(c) for row in mat for c in row)
        assert kinds == {Fraction, MultiPoly}

    def test_strict_actions_match(self):
        for name, ext, _ in self.cases():
            for v in identity(ext.total.dim):
                _same_entries(extensions_module._kernel_action(ext, v),
                              reference_kernel_action(ext, v))

    def test_corrupted_extensions_escape_as_the_reference_does(self):
        rng = random.Random(96)
        non_ideal = escaped = 0
        for ext in validation_cases():
            dt, dg = ext.total.dim, ext.base.dim
            sec = Section(ext, [[rand_fraction(rng) for _ in range(dg)] for _ in range(dt)])
            want = [_action_or_escape(reference_kernel_action, ext, sec.column(i))
                    for i in range(dg)]
            if "escapes" in want:
                escaped += 1
                with pytest.raises(ExactnessViolation):
                    s_from_section(ext, sec)
            else:
                for mat, ref in zip(s_from_section(ext, sec).matrices, want):
                    _same_entries(mat, ref)
            if any("ideal" in failure for failure in validate_extension(ext)):
                non_ideal += 1
                with pytest.raises(ExactnessViolation):
                    is_invariant(SymMultiMap.zero(ext.kernel, 1, 1), ext,
                                 trivial_representation(ext.base, 1), "strict")
        assert non_ideal >= 50 and escaped >= 50

    def test_wrong_length_is_refused(self):
        ext = oscillator_extension()
        for length in (ext.total.dim - 1, ext.total.dim + 1):
            with pytest.raises(ValueError, match="^dimension mismatch$"):
                extensions_module._kernel_action(ext, [Fraction(1)] * length)


class TestSections:
    def test_oscillator_distinguished_sections(self):
        ext, s0, sz = oscillator_sections()
        assert validate_section(ext, s0)
        assert validate_section(ext, sz)

    def test_zero_map_is_not_a_section(self):
        ext = oscillator_extension()
        zero = Section(ext, [[0]] * 4)
        assert not validate_section(ext, zero)

    def test_random_sections_are_valid(self):
        rng = random.Random(71)
        for name, ext in fixture_extensions().items():
            for sec in section_pool(rng, name, ext, 5):
                assert validate_section(ext, sec), name


class TestSectionCurvature:
    def test_heisenberg_standard_lift(self):
        ext = heisenberg_central_extension()
        sec = Section(ext, [[1, 0], [0, 1], [0, 0]])
        r = section_curvature(ext, sec)
        assert r.entry((0, 1)) == (1,)

    def test_split_homomorphism_section_is_flat(self):
        ext = affine_split_extension()
        sec = Section(ext, [[1, 0], [0, 1], [0, 0]])
        assert section_curvature(ext, sec).is_zero()

    def test_oscillator_curvatures_vanish(self):
        ext, s0, sz = oscillator_sections()
        assert section_curvature(ext, s0).is_zero()
        assert section_curvature(ext, sz).is_zero()

    def test_filiform_depends_on_section(self):
        ext = filiform_extension()
        sec = Section(ext, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                            [0, 0, Fraction(5, 3)]])
        r = section_curvature(ext, sec)
        assert r.entry((0, 1)) == (Fraction(-5, 3),)
        assert r.entry((0, 2)) == (1,)
        assert r.entry((1, 2)) == (0,)


class TestInducedAction:
    def test_oscillator_standard_lift_gives_rotation(self):
        ext, s0, _ = oscillator_sections()
        action = s_from_section(ext, s0)
        assert action.matrices[0] == [[Fraction(c) for c in row] for row in ROTATION]

    def test_central_kernel_gives_zero_action(self):
        rng = random.Random(72)
        for name in ("heisenberg", "filiform", "affine"):
            ext = fixture_extensions()[name]
            for _ in range(3):
                action = s_from_section(ext, rand_section(rng, ext))
                assert all(all(c == 0 for row in mat for c in row)
                           for mat in action.matrices), name

    def test_abelian_split_extension_action_is_zero(self):
        from liechar import abelian, semidirect_product
        plane = abelian(2)
        total = semidirect_product(plane, abelian(1, ("t",)),
                                   [[[0, 0], [0, 0]]])
        ext = Extension(total, abelian(1, ("t",)), plane,
                        [[1, 0], [0, 1], [0, 0]], [[0, 0, 1]])
        sec = Section(ext, [[0], [0], [1]])
        action = s_from_section(ext, sec)
        assert all(c == 0 for mat in action.matrices for row in mat for c in row)


class TestInvariance:
    def test_fz_invariant_under_section_policy(self):
        ext, s0, sz = oscillator_sections()
        triv = trivial_representation(ext.base, 1)
        assert is_invariant(fz_map(ext.kernel), ext, triv, "section", s0)
        assert is_invariant(fz_map(ext.kernel), ext, triv, "section", sz)

    def test_p_dual_not_invariant(self):
        ext, s0, _ = oscillator_sections()
        triv = trivial_representation(ext.base, 1)
        pdual = SymMultiMap(ext.kernel, 1, 1, {(0,): [1], (1,): [0], (2,): [0]})
        assert not is_invariant(pdual, ext, triv, "section", s0)

    @pytest.mark.parametrize("mode", ["section", "strict"])
    def test_module_over_another_algebra_refused(self, mode):
        ext, s0, _ = oscillator_sections()
        on_total = trivial_representation(ext.total, 1)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            is_invariant(fz_map(ext.kernel), ext, on_total, mode, s0)

    def test_fz_fails_strict_policy(self):
        # ad(p) moves q to z inside the kernel, so the two readings differ
        ext, _, _ = oscillator_sections()
        triv = trivial_representation(ext.base, 1)
        assert not is_invariant(fz_map(ext.kernel), ext, triv, "strict")

    def test_central_kernel_everything_invariant_sectionwise(self):
        rng = random.Random(73)
        ext = heisenberg_central_extension()
        triv = trivial_representation(ext.base, 1)
        for _ in range(5):
            f = rand_symmap(rng, ext.kernel, rng.randint(1, 3))
            assert is_invariant(f, ext, triv, "section", rand_section(rng, ext))

    def test_euclidean_radial_form_strictly_invariant(self):
        from helpers import random_invariant_symmap
        rng = random.Random(74)
        ext = euclidean_extension()
        triv = trivial_representation(ext.base, 1)
        f = random_invariant_symmap(rng, "euclidean", ext, 2)
        assert is_invariant(f, ext, triv, "strict")
        assert is_invariant(f, ext, triv, "section", rand_section(rng, ext))


    def test_repeated_indices_count_with_their_multiplicity(self):
        # (x^2 + y^2)^k on the euclidean plane: at the key (0, 0, 0, 1) the three
        # copies of index 0 must balance the one copy of index 1
        rng = random.Random(75)
        ext = euclidean_extension()
        triv = trivial_representation(ext.base, 1)
        for degree in (4, 6):
            f = random_invariant_symmap(rng, "euclidean", ext, degree)
            sec = rand_section(rng, ext)
            for mode in ("section", "strict"):
                assert reference_is_invariant(f, ext, triv, mode, sec)
                assert is_invariant(f, ext, triv, mode, sec)


class TestZeroDimensionalBase:
    """0 -> h3 -> h3 -> 0 -> 0: q has no rows but still dim(total) columns."""

    def test_validate_extension_is_clean(self):
        assert validate_extension(point_base_extension()) == []

    def test_strict_invariance_sees_every_total_basis_vector(self):
        # ad(p) maps q to z, so z* fails x.f(q) = f(ad(x) q) at x = p
        ext = point_base_extension()
        triv = trivial_representation(ext.base, 1)
        assert not is_invariant(kernel_functional(ext.kernel, 2), ext, triv, "strict")
        zero = SymMultiMap.zero(ext.kernel, 1, 1)
        assert is_invariant(zero, ext, triv, "strict")

    def test_strict_chern_weil_refuses_z_star(self):
        ext = point_base_extension()
        triv = trivial_representation(ext.base, 1)
        sec = Section(ext, [[], [], []])
        with pytest.raises(NotInvariant):
            chern_weil(ext, kernel_functional(ext.kernel, 2), sec, triv, mode="strict")

    def test_zero_dimensional_total_reports_its_failures(self):
        ext = Extension(abelian(0), abelian(0), abelian(2), [], [])
        assert validate_extension(ext) == [
            "dimension count fails: dim kernel 2 + dim base 0 != dim total 0",
            "iota is not injective"]


class TestAgainstReference:
    """section_curvature and is_invariant agree with the unit-vector oracles."""

    def test_section_curvature(self):
        rng = random.Random(91)
        for name, ext in fixture_extensions().items():
            sections = section_pool(rng, name, ext, 2) + [rand_section(rng, ext)]
            for sec in sections + [param_section(ext, sections)]:
                assert (section_curvature(ext, sec)
                        == reference_section_curvature(ext, sec)), name

    @pytest.mark.parametrize("mode", ["section", "strict"])
    def test_is_invariant(self, mode):
        rng = random.Random(92)
        outcomes = []
        for name, ext in fixture_extensions().items():
            reps = [trivial_representation(ext.base, 1), trivial_representation(ext.base, 2),
                    adjoint_representation(ext.base)]
            for rep, degree in product(reps, range(4)):
                maps = [rand_symmap(rng, ext.kernel, degree, rep.space_dim)]
                if rep.space_dim == 1:
                    maps.append(random_invariant_symmap(rng, name, ext, degree))
                for f in filter(None, maps):
                    for sec in section_pool(rng, name, ext, 1) + [rand_section(rng, ext)]:
                        got = is_invariant(f, ext, rep, mode, sec)
                        assert got == reference_is_invariant(f, ext, rep, mode, sec), (
                            name, rep.space_dim, degree)
                        outcomes.append(got)
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


class TestParamFamily:
    def test_equal_sections_give_constant_family(self):
        ext, s0, _ = oscillator_sections()
        st = param_section(ext, [s0, s0])
        assert st.is_polynomial
        for r in range(4):
            assert as_poly(st.matrix[r][0], 1).is_constant()

    def test_oscillator_affine_combination(self):
        ext, s0, sz = oscillator_sections()
        st = param_section(ext, [s0, sz])
        assert st.matrix[2][0].coefficient((1,)) == 1
        assert st.matrix[3][0] == 1

    def test_projection_composes_to_identity_as_polynomials(self):
        rng = random.Random(81)
        ext = filiform_extension()
        sections = [rand_section(rng, ext) for _ in range(3)]
        st = param_section(ext, sections)
        assert validate_section(ext, st)

    def test_rejects_invalid_input_section(self):
        ext, s0, _ = oscillator_sections()
        broken = Section(ext, [[0]] * 4)
        with pytest.raises(InvalidSection):
            param_section(ext, [s0, broken])

    def test_entries_keep_the_multipoly_invariants(self):
        """Each entry equals b + sum_i t_i (s_i - b) in public MultiPoly arithmetic,
        stores only nonzero Fraction coefficients and keys of nvars ints."""
        rng = random.Random(86)
        zero_bases = 0
        for name, ext in fixture_extensions().items():
            sections = [rand_section(rng, ext) for _ in range(3)]
            for chosen in (sections[:2], sections, [sections[1]] * 3):
                n = len(chosen) - 1
                for r, row in enumerate(param_section(ext, chosen).matrix):
                    for c, entry in enumerate(row):
                        b = chosen[0].matrix[r][c]
                        want = MultiPoly.constant(n, b)
                        for i, sec in enumerate(chosen[1:]):
                            want = want + MultiPoly.variable(n, i) * (sec.matrix[r][c] - b)
                        assert type(entry) is MultiPoly and entry.nvars == want.nvars == n
                        assert entry.terms == want.terms, (name, r, c)
                        assert all(type(x) is Fraction and x for x in entry.terms.values())
                        assert all(type(key) is tuple and len(key) == n
                                   and all(type(e) is int for e in key) for key in entry.terms)
                        zero_bases += not b
        assert zero_bases >= 10

    def test_vertex_specialization_matches_sections(self):
        rng = random.Random(82)
        for name in ("heisenberg", "filiform", "affine", "euclidean"):
            ext = fixture_extensions()[name]
            sections = [rand_section(rng, ext) for _ in range(3)]
            st = param_section(ext, sections)
            rt = param_curvature(ext, st)
            n = 2
            for i, sec in enumerate(sections):
                point = [Fraction(0)] * n
                if i >= 1:
                    point[i - 1] = Fraction(1)
                specialized = rt.map_values(lambda p: poly_eval_at(as_poly(p, n), point))
                assert specialized == section_curvature(ext, sec), (name, i)

    def test_curvature_entries_have_degree_at_most_two(self):
        rng = random.Random(83)
        ext = heisenberg_central_extension(2)
        sections = [rand_section(rng, ext) for _ in range(3)]
        rt = param_curvature(ext, param_section(ext, sections))
        assert all(poly_total_degree(v) <= 2
                   for val in rt.values.values() for v in val)

    def test_heisenberg_central_shift_is_flat_in_t(self):
        ext = heisenberg_central_extension()
        s0 = Section(ext, [[1, 0], [0, 1], [0, 0]])
        s1 = Section(ext, [[1, 0], [0, 1], [1, 0]])
        rt = param_curvature(ext, param_section(ext, [s0, s1]))
        assert rt.entry((0, 1))[0] == 1  # constant polynomial z-coefficient

    def test_family_derivative_is_twisted_derivative_of_difference(self):
        rng = random.Random(84)
        for name in ("heisenberg", "filiform", "affine", "oscillator"):
            ext = fixture_extensions()[name]
            sections = section_pool(rng, name, ext, 3)
            st = param_section(ext, sections)
            rt = param_curvature(ext, st)
            st_action = s_from_section(ext, st)
            for i in (1, 2):
                alpha = to_poly(section_difference(ext, sections[i], sections[0]), 2)
                lhs = covariant_derivative(alpha, st_action)
                rhs = rt.map_values(lambda p: poly_diff(p, i - 1))
                assert lhs == rhs, (name, i)


class TestKernelCoordinates:
    def test_escaping_value_raises(self):
        ext = heisenberg_central_extension()
        from liechar import kernel_coords
        with pytest.raises(ExactnessViolation):
            kernel_coords(ext, [Fraction(1), Fraction(0), Fraction(0)])

    def test_section_difference_lands_in_kernel(self):
        rng = random.Random(85)
        for name, ext in fixture_extensions().items():
            a, b = section_pool(rng, name, ext, 2)
            diff = section_difference(ext, a, b)
            assert diff.degree == 1 and diff.target_dim == ext.kernel.dim
