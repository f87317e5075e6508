import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from liechar import (ExactnessViolation, Extension, InvalidSection, MultiPoly, NotInvariant,
                     Representation, Section, SymMultiMap, abelian, adjoint_representation,
                     chern_weil, algebra_from_brackets, as_poly, delta_f, secondary_class,
                     verify_main_theorem,
                     heisenberg3, is_invariant, param_curvature,
                     parse_workspace, s_from_section,
                     kernel_coords, section_curvature, solve_linear,
                     trivial_representation, validate_extension, validate_section)
from liechar import extensions as extensions_module
from liechar.catalog import (affine_split_extension, filiform_extension,
                             heisenberg_central_extension, oscillator_extension)

from helpers import (column, conjugate_extension, transpose, dense_kernel_action, dense_mat_vec,
                     dense_solve, direct_sum_extension, euclidean_extension, fixture_extensions,
                     fraction_sparse_rref, identity, kernel_action_columns, kernel_functional,
                     point_base_extension, poly_diff, poly_eval_at, poly_total_degree,
                     poly_variable, rand_fraction, rand_section, rand_symmap,
                     random_invariant_symmap, rational_multiple, reference_bracket,
                     reference_is_invariant, reference_kernel_action,
                     family_point, reference_param_curvature, reference_param_section,
                     reference_section_curvature, reference_section_difference,
                     reference_twisted_differential,
                     reference_validate_extension, reference_validate_section,
                     section_difference, section_pool,
                     to_poly, zero_table)

ROTATION = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
ROTATION2 = [[0, -1], [1, 0]]


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

    @pytest.mark.parametrize("case", sorted(BROKEN_EXTENSIONS))
    def test_conjugated_broken_extensions(self, case):
        # a seeded basis of the total algebra makes iota and q dense; every
        # failure kind survives it, at pairs of the new basis
        rng = random.Random(96)
        build, expected = BROKEN_EXTENSIONS[case]
        kinds = {f.split(":")[0].split(" on ")[0] for f in expected}
        dense = 0
        for _ in range(6):
            ext = conjugate_extension(rng, build())
            failures = validate_extension(ext)
            assert failures == reference_validate_extension(ext)
            assert {f.split(":")[0].split(" on ")[0] for f in failures} == kinds
            dense += any(c not in (0, 1) for row in ext.iota + ext.proj for c in row)
        assert dense >= 4

    def test_non_unit_entries_that_break_the_bracket(self):
        # in a seeded basis, one entry of iota or q that is neither 0 nor +-1
        # is scaled: the homomorphism checks must read it off the sparse columns
        rng = random.Random(97)
        valid = list(fixture_extensions().values()) + [
            heisenberg_central_extension(2), direct_sum_extension()]
        seen = {"iota is not a homomorphism": 0, "q is not a homomorphism": 0}
        for ext in valid * 8:
            ext = conjugate_extension(rng, ext)
            for part in ("iota", "proj"):
                mat = [list(row) for row in getattr(ext, part)]
                spots = [(r, c) for r, row in enumerate(mat) for c, x in enumerate(row)
                         if x not in (0, 1, -1)]
                if not spots:
                    continue
                r, c = rng.choice(spots)
                mat[r][c] *= 3 if mat[r][c] in (Fraction(1, 2), Fraction(-1, 2)) else 2
                iota, proj = (mat, ext.proj) if part == "iota" else (ext.iota, mat)
                broken = Extension(ext.total, ext.base, ext.kernel, iota, proj)
                failures = validate_extension(broken)
                assert failures == reference_validate_extension(broken)
                for kind in seen:
                    seen[kind] += any(f.startswith(kind) for f in failures)
        assert min(seen.values()) >= 8, seen

    def test_one_elimination_whatever_the_size(self, monkeypatch):
        """Two sparse_rref calls per extension, whatever its size: the one at
        construction covers injectivity, the ideal property, the induced
        actions of three sections and the strict actions; validation adds the
        rank of q."""
        calls = []
        original = extensions_module.sparse_rref

        def counting(rows, ncols):
            calls.append(ncols)
            return original(rows, ncols)

        def no_solve(rows, rhs, ncols):
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
        assert counts == [2, 2]
        assert large.total.dim * large.kernel.dim == 24 > small.total.dim * small.kernel.dim


def _same_entries(got, want):
    """Equal column lists whose entries also agree in kind."""
    assert got == want
    assert [[type(c) for _, c in col] for col in got] == [[type(c) for _, c in col] for col in want]


def _reference_columns(ext, v):
    """The nonzero entries of each column of the reference kernel action."""
    try:
        return kernel_action_columns(reference_kernel_action(ext, v))
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
                yield name, copy, sections

    def test_induced_actions_match(self):
        kinds = set()
        for name, ext, sections in self.cases():
            for sec in sections:
                got = s_from_section(ext, sec)
                for i, cols in enumerate(got):
                    _same_entries(cols, _reference_columns(ext, column(sec, i)))
                    kinds.update(type(c) for col in cols for _, c in col)
        assert kinds == {Fraction}

    def test_strict_actions_match(self):
        for name, ext, _ in self.cases():
            for x, v in enumerate(identity(ext.total.dim)):
                _same_entries(extensions_module._kernel_action(ext, [(x, 1)]),
                              _reference_columns(ext, v))

    def test_corrupted_extensions_escape_as_the_reference_does(self):
        rng = random.Random(96)
        non_ideal = escaped = 0
        for ext in validation_cases():
            dt, dg = ext.total.dim, ext.base.dim
            sec = Section(ext, [[rand_fraction(rng) for _ in range(dg)] for _ in range(dt)])
            want = [_reference_columns(ext, column(sec, i)) for i in range(dg)]
            if "escapes" in want:
                escaped += 1
                with pytest.raises(ExactnessViolation):
                    s_from_section(ext, sec)
            else:
                for cols, ref in zip(s_from_section(ext, sec), want):
                    _same_entries(cols, ref)
            if any("ideal" in failure for failure in validate_extension(ext)):
                non_ideal += 1
                with pytest.raises(ExactnessViolation):
                    is_invariant(zero_table(SymMultiMap, ext.kernel, 1, 1), ext,
                                 trivial_representation(ext.base, 1), "strict")
        assert non_ideal >= 50 and escaped >= 50


    def test_columns_are_the_nonzero_entries_of_the_reference(self):
        # both modes: each column lists its nonzero entries by increasing row,
        # and filling them into a zero matrix gives the reference matrix
        kinds = set()
        for name, ext, sections in self.cases():
            pairs = [(column(sec, i), cols) for sec in sections
                     for i, cols in enumerate(s_from_section(ext, sec))]
            pairs += [(v, extensions_module._kernel_action(ext, [(x, 1)]))
                      for x, v in enumerate(identity(ext.total.dim))]
            for v, cols in pairs:
                assert len(cols) == ext.kernel.dim
                for col in cols:
                    rows = [r for r, _ in col]
                    assert rows == sorted(set(rows)) and all(e for _, e in col)
                    kinds.update(type(e) for _, e in col)
                assert dense_kernel_action(cols) == reference_kernel_action(ext, v), name
        assert kinds == {Fraction}

    def test_escaping_bracket_raises_in_both_modes(self):
        # only [q, iota e_0] = -2/3 z leaves the image of iota
        ext = TestScaledInconsistentRows.escaping()
        with pytest.raises(ExactnessViolation):
            extensions_module._kernel_action(ext, [(1, 1)])
        for x in (0, 2, 3):
            assert not any(extensions_module._kernel_action(ext, [(x, 1)]))
        sec = Section(ext, [[0, 0], [1, 0], [0, 1], [0, 0]])
        other = Section(ext, [[0, 0], [1, 0], [0, 1], [1, 0]])
        for escaping in (sec, other):
            with pytest.raises(ExactnessViolation):
                s_from_section(ext, escaping)
        with pytest.raises(ExactnessViolation):
            is_invariant(zero_table(SymMultiMap, ext.kernel, 1, 1), ext,
                         trivial_representation(ext.base, 1), "strict")


class TestScaledInconsistentRows:
    """sparse_rref returns an inconsistent row as a nonzero rational multiple of
    the row the Fraction loop leaves.  Every reader of the stored echelon only
    tests such a row's carried entries for zero, so each decides as before."""

    @staticmethod
    def escaping():
        # h_3 + R w with iota e_0 = 2/3 p + 1/4 w and iota e_1 = 5/6 w: of all
        # brackets [e_x, iota e_j] only [q, iota e_0] = -2/3 z leaves the image
        total = algebra_from_brackets(("p", "q", "z", "w"), {(0, 1): {2: 1}})
        iota = [[Fraction(2, 3), 0], [0, 0], [0, 0], [Fraction(1, 4), Fraction(5, 6)]]
        return Extension(total, abelian(2), abelian(2), iota, [[0, 1, 0, 0], [0, 0, 1, 0]])

    def test_escapes_match_the_dense_oracle_in_every_basis(self, monkeypatch):
        rng = random.Random(97)
        plain = self.escaping()
        captured = []
        original = extensions_module.sparse_rref

        def capture(rows, ncols):
            captured.append(([dict(row) for row in rows], ncols))
            return original(rows, ncols)

        monkeypatch.setattr(extensions_module, "sparse_rref", capture)
        scaled = 0
        for copy in [plain] + [conjugate_extension(rng, plain) for _ in range(6)]:
            captured.clear()
            ext = Extension(copy.total, copy.base, copy.kernel, copy.iota, copy.proj)
            dn, dt = ext.kernel.dim, ext.total.dim
            units = identity(dt)
            iota_cols = [[row[j] for row in ext.iota] for j in range(dn)]
            brackets = {(x, j): reference_bracket(ext.total, units[x], iota_cols[j])
                        for x in range(dt) for j in range(dn)}
            want = {pair for pair, v in brackets.items() if dense_solve(ext.iota, v) is None}
            assert (0 < len(want) <= dn * dt) and (copy is not plain or want == {(1, 0)})
            named = [f for f in validate_extension(ext) if "ideal" in f]
            assert named == [f"iota image is not an ideal: [e_{x}, iota e_{j}] escapes"
                             for x, j in sorted(want)]
            for (x, j), v in brackets.items():
                assert (solve_linear(ext._iota_rows, [v], dn) is None) == ((x, j) in want)
            for x in range(dt):
                if any(pair[0] == x for pair in want):
                    with pytest.raises(ExactnessViolation):
                        extensions_module._kernel_action(ext, [(x, 1)])
                else:
                    extensions_module._kernel_action(ext, [(x, 1)])
            # the stored echelon against the Fraction loop on the rows eliminated at
            # construction; validation eliminated the rows of q after them
            assert [ncols for _, ncols in captured] == [dn, dt]
            rows, ncols = captured[0]
            ref = fraction_sparse_rref(rows, ncols)
            npiv = sum(p < ncols for p, _ in ref)
            assert ext._echelon[:npiv] == ref[:npiv]
            assert len(ext._echelon) == len(ref)
            for (p, row), (_, ref_row) in zip(ext._echelon[npiv:], ref[npiv:]):
                assert p == ncols and rational_multiple(row, ref_row)
                scaled += row != ref_row
        assert scaled > 0


    def test_relative_cochains_raise_where_a_vertex_curvature_escapes(self, monkeypatch):
        """R(e_0, e_1) of a section here is -c z, c the p-entry of sigma e_1, and z
        is not in the image of iota; section differences and the brackets
        [D_i x, D_j y] stay in span(p, w).  Every public call first meets the
        escaping [q, iota e_0] in the invariance check.  Past that check, each
        raises ExactnessViolation exactly when it reads a curvature with c != 0:
        Delta_f for p > n, both admissibility checks and every face of the
        boundary identity.  The base has dimension 2, so many of these cochains
        are zero by degree; the vertex data is still read there, and at least
        one raising case of Delta_f and of the identity is such a case."""
        from liechar import characteristic

        ext = self.escaping()
        triv = trivial_representation(ext.base, 1)
        rng = random.Random(613)

        def section(c):
            return Section(ext, [[rand_fraction(rng), c], [1, 0], [0, 1],
                                 [rand_fraction(rng), rand_fraction(rng)]])

        def raises(call):
            try:
                call()
            except ExactnessViolation:
                return True
            return False

        f1 = rand_symmap(rng, ext.kernel, 1)
        assert raises(lambda: delta_f(ext, f1, [section(0)], triv))
        monkeypatch.setattr(characteristic, "is_invariant", lambda *args: True)
        zero_by_degree = set()
        for n in range(4):
            for cs in product((0, Fraction(2, 3)), repeat=n + 1):
                escapes = any(cs)
                for p in range(n, 4):
                    f = rand_symmap(rng, ext.kernel, p)
                    sections = [section(c) for c in cs]
                    raised = raises(lambda: delta_f(ext, f, sections, triv))
                    assert raised == (p > n and escapes), (n, cs, p)
                    if raised and 2 * p - n > ext.base.dim:
                        zero_by_degree.add("delta_f")
                    if n == 0 and p:
                        assert raises(lambda: chern_weil(ext, f, sections[0], triv)) == escapes
                    if n == 1 and p:
                        assert raises(lambda: secondary_class(ext, f, *sections, triv)) == escapes
                    if n:
                        raised = raises(lambda: verify_main_theorem(ext, f, sections, triv))
                        assert raised == escapes
                        if raised and 2 * p - n + 1 > ext.base.dim:
                            zero_by_degree.add("verify_main_theorem")
        assert zero_by_degree == {"delta_f", "verify_main_theorem"}


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

    def test_a_section_of_another_shape_is_refused(self):
        """Every reader of a section refuses one whose extension has another
        total or base dimension, with the one message of the shape check."""
        rng = random.Random(73)
        readers = {
            "validate_section": lambda ext, own, sec: validate_section(ext, sec),
            "section_curvature": lambda ext, own, sec: section_curvature(ext, sec),
            "s_from_section": lambda ext, own, sec: s_from_section(ext, sec),
            "section_difference": lambda ext, own, sec: section_difference(ext, own, sec),
            "section_difference, first": lambda ext, own, sec: section_difference(ext, sec, own),
        }
        # the oscillator (4 -> 1) against the filiform (4 -> 3) and h_5 (5 -> 4)
        exts = [oscillator_extension(), filiform_extension(), heisenberg_central_extension(2)]
        for ext, other in product(exts, repeat=2):
            own, sec = rand_section(rng, ext), rand_section(rng, other)
            for name, read in readers.items():
                if ext is other:
                    read(ext, own, sec)
                    continue
                with pytest.raises(ValueError) as err:
                    read(ext, own, sec)
                assert type(err.value) is ValueError, name
                assert str(err.value) == "dimension mismatch", name


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
        (cols,) = s_from_section(ext, s0)
        assert dense_kernel_action(cols) == [[Fraction(c) for c in row] for row in ROTATION]

    def test_central_kernel_gives_zero_action(self):
        rng = random.Random(72)
        for name in ("heisenberg", "filiform", "affine"):
            ext = fixture_extensions()[name]
            for _ in range(3):
                assert not any(map(any, s_from_section(ext, rand_section(rng, ext)))), name

    def test_abelian_split_extension_action_is_zero(self):
        from liechar import abelian, semidirect_product
        plane = abelian(2)
        total = semidirect_product(plane, abelian(1, ("t",)),
                                   [[[0, 0], [0, 0]]])
        ext = Extension(total, abelian(1, ("t",)), plane,
                        [[1, 0], [0, 1], [0, 0]], [[0, 0, 1]])
        sec = Section(ext, [[0], [0], [1]])
        assert not any(map(any, s_from_section(ext, sec)))


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
        zero = zero_table(SymMultiMap, ext.kernel, 1, 1)
        assert is_invariant(zero, ext, triv, "strict")

    def test_strict_chern_weil_refuses_z_star(self):
        ext = point_base_extension()
        triv = trivial_representation(ext.base, 1)
        sec = Section(ext, [[], [], []])
        with pytest.raises(NotInvariant):
            chern_weil(ext, kernel_functional(ext.kernel, 2), sec, triv, mode="strict")

    def test_family_is_polynomial_with_empty_curvature(self):
        # over a zero-dimensional base R_t has no value, yet its shape is that
        # of a kernel-valued 2-cochain
        ext = point_base_extension()
        sections = [Section(ext, [[], [], []]) for _ in range(2)]
        curv = param_curvature(ext, sections)
        assert (curv.degree, curv.target_dim, curv.nonzero) == (2, ext.kernel.dim, {})

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
            for sec in sections:
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


def central_values(f, dim):
    """f with each value c placed on the last basis vector of a dim-dimensional module."""
    return SymMultiMap(f.source, f.degree, dim,
                       {key: [0] * (dim - 1) + list(val) for key, val in f.values.items()})


def perturbed(rng, sec):
    """sec with one entry moved by a nonzero rational."""
    matrix = [list(row) for row in sec.matrix]
    r, c = rng.randrange(len(matrix)), rng.randrange(len(matrix[0]))
    matrix[r][c] = matrix[r][c] + (rand_fraction(rng) or 1)
    return Section(sec.extension, matrix)


class TestSparseInvariance:
    """is_invariant against the unit-vector oracle where S(x) or rho(x) vanish,
    and where q has non-unit entries."""

    @pytest.mark.parametrize("mode", ["section", "strict"])
    def test_direct_sum_kernel(self, mode):
        # every S(x) is zero; the adjoint module of h5 still acts, so only maps
        # into its centre z are invariant there
        rng = random.Random(93)
        ext = direct_sum_extension()
        outcomes = {1: [], 2: [], 5: []}
        for rep, degree in product([trivial_representation(ext.base, 1),
                                    trivial_representation(ext.base, 2),
                                    adjoint_representation(ext.base)], range(4)):
            f = rand_symmap(rng, ext.kernel, degree, rep.space_dim)
            maps = [f, central_values(rand_symmap(rng, ext.kernel, degree), rep.space_dim)]
            for f, sec in product(maps, [rand_section(rng, ext) for _ in range(2)]):
                got = is_invariant(f, ext, rep, mode, sec)
                assert got == reference_is_invariant(f, ext, rep, mode, sec), (
                    rep.space_dim, degree)
                outcomes[rep.space_dim].append(got)
        assert all(outcomes[1]) and all(outcomes[2])
        assert True in outcomes[5] and False in outcomes[5]

    @pytest.mark.parametrize("mode", ["section", "strict"])
    def test_conjugated_extensions(self, mode):
        rng = random.Random(94)
        outcomes = []
        for name, plain in fixture_extensions().items():
            ext = conjugate_extension(rng, plain)
            assert any(a not in (0, 1) for row in ext.proj for a in row), name
            for rep, degree in product([trivial_representation(ext.base, 1),
                                        adjoint_representation(ext.base)], range(4)):
                maps = [rand_symmap(rng, ext.kernel, degree, rep.space_dim)]
                if rep.space_dim == 1:
                    maps.append(random_invariant_symmap(rng, name, ext, degree))
                for f in filter(None, maps):
                    sec = rand_section(rng, ext)
                    got = is_invariant(f, ext, rep, mode, sec)
                    assert got == reference_is_invariant(f, ext, rep, mode, sec), (
                        name, rep.space_dim, degree)
                    outcomes.append(got)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("mode", ["section", "strict"])
    def test_equivariant_map_into_the_rotation_module(self, mode):
        # on e(2) the rotation acts on the translations as it acts on its module
        # R^2, so c * identity balances x.f(k) against f(S(x) k) term by term;
        # the conjugated copies scale q, S(x) and the pulled-back action alike
        rng = random.Random(98)
        plain = euclidean_extension()
        exts = [plain] + [conjugate_extension(rng, plain) for _ in range(3)]
        assert any(a not in (0, 1) for ext in exts for row in ext.proj for a in row)
        for ext in exts:
            rep = Representation(ext.base, 2, [ROTATION2])
            c = rand_fraction(rng) or 1
            f = SymMultiMap(ext.kernel, 1, 2, {(0,): [c, 0], (1,): [0, c]})
            g = SymMultiMap(ext.kernel, 1, 2, {(0,): [c, 0], (1,): [0, 2 * c]})
            sec = rand_section(rng, ext)
            assert is_invariant(f, ext, rep, mode, sec) is True
            assert is_invariant(g, ext, rep, mode, sec) is False
            for h in (f, g):
                assert (is_invariant(h, ext, rep, mode, sec)
                        == reference_is_invariant(h, ext, rep, mode, sec))


class TestValidateSectionAgainstReference:
    """validate_section against the dense product q . sigma."""

    def test_sections_perturbations_and_families(self):
        rng = random.Random(96)
        exts = dict(fixture_extensions())
        exts.update({f"conjugated {name}": conjugate_extension(rng, ext)
                     for name, ext in fixture_extensions().items()})
        outcomes = []
        for name, ext in exts.items():
            sections = [rand_section(rng, ext) for _ in range(3)]
            families = [family_point(ext, sections[:2], [rand_fraction(rng)]),
                        family_point(ext, sections, [rand_fraction(rng), rand_fraction(rng)])]
            candidates = (sections + families
                          + [perturbed(rng, sec) for sec in sections + sections + families])
            for sec in candidates:
                got = validate_section(ext, sec)
                assert got == reference_validate_section(ext, sec), name
                outcomes.append(got)
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20

    def test_zero_dimensional_base(self):
        # q has no rows, so every map total <- base (the empty matrix) is a section
        rng = random.Random(97)
        ext = point_base_extension()
        sections = [rand_section(rng, ext) for _ in range(2)]
        for sec in sections + [family_point(ext, sections, [rand_fraction(rng)])]:
            assert sec.matrix == [[], [], []]
            assert validate_section(ext, sec) is reference_validate_section(ext, sec) is True


def _kinds(table):
    return [[type(x) for x in val] for val in table.values.values()]


def _same_table(got, want):
    """Equal cochains whose entries also agree in kind (Fraction or MultiPoly)."""
    assert got == want
    assert _kinds(got) == _kinds(want)


class TestSparseSections:
    """A section keeps the nonzero entries of its columns; the curvature,
    difference, family curvature and section check read them and agree, in
    value and entry kind, with the dense references in helpers.  The sections
    include points of the families through the others."""

    @staticmethod
    def cases():
        rng = random.Random(98)
        for name, ext in fixture_extensions().items():
            for copy in (ext, conjugate_extension(rng, ext)):
                # the particular solutions of q x = e_i, with no kernel shift,
                # leave zero entries that random sections do not
                dg = copy.base.dim
                lift = Section(copy, transpose(
                    [dense_solve(copy.proj, [int(r == i) for r in range(dg)]) for i in range(dg)]))
                sections = [lift] + [rand_section(rng, copy) for _ in range(3)]
                if copy is ext:
                    sections += section_pool(rng, name, ext, 2)
                families = [family_point(copy, chosen, [rand_fraction(rng) for _ in chosen[1:]])
                            for chosen in (sections[:2], sections[:3], [lift, lift],
                                           [sections[1], lift])]
                yield name, copy, sections, families

    def test_columns_are_the_nonzero_entries_of_the_matrix(self):
        for name, ext, sections, families in self.cases():
            for sec in sections + families:
                entries = {(r, i): x for i, col in enumerate(sec._cols) for r, x in col.items()}
                want = {(r, i): x for r, row in enumerate(sec.matrix)
                        for i, x in enumerate(row) if x}
                assert entries == want, name
                assert all(x is sec.matrix[r][i] for (r, i), x in entries.items())
                assert len(sec._cols) == ext.base.dim

    def test_matrix_reads_back_the_input(self):
        """The matrix, built on read from the columns, equals the given one in
        value and entry kind: an int reads as a Fraction, a zero as Fraction(0)."""
        for name, ext, sections, families in self.cases():
            for sec in sections + families:
                given = sec.matrix
                cases = [(given, given),
                         ([[int(x) if x.denominator == 1 else x for x in row]
                           for row in given], given)]
                for matrix, want in cases:
                    got = Section(ext, matrix).matrix
                    assert got == want, name
                    assert ([[type(x) for x in row] for row in got]
                            == [[type(x) for x in row] for row in want]), name
        point = point_base_extension()
        assert Section(point, [[]] * point.total.dim).matrix == [[]] * point.total.dim

    def test_curvature_difference_and_families_match_the_dense_references(self):
        for name, ext, sections, families in self.cases():
            for sec in sections + families:
                _same_table(section_curvature(ext, sec), reference_section_curvature(ext, sec))
            for a, b in product(sections + families[:1] + families[3:], repeat=2):
                _same_table(section_difference(ext, a, b),
                            reference_section_difference(ext, a, b))
            for chosen in (sections[:2], sections[:3], [sections[0], sections[0]]):
                _same_table(param_curvature(ext, chosen),
                            reference_param_curvature(ext, reference_param_section(ext, chosen)))

    def test_validate_section_matches_the_dense_product(self):
        outcomes = []
        for name, ext, sections, families in self.cases():
            for sec in sections + families:
                broken = Section(ext, [[x + (r == c) for c, x in enumerate(row)]
                                       for r, row in enumerate(sec.matrix)])
                for candidate in (sec, broken):
                    got = validate_section(ext, candidate)
                    assert got == reference_validate_section(ext, candidate), name
                    outcomes.append(got)
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


class TestParamFamily:
    """R_t of the family through rational sections, from param_curvature."""

    def test_equal_sections_give_constant_family(self):
        rng = random.Random(80)
        for name, ext in fixture_extensions().items():
            sec = rand_section(rng, ext)
            rt = param_curvature(ext, [sec, sec])
            assert rt == to_poly(section_curvature(ext, sec), 1), name
            assert all(x.is_constant() for val in rt.nonzero.values() for x in val), name

    def test_projection_composes_to_identity_as_polynomials(self):
        # q . sigma_t = id is affine in t, so it holds at every rational point
        rng = random.Random(81)
        ext = filiform_extension()
        sections = [rand_section(rng, ext) for _ in range(3)]
        for _ in range(5):
            point = [rand_fraction(rng, span=5) for _ in range(2)]
            assert validate_section(ext, family_point(ext, sections, point))

    def test_rejects_invalid_input_section(self):
        ext, s0, _ = oscillator_sections()
        broken = Section(ext, [[0]] * 4)
        with pytest.raises(InvalidSection, match="^section 1 fails q . sigma = id$"):
            param_curvature(ext, [s0, broken])

    def test_entries_keep_the_multipoly_invariants(self):
        """Each entry of R_t is the reference entry, a MultiPoly in n variables
        that stores only nonzero Fraction coefficients and keys of n ints."""
        rng = random.Random(86)
        varying = 0
        for name, ext in fixture_extensions().items():
            sections = [rand_section(rng, ext) for _ in range(3)]
            for chosen in (sections[:2], sections, [sections[1]] * 3):
                n = len(chosen) - 1
                rt = param_curvature(ext, chosen)
                want = reference_param_curvature(ext, reference_param_section(ext, chosen))
                for key, val in rt.nonzero.items():
                    for entry, expected in zip(val, want.entry(key)):
                        assert type(entry) is MultiPoly and entry.nvars == expected.nvars == n
                        assert entry.terms == expected.terms, (name, key)
                        assert all(type(x) is Fraction and x for x in entry.terms.values())
                        assert all(type(k) is tuple and len(k) == n
                                   and all(type(e) is int for e in k) for k in entry.terms)
                        varying += not entry.is_constant()
        assert varying  # some entries depend on t

    def test_vertex_specialization_matches_sections(self):
        rng = random.Random(82)
        for name in ("heisenberg", "filiform", "affine", "euclidean"):
            ext = fixture_extensions()[name]
            sections = [rand_section(rng, ext) for _ in range(3)]
            rt = param_curvature(ext, sections)
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
        rt = param_curvature(ext, sections)
        assert all(poly_total_degree(v) <= 2
                   for val in rt.values.values() for v in val)

    def test_heisenberg_central_shift_is_flat_in_t(self):
        ext = heisenberg_central_extension()
        s0 = Section(ext, [[1, 0], [0, 1], [0, 0]])
        s1 = Section(ext, [[1, 0], [0, 1], [1, 0]])
        rt = param_curvature(ext, [s0, s1])
        assert rt.entry((0, 1))[0] == 1  # constant polynomial z-coefficient

    def test_family_derivative_is_twisted_derivative_of_difference(self):
        rng = random.Random(84)
        for name in ("heisenberg", "filiform", "affine", "oscillator"):
            ext = fixture_extensions()[name]
            sections = section_pool(rng, name, ext, 3)
            rt = param_curvature(ext, sections)
            # S_t = ad(sigma_t .)|n is linear in the section: S_0 + sum_i t_i (S_i - S_0)
            s_0, *s_i = [[dense_kernel_action(cols) for cols in s_from_section(ext, sec)]
                         for sec in sections]
            st_mats = [[[as_poly(c, 2) + sum(poly_variable(2, i) * (m[x][r][k] - c)
                                             for i, m in enumerate(s_i))
                         for k, c in enumerate(row)] for r, row in enumerate(mat)]
                       for x, mat in enumerate(s_0)]
            for i in (1, 2):
                alpha = to_poly(section_difference(ext, sections[i], sections[0]), 2)
                lhs = reference_twisted_differential(alpha, st_mats)
                rhs = rt.map_values(lambda p: poly_diff(p, i - 1))
                assert lhs == rhs, (name, i)


class TestKernelCoordinates:
    def test_escaping_value_raises(self):
        ext = heisenberg_central_extension()
        with pytest.raises(ExactnessViolation):
            kernel_coords(ext, [Fraction(1), Fraction(0), Fraction(0)])

    @staticmethod
    def cases():
        """(extension, vector factory) over the fixtures and seeded conjugates;
        each vector is iota w for a random rational w."""
        rng = random.Random(86)

        def image(ext):
            return dense_mat_vec(ext.iota, [rand_fraction(rng) for _ in range(ext.kernel.dim)])

        for ext in fixture_extensions().values():
            for copy in (ext, conjugate_extension(rng, ext)):
                yield rng, copy, image

    def test_batch_matches_one_vector_calls(self):
        batches = 0
        for rng, ext, image in self.cases():
            for count in range(1, 5):
                vecs = [image(ext) for _ in range(count)]
                got = kernel_coords(ext, *vecs)
                singles = [kernel_coords(ext, vec)[0] for vec in vecs]
                assert got == singles
                assert [list(w) for w in got] == [dense_solve(ext.iota, vec) for vec in vecs]
                assert [[type(x) for x in w] for w in got] == \
                    [[type(x) for x in w] for w in singles]
                batches += 1
        assert batches == 48

    def test_an_escaping_vector_at_any_position_raises(self):
        for rng, ext, image in self.cases():
            escape = [rand_fraction(rng) for _ in range(ext.total.dim)]
            while dense_solve(ext.iota, escape) is not None:
                escape = [rand_fraction(rng) for _ in range(ext.total.dim)]
            good = [image(ext) for _ in range(3)]
            assert len(kernel_coords(ext, *good)) == 3
            for pos in range(4):
                with pytest.raises(ExactnessViolation):
                    kernel_coords(ext, *good[:pos], escape, *good[pos:])

    def test_halves_stay_exact(self):
        """0 -> Rz -> h3 -> R^2 -> 0 with iota = 2z: an int vector gets Fraction
        coordinates, never a float."""
        ext = Extension(heisenberg3(), abelian(2), abelian(1), [[0], [0], [2]],
                        [[1, 0, 0], [0, 1, 0]])
        (w,) = kernel_coords(ext, [0, 0, 1])
        assert w == (Fraction(1, 2),) and type(w[0]) is Fraction
        got = kernel_coords(ext, [0, 0, 3], [Fraction(0), Fraction(0), Fraction(-1, 3)])
        assert got == [(Fraction(3, 2),), (Fraction(-1, 6),)]
        assert all(type(x) is Fraction for w in got for x in w)

    def test_no_vector_runs_no_elimination(self, monkeypatch):
        def no_solve(rows, rhs, ncols):
            raise AssertionError("kernel_coords() must not eliminate")

        monkeypatch.setattr(extensions_module, "solve_linear", no_solve)
        for ext in fixture_extensions().values():
            assert kernel_coords(ext) == []

    def test_one_solve_per_curvature_and_difference(self, monkeypatch):
        """section_curvature and section_difference read all their values with at
        most one solve_linear call, whose right-hand sides are those values."""
        calls = []
        original = extensions_module.solve_linear

        def counting(rows, rhs, ncols):
            calls.append(len(rhs))
            return original(rows, rhs, ncols)

        monkeypatch.setattr(extensions_module, "solve_linear", counting)
        rng = random.Random(87)
        exts = {**fixture_extensions(), "point": point_base_extension()}
        for name, ext in exts.items():
            sections = section_pool(rng, name, ext, 2)
            dg = ext.base.dim
            for sec in sections:
                calls.clear()
                section_curvature(ext, sec)
                assert calls == ([dg * (dg - 1) // 2] if dg > 1 else []), name
            calls.clear()
            section_difference(ext, *sections)
            assert calls == ([dg] if dg else []), name

    def test_section_difference_lands_in_kernel(self):
        rng = random.Random(85)
        for name, ext in fixture_extensions().items():
            a, b = section_pool(rng, name, ext, 2)
            diff = section_difference(ext, a, b)
            assert diff.degree == 1 and diff.target_dim == ext.kernel.dim


class TestVertexData:
    """The data of a section tuple: R_t assembled from the vertex curvatures and
    the cross brackets [D_i x, D_j y] is the dense curvature of the reference
    interpolated family, value for value and kind for kind, and the data of
    each face, derived from the tuple's, is the data built from the face's
    sections."""

    @staticmethod
    def standard_section(ext):
        """The section that lifts each base vector by the solution of q x = e_i
        the dense solve picks, with no kernel shift."""
        dg = ext.base.dim
        cols = [dense_solve(ext.proj, [Fraction(int(r == i)) for r in range(dg)])
                for i in range(dg)]
        return Section(ext, [[col[r] for col in cols] for r in range(ext.total.dim)])

    def cases(self):
        """(label, extension, sections) over every catalog extension and the
        suite's others, each also in a seeded basis, with n = 1..3: seeded
        sections, and the standard section followed by seeded ones."""
        rng = random.Random(3303)
        exts = {**fixture_extensions(), "direct_sum": direct_sum_extension(),
                "point": point_base_extension()}
        for name, ext in exts.items():
            for basis, copy in (("standard", ext), ("seeded", conjugate_extension(rng, ext))):
                standard = self.standard_section(copy)
                for n in (1, 2, 3):
                    seeded = [rand_section(rng, copy) for _ in range(n + 1)]
                    yield f"{name}/{basis}/n{n}", copy, seeded
                    yield f"{name}/{basis}/n{n}/standard", copy, [standard] + seeded[:n]

    def test_assembled_family_curvature_is_param_curvature(self):
        for label, ext, sections in self.cases():
            n = len(sections) - 1
            got = param_curvature(ext, sections)
            want = reference_param_curvature(ext, reference_param_section(ext, sections))
            _same_table(got, want)
            assert (got.degree, got.target_dim) == (want.degree, want.target_dim), label
            assert all(type(x) is MultiPoly and x.nvars == n
                       for val in got.values.values() for x in val), label

    def test_param_curvature_reads_rational_values_by_one_solve(self, monkeypatch):
        calls = []
        original = extensions_module.kernel_coords

        def counting(ext, *vecs):
            calls.append(vecs)
            return original(ext, *vecs)

        monkeypatch.setattr(extensions_module, "kernel_coords", counting)
        for label, ext, sections in self.cases():
            calls.clear()
            param_curvature(ext, sections)
            assert len(calls) == 1, label
            assert not any(type(x) is MultiPoly for vec in calls[0] for x in vec), label

    def test_faces_are_the_data_of_the_face_sections(self):
        for label, ext, sections in self.cases():
            vertices = extensions_module._Vertices.of(ext, sections, True)
            for i in range(len(sections)):
                face = vertices.face(i)
                built = extensions_module._Vertices.of(ext, sections[:i] + sections[i + 1:], True)
                assert face.curvatures == built.curvatures, (label, i)
                assert face.differences == built.differences, (label, i)
                assert face.cross == built.cross, (label, i)
                if len(sections) > 2:
                    _same_table(extensions_module._family_curvature(face),
                                extensions_module._family_curvature(built))

    def test_parts_not_asked_for_are_not_built(self, monkeypatch):
        ext = filiform_extension()
        rng = random.Random(3304)
        sections = [rand_section(rng, ext) for _ in range(3)]
        monkeypatch.setattr(extensions_module, "_curvature_values", None)
        bare = extensions_module._Vertices.of(ext, sections, False)
        assert bare.curvatures is None and bare.cross is None
        assert len(bare.differences) == 2
        assert bare.face(0).differences == [bare.differences[1] - bare.differences[0]]
