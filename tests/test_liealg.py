import ast
import inspect
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from liechar import liealg
from liechar import (LieAlgebra, MultiPoly, Representation, abelian,
                     adjoint_representation, algebra_from_brackets,
                     check_jacobi, check_representation, heisenberg,
                     heisenberg3, is_derivation, oscillator,
                     semidirect_product, trivial_representation)
from liechar.catalog import (affine_split_extension, filiform_extension,
                             heisenberg_central_extension, oscillator_extension)

from helpers import (SMALL_ALGEBRAS, ad_matrix, algebra_from_table, algebra_pool, bracket,
                     conjugate_algebra, dense_algebra_from_brackets, dense_matrices,
                     dense_structure, identity,
                     rand_fraction, rand_matrix, rand_vector, random_algebra, random_module,
                     reference_bracket,
                     reference_check_jacobi, reference_check_representation,
                     reference_is_derivation,
                     reference_semidirect_product, sparse_matrices, sparse_table)

ROTATION = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]


class TestCheckJacobi:
    def test_abelian_ok(self):
        assert check_jacobi(abelian(3)) == []

    def test_heisenberg_ok(self):
        assert check_jacobi(heisenberg3()) == []

    def test_corrupted_heisenberg_reports_triple(self):
        # adding [q,z] = q breaks Jacobi: the cyclic sum on (p,q,z) is -z
        table = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        for i, j, k in ((0, 1, 2), (1, 2, 1)):
            table[i][j][k], table[j][i][k] = Fraction(1), Fraction(-1)
        bad = LieAlgebra._of(("p", "q", "z"), sparse_table(table))
        violations = check_jacobi(bad)
        assert len(violations) == 1
        i, j, k, defect = violations[0]
        assert (i, j, k) == (0, 1, 2)
        assert defect == (0, 0, -1)

    def test_constructor_rejects_jacobi_violation(self):
        with pytest.raises(ValueError, match="Jacobi"):
            algebra_from_brackets(
                ("p", "q", "z"), {(0, 1): {2: 1}, (1, 2): {1: 1}})


class TestBracket:
    def test_heisenberg_pq_is_z(self):
        h3 = heisenberg3()
        assert bracket(h3, [1, 0, 0], [0, 1, 0]) == [0, 0, 1]

    def test_bracket_with_self_vanishes(self):
        rng = random.Random(17)
        for _ in range(20):
            alg = random_algebra(rng)
            x = rand_vector(rng, alg.dim)
            assert all(c == 0 for c in bracket(alg, x, x))

    def test_oscillator_wp_is_q(self):
        osc = oscillator()
        assert bracket(osc, [0, 0, 0, 1], [1, 0, 0, 0]) == [0, 1, 0, 0]

    def test_bilinear_antisymmetric(self):
        rng = random.Random(23)
        for _ in range(20):
            alg = random_algebra(rng)
            x, y = rand_vector(rng, alg.dim), rand_vector(rng, alg.dim)
            xy = bracket(alg, x, y)
            yx = bracket(alg, y, x)
            assert xy == [-c for c in yx]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(heisenberg3(), [1, 0], [0, 1, 0])


class TestDerivations:
    def test_rotation_is_derivation_of_heisenberg(self):
        assert is_derivation(heisenberg3(), ROTATION)

    def test_identity_is_not(self):
        # fails on [p,q] = z: lhs z, rhs 2z
        assert not is_derivation(heisenberg3(), identity(3))

    def test_everything_derives_abelian(self):
        rng = random.Random(4)
        mat = [rand_vector(rng, 3) for _ in range(3)]
        assert is_derivation(abelian(3), mat)


class TestSemidirect:
    def test_oscillator_construction(self):
        osc = semidirect_product(heisenberg3(), abelian(1, ("w",)), [ROTATION])
        assert osc.basis_names == ("p", "q", "z", "w")
        assert check_jacobi(osc) == []
        assert bracket(osc, [0, 0, 0, 1], [1, 0, 0, 0]) == [0, 1, 0, 0]
        assert bracket(osc, [0, 0, 0, 1], [0, 1, 0, 0]) == [-1, 0, 0, 0]
        assert bracket(osc, [0, 0, 0, 1], [0, 0, 1, 0]) == [0, 0, 0, 0]

    def test_zero_action_is_direct_sum(self):
        h3 = heisenberg3()
        zero = [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
        total = semidirect_product(h3, abelian(1, ("c",)), zero)
        for i in range(3):
            assert bracket(total, [0, 0, 0, 1],
                           [1 if j == i else 0 for j in range(4)]) == [0] * 4

    def test_nilpotent_action_on_plane(self):
        total = semidirect_product(
            abelian(2), abelian(1, ("d",)), [[[0, 1], [0, 0]]])
        assert total.dim == 3
        assert check_jacobi(total) == []

    def test_rejects_non_derivation(self):
        with pytest.raises(ValueError, match="derivation"):
            semidirect_product(heisenberg3(), abelian(1, ("w",)), [identity(3)])

    def test_rejects_non_representation(self):
        # two non-commuting derivations of the abelian plane cannot
        # represent an abelian line-squared
        d1 = [[0, 1], [0, 0]]
        d2 = [[0, 0], [1, 0]]
        with pytest.raises(ValueError, match="representation"):
            semidirect_product(abelian(2), abelian(2), [d1, d2])


class TestStandardAlgebras:
    def test_abelian_all_zero(self):
        alg = abelian(2)
        assert all(c == 0 for plane in dense_structure(alg) for row in plane for c in row)

    def test_heisenberg_structure(self):
        table = dense_structure(heisenberg3())
        nonzero = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
                   if table[i][j][k] != 0]
        assert nonzero == [(0, 1, 2), (1, 0, 2)]
        assert table[0][1][2] == 1

    def test_oscillator_validates(self):
        assert check_jacobi(oscillator()) == []

    def test_heisenberg_family(self):
        h5 = heisenberg(2)
        assert h5.dim == 5
        assert bracket(h5, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0]) == [0, 0, 0, 0, 1]


class TestRepresentations:
    def test_trivial_ok(self):
        rng = random.Random(31)
        for _ in range(10):
            alg = random_algebra(rng)
            assert check_representation(trivial_representation(alg, 2)) == []

    def test_adjoint_ok_for_heisenberg(self):
        assert check_representation(adjoint_representation(heisenberg3())) == []

    def test_adjoint_ok_for_random_algebras(self):
        rng = random.Random(37)
        for _ in range(20):
            assert check_representation(adjoint_representation(random_algebra(rng))) == []

    def test_detects_violation(self):
        # rho(p), rho(q) with nonzero commutator but rho([p,q]) = rho(z) = 0
        mats = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]
        rep = Representation._of(heisenberg3(), 2, sparse_matrices(mats))
        bad = check_representation(rep)
        assert [(i, j) for i, j, _ in bad] == [(0, 1)]
        with pytest.raises(ValueError, match="representation"):
            Representation(heisenberg3(), 2, mats)

    def test_oscillator_ad_w_restricted_is_rotation(self):
        osc = oscillator()
        ad_w = ad_matrix(osc, [0, 0, 0, 1])
        restricted = [row[:3] for row in ad_w[:3]]
        assert restricted == [[Fraction(c) for c in row] for row in ROTATION]


def _algebras(rng):
    """Every SMALL_ALGEBRAS entry, then every other algebra of the catalog
    extensions, each in its standard basis and in a conjugated one."""
    algebras = [SMALL_ALGEBRAS[name]() for name in sorted(SMALL_ALGEBRAS)]
    for ext in (heisenberg_central_extension(), heisenberg_central_extension(2),
                oscillator_extension(), filiform_extension(), affine_split_extension()):
        algebras += [alg for alg in (ext.total, ext.base, ext.kernel) if alg not in algebras]
    for alg in algebras:
        yield alg
        yield conjugate_algebra(rng, alg)


def _representations(rng, alg):
    """Trivial, adjoint and random modules, and broken matrix families; then
    modules where zero and nonzero rho(e_t) mix: the adjoint and a conjugated
    module with some matrices zeroed, one entry perturbed or one nonzero entry
    dropped, and a single nonzero entry among zero matrices."""
    yield trivial_representation(alg, 1)
    yield trivial_representation(alg, 2)
    yield adjoint_representation(alg)
    yield random_module(rng, alg)
    yield Representation._of(
        alg, 2, sparse_matrices([rand_matrix(rng, 2, 2) for _ in range(alg.dim)]))
    ad = dense_matrices(adjoint_representation(alg))
    ad[rng.randrange(alg.dim)][rng.randrange(alg.dim)][rng.randrange(alg.dim)] += 1
    yield Representation._of(alg, alg.dim, sparse_matrices(ad))
    d = alg.dim
    for rep in (adjoint_representation(alg), random_module(rng, alg)):
        m = rep.space_dim
        zeroed, perturbed, dropped = (dense_matrices(rep) for _ in range(3))
        for t in rng.sample(range(d), rng.randint(1, d)):
            zeroed[t] = [[Fraction(0)] * m for _ in range(m)]
        perturbed[rng.randrange(d)][rng.randrange(m)][rng.randrange(m)] += rand_fraction(rng) or 1
        nonzero = [(t, r, c) for t, mat in enumerate(dense_matrices(rep))
                   for r, row in enumerate(mat) for c, x in enumerate(row) if x]
        if nonzero:
            t, r, c = rng.choice(nonzero)
            dropped[t][r][c] = Fraction(0)
        for mats in (zeroed, perturbed, dropped):
            yield Representation._of(alg, m, sparse_matrices(mats))
    lone = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(d)]
    lone[rng.randrange(d)][rng.randrange(2)][rng.randrange(2)] = Fraction(1)
    yield Representation._of(alg, 2, sparse_matrices(lone))


def _outcome(fn, *args):
    """("ok", result) or ("error", message) of a ValueError."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _kinds(mat):
    return [[type(x) for x in row] for row in mat]


class TestAgainstReferenceLoops:
    """The bracket-identity checks and the bracket agree with separate reference loops."""

    def test_check_representation(self):
        rng = random.Random(81)
        outcomes = [0, 0]
        for alg in _algebras(rng):
            for rep in _representations(rng, alg):
                got = check_representation(rep)
                want = reference_check_representation(rep)
                assert got == want
                assert [_kinds(d) for _, _, d in got] == [_kinds(d) for _, _, d in want]
                outcomes[bool(got)] += 1
        assert min(outcomes) >= 50

    def test_is_derivation(self):
        rng = random.Random(82)
        verdicts = [0, 0]
        for alg in _algebras(rng):
            d = alg.dim
            inner = ad_matrix(alg, rand_vector(rng, d))
            perturbed = [list(row) for row in inner]
            perturbed[rng.randrange(d)][rng.randrange(d)] += rand_fraction(rng) or 1
            # ad of one basis vector, with one nonzero entry dropped
            single = ad_matrix(alg, identity(d)[rng.randrange(d)])
            dropped = [list(row) for row in single]
            nonzero = [(r, c) for r, row in enumerate(single) for c, x in enumerate(row) if x]
            if nonzero:
                r, c = rng.choice(nonzero)
                dropped[r][c] = Fraction(0)
            for mat in (inner, perturbed, identity(d), rand_matrix(rng, d, d),
                        [[0] * d for _ in range(d)], single, dropped):
                got = is_derivation(alg, mat)
                assert got == reference_is_derivation(alg, mat)
                verdicts[got] += 1
            for bad in (rand_matrix(rng, d + 1, d + 1), rand_matrix(rng, d, d + 1)):
                assert _outcome(is_derivation, alg, bad) == \
                    _outcome(reference_is_derivation, alg, bad)
        assert min(verdicts) >= 30

    def test_semidirect_product(self):
        rng = random.Random(83)
        messages = set()
        for h in _algebras(rng):
            d = h.dim
            x = rand_vector(rng, d)
            ad_x, ad_y = ad_matrix(h, x), ad_matrix(h, rand_vector(rng, d))
            cases = [
                (abelian(1, ("w",)), [ad_x]),
                (abelian(1, ("w",)), [rand_matrix(rng, d, d)]),
                (abelian(2, ("u", "v")), [ad_x, ad_matrix(h, [2 * c for c in x])]),
                (abelian(2, ("u", "v")), [ad_x, ad_y]),
                (abelian(2, ("u", "v")), [ad_x]),
                (algebra_from_brackets(("a", "b"), {(0, 1): {1: 1}}), [ad_x, ad_y]),
            ]
            for a, action in cases:
                got = _outcome(semidirect_product, h, a, action)
                assert got == _outcome(reference_semidirect_product, h, a, action)
                messages.add(got[1].split(":")[0] if got[0] == "error" else "ok")
        assert {"ok", "action is not a representation of a"} <= messages
        assert any("derivation" in m for m in messages)

    def test_bracket_values_and_kinds(self):
        rng = random.Random(84)

        def poly():
            return MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 1)): rand_fraction(rng)})

        for alg in _algebras(rng):
            d = alg.dim
            for scalar in (lambda: rand_fraction(rng), poly):
                x = [scalar() if rng.random() < 0.6 else Fraction(0) for _ in range(d)]
                y = [scalar() if rng.random() < 0.6 else Fraction(0) for _ in range(d)]
                got, want = bracket(alg, x, y), reference_bracket(alg, x, y)
                assert got == want
                assert [type(c) for c in got] == [type(c) for c in want]

    def test_bracket_tests_zero_factors_without_polynomial_equality(self, monkeypatch):
        rng = random.Random(88)

        def poly():
            if rng.random() < 0.3:
                return MultiPoly(2, {})
            return MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 1)): rand_fraction(rng)})

        def refuse(self, other):
            raise AssertionError("MultiPoly.__eq__ called")

        for alg in _algebras(rng):
            d = alg.dim
            x = [poly() if rng.random() < 0.7 else Fraction(0) for _ in range(d)]
            y = [poly() if rng.random() < 0.7 else Fraction(0) for _ in range(d)]
            want = reference_bracket(alg, x, y)
            with monkeypatch.context() as patch:
                patch.setattr(MultiPoly, "__eq__", refuse)
                got = bracket(alg, x, y)
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]


class TestOneDefect:
    """Both bracket identities on matrices, and semidirect products, share one check."""

    def test_semidirect_product_checks_the_representation_once(self, monkeypatch):
        calls = []
        original = liealg.check_representation

        def counted(rep):
            calls.append(rep)
            return original(rep)

        monkeypatch.setattr(liealg, "check_representation", counted)
        semidirect_product(heisenberg3(), abelian(1, ("w",)), [ROTATION])
        assert len(calls) == 1
        with pytest.raises(ValueError, match="representation"):
            semidirect_product(abelian(2), abelian(2), [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        assert len(calls) == 2

    def test_representation_and_derivation_checks_go_through_defect(self, monkeypatch):
        def boom(*args):
            raise AssertionError("defect computed")

        monkeypatch.setattr(liealg, "_defect", boom)
        with pytest.raises(AssertionError):
            check_representation(adjoint_representation(heisenberg3()))
        with pytest.raises(AssertionError):
            is_derivation(heisenberg3(), ROTATION)

    def test_adjoint_matrices_read_off_the_table(self):
        rng = random.Random(85)
        for alg in _algebras(rng):
            mats = dense_matrices(adjoint_representation(alg))
            table = dense_structure(alg)
            for i, mat in enumerate(mats):
                assert mat == ad_matrix(alg, identity(alg.dim)[i])
                assert all(mat[k][j] == table[i][j][k]
                           for j in range(alg.dim) for k in range(alg.dim))


class TestValidByConstruction:
    """The public constructors always check; only the trusted ``_of`` skips the checks."""

    NONABELIAN_3D_AND_UP = {"heisenberg3", "sl2", "filiform4"}

    @pytest.mark.parametrize("build", [algebra_from_brackets, Representation])
    def test_constructors_take_no_validate_flag(self, build):
        assert "validate" not in inspect.signature(build).parameters

    def test_corrupted_bracket_fails_jacobi_in_both_constructors(self):
        # One changed coefficient never breaks Jacobi in dimension 2 or on an
        # abelian table; every other entry must fail in both bases.
        rng = random.Random(86)
        for name in sorted(SMALL_ALGEBRAS):
            standard = SMALL_ALGEBRAS[name]()
            for alg in (standard, conjugate_algebra(rng, standard)):
                d, names = alg.dim, alg.basis_names
                failed = False
                for _ in range(4):
                    table = [[list(row) for row in plane] for plane in dense_structure(alg)]
                    i, j = sorted(rng.sample(range(d), 2))
                    k = rng.randrange(d)
                    delta = rand_fraction(rng) or Fraction(1)
                    table[i][j][k] += delta
                    table[j][i][k] -= delta
                    brackets = {(a, b): dict(enumerate(table[a][b]))
                                for a, b in combinations(range(d), 2)}
                    want = reference_check_jacobi(LieAlgebra._of(names, sparse_table(table)))
                    assert check_jacobi(LieAlgebra._of(names, sparse_table(table))) == want
                    if not want:
                        assert algebra_from_table(names, table) == \
                            algebra_from_brackets(names, brackets)
                        continue
                    failed = True
                    a, b, c, defect = want[0]
                    message = re.escape(f"Jacobi identity fails at ({names[a]},{names[b]},"
                                        f"{names[c]}) with defect {[str(x) for x in defect]}")
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        algebra_from_table(names, table)
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        algebra_from_brackets(names, brackets)
                assert failed == (name in self.NONABELIAN_3D_AND_UP), alg.basis_names

    def test_perturbed_adjoint_matrix_fails_the_representation_property(self):
        # One changed entry among zero matrices is still a representation of an
        # abelian algebra; every other algebra must fail in both bases.
        rng = random.Random(87)
        for alg in _algebras(rng):
            d, names = alg.dim, alg.basis_names
            failed = False
            for _ in range(3):
                ad = dense_matrices(adjoint_representation(alg))
                ad[rng.randrange(d)][rng.randrange(d)][rng.randrange(d)] += rand_fraction(rng) or 1
                want = reference_check_representation(
                    Representation._of(alg, d, sparse_matrices(ad)))
                if not want:
                    assert dense_matrices(Representation(alg, d, ad)) == ad
                    continue
                i, j, _ = want[0]
                message = re.escape(f"representation property fails on ({names[i]},{names[j]})")
                with pytest.raises(ValueError, match=f"^{message}$"):
                    Representation(alg, d, ad)
                failed = True
            assert failed == any(terms for plane in alg.sparse for terms in plane)

    def test_constructions_on_the_trusted_path_reject_bad_sizes(self):
        with pytest.raises(ValueError, match="dim basis names"):
            abelian(2, ("w",))
        with pytest.raises(ValueError, match="unique"):
            abelian(2, ("w", "w"))
        with pytest.raises(ValueError, match="non-negative"):
            trivial_representation(heisenberg3(), -1)

    # Each reference to a trusted constructor _of in the package, as
    # "module.function:class", with the check that must run on what it builds
    # in the same function, or None for constructions valid by themselves: the
    # zero table and the trivial and adjoint modules.  The workspace reader builds
    # modules, extensions and sections from the sparse rows it reads, so each
    # of those is checked as the public constructor would check it.
    TRUSTED = {
        "liealg.algebra_from_brackets:LieAlgebra": "_require_jacobi",
        "liealg.abelian:LieAlgebra": None,
        "liealg.semidirect_product:Representation": "check_representation",
        "liealg.trivial_representation:Representation": None,
        "liealg.adjoint_representation:Representation": None,
        "workspace._rep_from_json:Representation": "_require_representation",
        "workspace._extension_from_json:Extension": "validate_extension",
        "workspace._section_from_json:Section": "validate_section",
    }

    @staticmethod
    def package_functions():
        """(module stem, function node) for every function of the package."""
        package = Path(liealg.__file__).parent
        for path in sorted(package.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(func, ast.FunctionDef):
                    yield path.stem, func

    @staticmethod
    def called_name(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def test_trusted_constructors_only_build_valid_objects(self):
        # _of skips every check, so each caller is fixed, and a caller that
        # builds from data must call the check on what _of returns: around the
        # _of call, or after it in the same function.
        callers = {}
        for module, func in self.package_functions():
            calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
            for node in ast.walk(func):
                if not (isinstance(node, ast.Attribute) and node.attr == "_of"
                        and isinstance(node.value, ast.Name) and node.value.id
                        in ("LieAlgebra", "Representation", "Extension", "Section")):
                    continue
                at = (node.lineno, node.col_offset)
                callers[f"{module}.{func.name}:{node.value.id}"] = {
                    self.called_name(call) for call in calls
                    if (call.lineno, call.col_offset) > at
                    or node in ast.walk(call) and call.func is not node}
        assert set(callers) == set(self.TRUSTED)
        for caller, check in self.TRUSTED.items():
            assert check is None or check in callers[caller], caller

    def test_checked_sparse_paths_have_fixed_callers(self):
        # The representation check from sparse matrices and the extension set-up
        # from sparse rows (the elimination of iota) exist once: the public
        # constructors reach them after reading dense matrices, the workspace
        # reader and Extension._of from the rows they are given.
        callers = {"_require_representation": set(), "_store": set()}
        for module, func in self.package_functions():
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and self.called_name(node) in callers:
                    callers[self.called_name(node)].add(f"{module}.{func.name}")
        assert callers == {
            "_require_representation": {"liealg.__init__", "workspace._rep_from_json"},
            "_store": {"extensions.__init__", "extensions._of"},
        }


class TestSparseTables:
    """Every constructor of algebras and modules stores the sparse table a scan
    of the dense one gives, whether it reads bracket data, a dense table or the
    table of the algebra."""

    algebras = staticmethod(algebra_pool)

    def test_algebra_tables_equal_a_scan(self):
        for alg in self.algebras():
            table = dense_structure(alg)
            assert alg.sparse == sparse_table(table), alg.basis_names
            assert LieAlgebra._of(alg.basis_names, sparse_table(table)) == alg
            checked = algebra_from_table(alg.basis_names, table)
            assert checked.sparse == alg.sparse
            assert all(type(c) is Fraction for plane in alg.sparse for terms in plane
                       for _, c in terms)

    def test_module_tables_equal_a_scan(self):
        rng = random.Random(172)
        zero_modules = nonzero_modules = 0
        for alg in self.algebras():
            for rep in (trivial_representation(alg, 1), trivial_representation(alg, 3),
                        adjoint_representation(alg), random_module(rng, alg),
                        Representation(alg, alg.dim, dense_matrices(adjoint_representation(alg)))):
                assert rep.sparse == sparse_matrices(dense_matrices(rep)), (alg.basis_names, rep)
                zero_modules += rep.sparse.count(None)
                nonzero_modules += len(rep.sparse) - rep.sparse.count(None)
        assert zero_modules > 100 and nonzero_modules > 100


class TestModulesReadOffTheTable:
    """The trivial and adjoint modules are built as sparse tables only; each
    equals the scan of its dense reference: zero matrices, and ad(e_i) with
    ad(e_i)[k][j] = [e_i, e_j]_k from reference_bracket on unit vectors."""

    @staticmethod
    def algebras():
        yield from algebra_pool()
        yield from (abelian(d) for d in range(4))
        sl2 = SMALL_ALGEBRAS["sl2"]()
        yield semidirect_product(sl2, abelian(1, ("t",)), [ad_matrix(sl2, [1, 2, 3])])

    def test_adjoint_tables(self):
        for alg in self.algebras():
            d = alg.dim
            units = identity(d)
            dense = [[[reference_bracket(alg, units[i], units[j])[k] for j in range(d)]
                      for k in range(d)] for i in range(d)]
            rep = adjoint_representation(alg)
            assert (rep.algebra, rep.space_dim) == (alg, d)
            assert rep.sparse == sparse_matrices(dense), alg.basis_names
            assert type(rep.sparse) is tuple
            assert all(type(row) is tuple for mat in rep.sparse if mat for row in mat)
            assert check_representation(rep) == []

    def test_trivial_tables(self):
        for alg in self.algebras():
            for m in range(4):
                rep = trivial_representation(alg, m)
                assert rep.sparse == sparse_matrices([[[0] * m] * m] * alg.dim) == (None,) * alg.dim
                assert check_representation(rep) == []


class TestBracketsAgainstTheDenseConstruction:
    """algebra_from_brackets reads its sparse table off the bracket data; a
    dense table filled from the same data and scanned gives the same algebra."""

    @staticmethod
    def bracket_data():
        """(names, brackets) of the catalog, conjugated and semidirect algebras,
        as int-keyed Fractions and as strings in shuffled order with every zero
        coefficient written out as "0"."""
        rng = random.Random(173)
        algebras = list(TestSparseTables.algebras())
        algebras += [semidirect_product(alg, abelian(1, ("t",)), [ad_matrix(alg, x)])
                     for alg in algebras if alg.dim
                     for x in (rand_vector(rng, alg.dim), identity(alg.dim)[0])]
        for alg in algebras:
            plain = {(i, j): dict(alg.sparse[i][j]) for i, j in combinations(range(alg.dim), 2)}
            written = {}
            for (i, j), coeffs in plain.items():
                order = list(range(alg.dim))
                rng.shuffle(order)
                written[i, j] = {str(k): str(coeffs.get(k, 0)) for k in order}
            yield alg.basis_names, plain
            yield alg.basis_names, written
        # an int and a string key for the same index: the later one is kept
        yield ("a", "b", "c"), {(0, 1): {2: 1, "2": "0"}, (0, 2): {"2": "0", 2: Fraction(1, 2)}}

    def test_same_algebra(self):
        count = 0
        for names, brackets in self.bracket_data():
            got = algebra_from_brackets(names, brackets)
            want = dense_algebra_from_brackets(names, brackets)
            assert got == want
            assert got.sparse == want.sparse
            assert type(got.sparse) is tuple
            assert all(type(plane) is tuple for plane in got.sparse)
            assert all(type(vec) is tuple for plane in got.sparse for vec in plane)
            assert all(type(c) is Fraction for plane in got.sparse for vec in plane
                       for _, c in vec)
            count += 1
        assert count > 100

    def test_same_errors(self):
        rng = random.Random(174)
        cases = [(("a", "b", "c"), brackets) for brackets in (
            {(0, 1): {3: 1}}, {(0, 1): {-1: 1}}, {(0, 1): {"7": "1"}}, {(1, 0): {2: 1}},
            {(0, 3): {}}, {(2, 2): {0: 1}}, {(0, 1): {2: 1}, (1, 2): {5: 1}})]
        for name in sorted(TestValidByConstruction.NONABELIAN_3D_AND_UP):
            for alg in (SMALL_ALGEBRAS[name](), conjugate_algebra(rng, SMALL_ALGEBRAS[name]())):
                for _ in range(4):
                    brackets = {(i, j): dict(alg.sparse[i][j])
                                for i, j in combinations(range(alg.dim), 2)}
                    i, j = sorted(rng.sample(range(alg.dim), 2))
                    k = rng.randrange(alg.dim)
                    brackets[i, j][k] = brackets[i, j].get(k, 0) + (rand_fraction(rng) or 1)
                    cases.append((alg.basis_names, brackets))
        messages = []
        for names, brackets in cases:
            got = _outcome(algebra_from_brackets, names, brackets)
            assert got[0] == "error" or got[1] == dense_algebra_from_brackets(names, brackets)
            if got[0] == "error":
                assert got == _outcome(dense_algebra_from_brackets, names, brackets)
                messages.append(got[1])
        assert sum("out of range" in m for m in messages) == 4
        assert sum("must satisfy" in m for m in messages) == 3
        assert sum(m.startswith("Jacobi identity fails at") for m in messages) > 10
