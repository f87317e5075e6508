"""Cochain operators against brute-force oracles.

Two independent routes are checked throughout: the wedge-step compose_sym
against explicit iterated symmetric-tensor wedges and partition sums, and
the differential against the term-by-term formula.  The wedge, the
differential twisted by an arbitrary linear map and the curvature of a bare
1-cochain exist only as references in helpers; their identities are checked
here on those references.
"""

import copy
import hashlib
import json
import random
import warnings
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import comb, factorial

import pytest

from liechar import cochains, liealg
from liechar import (Cochain, MultiPoly, Representation, Section, SymMultiMap, abelian,
                     adjoint_representation, ce_differential, chern_weil, cohomology_space,
                     compose_sym, delta_f, heisenberg3, increasing_tuples, nondecreasing_tuples,
                     param_curvature, parse_workspace, section_curvature,
                     serialize_workspace, trivial_representation,
                     validate_extension, verify_main_theorem)
from liechar.catalog import (filiform_workspace, heisenberg_central_extension,
                             heisenberg_workspace, oscillator_workspace)

from helpers import (SMALL_ALGEBRAS, ad_matrix, alt, assert_exact_entries, conjugate_algebra,
                     dense_cochain_evaluate, dense_differential_matrix, dense_matrices,
                     dense_symmap_evaluate, direct_sum_extension, evaluation_product,
                     lie_bracket_product, rand_cochain, rand_fraction, rand_section, rand_symmap,
                     rand_vector, random_algebra, random_module, random_representation,
                     raise_everywhere,
                     reference_compose_sym, reference_curvature,
                     reference_twisted_differential, reference_wedge,
                     scalar_multiplication, section_difference, sym_tensor_product,
                     to_dense, to_poly, zero_table)


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
        acc = reference_wedge(acc, a, sym_tensor_product(d, degree_so_far, 1))
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
        table = zero_table(cls, heisenberg3(), 2, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            table.evaluate([[1, 0, 0, 5], [0, 1, 0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            table.evaluate([[1, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="argument count"):
            table.evaluate([[1, 0, 0]])

    @pytest.mark.parametrize("cls", [Cochain, SymMultiMap])
    def test_public_constructor_checks_every_entry(self, cls):
        g = abelian(2)
        keys = cls.key_tuples(2, 1)
        table = cls(g, 1, 2, {key: [1, "1/2"] for key in keys})
        assert all(type(x) is Fraction for v in table.values.values() for x in v)
        assert all(type(v) is tuple for v in table.values.values())
        with pytest.raises(ValueError, match="missing"):
            cls(g, 1, 2, {keys[0]: [1, 2]})
        with pytest.raises(ValueError, match="extra entries"):
            cls(g, 1, 2, {**{key: [1, 2] for key in keys}, (5,): [1, 2]})
        with pytest.raises(ValueError, match="wrong length"):
            cls(g, 1, 2, {key: [1] for key in keys})
        with pytest.raises(ValueError):
            cls(g, 1, 2, {key: ["x", 1] for key in keys})

    @pytest.mark.parametrize("cls", [Cochain, SymMultiMap])
    def test_zero_equals_the_checked_zero_table(self, cls):
        # zero skips the checking constructor; it must build the table that does check
        for dim in range(5):
            g = abelian(dim)
            for degree in range(dim + 2):
                for m in range(3):
                    zero = zero_table(cls, g, degree, m)
                    assert zero == cls.from_function(g, degree, m, lambda key: [0] * m)
                    assert list(zero.values) == cls.key_tuples(dim, degree)
                    assert all(type(x) is Fraction for v in zero.values.values() for x in v)
                    assert zero_table(cls, g, degree, m).nonzero is not zero.nonzero

    def test_basis_cochains_own_their_tables(self):
        rng = random.Random(23)
        h3 = heisenberg3()
        for alg in (h3, conjugate_algebra(rng, h3)):
            rep = adjoint_representation(alg)
            for degree in range(alg.dim + 1):
                space = cohomology_space(alg, rep, degree)
                tables = [w.nonzero for w in space.cocycle_basis + space.coboundary_basis]
                assert len({id(t) for t in tables}) == len(tables)

    @pytest.mark.parametrize("degree", [4, 2**63 - 1, 2**63])
    def test_no_tuples_where_none_exist(self, monkeypatch, degree):
        # past the dimension, or over dim 0, itertools is not asked at all
        def refuse(*args):
            raise AssertionError("itertools called")

        monkeypatch.setattr(cochains, "combinations", refuse)
        monkeypatch.setattr(cochains, "combinations_with_replacement", refuse)
        assert increasing_tuples(3, degree) == [] == nondecreasing_tuples(0, degree)
        assert zero_table(Cochain, heisenberg3(), degree, 1).values == {}
        assert zero_table(SymMultiMap, abelian(0), degree, 1).values == {}

    def test_tuples_at_the_edges(self):
        assert increasing_tuples(0, 0) == [()] == nondecreasing_tuples(0, 0)
        assert increasing_tuples(3, 3) == [(0, 1, 2)]
        assert nondecreasing_tuples(1, 3) == [(0, 0, 0)]

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
        assert f - f == zero_table(SymMultiMap, heisenberg3(), 2, 1)
        assert -f == f.scale(-1)
        poly = to_poly(f, 2)
        assert poly.values == f.values
        assert all(isinstance(x, MultiPoly) for v in poly.values.values() for x in v)
        assert repr(f) == "SymMultiMap(degree=2, source_dim=3, target_dim=1)"


def _sparse_entry(rng, poly):
    """Zero (of the requested kind) half the time, else a random nonzero entry."""
    if rng.random() < 0.5:
        return MultiPoly(2, {}) if poly else Fraction(0)
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 1)): c}) if poly else c


def _sparse_table(rng, cls, alg, degree, m, poly=False):
    return cls.from_function(alg, degree, m,
                             lambda key: [_sparse_entry(rng, poly) for _ in range(m)])


def storage_corpus():
    """(label, table) for every producer of tables: the parsed maps, curvatures,
    section differences, curvature families, Delta_f, both sides of the
    boundary identity and Chern-Weil representatives of the catalog
    workspaces, the basis cochains of their algebras, and seeded rational and
    MultiPoly tables with the operators applied to them.  The first word of a
    label names the producer."""
    for ws_name, build in (("oscillator", oscillator_workspace),
                           ("heisenberg", heisenberg_workspace),
                           ("filiform", filiform_workspace)):
        ws = parse_workspace(serialize_workspace(build()))
        ext = next(iter(ws.extensions.values()))
        triv = ws.representations["triv"]
        names = sorted(ws.sections)
        secs = [ws.sections[n] for n in names]
        for name, f in sorted(ws.polynomials.items()):
            yield f"parsed {ws_name}.{name}", f
        for name, sec in zip(names, secs):
            yield f"section_curvature {ws_name}.{name}", section_curvature(ext, sec)
        for a, b in permutations(range(len(secs)), 2):
            yield (f"section_difference {ws_name}.{a}{b}",
                   section_difference(ext, secs[a], secs[b]))
            yield (f"param_curvature {ws_name}.{a}{b}",
                   param_curvature(ext, [secs[a], secs[b]]))
        for name, f in sorted(ws.polynomials.items()):
            for n in range(min(f.degree, len(secs) - 1) + 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    yield f"delta_f {ws_name}.{name}.{n}", delta_f(ext, f, secs[:n + 1], triv)
                    if n:
                        report = verify_main_theorem(ext, f, secs[:n + 1], triv)
                        yield f"lhs {ws_name}.{name}.{n}", report.lhs
                        yield f"rhs {ws_name}.{name}.{n}", report.rhs
            yield (f"chern_weil {ws_name}.{name}",
                   chern_weil(ext, f, secs[0], triv).representative)
        for alg_name, alg in (("base", ext.base), ("total", ext.total)):
            for rep_name, rep in (("triv", trivial_representation(alg, 1)),
                                  ("ad", adjoint_representation(alg))):
                for p in range(alg.dim + 1):
                    space = cohomology_space(alg, rep, p)
                    for k, w in enumerate(space.cocycle_basis + space.coboundary_basis):
                        yield f"basis {ws_name}.{alg_name}.{rep_name}.{p}.{k}", w
    for cls in (Cochain, SymMultiMap):
        yield f"zero {cls.__name__}", zero_table(cls, heisenberg3(), 2, 2)
    rng = random.Random(2611)
    for alg in (heisenberg3(), liealg.heisenberg(2)):
        for rep in (trivial_representation(alg, 1), adjoint_representation(alg)):
            m = rep.space_dim
            for p in range(alg.dim + 1):
                label = f"h{alg.dim}.{m}.{p}"
                for kind, poly in (("q", False), ("poly", True)):
                    w = _sparse_table(rng, Cochain, alg, p, m, poly)
                    v = _sparse_table(rng, Cochain, alg, p, m, poly)
                    yield f"checked {label}.{kind}", w
                    yield f"ce_differential {label}.{kind}", ce_differential(w, rep)
                    yield f"add {label}.{kind}", w + v
                    yield f"sub {label}.{kind}", w - v
                    yield f"neg {label}.{kind}", -w
                    yield f"scale {label}.{kind}", w.scale(Fraction(-2, 3))
                    yield f"map_values {label}.{kind}", w.map_values(lambda x: x * x)
    for kind, poly in (("q", False), ("poly", True)):
        for degrees in ((1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2)):
            f = _sparse_table(rng, SymMultiMap, abelian(3), len(degrees), 2)
            args = [_sparse_table(rng, Cochain, abelian(5), p, 3, poly) for p in degrees]
            yield f"checked {kind}.{degrees}", f
            yield f"compose_sym {kind}.{degrees}", compose_sym(f, args)
            yield f"compose_sym {kind}.{degrees}.repeat", compose_sym(f, [args[0]] * len(degrees))


def table_digest(tables):
    """sha256 prefix of the full table of each (label, table), values with their
    kinds, read through ``values``; a table that stores nothing counts as zero
    whatever the kind of its zeros."""
    h = hashlib.sha256()
    for label, t in tables:
        rows = "zero" if t.is_zero() else [
            [list(key), [[type(x).__name__, str(x)] for x in t.values[key]]] for key in t.values]
        h.update(json.dumps([label, type(t).__name__, t.degree, t.target_dim, rows]).encode())
    return h.hexdigest()[:16]


class TestSparseStorage:
    """A table stores exactly its nonzero vectors, and its full table reads as
    it did when tables held every canonical tuple."""

    PRODUCERS = {"parsed", "section_curvature", "section_difference", "param_curvature",
                 "delta_f", "lhs", "rhs", "chern_weil", "basis", "zero", "checked",
                 "ce_differential", "add", "sub", "neg", "scale", "map_values", "compose_sym"}

    def test_every_producer_stores_only_nonzero_vectors(self):
        seen = set()
        for label, t in storage_corpus():
            seen.add(label.split()[0])
            keys = set(t.key_tuples(t.source.dim, t.degree))
            assert set(t.nonzero) <= keys, label
            assert all(type(v) is tuple and len(v) == t.target_dim and any(v)
                       for v in t.nonzero.values()), label
            assert t.nonzero == {k: v for k, v in t.values.items() if any(v)}, label
            assert t.is_zero() == (not any(any(v) for v in t.values.values())), label
        assert seen == self.PRODUCERS

    def test_full_tables_match_the_digest_of_full_storage(self):
        # recorded when every table held a vector, zero or not, for each
        # canonical tuple: values and entry kinds read the same through values
        assert table_digest(storage_corpus()) == "eeee3292ac27ed89"

    def test_producers_drop_the_zero_vectors_they_make(self):
        rng = random.Random(2612)
        h3 = heisenberg3()
        w = _sparse_table(rng, Cochain, h3, 1, 2)
        half = Cochain(h3, 1, 2, {(0,): [1, 0], (1,): [0, 0], (2,): ["0", "1/2"]})
        assert half.nonzero == {(0,): (1, 0), (2,): (0, Fraction(1, 2))}
        assert (w - w).nonzero == w.scale(0).nonzero == {}
        assert (half + half.scale(-1)).nonzero == {}
        assert half.map_values(lambda x: x * 0).nonzero == {}
        triv = trivial_representation(h3, 1)
        zdual = Cochain(h3, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})
        assert ce_differential(zdual, triv).nonzero == {(0, 1): (-1,)}
        assert ce_differential(ce_differential(zdual, triv), triv).nonzero == {}
        f = SymMultiMap(abelian(2), 2, 1, {(0, 0): [0], (0, 1): [1], (1, 1): [0]})
        unit = Cochain(h3, 1, 2, {(0,): [1, 0], (1,): [1, 0], (2,): [0, 0]})
        assert compose_sym(f, [unit, unit]).nonzero == {}
        ws = oscillator_workspace()
        ext = ws.extensions["osc"]
        assert section_curvature(ext, ws.sections["s0"]).nonzero == {}
        assert section_difference(ext, ws.sections["sz"], ws.sections["sz"]).nonzero == {}
        parsed = parse_workspace(serialize_workspace(ws)).polynomials["fz"]
        assert parsed.nonzero == {(2,): (1,)}

    def test_an_unstored_tuple_reads_the_zero_of_the_stored_kind(self):
        h3 = heisenberg3()
        poly = MultiPoly(2, {(1, 0): 3})
        empty = zero_table(Cochain, h3, 2, 2)
        rational = Cochain(h3, 2, 2, {(0, 1): [1, 0], (0, 2): [0, 0], (1, 2): [0, 0]})
        polynomial = rational.map_values(lambda x: x * poly)
        for table, kind in ((empty, Fraction), (rational, Fraction), (polynomial, MultiPoly)):
            val = table.entry((1, 2))
            assert val == table.values[(1, 2)] == (0, 0)
            assert [type(x) for x in val] == [kind, kind]
        assert all(x.nvars == 2 for x in polynomial.entry((0, 2)))
        assert type(polynomial.entry((0, 1))[1]) is MultiPoly  # stored zero keeps its kind
        # an all-zero MultiPoly table stores nothing, so its zeros read as Fraction
        assert [type(x) for x in polynomial.scale(0).entry((0, 1))] == [Fraction, Fraction]
        view = rational.values
        assert len(view) == 3 and list(view) == increasing_tuples(3, 2)
        assert (1, 2) in view and (2, 1) not in view and (0, 3) not in view
        assert dict(view) == {(0, 1): (1, 0), (0, 2): (0, 0), (1, 2): (0, 0)}
        with pytest.raises(TypeError):
            view[(0, 1)] = (2, 2)


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
        b = zero_table(Cochain, g, 2, 1)
        assert reference_wedge(a, b, scalar_multiplication(1)).is_zero()

    def test_two_functionals(self):
        g = abelian(2)
        a = Cochain(g, 1, 1, {(0,): [2], (1,): [3]})
        b = Cochain(g, 1, 1, {(0,): [5], (1,): [7]})
        ab = reference_wedge(a, b, scalar_multiplication(1))
        # a(x)b(y) - a(y)b(x) on (e1, e2)
        assert ab.entry((0, 1)) == (2 * 7 - 3 * 5,)

    def test_degree_one_self_sym_wedge_vanishes(self):
        rng = random.Random(3)
        g = abelian(3)
        a = rand_cochain(rng, g, 1, 2)
        assert reference_wedge(a, a, sym_tensor_product(2, 1, 1)).is_zero()

    def test_wedge_with_zero_cochain_multiplies_pointwise(self):
        g = abelian(3)
        rng = random.Random(4)
        scalar = Cochain(g, 0, 1, {(): [Fraction(5, 2)]})
        b = rand_cochain(rng, g, 2, 1)
        out = reference_wedge(scalar, b, scalar_multiplication(1))
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
                    by_shuffles = reference_wedge(a, b, m)
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
                lhs = reference_wedge(a, b, m)
                rhs = reference_wedge(b, a, m)
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
        for rep in (trivial_representation(h3, 1), adjoint_representation(h3)):
            m = rep.space_dim
            for p in (3, 4):
                w = rand_cochain(rng, h3, p, m)
                for cochain in (w, w.map_values(lambda x: x * rand_poly(rng))):
                    d = ce_differential(cochain, rep)
                    assert type(d) is Cochain and d.source is h3
                    assert (d.degree, d.target_dim, d.values) == (p + 1, m, {})
                    assert d == zero_table(Cochain, h3, p + 1, m) and d.is_zero()

    def test_rows_past_the_top_degree_touch_no_structure_constants(self):
        class Bare:  # an algebra with a dimension and nothing else
            dim = 2

        class BareModule:  # a module with nothing at all
            pass

        assert cochains._differential_rows(Bare(), BareModule(), 2) == []
        assert cochains._differential_rows(Bare(), BareModule(), 5) == []


class TestOneDifferential:
    """d and its matrix come from one builder of sparse rows; both match the
    term-by-term formula and the unit-cochain matrix built from it."""

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
                got = to_dense(cochains._differential_rows(alg, rep, p),
                               comb(alg.dim, p) * rep.space_dim)
                assert got == dense_differential_matrix(alg, rep, p), (alg.basis_names, p)
                assert all(type(x) is Fraction for row in got for x in row)

    def test_rows_hold_no_zero_entry(self):
        # the input contract of sparse_rref: every stored entry is nonzero
        rng = random.Random(26)
        for name in sorted(SMALL_ALGEBRAS):
            std = SMALL_ALGEBRAS[name]()
            for alg in (std, conjugate_algebra(rng, std)):
                for rep in (trivial_representation(alg, 1), trivial_representation(alg, 2),
                            adjoint_representation(alg), random_module(rng, alg)):
                    for p in range(alg.dim + 2):
                        rows = cochains._differential_rows(alg, rep, p)
                        assert all(x for row in rows for x in row.values()), (name, p)

    def test_cancelling_contributions_leave_no_entry(self):
        # aff1, [a, b] = b, on the line with S(a) = 1, S(b) = 0: in
        # (d w)(a, b) = S(a) w(b) - S(b) w(a) - w([a, b]) the action term and
        # the bracket term at column b are +1 and -1
        aff1 = SMALL_ALGEBRAS["aff1"]()
        weight = [[[1]], [[0]]]
        bracket_only = cochains._differential_rows(aff1, trivial_representation(aff1, 1), 1)
        plane = abelian(2)
        action_only = cochains._differential_rows(plane, Representation(plane, 1, weight), 1)
        assert (bracket_only, action_only) == ([{1: -1}], [{1: 1}])
        rep = Representation(aff1, 1, weight)
        rows = cochains._differential_rows(aff1, rep, 1)
        assert rows == [{}]
        assert to_dense(rows, 2) == dense_differential_matrix(aff1, rep, 1) == [[0, 0]]

    def test_ce_differential_matches_reference(self):
        rng = random.Random(25)
        for alg, rep in self.cases(rng):
            for p in range(alg.dim + 2):
                w = rand_cochain(rng, alg, p, rep.space_dim)
                for cochain in (w, w.map_values(lambda x: x * rand_poly(rng))):
                    got = ce_differential(cochain, rep)
                    want = reference_twisted_differential(cochain, dense_matrices(rep))
                    assert got == want
                    assert [type(x) for v in got.values.values() for x in v] == \
                        [type(x) for v in want.values.values() for x in v]


class TestCovariantDerivative:
    """The differential twisted by an arbitrary linear map S, on the reference."""

    def test_zero_action_reduces_to_trivial_differential(self):
        rng = random.Random(31)
        h3 = heisenberg3()
        w = rand_cochain(rng, h3, 2, 2)
        s = [[[0, 0], [0, 0]] for _ in range(3)]
        assert reference_twisted_differential(w, s) == \
            ce_differential(w, trivial_representation(h3, 2))

    def test_degree_zero_returns_action_values(self):
        g = abelian(2)
        rng = random.Random(32)
        mats = [[[rand_fraction(rng) for _ in range(2)] for _ in range(2)]
                for _ in range(2)]
        v = rand_vector(rng, 2)
        w = Cochain(g, 0, 2, {(): v})
        d = reference_twisted_differential(w, mats)
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
        as_cochain = Cochain(
            g, 1, m * m,
            {(i,): [mats[i][r][c] for r in range(m) for c in range(m)]
             for i in range(g.dim)})
        lhs = reference_twisted_differential(w, mats)
        rhs = reference_wedge(as_cochain, w, evaluation_product(m)) + \
            ce_differential(w, trivial_representation(g, m))
        assert lhs == rhs

    def test_bianchi_for_arbitrary_one_cochains(self):
        rng = random.Random(34)
        target = heisenberg3()
        for _ in range(20):
            g = random_algebra(rng)
            sigma = rand_cochain(rng, g, 1, 3)
            r = reference_curvature(sigma, target)
            s = [ad_matrix(target, list(sigma.entry((i,)))) for i in range(g.dim)]
            assert reference_twisted_differential(r, s).is_zero()

    def test_leibniz_rule_seeded(self):
        rng = random.Random(35)
        target = heisenberg3()
        m = lie_bracket_product(target)
        for _ in range(30):
            g = random_algebra(rng)
            s = [ad_matrix(target, rand_vector(rng, 3)) for _ in range(g.dim)]
            p = rng.randint(0, 2)
            q = rng.randint(0, min(2, 4 - p))
            a = rand_cochain(rng, g, p, 3)
            b = rand_cochain(rng, g, q, 3)
            lhs = reference_twisted_differential(reference_wedge(a, b, m), s)
            rhs = reference_wedge(reference_twisted_differential(a, s), b, m)
            term = reference_wedge(a, reference_twisted_differential(b, s), m)
            rhs = rhs + (term if p % 2 == 0 else -term)
            assert lhs == rhs


class TestCurvature:
    """The curvature of a bare 1-cochain into a Lie algebra, on the reference."""

    def test_homomorphism_has_zero_curvature(self):
        h3 = heisenberg3()
        # the identity map of h3 as a 1-cochain is a homomorphism
        sigma = Cochain(h3, 1, 3, {(i,): unit(3, i) for i in range(3)})
        assert reference_curvature(sigma, h3).is_zero()

    def test_plane_into_heisenberg(self):
        g = abelian(2)
        sigma = Cochain(g, 1, 3, {(0,): [1, 0, 0], (1,): [0, 1, 0]})
        r = reference_curvature(sigma, heisenberg3())
        assert r.entry((0, 1)) == (0, 0, 1)

    def test_equals_differential_plus_half_self_bracket(self):
        rng = random.Random(41)
        target = heisenberg3()
        br = lie_bracket_product(target)
        for _ in range(20):
            g = random_algebra(rng)
            sigma = rand_cochain(rng, g, 1, 3)
            direct = reference_curvature(sigma, target)
            indirect = ce_differential(sigma, trivial_representation(g, 3)) + \
                reference_wedge(sigma, sigma, br).scale(Fraction(1, 2))
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


class TestOneCodePath:
    """Each multilinear identity has one implementation that every caller reaches."""

    def test_every_differential_goes_through_the_row_builder(self, monkeypatch):
        h3 = heisenberg3()
        rep = adjoint_representation(h3)
        w = rand_cochain(random.Random(91), h3, 1, 3)
        raise_everywhere(monkeypatch, cochains, "_differential_rows")
        for call in (lambda: ce_differential(w, rep), lambda: cohomology_space(h3, rep, 1)):
            with pytest.raises(AssertionError, match="_differential_rows"):
                call()

    def test_bracket_and_bilinear_products_share_one_contraction(self, monkeypatch):
        # the loop behind bracket is the package's one bilinear loop: curvatures
        # (on the section's sparse columns) and the homomorphism checks of an
        # extension reach it
        ext = heisenberg_central_extension()
        sec = Section(ext, [[1, 0], [0, 1], [0, 0]])
        raise_everywhere(monkeypatch, liealg, "_bracket_into")
        for call in (lambda: section_curvature(ext, sec), lambda: validate_extension(ext)):
            with pytest.raises(AssertionError, match="_bracket_into"):
                call()

    def test_compose_and_evaluate_share_one_contraction(self, monkeypatch):
        # f is contracted in one place: compose_sym and SymMultiMap.evaluate
        rng = random.Random(92)
        f = rand_symmap(rng, abelian(3), 1)
        a = rand_cochain(rng, abelian(2), 1, 3)
        raise_everywhere(monkeypatch, cochains, "_contract")
        for call in (lambda: compose_sym(f, [a]), lambda: f.evaluate([[1, 2, 3]])):
            with pytest.raises(AssertionError, match="_contract"):
                call()

    def test_trivial_module_rows_hold_only_bracket_entries(self):
        rng = random.Random(93)
        for name in sorted(SMALL_ALGEBRAS):
            alg = conjugate_algebra(rng, SMALL_ALGEBRAS[name]())
            for m in (1, 2, 3):
                triv = trivial_representation(alg, m)
                for p in range(alg.dim + 1):
                    rows = cochains._differential_rows(alg, triv, p)
                    scalar = cochains._differential_rows(
                        alg, trivial_representation(alg, 1), p)
                    # d on V = R^m is d on R tensored with the identity of R^m
                    assert rows == [{c * m + r: x for c, x in row.items()}
                                    for row in scalar for r in range(m)]


class TestAgainstReferenceProducts:
    """compose_sym agrees with the separate reference enumeration."""

    @staticmethod
    def _same(got, want):
        assert got == want
        assert [type(x) for v in got.values.values() for x in v] == \
            [type(x) for v in want.values.values() for x in v]
        assert_exact_entries(got)

    @staticmethod
    def _promote(rng, table):
        return table.map_values(lambda x: x * rand_poly(rng))

    def test_compose_sym(self):
        rng = random.Random(96)
        h3 = heisenberg3()
        for g in (abelian(4), conjugate_algebra(rng, SMALL_ALGEBRAS["filiform4"]())):
            for degrees in ((1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 2), (0, 2)):
                f = rand_symmap(rng, h3, len(degrees))
                args = [rand_cochain(rng, g, p, 3) for p in degrees]
                self._same(compose_sym(f, args), reference_compose_sym(f, args))
                args[-1] = self._promote(rng, args[-1])
                self._same(compose_sym(f, args), reference_compose_sym(f, args))

    @staticmethod
    def _sparse_cochain(rng, g, p, d, entry):
        """Values that are zero with probability 0.4, so some vectors vanish."""
        return Cochain.from_function(
            g, p, d, lambda key: [entry(rng) if rng.random() < 0.6 else 0 for _ in range(d)])

    def test_compose_sym_shares_partial_sums(self):
        # p = 3, 4 on kernels of dimension 3-5: the wedge steps share the
        # tensor of each key among the output keys that extend it
        rng = random.Random(97)
        g = abelian(6)
        for d, degrees in ((3, (1, 2, 1)), (3, (2, 1, 1, 2)), (4, (1, 1, 2)),
                           (4, (2, 1, 1, 1)), (5, (1, 2, 2)), (5, (2, 1, 1))):
            f = rand_symmap(rng, abelian(d), len(degrees), 2)
            args = [self._sparse_cochain(rng, g, p, d, rand_fraction) for p in degrees]
            self._same(compose_sym(f, args), reference_compose_sym(f, args))
            args[-1] = self._sparse_cochain(rng, g, degrees[-1], d, rand_poly)
            self._same(compose_sym(f, args), reference_compose_sym(f, args))

    def test_compose_sym_unit_arguments_on_a_large_kernel(self):
        rng = random.Random(98)
        d = 20
        f = rand_symmap(rng, abelian(d), 4, 2)
        g = abelian(7)

        def unit_cochain(p):
            # a seeded basis vector e_i, or zero one time in five
            return Cochain.from_function(
                g, p, d, lambda key: unit(d, rng.randrange(d)) if rng.random() < 0.8 else [0] * d)

        args = [unit_cochain(p) for p in (1, 1, 2, 2)]
        self._same(compose_sym(f, args), reference_compose_sym(f, args))
        args[-1] = self._promote(rng, args[-1])
        self._same(compose_sym(f, args), reference_compose_sym(f, args))

    @pytest.mark.parametrize("n", [1, 2])
    def test_delta_f_integrand_entries_are_exact(self, monkeypatch, n):
        # p = 3 > n: the integrand f(D_1..D_n, R_t, ..) holds MultiPoly entries
        # built from integer forms; none of those integers may leak out
        from liechar import characteristic
        integrands = []

        def recording(f, args):
            integrands.append(compose_sym(f, args))
            return integrands[-1]

        monkeypatch.setattr(characteristic, "compose_sym", recording)
        rng = random.Random(95 + n)
        ext = direct_sum_extension()
        f = rand_symmap(rng, ext.kernel, 3)
        sections = [rand_section(rng, ext) for _ in range(n + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            delta_f(ext, f, sections, trivial_representation(ext.base, 1))
        (integrand,) = integrands
        assert any(type(x) is MultiPoly for v in integrand.nonzero.values() for x in v)
        assert_exact_entries(integrand)


class TestShuffleTable:
    """compose_sym runs one wedge step per argument, and none when the output
    has no key; it puts each distinct argument object in integer form once per
    call.  Repeating one object must give, in value and entry kind, what
    distinct copies give."""

    _same = staticmethod(TestAgainstReferenceProducts._same)

    @staticmethod
    def _copies(w, r):
        out = [w] + [copy.copy(w) for _ in range(r - 1)]
        assert len({id(a) for a in out}) == r
        return out

    @pytest.mark.parametrize("entry", [rand_fraction, rand_poly])
    @pytest.mark.parametrize("degree, r", [(2, 2), (2, 3), (2, 4), (4, 2),
                                           (1, 2), (1, 3), (1, 4), (3, 2)])
    def test_one_repeated_cochain_matches_distinct_copies(self, degree, r, entry):
        rng = random.Random(99 + 10 * degree + r)
        g = abelian(degree * r + (degree * r < 8))
        f = rand_symmap(rng, abelian(3), r, 2)
        w = TestAgainstReferenceProducts._sparse_cochain(rng, g, degree, 3, entry)
        got = compose_sym(f, [w] * r)
        self._same(got, compose_sym(f, self._copies(w, r)))
        if degree * r <= 6:
            self._same(got, reference_compose_sym(f, [w] * r))
        # swapping two blocks of odd size is odd, so the terms cancel in pairs
        assert got.is_zero() == (degree % 2 == 1)

    def test_runs_among_other_arguments(self):
        rng = random.Random(100)
        g = abelian(6)
        for entry in (rand_fraction, rand_poly):
            a, b = (TestAgainstReferenceProducts._sparse_cochain(rng, g, p, 3, entry)
                    for p in (2, 1))
            c = rand_cochain(rng, g, 0, 3)
            for args in ([a, a, b], [b, a, a], [a, b, a], [a, a, b, b], [c, c, a, a],
                         [c, a, a, a]):
                f = rand_symmap(rng, abelian(3), len(args), 2)
                got = compose_sym(f, args)
                distinct = [copy.copy(x) for x in args]
                self._same(got, compose_sym(f, distinct))
                self._same(got, reference_compose_sym(f, args))

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(cochains, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cochains, name, counting)
        return calls

    def test_no_output_key_runs_no_wedge_step(self, monkeypatch):
        # Delta_f for p = 4, n = 0 on a base of dimension 5: degree 8, no key
        rng = random.Random(101)
        curv = rand_cochain(rng, abelian(5), 2, 3)
        f = rand_symmap(rng, abelian(3), 4)
        calls = [self._count_calls(monkeypatch, name) for name in ("_integer_form", "_wedge_step")]
        for args in ([curv] * 4, self._copies(curv, 4)):
            out = compose_sym(f, args)
            assert (out.degree, out.values) == (8, {})
        assert calls == [[], []]

    def test_each_argument_object_put_in_integer_form_once(self, monkeypatch):
        rng = random.Random(102)
        f = rand_symmap(rng, abelian(3), 4, 2)
        for dim in (6, 7):
            a, b = (rand_cochain(rng, abelian(dim), p, 3) for p in (2, 1))
            for args, distinct in (([a, a, b, b], 2), ([b, a, b, a], 2), ([b] * 4, 1),
                                   (self._copies(a, 2) + self._copies(b, 2), 4)):
                forms = self._count_calls(monkeypatch, "_integer_form")
                steps = self._count_calls(monkeypatch, "_wedge_step")
                got = compose_sym(f, args)
                assert len(got.values) == comb(dim, sum(x.degree for x in args))
                assert (len(forms), len(steps)) == (distinct, 4)
                monkeypatch.undo()
