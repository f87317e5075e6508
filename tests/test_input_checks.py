"""Each check on the arguments of a public entry point raises its exception
type with its exact message."""

import pytest

from liechar import (Cochain, DegreeError, Extension, InvalidSection, MultiPoly,
                     Representation, Section, SymMultiMap, abelian, adjoint_representation,
                     algebra_from_brackets, as_poly, ce_differential, chern_weil,
                     cohomology_space, compose_sym, delta_f, heisenberg, heisenberg3,
                     integrate_monomial_simplex, is_invariant, kernel_coords, oscillator,
                     param_curvature, rational_to_str, secondary_class, solve_linear,
                     trivial_representation, verify_main_theorem)
from liechar.catalog import oscillator_extension

from helpers import zero_table


def oscillator_inputs():
    """The oscillator extension (total dim 4, kernel h3, base a line), its
    sections s0 and sz, a degree-1 map on the kernel and the trivial module."""
    ext = oscillator_extension()
    s0 = Section(ext, [[0], [0], [0], [1]])
    sz = Section(ext, [[0], [0], [1], [1]])
    fz = SymMultiMap(ext.kernel, 1, 1, {(0,): [0], (1,): [0], (2,): [1]})
    return ext, s0, sz, fz, trivial_representation(ext.base, 1)


def compose_degree_zero():
    compose_sym(SymMultiMap(heisenberg3(), 0, 1, {(): [1]}), [])


def compose_source_mismatch():
    compose_sym(zero_table(SymMultiMap, heisenberg3(), 2, 1),
                [zero_table(Cochain, heisenberg3(), 1, 3), zero_table(Cochain, abelian(2), 1, 3)])


def compose_dimension_mismatch():
    compose_sym(zero_table(SymMultiMap, heisenberg3(), 1, 1),
                [zero_table(Cochain, abelian(2), 1, 2)])


def compose_variable_counts():
    one, two = (MultiPoly(n, {(0,) * n: 1}) for n in (1, 2))
    compose_sym(SymMultiMap(abelian(1), 2, 1, {(0, 0): [1]}),
                [Cochain(abelian(1), 0, 1, {(): [one]}), Cochain(abelian(1), 0, 1, {(): [two]})])


def differential_shape_mismatch():
    ce_differential(zero_table(Cochain, heisenberg3(), 1, 1),
                    trivial_representation(abelian(2), 1))


def coordinates_shape_mismatch():
    h3 = heisenberg3()
    space = cohomology_space(h3, trivial_representation(h3, 1), 1)
    space.coordinates_of(zero_table(Cochain, h3, 2, 1))


def cohomology_other_algebra():
    cohomology_space(heisenberg3(), trivial_representation(abelian(2), 1), 1)


def delta_f_no_section():
    ext, _, _, fz, triv = oscillator_inputs()
    delta_f(ext, fz, [], triv)


def delta_f_off_kernel():
    ext, s0, _, _, triv = oscillator_inputs()
    delta_f(ext, SymMultiMap(abelian(2), 1, 1, {(0,): [1], (1,): [0]}), [s0], triv)


def delta_f_off_module():
    ext, s0, _, _, triv = oscillator_inputs()
    f = SymMultiMap(ext.kernel, 1, 2, {(0,): [0, 0], (1,): [0, 0], (2,): [1, 0]})
    delta_f(ext, f, [s0], triv)


def module_over_the_total(call, mode):
    """call on the oscillator with a module over its 4-dimensional total algebra,
    not its line base; each call's result has degree 2 > dim g = 1."""
    ext, s0, sz, fz, _ = oscillator_inputs()
    rep = trivial_representation(ext.total, 1)
    if call is chern_weil:
        return chern_weil(ext, fz, s0, rep, mode)
    return call(ext, fz, [s0, sz] if call is verify_main_theorem else [s0], rep, mode)


def theorem_single_section():
    ext, s0, _, fz, triv = oscillator_inputs()
    verify_main_theorem(ext, fz, [s0], triv)


def secondary_degree_zero():
    ext, s0, sz, _, triv = oscillator_inputs()
    secondary_class(ext, SymMultiMap(ext.kernel, 0, 1, {(): [1]}), s0, sz, triv)


def extension_iota_shape():
    ext = oscillator_extension()
    Extension(ext.total, ext.base, ext.kernel, ext.iota[:3], ext.proj)


def extension_q_shape():
    ext = oscillator_extension()
    Extension(ext.total, ext.base, ext.kernel, ext.iota, [row[:3] for row in ext.proj])


def section_shape():
    Section(oscillator_extension(), [[0], [0], [1]])


def invariance_unknown_mode():
    ext, s0, _, fz, triv = oscillator_inputs()
    is_invariant(fz, ext, triv, "loose", s0)


def invariance_section_mode_without_section():
    ext, _, _, fz, triv = oscillator_inputs()
    is_invariant(fz, ext, triv, "section")


def family_of_one_section():
    ext, s0, _, _, _ = oscillator_inputs()
    param_curvature(ext, [s0])


def family_through_a_polynomial_section():
    ext, s0, _, _, _ = oscillator_inputs()
    param_curvature(ext, [s0, Section(ext, [[0], [0], [MultiPoly(1, {(1,): 1})], [1]])])


def kernel_coords_polynomial(row):
    """kernel_coords of a vector whose entry at row is t1: row 3 is a zero row
    of iota, the others hold a pivot."""
    ext = oscillator_extension()
    vec = [0] * ext.total.dim
    vec[row] = MultiPoly(1, {(1,): 1})
    kernel_coords(ext, vec)


def family_through_an_invalid_section():
    ext, s0, _, _, _ = oscillator_inputs()
    param_curvature(ext, [Section(ext, [[0]] * 4), s0])


def representation_shape():
    Representation(abelian(2), 1, [[[0]], [[0, 0]]])


def float_message(x):
    return f"float {x!r} is not an exact scalar; use an int, a Fraction or a 'p/q' string"


def not_a_section(call, position):
    """call with the section at the given position replaced by an int."""
    ext, s0, sz, fz, triv = oscillator_inputs()
    sections = [s0, sz]
    sections[position] = 7
    if call is chern_weil:
        return chern_weil(ext, fz, sections[position], triv)
    if call is secondary_class:
        return secondary_class(ext, fz, *sections, triv)
    if call is param_curvature:
        return param_curvature(ext, sections)
    return call(ext, fz, sections, triv)


# (name, call, exception type, exact message)
CHECKS = [
    ("compose_sym degree 0", compose_degree_zero, ValueError,
     "need at least one argument cochain"),
    ("compose_sym source", compose_source_mismatch, ValueError, "source algebra mismatch"),
    ("compose_sym dimension", compose_dimension_mismatch, ValueError, "dimension mismatch"),
    ("compose_sym variable counts", compose_variable_counts, ValueError,
     "polynomial variable counts differ"),
    ("ce_differential shape", differential_shape_mismatch, ValueError, "dimension mismatch"),
    ("coordinates_of shape", coordinates_shape_mismatch, ValueError,
     "cochain shape does not match this cohomology space"),
    ("cohomology_space module", cohomology_other_algebra, ValueError,
     "representation is over a different algebra"),
    *((f"cohomology_space module of another algebra of the same dimension, p={p}",
       lambda p=p: cohomology_space(abelian(4), adjoint_representation(oscillator()), p),
       ValueError, "representation is over a different algebra") for p in (1, 2, 3)),
    ("delta_f no section", delta_f_no_section, ValueError, "need at least one section"),
    ("delta_f kernel", delta_f_off_kernel, ValueError,
     "dimension mismatch: f is not defined on the kernel"),
    ("delta_f module", delta_f_off_module, ValueError,
     "dimension mismatch: f does not map into the module"),
    *((f"{call.__name__} module over another base, {mode}",
       lambda call=call, mode=mode: module_over_the_total(call, mode),
       ValueError, "dimension mismatch")
      for call in (delta_f, chern_weil, verify_main_theorem) for mode in ("section", "strict")),
    ("verify_main_theorem one section", theorem_single_section, ValueError,
     "the identity needs at least two sections"),
    ("secondary_class degree 0", secondary_degree_zero, DegreeError,
     "secondary classes need a map of degree at least 1"),
    ("Extension iota", extension_iota_shape, ValueError,
     "iota must be dim(total) x dim(kernel)"),
    ("Extension q", extension_q_shape, ValueError, "q must be dim(base) x dim(total)"),
    ("Section shape", section_shape, ValueError,
     "section matrix must be dim(total) x dim(base)"),
    ("is_invariant mode", invariance_unknown_mode, ValueError,
     "unknown invariance mode 'loose'"),
    ("is_invariant section", invariance_section_mode_without_section, ValueError,
     "section mode needs a section"),
    ("param_curvature one", family_of_one_section, ValueError,
     "need at least two sections to interpolate"),
    # sections and right-hand sides are rational: a MultiPoly entry is refused
    ("param_curvature polynomial", family_through_a_polynomial_section, TypeError,
     "polynomial t1 is not a rational scalar"),
    ("Section polynomial", lambda: Section(oscillator_extension(), [
        [0], [0], [MultiPoly(1, {(0,): 2})], [1]]), TypeError,
     "polynomial 2 is not a rational scalar"),
    ("solve_linear polynomial", lambda: solve_linear(
        [{0: 1}, {1: 1}], [[1, MultiPoly(2, {(1, 1): 3})]], 2), TypeError,
     "polynomial 3*t1*t2 is not a rational scalar"),
    *((f"kernel_coords polynomial at row {row}", lambda row=row: kernel_coords_polynomial(row),
       TypeError, "polynomial t1 is not a rational scalar") for row in (0, 3)),
    ("param_curvature invalid", family_through_an_invalid_section, InvalidSection,
     "section 0 fails q . sigma = id"),
    ("heisenberg(0)", lambda: heisenberg(0), ValueError, "heisenberg(m) needs m >= 1"),
    ("Representation shape", representation_shape, ValueError,
     "representation needs one space_dim x space_dim matrix per basis element"),
    ("MultiPoly product", lambda: MultiPoly(1, {(1,): 1}) * MultiPoly(2, {(0, 1): 1}),
     ValueError, "polynomial variable counts differ"),
    # a variable count is an int: a float or a bool is refused, not kept
    ("MultiPoly float count", lambda: MultiPoly(2.0, {(1, 0): 3}), ValueError,
     "variable count must be a non-negative int, not 2.0"),
    ("MultiPoly.constant float count", lambda: MultiPoly.constant(2.0, 1), ValueError,
     "variable count must be a non-negative int, not 2.0"),
    ("MultiPoly bool count", lambda: MultiPoly(True, {(1,): 3}), ValueError,
     "variable count must be a non-negative int, not True"),
    ("MultiPoly negative count", lambda: MultiPoly(-1), ValueError,
     "variable count must be a non-negative int, not -1"),
    # an exponent is an int: any other value is refused, not truncated
    ("MultiPoly float exponent", lambda: MultiPoly(2, {(1.5, 0): 3}), ValueError,
     "bad exponent vector (1.5, 0) for 2 variables"),
    ("MultiPoly bool exponent", lambda: MultiPoly(2, {(True, 0): 3}), ValueError,
     "bad exponent vector (True, 0) for 2 variables"),
    ("MultiPoly string exponent", lambda: MultiPoly(1, {("2",): 3}), ValueError,
     "bad exponent vector ('2',) for 1 variables"),
    ("as_poly", lambda: as_poly(MultiPoly(1, {(1,): 1}), 2), ValueError,
     "polynomial variable counts differ"),
    ("constant_value", lambda: MultiPoly(1, {(1,): 2}).constant_value(), ValueError,
     "2*t1 is not a constant polynomial"),
    ("integrate_monomial_simplex", lambda: integrate_monomial_simplex(2, [1]), ValueError,
     "bad exponent vector [1] for D_2"),
    ("integrate_monomial_simplex float", lambda: integrate_monomial_simplex(1, [1.5]),
     ValueError, "bad exponent vector [1.5] for D_1"),
    ("integrate_monomial_simplex string", lambda: integrate_monomial_simplex(1, ["2"]),
     ValueError, "bad exponent vector ['2'] for D_1"),
    ("integrate_monomial_simplex bool", lambda: integrate_monomial_simplex(1, [True]),
     ValueError, "bad exponent vector [True] for D_1"),
    ("integrate_monomial_simplex float D_2", lambda: integrate_monomial_simplex(2, [1.5]),
     ValueError, "bad exponent vector [1.5] for D_2"),
    # floats are not exact: every coercion to a scalar refuses them
    ("Section float", lambda: Section(oscillator_extension(), [[0], [0], [0.1], [1]]),
     TypeError, float_message(0.1)),
    ("algebra_from_brackets float", lambda: algebra_from_brackets(
        ("x", "y", "z"), {(0, 1): {2: 0.5}}), TypeError, float_message(0.5)),
    ("Extension float", lambda: Extension(
        abelian(2), abelian(1), abelian(1), [[0.5], [0]], [[0, 1]]), TypeError, float_message(0.5)),
    ("Representation float", lambda: Representation(abelian(1), 1, [[[0.25]]]), TypeError,
     float_message(0.25)),
    ("Cochain float", lambda: Cochain(abelian(1), 1, 1, {(0,): [1.0]}), TypeError,
     float_message(1.0)),
    ("MultiPoly float", lambda: MultiPoly(1, {(1,): 0.1}), TypeError, float_message(0.1)),
    ("MultiPoly.constant float", lambda: MultiPoly.constant(2, 0.5), TypeError,
     float_message(0.5)),
    ("as_poly float", lambda: as_poly(0.5, 1), TypeError, float_message(0.5)),
    ("rational_to_str float", lambda: rational_to_str(0.5), TypeError, float_message(0.5)),
    # a tuple entry that is not a Section is named by its type
    *((f"{call.__name__} non-section {position}", lambda call=call, position=position:
       not_a_section(call, position), TypeError, f"{label} must be a Section, not int")
      for call, position, label in (
          (delta_f, 0, "section 0"), (delta_f, 1, "section 1"),
          (chern_weil, 0, "section 0"), (secondary_class, 0, "first section"),
          (secondary_class, 1, "second section"), (verify_main_theorem, 0, "section 0"),
          (verify_main_theorem, 1, "section 1"), (param_curvature, 0, "section 0"),
          (param_curvature, 1, "section 1"))),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CHECKS],
                         ids=[case[0] for case in CHECKS])
def test_check_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
