"""Exact Chevalley-Eilenberg cohomology and characteristic classes of Lie
algebra extensions, over the rationals.

Everything is computed in exact arithmetic: scalars are Fraction or, for
simplex-parametrized section families, sparse rational-coefficient
polynomials.  The package covers the cochain calculus (wedge products,
differentials, covariant derivatives, curvature), extensions with linear
sections, cohomology spaces with deterministic bases, primary (Chern-Weil)
and secondary (Bott-Lecomte) characteristic classes, and a checker for the
boundary identity relating the relative cochains of section tuples.
"""

from .scalars import (MultiPoly, Rational, as_poly, integrate_monomial_simplex,
                      integrate_poly_simplex, poly_from_json, poly_to_json,
                      rational_from_str, rational_to_str)
from .linalg import (column_space_basis, identity, mat_mul, mat_vec, nullspace,
                     rank, rref, solve_linear, transpose)
from .liealg import (LieAlgebra, Representation, abelian, ad_matrix,
                     adjoint_representation, algebra_from_brackets, bracket,
                     check_jacobi, check_representation, heisenberg,
                     heisenberg3, is_derivation, oscillator,
                     semidirect_product, standard_algebra,
                     trivial_representation)
from .cochains import (BilinearProduct, Cochain, LinearAction, SymMultiMap,
                       alt, ce_differential, compose_sym, covariant_derivative,
                       curvature, evaluation_product, increasing_tuples,
                       lie_bracket_product, nondecreasing_tuples,
                       scalar_multiplication, sym_product, sym_tensor_product,
                       wedge)
from .extensions import (ExactnessViolation, Extension, InvalidSection,
                         InvarianceWarning, Section, is_invariant,
                         kernel_coords, param_curvature, param_section,
                         s_from_section, section_curvature,
                         section_difference, validate_extension,
                         validate_section)
from .characteristic import (CharacteristicClass, CohomologySpace, DegreeError,
                             NotACocycle, NotAdmissible, NotClosed,
                             NotInvariant, TheoremReport, chern_weil,
                             classes_equal, cohomology_space, delta_f,
                             differential_matrix, secondary_class,
                             verify_main_theorem)
from .workspace import (ParseError, ValidationError, Workspace,
                        canonical_dumps, cochain_from_json, cochain_to_json,
                        parse_workspace, serialize_workspace)
from . import catalog

__version__ = "0.1.0"
