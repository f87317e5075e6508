"""Exact Chevalley-Eilenberg cohomology and characteristic classes of Lie
algebra extensions, over the rationals.

Everything is computed in exact arithmetic: scalars are Fraction or, for
the curvature of a simplex-parametrized section family, sparse
rational-coefficient polynomials.  The package covers cochains and symmetric maps, the
Chevalley-Eilenberg differential, the composition of a symmetric map with
cochains, extensions with linear sections and their curvature, cohomology
spaces with deterministic bases, primary (Chern-Weil) and secondary
(Bott-Lecomte) characteristic classes, and a checker for the boundary identity
relating the relative cochains of section tuples.
"""

from .scalars import (MultiPoly, as_poly, integrate_monomial_simplex,
                      integrate_poly_simplex, poly_to_json, rational_from_str,
                      rational_to_str)
from .linalg import solve_linear
from .liealg import (LieAlgebra, Representation, abelian, adjoint_representation,
                     algebra_from_brackets, check_jacobi,
                     check_representation, heisenberg, heisenberg3,
                     is_derivation, oscillator, semidirect_product,
                     trivial_representation)
from .cochains import (Cochain, SymMultiMap, ce_differential, compose_sym,
                       increasing_tuples, nondecreasing_tuples)
from .extensions import (ExactnessViolation, Extension, InvalidSection,
                         InvarianceWarning, Section, is_invariant,
                         kernel_coords, param_curvature, s_from_section,
                         section_curvature, validate_extension,
                         validate_section)
from .characteristic import (CharacteristicClass, CohomologySpace, DegreeError,
                             NotACocycle, NotAdmissible, NotClosed,
                             NotInvariant, TheoremReport, chern_weil,
                             classes_equal, cohomology_space, delta_f,
                             secondary_class, verify_main_theorem)
from .workspace import (ParseError, ValidationError, Workspace,
                        canonical_dumps, cochain_to_json, parse_workspace,
                        serialize_workspace)
from . import catalog

__version__ = "0.1.0"
