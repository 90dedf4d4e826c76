"""ritt-kit: exact polynomial decomposition, conjugacy classification,
symmetry groups, semiconjugacy solving, invariant plane curves, and
desk-scale orbit experiments over Q and cyclotomic fields."""

from .bivar import (BivarCurve, BivarPoly, bivar_gcd, bivar_squarefree,
                    lagrange_interpolate, resultant_univar, resultant_y)
from .bounds import ConstantExpr, bound_c, bound_c1, compare
from .conjugacy import ShapeReport, classify, equivalence_witness
from .decompose import (DecompositionChain, EngstromCertificate,
                        PowerFormSplit, complete_decompositions,
                        decompose_power_form, engstrom_refine,
                        left_factor_solve, normalized_right_factor,
                        right_factor_solve, verify_power_form)
from .dml import (EscapeCertificate, Orbit, OrbitPoint, PreperiodicResult,
                  Progression, ReturnSet, orbit, preperiodic_check,
                  progression_decompose, return_set_exact, return_set_modp,
                  return_sets_modp)
from .errors import (BadReductionError, CollapsedImageError,
                     FieldExtensionRequiredError, FieldMismatchError,
                     HypothesisViolationError, ParseError, ResourceCapError,
                     RittKitError)
from .field import (QQ, CycElem, FieldDescriptor, cyclotomic_field,
                    nth_roots, roots_of_unity)
from .msclass import (DiagonalCurve, PeriodCertificate, curve_image,
                      curve_period, f_tilde_candidate, graph_curve,
                      ms_diagonal_curves, periodic_graph_search)
from .parser import parse_bivar, parse_curve, parse_field, parse_poly
from .poly import (LinearPoly, Poly, chebyshev, compose, conjugate, iterate,
                   poly_divmod, poly_gcd)
from .roots import in_field_roots
from .semiconj import (ApproxClasses, CommonWitness, InouNormalForm,
                       SemiconjWitness, approx_classes, common_semiconjugate,
                       inou_normal_form, semiconj_check, solve_eta,
                       solve_intertwiner, solve_p)
from .symmetry import (LinearGroup, PowerNormalForm, align_iterates,
                       common_commuting_iterate, commutes_with_iterate,
                       gamma_group, m_infinity, power_normal_form)

__version__ = "0.1.0"
