"""
orthogal: exact-arithmetic tools around orthogonal groups over finite
fields and the Galois groups of reciprocal polynomials, with two
applied pipelines: L-functions of quadratic twist families of elliptic
curves over F_q(t), and Hodge-number arithmetic of smooth hypersurfaces.
"""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, NotReciprocalError,
                     NotSeparableError)
from .ffield import Fq, SquareClass, SQUARE, NONSQUARE, ZERO_CLASS, get_field
from .poly import Poly, discriminant, factor, factor_degrees, resultant
from .recpoly import (StrippedPoly, TraceForm, strip, to_trace_form,
                      trace_lift, disc_identity, classify_H,
                      classes_from_degrees, count_irreducible_classes)
from .orthfin import (OrthSpace, OrthElem, CosetLabel, ALL_COSETS,
                      GroupTable, enumerate_O, coset_label, spinor_norm,
                      class_proportion, c_i_density, random_element)
from .signedperm import (SignedPerm, WGroup, invariants, order_W,
                         enumerate_W, class_statistics,
                         check_brauer_criterion)
from .galclass import (GaloisCertificate, KField, classify, compute_K,
                       group_constraint, chebotarev_validate,
                       batch_factor_degrees, is_perfect_square)
from .sieve import (SieveProblem, SieveResult, FiniteSpace, selberg_bound,
                    weight_identities, problem_from_space, exact_mu_S,
                    powerset_support, smooth_support, density_experiment,
                    prop15_scan)
from .lfunc import (FqTCurve, PlaceData, LPolynomial, INFINITY,
                    quadratic_twist, kodaira_at, kodaira_table_row,
                    finite_bad_places, bad_modulus, invariants_Nd_Dd_B,
                    l_function, enumerate_twists, twist_target_group,
                    survey_delta)
from .hodge import (HodgeTable, hodge_degree, primitive_hodge,
                    signature_congruence, k_field_hypersurface)
