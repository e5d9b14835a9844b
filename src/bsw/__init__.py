"""Exact commutative-algebra workbench: Groebner bases, free resolutions
and their rank-drop strata, integral closures of monomial ideals in two
regimes (Newton polyhedra, numerical semigroups), containment-exponent
searches, and a numerical log-log exponent estimator, tied together by
a batch session language with reproducible JSON reports."""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, EstimationError, ResourceCapError,
                     SamplingError, StructuralError, ValidationError)
from .poly import (Polynomial, RingContext, format_polynomial, parse_polynomial,
                   parse_polynomials, weighted_degree_info)
from .groebner import (DEFAULT_BUDGET, GroebnerBasis, Ideal, groebner_basis,
                       ideal_combine, ideal_member, ideal_power, krull_dimension,
                       normal_form)
from .resolution import (FreeComplex, PolyMatrix, StrataReport, check_acyclicity,
                         check_bs_condition, check_cm_depth,
                         check_normality_condition, expected_ranks,
                         free_resolution, koszul_complex, minimalize,
                         normality_witness, rank_locus_ideal, strata)
from .closure import (MonomialIdeal, bs_exponent, bs_verify_monomial, newton_closure,
                      newton_facets)
from .semigroup import (NumericalSemigroup, SemigroupIdeal, containment_holds,
                        enumerate_ideals, germ_bs_exponent, germ_closure_member,
                        germ_ideal_member, huneke_mu, semigroup_build,
                        semigroup_ideal)
from .loja import (LojaEstimate, VarietySampler, hypersurface_sampler,
                   loja_exponent_estimate, monomial_curve_sampler, sample_variety)
from .session import (Session, SessionSyntaxError, parse_session, report_exit_code,
                      run_command, run_session)

__all__ = [name for name in dir() if not name.startswith("_")]
