"""chebprob: exact probability numbers of reciprocal Chebyshev series,
Euler polynomial identities, and seeded Monte Carlo verification.

The probability numbers p_ell are the power-series coefficients of
1/T_N(1/z), where T_N is the first-kind Chebyshev polynomial; they form the
law of a random index mu_N supported on {N, N+2, ...}.  The package computes
them by three independent algorithms (exact series reciprocal, root-angle
trigonometry, ballot-number sums), builds classical and generalized Euler
polynomials by two independent algorithms, and verifies the identities that
tie the two families together, exactly where possible and statistically
where not.
"""

from .chebyshev import (
    chebyshev_T,
    chebyshev_U,
    reversed_T,
)
from .eulerpoly import (
    euler_numbers,
    euler_poly,
    eval_poly,
    gen_euler_recursive,
    gen_euler_series,
    gen_euler_zero,
)
from .exactnum import (
    DensePolynomial,
    DomainError,
    ballot_number,
    binomial,
    catalan_sequence,
    format_rational,
)
from .identities import (
    CatalanPrefixReport,
    ConvergenceError,
    ReconstructionResult,
    asymptotic_ratio,
    catalan_prefix_check,
    expectation_form_check,
    reconstruct_euler,
)
from .probnum import (
    CrossValidationError,
    CrossValidationReport,
    ProbTable,
    catalan_table,
    cross_validate,
    geometric_tail_bound,
    probnum_catalan,
    probnum_series,
    probnum_trig,
    root_angles,
    tail_mass,
    trig_value,
)

__version__ = "0.1.0"

# Reached through __getattr__ below, so that numpy loads only when a
# stochastic name is first used.
_STOCHASTIC = (
    "RandomStream", "MomentEntry", "MomentReport", "sample_sech", "sample_mu",
    "sech_cdf", "mc_euler_poly", "mc_gen_euler", "mc_klebanov",
    "moment_integral_check",
)

__all__ = [
    "__version__",
    # exactnum
    "DomainError", "binomial", "catalan_sequence", "ballot_number",
    "format_rational", "DensePolynomial",
    # chebyshev
    "chebyshev_T", "chebyshev_U", "reversed_T",
    # probnum
    "ProbTable", "CrossValidationError", "CrossValidationReport",
    "probnum_series", "probnum_trig", "probnum_catalan", "catalan_table",
    "trig_value", "cross_validate", "tail_mass",
    "geometric_tail_bound", "root_angles",
    # eulerpoly
    "euler_numbers", "euler_poly", "gen_euler_zero", "gen_euler_recursive",
    "gen_euler_series", "eval_poly",
    # identities
    "ConvergenceError", "ReconstructionResult", "CatalanPrefixReport",
    "reconstruct_euler", "expectation_form_check", "asymptotic_ratio",
    "catalan_prefix_check",
    # stochastic
    *_STOCHASTIC,
]


def __getattr__(name: str):
    if name in _STOCHASTIC:
        from . import stochastic

        return getattr(stochastic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
