"""chebprob: exact probability numbers of reciprocal Chebyshev series,
Euler polynomial identities, and seeded Monte Carlo verification.

The probability numbers p_ell are the power-series coefficients of
1/T_N(1/z), where T_N is the first-kind Chebyshev polynomial; they form the
law of a random index mu_N supported on {N, N+2, ...}.  The package computes
them by three independent algorithms (exact series reciprocal, root-angle
trigonometry, a count of a walk's exit paths), builds classical and
generalized Euler polynomials by two independent algorithms, and verifies
the identities that tie the two families together, exactly where possible
and statistically where not.  It loads neither test oracle, ``chebyshev``
nor ``series``: import them by name.
"""

from . import eulerpoly, exactnum, identities, probnum
from .eulerpoly import *
from .exactnum import *
from .identities import *
from .probnum import *

__version__ = "0.1.0"

# Reached through __getattr__ below, so that numpy loads only when a
# stochastic name is first used; tests/test_exports.py ties this list to
# the functions and classes of stochastic.__all__.
_STOCHASTIC = (
    "RandomStream", "MomentEntry", "MomentReport", "sech_cdf", "sample_sech",
    "sample_mu", "mc_euler_poly", "mc_gen_euler", "mc_klebanov",
)

# Each module's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *eulerpoly.__all__,
    *exactnum.__all__,
    *identities.__all__,
    *probnum.__all__,
    *_STOCHASTIC,
]


def __getattr__(name: str):
    if name in _STOCHASTIC:
        from . import stochastic

        return getattr(stochastic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
