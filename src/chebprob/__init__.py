"""chebprob: exact probability numbers of reciprocal Chebyshev series,
Euler polynomial identities, and seeded Monte Carlo verification.

The probability numbers p_ell are the power-series coefficients of
1/T_N(1/z), where T_N is the first-kind Chebyshev polynomial; they form the
law of a random index mu_N supported on {N, N+2, ...}.  The package computes
them by three independent algorithms (exact series reciprocal, root-angle
trigonometry, a count of a walk's exit paths), builds classical and
generalized Euler polynomials by two independent algorithms, and verifies
the identities that tie the two families together, exactly where possible
and statistically where not.  The package namespace is the exact layer.
Import the Monte Carlo layer, ``chebprob.stochastic`` (which loads numpy),
and the test oracles ``chebyshev`` and ``series`` by module name.
"""

from . import eulerpoly, exactnum, identities, probnum
from .eulerpoly import *
from .exactnum import *
from .identities import *
from .probnum import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *eulerpoly.__all__,
    *exactnum.__all__,
    *identities.__all__,
    *probnum.__all__,
]
