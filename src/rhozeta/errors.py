"""Exception types shared across the package.

Every failure mode raised by the library derives from RhoZetaError, so
callers (notably the CLI) can distinguish validation problems from bugs.
"""


class RhoZetaError(Exception):
    """Base class for all rhozeta errors."""


# -- linear algebra ---------------------------------------------------------

class DimensionMismatch(RhoZetaError):
    """Matrix or subsystem dimensions are inconsistent."""


class NotHermitian(RhoZetaError):
    """Matrix fails the Hermiticity check."""


class NotUnitTrace(RhoZetaError):
    """Matrix trace differs from one."""


class NotPSD(RhoZetaError):
    """Matrix has an eigenvalue below the negative tolerance."""


# -- graphs ------------------------------------------------------------------

class AllLoops(RhoZetaError):
    """Weighted graph consists only of loops, so its Laplacian vanishes."""


class CapExceeded(RhoZetaError):
    """Requested size is beyond a hard resource cap."""


# -- zeta functions ----------------------------------------------------------

class InsufficientPowerSums(RhoZetaError):
    """Fewer power sums supplied than series coefficients requested."""


class IncompletePrimes(RhoZetaError):
    """Prime list cannot be complete up to the requested length."""


class NonRealCoefficient(RhoZetaError):
    """Series coefficient has a non-negligible imaginary part."""


class AtSingularity(RhoZetaError):
    """Zeta function evaluated at (or too close to) a singularity."""


# -- states ------------------------------------------------------------------

class InvalidParameter(RhoZetaError):
    """State constructor received an out-of-range or unknown parameter."""
