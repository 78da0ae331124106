"""The zeta function of a density matrix, by three routes.

The function is 1/det(I - u*rho): a power series whose n-th coefficient is
the symmetric-group cycle index evaluated at the trace power sums of rho
(equivalently, the acceptance probability of the n-copy symmetry test),
a rational function whose poles sit at reciprocals of the nonzero
eigenvalues, and an Euler product over the prime classes of the weighted
graph of rho.  The three routes cross-check each other; agreement is the
core correctness property of the package.
"""

import sys
from dataclasses import dataclass
from math import exp, inf, isfinite, log
from operator import mul

import numpy as np

from .errors import (
    AtSingularity,
    IncompletePrimes,
    InsufficientPowerSums,
    NonRealCoefficient,
)
from .graph import PRIME_LENGTH_CAP, PrimeClasses, complex_product
from .linalg import ZERO_EIGENVALUE_TOL, DensityMatrix, trace_powers

#: Relative tolerance for merging reciprocal-eigenvalue singularities.
MULTIPLICITY_RTOL = 1e-8

#: Default tolerance for separability verdicts.
DEFAULT_SEPARABILITY_TOL = 1e-6

#: Distance in u within which zeta_eval reports a pole instead of a value.
SINGULARITY_TOL = 1e-6

_IMAG_TOL = 1e-9
_LOG_FLOAT_MAX = log(sys.float_info.max)


@dataclass(frozen=True)
class ZetaSeries:
    """Truncated power-series expansion; coeffs[n] is the u^n coefficient."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1.0:
            raise ValueError("series must start with constant coefficient 1")

    def __getitem__(self, n):
        return self.coeffs[n]


@dataclass(frozen=True)
class ZetaRational:
    """Rational form 1/det(I - u*rho) = 1/prod(1 - u*lam) over the eigenvalues.

    eigenvalues holds the eigenvalues above the zero threshold, ascending;
    singularities is an ascending list of (location, multiplicity) pairs,
    one location per group of reciprocal eigenvalues.
    """

    eigenvalues: tuple
    singularities: tuple = ()


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of a pure-bipartite separability test.

    For an entangled verdict by the coefficient route, failing_n and value
    report the first coefficient away from one; by the singularity route,
    value reports the offending singularity location.  caveat is set when
    the caller did not assert pure-bipartite provenance (the criteria do
    not apply to general mixed joint states).
    """

    separable: bool
    method: str
    failing_n: int = None
    value: float = None
    caveat: bool = True

    def __str__(self):
        note = " (caveat: pure-bipartite provenance not asserted)" if self.caveat else ""
        if self.separable:
            return f"separable by {self.method}{note}"
        if self.method == "coefficients":
            return f"entangled by {self.method}: n={self.failing_n}, c_n={self.value!r}{note}"
        return f"entangled by {self.method}: u={self.value!r}{note}"


def _newton_coeffs(p):
    """Yield c_1, c_2, ..., c_len(p) from the power sums p, a sequence of floats.

    c_0 = 1 and c_n = (1/n) * sum_{m=1..n} p_m c_{n-m}.  The sum pairs p
    with the coefficients so far in reverse and adds the products in order
    of m with the builtin sum, so each c_n is the same float whatever the
    length of p, and a consumer that stops early has paid only for the
    coefficients it read.
    """
    c = [1.0]
    for n in range(1, len(p) + 1):
        c.append(sum(map(mul, p, reversed(c))) / n)
        yield c[n]


def series_coeffs(power_sums, order: int) -> ZetaSeries:
    """Series coefficients from power sums by the Newton-type recurrence.

    c_0 = 1 and c_n = (1/n) * sum_{m=1..n} p_m c_{n-m}, which is the
    expansion of exp(sum_m p_m u^m / m) and, term for term, the cycle
    index of the symmetric group at x_m = p_m.  The recurrence is the one
    in _newton_coeffs, which is_separable_by_coeffs also reads.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    p = [float(v) for v in power_sums]
    if len(p) < order:
        raise InsufficientPowerSums(f"need {order} power sums, got {len(p)}")
    return ZetaSeries((1.0, *_newton_coeffs(p[:order])))


def euler_product_coeffs(primes: PrimeClasses, order: int) -> ZetaSeries:
    """Expand the Euler product over prime classes as a truncated series.

    Each class multiplies the series by 1/(1 - norm * u^nu), applied in
    place as the ascending recurrence c[a] += norm * c[a - nu] for
    a = nu..order, class by class in (nu, rep) order; classes longer than
    the order leave it unchanged.  Lengths with 2*nu <= order run that loop
    on Python complex numbers.  For 2*nu > order every index read,
    a - nu, lies below nu, where no class of that length writes, so each
    c[a] is its start value plus one product per class.  Those products are
    formed at once with complex_product, which rounds as Python's complex
    multiply, and added with np.add.accumulate, which sums left to right as
    the loop does; so the result is the loop's, bit for bit.  The route
    shares no code with series_coeffs.  The classes must be complete up to
    the order, so it may exceed neither the enumeration cap nor the length
    the classes were enumerated to.
    Coefficients must come out real (imaginary residue below 1e-9), and the
    imaginary parts are dropped after the check.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > PRIME_LENGTH_CAP:
        raise IncompletePrimes(
            f"order {order} exceeds the prime enumeration cap {PRIME_LENGTH_CAP}"
        )
    if order > len(primes.norms):
        raise IncompletePrimes(
            f"order {order} exceeds the length {len(primes.norms)} the primes were enumerated to"
        )
    coeffs = [0j] * (order + 1)
    coeffs[0] = 1 + 0j
    for nu, norms in enumerate(primes.norms[:order], start=1):
        if 2 * nu <= order:
            for norm in norms.tolist():
                for a in range(nu, order + 1):
                    coeffs[a] += norm * coeffs[a - nu]
            continue
        terms = np.empty((len(norms) + 1, order + 1 - nu), dtype=complex)
        terms[0] = coeffs[nu:]
        terms[1:] = complex_product(norms[:, None], coeffs[:order + 1 - nu])
        total = np.empty(order + 1 - nu, dtype=complex)
        total.real = np.add.accumulate(terms.real)[-1]
        total.imag = np.add.accumulate(terms.imag)[-1]
        coeffs[nu:] = total.tolist()
    worst = max(abs(c.imag) for c in coeffs)
    if worst > _IMAG_TOL:
        raise NonRealCoefficient(f"imaginary residue {worst:.3e} exceeds {_IMAG_TOL:.1e}")
    return ZetaSeries(tuple(c.real for c in coeffs))


def singularities(rho: DensityMatrix) -> ZetaRational:
    """Rational form of the zeta function with its singularity list.

    Keeps the validated eigenvalues above the zero threshold; the
    singularities are their reciprocals, merged into multiplicities when
    they agree within 1e-8 relative, ascending.
    """
    eigenvalues = tuple(float(lam) for lam in rho.eigenvalues if lam > ZERO_EIGENVALUE_TOL)
    locations = sorted(1.0 / lam for lam in eigenvalues)
    groups = []
    for u in locations:
        if groups:
            mean, count = groups[-1]
            if abs(u - mean) <= MULTIPLICITY_RTOL * abs(mean):
                groups[-1] = ((mean * count + u) / (count + 1), count + 1)
                continue
        groups.append((u, 1))
    return ZetaRational(eigenvalues=eigenvalues, singularities=tuple(groups))


def zeta_eval(rational: ZetaRational, u) -> complex:
    """Evaluate 1/prod(1 - u*lam) as a log-magnitude sum times a unit phase.

    A large |u| underflows to zero rather than overflowing.  Raises
    AtSingularity within SINGULARITY_TOL of a pole (|1 - u*lam| is then at
    most SINGULARITY_TOL * lam) and where |zeta| exceeds the float range;
    raises ValueError for a non-finite u.
    """
    u = complex(u)
    if not (isfinite(u.real) and isfinite(u.imag)):
        raise ValueError(f"u={u} is not finite")
    log_mag = 0.0
    phase = 1 + 0j
    for lam in rational.eigenvalues:
        factor = 1 - u * lam
        size = abs(factor)
        if size <= SINGULARITY_TOL * lam:
            raise AtSingularity(f"u={u} lies within {SINGULARITY_TOL:.0e} of the pole at {1 / lam!r}")
        log_mag -= log(size)
        phase *= factor.conjugate() / size
    if log_mag > _LOG_FLOAT_MAX:
        raise AtSingularity(f"|zeta({u})| = exp({log_mag:.1f}) exceeds the float range")
    return phase * exp(log_mag)


def is_separable_by_coeffs(
    rho_b: DensityMatrix,
    order: int,
    tol: float = DEFAULT_SEPARABILITY_TOL,
    pure_bipartite: bool = False,
) -> SeparabilityVerdict:
    """Coefficient criterion: separable iff every series coefficient is one.

    Checks n = 1..order and returns at the first coefficient away from
    one, so the recurrence runs no further than that n; n = 2 alone is
    decisive in exact arithmetic (it measures purity), larger orders serve
    as diagnostics.  rho_b must be the reduced state of a pure bipartite
    state for the verdict to mean separability; pass pure_bipartite=True
    to clear the caveat flag.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if not 0 < tol < inf:
        raise ValueError("tol must be finite and positive")
    for n, c_n in enumerate(_newton_coeffs(trace_powers(rho_b, order)), start=1):
        if abs(c_n - 1.0) > tol:
            return SeparabilityVerdict(
                separable=False,
                method="coefficients",
                failing_n=n,
                value=c_n,
                caveat=not pure_bipartite,
            )
    return SeparabilityVerdict(separable=True, method="coefficients", caveat=not pure_bipartite)


def is_separable_by_singularity(
    rho_b: DensityMatrix,
    tol: float = DEFAULT_SEPARABILITY_TOL,
    pure_bipartite: bool = False,
) -> SeparabilityVerdict:
    """Singularity criterion: separable iff the only pole is u = 1, simple."""
    if not 0 < tol < inf:
        raise ValueError("tol must be finite and positive")
    rational = singularities(rho_b)
    sing = rational.singularities
    if len(sing) == 1 and sing[0][1] == 1 and abs(sing[0][0] - 1.0) <= tol:
        return SeparabilityVerdict(separable=True, method="singularity", caveat=not pure_bipartite)
    offending = next(
        (u for u, mult in sing if abs(u - 1.0) > tol or mult > 1),
        sing[0][0] if sing else None,
    )
    return SeparabilityVerdict(
        separable=False,
        method="singularity",
        value=offending,
        caveat=not pure_bipartite,
    )
