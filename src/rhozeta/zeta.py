"""The zeta function of a density matrix, by three routes.

The function is 1/det(I - u*rho): a power series whose n-th coefficient is
the symmetric-group cycle index evaluated at the trace power sums of rho
(equivalently, the acceptance probability of the n-copy symmetry test),
a rational function whose poles sit at reciprocals of the nonzero
eigenvalues, and an Euler product over the prime classes of the weighted
graph of rho.  The three routes cross-check each other; agreement is the
core correctness property of the package.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from operator import mul

import numpy as np

from .errors import (
    AtSingularity,
    IncompletePrimes,
    InsufficientPowerSums,
    NonRealCoefficient,
)
from .graph import PrimeClasses, complex_product
from .linalg import ZERO_TOL, DensityMatrix, check_tol, trace_powers

#: Relative tolerance for merging reciprocal-eigenvalue singularities.
MULTIPLICITY_RTOL = 1e-8

#: Default tolerance for separability verdicts.
DEFAULT_SEPARABILITY_TOL = 1e-6

#: Distance in u within which zeta_eval reports a pole instead of a value.
SINGULARITY_TOL = 1e-6

_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class ZetaSeries:
    """Truncated power-series expansion; coeffs[n] is the u^n coefficient."""

    coeffs: tuple

    def __getitem__(self, n):
        return self.coeffs[n]


@dataclass(frozen=True)
class ZetaRational:
    """Rational form 1/det(I - u*rho) = 1/prod(1 - u*lam) over the eigenvalues.

    u is real.  eigenvalues holds those above the zero threshold, ascending;
    singularities is an ascending list of (location, multiplicity) pairs, a
    group being its first pole plus every pole within MULTIPLICITY_RTOL of it.
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


@lru_cache(maxsize=1)
def _newton_coeffs(p: tuple) -> tuple:
    """c_1, c_2, ..., c_len(p) from the power sums p, a tuple of floats.

    c_0 = 1 and c_n = (1/n) * sum_{m=1..n} p_m c_{n-m}.  The sum pairs p
    with the coefficients so far in reverse and adds the products in order
    of m with the builtin sum, so each c_n is the same float whatever the
    length of p.  The result is memoized on p, one entry deep, so
    is_separable_by_coeffs after series_coeffs on the same power sums is a
    lookup.  Equal tuples give equal coefficients: the builtin sum starts
    from the integer 0, so the sign of a zero in p never reaches a c_n.
    """
    c = [1.0]
    for n in range(1, len(p) + 1):
        c.append(sum(map(mul, p, reversed(c))) / n)
    return tuple(c[1:])


def series_coeffs(power_sums, order: int) -> ZetaSeries:
    """Series coefficients from power sums by the Newton-type recurrence.

    c_0 = 1 and c_n = (1/n) * sum_{m=1..n} p_m c_{n-m}, which is the
    expansion of exp(sum_m p_m u^m / m) and, term for term, the cycle
    index of the symmetric group at x_m = p_m.  The recurrence is the one
    in _newton_coeffs, memoized there on power_sums[:order] as a tuple of
    floats, one entry deep; is_separable_by_coeffs reads the same memo.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(power_sums) < order:
        raise InsufficientPowerSums(f"need {order} power sums, got {len(power_sums)}")
    return ZetaSeries((1.0, *_newton_coeffs(tuple(map(float, power_sums[:order])))))


def euler_product_coeffs(primes: PrimeClasses, order: int) -> ZetaSeries:
    """Expand the Euler product over prime classes as a truncated series.

    Each class multiplies the series by 1/(1 - norm * u^nu), applied in
    place as the ascending recurrence c[a] += norm * c[a - nu] for
    a = nu..order, class by class in (nu, word) order; classes longer than
    the order leave it unchanged.  Lengths with 2*nu <= order run that loop
    on Python complex numbers.  For 2*nu > order every index read,
    a - nu, lies below nu, where no class of that length writes, so each
    c[a] is its start value plus one product per class.  Those products are
    formed at once with complex_product, which rounds as Python's complex
    multiply, and added with np.add.accumulate, which sums left to right as
    the loop does; so the result is the loop's, bit for bit.  The route
    shares no code with series_coeffs.  The classes must be complete up to
    the order, so it may not exceed the length they were enumerated to.
    Coefficients must come out real (imaginary residue below 1e-9), and the
    imaginary parts are dropped after the check.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
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
        coeffs[nu:] = np.add.accumulate(terms)[-1].tolist()
    worst = max(abs(c.imag) for c in coeffs)
    if worst > _IMAG_TOL:
        raise NonRealCoefficient(f"imaginary residue {worst:.3e} exceeds {_IMAG_TOL:.1e}")
    return ZetaSeries(tuple(c.real for c in coeffs))


@lru_cache(maxsize=1)
def singularities(rho: DensityMatrix) -> ZetaRational:
    """Rational form of the zeta function with its singularity list.

    Keeps the validated eigenvalues above the zero threshold, ascending as
    eigvalsh gives them; the singularities are their reciprocals, taken in
    reverse so they ascend (division is monotone).  A group is its first
    pole, its location, plus every pole within MULTIPLICITY_RTOL of it.
    The result is memoized on the state object, one entry deep (the memo
    keeps that state alive until the next call with another), so a call
    after is_separable_by_singularity on the same state is a lookup.
    """
    eigenvalues = rho.eigenvalues[rho.eigenvalues > ZERO_TOL].tolist()
    groups = []
    for u in [1.0 / lam for lam in reversed(eigenvalues)]:
        if groups and u - groups[-1][0] <= MULTIPLICITY_RTOL * groups[-1][0]:
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((u, 1))
    return ZetaRational(eigenvalues=tuple(eigenvalues), singularities=tuple(groups))


def zeta_values(rational: ZetaRational, grid) -> np.ndarray:
    """1/prod(1 - u*lam) at each finite real u of grid, nan at a pole, inf past the float range.

    One numpy step per eigenvalue, descending, takes the factor's exact half
    h = 0.5 - (0.5*u)*lam, finite where u*lam overflows, into a mantissa and
    a binary exponent that starts at len(eigenvalues) for the halving.
    Power-of-two scaling is exact: where zeta_eval's float product stays
    normal, each step rounds as it does.
    """
    x = np.asarray(grid, dtype=float)
    m = np.ones_like(x)
    exponent = np.full(x.shape, len(rational.eigenvalues))
    with np.errstate(all="ignore"):
        for lam in reversed(rational.eigenvalues):
            h = 0.5 - (0.5 * x) * lam
            h[np.abs(h) <= (0.5 * SINGULARITY_TOL) * lam] = np.nan
            m, e = np.frexp(m * h)
            exponent += e
        return np.ldexp(1 / m, -exponent)


def zeta_eval(rational: ZetaRational, u) -> complex:
    """Evaluate 1/prod(1 - u*lam) at a real u as one running float product z.

    Descending eigenvalues put the factors of modulus at least one first, so
    no partial product is below min(1, |z|).  A pole (|1 - u*lam| <=
    SINGULARITY_TOL * lam), or a value past the float range, raises
    AtSingularity; where |z| leaves [2^-1000, 2^1000], zeta_values gives the
    value.  The imaginary part is +0.0; a complex or non-finite u raises ValueError.
    """
    if isinstance(u, (complex, np.complexfloating)):
        raise ValueError(f"u={u} is not real")
    try:
        x = float(u)
    except OverflowError:  # an int or Fraction past the float range
        raise ValueError("u is not finite as a float") from None
    if not isfinite(x):
        raise ValueError(f"u={x} is not finite")
    z = 1.0
    for lam in reversed(rational.eigenvalues):
        factor = 1 - x * lam
        if abs(factor) <= SINGULARITY_TOL * lam:
            raise AtSingularity(f"u={x} lies within {SINGULARITY_TOL:.0e} of the pole at {1 / lam!r}")
        z *= factor
    if 2.0 ** -1000 <= abs(z) <= 2.0 ** 1000:
        return 1 / z + 0j
    value = complex(zeta_values(rational, [x])[0])
    if not isfinite(value.real):
        raise AtSingularity(f"|zeta({x!r})| exceeds the float range")
    return value


def is_separable_by_coeffs(
    rho_b: DensityMatrix,
    order: int,
    tol: float = DEFAULT_SEPARABILITY_TOL,
    pure_bipartite: bool = False,
) -> SeparabilityVerdict:
    """Coefficient criterion: separable iff every series coefficient is one.

    Checks n = 1..order and reports the first coefficient away from one.
    The coefficients come from _newton_coeffs on trace_powers(rho_b,
    order), so after series_coeffs on those power sums they are a lookup.
    n = 2 alone is decisive in exact arithmetic (it measures purity),
    larger orders serve as diagnostics.  rho_b must be the reduced state
    of a pure bipartite state for the verdict to mean separability; pass
    pure_bipartite=True to clear the caveat flag.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    check_tol(tol)
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
    check_tol(tol)
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
