"""Tests for the series, Euler product, rational form, and separability verdicts."""

import math
import sys

import numpy as np
import pytest

from refimpl import (
    cycle_index,
    exact_zeta,
    partition_multiplicities,
    random_unitary,
    series_coeffs_generator,
)
from rhozeta.errors import (
    AtSingularity,
    IncompletePrimes,
    InsufficientPowerSums,
    NonRealCoefficient,
)
from rhozeta.graph import PRIME_LENGTH_CAP, PrimeClasses, enumerate_primes, graph_from_density
from rhozeta.linalg import (
    MAX_DIM,
    ZERO_TOL,
    partial_trace,
    random_density,
    trace_powers,
    validate_density,
)
from rhozeta.quantum import BUILTIN_STATES, builtin_state
from rhozeta.zeta import (
    _IMAG_TOL,
    MULTIPLICITY_RTOL,
    _newton_coeffs,
    euler_product_coeffs,
    is_separable_by_coeffs,
    is_separable_by_singularity,
    series_coeffs,
    singularities,
    zeta_eval,
    zeta_values,
)

PLUS = validate_density(np.array([[1, 1], [1, 1]]) / 2)
MAXMIXED2 = validate_density(np.eye(2) / 2)
SIGMA = validate_density(np.diag([1 / 3, 0, 0, 2 / 3]))


def reduced_state(amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    rho = validate_density(np.outer(v, v.conj()))
    return partial_trace(rho, (2, v.size // 2), keep="B")


W_REDUCED = reduced_state(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
GHZ_REDUCED = reduced_state(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))


# -- series_coeffs ---------------------------------------------------------------

def test_series_pure_state_is_all_ones():
    series = series_coeffs([1.0] * 12, 12)
    assert np.allclose(series.coeffs, 1.0, atol=1e-12)


def test_series_maximally_mixed_n2():
    series = series_coeffs(trace_powers(MAXMIXED2, 2), 2)
    assert series[2] == 0.75


def test_series_order_zero():
    assert series_coeffs([], 0).coeffs == (1.0,)


def test_series_needs_enough_power_sums():
    with pytest.raises(InsufficientPowerSums):
        series_coeffs([1.0, 0.5], 3)


@pytest.mark.parametrize("call,message", [
    (lambda: series_coeffs([], -1), "order must be nonnegative"),
    (lambda: euler_product_coeffs(enumerate_primes(graph_from_density(PLUS), 2), -1), "order must be nonnegative"),
    (lambda: is_separable_by_coeffs(PLUS, 1), "order must be at least 2"),
], ids=["series", "euler", "verdict"])
def test_orders_out_of_range_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_series_coefficients_stay_in_unit_interval():
    for seed in range(12):
        rho = random_density(2 + seed % 3, seed)
        series = series_coeffs(trace_powers(rho, 8), 8)
        for c in series.coeffs:
            assert -1e-9 <= c <= 1.0 + 1e-9


def test_series_matches_generator_form_bit_for_bit():
    cases = [trace_powers(builtin_state(name, p=0.3, dim=5, seed=2), 64)
             for name in sorted(BUILTIN_STATES)]
    rng = np.random.default_rng(11)
    for _ in range(200):
        length = int(rng.integers(0, 65))
        scale = 10.0 ** rng.uniform(-3, 3)
        cases.append(tuple(scale * rng.standard_normal(length)))
    # equal as values, apart in a zero's sign: each must give its own bits
    cases += [(0.0, 1.0), (-0.0, 1.0)]

    def check(p, order):
        got = [c.hex() for c in series_coeffs(p, order).coeffs]
        assert got == [c.hex() for c in series_coeffs_generator(p, order)], (p, order)

    # A, B, A: a memo that hands one key's coefficients to another fails
    for a, b in zip(cases, cases[1:]):
        for p in (a, b, a):
            check(p, len(p))
    for p in cases:
        check(p, len(p) // 2)


@pytest.mark.parametrize("name", ["plus", "bell-reduced", "w-reduced"])
def test_verdicts_reuse_the_memos_of_their_routes(name):
    rho = builtin_state(name)
    series = series_coeffs(trace_powers(rho, 64), 64)
    before = _newton_coeffs.cache_info(), trace_powers.cache_info()
    verdict = is_separable_by_coeffs(rho, 64)
    after = _newton_coeffs.cache_info(), trace_powers.cache_info()
    for b, a in zip(before, after):
        assert (a.hits, a.misses) == (b.hits + 1, b.misses)
    if verdict.separable:
        assert all(abs(c - 1.0) <= 1e-6 for c in series.coeffs)
    else:
        assert verdict.value.hex() == series[verdict.failing_n].hex()

    is_separable_by_singularity(rho)
    misses = singularities.cache_info().misses
    assert singularities(rho) is singularities(rho)
    assert singularities.cache_info().misses == misses

    # a state's partial trace is another state, with its own rational form
    joint = validate_density(np.kron(rho.matrix, np.eye(2) / 2))
    reduced = partial_trace(joint, (rho.dim, 2), keep="A")
    for state in (joint, reduced, joint):
        expected = state.eigenvalues[state.eigenvalues > ZERO_TOL].tolist()
        assert singularities(state).eigenvalues == tuple(expected)


# -- cycle_index -------------------------------------------------------------------

def test_cycle_index_two_copies():
    assert cycle_index(2, (1.0, 0.5)) == 0.75


def test_cycle_index_all_ones():
    assert abs(cycle_index(3, (1.0, 1.0, 1.0)) - 1.0) < 1e-12


def test_cycle_index_three_copies_maximally_mixed():
    # 0.5 equals the brute-force projector trace for I/2 with three copies
    # (see test_quantum.test_acceptance_maximally_mixed_three_copies)
    assert abs(cycle_index(3, (1.0, 0.5, 0.25)) - 0.5) < 1e-12


def test_partition_multiplicities_census():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for k, expected in enumerate(counts):
        parts = list(partition_multiplicities(k))
        assert len(parts) == expected
        for mult in parts:
            assert sum((j + 1) * a for j, a in enumerate(mult)) == k


# -- euler_product_coeffs ------------------------------------------------------------

def test_euler_plus_graph():
    primes = enumerate_primes(graph_from_density(PLUS), 2)
    series = euler_product_coeffs(primes, 2)
    assert np.allclose(series.coeffs, [1.0, 1.0, 1.0], atol=1e-12)


def test_euler_maximally_mixed():
    primes = enumerate_primes(graph_from_density(MAXMIXED2), 2)
    assert euler_product_coeffs(primes, 2).coeffs == (1.0, 1.0, 0.75)


def classes_of_length(nu, words, norms, length):
    """PrimeClasses complete up to length, holding only the given classes, all of length nu."""
    words = [np.array(words if k == nu else [], dtype=np.uint8).reshape(-1, k) for k in range(1, length + 1)]
    norms = [np.array(norms if k == nu else [], dtype=complex) for k in range(1, length + 1)]
    return PrimeClasses(words, norms)


def test_euler_empty_graph():
    empty = classes_of_length(1, [], [], 3)
    assert euler_product_coeffs(empty, 3).coeffs == (1.0, 0.0, 0.0, 0.0)


def test_euler_single_prime_strides_exactly():
    # 1/(1 - 0.5 u^3) to order 7; a descending or wrongly strided loop
    # puts mass elsewhere or misses the 0.25 at u^6
    triangle = classes_of_length(3, [[1, 2, 3]], [0.5 + 0j], 7)
    assert list(triangle)[0].word == (1, 2, 3)
    assert euler_product_coeffs(triangle, 7).coeffs == (1, 0, 0, 0.5, 0, 0, 0.25, 0)


def test_euler_rejects_order_beyond_cap():
    # classes enumerated to the cap say nothing of the next length
    cap = PRIME_LENGTH_CAP
    primes = enumerate_primes(graph_from_density(MAXMIXED2), cap)
    assert euler_product_coeffs(primes, cap).coeffs[cap] > 0
    with pytest.raises(IncompletePrimes, match=f"order {cap + 1} exceeds the length {cap}"):
        euler_product_coeffs(primes, cap + 1)


def test_euler_rejects_order_beyond_enumerated_length():
    # classes enumerated to L = 4 say nothing of lengths 5..8; counting them
    # as empty gave c_5 = 0.271562 where the series gives 0.293455
    primes = enumerate_primes(graph_from_density(random_density(3, 1)), 4)
    assert euler_product_coeffs(primes, 4).coeffs[4] > 0
    with pytest.raises(IncompletePrimes, match="order 8 exceeds the length 4"):
        euler_product_coeffs(primes, 8)


def test_euler_rejects_imaginary_residue():
    lone = classes_of_length(1, [[1]], [1j], 2)
    assert list(lone)[0].word == (1,)
    with pytest.raises(NonRealCoefficient):
        euler_product_coeffs(lone, 2)


def test_euler_imaginary_residue_bound_sits_at_its_tolerance():
    # one loop class of norm 0.5 + e*1j gives c_n = norm^n, whose largest
    # imaginary part is e (at n = 1 and 2): half the tolerance passes and
    # twice it is refused, so a bound ten times looser or tighter fails one
    residue = _IMAG_TOL
    inside = classes_of_length(1, [[1]], [0.5 + 0.5j * residue], 4)
    assert euler_product_coeffs(inside, 4).coeffs == (1.0, 0.5, 0.25, 0.125, 0.0625)
    outside = classes_of_length(1, [[1]], [0.5 + 2j * residue], 4)
    with pytest.raises(NonRealCoefficient, match=f"imaginary residue {2 * residue:.3e} exceeds"):
        euler_product_coeffs(outside, 4)


# -- zeta_eval ----------------------------------------------------------------------

def test_zeta_at_zero_is_one():
    for rho in (PLUS, MAXMIXED2, SIGMA):
        assert zeta_eval(singularities(rho), 0.0) == 1.0


def test_zeta_pure_state_pole_structure():
    value = zeta_eval(singularities(PLUS), 0.5)
    assert abs(value - 2.0) < 1e-12


@pytest.mark.parametrize("u", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_zeta_eval_rejects_non_finite_u(u):
    with pytest.raises(ValueError, match="not finite"):
        zeta_eval(singularities(PLUS), u)


def test_zeta_eval_rejects_non_real_u():
    # every pole lies on the real axis, so zeta_eval takes a real u only;
    # numpy's complex scalars are refused too, not cut to their real part
    rational = singularities(W_REDUCED)
    for u in (0.5 + 0.1j, complex(0.5, math.inf), np.complex128(0.5), np.complex64(0.5 + 0.1j)):
        with pytest.raises(ValueError, match="not real"):
            zeta_eval(rational, u)
    for u in (-2.5, 0.0, 0.7, 2.2, 40.0):
        assert zeta_eval(rational, np.float64(u)) == zeta_eval(rational, u)


def test_zeta_at_singularity_raises():
    with pytest.raises(AtSingularity):
        zeta_eval(singularities(GHZ_REDUCED), 2.0)


def test_zeta_has_no_zeros_on_grid():
    for rho in (PLUS, MAXMIXED2, SIGMA, W_REDUCED):
        rational = singularities(rho)
        locations = [u for u, _ in rational.singularities]
        for u in np.linspace(-3.0, 5.0, 161).tolist():
            if min(abs(u - loc) for loc in locations) < 1e-3:
                continue
            assert abs(zeta_eval(rational, u)) > 0.0


# -- singularities --------------------------------------------------------------------

def test_sigma_cubed_singularities():
    s3 = validate_density(np.kron(np.kron(SIGMA.matrix, SIGMA.matrix), SIGMA.matrix))
    rational = singularities(s3)
    locations = [u for u, _ in rational.singularities]
    mults = [m for _, m in rational.singularities]
    assert np.allclose(locations, [27 / 8, 27 / 4, 27 / 2, 27.0], atol=1e-6)
    assert mults == [1, 3, 3, 1]


def test_ghz_reduction_double_pole():
    rational = singularities(GHZ_REDUCED)
    assert len(rational.singularities) == 1
    u, mult = rational.singularities[0]
    assert abs(u - 2.0) < 1e-8
    assert mult == 2


def test_isotropic_extremes():
    from rhozeta.quantum import isotropic_state

    rational = singularities(isotropic_state(1.0))
    assert len(rational.singularities) == 1
    assert abs(rational.singularities[0][0] - 4.0) < 1e-8
    assert rational.singularities[0][1] == 4
    rational = singularities(isotropic_state(0.0))
    assert len(rational.singularities) == 1
    assert abs(rational.singularities[0][0] - 1.0) < 1e-8


def test_singularity_eigenvalue_bijection():
    for seed in range(10):
        rho = random_density(2 + seed % 4, 50 + seed)
        rational = singularities(rho)
        rank = int(np.sum(rho.eigenvalues > ZERO_TOL))
        assert sum(mult for _, mult in rational.singularities) == rank
        expanded = []
        for u, mult in rational.singularities:
            expanded.extend([1.0 / u] * mult)
        oracle = sorted(np.linalg.eigvalsh(rho.matrix), reverse=True)[: len(expanded)]
        assert np.allclose(sorted(expanded, reverse=True), oracle, atol=1e-8)


@pytest.mark.parametrize("spacing, n_groups", [(1e-9, 19), (4e-9, 67), (9e-9, 100)])
def test_pole_groups_stay_within_their_tolerance(spacing, n_groups):
    # 200 poles at one relative spacing.  A group is its first pole plus every
    # pole within MULTIPLICITY_RTOL of it, so none spans more (merging against
    # a running mean let a group span 1.9e-8 at a spacing of 1e-9).  Ten
    # spacings of 1e-9 sit on the tolerance, and the rounding puts them inside
    recips = [1 + i * spacing for i in range(200)]
    total = math.fsum(1 / r for r in recips)
    rational = singularities(validate_density(np.diag([1 / (r * total) for r in recips])))
    poles = [1.0 / lam for lam in reversed(rational.eigenvalues)]
    start = 0
    for location, mult in rational.singularities:
        group = poles[start:start + mult]
        start += mult
        assert location == group[0]
        assert group[-1] - group[0] <= MULTIPLICITY_RTOL * group[0]
        assert start == len(poles) or poles[start] - group[0] > MULTIPLICITY_RTOL * group[0]
    assert start == 200
    assert len(rational.singularities) == n_groups


def test_denominator_matches_eigenvalue_product():
    # between the first 8 poles of random states, against the exact product
    # over numpy's eigenvalues
    for dim in (2, 8, 16, 32, 64, 128):
        for seed in (1, 2, 3):
            rho = random_density(dim, seed)
            rational = singularities(rho)
            lams = np.linalg.eigvalsh(rho.matrix)
            poles = sorted(1.0 / lams)[:8]
            for left, right in zip(poles, poles[1:]):
                for frac in (0.2, 0.5, 0.8):
                    u = left + frac * (right - left)
                    expected = exact_zeta(lams.tolist(), u)
                    value = zeta_eval(rational, u)
                    assert value.imag == 0.0
                    assert abs(value - expected) <= 1e-10 * abs(expected), (dim, seed, u)


def test_zeta_beyond_float_range_is_singular():
    rational = singularities(validate_density(np.eye(64) / 64))
    # 64 + 2e-6 is outside the 1e-6 pole distance, but (1 - u/64)^-64 ~ e^1106;
    # at 64 * (1 - 2^-16.1) every factor is 2^-16.1 and |zeta| ~ 2^1030
    for u in (64 + 2e-6, 64 * (1 - 2 ** -16.1)):
        with pytest.raises(AtSingularity, match="exceeds the float range"):
            zeta_eval(rational, u)


def test_zeta_eval_where_u_lam_overflows_matches_closed_form():
    # for lam > 1, u*lam overflowed at u = +-float max and the value came out
    # nan
    big = sys.float_info.max
    above_one = singularities(validate_density(np.diag([1.0000000001, -1e-10])))
    plus = singularities(builtin_state("plus"))
    for rational in (above_one, plus):
        for u in (big, -big):
            value = zeta_eval(rational, u)
            expected = exact_zeta(rational.eigenvalues, u)
            assert abs(value - expected) <= 1e-12 * abs(expected), (rational, u, value)


def test_zeta_eval_either_side_of_the_product_range_matches_closed_form():
    # the 64 equal factors multiply to 2^-992, 2^-1011.2, about e^680 and
    # about e^700: the first and third inside the running product's range
    # [2^-1000, 2^1000], the second and fourth outside it
    rational = singularities(validate_density(np.eye(64) / 64))
    points = [
        (64 * (1 - 2 ** -15.5), 992.0),
        (64 * (1 - 2 ** -15.8), 1011.2),
        (-64 * math.expm1(680 / 64), -680 / math.log(2)),
        (-64 * math.expm1(700 / 64), -700 / math.log(2)),
    ]
    for u, log2_size in points:
        value = zeta_eval(rational, u)
        expected = exact_zeta(rational.eigenvalues, u)
        assert abs(math.log2(abs(value)) - log2_size) < 1e-6, u
        assert abs(value - expected) <= 1e-12 * abs(expected), (u, value, expected)


def test_zeta_eval_partial_products_stay_normal():
    # 30 factors of 3 * 2^-37 and 3 of about 2^28.4: taken in ascending order
    # of lam the partial product falls to 2^-1062, below the normal floats,
    # before the large factors lift it to 2^-977
    small = 2.0 ** -30
    rational = singularities(validate_density(np.diag([small] * 30 + [(1 - 30 * small) / 3] * 3)))
    u = (1 - 3 * 2.0 ** -37) / small
    value = zeta_eval(rational, u)
    expected = exact_zeta(rational.eigenvalues, u)
    assert abs(value - expected) <= 1e-12 * abs(expected), (value, expected)


def test_zeta_eval_on_the_real_axis_has_a_positive_zero_imaginary_part():
    # where a complex product of the factors is negative, 1/z alone has a
    # -0.0 imaginary part
    negative = 0
    for dim in range(1, 17):
        rational = singularities(random_density(dim, 40 + dim))
        poles = [u for u, _ in rational.singularities]
        for u in np.linspace(-poles[0], 1.5 * poles[min(3, len(poles) - 1)], 201).tolist():
            try:
                value = zeta_eval(rational, u)
            except AtSingularity:
                continue
            negative += value.real < 0
            assert type(value) is complex
            assert math.copysign(1.0, value.imag) == 1.0, (dim, u, value)
    assert negative > 0


def test_zeta_eval_on_the_real_axis_is_the_float_product():
    # off the poles and inside [2^-1000, 2^1000], a real u gives the
    # reciprocal of the float product of 1 - u*lam in descending lam, bit
    # for bit
    checked = 0
    for dim in range(1, 65):
        rational = singularities(random_density(dim, 70 + dim))
        descending = rational.eigenvalues[::-1]
        poles = [u for u, _ in rational.singularities]
        for u in np.linspace(-2 * poles[0], 1.5 * poles[min(3, len(poles) - 1)], 41).tolist():
            factors = [1 - u * lam for lam in descending]
            product = math.prod(factors)
            if any(abs(f) <= 1e-6 * lam for f, lam in zip(factors, descending)):
                continue
            if not 2.0 ** -1000 <= abs(product) <= 2.0 ** 1000:
                continue
            value = zeta_eval(rational, u)
            expected = 1 / product + 0j
            assert (value.real.hex(), value.imag.hex()) == (expected.real.hex(), expected.imag.hex()), (dim, u)
            checked += 1
    assert checked > 2000


def test_zeta_eval_is_zeta_values_bit_for_bit():
    # the scaled product gives zeta_eval's float at every point, in its float
    # product's range and out of it, and zeta_eval raises AtSingularity
    # exactly where zeta_values is not finite: at a pole or past the float
    # range
    big = sys.float_info.max
    cases = []
    for dim in range(1, 65):
        rational = singularities(random_density(dim, 70 + dim))
        poles = [u for u, _ in rational.singularities]
        cases.append((rational, np.linspace(-2 * poles[0], 1.5 * poles[min(3, len(poles) - 1)], 41)))
        cases.append((rational, np.linspace(-1e6, 1e6, 41)))
    flat = singularities(validate_density(np.eye(64) / 64))
    cases.append((flat, np.array([64 + 2e-6, 64 * (1 - 2 ** -16.1), *np.linspace(64 - 3e-6, 64 + 3e-6, 7)])))
    cases.append((singularities(validate_density(np.diag([1.0000000001, -1e-10]))), np.array([big, -big])))
    finite = refused = 0
    for rational, grid in cases:
        for u, value in zip(grid.tolist(), zeta_values(rational, grid).tolist()):
            if math.isfinite(value):
                assert zeta_eval(rational, u).real.hex() == value.hex(), (rational, u)
                finite += 1
            else:
                with pytest.raises(AtSingularity):
                    zeta_eval(rational, u)
                refused += 1
    assert finite > 5000 and refused >= 6


def test_zeta_values_where_the_float_product_leaves_its_range_matches_closed_form():
    # where the running float product leaves [2^-1000, 2^1000], the scaled
    # product is within 1e-13 of the exact value, relative, or of the least
    # normal float below it (a log-magnitude sum in its place reached 3.2e-13).
    # Each random state is taken where |zeta| is 2^-1002, 2^-1011 and
    # 2^-1020, at u < 0 and past its last pole, found by bisection in log2|u|
    big = sys.float_info.max
    cases = [
        (singularities(validate_density(np.eye(64) / 64)), [64 * (1 - 2 ** -15.8), -64 * math.expm1(700 / 64)]),
        (singularities(validate_density(np.diag([1.0000000001, -1e-10]))), [big, -big]),
    ]
    for dim in range(1, 65, 3):
        rational = singularities(random_density(dim, 70 + dim))
        grid = np.linspace(-1e6, 1e6, 41).tolist()
        for sign, start in ((-1, -10.0), (1, math.log2(2 / rational.eigenvalues[0]))):
            for target in (1002, 1011, 1020):
                lo, hi = start, 1023.0
                for _ in range(60):
                    mid = (lo + hi) / 2
                    size = math.fsum(math.log2(abs(1 - sign * 2 ** mid * lam)) for lam in rational.eigenvalues)
                    lo, hi = (mid, hi) if size < target else (lo, mid)
                grid.append(sign * 2 ** lo)
        cases.append((rational, grid))
    normal = 0
    for rational, grid in cases:
        descending = rational.eigenvalues[::-1]
        for u, value in zip(grid, zeta_values(rational, grid).tolist()):
            if 2.0 ** -1000 <= abs(math.prod(1 - u * lam for lam in descending)) <= 2.0 ** 1000:
                continue
            try:
                expected = exact_zeta(rational.eigenvalues, u)
            except OverflowError:
                assert value in (math.inf, -math.inf)
                continue
            assert abs(value - expected) <= 1e-13 * max(abs(expected), sys.float_info.min), (rational, u, value, expected)
            normal += abs(expected) >= sys.float_info.min
    assert normal > 100


# -- thresholds: an input at half and one at twice each ----------------------------------
# the inputs are literals, so a bound ten times looser or tighter, or its
# constant changed, fails one of each pair

@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_zero_tol_sits_at_its_threshold(scale):
    # an off-diagonal entry of half ZERO_TOL (1e-12) makes no edge, and an
    # eigenvalue of half it no pole; at twice it, each does
    x = scale * 1e-12
    g = graph_from_density(validate_density(np.array([[0.5, x], [x, 0.5]])))
    assert g.n_edges == (2 if scale < 1 else 4)
    rational = singularities(validate_density(np.diag([1 - x, x])))
    assert len(rational.singularities) == (1 if scale < 1 else 2)


def test_singularity_tol_sits_at_its_threshold():
    # half SINGULARITY_TOL (1e-6) from the pole at 2 is the pole, to
    # zeta_eval and zeta_values alike; twice it from the pole, both give the value
    rational = singularities(validate_density(np.diag([0.5, 0.499, 0.001])))
    near = 2 + 0.5e-6
    with pytest.raises(AtSingularity, match="of the pole at 2.0$"):
        zeta_eval(rational, near)
    assert math.isnan(zeta_values(rational, [near])[0])
    off = 2 + 2e-6
    value = zeta_eval(rational, off)
    assert value.real == pytest.approx(-5.0125e8, rel=1e-4)
    assert zeta_values(rational, [off])[0] == value.real


@pytest.mark.parametrize("scale, mults", [(0.5, [2, 1]), (2.0, [1, 1, 1])])
def test_multiplicity_rtol_sits_at_its_threshold(scale, mults):
    # poles at 2.5 and at scale * MULTIPLICITY_RTOL (1e-8) * 2.5 past it, and one near 5
    near = 0.4 / (1 + scale * 1e-8)
    rational = singularities(validate_density(np.diag([0.4, near, 0.6 - near])))
    assert rational.singularities[0][0] == 2.5
    assert [mult for _, mult in rational.singularities] == mults


# -- separability verdicts --------------------------------------------------------------

def test_bell_reduction_entangled_by_coeffs():
    verdict = is_separable_by_coeffs(MAXMIXED2, 2, pure_bipartite=True)
    assert not verdict.separable
    assert verdict.failing_n == 2
    assert abs(verdict.value - 0.75) < 1e-12
    assert not verdict.caveat


def test_plus_separable_by_coeffs():
    verdict = is_separable_by_coeffs(PLUS, 12, pure_bipartite=True)
    assert verdict.separable


def test_w_reduction_entangled_by_coeffs():
    verdict = is_separable_by_coeffs(W_REDUCED, 4, pure_bipartite=True)
    assert not verdict.separable
    assert verdict.failing_n == 2
    # purity of the reduction is 5/9 (eigenvalues 1/3 and 2/3), so the
    # offending coefficient is c_2 = (1 + 5/9)/2
    assert abs(trace_powers(W_REDUCED, 2)[1] - 5 / 9) < 1e-9
    assert abs(verdict.value - 7 / 9) < 1e-9


def test_plus_separable_by_singularity():
    assert is_separable_by_singularity(PLUS, pure_bipartite=True).separable


def test_w_reduction_entangled_by_singularity():
    verdict = is_separable_by_singularity(W_REDUCED, pure_bipartite=True)
    assert not verdict.separable
    locations = [u for u, _ in singularities(W_REDUCED).singularities]
    assert np.allclose(locations, [1.5, 3.0], atol=1e-9)


def test_ghz_reduction_entangled_by_singularity():
    verdict = is_separable_by_singularity(GHZ_REDUCED, pure_bipartite=True)
    assert not verdict.separable
    assert abs(verdict.value - 2.0) < 1e-8


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf, 1.0])
def test_verdicts_reject_bad_tolerance(tol):
    # with tol = NaN every comparison is false, and with tol >= 1 every
    # |c_n - 1| <= 1 holds: either way the Bell reduction would pass
    message = "^tol must be finite and positive, below 1$"
    with pytest.raises(ValueError, match=message):
        is_separable_by_coeffs(MAXMIXED2, 2, tol)
    with pytest.raises(ValueError, match=message):
        is_separable_by_singularity(MAXMIXED2, tol)


def test_caveat_flag_tracks_provenance():
    assert is_separable_by_coeffs(SIGMA, 2).caveat
    assert not is_separable_by_coeffs(SIGMA, 2, pure_bipartite=True).caveat
    assert is_separable_by_singularity(SIGMA).caveat


def test_one_dimensional_state_needs_no_special_case():
    rho = validate_density(np.array([[1.0]]))
    assert series_coeffs(trace_powers(rho, 6), 6).coeffs == (1.0,) * 7
    primes = enumerate_primes(graph_from_density(rho), 6)
    assert np.allclose(euler_product_coeffs(primes, 6).coeffs, 1.0, atol=1e-12)
    rational = singularities(rho)
    assert rational.singularities == ((1.0, 1),)
    assert is_separable_by_coeffs(rho, 2, pure_bipartite=True).separable


# -- cross-route properties ---------------------------------------------------------------

def test_three_routes_agree_on_random_states():
    for seed in range(6):
        rho = random_density(2 + seed % 3, 200 + seed)
        p = trace_powers(rho, 6)
        newton = series_coeffs(p, 6)
        euler = euler_product_coeffs(enumerate_primes(graph_from_density(rho), 6), 6)
        for n in range(7):
            partition_sum = cycle_index(n, p[:n])
            assert abs(newton[n] - euler[n]) < 1e-8
            assert abs(newton[n] - partition_sum) < 1e-8


def test_euler_route_runs_at_the_largest_dim():
    """A dense state at linalg.MAX_DIM has 131,328 classes up to length 2,
    and the search builds one row for each, so the Euler route gives c_1
    and c_2 at every dim the CLI accepts."""
    rho = random_density(MAX_DIM, 0)
    primes = enumerate_primes(graph_from_density(rho), 2)
    assert len(primes) == 131_328
    euler = euler_product_coeffs(primes, 2)
    newton = series_coeffs(trace_powers(rho, 2), 2)
    for n in range(3):
        assert abs(newton[n] - euler[n]) < 1e-12, n


def test_basis_invariance_of_coefficients():
    for seed in range(5):
        rho = random_density(3, 300 + seed)
        u = random_unitary(3, 400 + seed)
        rotated = validate_density(u @ rho.matrix @ u.conj().T)
        a = series_coeffs(trace_powers(rho, 6), 6)
        b = series_coeffs(trace_powers(rotated, 6), 6)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-8)


def test_purity_link():
    for seed in range(8):
        rho = random_density(2 + seed % 3, 500 + seed)
        p = trace_powers(rho, 2)
        c = series_coeffs(p, 2)
        assert abs(c[2] - (1 + p[1]) / 2) < 1e-12
    c_pure = series_coeffs(trace_powers(PLUS, 2), 2)
    assert abs(c_pure[2] - 1.0) < 1e-12
