"""Tests for the series, Euler product, rational form, and separability verdicts."""

import math

import numpy as np
import pytest

from refimpl import cycle_index, partition_multiplicities, random_unitary, series_coeffs_generator
from rhozeta.errors import (
    AtSingularity,
    IncompletePrimes,
    InsufficientPowerSums,
)
from rhozeta.graph import PrimeClasses, enumerate_primes, graph_from_density
from rhozeta.linalg import partial_trace, random_density, trace_powers, validate_density
from rhozeta.quantum import BUILTIN_STATES, builtin_state
from rhozeta.zeta import (
    ZetaSeries,
    euler_product_coeffs,
    is_separable_by_coeffs,
    is_separable_by_singularity,
    series_coeffs,
    singularities,
    zeta_eval,
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


def test_series_constructor_guards_constant_term():
    with pytest.raises(ValueError):
        ZetaSeries((0.5, 1.0))


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
    for p in cases:
        for order in {len(p), len(p) // 2}:
            got = [c.hex() for c in series_coeffs(p, order).coeffs]
            assert got == [c.hex() for c in series_coeffs_generator(p, order)]


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
    assert list(triangle)[0].rep == ((1, 2), (2, 3), (3, 1))
    assert euler_product_coeffs(triangle, 7).coeffs == (1, 0, 0, 0.5, 0, 0, 0.25, 0)


def test_euler_rejects_order_beyond_cap():
    with pytest.raises(IncompletePrimes):
        euler_product_coeffs([], 15)


def test_euler_rejects_order_beyond_enumerated_length():
    # classes enumerated to L = 4 say nothing of lengths 5..8; counting them
    # as empty gave c_5 = 0.271562 where the series gives 0.293455
    primes = enumerate_primes(graph_from_density(random_density(3, 1)), 4)
    assert euler_product_coeffs(primes, 4).coeffs[4] > 0
    with pytest.raises(IncompletePrimes, match="order 8 exceeds the length 4"):
        euler_product_coeffs(primes, 8)


def test_euler_rejects_imaginary_residue():
    from rhozeta.errors import NonRealCoefficient

    lone = classes_of_length(1, [[1]], [1j], 2)
    assert list(lone)[0].rep == ((1, 1),)
    with pytest.raises(NonRealCoefficient):
        euler_product_coeffs(lone, 2)


# -- zeta_eval ----------------------------------------------------------------------

def test_zeta_at_zero_is_one():
    for rho in (PLUS, MAXMIXED2, SIGMA):
        assert zeta_eval(singularities(rho), 0.0) == 1.0


def test_zeta_pure_state_pole_structure():
    value = zeta_eval(singularities(PLUS), 0.5)
    assert abs(value - 2.0) < 1e-12


@pytest.mark.parametrize("u", [math.nan, math.inf, complex(0.5, math.inf)])
def test_zeta_eval_rejects_non_finite_u(u):
    with pytest.raises(ValueError, match="not finite"):
        zeta_eval(singularities(PLUS), u)


def test_zeta_at_singularity_raises():
    with pytest.raises(AtSingularity):
        zeta_eval(singularities(GHZ_REDUCED), 2.0)


def test_zeta_has_no_zeros_on_grid():
    for rho in (PLUS, MAXMIXED2, SIGMA, W_REDUCED):
        rational = singularities(rho)
        locations = [u for u, _ in rational.singularities]
        samples = [complex(u) for u in np.linspace(-3.0, 5.0, 161)]
        samples += [0.3 + 0.7j, -1.2 - 0.4j, 2.5j]
        for u in samples:
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
        assert sum(mult for _, mult in rational.singularities) == rho.rank()
        expanded = []
        for u, mult in rational.singularities:
            expanded.extend([1.0 / u] * mult)
        oracle = sorted(np.linalg.eigvalsh(rho.matrix), reverse=True)[: len(expanded)]
        assert np.allclose(sorted(expanded, reverse=True), oracle, atol=1e-8)


def test_denominator_matches_eigenvalue_product():
    # between the first 8 poles of large random states, against a 50-digit
    # product over numpy's eigenvalues
    mpmath = pytest.importorskip("mpmath")
    for dim in (16, 32, 64):
        for seed in (1, 2, 3):
            rho = random_density(dim, seed)
            rational = singularities(rho)
            lams = np.linalg.eigvalsh(rho.matrix)
            poles = sorted(1.0 / lams)[:8]
            for left, right in zip(poles, poles[1:]):
                for frac in (0.2, 0.5, 0.8):
                    u = left + frac * (right - left)
                    with mpmath.workdps(50):
                        expected = float(1 / mpmath.fprod(1 - mpmath.mpf(u) * mpmath.mpf(lam) for lam in lams))
                    value = zeta_eval(rational, u)
                    assert value.imag == 0.0
                    assert abs(value.real - expected) <= 1e-10 * abs(expected), (dim, seed, u)


def test_zeta_beyond_float_range_is_singular():
    rational = singularities(validate_density(np.eye(64) / 64))
    # 64 + 2e-6 is outside the 1e-6 pole distance, but (1 - u/64)^-64 ~ e^1106
    with pytest.raises(AtSingularity):
        zeta_eval(rational, 64 + 2e-6)


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


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
def test_verdicts_reject_bad_tolerance(tol):
    # with tol = NaN every comparison is false: the Bell reduction would pass
    with pytest.raises(ValueError, match="finite and positive"):
        is_separable_by_coeffs(MAXMIXED2, 2, tol)
    with pytest.raises(ValueError, match="finite and positive"):
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
