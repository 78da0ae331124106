"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s or in
captured output).  Tolerances are pinned here and must not be loosened.
Run with:  pytest tests/test_acceptance.py -v -s
"""

from itertools import combinations_with_replacement

import numpy as np

from refimpl import cycle_index, random_unitary
from rhozeta.cli import builtin_state
from rhozeta.graph import (
    LaplacianWeights,
    density_from_weighted_graph,
    enumerate_primes,
    graph_from_density,
)
from rhozeta.linalg import random_density, trace_powers, validate_density
from rhozeta.errors import CapExceeded
from rhozeta.quantum import MAX_COPIES, acceptance_probability, check_copy_caps
from rhozeta.zeta import euler_product_coeffs, series_coeffs, singularities

BUILTIN_NAMES = (
    "plus", "bell", "bell-reduced", "maxmixed2", "maxmixed4",
    "w", "w-reduced", "ghz", "ghz-reduced", "isotropic", "sigma", "sigma3",
)


def report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {name}")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def homogeneous_oracle(eigenvalues, n):
    """Complete homogeneous symmetric polynomial of the nonzero eigenvalues,
    by direct enumeration of degree-n monomials."""
    lams = [lam for lam in eigenvalues if lam > 1e-12]
    return float(
        sum(np.prod([lams[i] for i in idx]) for idx in combinations_with_replacement(range(len(lams)), n))
    )


def test_criterion_01_pure_state_coefficients():
    rho = builtin_state("plus")
    series = series_coeffs(trace_powers(rho, 12), 12)
    euler = euler_product_coeffs(enumerate_primes(graph_from_density(rho), 12), 12)
    failures = []
    for n in range(13):
        if abs(series[n] - 1.0) > 1e-9:
            failures.append(("series", n, series[n]))
        if abs(euler[n] - 1.0) > 1e-9:
            failures.append(("euler", n, euler[n]))
    report(1, "plus-state coefficients are unity through n=12 (tol 1e-9)", failures)


def test_criterion_02_maximally_mixed_three_routes():
    rho = builtin_state("maxmixed2")
    p = trace_powers(rho, 2)
    newton = series_coeffs(p, 2)[2]
    euler = euler_product_coeffs(enumerate_primes(graph_from_density(rho), 2), 2)[2]
    partition_sum = cycle_index(2, p)
    failures = [
        (route, value)
        for route, value in (("newton", newton), ("euler", euler), ("cycle-index", partition_sum))
        if abs(value - 0.75) > 1e-12
    ]
    report(2, "c_2(I/2) = 0.75 by all three routes (tol 1e-12)", failures)


def test_criterion_03_sigma_cubed_singularities():
    rho = builtin_state("sigma3")
    got = singularities(rho).singularities
    expected = [(27 / 8, 1), (27 / 4, 3), (27 / 2, 3), (27.0, 1)]
    failures = []
    if len(got) != 4:
        failures.append(("count", got))
    else:
        for (u, mult), (eu, emult) in zip(got, expected):
            if abs(u - eu) > 1e-6 or mult != emult:
                failures.append((u, mult, "expected", eu, emult))
    # multiplicities against a brute-force eigensolve
    oracle = np.linalg.eigvalsh(rho.matrix)
    for eu, emult in expected:
        hits = int(np.sum(np.abs(oracle - 1.0 / eu) < 1e-9))
        if hits != emult:
            failures.append(("oracle-multiplicity", eu, hits, emult))
    report(3, "sigma^x3 singularities {3.375, 6.75, 13.5, 27} x {1,3,3,1} (tol 1e-6)", failures)


def test_criterion_04_ghz_reduction_double_pole():
    got = singularities(builtin_state("ghz-reduced")).singularities
    ok = len(got) == 1 and abs(got[0][0] - 2.0) <= 1e-8 and got[0][1] == 2
    report(4, "GHZ reduction has the single singularity u=2, multiplicity 2 (tol 1e-8)",
           [] if ok else [got])


def test_criterion_05_isotropic_extremes():
    failures = []
    entangled = singularities(builtin_state("isotropic", p=0.0)).singularities
    if not (len(entangled) == 1 and abs(entangled[0][0] - 1.0) <= 1e-8):
        failures.append(("p=0", entangled))
    mixed = singularities(builtin_state("isotropic", p=1.0)).singularities
    if not (len(mixed) == 1 and abs(mixed[0][0] - 4.0) <= 1e-8):
        failures.append(("p=1", mixed))
    report(5, "isotropic sweep: sole singularity at u=1 (p=0) and u=4 (p=1) (tol 1e-8)", failures)


def test_criterion_06_three_route_agreement():
    failures = []
    for seed in range(50):
        rho = random_density(2 + seed % 3, 1000 + seed)
        p = trace_powers(rho, 6)
        newton = series_coeffs(p, 6)
        euler = euler_product_coeffs(enumerate_primes(graph_from_density(rho), 6), 6)
        for n in range(7):
            partition_sum = cycle_index(n, p[:n])
            spread = max(
                abs(newton[n] - euler[n]),
                abs(newton[n] - partition_sum),
                abs(euler[n] - partition_sum),
            )
            if spread > 1e-8:
                failures.append((seed, n, spread))
    report(6, "three routes agree pairwise to 1e-8 on 50 random states (n <= 6)", failures)


def _copy_counts(dim):
    """Copy counts 1..K, K the largest the oracle's caps admit at this dimension."""
    k = 1
    while k < MAX_COPIES:
        try:
            check_copy_caps(dim, k + 1)
        except CapExceeded:
            break
        k += 1
    return range(1, k + 1)


def test_criterion_07_projector_oracle():
    failures = []
    states = [(name, builtin_state(name)) for name in BUILTIN_NAMES]
    states += [(f"random-{seed}", random_density(2 + seed % 2, 2000 + seed)) for seed in range(20)]
    for name, rho in states:
        ks = list(_copy_counts(rho.dim))
        series = series_coeffs(trace_powers(rho, max(ks)), max(ks))
        for k in ks:
            diff = abs(acceptance_probability(rho, k) - series[k])
            if diff > 1e-9:
                failures.append((name, k, diff))
    report(7, "acceptance equals series coefficient to 1e-9 up to the copy caps (built-ins + 20 random)", failures)


def test_criterion_08_basis_invariance():
    failures = []
    for seed in range(20):
        dim = 2 + seed % 3
        rho = random_density(dim, 3000 + seed)
        u = random_unitary(dim, 4000 + seed)
        rotated = validate_density(u @ rho.matrix @ u.conj().T)
        before = series_coeffs(trace_powers(rho, 6), 6)
        after = series_coeffs(trace_powers(rotated, 6), 6)
        worst = max(abs(a - b) for a, b in zip(before.coeffs, after.coeffs))
        if worst > 1e-8:
            failures.append((seed, worst))
    report(8, "coefficients invariant under 20 random changes of basis (tol 1e-8)", failures)


def _random_laplacian_weights(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    weights = {}
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            weights[(i, i)] = complex(rng.uniform(0.1, 2.0))
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                mag = rng.uniform(0.05, 3.0)
                weights[(i, j)] = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
                weights[(j, i)] = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    if not any(i != j for (i, j) in weights):
        weights[(1, 2)] = weights[(2, 1)] = 1.0
    return LaplacianWeights(n, weights)


def test_criterion_09_laplacian_positivity():
    failures = []
    for seed in range(200):
        rho = density_from_weighted_graph(_random_laplacian_weights(5000 + seed))
        smallest = float(rho.eigenvalues[0])
        if smallest < -1e-10:
            failures.append((seed, smallest))
    report(9, "200 magnitude-symmetric weighted graphs give PSD densities (>= -1e-10)", failures)


def test_criterion_10_mixed_state_decay():
    failures = []
    for name in ("sigma3", "sigma"):
        rho = builtin_state(name)
        series = series_coeffs(trace_powers(rho, 10), 10)
        oracle = [homogeneous_oracle(rho.eigenvalues, n) for n in range(11)]
        for n in range(11):
            if abs(series[n] - oracle[n]) > 1e-9:
                failures.append((name, "oracle", n, series[n], oracle[n]))
        for n in range(1, 10):
            if not series[n + 1] < series[n]:
                failures.append((name, "not-decreasing", n))
    c10 = series_coeffs(trace_powers(builtin_state("sigma3"), 10), 10)[10]
    if not c10 < 0.01:
        failures.append(("sigma3", "c10", c10))
    report(10, "mixed-state coefficients decay: strictly decreasing, sigma^x3 c_10 < 0.01", failures)
