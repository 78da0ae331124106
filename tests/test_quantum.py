"""Tests for reference states, permutation operators, and the symmetry test."""

import math
from itertools import permutations

import numpy as np
import pytest

from refimpl import acceptance_gather, permutation_operator, symmetric_projector
from rhozeta.errors import CapExceeded, InvalidParameter
from rhozeta.linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    partial_trace,
    random_density,
    trace_powers,
    validate_density,
)
from rhozeta.quantum import (
    BUILTIN_STATES,
    MAX_COPIES,
    MAX_PROJECTOR_DIM,
    PureState,
    acceptance_probability,
    bell_state,
    builtin_state,
    ghz_state,
    isotropic_state,
    plus_state,
    sigma_state,
    w_state,
)
from rhozeta.zeta import series_coeffs

SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]],
    dtype=complex,
)


# -- states ---------------------------------------------------------------------

def test_plus_state_density():
    rho = plus_state().density()
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_bell_amplitudes():
    amps = bell_state().amplitudes
    assert np.allclose(amps, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_w_and_ghz_support():
    assert list(np.flatnonzero(w_state().amplitudes)) == [1, 2, 4]
    assert list(np.flatnonzero(ghz_state().amplitudes)) == [0, 7]


def test_isotropic_zero_is_bell():
    bell = bell_state().density()
    iso = isotropic_state(0.0)
    assert np.allclose(iso.matrix, bell.matrix, atol=1e-12)
    assert iso.rank() == 1


def test_isotropic_one_is_maximally_mixed():
    assert np.allclose(isotropic_state(1.0).matrix, np.eye(4) / 4, atol=1e-15)


def test_sigma_matrix():
    assert np.allclose(sigma_state().matrix, np.diag([1 / 3, 0, 0, 2 / 3]), atol=1e-15)


def test_state_constructors_reject_bad_input():
    with pytest.raises(InvalidParameter, match="unknown state 'nonesuch'"):
        builtin_state("nonesuch")
    with pytest.raises(InvalidParameter):
        isotropic_state(1.5)
    with pytest.raises(InvalidParameter):
        builtin_state("isotropic", p=1.5)
    with pytest.raises(InvalidParameter):
        PureState([1.0, 1.0])


# -- permutation operators ---------------------------------------------------------

def test_identity_permutation():
    assert np.array_equal(permutation_operator(3, 2, (0, 1)), np.eye(9))


def test_swap_operator():
    got = permutation_operator(2, 2, (1, 0))
    assert np.array_equal(got, SWAP)


def test_representation_property_exhaustive():
    d, k = 2, 3
    ops = {p: permutation_operator(d, k, p) for p in permutations(range(k))}
    for p1 in ops:
        for p2 in ops:
            composed = tuple(p1[p2[i]] for i in range(k))
            assert np.array_equal(ops[p1] @ ops[p2], ops[composed])
    for p, op in ops.items():
        inverse = tuple(np.argsort(p))
        assert np.array_equal(op @ ops[inverse], np.eye(d ** k))


def test_permutation_operator_is_permutation_matrix():
    op = permutation_operator(3, 2, (1, 0))
    assert np.array_equal(np.abs(op @ op.conj().T), np.eye(9))
    assert set(np.unique(op.real)) == {0.0, 1.0}
    assert np.all(op.sum(axis=0) == 1) and np.all(op.sum(axis=1) == 1)


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        permutation_operator(2, 6, (0, 1, 2, 3, 4, 5))
    with pytest.raises(CapExceeded):
        symmetric_projector(8, 5)
    with pytest.raises(CapExceeded):
        acceptance_probability(validate_density(np.eye(16) / 16), 4)


# -- symmetric projector ---------------------------------------------------------------

def test_projector_two_qubits():
    proj = symmetric_projector(2, 2)
    assert abs(np.trace(proj).real - 3.0) < 1e-12
    assert np.allclose(proj, (np.eye(4) + SWAP) / 2, atol=1e-12)
    # brute-force rank of (I + SWAP)/2
    assert np.linalg.matrix_rank((np.eye(4) + SWAP) / 2) == 3


def test_projector_three_copies_matches_average():
    proj = symmetric_projector(2, 3)
    average = sum(permutation_operator(2, 3, p) for p in permutations(range(3))) / 6
    assert np.allclose(proj, average, atol=1e-15)
    assert abs(np.trace(proj).real - 4.0) < 1e-12


def test_projector_trivial_local_dimension():
    assert np.array_equal(symmetric_projector(1, 4), np.eye(1))


def test_projector_invariants():
    for d, k in ((2, 2), (3, 2), (2, 4), (3, 3)):
        proj = symmetric_projector(d, k)
        assert np.abs(proj - proj.conj().T).max() <= 1e-12
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        assert abs(np.trace(proj).real - math.comb(d + k - 1, k)) <= 1e-8


# -- acceptance probability ----------------------------------------------------------------

def test_acceptance_pure_state_is_one():
    rho = plus_state().density()
    assert abs(acceptance_probability(rho, 4) - 1.0) < 1e-12


def test_acceptance_maximally_mixed_two_copies():
    rho = validate_density(np.eye(2) / 2)
    assert abs(acceptance_probability(rho, 2) - 0.75) < 1e-12


def test_acceptance_maximally_mixed_three_copies():
    rho = validate_density(np.eye(2) / 2)
    assert abs(acceptance_probability(rho, 3) - 0.5) < 1e-12


def test_acceptance_matches_series_coefficients():
    for seed in range(6):
        rho = random_density(2 + seed % 2, 600 + seed)
        series = series_coeffs(trace_powers(rho, 4), 4)
        for k in range(1, 5):
            assert abs(acceptance_probability(rho, k) - series[k]) < 1e-9


def test_acceptance_matches_dense_projector():
    states = [sigma_state(), isotropic_state(0.3)]
    states += [random_density(d, 700 + d) for d in range(1, 17)]
    for rho in states:
        power = rho.matrix
        for k in range(1, 6):
            if rho.dim ** k > 256:
                break
            dense = np.trace(symmetric_projector(rho.dim, k) @ power).real
            assert abs(acceptance_probability(rho, k) - dense) <= 1e-12, (rho.dim, k)
            power = np.kron(power, rho.matrix)


def _diagonal_state(weights) -> DensityMatrix:
    """Diagonal density matrix, its spectrum the sorted weights.

    Built without validate_density, whose eigensolve would dominate at the
    4096-dimensional cap; a nonnegative diagonal summing to one needs none.
    """
    weights = np.asarray(weights, dtype=float)
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) < 1e-12
    return DensityMatrix(np.diag(weights.astype(complex)), DEFAULT_TOL, np.sort(weights))


def _max_copies(d):
    return max(k for k in range(1, MAX_COPIES + 1) if d ** k <= MAX_PROJECTOR_DIM)


def _max_dim(k):
    return max(d for d in range(1, MAX_PROJECTOR_DIM + 1) if d ** k <= MAX_PROJECTOR_DIM)


def test_acceptance_matches_gather():
    states = [random_density(d, 800 + d) for d in range(1, 10)]
    states += [builtin_state(name) for name in BUILTIN_STATES]
    cases = [(rho, k) for rho in states for k in range(1, _max_copies(rho.dim) + 1)]
    cases += [(random_density(16, 816), 3), (random_density(64, 864), 2)]
    cases += [(_diagonal_state(np.random.default_rng(4096).dirichlet(np.ones(4096))), 1)]
    for rho, k in cases:
        assert abs(acceptance_probability(rho, k) - acceptance_gather(rho, k)) <= 1e-14, (rho.dim, k)


def test_acceptance_maximally_mixed_is_symmetric_dimension():
    # tr[P_sym (I/d)^{(x)k}] = C(d+k-1, k) / d^k: every multiset counted once
    cases = {(d, k) for d in range(1, 6) for k in range(1, MAX_COPIES + 1)}
    cases |= {(_max_dim(k), k) for k in range(1, MAX_COPIES + 1)}
    for d, k in sorted(cases):
        rho = _diagonal_state(np.full(d, 1.0 / d)) if d > 64 else validate_density(np.eye(d) / d)
        assert abs(acceptance_probability(rho, k) - math.comb(d + k - 1, k) / d ** k) <= 1e-12, (d, k)


def test_acceptance_monotone_in_copies():
    states = [
        plus_state().density(),
        validate_density(np.eye(2) / 2),
        sigma_state(),
        isotropic_state(0.5),
    ]
    for rho in states:
        values = [acceptance_probability(rho, k) for k in range(1, 5)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


# -- purity -----------------------------------------------------------------------------------

def test_purity_pure_state():
    assert abs(trace_powers(plus_state().density(), 2)[1] - 1.0) < 1e-12


def test_purity_maximally_mixed():
    assert abs(trace_powers(validate_density(np.eye(2) / 2), 2)[1] - 0.5) < 1e-12


def test_purity_w_reduction():
    w = w_state().density()
    reduced = partial_trace(w, (2, 4), keep="B")
    assert abs(trace_powers(reduced, 2)[1] - 5 / 9) < 1e-12
