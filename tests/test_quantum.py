"""Tests for reference states, permutation operators, and the symmetry test."""

import math
import sys
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refimpl import (
    DENSE_MAX_COPIES,
    DENSE_MAX_DIM,
    acceptance_gather,
    acceptance_subsets,
    permutation_operator,
    symmetric_projector,
)
from rhozeta import quantum
from rhozeta.errors import CapExceeded, InvalidParameter
from rhozeta.linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    ZERO_TOL,
    DensityMatrix,
    partial_trace,
    random_density,
    trace_powers,
    validate_density,
)
from rhozeta.quantum import (
    BUILTIN_STATES,
    MAX_COPIES,
    acceptance_probability,
    builtin_state,
    check_copy_caps,
    isotropic_state,
    sigma_state,
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
    rho = builtin_state("plus")
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_bell_amplitudes():
    # the first row of |psi><psi| is psi_0 conj(psi), and psi_0 = 1/sqrt(2)
    psi = builtin_state("bell").matrix[0] * math.sqrt(2)
    assert np.allclose(psi, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_w_and_ghz_support():
    assert list(np.flatnonzero(np.diag(builtin_state("w").matrix))) == [1, 2, 4]
    assert list(np.flatnonzero(np.diag(builtin_state("ghz").matrix))) == [0, 7]


def _pure_reference(dim, support):
    """|psi><psi| for psi the equal superposition of the basis states in support."""
    psi = np.zeros(dim, dtype=complex)
    for i in support:
        psi[i] = complex(1.0 / math.sqrt(len(support)), 0.0)
    return np.outer(psi, psi.conj())


def test_pure_builtins_are_bit_exact():
    # an independent construction, compared byte for byte: signed zeros too,
    # since DOT labels print them
    supports = {"plus": (2, [0, 1]), "bell": (4, [0, 3]), "w": (8, [1, 2, 4]), "ghz": (8, [0, 7])}
    for name, (dim, support) in supports.items():
        pure = _pure_reference(dim, support)
        assert builtin_state(name).matrix.tobytes() == pure.tobytes(), name
        if name != "plus":
            reduced = np.trace(pure.reshape(2, dim // 2, 2, dim // 2), axis1=0, axis2=2)
            assert builtin_state(f"{name}-reduced").matrix.tobytes() == reduced.tobytes(), name


def test_isotropic_zero_is_bell():
    bell = builtin_state("bell")
    iso = isotropic_state(0.0)
    assert np.allclose(iso.matrix, bell.matrix, atol=1e-12)
    assert np.sum(iso.eigenvalues > ZERO_TOL) == 1


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
    # C(94, 3) 2^3 = 1,072,352 table entries; k = 13 exceeds MAX_COPIES
    with pytest.raises(CapExceeded, match="table of 1072352 entries"):
        acceptance_probability(validate_density(np.eye(92) / 92), 3)
    with pytest.raises(CapExceeded, match=f"k=13 exceeds cap {MAX_COPIES}"):
        acceptance_probability(builtin_state("plus"), 13)


def test_copy_caps_admit_every_input_of_the_dense_model():
    # the caps used to be k <= 5 and d^k <= 4096; every such input still passes
    for k in range(1, DENSE_MAX_COPIES + 1):
        for d in range(1, DENSE_MAX_DIM + 1):
            if d ** k > DENSE_MAX_DIM:
                break
            assert check_copy_caps(d, k) is None, (d, k)


def _fits(d, k):
    try:
        check_copy_caps(d, k)
    except CapExceeded:
        return False
    return True


@settings(deadline=None, max_examples=60, derandomize=True)
@given(d=st.integers(1, MAX_DIM + 1), k=st.integers(1, MAX_COPIES + 1))
def test_copy_caps_are_monotone(d, k):
    # bose checks its largest K once, up front, for every k <= K
    if _fits(d, k):
        assert all(_fits(e, j) for e in range(1, d + 1) for j in range(1, k + 1)), (d, k)
    else:
        assert not _fits(d + 1, k) and not _fits(d, k + 1), (d, k)


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
    rho = builtin_state("plus")
    assert abs(acceptance_probability(rho, 4) - 1.0) < 1e-12


def test_acceptance_maximally_mixed_two_copies():
    rho = validate_density(np.eye(2) / 2)
    assert abs(acceptance_probability(rho, 2) - 0.75) < 1e-12


def test_acceptance_maximally_mixed_three_copies():
    rho = validate_density(np.eye(2) / 2)
    assert abs(acceptance_probability(rho, 3) - 0.5) < 1e-12


def test_acceptance_matches_series_coefficients():
    # small states, then the edge of the copy caps at each k >= 2 with d <= MAX_DIM
    cases = [(random_density(2 + seed % 2, 600 + seed), k) for seed in range(6) for k in range(1, 5)]
    cases += [(random_density(_max_dim(k), 900 + k), k) for k in range(2, MAX_COPIES + 1)]
    for rho, k in cases:
        c_k = series_coeffs(trace_powers(rho, k), k)[k]
        assert abs(acceptance_probability(rho, k) - c_k) <= 1e-12 * c_k, (rho.dim, k)


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
    return max(k for k in range(1, MAX_COPIES + 1) if _fits(d, k))


def _max_dim(k):
    return max(d for d in range(1, MAX_DIM + 1) if _fits(d, k))


def test_acceptance_matches_gather():
    states = [random_density(d, 800 + d) for d in range(1, 10)]
    states += [builtin_state(name) for name in BUILTIN_STATES]
    cases = [(rho, k) for rho in states for k in range(1, DENSE_MAX_COPIES + 1)
             if rho.dim ** k <= DENSE_MAX_DIM]
    cases += [(random_density(16, 816), 3), (random_density(64, 864), 2)]
    cases += [(_diagonal_state(np.random.default_rng(4096).dirichlet(np.ones(4096))), 1)]
    for rho, k in cases:
        assert abs(acceptance_probability(rho, k) - acceptance_gather(rho, k)) <= 1e-14, (rho.dim, k)


def test_acceptance_matches_subset_loop_bit_for_bit():
    # the layered, chunked recurrence against the per-subset loop it replaced:
    # the same floating-point operations in the same order, so == holds
    # an input with k >= 8 whose last chunk holds one multiset, (2, 12) today
    d, k = next((d, k) for k in range(8, MAX_COPIES + 1) for d in range(2, _max_dim(k) + 1)
                if math.comb(d + k - 1, k) % (quantum._CHUNK_ENTRIES >> k) == 1)
    cases = [(random_density(d, 1100 + d), k)]
    cases += [(random_density(d, 1000 + 16 * d + k), k) for d in range(1, 7) for k in range(1, _max_copies(d) + 1)]
    cases += [(builtin_state(name), k) for name in BUILTIN_STATES for k in range(1, _max_copies(builtin_state(name).dim) + 1)]
    # the cap edges (512, 2), (91, 3), (33, 4), (18, 5), (12, 6), (7, 8) and (3, 12)
    cases += [(random_density(_max_dim(k), 1200 + k), k) for k in (2, 3, 4, 5, 6, 8, 12)]
    # a one-dimensional state: one multiset, so the last layer adds k lone entries
    cases += [(validate_density([[1 + 3e-10]]), k) for k in range(1, MAX_COPIES + 1)]
    expected = [acceptance_subsets(rho, k) for rho, k in cases]
    # A, B, A over consecutive shapes from a cleared table cache, so a table
    # kept for another d or another k gives a wrong value or fails
    quantum._multisets.cache_clear()
    for i in range(len(cases) - 1):
        for j in (i, i + 1, i):
            rho, k = cases[j]
            assert acceptance_probability(rho, k) == expected[j], (rho.dim, k)


def test_multiset_table_is_built_once_per_shape():
    cache = quantum._multisets
    cache.cache_clear()
    for seed in (1, 2):
        acceptance_probability(random_density(4, seed), 3)
    assert (cache.misses, cache.hits) == (1, 1)
    acceptance_probability(random_density(5, 1), 3)
    assert (cache.misses, cache.hits) == (2, 1)
    for d, k in ((4, 3), (5, 3)):
        table, offsets, weights = cache(d, k)
        multisets = list(combinations_with_replacement(range(d), k))
        assert [tuple(column) for column in table.T.tolist()] == multisets
        assert offsets.tolist() == (table.astype(int) * d).tolist()
        assert weights.tolist() == [math.prod(map(math.factorial, Counter(a).values())) for a in multisets]
        for array in (table, offsets, weights):
            with pytest.raises(ValueError):
                array[0] = 1
    # each entry: its three arrays, headers included, the tuples of
    # ((d, k), value) and ENTRY_BYTES
    arrays = sum(sys.getsizeof(array) for shape in ((4, 3), (5, 3)) for array in cache(*shape))
    tuples = 2 * sys.getsizeof((0, 0)) + sys.getsizeof((0, 0, 0))
    assert cache.nbytes == arrays + 2 * (tuples + cache.ENTRY_BYTES)


def test_multiset_cache_is_bounded_by_bytes_not_count():
    # 18 small shapes, each met again after every cap edge k = 2..12: a bound
    # of 12 shapes would drop and rebuild them, the byte budget keeps them all
    cache = quantum._multisets
    cache.cache_clear()
    small = [(d, k) for d in range(2, 5) for k in range(1, 7)]
    edges = [(_max_dim(k), k) for k in range(2, MAX_COPIES + 1)]
    for edge in edges:
        for shape in small:
            cache(*shape)
        cache(*edge)
        assert cache.nbytes <= quantum._SHAPE_CACHE_BYTES, edge
    assert (cache.misses, cache.hits) == (len(small) + len(edges), len(small) * (len(edges) - 1))
    # thirteen shapes about as wide as (512, 2) pass the budget by one: the
    # least recently used goes, and the bytes kept stay within the budget
    cache.cache_clear()
    wide = [(d, 2) for d in range(MAX_DIM, MAX_DIM - 13, -1)]
    for shape in wide:
        cache(*shape)
        assert cache.nbytes <= quantum._SHAPE_CACHE_BYTES, shape
    for shape in wide[1:]:
        cache(*shape)
    assert cache.misses == len(wide)
    cache(*wide[0])
    assert cache.misses == len(wide) + 1
    cache.cache_clear()


def test_acceptance_memory_is_bounded_at_cap_edges():
    # one complex value per multiset (2 MiB at (91, 3) and (512, 2)), plus the
    # shape's multiset arrays (1.5 and 1.6 MiB), built inside the traced call
    # from a cleared cache, plus a chunk's temporaries; the per-subset loop,
    # holding all 2^k vectors and the whole gather, peaks at 22 to 41 MiB on these
    for d, k in ((91, 3), (33, 4), (512, 2)):
        rho = random_density(d, 1300 + k)
        quantum._multisets.cache_clear()
        tracemalloc.start()
        try:
            acceptance_probability(rho, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, (d, k, peak)


def test_acceptance_maximally_mixed_is_symmetric_dimension():
    # tr[P_sym (I/d)^{(x)k}] = C(d+k-1, k) / d^k: every multiset counted once
    # the edges of the copy caps for k >= 2 with d <= MAX_DIM; k = 1 stops at
    # d = 4096, since its edge is a 524,288-dimensional matrix
    cases = {(d, k) for d in range(1, 6) for k in range(1, _max_copies(d) + 1)}
    cases |= {(_max_dim(k), k) for k in range(2, MAX_COPIES + 1)} | {(4096, 1)}
    for d, k in sorted(cases):
        rho = _diagonal_state(np.full(d, 1.0 / d)) if d > 64 else validate_density(np.eye(d) / d)
        assert abs(acceptance_probability(rho, k) - math.comb(d + k - 1, k) / d ** k) <= 1e-12, (d, k)


@st.composite
def _admitted_copies(draw):
    d = draw(st.integers(1, 6))
    return d, draw(st.integers(1, _max_copies(d))), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=30, derandomize=True)
@given(case=_admitted_copies())
def test_acceptance_matches_series_within_caps(case):
    d, k, seed = case
    rho = random_density(d, seed)
    c_k = series_coeffs(trace_powers(rho, k), k)[k]
    assert abs(acceptance_probability(rho, k) - c_k) <= 1e-12 * c_k, case


def test_acceptance_monotone_in_copies():
    states = [
        builtin_state("plus"),
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
    assert abs(trace_powers(builtin_state("plus"), 2)[1] - 1.0) < 1e-12


def test_purity_maximally_mixed():
    assert abs(trace_powers(validate_density(np.eye(2) / 2), 2)[1] - 0.5) < 1e-12


def test_purity_w_reduction():
    w = builtin_state("w")
    reduced = partial_trace(w, (2, 4), keep="B")
    assert abs(trace_powers(reduced, 2)[1] - 5 / 9) < 1e-12
