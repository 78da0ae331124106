"""Tests for the dense linear algebra layer."""

import gc
import math
import os
import re
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from refimpl import (
    exact_power_sums,
    matrix_to_json,
    random_unitary,
    save_matrix,
    trace_powers_sequential,
)
from rhozeta import graph, linalg
from rhozeta.errors import (
    CapExceeded,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
)
from rhozeta.linalg import (
    MAX_DIM,
    POWER_BLOCK,
    ByteBoundedCache,
    DensityMatrix,
    load_matrix,
    matrix_from_json,
    partial_trace,
    random_density,
    trace_powers,
    validate_density,
)
from rhozeta.quantum import BUILTIN_STATES, builtin_state

PLUS = np.array([[1, 1], [1, 1]], dtype=complex) / 2
MAXMIXED2 = np.eye(2, dtype=complex) / 2
SIGMA = np.diag([1 / 3, 0, 0, 2 / 3]).astype(complex)


def bell_density():
    v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return validate_density(np.outer(v, v.conj()))


# -- validate_density ---------------------------------------------------------

def test_validate_plus_state():
    rho = validate_density(PLUS, 1e-9)
    assert rho.dim == 2
    assert np.allclose(rho.eigenvalues, [0.0, 1.0], atol=1e-12)


def test_validate_rejects_trace_two():
    with pytest.raises(NotUnitTrace):
        validate_density(np.eye(2), 1e-9)
    # a trace that overflows to inf: np.trace's overflow warning used to
    # escape validation, which the suite's RuntimeWarning filter turns into
    # an error
    with pytest.raises(NotUnitTrace, match="inf"):
        validate_density(np.diag([1.7e308, 1.7e308]))


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0, 1], [0, 0]]), 1e-9)


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.5, -0.5]), 1e-9)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_validate_bounds_sit_at_tol(tol):
    # a Hermiticity defect or an eigenvalue below zero of half the tolerance
    # passes, and one of twice the tolerance is refused: a bound ten times
    # looser or tighter fails one of the pairs
    for scale in (0.5, 2.0):
        defect = scale * tol
        skewed = np.array([[0.5, 0.0], [defect, 0.5]])
        indefinite = np.diag([1.0 + defect, -defect])
        if scale < 1:
            assert validate_density(skewed, tol).dim == validate_density(indefinite, tol).dim == 2
            assert validate_density(indefinite, tol).eigenvalues[0] == -defect
        else:
            with pytest.raises(NotHermitian, match=f"defect {defect:.3e} exceeds tol {tol:.1e}"):
                validate_density(skewed, tol)
            with pytest.raises(NotPSD, match=f"minimum eigenvalue {-defect:.3e} below -{tol:.1e}"):
                validate_density(indefinite, tol)


def test_validate_rejects_indefinite_matrix_near_float_max():
    # eigenvalues 0.5 +- 1e308; (a + a^H)/2 overflowed to inf, eigvalsh gave
    # NaN, and NaN passed the PSD bound, so the matrix was accepted
    for off in (1e308, 1.7e308, 1e200):
        with pytest.raises(NotPSD, match="minimum eigenvalue -"):
            validate_density(np.array([[0.5, off], [off, 0.5]]))


def test_validate_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        validate_density(np.ones((2, 3)))


def test_validate_error_reports_magnitude():
    with pytest.raises(NotUnitTrace, match="1.0"):
        validate_density(np.eye(2))


def test_validate_survives_a_trace_modulus_past_the_float_range():
    # |tr - 1| of this finite trace overflows: it is inf, not an
    # OverflowError, which the CLI does not catch
    with pytest.raises(NotHermitian, match="defect inf"):
        validate_density(np.array([[1.7e308 + 1.7e308j]]))


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, 1.0, 1e300])
def test_validate_rejects_bad_tolerance(tol):
    # a NaN tolerance compares false both ways and would pass every check; a
    # tolerance of 1 or more admits matrices far from any state
    with pytest.raises(ValueError, match="^tol must be finite and positive, below 1$"):
        validate_density(np.array([[0, 1], [0, 0]]), tol)


# -- trace_powers -------------------------------------------------------------

def test_trace_powers_maximally_mixed():
    p = trace_powers(validate_density(MAXMIXED2), 2)
    assert p == (1.0, 0.5)


def test_trace_powers_projector_is_flat():
    p = trace_powers(validate_density(PLUS), 5)
    assert np.allclose(p, 1.0, atol=1e-12)


def test_trace_powers_sigma():
    p = trace_powers(validate_density(SIGMA), 2)
    assert abs(p[0] - 1.0) < 1e-12
    assert abs(p[1] - 5 / 9) < 1e-12


def test_trace_powers_monotone_nonincreasing():
    for seed in range(20):
        rho = random_density(2 + seed % 5, seed)
        p = trace_powers(rho, 6)
        assert abs(p[0] - 1.0) <= rho.tol
        for m in range(6):
            assert -rho.tol <= p[m] <= 1.0 + rho.tol
        for m in range(5):
            assert p[m + 1] <= p[m] + rho.tol


def _bits(values):
    return [float(v).hex() for v in values]


def _fresh(rho):
    """A copy of rho that no memo holds."""
    return DensityMatrix(rho.matrix, rho.tol, rho.eigenvalues)


def _power_sum_states():
    states = [builtin_state(name, p=0.3, dim=3, seed=5) for name in sorted(BUILTIN_STATES)]
    states += [random_density(dim, seed) for dim in (1, 2, 3, 5, 8, 9, 16, 17, 33, 64, 128)
               for seed in (1, 2)]
    return states


def test_trace_powers_first_block_matches_sequential_loop():
    for rho in _power_sum_states():
        expected = _bits(trace_powers_sequential(rho, POWER_BLOCK))
        assert _bits(trace_powers(_fresh(rho), 64)[:POWER_BLOCK]) == expected
        for m in range(1, POWER_BLOCK + 1):
            assert _bits(trace_powers(_fresh(rho), m)) == expected[:m]


@pytest.mark.parametrize("dim", [1, 3, 8, 17])
def test_trace_powers_prefix_does_not_depend_on_call_order(dim):
    rho = random_density(dim, 4)
    for big in range(1, 65):
        first_big = _fresh(rho)
        full = _bits(trace_powers(first_big, big))
        for small in range(1, big + 1):
            first_small = _fresh(rho)
            assert _bits(trace_powers(first_small, small)) == full[:small], (small, big)
            assert _bits(trace_powers(first_small, big)) == full, (small, big)
            assert _bits(trace_powers(first_big, small)) == full[:small], (small, big)


def test_trace_powers_never_reads_eigenvalues():
    rho = random_density(6, 3)
    blind = DensityMatrix(rho.matrix, rho.tol, np.full(6, np.nan))
    assert _bits(trace_powers(blind, 64)) == _bits(trace_powers(_fresh(rho), 64))


def test_trace_powers_match_high_precision_eigenvalue_sums():
    for dim in (1, 2, 8, 33, 64, 128):
        for seed in (1, 2, 3):
            rho = random_density(dim, seed)
            p = trace_powers(rho, 64)
            expected = exact_power_sums(np.linalg.eigvalsh(rho.matrix).tolist(), 64)
            for m, (got, want) in enumerate(zip(p, expected), start=1):
                assert abs(got - want) <= 1e-12 * abs(want), (dim, seed, m)


# -- kron ---------------------------------------------------------------------

def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal_ordering():
    out = np.kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
    assert np.allclose(np.diag(out), [10, 14, 15, 21])


def test_kron_sigma_cubed_eigenvalues():
    s3 = np.kron(np.kron(SIGMA, SIGMA), SIGMA)
    got = np.linalg.eigvalsh(s3)  # brute-force eigensolve oracle
    expected = sorted(
        a * b * c for a in (1 / 3, 0, 0, 2 / 3) for b in (1 / 3, 0, 0, 2 / 3) for c in (1 / 3, 0, 0, 2 / 3)
    )
    assert np.allclose(np.sort(got), expected, atol=1e-12)


# -- partial_trace ------------------------------------------------------------

def test_partial_trace_bell_gives_maximally_mixed():
    reduced = partial_trace(bell_density(), (2, 2), keep="B")
    assert np.allclose(reduced.matrix, MAXMIXED2, atol=1e-12)


def test_partial_trace_product_state():
    a = np.array([1, 0], dtype=complex)
    b = np.array([1, 1j], dtype=complex) / math.sqrt(2)
    joint = validate_density(np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())))
    reduced = partial_trace(joint, (2, 2), keep="B")
    assert np.allclose(reduced.matrix, np.outer(b, b.conj()), atol=1e-12)


def test_partial_trace_w_state_spectrum():
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / math.sqrt(3)
    joint = validate_density(np.outer(w, w.conj()))
    reduced = partial_trace(joint, (2, 4), keep="B")
    # oracle: reduced matrix summed entry by entry
    explicit = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for i in range(4):
            for j in range(4):
                explicit[i, j] += joint.matrix[a * 4 + i, a * 4 + j]
    assert np.allclose(reduced.matrix, explicit, atol=1e-14)
    assert np.allclose(reduced.eigenvalues, [0, 0, 1 / 3, 2 / 3], atol=1e-10)


def test_partial_trace_inverts_kron():
    for seed in range(8):
        rho_a = random_density(2 + seed % 2, seed)
        rho_b = random_density(2 + (seed + 1) % 3, 100 + seed)
        joint = validate_density(np.kron(rho_a.matrix, rho_b.matrix))
        keep_b = partial_trace(joint, (rho_a.dim, rho_b.dim), keep="B")
        keep_a = partial_trace(joint, (rho_a.dim, rho_b.dim), keep="A")
        assert np.abs(keep_b.matrix - rho_b.matrix).max() < 1e-12
        assert np.abs(keep_a.matrix - rho_a.matrix).max() < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(bell_density(), (3, 2), keep="B")


# -- spectrum -----------------------------------------------------------------

def test_eig_maximally_mixed():
    assert np.allclose(validate_density(MAXMIXED2).eigenvalues, [0.5, 0.5], atol=1e-14)


def test_eig_rank_one_projector():
    assert np.allclose(validate_density(PLUS).eigenvalues, [0.0, 1.0], atol=1e-12)


def test_eig_ghz_reduction():
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1 / math.sqrt(2)
    reduced = partial_trace(validate_density(np.outer(ghz, ghz.conj())), (2, 4), keep="B")
    assert np.allclose(reduced.eigenvalues, [0, 0, 0.5, 0.5], atol=1e-12)


def test_eig_matches_numpy_oracle():
    # bit for bit: the spectrum is eigvalsh of the halved Hermitian part
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5, 9, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w = g @ g.conj().T
        a = w / np.trace(w).real
        expected = np.linalg.eigvalsh(a / 2 + a.conj().T / 2)
        assert validate_density(a).eigenvalues.tobytes() == expected.tobytes(), dim


def test_eig_sums_match_traces():
    for seed in range(10):
        rho = random_density(2 + seed % 4, seed)
        lam = rho.eigenvalues
        p = trace_powers(rho, 2)
        assert abs(lam.sum() - p[0]) < 1e-10
        assert abs((lam ** 2).sum() - p[1]) < 1e-10


def test_eig_rejects_non_hermitian():
    # Hermiticity is checked before the trace, and the trace before the spectrum
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 1], [0, 0.5]]))
    with pytest.raises(NotHermitian):
        validate_density(np.array([[3, 1], [0, -1]]))
    with pytest.raises(NotUnitTrace):
        validate_density(np.diag([3.0, -1.0]))


# -- random_unitary / random_density ------------------------------------------

def test_random_unitary_dim_one_is_phase():
    u = random_unitary(1, 5)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
def test_random_unitary_contract(dim, seed):
    u = random_unitary(dim, seed)
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12


def test_random_unitary_deterministic():
    assert np.array_equal(random_unitary(4, 99), random_unitary(4, 99))


def test_random_density_is_valid():
    rho = random_density(5, 21)
    assert isinstance(rho, DensityMatrix)
    assert rho.eigenvalues[0] > -1e-12


def test_random_density_dim_cap_refuses_before_drawing():
    # the library call shares the --file dim cap; a dim x dim draw at MAX_DIM + 1
    # would take 4 MiB, so a small traced peak shows the refusal came first
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"random state dim {MAX_DIM + 1} exceeds cap {MAX_DIM}"):
            random_density(MAX_DIM + 1, 0)
        with pytest.raises(CapExceeded):
            builtin_state("random", dim=MAX_DIM + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- ByteBoundedCache ----------------------------------------------------------

def test_byte_bounded_cache_keeps_no_value_above_its_budget():
    # an entry is the sizes of its arrays and tuples, headers included, and
    # ENTRY_BYTES: here (key, value) = ((size,), (array, (array, size))), so
    # entry + size; one over the whole budget is returned, not kept, and
    # drops nothing; otherwise the least recently used go first, and the
    # bytes kept never pass the budget; a build that raises keeps and drops
    # nothing
    header = sys.getsizeof(np.zeros(0))  # a one-dimensional array beyond its data
    entry = ByteBoundedCache.ENTRY_BYTES + 3 * sys.getsizeof((0, 0)) + sys.getsizeof((0,)) + 2 * header
    big = entry + 11

    def build(size):
        if size < 0:
            raise ValueError(size)
        return np.zeros(size, dtype=np.uint8), (np.zeros(0), size)

    cache = ByteBoundedCache(build, 2 * entry + 10)
    calls = [(4, "miss"), (5, "miss"), (big, "miss"), (-1, "raise"), (4, "hit"), (5, "hit"), (big, "miss"),
             (3, "miss"), (-2, "raise"), (5, "hit"), (4, "miss"), (-1, "raise")]
    for size, outcome in calls:
        hits, misses, kept = cache.hits, cache.misses, dict(cache._entries)
        if outcome == "raise":
            with pytest.raises(ValueError):
                cache(size)
            assert cache._entries == kept and list(cache._entries) == list(kept), size
        else:
            value = cache(size)
            assert len(value[0]) == size and value[1][1] == size
        assert (cache.hits - hits, cache.misses - misses) == ((1, 0) if outcome == "hit" else (0, 1)), size
        assert cache.nbytes <= cache.budget, size
    assert cache.nbytes == 5 + 4 + 2 * entry and (cache.hits, cache.misses) == (3, 9)
    cache.cache_clear()
    assert (cache.hits, cache.misses, cache.nbytes) == (0, 0, 0)


def test_byte_bounded_cache_counts_its_keys():
    # empty values under distinct 1,000-byte keys: each entry costs its key,
    # the tuples of (key, value) and ENTRY_BYTES, so ten fit and the rest push
    # the oldest out
    entry = sys.getsizeof(bytes(1_000)) + 2 * sys.getsizeof((0, 0)) + sys.getsizeof(()) + ByteBoundedCache.ENTRY_BYTES
    cache = ByteBoundedCache(lambda key, n: (), 10 * entry)
    for i in range(1_000):
        assert cache(i.to_bytes(1_000, "little"), 0) == ()
        assert cache.nbytes == min(i + 1, 10) * entry, i
    assert [int.from_bytes(key, "little") for key, _ in cache._entries] == list(range(990, 1_000))


def test_byte_bounded_cache_holds_deep_plans_within_its_budget():
    # a prime plan of a two-edge 8-vertex pattern at the length cap holds a
    # few bytes of data in some forty arrays, each with its header; distinct
    # plans past the budget push the oldest out, and the memory the cache
    # holds, traced, stays within its budget and a slack of 64 KiB for the
    # caches and free lists of numpy and the interpreter, which do not grow
    # with the entries (it held about 6 times the budget while an entry was
    # charged only its arrays' data and ENTRY_BYTES); one plan built first
    # keeps the search's one-time allocations out of the reading
    budget = 200_000
    patterns = [np.packbits(np.isin(np.arange(64), pair)).tobytes() for pair in combinations(range(64), 2)][:151]
    graph._build_plan(graph.PRIME_LENGTH_CAP, 8, patterns.pop(), graph.MAX_SEARCH_STEPS)
    tracemalloc.start()
    try:
        cache = ByteBoundedCache(graph._build_plan, budget)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for pattern in patterns:
            cache(graph.PRIME_LENGTH_CAP, 8, pattern, graph.MAX_SEARCH_STEPS)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.misses == len(patterns) and len(cache._entries) < len(patterns)
    assert cache.nbytes <= budget
    assert held <= budget + 64 * 1024


# -- matrix JSON format -------------------------------------------------------

def test_json_round_trip():
    rho = random_density(3, 13)
    again = matrix_from_json(matrix_to_json(rho.matrix))
    assert np.array_equal(again, rho.matrix)


def test_json_decode_matches_per_entry_complex():
    # the one-step numpy decode against the per-entry loop it replaced,
    # byte for byte: ints, signed zeros, tuples and values near the float maximum
    entries = [[1, -0.0], (-0.0, 2), [0.5, 1.7e308], [-(2**60), 3], [1e-310, -1e-300],
               [0, 0], [-1.5, -0.0], (7, -2.25), [2**1023, -4]]
    expected = np.array([complex(re, im) for re, im in entries]).reshape(3, 3)
    got = matrix_from_json({"dim": 3, "entries": entries})
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_json_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]] * 3})


def test_json_rejects_malformed_entry():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 1, "entries": [[1.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 0, "entries": []})


def test_json_dim_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_DIM", 2)
    assert matrix_from_json(matrix_to_json(np.eye(2) / 2)).shape == (2, 2)
    with pytest.raises(CapExceeded):
        matrix_from_json({"dim": 3, "entries": []})


@pytest.mark.parametrize("call,message", [
    (lambda: trace_powers(validate_density(PLUS), 0), "m_max must be at least 1"),
    (lambda: partial_trace(bell_density(), (2, 2), "C"), "keep must be 'A' or 'B', got 'C'"),
    (lambda: random_density(0, 0), "dim must be at least 1"),
    (lambda: matrix_from_json([]), "matrix JSON must be an object with 'dim' and 'entries'"),
    # exact JSON types: a float subclass, which json.loads never gives, is refused
    (lambda: matrix_from_json({"dim": 1, "entries": [[np.float64(1.0), 0.0]]}),
     "entry 0 is not a [re, im] pair of numbers"),
], ids=["trace-powers", "partial-trace", "random-density", "json-list", "json-float64"])
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_load_matrix_refuses_file_above_byte_cap(tmp_path, monkeypatch):
    # a regular file is refused by its size, a pipe by the bytes read from it
    path = tmp_path / "rho.json"
    save_matrix(path, random_density(4, 2).matrix)
    text = path.read_bytes()
    for cap in (len(text), len(text) - 1):
        monkeypatch.setattr(linalg, "MAX_FILE_BYTES", cap)
        read, write = os.pipe()
        try:
            os.write(write, text)  # far below the pipe's buffer
            os.close(write)
            for source in (path, f"/dev/fd/{read}"):
                if cap == len(text):
                    assert load_matrix(source).shape == (4, 4), source
                else:
                    with pytest.raises(CapExceeded, match=f"exceeds cap of {cap} bytes"):
                        load_matrix(source)
        finally:
            os.close(read)


def test_load_matrix_refuses_an_oversized_file_unread(tmp_path):
    # reading the sparse file one byte over the cap took a 32 MiB traced peak
    path = tmp_path / "oversize.json"
    with open(path, "wb") as fh:
        fh.truncate(linalg.MAX_FILE_BYTES + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"exceeds cap of {linalg.MAX_FILE_BYTES} bytes"):
            load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
