"""Dense complex linear algebra for density matrices.

Matrices are plain numpy complex128 arrays; the only wrapper type is
DensityMatrix, which is produced by validate_density and carries its
eigenvalues, computed once, during validation, by numpy's eigvalsh.

ByteBoundedCache keeps values built from a key while their bytes fit a
budget; the acceptance oracle keeps its multiset arrays in one, and the
prime search its plans.

Index convention, fixed package-wide: in a bipartite system the first
subsystem (A) is the slow, most-significant index, as in np.kron(A, B), so
partial_trace(np.kron(rho_a, rho_b), (da, db), keep="B") == rho_b.
"""

import json
import os
import stat
from functools import lru_cache
from itertools import accumulate, chain, repeat

import numpy as np

from .errors import CapExceeded, DimensionMismatch, NotHermitian, NotPSD, NotUnitTrace

#: Default absolute tolerance for density-matrix validation.
DEFAULT_TOL = 1e-9

#: A magnitude at or below this counts as zero: such an entry makes no graph
#: edge, and such an eigenvalue makes no pole of the zeta function.
ZERO_TOL = 1e-12

#: Block size of trace_powers: it forms rho^1..rho^POWER_BLOCK, then steps
#: by rho^POWER_BLOCK.
POWER_BLOCK = 8

#: Caps on a matrix JSON input (MAX_DIM also on random states), checked before it
#: is parsed or decoded.  trace_powers holds about (POWER_BLOCK + 2) * dim^2 complex entries.
MAX_FILE_BYTES = 32 * 2**20
MAX_DIM = 512


def as_square_matrix(matrix) -> np.ndarray:
    """Coerce input to a square complex128 array with finite entries."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


class DensityMatrix:
    """A validated density matrix: Hermitian, unit-trace, positive semi-definite.

    Construct through validate_density; the constructor itself performs no
    checks and copies nothing.  It takes the matrix and spectrum arrays it
    is given and marks them read-only, so the caller hands over arrays no
    one else writes to: validate_density passes its own copy of the input
    and the spectrum eigvalsh returned.  The matrix, tolerance and spectrum
    are then immutable.  ``eigenvalues`` holds the real spectrum in
    ascending order, as computed during validation.
    """

    __slots__ = ("matrix", "tol", "eigenvalues")

    def __init__(self, matrix: np.ndarray, tol: float, eigenvalues: np.ndarray):
        matrix.flags.writeable = False
        eigenvalues.flags.writeable = False
        self.matrix = matrix
        self.tol = tol
        self.eigenvalues = eigenvalues

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, tol={self.tol:g})"


def check_tol(tol: float) -> None:
    """Refuse a tolerance outside (0, 1): NaN fails every bound, and 1 or more passes almost anything."""
    if not 0 < tol < 1:
        raise ValueError("tol must be finite and positive, below 1")


def validate_density(matrix, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Validate a matrix as a density matrix, or raise naming the first violation.

    Checks, in order: Hermiticity (max entrywise defect), unit trace, and
    positive semi-definiteness (minimum eigenvalue >= -tol), with tol in
    (0, 1); a tol of 1 or more admits matrices far from any state.  Each
    message reports the offending magnitude; a NaN fails every bound.  The
    spectrum is eigvalsh of the Hermitian part a/2 + a^H/2: halving first
    keeps the sums finite for entries near the float maximum, and is exact
    for normal floats.
    """
    a = as_square_matrix(np.array(matrix, dtype=complex, order="C"))
    check_tol(tol)
    half = a / 2.0
    half_h = half.conj().T
    with np.errstate(over="ignore"):  # an overflowed defect or trace is inf and fails its bound
        herm_defect = 2.0 * float(abs(half - half_h).max())
        trace_defect = float(abs(a.trace() - 1.0))
    if not herm_defect <= tol:
        raise NotHermitian(f"Hermiticity defect {herm_defect:.3e} exceeds tol {tol:.1e}")
    if not trace_defect <= tol:
        raise NotUnitTrace(f"|tr - 1| = {trace_defect:.3e} exceeds tol {tol:.1e}")
    half += half_h
    eigenvalues = np.linalg.eigvalsh(half)
    lowest = eigenvalues.min()
    if not lowest >= -tol:
        raise NotPSD(f"minimum eigenvalue {lowest:.3e} below -{tol:.1e}")
    return DensityMatrix(a, tol, eigenvalues)


@lru_cache(maxsize=1)
def trace_powers(rho: DensityMatrix, m_max: int) -> tuple:
    """Power sums p_m = tr[rho^m] for m = 1..m_max, by blocked matrix products.

    Element m-1 of the returned tuple holds p_m.  With b = POWER_BLOCK,
    rho^1..rho^b are formed by repeated multiplication into one stack, and
    p_1..p_b are its traces.  Beyond that, p_(jb+i) = tr[(rho^b)^j rho^i]:
    each giant step (rho^b)^j is one more product, and its b traces are one
    matrix-vector product of the flattened stack against the flattened
    transpose of (rho^b)^j.
    The stack holds min(b, m_max) powers and a giant step gives all b of its
    traces; each p_m is a trace of the same product chain, so it depends on
    m alone, not on m_max.  The result is memoized on (rho, m_max), one
    entry deep, as singularities is on rho (the memo keeps that state alive
    until the next call with another key), so a verdict after a table on
    the same state and order is a lookup.  The eigenvalues are never read,
    so this route stays independent of the rational one.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    a = rho.matrix
    n = a.shape[0]
    stack = np.empty((min(POWER_BLOCK, m_max), n, n), dtype=complex)
    stack[0] = a
    for i in range(1, len(stack)):
        np.matmul(stack[i - 1], a, out=stack[i])
    values = np.trace(stack, axis1=1, axis2=2).real.tolist()
    if m_max > POWER_BLOCK:
        rows = stack.reshape(POWER_BLOCK, n * n)
        for giant in accumulate(repeat(stack[-1]), np.matmul):
            values += (rows @ giant.T.ravel()).real.tolist()
            if len(values) >= m_max:
                break
    return tuple(values[:m_max])


def partial_trace(rho: DensityMatrix, dims, keep: str) -> DensityMatrix:
    """Trace out one subsystem of a bipartite state.

    dims is (d_a, d_b) with subsystem A the slow index; keep selects the
    subsystem retained ("A" or "B").  The reduced matrix is revalidated.
    """
    d_a, d_b = dims
    if d_a < 1 or d_b < 1 or d_a * d_b != rho.dim:
        raise DimensionMismatch(
            f"subsystem dims {d_a}x{d_b} do not factor dimension {rho.dim}"
        )
    r = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    if keep == "B":
        reduced = np.trace(r, axis1=0, axis2=2)
    elif keep == "A":
        reduced = np.trace(r, axis1=1, axis2=3)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return validate_density(reduced, rho.tol)


def random_density(dim: int, seed: int) -> DensityMatrix:
    """Seeded full-rank random density matrix (normalized Wishart sample), dim <= MAX_DIM."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if dim > MAX_DIM:
        raise CapExceeded(f"random state dim {dim} exceeds cap {MAX_DIM}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return validate_density(w / np.trace(w).real)


def _nbytes(value) -> int:
    """Bytes of the numpy arrays and bytes objects in a value, nested in tuples;
    anything else counts 0."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, bytes):
        return len(value)
    return sum(map(_nbytes, value)) if isinstance(value, tuple) else 0


class ByteBoundedCache:
    """The values of build(*key), each built on the first call for its key and kept
    while the bytes kept fit a budget.

    An entry costs the bytes of the numpy arrays and bytes objects in its key
    and value, nested in tuples, plus ENTRY_BYTES, so keys that take memory
    and empty values are bounded too.  Once keeping a new entry would pass
    the budget, the least recently used are dropped first, so many small
    values never push each other out; an entry larger than the whole budget
    is returned and not kept, and nothing is dropped for it.  A build that
    raises keeps and drops nothing.  hits, misses and nbytes count what the
    cache did and holds, and nbytes never passes the budget.
    """

    #: What an entry costs beyond those bytes: its dict slot, its tuples and
    #: its array headers, about 1 KiB for a prime plan with no classes.
    ENTRY_BYTES = 1024

    def __init__(self, build, budget: int):
        self.build = build
        self.budget = budget
        self.cache_clear()

    def cache_clear(self) -> None:
        self._entries = {}  # key -> (value, bytes), least recently used first
        self.hits = self.misses = self.nbytes = 0

    def __call__(self, *key):
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.hits += 1
            self._entries[key] = entry
            return entry[0]
        self.misses += 1
        value = self.build(*key)
        size = _nbytes((key, value)) + self.ENTRY_BYTES
        if size <= self.budget:
            while self.nbytes + size > self.budget:
                self.nbytes -= self._entries.pop(next(iter(self._entries)))[1]
            self._entries[key] = value, size
            self.nbytes += size
        return value


# -- matrix JSON format ------------------------------------------------------
#
# {"dim": n, "entries": [[re, im], ...]} with n*n row-major entries.

_PAIR_TYPES = frozenset((list, tuple))
_NUMBER_TYPES = frozenset((int, float))


def matrix_from_json(obj) -> np.ndarray:
    """Decode the matrix JSON format, rejecting malformed payloads.  Each entry
    is a list or tuple of two numbers of exact type int or float, as json.loads
    gives them; bools, strings and subclasses such as np.float64 are refused."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with 'dim' and 'entries'")
    n = obj["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("'dim' must be a positive integer")
    if n > MAX_DIM:
        raise CapExceeded(f"matrix dim {n} exceeds cap {MAX_DIM}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise DimensionMismatch(
            f"'entries' must hold {n * n} pairs for dim {n}, got {len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    # one pass over the types and lengths; the indexed loop only names the first bad entry
    if not (set(map(type, entries)) <= _PAIR_TYPES and set(map(len, entries)) == {2}
            and set(map(type, chain.from_iterable(entries))) <= _NUMBER_TYPES):
        for idx, pair in enumerate(entries):
            if not (type(pair) in _PAIR_TYPES and len(pair) == 2
                    and type(pair[0]) in _NUMBER_TYPES and type(pair[1]) in _NUMBER_TYPES):
                raise ValueError(f"entry {idx} is not a [re, im] pair of numbers")
    try:
        out = np.array(entries, dtype=float).view(complex)
    except OverflowError:
        raise ValueError("an entry exceeds the float range") from None
    return as_square_matrix(out.reshape(n, n))


def load_matrix(path) -> np.ndarray:
    """Read a matrix JSON file of at most MAX_FILE_BYTES bytes.  A regular
    file over the cap is refused by its size, unread; a pipe or other
    stream by reading one byte past the cap."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        too_big = stat.S_ISREG(info.st_mode) and info.st_size > MAX_FILE_BYTES
        data = b"" if too_big else fh.read(MAX_FILE_BYTES + 1)
    if too_big or len(data) > MAX_FILE_BYTES:
        raise CapExceeded(f"matrix file exceeds cap of {MAX_FILE_BYTES} bytes")
    try:
        obj = json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_json(obj)
