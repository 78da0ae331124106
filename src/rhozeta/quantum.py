"""Reference states, the registry of named states, and the brute-force copy-symmetry test.

The pure built-ins (plus, Bell, W, GHZ) are amplitude tables in
BUILTIN_STATES, each an equal superposition of a few basis states.

acceptance_probability evaluates the k-copy symmetric-subspace measurement
tr[P_sym rho^{(x)k}] by brute force over a basis of the symmetric
subspace: one occupation-number basis vector per multiset alpha of k basis
indices, whose diagonal entry of rho^{(x)k} is perm(rho[alpha, alpha]) /
alpha! (Aaronson & Arkhipov, Theory of Computing 9, 2013, section 3).
Neither the d^k x d^k projector nor the Kronecker power is ever formed.
It is deliberately independent of the series machinery in zeta.py so the
two can cross-check each other.
"""

from itertools import chain, combinations_with_replacement
from math import comb, sqrt

import numpy as np

from .errors import CapExceeded, InvalidParameter
from .linalg import DensityMatrix, partial_trace, random_density, validate_density

#: Caps of the acceptance oracle.  Its recurrence holds a table of C(d+k-1, k) 2^k
#: complex entries (2^20 are 16 MiB) and spends k/2 multiply-adds per entry; each cap
#: edge with d <= 512, (512, 2) to (3, 12), runs in under 50 ms on a 2-vCPU Xeon.
#: The cap bounds the table only: the gather of k^2 C(d+k-1, k) entries of rho comes
#: on top, so the traced peak reaches 40.7 MiB at (91, 3) and 32.5 MiB at (33, 4).
MAX_COPIES = 12
MAX_PERMANENT_TABLE = 2**20


def _superposition(dim: int, support: list) -> np.ndarray:
    """Equal-weight superposition of the given basis states of C^dim."""
    amps = np.zeros(dim, dtype=complex)
    amps[support] = 1.0 / sqrt(len(support))
    return amps


def _pure(amps: np.ndarray) -> DensityMatrix:
    """The rank-one state of a unit vector."""
    return validate_density(np.outer(amps, amps.conj()))


def _reduced(amps: np.ndarray) -> DensityMatrix:
    """State of the last factors once the first qubit is traced out."""
    rho = _pure(amps)
    return partial_trace(rho, (2, rho.dim // 2), keep="B")


def isotropic_state(p: float) -> DensityMatrix:
    """Two-qubit interpolation: maximally entangled at p=0, maximally mixed at p=1."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"isotropic parameter must lie in [0, 1], got {p!r}")
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = (2.0 - p) / 4.0
    m[1, 1] = m[2, 2] = p / 4.0
    m[0, 3] = m[3, 0] = (1.0 - p) / 2.0
    return validate_density(m)


def sigma_state() -> DensityMatrix:
    """The two-qubit mixed diagonal state diag(1/3, 0, 0, 2/3)."""
    return validate_density(np.diag([1.0 / 3.0, 0.0, 0.0, 2.0 / 3.0]))


def _sigma3() -> DensityMatrix:
    s = sigma_state().matrix
    return validate_density(np.kron(np.kron(s, s), s))


#: Named states.  Every factory takes (p, dim, seed): p parametrizes the
#: isotropic state, dim and seed the random one; the others ignore them.
#: Pure states list their support as bit strings, first qubit most significant.
BUILTIN_STATES = {
    "plus": lambda p, dim, seed: _pure(_superposition(2, [0b0, 0b1])),
    "bell": lambda p, dim, seed: _pure(_superposition(4, [0b00, 0b11])),
    "bell-reduced": lambda p, dim, seed: _reduced(_superposition(4, [0b00, 0b11])),
    "maxmixed2": lambda p, dim, seed: validate_density(np.eye(2) / 2),
    "maxmixed4": lambda p, dim, seed: validate_density(np.eye(4) / 4),
    "w": lambda p, dim, seed: _pure(_superposition(8, [0b001, 0b010, 0b100])),
    "w-reduced": lambda p, dim, seed: _reduced(_superposition(8, [0b001, 0b010, 0b100])),
    "ghz": lambda p, dim, seed: _pure(_superposition(8, [0b000, 0b111])),
    "ghz-reduced": lambda p, dim, seed: _reduced(_superposition(8, [0b000, 0b111])),
    "isotropic": lambda p, dim, seed: isotropic_state(p),
    "sigma": lambda p, dim, seed: sigma_state(),
    "sigma3": lambda p, dim, seed: _sigma3(),
    "random": lambda p, dim, seed: random_density(dim, seed),
}


def builtin_state(name: str, p: float = 0.5, dim: int = 2, seed: int = 0) -> DensityMatrix:
    """Resolve a built-in state name to a density matrix."""
    try:
        factory = BUILTIN_STATES[name]
    except KeyError:
        raise InvalidParameter(
            f"unknown state {name!r}; choose from {', '.join(sorted(BUILTIN_STATES))}"
        ) from None
    return factory(p, dim, seed)


def check_copy_caps(d: int, k: int) -> None:
    """Raise unless k copies of dimension d fit the caps; any smaller d and k then fit too."""
    if k < 1 or d < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if k > MAX_COPIES:
        raise CapExceeded(f"k={k} exceeds cap {MAX_COPIES}")
    entries = comb(d + k - 1, k) << k
    if entries > MAX_PERMANENT_TABLE:
        raise CapExceeded(f"table of {entries} entries for d={d}, k={k} exceeds cap {MAX_PERMANENT_TABLE}")


def acceptance_probability(rho: DensityMatrix, k: int) -> float:
    """Acceptance probability of the k-copy symmetry test on rho.

    The trace of the symmetric projector against rho tensored with itself
    k times is (1/k!) sum_sigma sum_i prod_m rho[i_sigma(m), i_m] over the
    d^k basis tuples i.  The inner sum over sigma is the permanent of
    rho[i, i], which does not change when i is reordered, and each
    multiset alpha (a sorted tuple) stands for k!/alpha! tuples, alpha!
    being the product of the factorials of its multiplicities.  So the
    value is sum_alpha perm(rho[alpha, alpha]) / alpha! over the
    C(d+k-1, k) multisets.  alpha! is the product, over the sorted entries,
    of each entry's position within its run of equal entries.

    The permanents are computed for every multiset at once by a subset
    recurrence over rows, with columns taken in order: P[{}] = 1 and
    P[S] = sum_{a in S} P[S - {a}] rho[alpha_a, alpha_{|S|-1}], one vector
    multiply-add per (S, a) pair, k 2^(k-1) of them.  It has no
    subtractions, unlike Ryser's formula, so nothing cancels.  The cost is
    O(C(d+k-1, k) k 2^k) time and O(C(d+k-1, k) 2^k) memory.
    """
    check_copy_caps(rho.dim, k)
    flat = chain.from_iterable(combinations_with_replacement(range(rho.dim), k))
    idx = np.fromiter(flat, dtype=np.intp).reshape(-1, k).T
    entry = rho.matrix[idx[:, None, :], idx[None, :, :]]  # entry[a, b] = rho[alpha_a, alpha_b]
    weight = np.ones(idx.shape[1])
    run = np.ones(idx.shape[1])
    for m in range(1, k):
        run = np.where(idx[m] == idx[m - 1], run + 1.0, 1.0)
        weight *= run
    perm = [np.ones(idx.shape[1], dtype=complex)]
    for rows in range(1, 1 << k):
        column = entry[:, rows.bit_count() - 1]
        first, *rest = (a for a in range(k) if rows >> a & 1)
        total = perm[rows ^ 1 << first] * column[first]
        for a in rest:
            total += perm[rows ^ 1 << a] * column[a]
        perm.append(total)
    return float((perm[-1] / weight).sum().real)
