"""Reference states, the registry of named states, and the brute-force copy-symmetry test.

acceptance_probability evaluates the k-copy symmetric-subspace measurement
by brute force over basis tuples: tr[P_sym rho^{(x)k}] is
(1/k!) sum_sigma sum_i prod_m rho[i_sigma(m), i_m], one permutation at a
time by index gather over the base-d digit table, so neither the
d^k x d^k projector nor the Kronecker power is ever formed.  It is
deliberately independent of the series machinery in zeta.py so the two
can cross-check each other.
"""

from itertools import permutations
from math import factorial, sqrt

import numpy as np

from .errors import CapExceeded, InvalidParameter
from .linalg import DEFAULT_TOL, DensityMatrix, partial_trace, random_density, validate_density

#: Hard caps on the copy count and on d^k.  They bound the acceptance
#: oracle's O(k! k d^k) gather.
MAX_COPIES = 5
MAX_PROJECTOR_DIM = 4096


class PureState:
    """A unit vector; density() gives the corresponding rank-one state."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size == 0 or not np.all(np.isfinite(amps)):
            raise InvalidParameter("amplitudes must be a nonempty finite vector")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > DEFAULT_TOL:
            raise InvalidParameter(f"state norm {norm!r} is not 1 within {DEFAULT_TOL:.1e}")
        amps.flags.writeable = False
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> DensityMatrix:
        return validate_density(np.outer(self.amplitudes, self.amplitudes.conj()))


def plus_state() -> PureState:
    return PureState(np.array([1.0, 1.0]) / sqrt(2.0))


def bell_state() -> PureState:
    return PureState(np.array([1.0, 0.0, 0.0, 1.0]) / sqrt(2.0))


def w_state() -> PureState:
    amps = np.zeros(8)
    amps[[0b001, 0b010, 0b100]] = 1.0 / sqrt(3.0)
    return PureState(amps)


def ghz_state() -> PureState:
    amps = np.zeros(8)
    amps[[0b000, 0b111]] = 1.0 / sqrt(2.0)
    return PureState(amps)


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


def _reduced(pure: PureState) -> DensityMatrix:
    """State of the last factors once the first qubit is traced out."""
    rho = pure.density()
    return partial_trace(rho, (2, rho.dim // 2), keep="B")


def _sigma3() -> DensityMatrix:
    s = sigma_state().matrix
    return validate_density(np.kron(np.kron(s, s), s))


#: Named states.  Every factory takes (p, dim, seed): p parametrizes the
#: isotropic state, dim and seed the random one; the others ignore them.
BUILTIN_STATES = {
    "plus": lambda p, dim, seed: plus_state().density(),
    "bell": lambda p, dim, seed: bell_state().density(),
    "bell-reduced": lambda p, dim, seed: _reduced(bell_state()),
    "maxmixed2": lambda p, dim, seed: validate_density(np.eye(2) / 2),
    "maxmixed4": lambda p, dim, seed: validate_density(np.eye(4) / 4),
    "w": lambda p, dim, seed: w_state().density(),
    "w-reduced": lambda p, dim, seed: _reduced(w_state()),
    "ghz": lambda p, dim, seed: ghz_state().density(),
    "ghz-reduced": lambda p, dim, seed: _reduced(ghz_state()),
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


def check_copy_caps(d: int, k: int) -> int:
    """Return d^k, or raise if k copies of dimension d exceed the caps."""
    if k < 1 or d < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if k > MAX_COPIES:
        raise CapExceeded(f"k={k} exceeds cap {MAX_COPIES}")
    n = d ** k
    if n > MAX_PROJECTOR_DIM:
        raise CapExceeded(f"d^k={n} exceeds cap {MAX_PROJECTOR_DIM}")
    return n


def _digits(d: int, k: int) -> np.ndarray:
    """Base-d digit table of 0..d^k-1, most significant digit first."""
    return np.stack(np.unravel_index(np.arange(d ** k), (d,) * k), axis=1)


def acceptance_probability(rho: DensityMatrix, k: int) -> float:
    """Acceptance probability of the k-copy symmetry test on rho.

    Brute force over the d^k basis tuples i = (i_0, ..., i_{k-1}):
    (1/k!) sum_sigma sum_i prod_m rho[i_sigma(m), i_m], which is the trace
    of the symmetric projector against rho tensored with itself k times.
    Each permutation gathers a d^k x k table of entries, so the cost is
    O(k! k d^k) time and O(k d^k) memory.
    """
    check_copy_caps(rho.dim, k)
    digits = _digits(rho.dim, k)
    total = 0j
    for perm in permutations(range(k)):
        total += np.prod(rho.matrix[digits[:, perm], digits], axis=1).sum()
    return float(total.real) / factorial(k)

