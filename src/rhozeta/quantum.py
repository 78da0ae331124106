"""Reference states, the registry of named states, and the brute-force copy-symmetry test.

The pure built-ins (plus, Bell, W, GHZ) are amplitude tables in
BUILTIN_STATES, each an equal superposition of a few basis states.

acceptance_probability evaluates the k-copy symmetric-subspace measurement
tr[P_sym rho^{(x)k}] by brute force over a basis of the symmetric
subspace: one occupation-number basis vector per multiset alpha of k basis
indices, whose diagonal entry of rho^{(x)k} is perm(rho[alpha, alpha]) /
alpha! (Aaronson & Arkhipov, Theory of Computing 9, 2013, section 3).
The permanents come from a subset recurrence run one layer of subsets per
size, on chunks of multisets at a time, so Python issues a few numpy calls
per layer and chunk rather than one per subset, and memory stays bounded.
Each (d, k) shape's multiset arrays are built once and kept while they fit
a byte budget, in a linalg.ByteBoundedCache, so a call on a shape seen
before pays only its arithmetic.
Neither the d^k x d^k projector nor the Kronecker power is ever formed.
It is deliberately independent of the series machinery in zeta.py so the
two can cross-check each other.
"""

from functools import lru_cache
from math import comb, factorial, sqrt

import numpy as np

from .errors import CapExceeded, InvalidParameter
from .linalg import MAX_DIM, ByteBoundedCache, DensityMatrix, partial_trace, random_density, validate_density

#: Caps of the acceptance oracle.  Its recurrence spends k 2^(k-1) complex multiply-adds
#: on each of the C(d+k-1, k) multisets, k/2 per entry of a C(d+k-1, k) 2^k table, so the
#: table cap bounds work, not memory: the multisets go through in chunks, and a run holds
#: one complex value per multiset beside the shape's multiset arrays (k small indices, k
#: row offsets and alpha! per multiset, at most 1.63 MiB, at (512, 2)).  A call that
#: builds its arrays peaks under 5 MiB traced at every cap edge, (512, 2) to (3, 12).
MAX_COPIES = 12
MAX_PERMANENT_TABLE = 2**20

#: Bytes of multiset arrays kept between oracle calls: MAX_COPIES shapes as wide as the
#: widest a state within linalg.MAX_DIM reaches, (MAX_DIM, 2), whose multisets take 2 x 2
#: bytes of index, 2 x 4 of row offset and 1 of alpha! each (19.5 MiB in all).  Every shape
#: the caps admit fits, and a small one takes a few hundred bytes and the cache's
#: ENTRY_BYTES, so it is never dropped for a count.
_SHAPE_CACHE_BYTES = MAX_COPIES * comb(MAX_DIM + 1, 2) * 13

#: Table entries per chunk of the oracle: it takes m = _CHUNK_ENTRIES >> k multisets at
#: a time (at least one, since this is at least 2^MAX_COPIES), so a chunk's temporaries
#: stay under 1 MiB.
_CHUNK_ENTRIES = 2**14


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


def check_isotropic_p(p: float) -> None:
    """Raise unless the isotropic parameter p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"isotropic parameter must lie in [0, 1], got {p!r}")


def isotropic_state(p: float) -> DensityMatrix:
    """Two-qubit interpolation: maximally entangled at p=0, maximally mixed at p=1."""
    check_isotropic_p(p)
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


@lru_cache(maxsize=MAX_COPIES)
def _layer_plan(k: int) -> tuple:
    """Index arrays of the permanent recurrence on k rows, one (source, column) pair per layer.

    Layer s holds the subsets S of {0..k-1} of size s, as bit masks in
    increasing order.  For the j-th smallest member a_j of each S, in
    member-major order (j outer), source is the position of S - {a_j} in
    layer s-1, and column is a_j k + s - 1, the row of the k^2 x m entry
    table that holds rho[alpha_(a_j), alpha_(s-1)].
    """
    masks = np.arange(1 << k)
    bits = (masks[:, None] >> np.arange(k)) & 1
    size = bits.sum(axis=1)
    position = np.zeros(1 << k, dtype=np.intp)
    plan = []
    for s in range(1, k + 1):
        layer = masks[size == s]
        position[layer] = np.arange(len(layer))
        members = np.nonzero(bits[layer])[1].reshape(len(layer), s).T
        plan.append((position[layer ^ (1 << members)].ravel(), (members * k + s - 1).ravel()))
    return tuple(plan)


def _build_shape(d: int, k: int) -> tuple:
    """The C(d+k-1, k) multisets of k indices below d as read-only arrays: table, row offsets, alpha!.

    The table is k x C in the narrowest unsigned dtype that holds d - 1:
    column j is the j-th sorted tuple of combinations_with_replacement, so
    row a holds every multiset's a-th smallest index.  In that order the
    multisets that start with index a are a followed by the (k-1)-multisets
    that start at a or above, a tail of the (d, k-1) table, so the table
    grows one row per step from the (d, 1) one.  The offsets are table * d,
    the start of each index's row in rho flattened, in the narrowest
    unsigned dtype that holds d^2 - 1, so an offset plus an index never
    overflows.  alpha! is held exactly in the narrowest unsigned dtype
    that holds k!.
    """
    index = np.arange(d, dtype=np.min_scalar_type(d - 1))
    table = index[None, :]
    for _ in range(1, k):
        starts = np.searchsorted(table[0], index)
        tails = np.concatenate([table[:, s:] for s in starts.tolist()], axis=1)
        table = np.vstack((np.repeat(index, table.shape[1] - starts), tails))
    offsets = table.astype(np.min_scalar_type(d * d - 1))
    offsets *= d
    weights = np.ones(table.shape[1], dtype=np.min_scalar_type(factorial(k)))
    run = np.ones(table.shape[1], dtype=np.uint8)
    for a in range(1, k):
        run = np.where(table[a] == table[a - 1], run + 1, 1)
        weights *= run
    for array in (table, offsets, weights):
        array.flags.writeable = False
    return table, offsets, weights


_multisets = ByteBoundedCache(_build_shape, _SHAPE_CACHE_BYTES)


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

    The permanents come from a subset recurrence over rows, with columns
    taken in order: P[{}] = 1 and P[S] = sum_{a in S} P[S - {a}]
    rho[alpha_a, alpha_{|S|-1}], members a in ascending order.  It has no
    subtractions, unlike Ryser's formula, so nothing cancels.  It runs one
    layer per subset size s: each layer is two gathers, a product and a sum
    over the s members of each subset, for a chunk of m multisets at once,
    so the adds keep that order and the floats match a loop over subsets.
    The last layer, one subset, adds its k member rows with an accumulate:
    when m = 1 its sum would be over k lone entries, which numpy adds
    pairwise, in another order, once k >= 8.  A chunk's k^2 entries
    rho[alpha_a, alpha_b] are one gather from rho flattened, at the row
    offset of alpha_a plus the index alpha_b.  The cost is
    O(C(d+k-1, k) k 2^k) time; memory is one complex value per multiset,
    the (d, k) multiset arrays of _multisets, built on the first call for
    their shape and kept within the cache's byte budget, and a chunk's
    temporaries.
    """
    check_copy_caps(rho.dim, k)
    plan = _layer_plan(k)
    table, offsets, weights = _multisets(rho.dim, k)
    flat = rho.matrix.ravel()
    chunk = _CHUNK_ENTRIES >> k
    values = np.empty(len(weights), dtype=complex)
    for start in range(0, len(values), chunk):
        stop = start + chunk
        weight = weights[start:stop]
        m = len(weight)
        entry = flat.take(offsets[:, None, start:stop] + table[None, :, start:stop]).reshape(k * k, m)
        perm = np.ones((1, m), dtype=complex)
        for s, (source, column) in enumerate(plan, start=1):
            terms = perm.take(source, axis=0)
            terms *= entry.take(column, axis=0)
            terms = terms.reshape(s, -1, m)
            perm = terms.sum(axis=0) if s < k else np.add.accumulate(terms, axis=0)[-1]
        np.divide(perm[0], weight, out=values[start:stop])
    return float(values.sum().real)
