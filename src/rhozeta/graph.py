"""Weighted digraphs of density matrices and their prime path classes.

A density matrix maps to a directed graph with one vertex per basis index
(labeled 1..n) and one weighted edge per nonzero entry, loops included:
its weighted adjacency matrix is the density matrix itself, which is how
WeightedDigraph stores it, and every reader takes edges from that matrix.
The primes of such a graph are equivalence classes, under cyclic rotation,
of primitive closed walks; walks may revisit vertices and edges, and the
directed edges (i, j) and (j, i) are independent (no backtracking
constraint).  With at most one edge per ordered pair, a class is fixed by
its vertex word, and its least rotation is a Lyndon word.  enumerate_primes
finds them in two phases.  The symbolic phase depends on the edge pattern
and the length cap alone: a breadth-first prenecklace search over numpy
arrays, one step per length, generates each word once and records, as
index arrays, how each level's rows grow from the last and which rows close
along which edge.  The search counts the rows it builds and refuses, before
laying it out, a level that would take that count above MAX_SEARCH_STEPS.
Its plan is kept, by (length cap, pattern), in a byte-bounded cache, so
another weighting of the same pattern skips it.  The numeric phase gathers
edge weights along the plan and multiplies the norms with complex_product,
which rounds as Python's complex multiply does, bit for bit, so it gives
the same floats as a loop over Python numbers.  The result is
PrimeClasses: per-length arrays of words and edge norms, iterated as
PrimeClass items.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AllLoops, CapExceeded
from .linalg import ZERO_TOL, ByteBoundedCache, DensityMatrix, as_square_matrix, validate_density

#: Hard cap on prime length; enumeration cost grows exponentially.
PRIME_LENGTH_CAP = 14

#: Hard cap on the rows the prime search builds, summed over its levels.
MAX_SEARCH_STEPS = 5_000_000


class WeightedDigraph:
    """Directed graph with complex edge weights and vertices labeled 1..n.

    Stored as its n x n weight matrix, read-only: weights[i - 1, j - 1] is
    the weight of edge (i, j), and zero means no edge.  Loops allowed.
    """

    def __init__(self, weights):
        weights = as_square_matrix(weights).copy()
        weights.flags.writeable = False
        self.weights = weights

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.weights))

    def __repr__(self):
        return f"WeightedDigraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


@dataclass(frozen=True)
class PrimeClass:
    """A rotation class of primitive closed walks.

    word is its Lyndon vertex word (1-based), nu its length and edge_norm
    the product of the traversed edge weights, the closing edge included.
    """

    word: tuple
    nu: int
    edge_norm: complex


class LaplacianWeights:
    """Magnitude-symmetric weight function for the Laplacian construction.

    Built from n_vertices and a mapping (i, j) -> complex weight in which
    |w[i, j]| and |w[j, i]| agree (within 1e-12 relative; a missing weight
    has magnitude 0).  Only magnitudes enter the Laplacian, so phases are
    unconstrained and only the n x n magnitude matrix is kept.
    """

    _MAG_RTOL = 1e-12

    def __init__(self, n_vertices: int, weights: dict):
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        magnitudes = np.zeros((n_vertices, n_vertices))
        for (i, j), w in weights.items():
            if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
                raise ValueError(f"weight index ({i}, {j}) outside vertex range")
            magnitudes[i - 1, j - 1] = abs(complex(w))
        asymmetric = np.argwhere(np.abs(magnitudes - magnitudes.T) > self._MAG_RTOL * magnitudes)
        if len(asymmetric):
            i, j = asymmetric[0] + 1
            raise ValueError(f"|w[{i},{j}]| != |w[{j},{i}]|")
        magnitudes.flags.writeable = False
        self.magnitudes = magnitudes


def graph_from_density(rho: DensityMatrix) -> WeightedDigraph:
    """Build the weighted digraph of a density matrix.

    Vertices 1..n, one per basis index; edge (i, j) with weight rho_ij
    whenever |rho_ij| exceeds ZERO_TOL.  Both directions appear when both
    entries are nonzero.
    """
    a = rho.matrix
    return WeightedDigraph(np.where(np.abs(a) > ZERO_TOL, a, 0))


def density_from_weighted_graph(g: LaplacianWeights) -> DensityMatrix:
    """Density matrix of a weighted graph via its normalized Laplacian.

    Adjacency holds the weight magnitudes, degrees are row sums, and the
    Laplacian (degree matrix minus adjacency) is normalized by its trace.
    Magnitude symmetry makes the result positive semi-definite.
    """
    adjacency = g.magnitudes
    degrees = adjacency.sum(axis=1)
    laplacian = np.diag(degrees) - adjacency
    lap_trace = float(np.trace(laplacian))
    if lap_trace <= 0.0:
        raise AllLoops("Laplacian trace is zero: graph consists only of loops")
    return validate_density(laplacian / lap_trace)


def complex_product(a, b) -> np.ndarray:
    """Elementwise a * b of complex arrays, rounded as CPython rounds complex * complex.

    It is the one product the prime search uses.  numpy's SIMD complex
    multiply may fuse a multiply and an add, which rounds once where CPython
    rounds twice, and so differs from it in the last bit of many products.
    Each part is formed here from real products and one sum,
    re = ar*br - ai*bi and im = ar*bi + ai*br, as CPython forms it, so every
    element equals the Python product bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class PrimeClasses:
    """Prime classes of lengths 1..len(words), sorted by (nu, word).

    words[nu - 1] is a (count, nu) array whose rows are the Lyndon vertex
    words of the classes of length nu, ascending, and norms[nu - 1] holds
    their complex edge norms.  Iteration yields PrimeClass items, each built
    from its row only when it is reached.
    """

    def __init__(self, words, norms):
        self.words = tuple(words)
        self.norms = tuple(norms)

    def __len__(self):
        return sum(len(x) for x in self.norms)

    def __iter__(self):
        for words, norms in zip(self.words, self.norms):
            for word, norm in zip(words.tolist(), norms.tolist()):
                yield PrimeClass(word=tuple(word), nu=len(word), edge_norm=norm)


#: Width of a word row: the first power of two >= PRIME_LENGTH_CAP, so
#: take copies each row whole (16 or 32 bytes for uint8 or uint16 letters).
_ROW = 1 << (PRIME_LENGTH_CAP - 1).bit_length()


def check_length_cap(length_cap: int) -> None:
    """Raise unless 1 <= length_cap <= PRIME_LENGTH_CAP, a bound that needs no graph."""
    if length_cap < 1:
        raise ValueError("length cap must be at least 1")
    if length_cap > PRIME_LENGTH_CAP:
        raise CapExceeded(f"length cap {length_cap} exceeds hard cap {PRIME_LENGTH_CAP}")


def _index_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype that indexes an array of the given length."""
    return np.min_scalar_type(max(size - 1, 0))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Plan(NamedTuple):
    """What a prime search finds from its edge pattern alone, for every length t.

    words[t - 1] holds the class words of length t, and closes[t - 1] the
    (lyndon, closing) pair: the level-t rows that close into those classes
    and their closing edges.  steps[t - 1] is the (parent, edge) pair that
    lays out level t + 1: each row's parent in level t and the edge it
    grows along.  Edges are numbered in np.nonzero order.  built is the
    search's row count.
    """

    words: tuple
    closes: tuple
    steps: tuple
    built: int


def _build_plan(length_cap: int, n: int, pattern: bytes) -> _Plan:
    """The breadth-first prenecklace search over the edge pattern packed in pattern.

    pattern is np.packbits of the n x n boolean edge matrix.  The search
    keeps no norms: it records, per level, which rows close and along which
    edge, and how each row of the next level grows from the last, every
    index array in the narrowest unsigned dtype that holds it.  It raises
    CapExceeded before it lays out a level that takes its running row count
    above MAX_SEARCH_STEPS.
    """
    mask = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8), count=n * n).reshape(n, n)
    stride = n + 1
    letter = np.min_scalar_type(n)
    origin, terminus = np.nonzero(mask)
    edge_index = _index_dtype(len(origin))
    termini = (terminus + 1).astype(letter)
    key = (origin + 1) * stride + terminus + 1
    # first_edge[k]: the first edge with key >= k; its last entry, at
    # (n+1)**2, ends vertex n's run.  edge_at[k]: the edge with key k, or -1.
    first_edge = np.searchsorted(key, np.arange(stride * stride + 1))
    edge_at = np.full(stride * stride, -1)
    edge_at[key] = np.arange(len(key))

    word = np.zeros((n, _ROW), dtype=letter)
    word[:, 0] = np.arange(1, n + 1)
    period = np.ones(n, dtype=np.uint8)
    words, closes, steps = [], [], []
    built = n
    for t in range(1, length_cap + 1):
        row_index = _index_dtype(len(word))
        row = word[:, t - 1].astype(np.intp) * stride  # the keys of the last letter's edges start here
        lyndon = np.flatnonzero(period == t)
        closing = edge_at[row[lyndon] + word[:, 0][lyndon]]
        closes_here = closing >= 0
        lyndon, closing = lyndon[closes_here], closing[closes_here]
        words.append(_frozen(word[lyndon, :t]))
        closes.append((_frozen(lyndon.astype(row_index)), _frozen(closing.astype(edge_index))))
        if t == length_cap:
            break
        floor = word.take(np.arange(len(word)) * _ROW + (t - period))
        # the last level is read only for its classes: it takes only the
        # successors above the floor, its Lyndon words, and keeps those that close
        last_level = t + 1 == length_cap
        first = first_edge[row + floor + last_level]
        counts = first_edge[row + stride] - first
        built += int(counts.sum())
        if built > MAX_SEARCH_STEPS:
            raise CapExceeded(
                f"length cap {length_cap} builds at least {built} search rows, above cap {MAX_SEARCH_STEPS}"
            )
        parent = np.repeat(np.arange(len(word)), counts)
        edge = np.arange(len(parent)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        grown = termini[edge]
        if last_level:
            closes_here = edge_at[grown.astype(np.intp) * stride + word[:, 0][parent]] >= 0
            parent, edge, grown = parent[closes_here], edge[closes_here], grown[closes_here]
        period = np.where(grown == floor[parent], period[parent], np.uint8(t + 1))
        word = word.take(parent, axis=0)
        word[:, t] = grown
        steps.append((_frozen(parent.astype(row_index)), _frozen(edge.astype(edge_index))))
    return _Plan(tuple(words), tuple(closes), tuple(steps), built)


#: Bytes of search plans kept between calls.  A search peaks at about 120 bytes
#: per row it builds (503 MB for the 4,284,864 rows of --state random --dim 64
#: --L 4), so one at MAX_SEARCH_STEPS may reach 600 MB, and kept plans may add a
#: twentieth of that.  A plan takes 4 to 18 bytes per row its search built: the
#: 12 shapes of the primes benchmark (1.6 MiB in all) fit many times over, and
#: the 65 MiB plan of --dim 64 --L 4 is returned and not kept.
_PLAN_CACHE_BYTES = MAX_SEARCH_STEPS * 120 // 20

_plans = ByteBoundedCache(_build_plan, _PLAN_CACHE_BYTES)


def enumerate_primes(g: WeightedDigraph, length_cap: int) -> PrimeClasses:
    """Enumerate prime classes of closed walks up to the given length.

    A prime class is a Lyndon word over the vertex alphabet whose consecutive
    letters, and last and first letters, are joined by edges.  Ruskey's
    prenecklace scheme builds each word once: a prenecklace of length t with
    period p grows along an edge to any successor >= its letter t - p, and it
    is a Lyndon word exactly when p == t.  Cost is exponential in the cap, so
    the search keeps a running count of the rows it builds, n for level 1 and
    then each level's exact size, and raises CapExceeded before it lays out a
    level that takes the count above MAX_SEARCH_STEPS.

    The words, their order and the edges each norm multiplies depend only on
    which weights are nonzero, so the search runs once per (length_cap,
    pattern) and its plan is kept in _plans, within _PLAN_CACHE_BYTES; a
    kept plan that built more rows than MAX_SEARCH_STEPS now allows is
    searched again, so the search itself refuses it.  The search is breadth first.  Level t holds
    every prenecklace of length t as the first t letters of a row of a
    (count, _ROW) word buffer, with its period.  Rows are gathered whole
    with take, and the letter t - p of every row is read from the flat
    buffer.  Edges are keyed origin*(n+1) + terminus, in sorted order, which
    is np.nonzero's order, so the successors of a word are one run of edges;
    two tables over all (n+1)**2 keys, built once, give the first edge at or
    above a key and the edge with a key (or -1), so one lookup finds where
    each run starts and ends and whether a word closes.  np.repeat lays out
    the next level.  The last level is built from successors above the floor
    letter only, which are its Lyndon words.  Children follow their parent
    in ascending terminus order, so each level, and the classes taken from
    it, are in lexicographic order without a sort.  The plan keeps each
    length's class words as a read-only (count, t) array, the rows that close
    with their closing edges, and each level's parent rows and edges.

    The numeric pass runs the same products on every call: from norms of
    1 + 0j on level 1, a level's norms are its parents' norms times the
    edges grown along, and its classes' norms those of its closing rows
    times their closing edges, all with complex_product, so each is the same
    float as a left-to-right product of Python complex numbers.  Every row
    held, in a level or among the classes kept, is one the count took in,
    so memory is bounded by MAX_SEARCH_STEPS rows; a refused search may
    first build up to that many.
    """
    check_length_cap(length_cap)
    n = g.n_vertices
    mask = g.weights != 0
    pattern = np.packbits(mask).tobytes()
    plan = _plans(length_cap, n, pattern)
    if plan.built > MAX_SEARCH_STEPS:  # kept under a larger cap: the search refuses it now
        plan = _build_plan(length_cap, n, pattern)
    weights = g.weights[mask]
    norm = np.ones(n, dtype=complex)
    norms = []
    for t, (lyndon, closing) in enumerate(plan.closes):
        if t:
            parent, edge = plan.steps[t - 1]
            norm = complex_product(norm.take(parent), weights.take(edge))
        norms.append(complex_product(norm.take(lyndon), weights.take(closing)))
    return PrimeClasses(plan.words, norms)
