"""Weighted digraphs of density matrices and their prime path classes.

A density matrix maps to a directed graph with one vertex per basis index
(labeled 1..n) and one weighted edge per nonzero entry, loops included:
its weighted adjacency matrix is the density matrix itself, which is how
WeightedDigraph stores it, and every reader takes edges from that matrix.
The primes of such a graph are equivalence classes, under cyclic rotation,
of primitive closed walks; walks may revisit vertices and edges, and the
directed edges (i, j) and (j, i) are independent (no backtracking
constraint).  With at most one edge per ordered pair, a class is fixed by
its vertex word, and its least rotation is a Lyndon word.

enumerate_primes finds them in two phases.  The symbolic phase depends on
the edge pattern and the length cap alone.  It is Ruskey's prenecklace
scheme pruned to graph edges, which generates each word once, run breadth
first with one numpy step per length.  A prenecklace of length t and
period p grows along an edge to any successor at or above its letter
t - p; the child keeps period p if it grows to that letter and has period
t + 1 otherwise, and a word is a Lyndon word exactly when its period is its
length.  Level t holds every prenecklace of length t as a row of a
fixed-width word buffer, gathered whole with take, and children follow
their parent in ascending successor order, so each level is in
lexicographic order without a sort.  Edges are keyed origin * (n + 1) +
terminus, which is np.nonzero's order, so a letter's successors are one
run of edges; two tables over all keys give the first edge at or above a
key and the edge with a key, so one lookup finds each run and one finds
each grown row's closing edge.  A level's classes are its Lyndon rows
that close; level 1's are the loops.  The last level grows only to
successors above the floor letter, which are its Lyndon words, and keeps
those that close, so all its rows are classes.  The search counts the rows
it builds and refuses, before laying it out, a level that would take that
count above MAX_SEARCH_STEPS.  Its plan is kept in a byte-bounded cache,
so another weighting of the same pattern skips it.  The numeric phase
takes each level's norms, from 1 + 0j on level 1, and edge weights along
the plan and multiplies them once: its classes' norms are their rows'
norms times their closing edges, and the next level's norms are the
parents' norms times the edges grown along.  Norms are two float planes,
real and imaginary, and each part is formed as Python's complex multiply
forms it, so the norms are the same floats as a loop over Python numbers.
The result is PrimeClasses: per-length arrays of words and edge
norms, iterated as PrimeClass items.
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


def _product(a, b):
    """Multiply a by b in place and return a, each a pair of real and imaginary float planes.

    Each part is formed as CPython forms complex * complex, re = ar*br - ai*bi
    and im = ar*bi + ai*br, every product and sum rounded once, so each element
    equals the Python product bit for bit; numpy's complex multiply may fuse a
    multiply and an add, and differ in the last bit.  a's planes share no memory with b.
    """
    (ar, ai), (br, bi) = a, b
    im = ar * bi
    ar *= br
    ar -= ai * bi
    ai *= br
    ai += im
    return a


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
    """What a prime search finds from its edge pattern alone; _build_plan says what it holds."""

    words: tuple
    gathers: tuple


def _build_plan(length_cap: int, n: int, pattern: bytes, max_rows: int) -> _Plan:
    """The prenecklace search over the n x n edge matrix that np.packbits packed into pattern.

    It raises CapExceeded before it lays out a level that takes its count of
    rows built, n for level 1 and then each level's exact size, above
    max_rows.  The plan keeps no norms.  For each length t, words[t - 1]
    holds the class words as a read-only (count, t) array, and gathers[t - 1]
    a (rows, edges) pair of level-t rows and the edges each is multiplied by:
    first the rows of those classes with their closing edges, then each
    row of level t + 1 as its parent with the edge it grows along.  On a
    grown last level, whose rows all are classes, rows is None.  Edges are
    numbered in np.nonzero order, and every index array is in the narrowest
    unsigned dtype that holds it.
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

    loops = np.flatnonzero(origin == terminus)
    words = [_frozen(termini[loops].reshape(-1, 1))]
    rows, closing = origin[loops].astype(_index_dtype(n)), loops.astype(edge_index)
    gathers = []
    word = np.zeros((n, _ROW), dtype=letter)
    word[:, 0] = np.arange(1, n + 1)
    period = np.ones(n, dtype=np.uint8)
    built = n
    for t in range(1, length_cap):
        row = word[:, t - 1].astype(np.intp) * stride  # the keys of the last letter's edges start here
        floor = word.take(np.arange(len(word)) * _ROW + (t - period))
        last_level = t + 1 == length_cap  # it takes only the successors above the floor: Lyndon words
        first = first_edge[row + floor + last_level]
        counts = first_edge[row + stride] - first
        built += int(counts.sum())
        if built > max_rows:
            raise CapExceeded(
                f"length cap {length_cap} builds at least {built} search rows, above cap {max_rows}"
            )
        parent = np.repeat(np.arange(len(word)), counts)
        edge = np.arange(len(parent)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        grown = termini[edge]
        shut = edge_at[grown.astype(np.intp) * stride + word[:, 0][parent]]  # each row's closing edge, or -1
        if last_level:  # keeps the rows that close, all of them classes
            keep = shut >= 0
            parent, edge, grown, lyndon = parent[keep], edge[keep], grown[keep], None
            shut = shut[keep].astype(edge_index)
        else:
            period = np.where(grown == floor[parent], period[parent], np.uint8(t + 1))
            lyndon = np.flatnonzero((period == t + 1) & (shut >= 0)).astype(_index_dtype(len(parent)))
            shut = shut[lyndon].astype(edge_index)
        # level t's gather: its classes' rows and closing edges, then level t + 1's parents and edges
        gathers.append((_frozen(np.concatenate((rows, parent), dtype=_index_dtype(len(word)), casting="unsafe")),
                        _frozen(np.concatenate((closing, edge), dtype=edge_index, casting="unsafe"))))
        rows, closing = lyndon, shut
        word = word.take(parent, axis=0)
        word[:, t] = grown
        words.append(_frozen(np.ascontiguousarray(word[:, :t + 1]) if rows is None else word[rows, :t + 1]))
    gathers.append((rows if rows is None else _frozen(rows), _frozen(closing)))
    return _Plan(tuple(words), tuple(gathers))


#: Bytes of search plans kept between calls.  A search peaks at about 70 bytes
#: per row it builds (298 MB for the 4,284,864 rows of --state random --dim 64
#: --L 4), so one at MAX_SEARCH_STEPS may reach 350 MB, and kept plans may add
#: a fourteenth of that.  A plan takes 8 to 14 bytes per row its search built:
#: the 12 shapes of the primes benchmark (1.5 MiB in all) fit many times over,
#: and the 49 MiB plan of --dim 64 --L 4 is returned and not kept.
_PLAN_CACHE_BYTES = 30_000_000

_plans = ByteBoundedCache(_build_plan, _PLAN_CACHE_BYTES)


def enumerate_primes(g: WeightedDigraph, length_cap: int) -> PrimeClasses:
    """The prime classes of g of lengths 1 to length_cap, sorted by (nu, word).

    Raises ValueError or CapExceeded for a length cap outside
    1..PRIME_LENGTH_CAP, and CapExceeded when the search would build more
    than MAX_SEARCH_STEPS rows.  Every row held is one that count took in,
    so memory is bounded by that many rows.  The plan is kept in _plans,
    within _PLAN_CACHE_BYTES, by (length_cap, n, pattern, MAX_SEARCH_STEPS).
    """
    check_length_cap(length_cap)
    n = g.n_vertices
    mask = g.weights != 0
    plan = _plans(length_cap, n, np.packbits(mask).tobytes(), MAX_SEARCH_STEPS)
    planes = np.array((g.weights.real[mask], g.weights.imag[mask]))
    norm = np.ones(n), np.zeros(n)
    norms = []
    for words, (rows, edges) in zip(plan.words, plan.gathers):
        re, im = _product(norm if rows is None else [part.take(rows) for part in norm], planes.take(edges, axis=1))
        out = np.empty(len(words), dtype=complex)
        out.real, out.imag = re[:len(out)], im[:len(out)]
        norm = re[len(out):], im[len(out):]
        norms.append(out)
    return PrimeClasses(plan.words, norms)
