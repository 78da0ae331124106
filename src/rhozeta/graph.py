"""Weighted digraphs of density matrices and their prime path classes.

A density matrix maps to a directed graph with one vertex per basis index
(labeled 1..n) and one weighted edge per nonzero entry, loops included.
The primes of such a graph are equivalence classes, under cyclic rotation,
of primitive closed walks; walks may revisit vertices and edges, and the
directed edges (i, j) and (j, i) are independent (no backtracking
constraint).  Each class is represented by the lexicographically least
rotation of its edge sequence, edges ordered by (origin, terminus); its
vertex sequence is a Lyndon word, and enumerate_primes generates each such
word once, by a breadth-first prenecklace search over numpy arrays, one
step per length.  It returns PrimeClasses: per-length arrays of words and
edge norms, read as a sequence of PrimeClass items.  complex_product
multiplies norms as Python's complex multiply does, bit for bit, so the
array search and the Euler expansion give the same floats as a loop over
Python numbers.
"""

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import AllLoops, CapExceeded
from .linalg import DEFAULT_TOL, DensityMatrix, validate_density

#: Hard cap on prime length; enumeration cost grows exponentially.
PRIME_LENGTH_CAP = 14

#: Hard cap on the bound _search_steps puts on the prime search.
MAX_SEARCH_STEPS = 5_000_000

#: Entries with magnitude at or below this produce no edge.
DEFAULT_ZERO_TOL = 1e-12


class WeightedDigraph:
    """Directed graph with complex edge weights and vertices labeled 1..n.

    At most one edge per ordered vertex pair; loops allowed; every stored
    weight is nonzero.
    """

    def __init__(self, n_vertices: int, edges):
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        weights = {}
        for origin, terminus, weight in edges:
            if not (1 <= origin <= n_vertices and 1 <= terminus <= n_vertices):
                raise ValueError(f"edge ({origin}, {terminus}) outside vertex range 1..{n_vertices}")
            if (origin, terminus) in weights:
                raise ValueError(f"duplicate edge ({origin}, {terminus})")
            w = complex(weight)
            if w == 0 or not (np.isfinite(w.real) and np.isfinite(w.imag)):
                raise ValueError(f"edge ({origin}, {terminus}) weight must be nonzero and finite")
            weights[(origin, terminus)] = w
        self.n_vertices = n_vertices
        self.weights = dict(sorted(weights.items()))

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    def __repr__(self):
        return f"WeightedDigraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


@dataclass(frozen=True)
class PrimeClass:
    """Canonical representative of a rotation class of primitive closed walks.

    rep is the lexicographically least rotation of the edge sequence, stored
    as (origin, terminus) pairs; nu is its length and edge_norm the product
    of the traversed edge weights.
    """

    rep: tuple
    nu: int
    edge_norm: complex


class LaplacianWeights:
    """Magnitude-symmetric weight function for the Laplacian construction.

    Holds n_vertices and a mapping (i, j) -> complex weight in which
    |w[i, j]| and |w[j, i]| agree (within 1e-12 relative; only magnitudes
    enter the Laplacian, so phases are unconstrained).
    """

    _MAG_RTOL = 1e-12

    def __init__(self, n_vertices: int, weights: dict):
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        clean = {}
        for (i, j), w in weights.items():
            if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
                raise ValueError(f"weight index ({i}, {j}) outside vertex range")
            w = complex(w)
            if w == 0:
                continue
            clean[(i, j)] = w
        for (i, j), w in clean.items():
            partner = clean.get((j, i))
            if partner is None:
                raise ValueError(f"missing reverse weight for ({i}, {j})")
            if abs(abs(w) - abs(partner)) > self._MAG_RTOL * abs(w):
                raise ValueError(f"|w[{i},{j}]| != |w[{j},{i}]|")
        self.n_vertices = n_vertices
        self.weights = dict(sorted(clean.items()))


def graph_from_density(rho: DensityMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> WeightedDigraph:
    """Build the weighted digraph of a density matrix.

    Vertices 1..n, one per basis index; edge (i, j) with weight rho_ij
    whenever |rho_ij| exceeds zero_tol.  Both directions appear when both
    entries are nonzero.
    """
    if not 0 <= zero_tol < math.inf:
        raise ValueError("zero_tol must be finite and nonnegative")
    a = rho.matrix
    rows, cols = np.nonzero(np.abs(a) > zero_tol)
    edges = [(i + 1, j + 1, a[i, j]) for i, j in zip(rows.tolist(), cols.tolist())]
    return WeightedDigraph(rho.dim, edges)


def density_from_weighted_graph(g: LaplacianWeights, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Density matrix of a weighted graph via its normalized Laplacian.

    Adjacency holds the weight magnitudes, degrees are row sums, and the
    Laplacian (degree matrix minus adjacency) is normalized by its trace.
    Magnitude symmetry makes the result positive semi-definite.
    """
    n = g.n_vertices
    adjacency = np.zeros((n, n))
    for (i, j), w in g.weights.items():
        adjacency[i - 1, j - 1] = abs(w)
    degrees = adjacency.sum(axis=1)
    laplacian = np.diag(degrees) - adjacency
    lap_trace = float(np.trace(laplacian))
    if lap_trace <= 0.0:
        raise AllLoops("Laplacian trace is zero: graph consists only of loops")
    return validate_density(laplacian / lap_trace, tol)


def _search_steps(g: WeightedDigraph, length_cap: int) -> float:
    """Bound on the edges enumerate_primes appends: over start vertices s,
    the walks of length 1..length_cap from s that stay on vertices >= s.
    Every prenecklace the search visits is such a walk.

    Counted with the 0/1 adjacency matrix in float64, exact below 2**53.
    """
    n = g.n_vertices
    adjacency = np.zeros((n, n))
    for i, j in g.weights:
        adjacency[i - 1, j - 1] = 1.0
    total = 0.0
    for s in range(n):
        sub = adjacency[s:, s:]
        walks = sub[0]
        for _ in range(length_cap):
            total += walks.sum()
            walks = walks @ sub
    return total


def complex_product(a, b) -> np.ndarray:
    """Elementwise a * b of complex arrays, rounded as CPython rounds complex * complex.

    numpy's SIMD complex multiply may fuse a multiply and an add, which rounds
    once where CPython rounds twice, and so differs from it in the last bit
    of many products.  Each part is formed here from real products and one
    sum, re = ar*br - ai*bi and im = ar*bi + ai*br, as CPython forms it, so
    every element equals the Python product bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class PrimeClasses(Sequence):
    """Prime classes of lengths 1..len(words), sorted by (nu, rep).

    words[nu - 1] is a (count, nu) array whose rows are the Lyndon vertex
    words of the classes of length nu, ascending, and norms[nu - 1] holds
    their complex edge norms.  A read-only sequence of PrimeClass: each item
    is built from its row only when it is read.
    """

    def __init__(self, words, norms):
        self.words = tuple(words)
        self.norms = tuple(norms)
        self._ends = list(accumulate(len(x) for x in self.norms))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        k = bisect_right(self._ends, i)
        row = i - (self._ends[k - 1] if k else 0)
        return _prime_class(self.words[k][row].tolist(), self.norms[k][row].item())

    def __iter__(self):
        for words, norms in zip(self.words, self.norms):
            for word, norm in zip(words.tolist(), norms.tolist()):
                yield _prime_class(word, norm)


def _prime_class(word, norm) -> PrimeClass:
    return PrimeClass(rep=tuple(zip(word, word[1:] + word[:1])), nu=len(word), edge_norm=norm)


def enumerate_primes(g: WeightedDigraph, length_cap: int = 8) -> PrimeClasses:
    """Enumerate prime classes of closed walks up to the given length.

    A prime class is a Lyndon word over the vertex alphabet whose
    consecutive letters, and last and first letters, are joined by edges;
    comparing vertex words orders their edge sequences the same way, so the
    word is the class's canonical rotation.  Ruskey's prenecklace scheme
    builds each word once: a prenecklace of length t with period p grows
    along an edge to any successor >= its letter t - p, and it is a Lyndon
    word exactly when p == t.  Cost is exponential in the cap, so a search
    whose bound _search_steps exceeds MAX_SEARCH_STEPS is refused up front.

    The search is breadth first.  Level t holds every prenecklace of length
    t as rows of a word array, with its period and the norm of its t - 1
    edges.  Edges are keyed origin*(n+1) + terminus, in sorted order, so
    the successors of a word are one run of keys; one searchsorted finds
    every run of a level and np.repeat lays out the next level.  Children
    follow their parent in ascending terminus order, so each level, and
    the classes taken from it, are in lexicographic order without a sort.
    Norms are multiplied with complex_product, left to right from 1 + 0j,
    so each is the same float as a product of Python complex numbers.  A
    level has at most as many rows as the search takes steps, so memory is
    bounded by MAX_SEARCH_STEPS.
    """
    if length_cap < 1:
        raise ValueError("length cap must be at least 1")
    if length_cap > PRIME_LENGTH_CAP:
        raise CapExceeded(f"length cap {length_cap} exceeds hard cap {PRIME_LENGTH_CAP}")
    steps = _search_steps(g, length_cap)
    if steps > MAX_SEARCH_STEPS:
        raise CapExceeded(
            f"length cap {length_cap} needs {steps:.3g} search steps, above cap {MAX_SEARCH_STEPS}"
        )
    n = g.n_vertices
    letter = np.min_scalar_type(n)
    edges = np.array(list(g.weights), dtype=np.intp).reshape(-1, 2)
    weights = np.array(list(g.weights.values()), dtype=complex)
    termini = edges[:, 1].astype(letter)
    # a sentinel above every key keeps each searchsorted position in range
    keys = np.append(edges[:, 0] * (n + 1) + edges[:, 1], (n + 1) ** 2)
    run_end = np.searchsorted(keys, np.arange(1, n + 2) * (n + 1))  # run_end[v]: past v's last edge

    word = np.arange(1, n + 1, dtype=letter)[:, None]
    period = np.ones(n, dtype=np.uint8)
    norm = np.ones(n, dtype=complex)
    words, norms = [], []
    for t in range(1, length_cap + 1):
        last = word[:, -1].astype(np.intp)
        lyndon = np.flatnonzero(period == t)
        closing = last[lyndon] * (n + 1) + word[lyndon, 0]
        at = np.searchsorted(keys, closing)
        closes = keys[at] == closing
        words.append(word[lyndon[closes]])
        norms.append(complex_product(norm[lyndon[closes]], weights[at[closes]]))
        if t == length_cap:
            break
        floor = word[np.arange(len(word)), t - period]
        first = np.searchsorted(keys, last * (n + 1) + floor)
        counts = run_end[last] - first
        parent = np.repeat(np.arange(len(word)), counts)
        edge = np.arange(len(parent)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        grown = termini[edge]
        period = np.where(grown == floor[parent], period[parent], np.uint8(t + 1))
        if t + 1 == length_cap:
            # the last level is read only for its classes: keep the Lyndon words that close
            closing = grown.astype(np.intp) * (n + 1) + word[parent, 0]
            keep = (period == length_cap) & (keys[np.searchsorted(keys, closing)] == closing)
            parent, edge, grown, period = parent[keep], edge[keep], grown[keep], period[keep]
        word = np.concatenate([word[parent], grown[:, None]], axis=1)
        norm = complex_product(norm[parent], weights[edge])
    return PrimeClasses(words, norms)


def _format_weight(w: complex) -> str:
    return f"{w.real:.6g}{w.imag:+.6g}i"


def export_dot(g: WeightedDigraph) -> str:
    """Render the graph as DOT text with deterministic ordering."""
    lines = ["digraph G {"]
    for v in range(1, g.n_vertices + 1):
        lines.append(f"  v{v};")
    for (i, j), w in g.weights.items():
        lines.append(f'  v{i} -> v{j} [label="{_format_weight(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def primes_csv(primes: PrimeClasses) -> str:
    """CSV table of prime classes: nu, rep, norm_re, norm_im.

    rep is the closed vertex path of the class, e.g. 1->2->1.
    """
    top = max((int(w.max()) for w in primes.words if w.size), default=0)
    label = [str(v) for v in range(top + 1)]
    lines = ["nu,rep,norm_re,norm_im"]
    for nu, (words, norms) in enumerate(zip(primes.words, primes.norms), start=1):
        for word, re, im in zip(words.tolist(), norms.real.tolist(), norms.imag.tolist()):
            path = "->".join([label[v] for v in word])
            lines.append(f"{nu},{path}->{label[word[0]]},{re!r},{im!r}")
    return "\n".join(lines) + "\n"
