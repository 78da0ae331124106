"""Weighted digraphs of density matrices and their prime path classes.

A density matrix maps to a directed graph with one vertex per basis index
(labeled 1..n) and one weighted edge per nonzero entry, loops included.
The primes of such a graph are equivalence classes, under cyclic rotation,
of primitive closed walks; walks may revisit vertices and edges, and the
directed edges (i, j) and (j, i) are independent (no backtracking
constraint).  Each class is represented by the lexicographically least
rotation of its edge sequence, edges ordered by (origin, terminus); its
vertex sequence is a Lyndon word, and enumerate_primes generates each such
word once.
"""

import math
from dataclasses import dataclass

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


def enumerate_primes(g: WeightedDigraph, length_cap: int = 8):
    """Enumerate prime classes of closed walks up to the given length.

    A prime class is a Lyndon word over the vertex alphabet whose
    consecutive letters, and last and first letters, are joined by edges;
    comparing vertex words orders their edge sequences the same way, so the
    word is the class's canonical rotation.  Ruskey's prenecklace generator
    gen(t, p) builds each word once: a prenecklace of length t with period
    p grows along an edge to any successor >= its letter t - p, and it is
    a Lyndon word exactly when p == t.  Cost is exponential in the cap, so
    a search whose bound _search_steps exceeds MAX_SEARCH_STEPS is refused
    up front.

    Returns PrimeClass objects sorted by (nu, rep).
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
    out_edges = {v: {} for v in range(1, g.n_vertices + 1)}
    for edge, weight in g.weights.items():
        out_edges[edge[0]][edge[1]] = (edge, weight)
    by_length = [[] for _ in range(length_cap + 1)]
    word, walk = [], []

    def gen(t, p, norm):
        # word holds t vertices with period p; walk holds its t - 1 edges,
        # whose weights multiply to norm
        if p == t and word[0] in out_edges[word[-1]]:
            edge, weight = out_edges[word[-1]][word[0]]
            by_length[t].append(PrimeClass(rep=(*walk, edge), nu=t, edge_norm=norm * weight))
        if t == length_cap:
            return
        floor = word[t - p]
        for nxt, (edge, weight) in out_edges[word[-1]].items():
            if nxt < floor:
                continue
            word.append(nxt)
            walk.append(edge)
            gen(t + 1, p if nxt == floor else t + 1, norm * weight)
            word.pop()
            walk.pop()

    for start in range(1, g.n_vertices + 1):
        word.append(start)
        gen(1, 1, 1.0 + 0.0j)
        word.pop()
    # gen reaches itself through its closure; clearing it breaks that cycle,
    # so the buckets are freed on return, not at the next cycle collection
    del gen
    return [prime for bucket in by_length for prime in bucket]


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


def walk_vertices(rep) -> str:
    """Vertex-path rendering of a closed edge sequence, e.g. '1->2->1'."""
    if not rep:
        return ""
    verts = [str(rep[0][0])] + [str(edge[1]) for edge in rep]
    return "->".join(verts)


def primes_csv(primes) -> str:
    """CSV table of prime classes: nu, rep, norm_re, norm_im."""
    lines = ["nu,rep,norm_re,norm_im"]
    for p in primes:
        lines.append(f"{p.nu},{walk_vertices(p.rep)},{p.edge_norm.real!r},{p.edge_norm.imag!r}")
    return "\n".join(lines) + "\n"
