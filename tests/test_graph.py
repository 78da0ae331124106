"""Tests for the weighted digraph construction and prime enumeration."""

import gc
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refimpl import enumerate_primes_recursive, exact_euler_coeffs, primes_csv_rows, random_laplacian_weights
from rhozeta import cli, graph, zeta
from rhozeta.cli import dot_lines, primes_lines
from rhozeta.errors import AllLoops, CapExceeded, DimensionMismatch
from rhozeta.graph import (
    LaplacianWeights,
    PrimeClasses,
    WeightedDigraph,
    complex_product,
    density_from_weighted_graph,
    enumerate_primes,
    graph_from_density,
)
from rhozeta.linalg import random_density, validate_density
from rhozeta.quantum import BUILTIN_STATES, builtin_state

PLUS = validate_density(np.array([[1, 1], [1, 1]]) / 2)
MAXMIXED2 = validate_density(np.eye(2) / 2)


def edge_set(g):
    """The (origin, terminus) pairs of g's edges, vertices labeled from 1."""
    return [(i + 1, j + 1) for i, j in zip(*np.nonzero(g.weights))]


# -- graph_from_density --------------------------------------------------------

def test_plus_state_graph():
    g = graph_from_density(PLUS)
    assert g.n_vertices == 2
    assert set(edge_set(g)) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert np.allclose(g.weights, 0.5, rtol=0, atol=1e-12)


def test_maximally_mixed_graph_is_loops_only():
    g = graph_from_density(MAXMIXED2)
    assert set(edge_set(g)) == {(1, 1), (2, 2)}


def test_trivial_graph():
    g = graph_from_density(validate_density(np.array([[1.0]])))
    assert g.n_vertices == 1
    assert g.weights.tolist() == [[1.0 + 0j]]


def test_diagonal_density_gives_only_loops_and_length_one_primes():
    rho = validate_density(np.diag([0.2, 0.3, 0.5]))
    g = graph_from_density(rho)
    assert all(i == j for (i, j) in edge_set(g))
    primes = enumerate_primes(g, 4)
    assert all(p.nu == 1 for p in primes)


def test_weighted_digraph_holds_a_read_only_copy_of_a_finite_square_matrix():
    source = np.array([[0.5, 0.5], [0.0, 0.5]])
    g = WeightedDigraph(source)
    assert (g.n_vertices, g.n_edges) == (2, 3)
    source[1, 0] = 1.0
    assert g.weights[1, 0] == 0
    with pytest.raises(ValueError, match="read-only"):
        g.weights[0, 0] = 1.0
    for bad in (np.ones((2, 3)), np.ones(4), np.empty((0, 0))):
        with pytest.raises(DimensionMismatch):
            WeightedDigraph(bad)
    for bad in ([[math.nan]], [[0.5, math.inf], [0.0, 0.5]], [[complex(0.5, -math.inf)]]):
        with pytest.raises(ValueError, match="finite"):
            WeightedDigraph(bad)


def edge_matrix(g):
    """Edge adjacency W_E[e, f] = w(e) [terminus(e) = origin(f)], edges in row-major order."""
    origin, terminus = np.nonzero(g.weights)
    return g.weights[origin, terminus][:, None] * (terminus[:, None] == origin[None, :])


def test_edge_zeta_determinant_is_the_density_determinant():
    """The graph of rho has weighted adjacency matrix rho, so its edge zeta
    function (Stark and Terras) is the zeta function of rho:
    det(I - u W_E) = det(I - u rho)."""
    states = [builtin_state(name) for name in BUILTIN_STATES]
    states += [random_density(d, s) for d in range(1, 7) for s in range(3)]
    for rho in states:
        w_e = edge_matrix(graph_from_density(rho))
        for u in (0.3, 0.9, 1.7 + 0.4j):
            edge = np.linalg.det(np.eye(len(w_e)) - u * w_e)
            vertex = np.linalg.det(np.eye(rho.dim) - u * rho.matrix)
            assert abs(edge - vertex) <= 1e-12 * abs(vertex), (rho, u)


# -- density_from_weighted_graph ------------------------------------------------

def test_single_edge_path_graph():
    lw = LaplacianWeights(2, {(1, 2): 1.0, (2, 1): 1.0})
    rho = density_from_weighted_graph(lw)
    assert np.allclose(rho.matrix, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-14)


def test_loops_only_graph_rejected():
    lw = LaplacianWeights(2, {(1, 1): 1.0, (2, 2): 2.0})
    with pytest.raises(AllLoops):
        density_from_weighted_graph(lw)


def test_laplacian_density_is_psd():
    for seed in range(50):
        rho = density_from_weighted_graph(random_laplacian_weights(seed))
        assert rho.eigenvalues[0] >= -1e-10
        assert abs(np.trace(rho.matrix) - 1) < 1e-12


def test_laplacian_weights_reject_missing_reverse():
    with pytest.raises(ValueError):
        LaplacianWeights(2, {(1, 2): 1.0})


def test_laplacian_weights_reject_magnitude_mismatch():
    with pytest.raises(ValueError):
        LaplacianWeights(2, {(1, 2): 1.0, (2, 1): 2.0})


@pytest.mark.parametrize("n_vertices,weights,message", [
    (0, {}, "graph needs at least one vertex"),
    (2, {(1, 3): 1.0}, "weight index (1, 3) outside vertex range"),
    (2, {(0, 1): 1.0}, "weight index (0, 1) outside vertex range"),
])
def test_laplacian_weights_refuse_bad_vertices(n_vertices, weights, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LaplacianWeights(n_vertices, weights)


# -- enumerate_primes -----------------------------------------------------------

def test_maximally_mixed_primes():
    primes = enumerate_primes(graph_from_density(MAXMIXED2), 2)
    assert [(p.nu, p.word) for p in primes] == [(1, (1,)), (1, (2,))]


def test_plus_state_primes():
    primes = enumerate_primes(graph_from_density(PLUS), 2)
    assert len(primes) == 3
    loops = [p for p in primes if p.nu == 1]
    two = [p for p in primes if p.nu == 2]
    assert len(loops) == 2 and len(two) == 1
    for p in loops:
        assert abs(p.edge_norm - 0.5) < 1e-12
    assert two[0].word == (1, 2)
    assert abs(two[0].edge_norm - 0.25) < 1e-12


def test_single_loop_powers_are_not_primitive():
    g = WeightedDigraph([[1.0]])
    primes = enumerate_primes(g, 5)
    assert len(primes) == 1
    assert list(primes)[0].nu == 1


def test_enumeration_leaves_no_reference_cycles():
    # a self-referencing search closure kept every class alive until the
    # next cycle collection, which raised peak memory
    g = graph_from_density(PLUS)
    gc.collect()
    gc.disable()
    try:
        enumerate_primes(g, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_primes(graph_from_density(PLUS), 15)


def test_length_one_norms_sum_to_trace():
    """sum over classes with nu | m of nu * N(P)^(m/nu) equals tr(rho^m) for
    every m up to the cap; m = 1 says the loop norms sum to the trace."""
    length_cap = 5
    for seed in range(10):
        rho = random_density(2 + seed % 3, seed)
        primes = enumerate_primes(graph_from_density(rho), length_cap)
        for m in range(1, length_cap + 1):
            total = sum(p.nu * p.edge_norm ** (m // p.nu) for p in primes if m % p.nu == 0)
            trace = np.trace(np.linalg.matrix_power(rho.matrix, m))
            assert abs(total - trace) < 1e-10, (seed, m)


def test_classes_are_canonical_and_unique():
    """Brute-force rotation-set check on a random dense graph and a sparse
    one: each word is primitive and the least of its rotations, no two
    classes share a rotation, and the word closes along edges of the graph
    whose weights, multiplied from 1 + 0j, give its norm bit for bit."""
    for g in (graph_from_density(random_density(3, 17)), random_sparse_digraph(5)):
        weights = g.weights.tolist()
        seen = set()
        for p in enumerate_primes(g, 5):
            rotations = {p.word[k:] + p.word[:k] for k in range(p.nu)}
            assert len(rotations) == p.nu and min(rotations) == p.word
            assert not (rotations & seen)
            seen |= rotations
            norm = 1 + 0j
            for a, b in zip(p.word, p.word[1:] + p.word[:1]):
                assert weights[a - 1][b - 1] != 0
                norm *= weights[a - 1][b - 1]
            assert norm == p.edge_norm, p


def test_iteration_yields_each_row_of_the_arrays():
    # a PrimeClass is its row of words with that row's norm, in array order
    for g in (graph_from_density(random_density(4, 3)), random_sparse_digraph(2)):
        primes = enumerate_primes(g, 5)
        rows = [(tuple(word), len(word), norm.real.hex(), norm.imag.hex())
                for words, norms in zip(primes.words, primes.norms)
                for word, norm in zip(words.tolist(), norms.tolist())]
        assert len(rows) == len(primes) > 0
        assert [(p.word, p.nu, p.edge_norm.real.hex(), p.edge_norm.imag.hex()) for p in primes] == rows


def random_sparse_digraph(seed):
    """Random digraph on 3..8 vertices, each ordered pair an edge with
    probability 0.35, weights complex normal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    rows, cols = np.nonzero(rng.random((n, n)) < 0.35)
    weights = np.zeros((n, n), dtype=complex)
    for i, j in zip(rows.tolist(), cols.tolist()):
        weights[i, j] = complex(*rng.normal(size=2))
    return WeightedDigraph(weights)


def mobius(m):
    out, x, f = 1, m, 2
    while f * f <= x:
        if x % f == 0:
            x //= f
            if x % f == 0:
                return 0
            out = -out
        f += 1
    return -out if x > 1 else out


def test_prime_count_matches_necklace_census():
    """Against an independent count: closed walks of length m number tr(A^m)
    for the 0/1 adjacency matrix A (n^m for the complete digraph with loops);
    Moebius counting over divisors gives the primitive classes."""
    n = 3
    graphs = [graph_from_density(validate_density(np.full((n, n), 1 / n)))]
    graphs += [random_sparse_digraph(seed) for seed in range(6)]
    for g in graphs:
        by_len = {}
        for p in enumerate_primes(g, 6):
            by_len[p.nu] = by_len.get(p.nu, 0) + 1
        adjacency = (g.weights != 0).astype(np.int64)
        for m in range(1, 7):
            divisor_sum = sum(
                mobius(m // d) * int(np.trace(np.linalg.matrix_power(adjacency, d)))
                for d in range(1, m + 1)
                if m % d == 0
            )
            assert by_len.get(m, 0) == divisor_sum // m, (g, m)


def test_large_frontier_counts_lyndon_words():
    """A complete graph with loops on 6 vertices at L = 8 builds 271,654
    search rows; each length nu has (1/nu) sum_{d | nu} mu(d) 6^(nu/d)
    classes, the Lyndon words of length nu over 6 letters."""
    g = graph_from_density(random_density(6, 1))
    assert g.n_edges == 36
    primes = enumerate_primes(g, 8)
    counts = [len(norms) for norms in primes.norms]
    lyndon = [sum(mobius(d) * 6 ** (nu // d) for d in range(1, nu + 1) if nu % d == 0) // nu
              for nu in range(1, 9)]
    assert counts == lyndon
    assert len(primes) == sum(lyndon) == 259_475


def cycle_chord_laplacian(seed):
    """Laplacian state of an n-cycle with chords, random magnitudes and phases."""
    rng = np.random.default_rng(seed)
    n = 6 + seed % 7
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    pairs += [(i, (i + n // 2 - 1) % n + 1) for i in range(1, n + 1, 3)]
    weights = {}
    for i, j in pairs:
        if i != j and (i, j) not in weights:
            mag = rng.uniform(0.5, 1.5)
            weights[(i, j)] = mag * np.exp(2j * np.pi * rng.uniform())
            weights[(j, i)] = mag * np.exp(2j * np.pi * rng.uniform())
    return density_from_weighted_graph(LaplacianWeights(n, weights))


def wide_cycle_digraph(n):
    """Directed n-cycle with loops and a few backward chords, weights complex
    normal.  With n >= 256 the letters need uint16, and the chords close
    short primes on vertices on both sides of 255."""
    rng = np.random.default_rng(n)
    weights = np.zeros((n, n), dtype=complex)
    v = np.arange(n)
    chords = [(2, 0), (130, 126), (253, 251), (255, 252), (n - 1, n - 2)]
    for i, j in [*zip(v, v), *zip(v, (v + 1) % n), *chords]:
        weights[i, j] = complex(*rng.normal(size=2))
    return WeightedDigraph(weights)


#: Graphs the array search and the Euler expansion are compared on, with the
#: recursive generator and the exact Euler coefficients of tests/refimpl.py as
#: reference.
REFERENCE_GRAPHS = {
    "builtin": lambda: [graph_from_density(builtin_state(name)) for name in BUILTIN_STATES],
    "dense": lambda: [graph_from_density(random_density(d, s)) for d in range(1, 7) for s in range(3)],
    "sparse": lambda: [random_sparse_digraph(seed) for seed in range(12)],
    "laplacian": lambda: [graph_from_density(cycle_chord_laplacian(seed)) for seed in range(7)],
    "wide": lambda: [wide_cycle_digraph(n) for n in (256, 300)],
}


#: A reference length's search finds at most this many classes, for the
#: per-class exact Euler recurrence, and builds at most this many rows, about
#: the calls the recursive generator makes.  No graph above gets a longer
#: reference length than the walk bound the search was once capped by gave it.
REFERENCE_CLASSES, REFERENCE_ROWS = 1_000, 10_000


def reference_length(g):
    """The longest cap up to 14 whose search stays small enough to run the references."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "MAX_SEARCH_STEPS", REFERENCE_ROWS)
        for cap in range(2, graph.PRIME_LENGTH_CAP + 1):
            try:
                if len(enumerate_primes(g, cap)) > REFERENCE_CLASSES:
                    return cap - 1
            except CapExceeded:
                return cap - 1
    return graph.PRIME_LENGTH_CAP


def hex_classes(primes):
    return [(p.nu, p.word, p.edge_norm.real.hex(), p.edge_norm.imag.hex()) for p in primes]


@pytest.mark.parametrize("family", sorted(REFERENCE_GRAPHS))
def test_enumeration_matches_recursive_generator(family, monkeypatch):
    for g in REFERENCE_GRAPHS[family]():
        length_cap = reference_length(g)
        primes = enumerate_primes(g, length_cap)
        assert hex_classes(primes) == hex_classes(enumerate_primes_recursive(g, length_cap)), g
        rows = primes_csv_rows(primes).splitlines()
        assert list(primes_lines(primes)) == rows, g
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_SLICE", 7)  # levels of more than 7 classes span slices
            assert list(primes_lines(primes)) == rows, g


def assert_euler_within_exact_bound(primes, length_cap):
    """At every order up to length_cap, each c_a of euler_product_coeffs lies
    within (K + order) * 2^-52 * S_a of the exact value's real part, where K
    counts the classes up to the order and S_a is the expansion over |norm|."""
    exact, scale = exact_euler_coeffs(primes, length_cap)
    for order in range(length_cap + 1):
        coeffs = zeta.euler_product_coeffs(primes, order).coeffs
        classes = sum(len(norms) for norms in primes.norms[:order])
        for a, c in enumerate(coeffs):
            error = abs(Fraction(c) - exact[a][0])
            assert error <= (classes + order) * 2.0 ** -52 * scale[a], (order, a, float(error), scale[a])


@pytest.mark.parametrize("family", sorted(REFERENCE_GRAPHS))
def test_euler_matches_exact_reference(family, monkeypatch):
    # the sparse digraphs are not Hermitian; lifting the reality check lets
    # their coefficients be compared too, and an error in an imaginary part
    # reaches the real parts at higher orders
    monkeypatch.setattr(zeta, "_IMAG_TOL", math.inf)
    for g in REFERENCE_GRAPHS[family]():
        length_cap = reference_length(g)
        assert_euler_within_exact_bound(enumerate_primes(g, length_cap), length_cap)


@st.composite
def weighted_patterns(draw):
    """A digraph on 1..5 vertices from a random 0/1 edge pattern, loops-only and
    empty ones included, with complex normal weights, and a length cap up to 6."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["pattern", "loops", "empty"]))
    if kind == "pattern":
        pattern = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    else:
        pattern = np.eye(n, dtype=bool) if kind == "loops" else np.zeros((n, n), dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = np.where(pattern, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0)
    return WeightedDigraph(weights), draw(st.integers(1, 6))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(case=weighted_patterns())
def test_euler_within_exact_bound_on_random_patterns(case):
    """The exact bound holds at every order, order 0 is the constant series,
    and a length without classes between two with classes changes nothing:
    emptying it leaves the other lengths' product, within the same bound."""
    g, length_cap = case
    primes = enumerate_primes(g, length_cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeta, "_IMAG_TOL", math.inf)
        assert zeta.euler_product_coeffs(primes, 0).coeffs == (1.0,)
        assert_euler_within_exact_bound(primes, length_cap)
        gaps = [nu for nu in range(2, length_cap) if len(primes.norms[nu - 2]) and len(primes.norms[nu])]
        for nu in gaps:
            norms = list(primes.norms)
            norms[nu - 1] = norms[nu - 1][:0]
            words = list(primes.words)
            words[nu - 1] = words[nu - 1][:0]
            assert_euler_within_exact_bound(PrimeClasses(words, norms), length_cap)


def test_search_step_cap(monkeypatch):
    """The search builds one row per prenecklace shorter than the cap, and
    on its last level one per successor above the floor letter, which the
    recursive generator visits as the prenecklaces whose period is the cap:
    it runs at a cap of exactly that many rows and is refused at one less."""
    graphs = [g for family in ("dense", "sparse", "wide") for g in REFERENCE_GRAPHS[family]()]
    for g in graphs:
        length_cap = reference_length(g)
        assert length_cap >= 2, g  # the count is checked from the second level on
        visits = []
        enumerate_primes_recursive(g, length_cap, visits)
        rows = sum(1 for t, p in visits if t < length_cap or p == length_cap)
        monkeypatch.setattr(graph, "MAX_SEARCH_STEPS", rows)
        enumerate_primes(g, length_cap)
        monkeypatch.setattr(graph, "MAX_SEARCH_STEPS", rows - 1)
        with pytest.raises(CapExceeded, match=f"length cap {length_cap} builds at least {rows} search rows"):
            enumerate_primes(g, length_cap)


def test_prime_plan_is_built_once_per_pattern():
    # two weightings of one edge pattern share one plan; each gives the bits
    # of a cold search and of the recursive generator
    plans = graph._plans
    plans.cache_clear()
    pattern = random_sparse_digraph(3).weights != 0
    rng = np.random.default_rng(33)
    weightings = [WeightedDigraph(np.where(pattern, rng.standard_normal(pattern.shape)
                                           + 1j * rng.standard_normal(pattern.shape), 0)) for _ in range(2)]
    length_cap = 6
    warm = [enumerate_primes(g, length_cap) for g in weightings]
    assert (plans.misses, plans.hits) == (1, 1)
    (plan, _), = plans._entries.values()
    assert plan.closes[-1][0] is None  # the last level's rows are all classes: no row index
    for g, primes in zip(weightings, warm):
        plans.cache_clear()
        want = hex_classes(enumerate_primes_recursive(g, length_cap))
        assert hex_classes(primes) == hex_classes(enumerate_primes(g, length_cap)) == want, g
    for words in warm[0].words:
        with pytest.raises(ValueError):
            words[...] = 1
    # another L, another pattern, and one whose packed bits equal another's on
    # fewer vertices each get their own plan
    plans.cache_clear()
    other = pattern.copy()
    other[0, 0] = not other[0, 0]
    for g, cap in [(weightings[0], length_cap), (weightings[0], length_cap - 1),
                   (WeightedDigraph(other.astype(complex)), length_cap),
                   (WeightedDigraph([[1]]), 3), (WeightedDigraph([[1, 0], [0, 0]]), 3)]:
        enumerate_primes(g, cap)
    assert (plans.misses, plans.hits) == (5, 0)
    assert len(enumerate_primes(WeightedDigraph([[1, 0], [0, 0]]), 3)) == 1
    assert plans.hits == 1


def test_words_are_count_by_length_arrays_of_the_smallest_letter_dtype():
    for g, letter in [(graph_from_density(PLUS), np.uint8), (wide_cycle_digraph(300), np.uint16)]:
        primes = enumerate_primes(g, reference_length(g))
        for nu, (words, norms) in enumerate(zip(primes.words, primes.norms), start=1):
            assert words.dtype == letter and words.shape == (len(norms), nu), (g, nu)
            assert words.flags.c_contiguous, (g, nu)  # nu letters a class, not a view of wider rows
    assert primes.words[1].tolist() == [[299, 300]]
    assert [253, 254, 255, 256] in primes.words[3].tolist()


def test_complex_product_matches_python_bit_for_bit():
    """10^5 pairs mixing wide exponents, signed zeros, real-only and
    subnormal parts against CPython's complex multiply."""
    rng = np.random.default_rng(2024)
    size = 100_000
    parts = rng.standard_normal((4, size)) * 10.0 ** rng.integers(-150, 150, (4, size))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3e-320, 1.0, -1.0])
    pick = rng.random((4, size)) < 0.1
    parts[pick] = rng.choice(special, pick.sum())
    parts[1, rng.random(size) < 0.1] = 0.0  # real-only a
    parts[3, rng.random(size) < 0.1] = 0.0  # real-only b
    a, b = np.empty((2, size), dtype=complex)
    a.real, a.imag, b.real, b.imag = parts

    def hexes(values):
        return [(z.real.hex(), z.imag.hex()) for z in values]

    want = [x * y for x, y in zip(a.tolist(), b.tolist())]
    assert hexes(complex_product(a, b).tolist()) == hexes(want)
    # gathered complex arrays, as enumerate_primes passes norm[parent] and weights[edge]
    i, j = rng.integers(0, size, (2, size))
    want = [x * y for x, y in zip(a[i].tolist(), b[j].tolist())]
    assert hexes(complex_product(a[i], b[j]).tolist()) == hexes(want)
    # a column times a list of Python complex numbers, broadcast to a table
    column, row = a[:300], b[:400].tolist()
    want = [x * y for x in column.tolist() for y in row]
    assert hexes(complex_product(column[:, None], row).ravel().tolist()) == hexes(want)


def test_prime_classes_sequence_access():
    primes = enumerate_primes(graph_from_density(PLUS), 3)
    listed = list(primes)
    assert len(primes) == len(listed) == 5
    assert list(primes) == listed
    empty = PrimeClasses((), ())
    assert len(empty) == 0 and list(empty) == []


# -- DOT export -------------------------------------------------------------------

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NODE_RE = re.compile(r"^v(\d+);$")
_EDGE_RE = re.compile(rf'^v(\d+) -> v(\d+) \[label="({_FLOAT})([-+](?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)i"\];$')


def parse_dot(lines):
    """Strict grammar checker for the emitted DOT dialect; returns nodes, edges."""
    lines = list(lines)
    assert lines[0] == "digraph G {"
    assert lines[-1] == "}"
    nodes, edges = set(), {}
    for raw in lines[1:-1]:
        line = raw.strip()
        node = _NODE_RE.match(line)
        if node:
            nodes.add(int(node.group(1)))
            continue
        edge = _EDGE_RE.match(line)
        assert edge, f"line not in DOT grammar: {raw!r}"
        i, j = int(edge.group(1)), int(edge.group(2))
        edges[(i, j)] = complex(float(edge.group(3)), float(edge.group(4)))
    return nodes, edges


def test_dot_contains_loop_line():
    g = graph_from_density(validate_density(np.array([[1.0]])))
    assert any("v1 -> v1" in line for line in dot_lines(g))


def test_dot_plus_graph_edge_count():
    assert sum(1 for line in dot_lines(graph_from_density(PLUS)) if "->" in line) == 4


def test_dot_round_trips_through_parser():
    for seed in (1, 5, 9):
        rho = random_density(3, seed)
        g = graph_from_density(rho)
        nodes, edges = parse_dot(dot_lines(g))
        assert nodes == set(range(1, g.n_vertices + 1))
        assert set(edges) == set(edge_set(g))
        for (i, j), w in edges.items():
            want = g.weights[i - 1, j - 1]
            assert abs(w - want) <= 1e-5 * max(abs(want), 1.0)


# -- CSV ----------------------------------------------------------------------------

def test_primes_csv_layout():
    primes = enumerate_primes(graph_from_density(PLUS), 2)
    lines = list(primes_lines(primes))
    assert lines[0] == "nu,rep,norm_re,norm_im"
    assert len(lines) == 4
    assert lines[1].startswith("1,1->1,")
    assert lines[3].startswith("2,1->2->1,")
