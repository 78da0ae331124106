"""Tests for the weighted digraph construction and prime enumeration."""

import gc
import math
import re

import numpy as np
import pytest

from rhozeta import graph
from rhozeta.errors import AllLoops, CapExceeded
from rhozeta.graph import (
    LaplacianWeights,
    WeightedDigraph,
    density_from_weighted_graph,
    enumerate_primes,
    export_dot,
    graph_from_density,
    primes_csv,
    walk_vertices,
)
from rhozeta.linalg import random_density, validate_density

PLUS = validate_density(np.array([[1, 1], [1, 1]]) / 2)
MAXMIXED2 = validate_density(np.eye(2) / 2)


# -- graph_from_density --------------------------------------------------------

def test_plus_state_graph():
    g = graph_from_density(PLUS)
    assert g.n_vertices == 2
    assert set(g.weights) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for w in g.weights.values():
        assert abs(w - 0.5) < 1e-12


def test_maximally_mixed_graph_is_loops_only():
    g = graph_from_density(MAXMIXED2)
    assert set(g.weights) == {(1, 1), (2, 2)}


def test_trivial_graph():
    g = graph_from_density(validate_density(np.array([[1.0]])))
    assert g.n_vertices == 1
    assert g.weights == {(1, 1): 1.0 + 0j}


def test_diagonal_density_gives_only_loops_and_length_one_primes():
    rho = validate_density(np.diag([0.2, 0.3, 0.5]))
    g = graph_from_density(rho)
    assert all(i == j for (i, j) in g.weights)
    primes = enumerate_primes(g, 4)
    assert all(p.nu == 1 for p in primes)


@pytest.mark.parametrize("zero_tol", [-1e-12, math.nan, math.inf])
def test_graph_rejects_bad_zero_tolerance(zero_tol):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        graph_from_density(PLUS, zero_tol)


# -- density_from_weighted_graph ------------------------------------------------

def test_single_edge_path_graph():
    lw = LaplacianWeights(2, {(1, 2): 1.0, (2, 1): 1.0})
    rho = density_from_weighted_graph(lw)
    assert np.allclose(rho.matrix, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-14)


def test_loops_only_graph_rejected():
    lw = LaplacianWeights(2, {(1, 1): 1.0, (2, 2): 2.0})
    with pytest.raises(AllLoops):
        density_from_weighted_graph(lw)


def random_laplacian_weights(seed):
    """Random magnitude-symmetric weights with independent phases."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    weights = {}
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            weights[(i, i)] = complex(rng.uniform(0.1, 2.0))
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                mag = rng.uniform(0.05, 3.0)
                weights[(i, j)] = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
                weights[(j, i)] = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    if not any(i != j for (i, j) in weights):
        weights[(1, 2)] = weights[(2, 1)] = 1.0
    return LaplacianWeights(n, weights)


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


# -- enumerate_primes -----------------------------------------------------------

def test_maximally_mixed_primes():
    primes = enumerate_primes(graph_from_density(MAXMIXED2), 2)
    assert [(p.nu, p.rep) for p in primes] == [(1, ((1, 1),)), (1, ((2, 2),))]


def test_plus_state_primes():
    primes = enumerate_primes(graph_from_density(PLUS), 2)
    assert len(primes) == 3
    loops = [p for p in primes if p.nu == 1]
    two = [p for p in primes if p.nu == 2]
    assert len(loops) == 2 and len(two) == 1
    for p in loops:
        assert abs(p.edge_norm - 0.5) < 1e-12
    assert two[0].rep == ((1, 2), (2, 1))
    assert abs(two[0].edge_norm - 0.25) < 1e-12


def test_single_loop_powers_are_not_primitive():
    g = WeightedDigraph(1, [(1, 1, 1.0)])
    primes = enumerate_primes(g, 5)
    assert len(primes) == 1
    assert primes[0].nu == 1


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


def test_search_step_cap(monkeypatch):
    # the plus graph is complete with loops: from vertex 1 the search
    # appends 2 + 4 + 8 edges up to length 3, from vertex 2 another 1 + 1 + 1
    g = graph_from_density(PLUS)
    monkeypatch.setattr(graph, "MAX_SEARCH_STEPS", 17)
    assert len(enumerate_primes(g, 3)) == 5
    monkeypatch.setattr(graph, "MAX_SEARCH_STEPS", 16)
    with pytest.raises(CapExceeded, match="17 search steps"):
        enumerate_primes(g, 3)


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
    """Brute-force rotation-set check on a random dense graph."""
    rho = random_density(3, 17)
    primes = enumerate_primes(graph_from_density(rho), 5)
    seen = set()
    for p in primes:
        rotations = {p.rep[k:] + p.rep[:k] for k in range(p.nu)}
        assert min(rotations) == p.rep
        assert not (rotations & seen)
        seen |= rotations
    # chained edges, closed
    for p in primes:
        for (a, b), (c, _) in zip(p.rep, p.rep[1:] + p.rep[:1]):
            assert b == c


def random_sparse_digraph(seed):
    """Random digraph on 3..8 vertices, each ordered pair an edge with
    probability 0.35, weights complex normal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    rows, cols = (x.tolist() for x in np.nonzero(rng.random((n, n)) < 0.35))
    return WeightedDigraph(n, [(i + 1, j + 1, complex(*rng.normal(size=2))) for i, j in zip(rows, cols)])


def test_prime_count_matches_necklace_census():
    """Against an independent count: closed walks of length m number tr(A^m)
    for the 0/1 adjacency matrix A (n^m for the complete digraph with loops);
    Moebius counting over divisors gives the primitive classes."""
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

    n = 3
    graphs = [graph_from_density(validate_density(np.full((n, n), 1 / n)))]
    graphs += [random_sparse_digraph(seed) for seed in range(6)]
    for g in graphs:
        by_len = {}
        for p in enumerate_primes(g, 6):
            by_len[p.nu] = by_len.get(p.nu, 0) + 1
        adjacency = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
        for i, j in g.weights:
            adjacency[i - 1, j - 1] = 1
        for m in range(1, 7):
            divisor_sum = sum(
                mobius(m // d) * int(np.trace(np.linalg.matrix_power(adjacency, d)))
                for d in range(1, m + 1)
                if m % d == 0
            )
            assert by_len.get(m, 0) == divisor_sum // m, (g, m)


# -- DOT export -------------------------------------------------------------------

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NODE_RE = re.compile(r"^v(\d+);$")
_EDGE_RE = re.compile(rf'^v(\d+) -> v(\d+) \[label="({_FLOAT})([-+](?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)i"\];$')


def parse_dot(text):
    """Strict grammar checker for the emitted DOT dialect; returns nodes, edges."""
    lines = text.splitlines()
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
    assert "v1 -> v1" in export_dot(g)


def test_dot_plus_graph_edge_count():
    text = export_dot(graph_from_density(PLUS))
    assert sum(1 for line in text.splitlines() if "->" in line) == 4


def test_dot_round_trips_through_parser():
    for seed in (1, 5, 9):
        rho = random_density(3, seed)
        g = graph_from_density(rho)
        nodes, edges = parse_dot(export_dot(g))
        assert nodes == set(range(1, g.n_vertices + 1))
        assert set(edges) == set(g.weights)
        for key, w in g.weights.items():
            assert abs(edges[key] - w) <= 1e-5 * max(abs(w), 1.0)


# -- CSV ----------------------------------------------------------------------------

def test_primes_csv_layout():
    primes = enumerate_primes(graph_from_density(PLUS), 2)
    text = primes_csv(primes)
    lines = text.strip().splitlines()
    assert lines[0] == "nu,rep,norm_re,norm_im"
    assert len(lines) == 4
    assert lines[1].startswith("1,1->1,")
    assert lines[3].startswith("2,1->2->1,")


def test_walk_vertices_rendering():
    assert walk_vertices(((1, 2), (2, 1))) == "1->2->1"
    assert walk_vertices(((3, 3),)) == "3->3"
