"""Reference implementations the tests compare the package against.

None of these is on a path the CLI runs: the per-permutation gather, the
dense symmetric projector and permutation operators check the acceptance
oracle's permanent sum, the one-subset-at-a-time recurrence pins its bits,
the partition-sum cycle index checks the series recurrence, the
one-product-at-a-time power sums and the generator form of the recurrence
pin the bits of trace_powers and series_coeffs, exact rationals give
the zeta values and power sums of float eigenvalues, the recursive
prime generator and the per-start-vertex step count check the array prime
search and its step bound, seeded Haar unitaries drive the
basis-invariance checks, and the matrix JSON encoder writes the files the
CLI reads.  The gather and the dense operators cost d^k and k!, more than the
package's oracle, so they keep their own caps, DENSE_MAX_COPIES and
DENSE_MAX_DIM on d^k.
"""

import json
from fractions import Fraction
from itertools import chain, combinations_with_replacement, permutations
from math import comb, factorial

import numpy as np

from rhozeta.errors import CapExceeded
from rhozeta.graph import PrimeClass
from rhozeta.linalg import as_square_matrix
from rhozeta.quantum import check_copy_caps

#: Caps of the dense references: k copies, and d^k basis tuples.
DENSE_MAX_COPIES = 5
DENSE_MAX_DIM = 4096
_PROJECTOR_IDEMPOTENT_TOL = 1e-10
_PROJECTOR_HERMITIAN_TOL = 1e-12
_PROJECTOR_TRACE_TOL = 1e-8


def check_dense_caps(d: int, k: int) -> int:
    """Return d^k, or raise if k copies of dimension d exceed the dense caps."""
    if k < 1 or d < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if k > DENSE_MAX_COPIES:
        raise CapExceeded(f"k={k} exceeds cap {DENSE_MAX_COPIES}")
    n = d ** k
    if n > DENSE_MAX_DIM:
        raise CapExceeded(f"d^k={n} exceeds cap {DENSE_MAX_DIM}")
    return n


def _digits(d: int, k: int) -> np.ndarray:
    """Base-d digit table of 0..d^k-1, most significant digit first."""
    return np.stack(np.unravel_index(np.arange(d ** k), (d,) * k), axis=1)


def acceptance_gather(rho, k: int) -> float:
    """Acceptance probability of the k-copy symmetry test, one permutation at a time.

    Brute force over the d^k basis tuples i = (i_0, ..., i_{k-1}):
    (1/k!) sum_sigma sum_i prod_m rho[i_sigma(m), i_m], each permutation
    gathering a d^k x k table of entries from the digit table, so the cost
    is O(k! k d^k) time and O(k d^k) memory.
    """
    check_dense_caps(rho.dim, k)
    digits = _digits(rho.dim, k)
    total = 0j
    for perm in permutations(range(k)):
        total += np.prod(rho.matrix[digits[:, perm], digits], axis=1).sum()
    return float(total.real) / factorial(k)


def acceptance_subsets(rho, k: int) -> float:
    """Acceptance probability of the k-copy symmetry test, one subset of rows at a time.

    The same permanent recurrence as quantum.acceptance_probability, in the
    same order of floating-point operations, run over all C(d+k-1, k)
    multisets at once: P[{}] = 1 and P[S] = sum_{a in S} P[S - {a}]
    rho[alpha_a, alpha_{|S|-1}], one vector multiply-add per (S, a) pair,
    k 2^(k-1) of them, holding all 2^k vectors.
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


def _permuted_indices(digits: np.ndarray, d: int, perm) -> np.ndarray:
    """Image of each basis index under tensor-factor permutation perm."""
    k = digits.shape[1]
    inverse = [0] * k
    for src, dst in enumerate(perm):
        inverse[dst] = src
    weights = d ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return digits[:, inverse] @ weights


def permutation_operator(d: int, k: int, perm) -> np.ndarray:
    """Unitary permuting k tensor factors of dimension d.

    perm is in one-line notation over 0..k-1; the operator sends basis
    vector (i_0, ..., i_{k-1}) to the tuple with factor m taken from
    position perm^{-1}(m), so that composition of permutations matches
    matrix multiplication.
    """
    n = check_dense_caps(d, k)
    perm = tuple(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{k - 1}")
    digits = _digits(d, k)
    target = _permuted_indices(digits, d, perm)
    op = np.zeros((n, n), dtype=complex)
    op[target, np.arange(n)] = 1.0
    return op


def symmetric_projector(d: int, k: int) -> np.ndarray:
    """Read-only projector onto the symmetric subspace of k copies of dimension d.

    The average of all k! permutation operators, verified on every
    construction: Hermiticity, idempotence, and trace equal to the
    symmetric-subspace dimension binom(d+k-1, k).
    """
    n = check_dense_caps(d, k)
    digits = _digits(d, k)
    columns = np.arange(n)
    proj = np.zeros((n, n), dtype=complex)
    for perm in permutations(range(k)):
        proj[_permuted_indices(digits, d, perm), columns] += 1.0
    proj /= factorial(k)

    herm = float(np.abs(proj - proj.conj().T).max())
    if herm > _PROJECTOR_HERMITIAN_TOL:
        raise RuntimeError(f"projector Hermiticity defect {herm:.3e}")
    idem = float(np.abs(proj @ proj - proj).max())
    if idem > _PROJECTOR_IDEMPOTENT_TOL:
        raise RuntimeError(f"projector idempotence defect {idem:.3e}")
    trace_defect = abs(float(np.trace(proj).real) - comb(d + k - 1, k))
    if trace_defect > _PROJECTOR_TRACE_TOL:
        raise RuntimeError(f"projector trace defect {trace_defect:.3e}")
    proj.flags.writeable = False
    return proj


def partition_multiplicities(k: int):
    """Yield partitions of k as multiplicity tuples (a_1, ..., a_k).

    a[j-1] counts the parts equal to j, so sum(j * a_j) == k.  Partitions
    appear in order of decreasing largest part.
    """
    def descending_parts(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(max_part, remaining), 0, -1):
            for rest in descending_parts(remaining - first, first):
                yield (first,) + rest

    for parts in descending_parts(k, k if k else 1):
        mult = [0] * k
        for part in parts:
            mult[part - 1] += 1
        yield tuple(mult)


def cycle_index(k: int, x) -> float:
    """Cycle index polynomial of the symmetric group on k letters at x_1..x_k.

    Exact partition sum: for each partition with multiplicities a_j the term
    is prod_j x_j^a_j / (j^a_j a_j!).  Terms accumulate in the generator's
    descending-largest-part order.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    x = list(x)
    if len(x) < k:
        raise ValueError(f"need {k} arguments, got {len(x)}")
    total = 0.0
    for mult in partition_multiplicities(k):
        term = 1.0
        for j, a in enumerate(mult, start=1):
            if a:
                term *= x[j - 1] ** a / (j ** a * factorial(a))
        total += term
    return total


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary, deterministic per seed.

    QR of a complex Gaussian matrix, with each column of Q multiplied by
    the phase of the matching diagonal entry of R so that the law is Haar
    (Mezzadri, Notices AMS 54, 2007).
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def trace_powers_sequential(rho, m_max: int) -> tuple:
    """p_m = tr[rho^m] for m = 1..m_max, one product and one trace per power.

    rho^m is formed as rho^(m-1) @ rho, so p_1..p_b of the blocked
    trace_powers, which forms its stack the same way, match bit for bit.
    """
    a = rho.matrix
    power = a
    values = [float(np.trace(a).real)]
    for _ in range(m_max - 1):
        power = power @ a
        values.append(float(np.trace(power).real))
    return tuple(values)


def series_coeffs_generator(power_sums, order: int) -> tuple:
    """c_0..c_order by c_n = (1/n) sum_{m=1..n} p_m c_{n-m}, summing a generator."""
    p = [float(v) for v in power_sums]
    c = [1.0]
    for n in range(1, order + 1):
        c.append(sum(p[m - 1] * c[n - m] for m in range(1, n + 1)) / n)
    return tuple(c)


def exact_zeta(eigenvalues, u: float) -> float:
    """1/prod(1 - u*lam) over float eigenvalues at a real float u, in exact rationals, rounded once.

    Every float is an integer over a power of two, so each factor 1 - u*lam
    is an integer over d_u * d_lam.  The product is kept as one unreduced
    numerator over one denominator; only the final Fraction reduces.
    """
    un, ud = float(u).as_integer_ratio()
    num, den = 1, 1
    for lam in eigenvalues:
        n, d = float(lam).as_integer_ratio()
        num, den = num * (ud * d - un * n), den * ud * d
    return float(Fraction(den, num))


def exact_power_sums(eigenvalues, m_max: int) -> tuple:
    """p_m = sum of lam^m for m = 1..m_max over float eigenvalues, each rounded once.

    The eigenvalues are taken as integers over one common power-of-two
    denominator, so every p_m is one integer sum over a power of it.
    """
    ratios = [float(lam).as_integer_ratio() for lam in eigenvalues]
    den = max(d for _, d in ratios)
    nums = [n * (den // d) for n, d in ratios]
    powers = nums
    values = []
    for m in range(1, m_max + 1):
        values.append(float(Fraction(sum(powers), den ** m)))
        powers = [a * b for a, b in zip(powers, nums)]
    return tuple(values)


def enumerate_primes_recursive(g, length_cap: int, visits=None) -> list:
    """Prime classes of g up to length_cap, by Ruskey's recursive generator.

    One call of gen(t, p, norm) per prenecklace, depth first, one
    PrimeClass per class, each norm a product of Python complex numbers
    from 1 + 0j.  Returns the classes sorted by (nu, word).  If visits is a
    list, each call appends its prenecklace's (length, period).  No caps
    are checked; callers keep the graph small.
    """
    out_edges = {v: {} for v in range(1, g.n_vertices + 1)}
    for i, row in enumerate(g.weights.tolist(), start=1):
        for j, weight in enumerate(row, start=1):
            if weight != 0:
                out_edges[i][j] = weight
    by_length = [[] for _ in range(length_cap + 1)]
    word = []

    def gen(t, p, norm):
        # word holds t vertices with period p; the weights of its t - 1
        # edges multiply to norm
        if visits is not None:
            visits.append((t, p))
        if p == t and word[0] in out_edges[word[-1]]:
            weight = out_edges[word[-1]][word[0]]
            by_length[t].append(PrimeClass(word=tuple(word), nu=t, edge_norm=norm * weight))
        if t == length_cap:
            return
        floor = word[t - p]
        for nxt, weight in out_edges[word[-1]].items():
            if nxt < floor:
                continue
            word.append(nxt)
            gen(t + 1, p if nxt == floor else t + 1, norm * weight)
            word.pop()

    for start in range(1, g.n_vertices + 1):
        word.append(start)
        gen(1, 1, 1.0 + 0.0j)
        word.pop()
    del gen
    return [prime for bucket in by_length for prime in bucket]


def euler_product_loop(primes, order: int) -> list:
    """Complex c_0..c_order of the Euler product, one in-place recurrence per class.

    c[a] += norm * c[a - nu] for a = nu..order, class by class in the
    order given; no reality check.
    """
    coeffs = [0j] * (order + 1)
    coeffs[0] = 1 + 0j
    for prime in primes:
        for a in range(prime.nu, order + 1):
            coeffs[a] += prime.edge_norm * coeffs[a - prime.nu]
    return coeffs


def primes_csv_rows(primes) -> str:
    """CSV table of prime classes, one row formatted from each PrimeClass."""
    lines = ["nu,rep,norm_re,norm_im"]
    for p in primes:
        path = "->".join(map(str, p.word + p.word[:1]))
        lines.append(f"{p.nu},{path},{p.edge_norm.real!r},{p.edge_norm.imag!r}")
    return "\n".join(lines) + "\n"


def matrix_to_json(matrix) -> dict:
    """Encode a square matrix in the JSON format rhozeta.linalg.matrix_from_json reads."""
    a = as_square_matrix(matrix)
    n = a.shape[0]
    entries = [[float(v.real), float(v.imag)] for v in a.reshape(n * n)]
    return {"dim": n, "entries": entries}


def save_matrix(path, matrix) -> None:
    """Write a matrix JSON file for the CLI's --file option."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(matrix), fh)
        fh.write("\n")
