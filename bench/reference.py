"""Independent numpy references for every output the benchmark checks.

Nothing here imports rhozeta.  Each reference works from the eigenvalues
that np.linalg.eigvalsh gives for the generated matrix, or from the
documented construction of a named state, so an agreement between the
program and these functions is evidence and not a tautology.

Every check_* function returns a list of problem strings; an empty list
means the output is correct.  The first word of each problem names the
output that failed, and run.py classifies failures by it.
"""

import math
import re

import numpy as np

#: Eigenvalues at or below this magnitude are zeros (matches the documented threshold).
ZERO_EIGENVALUE = 1e-12

#: Series, Euler and acceptance values: |got - ref| <= ATOL + RTOL * |ref|.
SERIES_RTOL = 1e-9
SERIES_ATOL = 1e-12

#: Curve values between poles (ROADMAP item 1); widened only where the
#: reference itself is worse conditioned than this.
CURVE_RTOL = 1e-10

#: A curve row within this u-distance of a pole must be flagged singular.
SINGULAR_ROW_TOL = 1e-6

#: Singularity locations agree within this relative distance.
POLE_RTOL = 1e-8

#: DOT labels print six significant digits per component.
DOT_RTOL = 1e-5

_EPS = np.finfo(float).eps

_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|nan"
_COMPLEX_LABEL = re.compile(rf"(-?(?:{_FLOAT}))([-+](?:{_FLOAT}))i")


# -- states -------------------------------------------------------------------

def random_mixed(rng, n):
    """Full-rank random density matrix: a normalized complex Wishart sample."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_pure(rng, da, db, product):
    """Random unit vector on C^da (x) C^db; a product vector when product is set."""
    def unit(k):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return v / np.linalg.norm(v)
    return np.kron(unit(da), unit(db)) if product else unit(da * db)


def reduced_b(psi, da, db):
    """Reduced state on B of the pure state psi (A is the slow index)."""
    m = psi.reshape(da, db)
    return m.T @ m.conj()


def laplacian_density(n, weights):
    """Trace-normalized Laplacian of the weight magnitudes; vertices are 1..n."""
    adjacency = np.zeros((n, n))
    for (i, j), w in weights.items():
        adjacency[i - 1, j - 1] = abs(w)
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    return laplacian / np.trace(laplacian)


def named_state(name, p=0.5, dim=2, seed=0):
    """Density matrix of a CLI built-in, rebuilt from its documented definition."""
    if name == "plus":
        return np.full((2, 2), 0.5)
    if name in ("bell-reduced", "maxmixed2"):
        return np.eye(2) / 2
    if name == "maxmixed4":
        return np.eye(4) / 4
    if name == "ghz-reduced":
        return np.diag([0.5, 0.0, 0.0, 0.5])
    if name == "w-reduced":
        # (|001> + |010> + |100>)/sqrt(3) with the first qubit traced out
        m = np.zeros((4, 4))
        m[0, 0] = m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 1.0 / 3.0
        return m
    if name == "sigma3":
        s = np.diag([1.0 / 3.0, 0.0, 0.0, 2.0 / 3.0])
        return np.kron(np.kron(s, s), s)
    if name == "isotropic":
        m = np.diag([(2 - p) / 4, p / 4, p / 4, (2 - p) / 4])
        m[0, 3] = m[3, 0] = (1 - p) / 2
        return m
    if name == "random":
        return random_mixed(np.random.default_rng(seed), dim)
    raise KeyError(name)


def eigenvalues(matrix):
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))


def pole_groups(eigs):
    """Ascending (location, multiplicity) pairs of the reciprocal nonzero eigenvalues."""
    groups = []
    for u in np.sort(1.0 / eigs[eigs > ZERO_EIGENVALUE]):
        if groups and u - groups[-1][0] <= POLE_RTOL * groups[-1][0]:
            groups[-1][1] += 1
        else:
            groups.append([float(u), 1])
    return [tuple(g) for g in groups]


def poles(eigs):
    """Ascending distinct reciprocals of the nonzero eigenvalues."""
    return np.array([u for u, _ in pole_groups(eigs)])


def curve_grid(eigs, n_poles=7, fractions=(0.2, 0.4, 0.5, 0.8)):
    """u points spanning the first poles, midpoints included, none near a pole.

    The intervals are [0, u_1], [u_1, u_2], ... up to the n_poles-th pole,
    plus one interval past the last pole when there are fewer poles.
    """
    us = poles(eigs)
    edges = [0.0] + [float(u) for u in us[:n_poles + 1]]
    if len(us) <= n_poles:
        edges.append(edges[-1] + (edges[-1] - edges[-2]))
    grid = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo > 1e-6 * hi:
            grid.extend(lo + f * (hi - lo) for f in fractions)
    return grid


# -- reference values -----------------------------------------------------------

def series(eigs, order):
    """Coefficients of 1/det(I - u*rho): the product of the eigenvalue geometric series."""
    powers = np.arange(order + 1)
    c = np.zeros(order + 1)
    c[0] = 1.0
    for lam in eigs:
        c = np.convolve(c, lam ** powers)[:order + 1]
    return c


def curve(eigs, u):
    """zeta(u) = 1/prod(1 - u*lam), by a log-magnitude sum, with its relative tolerance.

    The tolerance is CURVE_RTOL, widened to the reference's own rounding
    error where u sits close to a pole.
    """
    factors = 1.0 - u * eigs
    value = np.prod(np.sign(factors)) * math.exp(-np.sum(np.log(np.abs(factors))))
    sensitivity = np.sum(np.abs(u * eigs / factors)) + len(eigs)
    return float(value), max(CURVE_RTOL, 1e3 * _EPS * sensitivity)


def euler_series(classes, order):
    """Truncated Euler product over (nu, norm) prime classes."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    for nu, norm in classes:
        for n in range(nu, order + 1):
            c[n] += norm * c[n - nu]
    return c


def prime_counts(adjacency, max_len):
    """Number of prime classes per length, by Moebius inversion of tr(A^m)."""
    a = np.asarray(adjacency, dtype=object)
    traces, power = [], a
    for _ in range(max_len):
        traces.append(int(np.trace(power)))
        power = power.dot(a)

    def mobius(m):
        result, q = 1, 2
        while q * q <= m:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                result = -result
            q += 1
        return -result if m > 1 else result

    return [sum(mobius(nu // d) * traces[d - 1] for d in range(1, nu + 1) if nu % d == 0) // nu
            for nu in range(1, max_len + 1)]


# -- checks -----------------------------------------------------------------------

def check_close(label, got, ref, rtol=SERIES_RTOL, atol=SERIES_ATOL):
    got = np.asarray(got)
    ref = np.asarray(ref)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} != {ref.shape}"]
    bad = ~(np.abs(got - ref) <= atol + rtol * np.abs(ref))
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [f"{label}: {int(bad.sum())} of {bad.size} off, first at {i}: {got.flat[i].item()!r} vs {ref.flat[i].item()!r}"]


def check_series(label, coeffs, eigs):
    return check_close(label, coeffs, series(eigs, len(coeffs) - 1))


def check_curve(grid, values, eigs, flags=None):
    """values[i] is zeta(grid[i]) or None where the program reported a pole."""
    pole_list = poles(eigs)
    flags = flags if flags is not None else [v is None for v in values]
    bad = []
    for u, value, flagged in zip(grid, values, flags):
        near = len(pole_list) > 0 and float(np.min(np.abs(pole_list - u))) <= SINGULAR_ROW_TOL
        if near or flagged:
            if near != flagged:
                bad.append(f"u={u!r} flagged={flagged} near_pole={near}")
            continue
        ref, rtol = curve(eigs, u)
        value = complex(value)
        if not (abs(value - ref) <= rtol * abs(ref)):
            bad.append(f"u={u!r}: {value!r} vs {ref!r}")
    if not bad:
        return []
    return [f"curve: {len(bad)} of {len(grid)} points wrong, first {bad[0]}"]


def check_poles(groups, eigs):
    ref = pole_groups(eigs)
    if [m for _, m in groups] != [m for _, m in ref]:
        return [f"singularities: multiplicities {[m for _, m in groups]} vs {[m for _, m in ref]}"]
    return check_close("singularities", [u for u, _ in groups], [u for u, _ in ref], rtol=POLE_RTOL, atol=0.0)


def check_verdict(verdict, separable, caveat):
    if verdict.separable != separable or verdict.caveat != caveat:
        return [f"verdict: {verdict.method} says separable={verdict.separable} caveat={verdict.caveat},"
                f" expected separable={separable} caveat={caveat}"]
    return []


# -- CLI output parsers --------------------------------------------------------------

def check_exit(code, expected):
    return [] if code == expected else [f"exit: code {code}, expected {expected}"]


def check_dot(stdout, stderr, matrix):
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    want = {(i + 1, j + 1): a[i, j] for i in range(n) for j in range(n) if abs(a[i, j]) > ZERO_EIGENVALUE}
    got = {}
    for line in stdout.splitlines():
        if "->" not in line:
            continue
        head, label = line.split('[label="')
        i, j = (int(v.strip().strip(";").lstrip("v")) for v in head.split("->"))
        m = _COMPLEX_LABEL.fullmatch(label.split('"')[0])
        got[(i, j)] = complex(float(m[1]), float(m[2])) if m else None
    problems = []
    if sorted(got) != sorted(want):
        problems.append(f"dot: edges {sorted(got)} vs {sorted(want)}")
    else:
        for edge, w in want.items():
            g = got[edge]
            if abs(g.real - w.real) > DOT_RTOL * abs(w.real) + 1e-12 or abs(g.imag - w.imag) > DOT_RTOL * abs(w.imag) + 1e-12:
                problems.append(f"dot: weight {edge} {g!r} vs {w!r}")
                break
    if f"vertices: {n} edges: {len(want)}" not in stderr:
        problems.append(f"dot: stderr {stderr.strip()!r}")
    return problems


def check_coeffs_csv(stdout, eigs, order):
    rows = stdout.splitlines()
    if not rows or rows[0] != "n,c_n" or len(rows) != order + 1:
        return [f"coeffs: {len(rows)} lines, header {rows[:1]}"]
    coeffs = [1.0] + [float(r.split(",")[1]) for r in rows[1:]]
    return check_series("coeffs", coeffs, eigs)


def check_curve_csv(stdout, matrices, u_grid):
    """matrices: one (p, matrix) pair per p value, p None for a plain curve."""
    rows = [r.split(",") for r in stdout.splitlines()[1:]]
    if len(rows) != len(matrices) * len(u_grid):
        return [f"curve: {len(rows)} rows, expected {len(matrices) * len(u_grid)}"]
    problems = []
    for block, (p, matrix) in enumerate(matrices):
        part = rows[block * len(u_grid):(block + 1) * len(u_grid)]
        values, flags = [], []
        for row, u in zip(part, u_grid):
            if float(row[0]) != u or (p is not None and float(row[1]) != p):
                return [f"curve: row {row} does not match u={u!r} p={p!r}"]
            re, im, flag = row[-3:]
            flags.append(flag == "1")
            values.append(complex(float(re), float(im)) if flag == "0" else None)
        problems += check_curve(list(u_grid), values, eigenvalues(matrix), flags)
    return problems[:1]


def check_primes_csv(stdout, stderr, matrix, length):
    rows = stdout.splitlines()
    if not rows or rows[0] != "nu,rep,norm_re,norm_im":
        return [f"primes: header {rows[:1]}"]
    classes = []
    for row in rows[1:]:
        nu, _, re, im = row.split(",")
        classes.append((int(nu), complex(float(re), float(im))))
    problems = check_close("primes", euler_series(classes, length), series(eigenvalues(matrix), length))
    if f"classes: {len(classes)}" not in stderr:
        problems.append(f"primes: stderr {stderr.strip()!r} vs {len(classes)} rows")
    return problems


def check_bose_csv(stdout, eigs, copies):
    rows = stdout.splitlines()
    if not rows or rows[0] != "k,acceptance,coefficient,abs_diff" or len(rows) != copies + 1:
        return [f"bose: {len(rows)} lines, header {rows[:1]}"]
    table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    ref = series(eigs, copies)[1:]
    return (check_close("bose", table[:, 1], ref) + check_close("bose", table[:, 2], ref)
            + check_close("bose", table[:, 3], np.abs(table[:, 1] - table[:, 2]), atol=0.0))
