"""The four benchmark workloads: inputs generated from a seed, and the jobs that use them.

A job is one user task: one state through one pipeline, or one rhozeta CLI
invocation.  Its run() makes only program calls and is what the benchmark
times; its check() compares the output with reference.py and is not timed.
Inputs are generated with numpy alone, so the program receives only
matrices, weight maps or argv.

Run as a script (python3 bench/workloads.py WORKLOAD SEED WORKDIR) it
imports rhozeta and generates and writes one workload's inputs; run.py
times that process to measure set-up.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import reference as ref
from rhozeta import graph, linalg, quantum, zeta
from rhozeta.errors import AtSingularity

#: The CLI's coefficient cap; spectral jobs expand the series this far.
ORDER = 64

WORKLOADS = ("spectral", "primes", "oracle", "cli")


@dataclass
class Job:
    kind: str
    run: Callable  # run(tracer) -> output
    check: Callable  # check(output) -> list of problems
    heavy: bool = False  # too slow to repeat in the warm-up


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_kb: int


# -- spectral ---------------------------------------------------------------------
#
# Mixed states at n = 8..64 and reduced pure states up to 8x8 through the
# series, verdict and rational routes.  Linear algebra (validation's
# eigensolver) is nearly all of the work here.

def _evaluate(tracer, rational, grid):
    values = []
    with tracer.span("zeta.zeta_eval", calls=len(grid)) as span:
        for u in grid:
            try:
                values.append(zeta.zeta_eval(rational, u))
            except AtSingularity:
                values.append(None)
                span.errors += 1
    tracer.count("zeta.eval_points", len(grid))
    return values


def _spectral_job(kind, matrix, dims, separable, eigs):
    pure = dims is not None
    grid = ref.curve_grid(eigs)

    def run(t):
        rho = t.call("linalg.validate_density", linalg.validate_density, matrix)
        if pure:
            rho = t.call("linalg.partial_trace", linalg.partial_trace, rho, dims, "B")
        p = t.call("linalg.trace_powers", linalg.trace_powers, rho, ORDER)
        series = t.call("zeta.series_coeffs", zeta.series_coeffs, p, ORDER)
        by_coeffs = t.call("zeta.is_separable_by_coeffs", zeta.is_separable_by_coeffs,
                           rho, ORDER, pure_bipartite=pure)
        by_poles = t.call("zeta.is_separable_by_singularity", zeta.is_separable_by_singularity,
                          rho, pure_bipartite=pure)
        rational = t.call("zeta.singularities", zeta.singularities, rho)
        return series.coeffs, by_coeffs, by_poles, rational.singularities, _evaluate(t, rational, grid)

    def check(out):
        coeffs, by_coeffs, by_poles, groups, values = out
        return (ref.check_series("series", coeffs, eigs)
                + ref.check_verdict(by_coeffs, separable, not pure)
                + ref.check_verdict(by_poles, separable, not pure)
                + ref.check_poles(groups, eigs)
                + ref.check_curve(grid, values, eigs))

    return Job(kind, run, check)


# (n, copies per pass) of the mixed states, and copies per pass of each pure
# state size and kind.  The copies put p50 in the middle of the n = 8 jobs and
# p90 well inside the n = 16 jobs, not on the edge between two job costs,
# where it would flip between them.  The many small pure states, which pass
# every check, keep ok_share from moving much between seeds.
MIXED = ((8, 30), (16, 68), (32, 2), (64, 2))
PURE_SIZES = ((2, 2), (2, 4), (3, 3), (4, 4), (3, 5), (2, 8), (4, 8), (8, 8))
PURE_COPIES = 6


def spectral_jobs(rng, inputs):
    jobs = []
    for n, copies in MIXED:
        for _ in range(copies):
            m = ref.random_mixed(rng, n)
            inputs.append(m)
            jobs.append(_spectral_job(f"mixed{n}", m, None, False, ref.eigenvalues(m)))
    for da, db in PURE_SIZES:
        for product in (True, False):
            for _ in range(PURE_COPIES):
                psi = ref.random_pure(rng, da, db, product)
                inputs.append(psi)
                kind = f"{'product' if product else 'entangled'}{da}x{db}"
                eigs = ref.eigenvalues(ref.reduced_b(psi, da, db))
                jobs.append(_spectral_job(kind, np.outer(psi, psi.conj()), (da, db), product, eigs))
    return jobs


# -- primes -----------------------------------------------------------------------
#
# The Euler route: dense random states at n = 2..5 (complete graphs with
# loops) and sparse cycle-plus-chord Laplacian states at n = 6..12, each at
# a length giving 2.5k to 15k prime classes.  Graph enumeration and the
# Euler expansion do nearly all of the work.

# (n, L, copies per pass).  The copies put p90 inside the ten n = 12 jobs,
# not on the edge between two job costs, where it would flip between them.
DENSE = ((2, 14, 5), (3, 9, 5), (3, 10, 5), (4, 7, 5), (4, 8, 5), (5, 7, 5))
SPARSE = ((6, 9, 3), (7, 8, 3), (8, 8, 3), (10, 8, 3), (11, 8, 3), (12, 9, 10))


def sparse_weights(rng, n):
    """Magnitude-symmetric random-phase weights on an n-cycle with chords."""
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    pairs += [(i, (i + n // 2 - 1) % n + 1) for i in range(1, n + 1, 3)]
    weights = {}
    for i, j in pairs:
        if i != j and (i, j) not in weights:
            mag = rng.uniform(0.5, 1.5)
            weights[(i, j)] = mag * np.exp(2j * np.pi * rng.uniform())
            weights[(j, i)] = mag * np.exp(2j * np.pi * rng.uniform())
    return weights


def _primes_job(kind, length, matrix=None, weights=None, n=None):
    density = matrix if weights is None else ref.laplacian_density(n, weights)
    c = {}  # reference values, computed on the first check

    def run(t):
        if weights is None:
            rho = t.call("linalg.validate_density", linalg.validate_density, matrix)
        else:
            rho = t.call("graph.density_from_weighted_graph", graph.density_from_weighted_graph,
                         graph.LaplacianWeights(n, weights))
        g = t.call("graph.graph_from_density", graph.graph_from_density, rho)
        primes = t.call("graph.enumerate_primes", graph.enumerate_primes, g, length)
        euler = t.call("zeta.euler_product_coeffs", zeta.euler_product_coeffs, primes, length)
        p = t.call("linalg.trace_powers", linalg.trace_powers, rho, length)
        series = t.call("zeta.series_coeffs", zeta.series_coeffs, p, length)
        t.count("graph.prime_classes", len(primes))
        t.count("graph.edges", g.n_edges)
        return euler.coeffs, series.coeffs, primes, g.n_edges

    def check(out):
        euler, series, primes, n_edges = out
        if not c:
            adjacency = (np.abs(density) > ref.ZERO_EIGENVALUE).astype(int)
            c["eigs"] = ref.eigenvalues(density)
            c["counts"] = ref.prime_counts(adjacency, length)
            c["edges"] = int(adjacency.sum())
        by_length = Counter(p.nu for p in primes)
        counts = [by_length[nu] for nu in range(1, length + 1)]
        problems = ref.check_series("euler", euler, c["eigs"]) + ref.check_series("series", series, c["eigs"])
        if counts != c["counts"]:
            problems.append(f"primes: classes per length {counts} vs {c['counts']}")
        if n_edges != c["edges"]:
            problems.append(f"graph: {n_edges} edges vs {c['edges']}")
        return problems

    return Job(kind, run, check)


def primes_jobs(rng, inputs):
    jobs = []
    for n, length, copies in DENSE:
        for _ in range(copies):
            m = ref.random_mixed(rng, n)
            inputs.append(m)
            jobs.append(_primes_job(f"dense{n}L{length}", length, matrix=m))
    for n, length, copies in SPARSE:
        for _ in range(copies):
            w = sparse_weights(rng, n)
            inputs.append(np.array([[i, j, v.real, v.imag] for (i, j), v in w.items()]))
            jobs.append(_primes_job(f"sparse{n}L{length}", length, weights=w, n=n))
    return jobs


# -- oracle -----------------------------------------------------------------------
#
# The dense-projector copy-symmetry oracle against the series, from d^k = 8
# to the 4096 cap.  Its time and memory grow with (d^k)^2 and (d^k)^3.

# (d, k, copies per pass), cheapest first.  The copies put p50 in the middle
# of the d^k = 256 jobs and p90 in the middle of the d^k = 1024 jobs; sizes
# whose cost overlaps theirs are left out, so neither quantile sits on the
# edge between two job costs, where it would flip between them.
SIZES = (
    (2, 3, 3), (3, 3, 3), (2, 4, 3), (4, 3, 3), (3, 4, 3), (2, 5, 3), (5, 3, 3),
    (4, 4, 19),
    (7, 3, 3), (8, 3, 3), (5, 4, 3), (9, 3, 3),
    (4, 5, 6),
    (6, 4, 1), (8, 4, 1),
)


def _oracle_job(matrix, k, eigs):
    d = matrix.shape[0]

    def run(t):
        rho = t.call("linalg.validate_density", linalg.validate_density, matrix)
        accept = t.call("quantum.acceptance_probability", quantum.acceptance_probability, rho, k)
        p = t.call("linalg.trace_powers", linalg.trace_powers, rho, k)
        series = t.call("zeta.series_coeffs", zeta.series_coeffs, p, k)
        t.count("quantum.projector_dim_sum", d ** k)
        t.count("quantum.projector_bytes_computed", 16 * d ** (2 * k))
        return accept, series.coeffs

    def check(out):
        accept, coeffs = out
        expected = ref.series(eigs, k)
        return ref.check_close("acceptance", accept, expected[k]) + ref.check_series("series", coeffs, eigs)

    return Job(f"oracle{d}^{k}", run, check, heavy=d ** k >= 2048)


def oracle_jobs(rng, inputs):
    jobs = []
    for d, k, copies in SIZES:
        for _ in range(copies):
            m = ref.random_mixed(rng, d)
            inputs.append(m)
            jobs.append(_oracle_job(m, k, ref.eigenvalues(m)))
    return jobs


# -- cli --------------------------------------------------------------------------
#
# python -m rhozeta.cli subprocesses, one at a time: all five subcommands on
# small built-ins and --file inputs, entangled verdicts (exit 1) and input
# errors (exit 2).  Interpreter start-up and imports dominate each call.

def run_cli(argv, workdir):
    """Run one CLI invocation; the child's peak RSS comes from wait4."""
    env = dict(os.environ, PYTHONPATH=str(Path(linalg.__file__).parents[1]))
    out_path, err_path = workdir / "cli.out", workdir / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rhozeta.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
    return CliResult(proc.returncode, out_path.read_text(), err_path.read_text(), wall, usage.ru_maxrss)


def write_matrix(path, matrix):
    """The CLI's matrix JSON format: {"dim": n, "entries": [[re, im], ...]}, row-major."""
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": int(round(len(flat) ** 0.5)),
                   "entries": [[float(v.real), float(v.imag)] for v in flat]}, fh)


def _cli_job(workdir, kind, argv, code, check_output=None):
    def run(t):
        with t.span("cli.process"):
            return run_cli(argv, workdir)

    def check(out):
        problems = ref.check_exit(out.code, code)
        if code == 2:
            if out.stdout or not out.stderr.startswith("error:"):
                problems.append(f"error: stdout {out.stdout[:40]!r} stderr {out.stderr[:60]!r}")
        elif check_output is not None:
            problems += check_output(out)
        return problems

    return Job(kind, run, check)


def cli_jobs(rng, workdir):
    bad = workdir / "malformed.json"
    bad.write_text('{"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0]')
    named = ref.named_state
    eig = ref.eigenvalues
    jobs = []
    for s in range(3):
        mixed3, mixed6 = ref.random_mixed(rng, 3), ref.random_mixed(rng, 6)
        product = ref.reduced_b(ref.random_pure(rng, 2, 3, True), 2, 3)
        entangled = ref.reduced_b(ref.random_pure(rng, 3, 3, False), 3, 3)
        files = {}
        for name, m in (("mixed3", mixed3), ("mixed6", mixed6), ("product", product), ("entangled", entangled)):
            files[name] = str(workdir / f"{name}-{s}.json")
            write_matrix(files[name], m)
        u_max = float(ref.poles(eig(mixed6))[2]) * 1.05
        iso_p = [float(p) for p in np.linspace(0, 1, 5)]

        def curve(matrices, u_min, u_max, steps):
            grid = [float(u) for u in np.linspace(u_min, u_max, steps)]
            return lambda out: ref.check_curve_csv(out.stdout, matrices, grid)

        def coeffs(m, order):
            return lambda out: ref.check_coeffs_csv(out.stdout, eig(m), order)

        def bose(m, copies):
            return lambda out: ref.check_bose_csv(out.stdout, eig(m), copies)

        def primes(m, length):
            return lambda out: ref.check_primes_csv(out.stdout, out.stderr, m, length)

        def dot(m):
            return lambda out: ref.check_dot(out.stdout, out.stderr, m)

        specs = [
            ("graph:plus", ["graph", "--state", "plus"], 0, dot(named("plus"))),
            ("graph:file", ["graph", "--file", files["mixed3"]], 0, dot(mixed3)),
            ("coeffs:bell-reduced", ["coeffs", "--state", "bell-reduced", "--N", "12"], 1,
             coeffs(named("bell-reduced"), 12)),
            ("coeffs:product-file", ["coeffs", "--file", files["product"], "--N", "16", "--pure-bipartite"], 0,
             coeffs(product, 16)),
            ("coeffs:entangled-file", ["coeffs", "--file", files["entangled"], "--N", "16", "--pure-bipartite"], 1,
             coeffs(entangled, 16)),
            ("coeffs:maxmixed4", ["coeffs", "--state", "maxmixed4", "--N", "64"], 1, coeffs(named("maxmixed4"), 64)),
            ("coeffs:w-reduced", ["coeffs", "--state", "w-reduced", "--N", "8"], 1, coeffs(named("w-reduced"), 8)),
            ("curve:ghz-reduced", ["curve", "--state", "ghz-reduced", "--u-min", "0", "--u-max", "3", "--steps", "61"],
             0, curve([(None, named("ghz-reduced"))], 0.0, 3.0, 61)),
            ("curve:file", ["curve", "--file", files["mixed6"], "--u-min", "0", "--u-max", repr(u_max),
                            "--steps", "40"], 0, curve([(None, mixed6)], 0.0, u_max, 40)),
            ("curve:isotropic-surface", ["curve", "--state", "isotropic", "--p-min", "0", "--p-max", "1",
                                         "--p-steps", "5", "--u-min", "0", "--u-max", "4.5", "--steps", "19"], 0,
             curve([(p, named("isotropic", p=p)) for p in iso_p], 0.0, 4.5, 19)),
            ("curve:sigma3", ["curve", "--state", "sigma3", "--u-min", "0", "--u-max", "30", "--steps", "31"], 0,
             curve([(None, named("sigma3"))], 0.0, 30.0, 31)),
            ("primes:plus", ["primes", "--state", "plus", "--L", "6"], 0, primes(named("plus"), 6)),
            ("primes:file", ["primes", "--file", files["mixed3"], "--L", "5"], 0, primes(mixed3, 5)),
            ("primes:L15", ["primes", "--state", "plus", "--L", "15"], 2),
            ("bose:bell-reduced", ["bose", "--state", "bell-reduced", "--K", "3"], 0, bose(named("bell-reduced"), 3)),
            ("bose:file", ["bose", "--file", files["mixed3"], "--K", "3"], 0, bose(mixed3, 3)),
            ("coeffs:unknown-state", ["coeffs", "--state", "nosuch"], 2),
            ("graph:malformed-file", ["graph", "--file", str(bad)], 2),
        ]
        # reproduces ROADMAP item 1: the expanded denominator is wrong between poles.
        # Three copies put p90 inside these, the slowest jobs, not on the edge below them.
        random32 = ("curve:random32", ["curve", "--state", "random", "--dim", "32", "--seed", "1",
                                       "--u-min", "14", "--u-max", "16", "--steps", "3"], 0,
                    curve([(None, named("random", dim=32, seed=1))], 14.0, 16.0, 3))
        specs += [random32] * 3
        jobs += [_cli_job(workdir, *spec) for spec in specs]
    return jobs


def make_jobs(workload, seed, workdir):
    """Generate a workload's inputs from the seed, write them, and return its jobs in run order."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = []
    if workload == "cli":
        jobs = cli_jobs(rng, workdir)
    else:
        jobs = {"spectral": spectral_jobs, "primes": primes_jobs, "oracle": oracle_jobs}[workload](rng, inputs)
        np.savez(workdir / f"{workload}-{seed}.npz", *inputs)
    # the run order is the same for every seed, so the allocation pattern and peak RSS are too
    order = np.random.default_rng(WORKLOADS.index(workload)).permutation(len(jobs))
    return [jobs[i] for i in order]


if __name__ == "__main__":
    make_jobs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
