"""Command-line interface: graphs, coefficient tables, zeta curves, primes, and symmetry tests.

Every text format the command prints lives here (graph and zeta return
data only).  Each cmd_* is a computation: it checks its arguments, raises
every error and computes every value, its verdict included, and returns
(lines, note, code) without writing anything.  main alone writes: the
lines to stdout or --out through _write, then the note or the error line,
if any, as one stderr line, so a command that exits 2 leaves stdout empty
and creates no file.
Exit codes: 0 on success, 1 when a separability verdict comes out
entangled (so shell pipelines can branch on it), 2 on input or
validation errors.  _standard_stream guards both standard streams.  A
reader that closes stdout early (as `rhozeta ... | head` expects), a
closed fd, and any failure on stderr are not errors and never change the
code: the writes to that stream go nowhere.  Any other failure on stdout,
such as a full device, exits 2 with its error line.  All output files are
byte-deterministic given the same invocation and seed.
run, the entry of the console script and of python -m rhozeta.cli, is
os._exit(main()): main flushes all it writes, and the command skips
interpreter teardown and runs no atexit handler; main(argv) returns the
code to in-process callers.
"""

import argparse
import errno
import math
import os
import sys
from contextlib import contextmanager
from itertools import islice

# One BLAS thread, forced before numpy loads: at dim >= 256, eigvalsh gives
# other bits under other thread counts, and the output must not depend on them.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np

from .errors import CapExceeded, RhoZetaError
from .graph import (
    PRIME_LENGTH_CAP,
    PrimeClasses,
    WeightedDigraph,
    check_length_cap,
    enumerate_primes,
    graph_from_density,
)
from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    check_tol,
    load_matrix,
    trace_powers,
    validate_density,
)
from .quantum import (
    BUILTIN_STATES,
    MAX_COPIES,
    acceptance_probability,
    builtin_state,
    check_copy_caps,
    check_isotropic_p,
    isotropic_state,
)
from .zeta import (
    DEFAULT_SEPARABILITY_TOL,
    SeparabilityVerdict,
    is_separable_by_coeffs,
    series_coeffs,
    singularities,
    zeta_values,
)

# Size caps, checked before any state is built or array allocated.
_MAX_COEFF_ORDER = 64
_MAX_CURVE_ROWS = 100_000

#: Rows of a prime table level formatted, and lines written, at a time.
_SLICE = 1 << 16


def _load_state(args) -> DensityMatrix:
    if args.file is not None:
        return validate_density(load_matrix(args.file), args.validation_tol)
    given = {name: value for name in ("p", "dim", "seed") if (value := getattr(args, name)) is not None}
    return builtin_state(args.state, **given)


@contextmanager
def _standard_stream(name: str):
    """Yield sys.stdout or sys.stderr, by name, and flush it on leaving; a
    stream whose fd was closed at start (None) is devnull.  An OSError on
    either stream stops the write and points the fd at devnull, so nothing
    left in its buffer can fail again.  It is raised again only on stdout,
    and only when stdout is neither a reader that has gone (EPIPE) nor a
    closed fd (EBADF): a full device exits 2, and nothing on stderr
    changes the code."""
    stream = getattr(sys, name) or open(os.devnull, "w")
    try:
        yield stream
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if name == "stdout" and exc.errno not in (errno.EPIPE, errno.EBADF):
            raise


def _write(path: str, lines) -> None:
    """Write the lines, each ending in a newline, to path ('-' for stdout),
    _SLICE lines at a time."""
    lines = iter(lines)
    with _standard_stream("stdout") if path == "-" else open(path, "w", encoding="utf-8", newline="\n") as fh:
        while block := list(islice(lines, _SLICE)):
            fh.write("\n".join(block) + "\n")


def dot_lines(g: WeightedDigraph):
    """Yield the graph as DOT lines: its vertices, then its edges in row-major order."""
    yield "digraph G {"
    for v in range(1, g.n_vertices + 1):
        yield f"  v{v};"
    origin, terminus = np.nonzero(g.weights)
    for i, j, w in zip(origin.tolist(), terminus.tolist(), g.weights[origin, terminus].tolist()):
        yield f'  v{i + 1} -> v{j + 1} [label="{w.real:.6g}{w.imag:+.6g}i"];'
    yield "}"


def primes_lines(primes: PrimeClasses):
    """Yield the prime class table as CSV lines: nu, rep, norm_re, norm_im.

    rep is the closed vertex path of the class, e.g. 1->2->1.  Each level
    is read in slices of _SLICE rows, so no more than one slice is
    held as Python objects.
    """
    top = max((int(w.max()) for w in primes.words if w.size), default=0)
    label = [str(v) for v in range(top + 1)]
    yield "nu,rep,norm_re,norm_im"
    for nu, (words, norms) in enumerate(zip(primes.words, primes.norms), start=1):
        for start in range(0, len(norms), _SLICE):
            part = slice(start, start + _SLICE)
            for word, re, im in zip(words[part].tolist(), norms[part].real.tolist(), norms[part].imag.tolist()):
                path = "->".join([label[v] for v in word])
                yield f"{nu},{path}->{label[word[0]]},{re!r},{im!r}"


def verdict_text(v: SeparabilityVerdict) -> str:
    """The verdict as the coeffs command prints it after 'verdict: '."""
    note = " (caveat: pure-bipartite provenance not asserted)" if v.caveat else ""
    if v.separable:
        return f"separable by {v.method}{note}"
    if v.method == "coefficients":
        return f"entangled by {v.method}: n={v.failing_n}, c_n={v.value!r}{note}"
    return f"entangled by {v.method}: u={v.value!r}{note}"


def cmd_graph(args):
    g = graph_from_density(_load_state(args))
    return dot_lines(g), f"vertices: {g.n_vertices} edges: {g.n_edges}", 0


def cmd_coeffs(args):
    check_tol(args.tol)
    if args.N > _MAX_COEFF_ORDER:
        raise CapExceeded(f"coefficient order {args.N} exceeds cap {_MAX_COEFF_ORDER}")
    if args.N < 1:
        raise ValueError("coefficient order must be at least 1")
    rho = _load_state(args)
    series = series_coeffs(trace_powers(rho, args.N), args.N)
    lines = ["n,c_n", *(f"{n},{series[n]!r}" for n in range(1, args.N + 1))]
    if args.N < 2:
        return lines, None, 0
    verdict = is_separable_by_coeffs(rho, args.N, args.tol, pure_bipartite=args.pure_bipartite)
    return lines, f"verdict: {verdict_text(verdict)}", 0 if verdict.separable else 1


def cmd_curve(args):
    if args.steps < 2 or not args.u_min < args.u_max or not math.isfinite(args.u_max - args.u_min):
        raise ValueError("u grid needs finite min < max, a finite span and at least 2 steps")
    if args.p_steps is not None:
        if args.p_min is None or args.p_max is None:
            raise ValueError("p grid needs --p-min and --p-max")
        if args.p_steps < 2 or not args.p_min < args.p_max or not math.isfinite(args.p_max - args.p_min):
            raise ValueError("p grid needs finite min < max and at least 2 steps")
        if args.file is not None or args.state != "isotropic":
            raise ValueError("p grid sweeps apply only to the isotropic state")
        if args.p is not None:
            raise ValueError("--p cannot be given with a p grid")
    elif args.p_min is not None or args.p_max is not None:
        raise ValueError("--p-min and --p-max need --p-steps")
    rows = args.steps * (args.p_steps or 1)
    if rows > _MAX_CURVE_ROWS:
        raise CapExceeded(f"curve of {rows} rows exceeds cap {_MAX_CURVE_ROWS}")
    if args.p_steps is None:
        lines = ["u,zeta_re,zeta_im,at_singularity"]
        curves = [("", _load_state(args))]
    else:
        lines = ["u,p,zeta_re,zeta_im,at_singularity"]
        p_grid = np.linspace(args.p_min, args.p_max, args.p_steps).tolist()
        for p in p_grid:
            check_isotropic_p(p)
        # one state at a time: a surface may have up to _MAX_CURVE_ROWS / 2 of them
        curves = ((f",{p!r}", isotropic_state(p)) for p in p_grid)
    grid = np.linspace(args.u_min, args.u_max, args.steps).tolist()
    for p_column, rho in curves:
        for u, value in zip(grid, zeta_values(singularities(rho), grid).tolist()):
            lines.append(f"{u!r}{p_column},{value!r},0.0,0" if math.isfinite(value) else f"{u!r}{p_column},,,1")
    return lines, None, 0


def cmd_primes(args):
    check_length_cap(args.L)
    primes = enumerate_primes(graph_from_density(_load_state(args)), args.L)
    return primes_lines(primes), f"classes: {len(primes)}", 0


def cmd_bose(args):
    check_copy_caps(1, args.K)  # then the state's dim alone can fail the caps
    rho = _load_state(args)
    check_copy_caps(rho.dim, args.K)
    series = series_coeffs(trace_powers(rho, args.K), args.K)
    lines = ["k,acceptance,coefficient,abs_diff"]
    for k in range(1, args.K + 1):
        accept = acceptance_probability(rho, k)
        lines.append(f"{k},{accept!r},{series[k]!r},{abs(accept - series[k])!r}")
    return lines, None, 0


def _add_command(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """A subcommand parser with the shared state arguments; `main` calls `run`."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(run=run)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help=f"built-in state ({', '.join(sorted(BUILTIN_STATES))})")
    group.add_argument("--file", help="matrix JSON file")
    parser.add_argument("--p", type=float, help="isotropic parameter in [0, 1]")
    parser.add_argument("--dim", type=int, help="dimension of the random state")
    parser.add_argument("--seed", type=int, help="seed for randomized inputs")
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--validation-tol", type=float, default=DEFAULT_TOL,
                        help="validation tolerance in (0, 1) for a --file matrix; built-in states ignore it")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhozeta",
        description="Graph zeta functions of density matrices and pure-state separability tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "graph", cmd_graph, help="export the weighted digraph as DOT")

    p_coeffs = _add_command(sub, "coeffs", cmd_coeffs, help="series coefficients and separability verdict")
    p_coeffs.add_argument("--N", type=int, default=12,
                          help=f"highest coefficient order (<= {_MAX_COEFF_ORDER})")
    p_coeffs.add_argument("--tol", type=float, default=DEFAULT_SEPARABILITY_TOL,
                          help="separability tolerance in (0, 1)")
    p_coeffs.add_argument("--pure-bipartite", action="store_true",
                          help="assert the state is a reduced pure bipartite state")

    p_curve = _add_command(sub, "curve", cmd_curve, help="sample the zeta function over a u grid")
    p_curve.add_argument("--u-min", type=float, default=0.0)
    p_curve.add_argument("--u-max", type=float, default=0.9)
    p_curve.add_argument("--steps", type=int, default=50)
    p_curve.add_argument("--p-min", type=float)
    p_curve.add_argument("--p-max", type=float)
    p_curve.add_argument("--p-steps", type=int,
                         help="sample an isotropic (u, p) surface with this many p values")

    p_primes = _add_command(sub, "primes", cmd_primes, help="prime class table as CSV")
    p_primes.add_argument("--L", type=int, default=8,
                          help=f"maximum prime length (<= {PRIME_LENGTH_CAP})")

    p_bose = _add_command(sub, "bose", cmd_bose, help="copy-symmetry acceptance vs series coefficients")
    p_bose.add_argument("--K", type=int, default=3, help=f"largest copy count (<= {MAX_COPIES})")

    return parser


def main(argv=None) -> int:
    """Parse argv, run its subcommand and write what it returns.  The
    shared --validation-tol is checked here; each cmd_* checks its own
    arguments, before it builds a state unless the bound depends on the
    state (bose's table cap at the state's dim, the rows the prime search
    builds)."""
    args = build_parser().parse_args(argv)
    try:
        check_tol(args.validation_tol)
        lines, note, code = args.run(args)
        _write(args.out, lines)
    except (RhoZetaError, ValueError, OSError) as exc:
        note, code = f"error: {type(exc).__name__}: {exc}", 2
    if note is not None:
        with _standard_stream("stderr") as fh:
            print(note, file=fh)
    return code


def run():
    """The process entry: os._exit(main()).  main flushes all it writes, and
    os._exit skips interpreter teardown and every atexit handler.
    argparse's SystemExit and uncaught errors leave the normal way."""
    os._exit(main())


if __name__ == "__main__":
    run()
