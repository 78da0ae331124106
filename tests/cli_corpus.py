"""A fixed corpus of rhozeta invocations, for byte-for-byte comparisons of two source trees.

write_inputs(directory) writes the --file inputs from fixed seeds, and
invocations(directory) lists the argv of every invocation, reading those
inputs and writing any --out file in the same directory.  The corpus
covers all five subcommands on every built-in state and on random states
of several dims, matrix files, --out, the largest inputs each cap
accepts, and each refusal.  tests/compare_trees.py runs it.

Neither function imports rhozeta, so the corpus does not depend on the
tree under test.
"""

import json
from pathlib import Path

import numpy as np

BUILTINS = ("bell", "bell-reduced", "ghz", "ghz-reduced", "isotropic", "maxmixed2", "maxmixed4",
            "plus", "random", "sigma", "sigma3", "w", "w-reduced")
RANDOM_DIMS = (1, 2, 5, 16, 64)
FILE_DIMS = (1, 2, 3, 4, 5)

#: Each subcommand with options that keep it small on every input above.
COMMANDS = {
    "graph": [],
    "coeffs": [],
    "curve": ["--u-min", "0", "--u-max", "4", "--steps", "9"],  # the grid meets u = 1, 2 and 4
    "primes": ["--L", "4"],  # --L 2 at dim 64, where --L 4 finds 4.3 million classes
    "bose": [],
}


def _write_matrix(path: Path, matrix) -> None:
    entries = [[z.real, z.imag] for z in np.asarray(matrix, dtype=complex).ravel().tolist()]
    path.write_text(json.dumps({"dim": len(matrix), "entries": entries}) + "\n", encoding="utf-8")


def write_inputs(directory) -> None:
    """Write the corpus' matrix files into directory."""
    directory = Path(directory)
    for dim in FILE_DIMS:
        g = np.random.default_rng(dim).standard_normal((dim, dim))
        w = g @ g.T
        _write_matrix(directory / f"real{dim}.json", w / np.trace(w))
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = g @ g.conj().T
    _write_matrix(directory / "herm.json", w / np.trace(w).real)
    # far from a state: unit trace only to within 1e200
    _write_matrix(directory / "far.json", np.diag([1e200, -1e200]))
    (directory / "malformed.json").write_text('{"dim": 2, "entries": [[0.5, 0], [0, 0]', encoding="utf-8")


def invocations(directory) -> list:
    """The argv of every corpus invocation, reading and writing files in directory."""
    directory = Path(directory)
    states = [["--state", name] for name in BUILTINS]
    states += [["--state", "random", "--dim", str(dim)] for dim in RANDOM_DIMS]
    states += [["--file", str(directory / f"real{dim}.json")] for dim in FILE_DIMS]
    states.append(["--file", str(directory / "herm.json")])
    runs = [[command, *state, *options] for state in states for command, options in COMMANDS.items()]
    runs[runs.index(["primes", "--state", "random", "--dim", "64", "--L", "4"])][-1] = "2"
    out = ["--out", str(directory / "out.txt")]
    runs += [
        ["graph", "--file", str(directory / "malformed.json")],
        ["coeffs", "--file", str(directory / "far.json"), "--N", "4", "--validation-tol", "0.5"],
        # --out
        ["graph", "--state", "w", *out],
        ["coeffs", "--state", "bell-reduced", "--N", "6", "--pure-bipartite", *out],
        ["coeffs", "--state", "sigma", "--N", "1", *out],
        ["curve", "--state", "isotropic", "--p-min", "0", "--p-max", "1", "--p-steps", "3",
         "--u-min", "0", "--u-max", "4.5", "--steps", "10", *out],
        ["primes", "--state", "ghz-reduced", "--L", "6", *out],
        ["bose", "--state", "random", "--dim", "3", "--K", "4", *out],
        # the largest inputs each cap accepts
        ["primes", "--state", "random", "--dim", "512", "--L", "2"],
        ["coeffs", "--state", "random", "--dim", "512", "--N", "64"],
        ["bose", "--state", "random", "--dim", "512", "--K", "2"],
        ["bose", "--state", "random", "--dim", "91", "--K", "3"],
        ["bose", "--state", "random", "--dim", "3", "--K", "12"],
        ["curve", "--state", "random", "--dim", "512", "--seed", "1", "--u-min", "0", "--u-max", "200",
         "--steps", "100000"],
        # refusals
        ["coeffs", "--state", "plus", "--N", "65"],
        ["primes", "--state", "plus", "--L", "15"],
        ["bose", "--state", "plus", "--K", "13"],
        ["coeffs", "--state", "random", "--dim", "513"],
        ["coeffs", "--state", "bell-reduced", "--tol", "1"],
        ["curve", "--state", "plus", "--p-min", "0", "--p-max", "1", "--p-steps", "2"],
        ["curve", "--state", "isotropic", "--p-min", "0"],
        ["coeffs", "--state", "nonesuch"],
        ["graph", "--state", "plus", "--out", str(directory / "missing" / "out.txt")],
        ["coeffs", "--state", "random", "--dim", "513", *out],
    ]
    return runs
