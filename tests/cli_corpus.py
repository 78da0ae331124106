"""A fixed corpus of rhozeta invocations, for byte-for-byte comparisons of two source trees.

write_inputs(directory) writes the --file inputs from fixed seeds, and
invocations(directory) lists the argv of every invocation, reading those
inputs and writing any --out file in the same directory.  The corpus
covers all five subcommands on every built-in state and on random states
of several dims, matrix files, --out, the largest inputs each cap
accepts, and every refusal the CLI can print: each malformed, invalid,
oversized or missing matrix file, each argument out of range, each cap,
an unknown state and a missing output directory.  refusals(directory)
lists the refusals, each with the error type it must name.
tests/compare_trees.py runs the corpus, and test_cli.py checks that each
refusal exits 2 naming its type.

No function here imports rhozeta, so the corpus does not depend on the
tree under test.  It leaves out the refusal of `primes --dim 8 --L 14`,
which builds 2.9 million search rows (about 400 MB) before it refuses;
test_primes_refuses_dense_search covers it.
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
    _write_matrix(directory / "nonhermitian.json", [[0.5, 0.1], [0, 0.5]])
    _write_matrix(directory / "indefinite.json", np.diag([1.5, -0.5]))
    payloads = {
        "malformed": '{"dim": 2, "entries": [[0.5, 0], [0, 0]',
        "nan": '{"dim": 1, "entries": [[NaN, 0]]}',
        "bigint": f'{{"dim": 1, "entries": [[{10 ** 399}, 0]]}}',
        "deep": "[" * 100_000,
        "noentries": '{"dim": 1}',
        "dimtrue": '{"dim": true, "entries": [[1, 0]]}',
        "dim513": '{"dim": 513, "entries": []}',
        "count": '{"dim": 2, "entries": [[0.5, 0], [0.5, 0]]}',
        "string": '{"dim": 1, "entries": [["1", 0]]}',
    }
    for name, text in payloads.items():
        (directory / f"{name}.json").write_text(text, encoding="utf-8")
    (directory / "latin1.json").write_bytes('{"dim": 1, "entries": [[1, 0]]} \u00e9'.encode("latin-1"))
    # one byte over the 32 MiB file cap, sparse, so it takes no disk space
    with open(directory / "oversize.json", "wb") as fh:
        fh.truncate(32 * 2**20 + 1)


def refusals(directory) -> list:
    """(error type, argv) of every corpus invocation that must exit 2 naming that type."""
    directory = Path(directory)
    out = ["--out", str(directory / "out.txt")]

    def file(name):
        return ["--file", str(directory / f"{name}.json")]

    p_grid = ["--p-min", "0", "--p-max", "1", "--p-steps", "3"]
    return [
        # matrix files
        ("JSONDecodeError", ["graph", *file("malformed")]),
        ("NotUnitTrace", ["coeffs", *file("far"), "--N", "4", "--validation-tol", "0.5"]),
        ("NotHermitian", ["coeffs", *file("nonhermitian")]),
        ("NotPSD", ["primes", *file("indefinite")]),
        ("ValueError", ["curve", *file("nan")]),
        ("ValueError", ["bose", *file("bigint")]),
        ("ValueError", ["graph", *file("deep")]),
        ("ValueError", ["graph", *file("noentries")]),
        ("ValueError", ["graph", *file("dimtrue")]),
        ("CapExceeded", ["graph", *file("dim513")]),
        ("DimensionMismatch", ["graph", *file("count")]),
        ("ValueError", ["graph", *file("string")]),
        ("CapExceeded", ["graph", *file("oversize"), *out]),
        ("UnicodeDecodeError", ["graph", *file("latin1")]),
        ("FileNotFoundError", ["graph", *file("absent")]),
        # arguments out of range
        ("ValueError", ["coeffs", "--state", "plus", "--N", "0"]),
        ("ValueError", ["primes", "--state", "plus", "--L", "0"]),
        ("ValueError", ["bose", "--state", "plus", "--K", "0"]),
        ("ValueError", ["graph", "--state", "random", "--dim", "0"]),
        ("InvalidParameter", ["coeffs", "--state", "isotropic", "--p", "2"]),
        ("ValueError", ["coeffs", "--state", "bell-reduced", "--tol", "1"]),
        ("InvalidParameter", ["coeffs", "--state", "nonesuch"]),
        ("ValueError", ["curve", "--state", "plus", "--steps", "1"]),
        ("ValueError", ["curve", "--state", "plus", "--u-min", "1", "--u-max", "0"]),
        ("ValueError", ["curve", "--state", "plus", "--u-max", "inf"]),
        ("ValueError", ["curve", "--state", "plus", *p_grid]),
        ("ValueError", ["curve", "--state", "isotropic", "--p-min", "0"]),
        ("ValueError", ["curve", "--state", "isotropic", "--p-steps", "3"]),
        ("ValueError", ["curve", "--state", "isotropic", "--p-min", "0", "--p-max", "1", "--p-steps", "1"]),
        ("ValueError", ["curve", "--state", "isotropic", "--p", "0.5", *p_grid]),
        ("InvalidParameter", ["curve", "--state", "isotropic", "--p-min", "0", "--p-max", "1.5", "--p-steps", "3"]),
        # caps
        ("CapExceeded", ["coeffs", "--state", "plus", "--N", "65"]),
        ("CapExceeded", ["primes", "--state", "plus", "--L", "15"]),
        ("CapExceeded", ["bose", "--state", "plus", "--K", "13"]),
        ("CapExceeded", ["bose", "--state", "random", "--dim", "128", "--K", "3"]),  # the table cap at the state's dim
        ("CapExceeded", ["curve", "--state", "plus", "--steps", "100001"]),
        ("CapExceeded", ["coeffs", "--state", "random", "--dim", "513"]),
        ("CapExceeded", ["coeffs", "--state", "random", "--dim", "513", *out]),
        # output
        ("FileNotFoundError", ["graph", "--state", "plus", "--out", str(directory / "missing" / "out.txt")]),
    ]


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
    ]
    return runs + [argv for _, argv in refusals(directory)]
