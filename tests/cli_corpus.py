"""A fixed corpus of rhozeta invocations, for byte-for-byte comparisons of two source trees.

write_inputs(directory) writes the --file inputs from fixed seeds, and
invocations(directory) lists the argv of every invocation, reading those
inputs and writing any --out file in the same directory.  The corpus
covers all five subcommands on every built-in state and on random states
of several dims, matrix files, --out, the largest inputs each cap
accepts, and every refusal the CLI can print: each malformed, invalid,
oversized or missing matrix file, each argument out of range, each cap,
an unknown state and a missing output directory.  refusals(directory)
is the table of refusals: each entry carries the error type it must
name, a piece of the message it must print, and whether it must be
refused before any state is built.  The corpus holds 191 invocations,
59 of them refusals, 27 of those state-free.  tests/compare_trees.py
runs the corpus; test_cli.py's test_every_corpus_refusal_names_its_error
checks each refusal against its entry, and
test_refusals_come_before_any_state_is_built runs each state-free one
with every state builder replaced by one that raises.

No function here imports rhozeta, so the corpus does not depend on the
tree under test.  It leaves out the refusal of `primes --dim 8 --L 14`,
which builds 2.9 million search rows (about 270 MB) before it refuses;
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
    _write_matrix(directory / "near.json", np.diag([0.5 + 1e-6, 0.5]))  # unit trace only to within 1e-6
    _write_matrix(directory / "nonhermitian.json", [[0.5, 0.1], [0, 0.5]])
    _write_matrix(directory / "nilpotent.json", [[0, 1], [0, 0]])
    _write_matrix(directory / "indefinite.json", np.diag([1.5, -0.5]))
    _write_matrix(directory / "huge.json", [[0.5, 1e308], [1e308, 0.5]])
    payloads = {
        "malformed": '{"dim": 2, "entries": [[0.5, 0], [0, 0]',
        "nan": '{"dim": 1, "entries": [[NaN, 0]]}',
        "bigint": f'{{"dim": 1, "entries": [[{10 ** 399}, 0]]}}',
        "deep": "[" * 100_000,
        "noentries": '{"dim": 1}',
        "dimtrue": '{"dim": true, "entries": [[1, 0]]}',
        "dim513": '{"dim": 513, "entries": []}',
        "dim100000": '{"dim": 100000, "entries": []}',
        "count": '{"dim": 2, "entries": [[0.5, 0], [0.5, 0]]}',
        "short": '{"dim": 2, "entries": [[1, 0]]}',
        "string": '{"dim": 1, "entries": [["1", 0]]}',
        "null": '{"dim": 1, "entries": [[null, 0]]}',
        "list": '{"dim": 1, "entries": [[1, [0]]]}',
        "object": '{"dim": 1, "entries": [[{}, 0]]}',
        "bool": '{"dim": 1, "entries": [[true, 0]]}',
    }
    for name, text in payloads.items():
        (directory / f"{name}.json").write_text(text, encoding="utf-8")
    (directory / "latin1.json").write_bytes('{"dim": 1, "entries": [[1, 0]]} \u00e9'.encode("latin-1"))
    # one byte over the 32 MiB file cap, sparse, so it takes no disk space
    with open(directory / "oversize.json", "wb") as fh:
        fh.truncate(32 * 2**20 + 1)


def refusals(directory) -> list:
    """(error type, message piece, state_free, argv) of every corpus invocation
    that must exit 2 with the one stderr line `error: <type>: ...<piece>...`.
    A state-free one must be refused before any state is built or read."""
    directory = Path(directory)
    out = ["--out", str(directory / "out.txt")]

    def file(name):
        return ["--file", str(directory / f"{name}.json")]

    p_grid = ["--p-min", "0", "--p-max", "1", "--p-steps", "2"]
    tol = "tol must be finite and positive, below 1"
    u_grid = "u grid needs finite min < max"
    need_p_steps = "--p-min and --p-max need --p-steps"
    isotropic_only = "p grid sweeps apply only to the isotropic state"
    not_a_pair = "entry 0 is not a [re, im] pair of numbers"
    # refused as the state is read, validated or built, or as --out is opened
    late = [
        # matrix files
        ("JSONDecodeError", "Expecting ',' delimiter", ["graph", *file("malformed")]),
        ("NotUnitTrace", "|tr - 1| = 1.000e+00", ["coeffs", *file("far"), "--N", "4", "--validation-tol", "0.5"]),
        ("NotUnitTrace", "|tr - 1| = 1.000e-06", ["graph", *file("near")]),
        ("NotHermitian", "Hermiticity defect 1.000e-01", ["coeffs", *file("nonhermitian")]),
        ("NotHermitian", "Hermiticity defect 1.000e+00", ["graph", *file("nilpotent")]),
        ("NotPSD", "minimum eigenvalue -5.000e-01", ["primes", *file("indefinite")]),
        # the Hermitian part of a file with entries near the float maximum
        ("NotPSD", "minimum eigenvalue -1.000e+308", ["curve", *file("huge"), "--u-max", "0.5", "--steps", "3"]),
        ("NotPSD", "minimum eigenvalue -1.000e+308", ["coeffs", *file("huge"), "--N", "4"]),
        ("ValueError", "matrix entries must be finite", ["curve", *file("nan")]),
        ("ValueError", "an entry exceeds the float range", ["bose", *file("bigint")]),
        ("ValueError", "nested too deeply", ["graph", *file("deep")]),
        ("ValueError", "must be an object with 'dim' and 'entries'", ["graph", *file("noentries")]),
        ("ValueError", "'dim' must be a positive integer", ["graph", *file("dimtrue")]),
        ("CapExceeded", "matrix dim 513 exceeds cap 512", ["graph", *file("dim513")]),
        ("CapExceeded", "matrix dim 100000 exceeds cap 512", ["coeffs", *file("dim100000"), "--N", "64"]),
        ("DimensionMismatch", "must hold 4 pairs for dim 2, got 2", ["graph", *file("count")]),
        ("DimensionMismatch", "must hold 4 pairs for dim 2, got 1", ["graph", *file("short")]),
        *(("ValueError", not_a_pair, ["graph", *file(name)]) for name in ("string", "null", "list", "object", "bool")),
        ("CapExceeded", f"exceeds cap of {32 * 2**20} bytes", ["graph", *file("oversize"), *out]),
        ("UnicodeDecodeError", "can't decode byte 0xe9", ["graph", *file("latin1")]),
        ("FileNotFoundError", "No such file or directory", ["graph", *file("absent")]),
        # states
        ("ValueError", "dim must be at least 1", ["graph", "--state", "random", "--dim", "0"]),
        ("InvalidParameter", "isotropic parameter must lie in [0, 1], got 2.0", ["coeffs", "--state", "isotropic", "--p", "2"]),
        ("InvalidParameter", "unknown state 'nonesuch'", ["coeffs", "--state", "nonesuch"]),
        ("CapExceeded", "random state dim 513 exceeds cap 512", ["coeffs", "--state", "random", "--dim", "513"]),
        ("CapExceeded", "random state dim 513 exceeds cap 512", ["coeffs", "--state", "random", "--dim", "513", *out]),
        # the table cap at the state's dim
        ("CapExceeded", "for d=128, k=3 exceeds cap", ["bose", "--state", "random", "--dim", "128", "--K", "3"]),
        # output
        ("FileNotFoundError", "No such file or directory",
         ["graph", "--state", "plus", "--out", str(directory / "missing" / "out.txt")]),
    ]
    # refused by the arguments alone
    state_free = [
        ("ValueError", "coefficient order must be at least 1", ["coeffs", "--state", "plus", "--N", "0"]),
        ("ValueError", "length cap must be at least 1", ["primes", "--state", "plus", "--L", "0"]),
        ("ValueError", "need d >= 1 and k >= 1", ["bose", "--state", "plus", "--K", "0"]),
        ("ValueError", tol, ["coeffs", "--state", "bell-reduced", "--tol", "1"]),
        ("ValueError", tol, ["coeffs", "--state", "bell-reduced", "--tol", "nan"]),
        ("ValueError", tol, ["coeffs", "--state", "plus", "--tol", "inf"]),
        ("ValueError", tol, ["coeffs", *file("nonhermitian"), "--validation-tol", "nan"]),
        ("ValueError", u_grid, ["curve", "--state", "plus", "--steps", "1"]),
        ("ValueError", u_grid, ["curve", "--state", "plus", "--u-min", "1", "--u-max", "0"]),
        ("ValueError", u_grid, ["curve", "--state", "plus", "--u-max", "inf"]),
        ("ValueError", u_grid, ["curve", "--state", "plus", "--u-min=-1e308", "--u-max=1e308", "--steps", "3"]),
        ("ValueError", isotropic_only, ["curve", "--state", "plus", *p_grid]),
        ("ValueError", isotropic_only, ["curve", *file("herm"), *p_grid]),
        ("ValueError", need_p_steps, ["curve", "--state", "isotropic", "--p-min", "0"]),
        ("ValueError", need_p_steps, ["curve", "--state", "random", "--steps", "3", "--p-min", "0", "--p-max", "1"]),
        ("ValueError", need_p_steps, ["curve", "--state", "random", "--steps", "3", "--p-max", "1"]),
        ("ValueError", "p grid needs --p-min and --p-max", ["curve", "--state", "isotropic", "--p-steps", "3"]),
        ("ValueError", "p grid needs finite min < max and at least 2 steps",
         ["curve", "--state", "isotropic", "--p-min", "0", "--p-max", "1", "--p-steps", "1"]),
        ("ValueError", "p grid needs finite min < max and at least 2 steps",
         ["curve", "--state", "isotropic", "--p-min", "0", "--p-max", "inf", "--p-steps", "3"]),
        ("ValueError", "--p cannot be given with a p grid",
         ["curve", "--state", "isotropic", "--p", "0.3", "--p-min", "0", "--p-max", "1", "--p-steps", "3"]),
        ("InvalidParameter", "isotropic parameter must lie in [0, 1], got 1.5",
         ["curve", "--state", "isotropic", "--p-min", "0", "--p-max", "1.5", "--p-steps", "3"]),
        # caps
        ("CapExceeded", "coefficient order 65 exceeds cap 64", ["coeffs", "--state", "plus", "--N", "65"]),
        ("CapExceeded", "length cap 15 exceeds hard cap 14", ["primes", "--state", "plus", "--L", "15"]),
        ("CapExceeded", "length cap 15 exceeds hard cap 14", ["primes", "--state", "random", "--dim", "512", "--L", "15"]),
        ("CapExceeded", "k=13 exceeds cap 12", ["bose", "--state", "plus", "--K", "13"]),
        ("CapExceeded", "curve of 100001 rows exceeds cap 100000", ["curve", "--state", "plus", "--steps", "100001"]),
        ("CapExceeded", "curve of 100002 rows exceeds cap 100000",
         ["curve", "--state", "isotropic", "--steps", "50001", "--p-min", "0", "--p-max", "1", "--p-steps", "2"]),
    ]
    return ([(error, piece, False, argv) for error, piece, argv in late]
            + [(error, piece, True, argv) for error, piece, argv in state_free])


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
    return runs + [argv for *_, argv in refusals(directory)]
