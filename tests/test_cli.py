"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_corpus
from refimpl import save_matrix
from rhozeta import cli, errors, graph, linalg
from rhozeta.cli import BUILTIN_STATES, builtin_state, main
from rhozeta.graph import PRIME_LENGTH_CAP
from rhozeta.linalg import MAX_DIM
from rhozeta.quantum import MAX_COPIES
from rhozeta.zeta import is_separable_by_singularity


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- graph ----------------------------------------------------------------------

def test_graph_plus_counts_and_dot(tmp_path, capsys):
    out = tmp_path / "plus.dot"
    code, _, err = run_cli(["graph", "--state", "plus", "--out", str(out)], capsys)
    assert code == 0
    assert "vertices: 2 edges: 4" in err
    text = out.read_text()
    assert text.startswith("digraph G {")
    assert text.count("->") == 4


def test_graph_maxmixed_loops(tmp_path, capsys):
    out = tmp_path / "mm.dot"
    code, _, err = run_cli(["graph", "--state", "maxmixed2", "--out", str(out)], capsys)
    assert code == 0
    assert "vertices: 2 edges: 2" in err
    assert "v1 -> v2" not in out.read_text()


@pytest.mark.parametrize("off_diagonal,edges,two_cycles", [(1e-13, 2, []), (1e-11, 4, ["1->2->1"])])
def test_graph_and_primes_share_the_zero_threshold(tmp_path, capsys, off_diagonal, edges, two_cycles):
    # entries at or below linalg.ZERO_TOL make no edge, in the exported graph
    # and in the one whose prime classes the Euler route multiplies
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[0.5, 0], [off_diagonal, 0],
                                                      [off_diagonal, 0], [0.5, 0]]}))
    code, _, err = run_cli(["graph", "--file", str(path)], capsys)
    assert code == 0
    assert f"edges: {edges}" in err
    code, out, _ = run_cli(["primes", "--file", str(path), "--L", "2"], capsys)
    assert code == 0
    assert [rep for nu, rep, *_ in csv.reader(io.StringIO(out)) if nu == "2"] == two_cycles


def test_file_byte_cap_exits_before_parsing(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rho.json"
    save_matrix(path, np.eye(4) / 4)
    monkeypatch.setattr(linalg, "MAX_FILE_BYTES", path.stat().st_size - 1)
    monkeypatch.setattr(linalg.json, "loads", None)  # parsing would raise TypeError
    code, out, err = run_cli(["graph", "--file", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: CapExceeded")


def _wishart_entries(dim, seed):
    """Row-major [re, im] pairs of a seeded normalized Wishart state."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return [[z.real, z.imag] for z in (w / np.trace(w).real).ravel().tolist()]


_JUNK = st.sampled_from([True, False, None, "0.5", math.nan, math.inf, -math.inf])
_HUGE = st.floats(-1.7e308, 1.7e308)


@st.composite
def file_payloads(draw, max_dim=4):
    """Matrix JSON text for dims 1..max_dim: a valid Wishart state, or one
    with a wrong entry count, a mistyped or non-finite component, or finite
    entries up to the float maximum (placed in Hermitian pairs, or not)."""
    dim = draw(st.integers(1, max_dim))
    entries = _wishart_entries(dim, draw(st.integers(0, 2**32 - 1)))
    corruption = draw(st.sampled_from(["none", "length", "junk", "huge", "huge-hermitian"]))
    if corruption == "length":
        size = draw(st.integers(0, 2 * dim * dim).filter(lambda k: k != dim * dim))
        entries = (entries * 2)[:size]
    elif corruption == "junk":
        entries[draw(st.integers(0, dim * dim - 1))][draw(st.integers(0, 1))] = draw(_JUNK)
    elif corruption.startswith("huge"):
        for _ in range(draw(st.integers(1, dim * dim))):
            i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            re, im = draw(_HUGE), draw(_HUGE)
            entries[i * dim + j] = [re, im]
            if corruption == "huge-hermitian":
                entries[j * dim + i] = [re, -im if i != j else im]
    return json.dumps({"dim": dim, "entries": entries})


@pytest.fixture(scope="module")
def payload_path(tmp_path_factory):
    return tmp_path_factory.mktemp("payloads") / "rho.json"


@settings(deadline=None, max_examples=150, derandomize=True)
@given(payload=file_payloads())
def test_coeffs_file_ends_in_finite_table_or_named_error(payload_path, payload):
    """coeffs on any --file payload prints finite c_n with exit 0 or 1, or
    exits 2 with only an error line; it never raises."""
    payload_path.write_text(payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["coeffs", "--file", str(payload_path), "--N", "4"])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: "), (payload, err)
    else:
        assert code in (0, 1), payload
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "c_n"] and [int(n) for n, _ in rows[1:]] == [1, 2, 3, 4]
        assert all(math.isfinite(float(c)) for _, c in rows[1:]), (payload, out)


# -- coeffs ---------------------------------------------------------------------

def test_coeffs_plus_all_ones(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, err = run_cli(
        ["coeffs", "--state", "plus", "--N", "12", "--pure-bipartite", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "separable" in err and "caveat" not in err
    rows = read_csv(out)
    assert rows[0] == ["n", "c_n"]
    assert len(rows) == 13
    for _, value in rows[1:]:
        assert abs(float(value) - 1.0) < 1e-9


def test_coeffs_bell_reduced_entangled(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, err = run_cli(
        ["coeffs", "--state", "bell-reduced", "--N", "2", "--out", str(out)], capsys
    )
    assert code == 1
    assert "entangled" in err
    rows = read_csv(out)
    assert abs(float(rows[2][1]) - 0.75) < 1e-12


def test_coeffs_below_order_two_prints_no_verdict(capsys):
    # the coefficient verdict needs c_2, so the entangled bell-reduced state
    # at --N 1 prints its one row and exits 0
    code, out, err = run_cli(["coeffs", "--state", "bell-reduced", "--N", "1", "--pure-bipartite"], capsys)
    assert code == 0
    assert err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "c_n"] and len(rows) == 2
    assert rows[1][0] == "1" and abs(float(rows[1][1]) - 1.0) < 1e-12


def test_coeffs_sigma3_decreasing_tail(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(["coeffs", "--state", "sigma3", "--N", "10", "--out", str(out)], capsys)
    assert code == 1
    values = [float(v) for _, v in read_csv(out)[1:]]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[9] < 0.01


@pytest.mark.parametrize("state", [["--state", name] for name in sorted(BUILTIN_STATES)]
                         + [["--state", "random", "--dim", str(dim)] for dim in (1, 2, 5, 9, 17, 33, 64, 128)],
                         ids=" ".join)
def test_coeffs_table_is_a_prefix_of_the_longest(capsys, state):
    # every invocation builds its state afresh and computes its power sums
    # anew, so the rows agree because p_m depends on m alone, not on --N
    _, longest, _ = run_cli(["coeffs", *state, "--N", str(cli._MAX_COEFF_ORDER)], capsys)
    lines = longest.splitlines(keepends=True)
    for n in (1, 2, 7, 8, 9, 16, 17, 63):
        _, out, _ = run_cli(["coeffs", *state, "--N", str(n)], capsys)
        assert out == "".join(lines[:n + 1]), n


def test_file_trace_overflow_prints_only_the_error_line(tmp_path):
    # the diagonal sums past the float maximum: numpy's overflow warning
    # reached stderr ahead of the error line, and under -W error it became
    # a traceback with exit 1
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 2, "entries": [[1.7e308, 0], [0, 0], [0, 0], [1.7e308, 0]]}))
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "rhozeta.cli", "coeffs", "--file", str(big), "--N", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, flags
        assert proc.stdout == "" and proc.stderr.startswith("error: NotUnitTrace"), proc.stderr


def test_validation_tol_applies_to_file_input(tmp_path, capsys):
    # the corpus refuses this file at the default tolerance
    near = tmp_path / "near.json"
    save_matrix(near, np.diag([0.5 + 1e-6, 0.5]))
    code, out, err = run_cli(["graph", "--file", str(near), "--validation-tol", "1e-5"], capsys)
    assert code == 0
    assert out.startswith("digraph G {") and "vertices: 2 edges: 2" in err


def test_validation_tol_of_one_or_more_is_an_input_error(tmp_path):
    # tol 1e300 admitted diag(1e200, -1e200): coeffs printed inf and nan after
    # numpy's matmul warnings, and bose printed nan with exit code 0
    far = tmp_path / "far.json"
    far.write_text(json.dumps({"dim": 2, "entries": [[1e200, 0], [0, 0], [0, 0], [-1e200, 0]]}))
    for flags in ([], ["-W", "error::RuntimeWarning"]):
        for argv in (["coeffs", "--N", "4"], ["bose", "--K", "2"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "rhozeta.cli", *argv, "--file", str(far),
                 "--validation-tol", "1e300"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2, (flags, argv)
            assert proc.stdout == "" and proc.stderr.startswith("error:"), proc.stderr


# -- curve ----------------------------------------------------------------------

def test_curve_plus_matches_geometric(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["curve", "--state", "plus", "--u-min", "0", "--u-max", "0.9", "--steps", "10",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["u", "zeta_re", "zeta_im", "at_singularity"]
    for u_str, re_str, im_str, flag in rows[1:]:
        u = float(u_str)
        assert flag == "0"
        assert abs(float(re_str) - 1.0 / (1.0 - u)) < 1e-9
        assert float(im_str) == 0.0


def test_curve_flags_singular_rows(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["curve", "--state", "ghz-reduced", "--u-min", "1.5", "--u-max", "2.5",
         "--steps", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    flagged = [row for row in rows[1:] if row[3] == "1"]
    assert len(flagged) == 1
    assert abs(float(flagged[0][0]) - 2.0) < 1e-9
    assert flagged[0][1] == "" and flagged[0][2] == ""


def test_curve_near_high_multiplicity_pole_flags_only_the_pole(tmp_path, capsys):
    # rows within 1e-6 of the fourfold pole at u = 4 are flagged; the rows
    # 1.25e-6 and more away carry 1/(1 - u/4)^4, about 1e26
    out = tmp_path / "near.csv"
    code, _, _ = run_cli(
        ["curve", "--state", "isotropic", "--p", "1.0", "--u-min", "3.99999875",
         "--u-max", "4.00000375", "--steps", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)[1:]
    assert [row[3] for row in rows] == ["0", "1", "0", "0", "0"]
    assert float(rows[1][0]) == 4.0 and rows[1][1] == rows[1][2] == ""
    for row in rows[:1] + rows[2:]:
        u = float(row[0])
        expected = 1.0 / (1.0 - u / 4.0) ** 4
        assert abs(float(row[1]) - expected) <= 1e-10 * expected
        assert float(row[2]) == 0.0


def test_curve_large_u_underflows_to_zero(tmp_path, capsys):
    out = tmp_path / "far.csv"
    code, _, _ = run_cli(
        ["curve", "--state", "sigma3", "--u-min", "1e100", "--u-max", "1e300",
         "--steps", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 3
    for row in rows:
        assert row[3] == "0"
        assert all(math.isfinite(float(v)) for v in row[1:3])


def test_curve_where_u_lam_overflows_prints_the_value(tmp_path, capsys):
    # the eigenvalue 1 + 1e-10 passes validation at the default tolerance;
    # u*lam overflowed at u = float max and the last row printed nan,nan,0
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"dim": 2, "entries": [[1.0000000001, 0], [0, 0], [0, 0], [-1e-10, 0]]}))
    code, out, _ = run_cli(["curve", "--file", str(over), "--u-max", "1.7976931348623157e308",
                            "--steps", "3"], capsys)
    assert code == 0
    u, re, im, flag = out.splitlines()[-1].split(",")
    assert float(u) == sys.float_info.max and flag == "0" and float(im) == 0.0
    expected = -(1 / sys.float_info.max) / 1.0000000001
    assert abs(float(re) - expected) <= 1e-9 * abs(expected)


def test_curve_isotropic_surface(tmp_path, capsys):
    out = tmp_path / "surf.csv"
    code, _, _ = run_cli(
        ["curve", "--state", "isotropic", "--u-min", "0", "--u-max", "4.5",
         "--steps", "10", "--p-min", "0", "--p-max", "1", "--p-steps", "2",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["u", "p", "zeta_re", "zeta_im", "at_singularity"]
    flagged = {(float(r[1]), float(r[0])) for r in rows[1:] if r[4] == "1"}
    assert flagged == {(0.0, 1.0), (1.0, 4.0)}


def test_curve_row_cap(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(["curve", "--state", "plus", "--steps", "100000", "--out", str(out)], capsys)
    assert code == 0
    assert len(read_csv(out)) == 100001


def test_curve_surface_blocks_equal_single_curves(capsys):
    # each p block of a surface, its p column removed, is the curve of that
    # isotropic state on the same u grid
    grid = ["--u-min", "0", "--u-max", "4.5", "--steps", "10"]
    code, out, _ = run_cli(["curve", "--state", "isotropic", *grid,
                            "--p-min", "0", "--p-max", "1", "--p-steps", "5"], capsys)
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "u,p,zeta_re,zeta_im,at_singularity" and len(rows) == 50
    for block in range(5):
        block_rows = [row.split(",") for row in rows[10 * block:10 * (block + 1)]]
        p = block_rows[0][1]
        assert all(row[1] == p for row in block_rows)
        code, single, _ = run_cli(["curve", "--state", "isotropic", "--p", p, *grid], capsys)
        assert code == 0
        expected = "u,zeta_re,zeta_im,at_singularity\n" + "".join(
            ",".join([row[0], *row[2:]]) + "\n" for row in block_rows)
        assert single == expected, p


def test_curve_writes_no_warning_text(tmp_path):
    # pytest turns a RuntimeWarning into an error only in its own process: as
    # a subprocess, curve writes its rows and no stderr past the float
    # product's range, where u*lam is near overflow, on a fourfold pole, and
    # where |zeta| passes the float range, about e^1106 at 64 + 2e-6 for
    # the maximally mixed state of dim 64, whose rows are all flagged
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"dim": 2, "entries": [[1.0000000001, 0], [0, 0], [0, 0], [-1e-10, 0]]}))
    flat = tmp_path / "flat.json"
    save_matrix(flat, np.eye(64) / 64)
    for argv in (
        ["--state", "random", "--dim", "64", "--seed", "3", "--u-min=-1.7e308", "--u-max", "0"],
        ["--file", str(over), "--u-max", "1.7976931348623157e308"],
        ["--state", "maxmixed4", "--u-min", "3.999999", "--u-max", "4.000001"],
        ["--file", str(flat), "--u-min", "64.000002", "--u-max", "64.00001"],
    ):
        proc = subprocess.run([sys.executable, "-m", "rhozeta.cli", "curve", *argv, "--steps", "101"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", (argv, proc.stderr)
        assert len(proc.stdout.splitlines()) == 102
    assert all(row.endswith(",,,1") for row in proc.stdout.splitlines()[1:])


def test_random_dim_cap(capsys):
    # random states share the --file dim cap
    code, out, _ = run_cli(["coeffs", "--state", "random", "--dim", str(MAX_DIM), "--N", "1"], capsys)
    assert code == 0
    assert out.startswith("n,c_n\n1,")


def test_entangled_by_singularity_verdict_text():
    rho = builtin_state("w-reduced")
    for pure_bipartite, note in [(False, " (caveat: pure-bipartite provenance not asserted)"), (True, "")]:
        verdict = is_separable_by_singularity(rho, pure_bipartite=pure_bipartite)
        assert abs(verdict.value - 1.5) < 1e-12
        assert cli.verdict_text(verdict) == f"entangled by singularity: u={verdict.value!r}{note}"


# -- primes ---------------------------------------------------------------------

def test_primes_plus(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, err = run_cli(["primes", "--state", "plus", "--L", "2", "--out", str(out)], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert "classes: 3" in err


def test_primes_maxmixed_loops_only(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, _ = run_cli(["primes", "--state", "maxmixed2", "--L", "4", "--out", str(out)], capsys)
    assert code == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 2
    assert all(row[0] == "1" for row in rows)


def test_primes_single_vertex_state(tmp_path, capsys):
    state = tmp_path / "one.json"
    state.write_text(json.dumps({"dim": 1, "entries": [[1.0, 0.0]]}))
    out = tmp_path / "p.csv"
    code, _, _ = run_cli(["primes", "--file", str(state), "--L", "5", "--out", str(out)], capsys)
    assert code == 0
    assert len(read_csv(out)) == 2


def test_primes_refuses_dense_search():
    # the search builds 2,859,128 rows up to length 8, then is refused before
    # laying out length 9, which would take it to 20,219,744; uncapped, its
    # last level alone would hold about 3.1e11 Lyndon words.  Those rows take
    # about 270 MB, so the search runs in a child process, not in this one
    proc = subprocess.run(
        [sys.executable, "-m", "rhozeta.cli", "primes", "--state", "random", "--dim", "8", "--L", "14"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "CapExceeded" in proc.stderr


# -- bose -------------------------------------------------------------------------

def test_bose_bell_reduced(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, _ = run_cli(["bose", "--state", "bell-reduced", "--K", "3", "--out", str(out)], capsys)
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "acceptance", "coefficient", "abs_diff"]
    expected = {1: 1.0, 2: 0.75, 3: 0.5}
    for k_str, accept, _, diff in rows[1:]:
        assert abs(float(accept) - expected[int(k_str)]) < 1e-9
        assert float(diff) < 1e-9


def test_bose_plus_all_ones(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, _ = run_cli(["bose", "--state", "plus", "--K", "4", "--out", str(out)], capsys)
    assert code == 0
    for _, accept, coeff, diff in read_csv(out)[1:]:
        assert abs(float(accept) - 1.0) < 1e-9
        assert float(diff) < 1e-9


def test_bose_random_qutrit(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, _ = run_cli(
        ["bose", "--state", "random", "--dim", "3", "--seed", "42", "--K", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    for row in read_csv(out)[1:]:
        assert float(row[3]) < 1e-9


def test_bose_copy_cap(capsys):
    code, _, _ = run_cli(["bose", "--state", "plus", "--K", "12"], capsys)
    assert code == 0


def test_bose_checks_copy_dimension_before_work(monkeypatch, capsys):
    def refuse(rho, k):
        raise AssertionError(f"acceptance_probability(k={k}) ran before the copy cap check")

    monkeypatch.setattr(cli, "acceptance_probability", refuse)
    # K = 1 and 2 fit the table cap at dim 128, K = 3 does not
    code, out, err = run_cli(["bose", "--state", "random", "--dim", "128", "--K", "3"], capsys)
    assert code == 2
    assert out == "" and "CapExceeded" in err


# -- cross-cutting ------------------------------------------------------------------

class _NoWrites(io.StringIO):
    def write(self, text):
        raise AssertionError(f"a command wrote {text!r}")


@pytest.mark.parametrize("argv,expected", [
    (["graph", "--state", "w-reduced"], (0, "vertices: 4 edges: 5")),
    (["graph", "--state", "nonesuch"], errors.InvalidParameter),
    (["coeffs", "--state", "plus", "--pure-bipartite"], (0, "verdict: separable")),
    (["coeffs", "--state", "bell-reduced"], (1, "verdict: entangled")),
    (["coeffs", "--state", "sigma", "--N", "1"], (0, None)),  # a table without a verdict
    (["coeffs", "--state", "plus", "--N", "65"], errors.CapExceeded),
    (["curve", "--state", "maxmixed2", "--u-min", "0", "--u-max", "4", "--steps", "9"], (0, None)),
    (["curve", "--state", "plus", "--steps", "1"], ValueError),
    (["primes", "--state", "ghz-reduced", "--L", "4"], (0, "classes: ")),
    (["primes", "--state", "plus", "--L", "15"], errors.CapExceeded),
    (["bose", "--state", "bell-reduced", "--K", "4"], (0, None)),
    (["bose", "--state", "plus", "--K", "13"], errors.CapExceeded),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_commands_return_what_main_writes(monkeypatch, capsys, argv, expected):
    # a command returns (lines, note, code) or raises, and writes nothing;
    # main writes the lines to stdout, then the note as one stderr line
    args = cli.build_parser().parse_args(argv)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _NoWrites())
        patch.setattr(sys, "stderr", _NoWrites())
        if isinstance(expected, type):
            with pytest.raises(expected):
                args.run(args)
            return
        lines, note, code = args.run(args)
        lines = list(lines)
    expected_code, note_start = expected
    assert code == expected_code
    assert note is None if note_start is None else note.startswith(note_start)
    err = "" if note is None else note + "\n"
    assert run_cli(argv, capsys) == (code, "".join(line + "\n" for line in lines), err)


def _values(in_range, low=None, high=None, floats=False):
    """An option's value as text: three draws in four in range, the rest at
    a bound or its neighbours, 0, a negative, 10**12, or for a float NaN or
    +-inf."""
    edges = [0, -1, -7, 10**12]
    for bound in (low, high):
        if bound is not None:
            edges += [bound - 1, bound, bound + 1]
    if floats:
        edges += [math.nan, math.inf, -math.inf]
    edge = st.sampled_from(edges)
    return st.integers(0, 3).flatmap(lambda i: in_range if i else edge).map(str)


_TOL = _values(st.floats(0, 1, exclude_min=True, exclude_max=True), 0, 1, floats=True)
_COMMAND_OPTIONS = {
    "graph": {},
    "coeffs": {"--N": _values(st.integers(1, cli._MAX_COEFF_ORDER), 1, cli._MAX_COEFF_ORDER), "--tol": _TOL},
    # in range, min < max and a grid stays short
    "curve": {"--u-min": _values(st.floats(-10, 0), floats=True),
              "--u-max": _values(st.floats(0, 10, exclude_min=True), floats=True),
              "--steps": _values(st.integers(2, 200), 2, cli._MAX_CURVE_ROWS)},
    "primes": {"--L": _values(st.integers(1, PRIME_LENGTH_CAP), 1, PRIME_LENGTH_CAP)},
    "bose": {"--K": _values(st.integers(1, MAX_COPIES), 1, MAX_COPIES)},
}
_SURFACE_OPTIONS = {"--p-min": _values(st.floats(0, 0.5), 0, 1, floats=True),
                    "--p-max": _values(st.floats(0.5, 1, exclude_min=True), 0, 1, floats=True),
                    "--p-steps": _values(st.integers(2, 5), 2)}
_SMALL_BUILTINS = sorted(name for name in BUILTIN_STATES if builtin_state(name).dim <= 2)


@st.composite
def cli_invocations(draw, payload_path, out_path):
    """argv for any subcommand on a built-in, random, unknown or --file
    state, each numeric option drawn by _values or left out.  A curve may
    sweep a (u, p) surface, drawn with all three p grid options and most
    often on the isotropic state.  A primes search longer than 3 runs on a
    state of dim at most 2, so none nears MAX_SEARCH_STEPS
    (test_primes_refuses_dense_search covers that edge)."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    surface = command == "curve" and draw(st.booleans())
    argv = [command]
    for option, values in _COMMAND_OPTIONS[command].items():
        if (value := draw(st.none() | values)) is not None:
            argv.append(f"{option}={value}")
    if surface:
        argv += [f"{option}={draw(values)}" for option, values in _SURFACE_OPTIONS.items()]
    small = command == "primes" and any(
        arg.startswith("--L=") and 3 < int(arg[4:]) <= PRIME_LENGTH_CAP for arg in argv)
    kind = draw(st.sampled_from(["builtin", "random", "nosuch", "file"] + ["isotropic"] * 4 * surface))
    if kind == "isotropic":
        argv += ["--state", "isotropic"]
    elif kind == "builtin":
        argv += ["--state", draw(st.sampled_from(_SMALL_BUILTINS if small else sorted(BUILTIN_STATES)))]
    elif kind == "random":
        argv += ["--state", "random",
                 f"--dim={draw(_values(st.integers(1, 2 if small else 32), 1))}"]
    elif kind == "nosuch":
        argv += ["--state", "nosuch"]
    else:
        payload_path.write_text(draw(file_payloads(max_dim=2 if small else 4)))
        argv += ["--file", str(payload_path)]
    for option, values in (("--p", _values(st.floats(0, 1), 0, 1, floats=True)),
                           ("--seed", _values(st.integers(0, 2**32 - 1), 0)),
                           ("--validation-tol", _TOL)):
        if option == "--p" and surface:
            continue  # a p grid refuses --p; the corpus' refusal table checks that
        if (value := draw(st.none() | values)) is not None:
            argv.append(f"{option}={value}")
    if draw(st.booleans()):
        argv += ["--out", str(out_path)]
    return argv


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("out") / "out.txt"


@settings(deadline=None, max_examples=200, derandomize=True)
@given(data=st.data())
def test_every_invocation_keeps_the_exit_contract(payload_path, out_path, data):
    """An invocation exits 0 or 1 with its output written, or exits 2 with
    stdout empty, no --out file and the error line first on stderr; none
    writes a traceback or warning text."""
    argv = data.draw(cli_invocations(payload_path, out_path))
    out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 2:
        assert out == "" and not out_path.exists(), argv
        assert re.match(r"error: \w+: ", err), (argv, err)
    else:
        assert code in (0, 1), argv
        assert (out_path.read_text() if "--out" in argv else out) != "", argv


def test_every_corpus_refusal_names_its_error(tmp_path, capsys):
    """Each refusal of the CLI corpus exits 2 with stdout empty, creates no
    file, and writes one stderr line, `error: <Type>: ...<piece>...`, naming
    its type and holding its message piece."""
    cli_corpus.write_inputs(tmp_path)
    files = sorted(tmp_path.iterdir())
    table = cli_corpus.refusals(tmp_path)
    # every RhoZetaError the CLI can raise; validating a --file matrix raises
    # the first four only once it is read, and the rest have state-free refusals
    assert {error for error, *_ in table} >= {"DimensionMismatch", "NotHermitian", "NotUnitTrace", "NotPSD",
                                              "CapExceeded", "InvalidParameter"}
    assert {error for error, _, state_free, _ in table if state_free} >= {"CapExceeded", "InvalidParameter",
                                                                          "ValueError"}
    for error, piece, _, argv in table:
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", argv
        assert sorted(tmp_path.iterdir()) == files, argv
        assert re.fullmatch(rf"error: {error}: [^\n]*{re.escape(piece)}[^\n]*\n", err), (argv, err)


# the table's --file paths are relative here: a state-free refusal reads no file
@pytest.mark.parametrize("error,piece,argv", [
    pytest.param(error, piece, argv, id=" ".join(argv))
    for error, piece, state_free, argv in cli_corpus.refusals(Path()) if state_free])
def test_refusals_come_before_any_state_is_built(monkeypatch, capsys, error, piece, argv):
    """Each state-free refusal of the corpus table is made the same way with
    every state builder replaced by one that raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built before the arguments were checked")

    for name in ("builtin_state", "load_matrix", "isotropic_state"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: {error}: [^\n]*{re.escape(piece)}[^\n]*\n", err), err


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["curve", "--state", "w-reduced", "--u-min", "0", "--u-max", "4",
            "--steps", "37"]
    assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    # leaving out --p, --dim and --seed means builtin_state's own defaults
    defaults = inspect.signature(builtin_state).parameters
    explicit = [f"--{name}={defaults[name].default!r}" for name in ("p", "dim", "seed")]
    for state in ("random", "isotropic"):
        args = ["coeffs", "--state", state]
        assert run_cli(args, capsys) == run_cli(args + explicit, capsys), state


def test_output_does_not_depend_on_the_write_block(tmp_path, capsys, monkeypatch):
    # plus at --L 4 prints 9 lines: blocks of 3 divide them, blocks of 4 do not
    argv = ["primes", "--state", "plus", "--L", "4"]
    expected = run_cli(argv, capsys)
    for size in (1, 3, 4):
        monkeypatch.setattr(cli, "_SLICE", size)
        assert run_cli(argv, capsys) == expected, size
        out = tmp_path / f"{size}.csv"
        assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
        assert out.read_text() == expected[1], size
    # the row cap is checked after the state is built, and its refusal
    # still writes nothing
    monkeypatch.setattr(graph, "MAX_SEARCH_STEPS", 10)
    out = tmp_path / "refused.csv"
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert (code, stdout, out.exists()) == (2, "", False)
    assert err.startswith("error: CapExceeded: length cap 4 builds at least")


def test_csv_round_trip_is_idempotent(tmp_path, capsys):
    outputs = {
        "coeffs": ["coeffs", "--state", "sigma", "--N", "8"],
        "curve": ["curve", "--state", "ghz-reduced", "--u-min", "0", "--u-max", "3",
                  "--steps", "7"],
        "primes": ["primes", "--state", "w-reduced", "--L", "3"],
    }
    for name, args in outputs.items():
        out = tmp_path / f"{name}.csv"
        run_cli(args + ["--out", str(out)], capsys)
        rows = read_csv(out)
        rewritten = "\n".join(",".join(row) for row in rows) + "\n"
        assert rewritten == out.read_text()
    # parsing floats and re-rendering with repr is also stable
    for n_str, c_str in read_csv(tmp_path / "coeffs.csv")[1:]:
        assert repr(float(c_str)) == c_str


def test_help_states_each_bound(capsys, monkeypatch):
    # each bound in the help text is read from the constant that enforces it
    monkeypatch.setenv("COLUMNS", "200")
    caps = {"coeffs": ("--N", cli._MAX_COEFF_ORDER), "primes": ("--L", PRIME_LENGTH_CAP),
            "bose": ("--K", MAX_COPIES)}
    for command in ("graph", "coeffs", "curve", "primes", "bose"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--validation-tol VALIDATION_TOL validation tolerance in (0, 1)" in text, command
        if command in caps:
            flag, cap = caps[command]
            assert f"(<= {cap})" in text.split(f"{flag} {flag[2:]} ")[1].split(" --")[0], command


def test_builtin_state_registry_is_complete():
    # the corpus runs every subcommand on each name it lists
    assert set(BUILTIN_STATES) == set(cli_corpus.BUILTINS)
    for name in BUILTIN_STATES:
        rho = builtin_state(name, p=0.3, dim=2, seed=1)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9


def test_console_module_entry_point(tmp_path):
    state = tmp_path / "plus.json"
    save_matrix(state, np.array([[0.5, 0.5], [0.5, 0.5]]))
    proc = subprocess.run(
        [sys.executable, "-m", "rhozeta.cli", "coeffs", "--file", str(state), "--N", "3",
         "--pure-bipartite"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "separable" in proc.stderr
    assert proc.stdout.startswith("n,c_n")


def test_closed_stdout_exits_zero():
    # a reader that stops after one line, as `rhozeta graph ... | head -1`
    # does: the write that found the pipe closed exited 2 with
    # "error: BrokenPipeError", which fails a pipeline under pipefail
    argv = [sys.executable, "-m", "rhozeta.cli", "graph", "--state", "random", "--dim", "300"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "digraph G {\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert "error:" not in proc.stderr.read()


@pytest.mark.parametrize("argv,code,merged", [
    # an input error whose error line finds stderr closed exited 1, the entangled code
    (["coeffs", "--state", "random", "--dim", "513"], 2, True),
    (["coeffs", "--state", "plus", "--tol", "nan"], 2, True),
    # an entangled table that found stdout closed exited 0, before its verdict was computed
    (["coeffs", "--state", "bell-reduced", "--N", "64"], 1, True),
    (["coeffs", "--state", "bell-reduced", "--N", "64"], 1, False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v))
def test_closed_pipe_does_not_change_the_exit_code(argv, code, merged):
    # the reader closes stdout, and with it stderr when the two share the
    # pipe, before the command writes anything
    stderr = subprocess.STDOUT if merged else subprocess.PIPE
    with subprocess.Popen([sys.executable, "-m", "rhozeta.cli", *argv],
                          stdout=subprocess.PIPE, stderr=stderr, text=True) as proc:
        proc.stdout.close()
        assert proc.wait(timeout=60) == code
        if not merged:
            assert proc.stderr.read().startswith("verdict: entangled by coefficients: n=2")


@pytest.mark.parametrize("argv,to_file,code", [
    # 254,394 bytes, well past stdout's buffer, to stdout and to a file
    (["primes", "--state", "random", "--dim", "3", "--L", "9"], False, 0),
    (["primes", "--state", "random", "--dim", "3", "--L", "9"], True, 0),
    (["coeffs", "--state", "bell-reduced"], False, 1),
    (["coeffs", "--state", "nosuch"], False, 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v))
def test_the_process_writes_what_main_writes(tmp_path, capsys, argv, to_file, code):
    # the process ends in os._exit, which drops what a stream still buffers:
    # with its streams buffered, as in a pipe, its output and code must be
    # those of main in process
    def out(name):
        return ["--out", str(tmp_path / name)] if to_file else []

    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "rhozeta.cli", *argv, *out("process.csv")],
                          capture_output=True, env=env)
    expected, stdout, stderr = run_cli([*argv, *out("main.csv")], capsys)
    assert expected == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (expected, stdout.encode(), stderr.encode())
    if to_file:
        assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_a_closed_stdout_fd_leaves_the_code_of_a_file_command(tmp_path):
    # fd 1 closed at start makes sys.stdout None, which the flush before
    # os._exit must skip: the command still exits 0 with its file written
    out = tmp_path / "table.csv"
    proc = subprocess.run([sys.executable, "-m", "rhozeta.cli", "coeffs", "--state", "plus", "--out", str(out)],
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0 and proc.stderr.startswith(b"verdict: separable by coefficients")
    assert out.read_text().startswith("n,c_n\n1,")
