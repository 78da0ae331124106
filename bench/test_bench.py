"""Tests of the benchmark itself: references, checks, spans and the result format.

Run with: python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402

from rhozeta import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def random_eigs(n=8, seed=3):
    return ref.eigenvalues(ref.random_mixed(np.random.default_rng(seed), n))


def test_series_reference_matches_closed_forms():
    assert np.allclose(ref.series(np.array([1.0, 0.0]), 5), np.ones(6))
    # maximally mixed qubit: c_n = (n + 1) / 2^n
    assert np.allclose(ref.series(np.array([0.5, 0.5]), 6), [(n + 1) / 2 ** n for n in range(7)])


def test_series_check_flags_coefficient_off_by_1e_6():
    eigs = random_eigs()
    coeffs = ref.series(eigs, 12)
    assert ref.check_series("series", coeffs, eigs) == []
    coeffs[5] += 1e-6
    problems = ref.check_series("series", coeffs, eigs)
    assert len(problems) == 1 and problems[0].startswith("series: 1 of 13 off, first at 5")


def test_curve_check_flags_value_off_by_1e_9():
    eigs = random_eigs()
    grid = ref.curve_grid(eigs)
    values = [ref.curve(eigs, u)[0] for u in grid]
    assert ref.check_curve(grid, values, eigs) == []
    values[3] *= 1 + 1e-9
    assert ref.check_curve(grid, values, eigs)[0].startswith("curve: 1 of")


def test_curve_grid_has_midpoints_and_avoids_poles():
    eigs = random_eigs()
    poles = ref.poles(eigs)
    grid = ref.curve_grid(eigs)
    assert len(grid) == 32
    assert (poles[0] + poles[1]) / 2 in grid
    assert min(abs(u - p) for u in grid for p in poles) > 0.1 * min(np.diff(poles))


def test_curve_check_requires_flags_exactly_at_poles():
    eigs = np.array([0.5, 0.5])
    assert ref.check_curve([1.0, 2.0], [4.0, None], eigs) == []
    assert ref.check_curve([1.0], [None], eigs)[0].startswith("curve:")
    assert ref.check_curve([2.0], [7.0], eigs)[0].startswith("curve:")


def test_prime_counts_are_lyndon_word_counts():
    assert ref.prime_counts(np.ones((2, 2), dtype=int), 6) == [2, 1, 2, 3, 6, 9]


def test_cli_job_flags_wrong_exit_code():
    job = workloads._cli_job(Path("."), "coeffs:x", ["coeffs"], 1)
    good = workloads.CliResult(1, "", "", 0.1, 1000)
    assert job.check(good) == []
    assert job.check(good._replace(code=0)) == ["exit: code 0, expected 1"]
    errors = workloads._cli_job(Path("."), "coeffs:bad", ["coeffs"], 2)
    assert errors.check(good._replace(code=2, stderr="error: RhoZetaError: x\n")) == []
    assert errors.check(good._replace(code=2, stderr="Traceback"))[0].startswith("error:")


def test_cli_output_checks_accept_real_output_and_flag_edits(capsys):
    matrix = ref.named_state("maxmixed4")
    assert cli.main(["coeffs", "--state", "maxmixed4", "--N", "12"]) == 1
    out = capsys.readouterr().out
    assert ref.check_coeffs_csv(out, ref.eigenvalues(matrix), 12) == []
    rows = out.splitlines()
    n, value = rows[4].split(",")
    rows[4] = f"{n},{float(value) + 1e-6!r}"
    assert ref.check_coeffs_csv("\n".join(rows), ref.eigenvalues(matrix), 12)

    assert cli.main(["graph", "--state", "plus"]) == 0
    captured = capsys.readouterr()
    assert ref.check_dot(captured.out, captured.err, ref.named_state("plus")) == []
    assert ref.check_dot(captured.out.replace("0.5+0i", "0.6+0i", 1), captured.err, ref.named_state("plus"))

    assert cli.main(["primes", "--state", "plus", "--L", "5"]) == 0
    captured = capsys.readouterr()
    assert ref.check_primes_csv(captured.out, captured.err, ref.named_state("plus"), 5) == []
    short = "\n".join(captured.out.splitlines()[:-1])
    assert ref.check_primes_csv(short, captured.err, ref.named_state("plus"), 5)


def test_self_time_subtracts_child_coverage():
    tracer = Tracer(True)
    for name, start, end, parent in (("job", 0.0, 10.0, None), ("a", 1.0, 3.0, 0), ("b", 2.0, 5.0, 0),
                                     ("c", 6.0, 7.0, None)):
        span = Span(tracer, name, 1)
        span.start, span.end, span.parent, span.job = start, end, parent, 0
        tracer.spans.append(span)
    assert tracer.self_times() == [6.0, 2.0, 3.0, 1.0]


def test_traced_calls_record_errors_and_untraced_calls_record_nothing():
    def boom():
        raise ValueError("x")

    tracer = Tracer(True)
    with tracer.span("job"):
        assert tracer.call("f", lambda: 3) == 3
        with pytest.raises(ValueError):
            tracer.call("f", boom)
    assert tracer.summary()["f"][1:] == (2, 1)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    off = Tracer(False)
    assert off.call("f", lambda: 3) == 3 and off.spans == []


def test_only_curve_only_failures_are_the_known_defect():
    record = run.Record("k", 0.01, [])
    assert not run.known_defect(record)
    assert run.known_defect(record._replace(problems=["curve: 3 of 32 points wrong"]))
    assert not run.known_defect(record._replace(problems=["curve: x", "series: 1 of 65 off"]))
    assert not run.known_defect(record._replace(problems=["exit: code 0, expected 1"]))


def test_calibration_scales_by_the_nearby_probes():
    slow, fast = 2 * run.PROBE_REFERENCE_S, run.PROBE_REFERENCE_S / 2
    records = [run.Record("k", 0.01, [], probe=slow) for _ in range(30)]
    records += [run.Record("k", 0.01, [], probe=fast) for _ in range(30)]
    times = run.calibrated(records)
    assert times[0] == pytest.approx(0.005) and times[-1] == pytest.approx(0.02)


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.make_jobs("oracle", 7, tmp_path)
    saved = np.load(tmp_path / "oracle-7.npz")
    again = workloads.make_jobs("oracle", 7, tmp_path / "again")
    assert [j.kind for j in first] == [j.kind for j in again]
    resaved = np.load(tmp_path / "again" / "oracle-7.npz")
    assert all(np.array_equal(saved[k], resaved[k]) for k in saved.files)


def test_metric_names_and_units_match_benchmark_json():
    records = [run.Record("k", 0.001 * (i + 1), ["curve: x"] if i == 0 else [], None) for i in range(20)]
    e2e = run.end_to_end(records, [(0.5, run.PROBE_REFERENCE_S)])
    assert {n: u for n, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = run.per_layer(Tracer(True), records, records, 0.0)
    assert {n: u for n, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
