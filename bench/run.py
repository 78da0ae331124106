"""rhozeta benchmark: run one workload, check every output, print the metrics.

    python3 bench/run.py --workload spectral|primes|oracle|cli --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from src/.
One process runs one job at a time in a closed loop.  The job list is run
in whole passes, at least two, while another pass fits in --seconds.

The speed of a shared host drifts by a factor of up to two over tens of
seconds, so before each job the benchmark times a fixed probe that does not
touch rhozeta.  Job and set-up times are reported calibrated: scaled by the
reference probe time over the median probe time around them, that is, as
they would read on the reference host.  The times as measured are printed
on the line before the result.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every job once
untraced and once traced, back to back, and prints the per-layer metrics,
including the tracing overhead (traced minus untraced wall time); it
writes its spans to .bench_work/spans-WORKLOAD-SEED.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A job fails when it raises, exits with the
wrong code or gives an output outside the reference tolerance.  A job whose
only wrong output is a rational-route curve value, the open defect of
ROADMAP item 1, is reported by the ok_share metric and not as failed; any
other failure is counted in failed and makes correct false.  Seed 1 is the
development seed; seed 20231009 is held out to confirm claims.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (imports rhozeta from src/)
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 2
WARMUP_SECONDS = 1.0

#: Median probe time on the reference host, an Intel Xeon vCPU at 2.1 GHz.
PROBE_REFERENCE_S = 6.0e-4
#: A job's time is calibrated by the probes of the jobs this close to it in run order.
PROBE_WINDOW = 10
#: Probes timed just before each set-up sample to calibrate it.
SETUP_PROBES = 9
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
_PROBE_MATRIX += _PROBE_MATRIX.T

#: The one failure the benchmark expects at the seed: rational-route curve values.
KNOWN_DEFECT = "curve"


def known_defect(record):
    """True when every problem of a failing job is the known curve defect."""
    return bool(record.problems) and all(p.startswith(KNOWN_DEFECT) for p in record.problems)


TRACED = (
    "linalg.validate_density", "linalg.partial_trace", "linalg.trace_powers",
    "graph.graph_from_density", "graph.density_from_weighted_graph", "graph.enumerate_primes",
    "zeta.euler_product_coeffs", "zeta.series_coeffs", "zeta.singularities", "zeta.zeta_eval",
    "zeta.is_separable_by_coeffs", "zeta.is_separable_by_singularity",
    "quantum.acceptance_probability",
)
COUNTS = (("graph.prime_classes", "count"), ("graph.edges", "count"), ("zeta.eval_points", "count"),
          ("quantum.projector_dim_sum", "count"), ("quantum.projector_bytes_computed", "bytes"))


def time_setup(workload, seed):
    """Wall time of a fresh process that imports rhozeta and generates and writes the inputs.

    Returns the seconds as measured and the median probe taken just before.
    """
    probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = str(Path(__file__).with_name("workloads.py"))
    start = perf_counter()
    subprocess.run([sys.executable, script, workload, str(seed), str(WORKDIR)], env=env, check=True)
    return perf_counter() - start, probe_s


def import_ms():
    """Median time of `import rhozeta.cli` in a fresh interpreter, less a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_run(code):
        times = []
        for _ in range(5):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(perf_counter() - start)
        return statistics.median(times)

    return 1e3 * (median_run("import rhozeta.cli") - median_run("pass"))


def probe():
    """Seconds taken by a fixed piece of interpreter and numpy work, a gauge of host speed."""
    start = perf_counter()
    x = 0.0
    for i in range(3000):
        x += (i * 0.5) % 7.0
    for _ in range(10):
        np.linalg.eigvalsh(_PROBE_MATRIX)
    return perf_counter() - start


class Record(NamedTuple):
    kind: str
    seconds: float
    problems: list
    cli: workloads.CliResult = None
    probe: float = PROBE_REFERENCE_S


def run_job(job, tracer, job_id):
    probe_s = probe()
    tracer.job = job_id
    start = perf_counter()
    try:
        with tracer.span("job"):
            out = job.run(tracer)
    except Exception as exc:  # the job raised: record it as a failure and go on
        seconds = perf_counter() - start
        return Record(job.kind, seconds, [f"raised: {type(exc).__name__}: {exc}"], probe=probe_s)
    seconds = perf_counter() - start
    try:
        problems = job.check(out)
    except Exception as exc:  # output the checker cannot parse is wrong output
        problems = [f"unparsable: {type(exc).__name__}: {exc}"]
    cli = out if isinstance(out, workloads.CliResult) else None
    return Record(job.kind, seconds, problems, cli, probe_s)


def run_pass(jobs, tracer, first_id=0):
    return [run_job(job, tracer, first_id + i) for i, job in enumerate(jobs)]


def warm_up(jobs):
    """Run one job of each light kind, untimed, so lazy set-up and thread start-up finish first."""
    tracer, start, seen = Tracer(False), perf_counter(), set()
    for job in jobs:
        if perf_counter() - start > WARMUP_SECONDS:
            break
        if not job.heavy and job.kind not in seen:
            seen.add(job.kind)
            run_job(job, tracer, -1)


def traced_pass(jobs, tracer):
    """Run each job once untraced and once traced, back to back, alternating which goes first."""
    off, untraced, traced = Tracer(False), [], []
    for i, job in enumerate(jobs):
        if i % 2:
            traced.append(run_job(job, tracer, i))
        untraced.append(run_job(job, off, i))
        if not i % 2:
            traced.append(run_job(job, tracer, i))
    return untraced, traced


def timed_passes(jobs, tracer, seconds, between_passes):
    records, start = [], perf_counter()
    while True:
        pass_start = perf_counter()
        records += run_pass(jobs, tracer, len(records))
        pass_seconds = perf_counter() - pass_start
        between_passes()
        if len(records) >= MIN_PASSES * len(jobs) and perf_counter() - start + pass_seconds > seconds:
            return records


def calibrated(records):
    """Job seconds scaled to the reference host by the median probe of the jobs around each."""
    probes = [r.probe for r in records]
    return [r.seconds * PROBE_REFERENCE_S / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i, r in enumerate(records)]


def timings(times, setup_s):
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(times), "ms"),
        "job_ms_p90": (1e3 * statistics.quantiles(times, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
    }


def end_to_end(records, setups):
    """The end-to-end metrics, from job records and (seconds, probe) set-up samples, calibrated."""
    if any(r.cli for r in records):
        peak_kb = max(r.cli.rss_kb for r in records if r.cli)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sum(1 for r in records if r.problems)
    setup_s = statistics.median(seconds * PROBE_REFERENCE_S / probe_s for seconds, probe_s in setups)
    return {
        **timings(calibrated(records), setup_s),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_share": (1 - failed / len(records), "share"),
    }


def per_layer(tracer, traced, untraced, cli_import_ms):
    summary = tracer.summary()
    metrics = {}
    for name in TRACED:
        ms, calls, errors = summary.get(name, (0.0, 0, 0))
        metrics[f"{name}.self_ms"] = (ms, "ms")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.errors"] = (errors, "count")
    for name, unit in COUNTS:
        metrics[name] = (tracer.counts[name], unit)
    cli = [r.cli for r in traced if r.cli]
    metrics["cli.process_ms"] = (1e3 * statistics.median(c.wall_s for c in cli) if cli else 0.0, "ms")
    metrics["cli.import_ms"] = (cli_import_ms, "ms")
    metrics["cli.child_rss_mb"] = (statistics.median(c.rss_kb for c in cli) / 1024 if cli else 0.0, "MB")
    metrics["cli.exit_mismatch"] = (sum(any(p.startswith("exit") for p in r.problems) for r in traced), "count")
    overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in untraced)
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["probe_ms"] = (1e3 * statistics.median(r.probe for r in traced), "ms")
    return metrics


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads, "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = [] if args.trace else [time_setup(args.workload, args.seed)]
    jobs = workloads.make_jobs(args.workload, args.seed, WORKDIR)
    warm_up(jobs)
    if args.trace:
        tracer = Tracer(True)
        untraced, traced = traced_pass(jobs, tracer)
        records = untraced + traced
        cli_ms = import_ms() if args.workload == "cli" else 0.0
        metrics = per_layer(tracer, traced, untraced, cli_ms)
        tracer.write(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        # set-up samples are spread between passes, so their median sees more than one machine state
        def sample_setup():
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(time_setup(args.workload, args.seed))

        records = timed_passes(jobs, Tracer(False), args.seconds, sample_setup)
        while len(setup_times) < SETUP_REPEATS:
            sample_setup()
        metrics = end_to_end(records, setup_times)
        measured = timings([r.seconds for r in records], statistics.median(seconds for seconds, _ in setup_times))
        measured["probe_ms"] = (1e3 * statistics.median(r.probe for r in records), "ms")

    failures = {}
    for r in records:
        if r.problems:
            failures.setdefault(r.kind, []).append(r.problems)
    defective = sum(map(known_defect, records))
    failed = sum(1 for r in records if r.problems) - defective

    print(json.dumps({"env": environment(args)}))
    print(f"{args.workload}: {len(records)} jobs in {len(records) // len(jobs)} passes of {len(jobs)},"
          f" {defective} wrong on the known curve defect, {failed} failed otherwise"
          f" (fail_share {(defective + failed) / len(records):.4f})")
    for kind, probs in sorted(failures.items()):
        outputs = sorted({p.split(":")[0] for ps in probs for p in ps})
        print(f"  failed {kind} x{len(probs)} on {','.join(outputs)}: {probs[0][0]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    if not args.trace:
        print(json.dumps({"measured": {name: {"value": value, "unit": unit}
                                       for name, (value, unit) in measured.items()}}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
