"""Run the CLI corpus against two source trees and report every invocation whose output differs.

    python tests/compare_trees.py OLD NEW

OLD and NEW are checkouts of the repository (each with a src/rhozeta
package); `python tests/compare_trees.py . .` checks that the output does
not depend on the hash seed.  Each tree runs the whole corpus of
tests/cli_corpus.py in one child process, with
PYTHONPATH=TREE/src and its own PYTHONHASHSEED and OPENBLAS_NUM_THREADS
(OLD at one thread, NEW at two), calling rhozeta.cli.main in process.
Above dim 256, LAPACK's eigensolver gives other bits under other thread
counts, and the default count is the host's core count, so two children
that shared one count could not see output that differs between hosts.
The CLI pins one thread before numpy loads, and each child imports
rhozeta.cli first, so in a tree with that pin NEW's count never reaches
OpenBLAS: thread independence rests on the pin, not on this run.  A tree
from before the pin still matches a pinned one when it runs at one
thread, as OLD does.  Both children read the same input files and write
the same --out paths.  For
each invocation the exit code and the bytes of stdout, stderr and the
--out file (or its absence) are compared.  Every argv that differs is
printed, and the exit status is 1 on any difference, 2 when a tree
cannot run the corpus, and 0 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import cli_corpus

#: Each child's hash seed and BLAS thread count, OLD's first.
CHILD_ENVS = ({"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"},
              {"PYTHONHASHSEED": "12345", "OPENBLAS_NUM_THREADS": "2"})

# Runs in the child: reads [argv, ...] from stdin and writes one
# [code, stdout, stderr, out file] digest list per argv to stdout.
_CHILD = """
import contextlib, hashlib, io, json, os, sys
from rhozeta import cli

src = os.path.realpath(sys.argv[1])
if not os.path.realpath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"rhozeta.cli came from {cli.__file__}, not from {src}")

def digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()

results = []
for argv in json.load(sys.stdin):
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = None
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            written = fh.read()
        os.remove(out_path)
    results.append([code, digest(out.getvalue().encode()), digest(err.getvalue().encode()), digest(written)])
json.dump(results, sys.stdout)
"""

_FIELDS = ("exit code", "stdout", "stderr", "--out file")


def run_tree(tree, runs, workdir, child_env) -> list:
    """Each invocation's [code, stdout, stderr, --out file] digests from tree's src/."""
    src = str(Path(tree, "src").resolve())
    env = {**os.environ, "PYTHONPATH": src, **child_env}
    proc = subprocess.run([sys.executable, "-c", _CHILD, src], input=json.dumps(runs), capture_output=True,
                          text=True, cwd=workdir, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"the corpus run on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(old, new, runs, workdir) -> list:
    """(argv, differing fields) for each invocation whose results differ between the trees."""
    before = run_tree(old, runs, workdir, CHILD_ENVS[0])
    after = run_tree(new, runs, workdir, CHILD_ENVS[1])
    return [(argv, [field for field, a, b in zip(_FIELDS, x, y) if a != b])
            for argv, x, y in zip(runs, before, after) if x != y]


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python tests/compare_trees.py OLD NEW", file=sys.stderr)
        return 2
    old, new = sys.argv[1:]
    with tempfile.TemporaryDirectory() as workdir:
        cli_corpus.write_inputs(workdir)
        runs = cli_corpus.invocations(workdir)
        try:
            found = differences(old, new, runs, workdir)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
    for args, fields in found:
        print(f"differs ({', '.join(fields)}): rhozeta {' '.join(args)}")
    print(f"{len(found)} of {len(runs)} invocations differ between {old} and {new}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
