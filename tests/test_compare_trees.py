"""The tree comparer finds no difference between identical trees, and finds
a changed float in exactly the invocations that print it."""

import shutil
from pathlib import Path

import cli_corpus
import compare_trees

SRC = Path(__file__).resolve().parent.parent / "src"
# every subcommand on three built-ins and a matrix file, and a --N 1 coeffs table written to --out
_SLICE_STATES = (["--state", "maxmixed2"], ["--state", "sigma"], ["--state", "w-reduced"])


def test_comparer_names_exactly_the_changed_invocations(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    cli_corpus.write_inputs(work)
    runs = [argv for argv in cli_corpus.invocations(work)
            if argv[1:3] in _SLICE_STATES or argv[1:3] == ["--file", str(work / "real2.json")]]
    assert len(runs) <= 21 and {argv[0] for argv in runs} == set(cli_corpus.COMMANDS)
    for tree in ("old", "new"):
        shutil.copytree(SRC, tmp_path / tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    assert compare_trees.differences(tmp_path / "old", tmp_path / "new", runs, work) == []

    cli_py = tmp_path / "new" / "src" / "rhozeta" / "cli.py"
    text = cli_py.read_text()
    assert text.count('f"{n},{series[n]!r}"') == 1
    cli_py.write_text(text.replace('f"{n},{series[n]!r}"', 'f"{n},{series[n]:.6g}"'))
    found = compare_trees.differences(tmp_path / "old", tmp_path / "new", runs, work)
    coeffs = [argv for argv in runs if argv[0] == "coeffs"]
    assert [argv for argv, _ in found] == coeffs
    assert {field for _, fields in found for field in fields} == {"stdout", "--out file"}
