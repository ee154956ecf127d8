"""The byte-parity harness, ``scripts/parity.py``: its digests are a
function of the source tree and the inputs alone, so two runs of one tree
print the same listing, wall-clock manifest fields left out."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASE = "constant_cost"


def test_two_runs_of_one_tree_print_the_same_digests():
    runs = [subprocess.run([sys.executable, "scripts/parity.py", CASE], cwd=ROOT,
                           capture_output=True, text=True, timeout=600) for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr[-4000:]
    assert runs[0].stdout == runs[1].stdout
    rows = [line.split() for line in runs[0].stdout.splitlines()]
    assert all(len(row) == 4 and row[0] == CASE and len(row[3]) == 64 for row in rows)
    commands = {row[1] for row in rows}
    assert commands == {"validate", "analyze"} | {
        f"{variant}-{command}" for variant in ("plus", "minus")
        for command in ("solve", "verify", "verify-upper", "verify-values", "simulate")}
    for command in commands:
        assert {"exit", "stdout", "stderr"} <= {row[2] for row in rows if row[1] == command}
    outputs = {(row[1], row[2]) for row in rows}
    assert {("plus-solve", f"{CASE}.value.csv"), ("plus-solve", f"{CASE}.solve-manifest.json"),
            ("minus-verify-values", f"{CASE}.verification.txt"),
            ("plus-verify-upper", f"{CASE}-upper.verification.txt"),
            ("minus-simulate", f"{CASE}.trajectory.csv")} <= outputs
