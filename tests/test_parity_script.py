"""The byte-parity harness, ``scripts/parity.py``: its digests are a
function of the source tree and the inputs alone, so two runs of one tree
print the same listing, wall-clock manifest fields left out; and each
solve's field is checked against the Picard loop's."""

import importlib.util
import os
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
        for command in ("solve", "solve-upper", "verify", "verify-upper", "verify-values",
                        "simulate")}
    for command in commands:
        assert {"exit", "stdout", "stderr"} <= {row[2] for row in rows if row[1] == command}
    outputs = {(row[1], row[2]) for row in rows}
    assert {("plus-solve", f"{CASE}.value.csv"), ("plus-solve", f"{CASE}.solve-manifest.json"),
            ("minus-solve-upper", f"{CASE}-upper.value.csv"),
            ("minus-verify-values", f"{CASE}.verification.txt"),
            ("plus-verify-upper", f"{CASE}-upper.verification.txt"),
            ("minus-simulate", f"{CASE}.trajectory.csv")} <= outputs


def test_a_solve_field_off_the_picard_loop_is_named(tmp_path):
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    (tmp_path / f"{CASE}.toml").write_text((ROOT / "specs" / f"{CASE}.toml").read_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["solve", f"{CASE}.toml", "--variant", "minus", "--out", "minus-solve"]
    subprocess.run([sys.executable, "-m", "hybrid_isaacs.cli", *args], cwd=tmp_path, env=env,
                   check=True, capture_output=True, timeout=600)
    assert parity.picard_gap(CASE, "minus-solve", args, tmp_path, env) is None
    field = tmp_path / "minus-solve" / f"{CASE}.value.csv"
    *rows, last = field.read_text().splitlines()
    head, value = last.rsplit(",", 1)
    field.write_text("\n".join(rows + [f"{head},{float(value) + 1e-6!r}"]) + "\n")
    assert parity.picard_gap(CASE, "minus-solve", args, tmp_path, env) == (
        f"{CASE} minus-solve: field 1.000e-06 from the Picard loop's, above twice the "
        "tolerance 1.0e-10")
    field.unlink()
    assert parity.picard_gap(CASE, "minus-solve", args, tmp_path, env).startswith(
        f"{CASE} minus-solve: no field to compare (")


def test_the_upper_solve_is_checked_against_the_picard_loop_from_upper(tmp_path):
    """The 3-D game's fixed points from zero and from the upper bound lie
    0.1 apart, so the upper-init solve passes only against the loop from
    its own start."""
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    (tmp_path / "game_3d-upper.toml").write_text(parity.upper_init(parity.GAME_3D))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["solve", "game_3d-upper.toml", "--out", "plus-solve-upper"]
    subprocess.run([sys.executable, "-m", "hybrid_isaacs.cli", *args], cwd=tmp_path, env=env,
                   check=True, capture_output=True, timeout=600)
    assert parity.picard_gap("game_3d", "plus-solve-upper", args, tmp_path, env) is None
    lower = args[:1] + ["--init", "zero"] + args[1:]
    assert "from the Picard loop's" in parity.picard_gap("game_3d", "plus-solve-upper", lower,
                                                          tmp_path, env)
