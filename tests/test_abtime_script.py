"""The A/B timer, ``scripts/abtime.py``, run on this tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_timing_a_tree_against_itself_prints_one_row_per_case():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, "scripts/abtime.py", src, src, "solve",
                          "constant_cost", "--rounds", "3"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    title, header, row = run.stdout.splitlines()
    assert title == "solve, 3 rounds, s; ratio is change / parent"
    assert header.split() == ["case", "parent", "change", "ratio", "q1", "q3", "wins"]
    name, parent, change, ratio, q1, q3, wins = row.split()
    assert name == "constant_cost"
    assert min(float(parent), float(change)) > 0
    assert 0 < float(q1) <= float(ratio) <= float(q3)
    assert wins.endswith("/3") and 0 <= int(wins[:-2]) <= 3


def test_the_simulate_workload_prints_microseconds_per_step():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, "scripts/abtime.py", src, src, "simulate",
                          "drift_1d", "impulse_toy", "--rounds", "2"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    title, header, *rows = run.stdout.splitlines()
    assert title == "simulate, 2 rounds, us/step; ratio is change / parent"
    assert [row.split()[0] for row in rows] == ["drift_1d", "impulse_toy", "all"]
    for row in rows:
        parent, change = (float(x) for x in row.split()[1:3])
        assert 0 < min(parent, change) and max(parent, change) < 1e5  # microseconds a step


def test_the_csv_workloads_print_milliseconds_per_call():
    src = str(ROOT / "src")
    for workload in ("csv_write", "csv_read"):
        run = subprocess.run([sys.executable, "scripts/abtime.py", src, src, workload,
                              "drift_1d", "--rounds", "2"],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr[-4000:]
        title, header, row = run.stdout.splitlines()
        assert title == f"{workload}, 2 rounds, ms/call; ratio is change / parent"
        assert row.split()[0] == "drift_1d"
        parent, change = (float(x) for x in row.split()[1:3])
        assert 0 < min(parent, change) and max(parent, change) < 1e4  # milliseconds a call


def test_the_peak_workload_prints_megabytes_per_solve():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, "scripts/abtime.py", src, src, "peak",
                          "drift_1d", "--rounds", "2"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    title, header, row = run.stdout.splitlines()
    assert title == "peak, 2 rounds, MB; ratio is change / parent"
    assert row.split()[0] == "drift_1d"
    parent, change = (float(x) for x in row.split()[1:3])
    assert 0 < min(parent, change) and max(parent, change) < 1e3  # megabytes a solve


def test_the_checks_workload_prints_milliseconds_per_call():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, "scripts/abtime.py", src, src, "checks",
                          "impulse_toy", "--rounds", "2"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    title, header, row = run.stdout.splitlines()
    assert title == "checks, 2 rounds, ms/call; ratio is change / parent"
    assert row.split()[0] == "impulse_toy"
    parent, change = (float(x) for x in row.split()[1:3])
    assert 0 < min(parent, change) and max(parent, change) < 1e4  # milliseconds a call


def test_the_policy_workload_prints_microseconds_per_call():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, "scripts/abtime.py", src, src, "policy",
                          "impulse_toy", "balanced_loop", "--rounds", "2"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    title, header, *rows = run.stdout.splitlines()
    assert title == "policy, 2 rounds, us/call; ratio is change / parent"
    assert [row.split()[0] for row in rows] == ["impulse_toy", "balanced_loop", "all"]
    for row in rows:
        parent, change = (float(x) for x in row.split()[1:3])
        assert 0 < min(parent, change) and max(parent, change) < 1e6  # microseconds a call
