"""Interleaved in-process A/B timing of two source trees.

    python scripts/abtime.py PARENT_SRC CHANGE_SRC WORKLOAD [CASE ...] [--rounds N]

Each tree's ``hybrid_isaacs`` package is copied into a temporary directory
under its own name (``ab_parent``, ``ab_change``) and imported from there,
so both run in one interpreter; the package imports itself relatively.
Cases are ``scripts/parity.py``'s (default: the five bundled specs), each
loaded by each tree's own ``load_config`` at its own grid and ``[solver]``
settings.  Workloads:

* ``solve``: one ``solve`` per case and round, in seconds;
* ``verify``: one ``verify.run_all`` at the command line's defaults, in seconds;
* ``sweep``: ``bellman_update`` on the solved field, in microseconds per call
  (the median of 50 calls);
* ``policy``: ``policy_sweep`` on the solved field, the sweep with its
  arg-opts that each policy iteration step takes, in microseconds per call
  (the median of 50 calls);
* ``simulate``: one ``simulate`` on the solved field from the box centre in
  the first mode pair, 200 steps of the solve's time step, in microseconds
  per rollout step;
* ``csv_write``: ``cli.write_value_csv`` of the solved field, in milliseconds
  per call;
* ``csv_read``: ``cli.read_value_csv`` of that file, written once by the
  tree's own writer, in milliseconds per call;
* ``checks``: the three checks of ``verify --values`` on the solved field
  (obstacle chain, post-impulse strictness and multi-step consistency),
  called as the benchmark's stored-field checks call them, at their
  defaults, in milliseconds per call of all three;
* ``peak``: tracemalloc's peak over one ``solve``, in MB (10^6 bytes): the
  memory numpy and Python allocate, not the process's resident set.

Every round times each case once per tree, and the rounds alternate which
tree goes first; one untimed round warms both.  Per case, and for the sum
over the cases, the script prints each tree's median, the quartiles of the
per-round ratio change / parent, and in how many rounds the change was
faster.  The process runs on one CPU, the last it may use, as the
benchmark's runs do: migrations between CPUs spread the times.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import BUNDLED, case_texts  # noqa: E402

TREES = ("parent", "change")
SWEEP_CALLS = 50
SIM_STEPS = 200
# workloads timed on the solved field
ON_FIELD = ("sweep", "policy", "simulate", "csv_write", "csv_read", "checks")
UNITS = {"sweep": "us/sweep", "policy": "us/call", "simulate": "us/step",
         "csv_write": "ms/call", "csv_read": "ms/call", "checks": "ms/call", "peak": "MB"}


def load_tree(src: Path, name: str, folder: Path) -> dict:
    """The modules of ``src``'s package, imported as package ``name``."""
    shutil.copytree(src / "hybrid_isaacs", folder / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("cli", "discretize", "hybridsim", "operators", "problem",
                           "solver", "verify")}


class Case:
    """One case as one tree sees it: its spec, grid, config and a timed run.
    ``csv`` is the case's value file for the CSV workloads."""

    def __init__(self, tree: dict, path: Path, workload: str, csv: Path):
        spec, grid_cfg, solver_cfg = tree["problem"].load_config(path)
        self.tree, self.workload, self.spec, self.csv = tree, workload, spec, csv
        self.grid = tree["discretize"].make_grid(spec, grid_cfg["points"])
        kwargs = {key: solver_cfg[key] for key in ("dt", "tolerance", "init") if key in solver_cfg}
        self.config = tree["solver"].SolverConfig(**kwargs)
        if workload in ON_FIELD:
            result = tree["solver"].solve(spec, self.grid, self.config)
            self.values, self.tables = result.values, result.tables
        if workload == "csv_read":
            tree["cli"].write_value_csv(csv, spec, self.grid, self.values)

    def run(self) -> float:
        """One timed run: seconds, microseconds per sweep or per step,
        milliseconds per CSV or checks call, or a solve's peak MB."""
        gc.collect()
        if self.workload == "peak":
            tracemalloc.start()
            try:
                self.tree["solver"].solve(self.spec, self.grid, self.config)
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        if self.workload in ("sweep", "policy"):
            operators, values, tables = self.tree["operators"], self.values, self.tables
            if self.workload == "sweep":
                def call():
                    operators.bellman_update(values, self.spec, self.grid, tables=tables)
            else:
                def call():
                    operators.policy_sweep(values, tables)
            times = []
            for _ in range(SWEEP_CALLS):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            return 1e6 * statistics.median(times)
        if self.workload == "simulate":
            centre, dt = self.grid.box.mean(axis=1), self.tables.dt
            start = time.perf_counter()
            traj = self.tree["hybridsim"].simulate(self.spec, self.grid, self.values, centre,
                                                   0, 0, SIM_STEPS * dt, dt=dt)
            return 1e6 * (time.perf_counter() - start) / traj.steps
        if self.workload == "csv_write":
            start = time.perf_counter()
            self.tree["cli"].write_value_csv(self.csv, self.spec, self.grid, self.values)
            return 1e3 * (time.perf_counter() - start)
        if self.workload == "csv_read":
            start = time.perf_counter()
            self.tree["cli"].read_value_csv(self.csv, self.spec)
            return 1e3 * (time.perf_counter() - start)
        if self.workload == "checks":
            verify, field = self.tree["verify"], (self.values, self.spec, self.grid)
            start = time.perf_counter()
            verify.obstacle_chain_check(*field)
            verify.post_impulse_strictness(*field)
            verify.dpp_consistency(*field, variant=self.config.variant)
            return 1e3 * (time.perf_counter() - start)
        start = time.perf_counter()
        if self.workload == "solve":
            self.tree["solver"].solve(self.spec, self.grid, self.config)
        else:
            self.tree["verify"].run_all(self.spec, self.grid, self.config)
        return time.perf_counter() - start


def summary(label: str, parent: list[float], change: list[float]) -> str:
    ratios = np.asarray(change) / np.asarray(parent)
    q1, mid, q3 = np.quantile(ratios, [0.25, 0.5, 0.75])
    wins = int((ratios < 1.0).sum())
    return (f"{label:<16} {statistics.median(parent):>12.6g} {statistics.median(change):>12.6g}"
            f" {mid:>7.3f} {q1:>7.3f} {q3:>7.3f} {wins:>3}/{len(ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's src directory")
    parser.add_argument("change", type=Path, help="the change's src directory")
    parser.add_argument("workload", choices=("solve", "verify", *UNITS))
    parser.add_argument("cases", nargs="*", help="cases to time (default: the bundled specs)")
    parser.add_argument("--rounds", type=int, default=11, help="timed rounds (default: 11)")
    args = parser.parse_args(argv)
    texts = case_texts()
    names = args.cases or list(BUNDLED)
    unknown = sorted(set(names) - texts.keys())
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; choose from {', '.join(texts)}")
    if args.rounds < 1:
        parser.error(f"--rounds: {args.rounds} is not a whole number >= 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        sys.path.insert(0, str(folder))
        trees = {tree: load_tree(src.resolve(), f"ab_{tree}", folder)
                 for tree, src in zip(TREES, (args.parent, args.change))}
        cases = {}
        for name in names:
            path = folder / f"{name}.toml"
            path.write_text(texts[name], encoding="utf-8")
            cases[name] = {tree: Case(trees[tree], path, args.workload,
                                      folder / f"{name}.{tree}.value.csv")
                           for tree in TREES}

        times = {(name, tree): [] for name in names for tree in TREES}
        for round_ in range(args.rounds + 1):  # round 0 warms both trees
            for tree in (TREES if round_ % 2 else TREES[::-1]):
                for name in names:
                    took = cases[name][tree].run()
                    if round_:
                        times[name, tree].append(took)

    unit = UNITS.get(args.workload, "s")
    print(f"{args.workload}, {args.rounds} rounds, {unit}; ratio is change / parent")
    print(f"{'case':<16} {'parent':>12} {'change':>12} {'ratio':>7} {'q1':>7} {'q3':>7} wins")
    for name in names:
        print(summary(name, times[name, "parent"], times[name, "change"]))
    if len(names) > 1:
        total = {tree: [sum(t) for t in zip(*(times[name, tree] for name in names))]
                 for tree in TREES}
        print(summary("all", total["parent"], total["change"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
