"""The benchmark under ``perfbench/`` calls into ``src/``; its own tests
run here so that a change to those calls shows in this suite.  They run in
a subprocess because both suites have a ``conftest`` module, and one
collection cannot import the two."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_suite_passes():
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/tests"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


# solve one bundled spec into a benchmark game and take its traced-run kernel figures
KERNEL_METRICS = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import workloads
from hybrid_isaacs import discretize, problem, solver
path = "specs/balanced_loop.toml"
spec, grid_cfg, solver_cfg = problem.load_config(path)
grid = discretize.make_grid(spec, grid_cfg["points"])
config = solver.SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"])
res = solver.solve(spec, grid, config)
game = workloads.Game("balanced_loop", spec, grid, config, None, [], res.values, res.tables,
                      res.dt, res.iterations)
print(json.dumps(workloads.kernel_metrics([game])))
"""


def test_traced_kernel_figures_read_the_tables():
    """A traced benchmark run reads sizes off the solve's tables; every
    figure it derives from them must stay a finite number."""
    done = subprocess.run([sys.executable, "-c", KERNEL_METRICS], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert {"operators.sweep_gathers", "operators.sweep_mb_computed",
            "discretize.table_mb"} <= metrics.keys()
    assert all(math.isfinite(value) for value in metrics.values()), metrics
