"""The benchmark's workloads and the operations they time.

Every timed operation is one call to a public function of the program,
made through its module attribute, and is followed by correctness checks
outside the timed region; the one other is the start of a fresh
interpreter that imports the program, timed in every set-up.  A workload is a set-up step, repeated a few times
so that its time has a median, and a round, repeated until the run's time is
up.  Rounds replay the same inputs, so every round does the same work and
must produce the same bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hybrid_isaacs import cli, discretize, hybridsim, operators, problem, solver, verify

import gen
from gate import Gate
from measure import (END, NAME, ROUND, START, HostSpeed, Timing, Tracer, median, op_of,
                     self_times)

# closed forms of bundled games: value per mode pair, constant in the state
CLOSED_FORMS = {
    "constant_cost": [[2.0]],         # k / lambda = 1 / 0.5
    "mode_selection": [[1.5, 0.5]],   # min(2, 0.5 + 1) and 0.5
}

GATE_SAMPLES = 256   # the CLI's default sample count for validate_a2
VERIFY_TRIALS = 100  # the CLI's default probe count for verify

# public check functions of ``verify`` and the short names of their metrics
CHECKS = {
    "obstacle_chain_check": "chain",
    "post_impulse_strictness": "impulse",
    "dpp_consistency": "dpp",
    "isaacs_value_equality": "isaacs",
    "two_sided_uniqueness": "uniqueness",
    "operator_probes": "probes",
}
CHECK_METRICS = {f"verify.{fn}": f"verify.{short}_s" for fn, short in CHECKS.items()}
EVALS = ("hybridsim.eval_dynamics", "hybridsim.eval_running_cost")


def trace_targets():
    """Module attributes replaced by traced forms in a traced run."""
    return [
        (solver, "build_tables", "solver.build_tables"),
        (solver, "bellman_update", "solver.bellman_update"),
        (hybridsim, "eval_dynamics", "hybridsim.eval_dynamics"),
        (hybridsim, "eval_running_cost", "hybridsim.eval_running_cost"),
        (hybridsim, "interp_weights", "hybridsim.interp_weights"),
        (verify, "solve", "solver.solve"),
        *[(verify, name, f"verify.{name}") for name in CHECKS],
    ]


class SpecRejected(RuntimeError):
    """A workload's spec failed the cost-assumption gate."""


@dataclass
class Game:
    key: str
    spec: object
    grid: object
    config: object
    csv: Path
    starts: list
    values: np.ndarray | None = None
    tables: object = None
    dt: float | None = None
    sweeps: int = 0


@dataclass
class Session:
    """One run: samples, the correctness gate, the host-speed probe and,
    when traced, the tracer.

    Samples are kept apart by whether the phase that made them was traced.
    ``samples`` holds them in reference seconds and ``raw`` as wall times.
    Every timed operation is bracketed by host-speed kernels of its kind of
    work, and its reference seconds come from those kernels alone.
    """

    seed: int
    root: Path
    workdir: Path
    tracer: Tracer | None = None
    gate: Gate = field(default_factory=Gate)
    speed: HostSpeed = field(default_factory=HostSpeed)
    traced: bool = False
    samples: dict = field(default_factory=lambda: {False: defaultdict(list),
                                                   True: defaultdict(list)})
    raw: dict = field(default_factory=lambda: {False: defaultdict(list),
                                               True: defaultdict(list)})
    # timed operations of the current phase, summed
    _ops: Timing = Timing(0.0, 0.0)

    # host-speed kernels run before a phase, and before and after an
    # operation; solves and verification, which take up to seconds and
    # give a run few samples, get the longer bracket
    PHASE_PROBES = 3
    LONG_PROBES = 5

    def add(self, metric: str, value: Timing) -> None:
        self.samples[self.traced][metric].append(value.ref)
        self.raw[self.traced][metric].append(value.wall)

    def timed(self, op: str, fn, *args, kind: str = "compute", long: bool = False,
              **kwargs):
        """``(fn(*args, **kwargs), Timing)``, in an ``op.<op>`` span when the
        phase is traced.  ``kind`` names the host-speed kernel whose times
        around the call scale it to reference seconds; ``long`` takes
        ``LONG_PROBES`` kernel times on each side instead of one."""
        speed, n = self.speed, self.LONG_PROBES if long else 1
        first = speed.mark(kind)
        speed.probe(kind, n)
        with self.tracer.span("op." + op) if self.traced else nullcontext():
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
        speed.probe(kind, n)
        timing = Timing(seconds, seconds * speed.factor(kind, first))
        self._ops += timing
        return out, timing

    @contextmanager
    def phase(self, kind: str, index: int, traced: bool):
        """A set-up repetition or a round.  Its wall time, less the time of
        the host-speed kernels inside it, is a sample of ``<kind>_wall_s``.
        In reference seconds it is the sum of its timed operations plus the
        time between them scaled by the compute kernel's times in the
        phase."""
        speed = self.speed
        first = speed.mark("compute")
        speed.probe("compute", self.PHASE_PROBES)
        self.traced = traced
        if traced:
            self.tracer.round = f"{kind}{index}"
        self._ops = Timing(0.0, 0.0)
        spent = speed.spent
        start = time.perf_counter()
        with self.tracer.installed(trace_targets()) if traced else nullcontext():
            yield
        seconds = time.perf_counter() - start - (speed.spent - spent)
        between = seconds - self._ops.wall
        self.add(f"{kind}_wall_s", Timing(seconds, self._ops.ref
                                          + between * speed.factor("compute", first)))
        self.traced = False


# ---------------------------------------------------------------------------
# operations

# what the benchmark's own process imports before its first operation
IMPORTS = ("import numpy; from hybrid_isaacs import cli, discretize, hybridsim, operators, "
           "problem, solver, verify")


def fresh_import(s: Session) -> None:
    """Start a fresh interpreter that imports the program and exits, the
    start-up a user's process pays before its first call.  Timed in every
    set-up, because one process can import only once."""
    path = os.pathsep.join(p for p in (str(s.root / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    s.timed("import", subprocess.run, [sys.executable, "-c", IMPORTS],
            env=dict(os.environ, PYTHONPATH=path), check=True, capture_output=True,
            timeout=120)


def load_game(s: Session, path: Path, key: str, n_starts: int) -> Game:
    (spec, grid_cfg, solver_cfg), _ = s.timed("load", problem.load_config, path)
    report, _ = s.timed("gate", problem.validate_a2, spec, GATE_SAMPLES, s.seed)
    if not report.mandatory_ok:
        raise SpecRejected(f"{path.name}: " + "; ".join(
            f"{c.name}: {c.detail}" for c in report.failures()))
    grid = discretize.make_grid(spec, tuple(int(c) for c in grid_cfg["points"]))
    config = solver.SolverConfig(dt=solver_cfg.get("dt"),
                                 tolerance=float(solver_cfg.get("tolerance", 1e-9)))
    starts = gen.rollout_starts(f"{s.seed}/{key}", spec.box.tolist(), spec.m1, spec.m2,
                                n_starts)
    return Game(key, spec, grid, config, s.workdir / f"{key}.value.csv", starts)


def certificate(values, tables, spec, grid, variant) -> float:
    """A-posteriori bound |T[V] - V| / (1 - gamma) on the distance to the
    fixed point, from one extra sweep."""
    update = operators.bellman_update(values, spec, grid, variant=variant, tables=tables)
    return float(np.abs(update - values).max()) / (1.0 - tables.gamma)


def check_field(s: Session, g: Game, values, tables, converged: bool,
                sweeps: int) -> list[str]:
    tol = g.config.tolerance
    problems = [] if converged else [f"{g.key}: no convergence in {sweeps} sweeps"]
    cert = certificate(values, tables, g.spec, g.grid, g.config.variant)
    if not cert <= tol:
        problems.append(f"{g.key}: certificate {cert:.3e} above tolerance {tol:.1e}")
    problems += s.gate.same_as_first(f"field {g.key}", values.tobytes())
    closed = CLOSED_FORMS.get(g.key)
    if closed is not None:
        err = float(np.abs(values - np.asarray(closed)[:, :, None]).max())
        if not err <= tol:
            problems.append(f"{g.key}: {err:.3e} from its closed form")
    return problems


def sweep_kind(g: Game) -> str:
    """The host-speed kernel that sweeps over the game's tables slow like:
    1-D tables stay in L2 and sweeps cost per-call overhead; 2-D tables
    lie far beyond it and sweeps stream through them."""
    return "memory" if g.spec.dimension > 1 else "compute"


def solve_game(s: Session, g: Game) -> Timing:
    res, seconds = s.timed("solve", solver.solve, g.spec, g.grid, g.config,
                           kind=sweep_kind(g), long=True)
    s.gate.record("solve", check_field(s, g, res.values, res.tables, res.converged,
                                       res.iterations))
    g.values, g.tables, g.dt, g.sweeps = res.values, res.tables, res.dt, res.iterations
    return seconds


def write_csv(s: Session, g: Game) -> Timing:
    _, seconds = s.timed("csv_write", cli.write_value_csv, g.csv, g.spec, g.grid, g.values)
    s.gate.record("csv_write", s.gate.same_as_first(f"csv {g.key}", g.csv.read_bytes()))
    return seconds


def check_read_back(g: Game, grid, values) -> list[str]:
    if grid.counts != g.grid.counts or values.shape != g.values.shape:
        return [f"{g.key}: value file grid {grid.counts} != {g.grid.counts}"]
    if values.tobytes() != g.values.tobytes():
        return [f"{g.key}: value file does not hold the written field bit for bit"]
    return []


def read_csv(s: Session, g: Game) -> tuple[np.ndarray, Timing]:
    start = time.perf_counter()
    try:
        (grid, values), seconds = s.timed("csv_read", cli.read_value_csv, g.csv, g.spec)
    except (cli.MismatchError, ValueError) as exc:
        s.gate.record("csv_read", [f"{g.key}: {exc}"])
        wall = time.perf_counter() - start
        return g.values, Timing(wall, wall * s.speed.factor("compute"))
    s.gate.record("csv_read", check_read_back(g, grid, values))
    return values, seconds


def stored_checks(values, spec, grid, variant):
    """The checks ``hybrid-isaacs verify --values`` runs on a stored field."""
    return [verify.obstacle_chain_check(values, spec, grid),
            verify.post_impulse_strictness(values, spec, grid),
            verify.dpp_consistency(values, spec, grid, variant=variant)]


def verify_solved(s: Session, g: Game) -> Timing:
    """``verify.run_all`` at the CLI's defaults: it solves again itself."""
    report, seconds = s.timed("verify", verify.run_all, g.spec, g.grid, g.config,
                              seed=s.seed, trials=VERIFY_TRIALS, kind=sweep_kind(g),
                              long=True)
    s.gate.record("verify", [f"{g.key}: {c.name} {c.status}" for c in report.checks
                             if not c.ok])
    return seconds


def verify_stored(s: Session, g: Game, values) -> Timing:
    """The checks of ``verify --values``; the multi-step one sweeps 100 times."""
    checks, seconds = s.timed("verify", stored_checks, values, g.spec, g.grid,
                              g.config.variant, kind=sweep_kind(g), long=True)
    s.gate.record("verify", [f"{g.key}: {c.name} {c.status}" for c in checks if not c.ok])
    return seconds


def trajectory_bytes(traj) -> bytes:
    totals = np.array([traj.running_total, traj.switch1_total, traj.switch2_total,
                       traj.impulse_total])
    return b"".join(np.ascontiguousarray(a).tobytes() for a in (
        traj.times, traj.states, traj.modes, traj.controls, traj.step_costs,
        traj.event_flags, totals))


def roll_out(s: Session, g: Game, values, steps: int) -> tuple[Timing, int]:
    """Simulate from each of the game's starts for ``steps`` steps of the
    solve's time step.  Returns the simulation seconds and steps; each
    rollout's microseconds per step is a ``sim_step_rollout_us`` sample."""
    seconds_sum, steps_sum = Timing(0.0, 0.0), 0
    for i, (x, d1, d2) in enumerate(g.starts):
        key = f"{g.key} start {i}"
        try:
            traj, seconds = s.timed("simulate", hybridsim.simulate, g.spec, g.grid, values,
                                    x, d1, d2, horizon=steps * g.dt, dt=g.dt)
        except hybridsim.ChatterError as exc:
            s.gate.record("simulate", [f"{key}: {exc}"])
            continue
        seconds_sum += seconds
        steps_sum += traj.steps
        s.add("sim_step_rollout_us", seconds / traj.steps * 1e6)
        if s.traced:
            s.tracer.count("hybridsim.steps", traj.steps)
        total, recomputed = traj.total_cost(), hybridsim.evaluate_cost(traj, g.spec.discount)
        problems = s.gate.same_as_first(f"trajectory {key}", trajectory_bytes(traj))
        if abs(total - recomputed) > 1e-12 * max(abs(total), abs(recomputed)):
            problems.append(f"{key}: evaluate_cost {recomputed!r} != total_cost {total!r}")
        s.gate.record("simulate", problems)
    return seconds_sum, steps_sum


def add_sim_step(s: Session, rollouts: list[tuple[Timing, int]]) -> None:
    """One ``sim_step_us`` sample: a round's simulation time over its steps.
    Pooling the round keeps the sample independent of which game's
    rollouts sit in the middle of the per-rollout distribution."""
    steps = sum(n for _, n in rollouts)
    if steps:
        s.add("sim_step_us", sum(t for t, _ in rollouts) / steps * 1e6)


# ---------------------------------------------------------------------------
# workloads

BUNDLED = ("balanced_loop", "constant_cost", "drift_1d", "impulse_toy", "mode_selection")


class Workload:
    """A set-up step and a round over ``games``, which set-up fills."""

    def __init__(self, s: Session):
        self.s = s
        self.games: list[Game] = []


class Bundled1D(Workload):
    """The five bundled specs at their own grids and tolerances.

    Tables are at most 0.1 MB and stay in L2, so a round costs per-call
    overhead times the sweep count: sweep-count changes show here, memory
    traffic changes should not.
    """

    SIM_STARTS, SIM_STEPS = 4, 20

    def setup(self) -> None:
        self.games = [load_game(self.s, self.s.root / "specs" / f"{name}.toml", name,
                                self.SIM_STARTS) for name in BUNDLED]

    def round(self) -> None:
        s = self.s
        totals = defaultdict(float)
        rollouts = []
        for g in self.games:
            totals["solve_s"] += solve_game(s, g)
            totals["csv_write_s"] += write_csv(s, g)
            values, seconds = read_csv(s, g)
            totals["csv_read_s"] += seconds
            totals["verify_s"] += verify_solved(s, g)
            rollouts.append(roll_out(s, g, values, self.SIM_STEPS))
        for metric, value in totals.items():
            s.add(metric, value)
        add_sim_step(s, rollouts)


class Grid2D(Workload):
    """A seeded 2-D game at 81x81 nodes whose 22 MB of tables overflow L2:
    stencil gathers and memory traffic dominate each sweep."""

    POINTS = 81
    SIM_STARTS, SIM_STEPS = 6, 25
    # a round holds one solve of several seconds; more CSV samples per round
    # keep the CSV medians from resting on a handful of calls
    CSV_CYCLES = 2

    def setup(self) -> None:
        path = self.s.workdir / "grid2d.toml"
        path.write_text(gen.grid2d_spec_text(self.s.seed, self.POINTS), encoding="utf-8")
        self.games = [load_game(self.s, path, "grid2d", self.SIM_STARTS)]

    def round(self) -> None:
        s, g = self.s, self.games[0]
        s.add("solve_s", solve_game(s, g))
        for _ in range(self.CSV_CYCLES):
            s.add("csv_write_s", write_csv(s, g))
            values, seconds = read_csv(s, g)
            s.add("csv_read_s", seconds)
        s.add("verify_s", verify_stored(s, g, values))
        add_sim_step(s, [roll_out(s, g, values, self.SIM_STEPS)])


class Rollout(Workload):
    """Fields for balanced_loop, drift_1d and the 2-D game at 41x41 are
    solved in set-up; rounds write and read back their CSVs and simulate, so
    the per-step scalar path dominates and no sweep runs in the
    simulations."""

    POINTS = 41
    SIM_STARTS, SIM_STEPS = 8, 100
    # the CSV round trips take a few percent of a round; repeating them
    # gives the CSV medians more than a handful of samples, spread over the
    # run rather than bunched in set-up
    CSV_CYCLES = 3

    def setup(self) -> None:
        s = self.s
        path = s.workdir / "grid2d-41.toml"
        path.write_text(gen.grid2d_spec_text(s.seed, self.POINTS), encoding="utf-8")
        self.games = [
            load_game(s, s.root / "specs" / "balanced_loop.toml", "balanced_loop",
                      self.SIM_STARTS),
            load_game(s, s.root / "specs" / "drift_1d.toml", "drift_1d", self.SIM_STARTS),
            load_game(s, path, "grid2d-41", self.SIM_STARTS),
        ]
        solve_s = 0.0
        for g in self.games:
            solve_s += solve_game(s, g)
            write_csv(s, g)
        s.add("solve_s", solve_s)

    def round(self) -> None:
        s = self.s
        fields = []
        for _ in range(self.CSV_CYCLES):
            write_s = read_s = 0.0
            fields = []
            for g in self.games:
                write_s += write_csv(s, g)
                values, seconds = read_csv(s, g)
                read_s += seconds
                fields.append(values)
            s.add("csv_write_s", write_s)
            s.add("csv_read_s", read_s)
        verify_s = 0.0
        rollouts = []
        for g, values in zip(self.games, fields):
            verify_s += verify_stored(s, g, values)
            rollouts.append(roll_out(s, g, values, self.SIM_STEPS))
        s.add("verify_s", verify_s)
        add_sim_step(s, rollouts)


WORKLOADS = {"bundled-1d": Bundled1D, "grid-2d": Grid2D, "rollout": Rollout}


# ---------------------------------------------------------------------------
# per-layer numbers of a traced run

def _median_call_us(fn, *args, **kwargs) -> float:
    """Median wall time of repeated calls: at least 5, until 0.05 s are
    spent, at most 200."""
    times = []
    spent = 0.0
    while len(times) < 5 or (spent < 0.05 and len(times) < 200):
        start = time.perf_counter()
        fn(*args, **kwargs)
        took = time.perf_counter() - start
        times.append(took)
        spent += took
    return median(times) * 1e6


def kernel_metrics(games: list[Game]) -> dict[str, float]:
    """Sweep and branch timings on each converged field, plus computed
    counts from the table shapes, summed over the workload's games."""
    out = defaultdict(float)
    for g in games:
        v, t, spec, variant = g.values, g.tables, g.spec, g.config.variant
        out["operators.sweep_us"] += _median_call_us(
            operators.bellman_update, v, spec, g.grid, variant=variant, tables=t)
        out["operators.continue_us"] += _median_call_us(operators.continue_field, v, t, variant)
        out["operators.switch_lower_us"] += _median_call_us(operators.switch_lower_field, v, spec)
        out["operators.switch_upper_us"] += _median_call_us(operators.switch_upper_field, v, spec)
        out["operators.impulse_us"] += _median_call_us(operators.impulse_field, v, t)
        pairs = spec.m1 * spec.m2
        # continue: one read per stencil corner of every (mode pair, control
        # pair, node); impulses: the same per (menu entry, mode pair, node)
        gathers = t.foot_idx.size + pairs * t.imp_idx.size
        # index and weight tables, running cost, one 8-byte value per
        # gather, the field read and the update written
        moved = (t.foot_idx.nbytes + t.foot_wts.nbytes + t.k.nbytes
                 + pairs * (t.imp_idx.nbytes + t.imp_wts.nbytes) + 8 * gathers + 2 * v.nbytes)
        out["operators.sweep_gathers"] += gathers
        out["operators.sweep_mb_computed"] += moved / 1e6
        out["discretize.table_mb"] += sum(a.nbytes for a in vars(t).values()
                                          if isinstance(a, np.ndarray)) / 1e6
        out["solver.sweeps"] += g.sweeps
    out["operators.sweep_gbps_computed"] = (out["operators.sweep_mb_computed"] / 1e3
                                            / (out["operators.sweep_us"] / 1e6))
    return dict(out)


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer sums per traced phase, reduced to the median over the
    traced phases that hold them; per-call figures pool all traced phases."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = op_of(spans)
    per_phase: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    evals = interps = 0
    eval_s = 0.0
    for i, rec in enumerate(spans):
        name, phase = rec[NAME], per_phase[rec[ROUND]]
        duration = rec[END] - rec[START]
        op = spans[ops[i]][NAME] if ops[i] >= 0 else None
        if name == "op.load":
            phase["problem.load_s"] += duration
        elif name == "op.gate":
            phase["problem.gate_s"] += duration
        elif name == "op.solve":
            phase["solver.self_s"] += selfs[i]
        elif op == "op.solve" and name == "solver.bellman_update":
            phase["operators.solve_s"] += selfs[i]
        elif op == "op.solve" and name == "solver.build_tables":
            phase["discretize.build_tables_s"] += selfs[i]
        elif name in CHECK_METRICS:
            phase[CHECK_METRICS[name]] += duration
        elif op == "op.simulate" and name in EVALS:
            evals += 1
            eval_s += duration
        elif op == "op.simulate" and name == "hybridsim.interp_weights":
            interps += 1
    steps = sum(n for (_, name), n in tracer.counts.items() if name == "hybridsim.steps")
    pooled: dict[str, list[float]] = defaultdict(list)
    for phase in per_phase.values():
        for metric, value in phase.items():
            pooled[metric].append(value)
    out = {metric: median(values) for metric, values in pooled.items()}
    if steps:
        out["exprlang.evals_per_step"] = evals / steps
        out["discretize.interp_per_step"] = interps / steps
    if evals:
        out["exprlang.eval_us"] = eval_s / evals * 1e6
    return out
