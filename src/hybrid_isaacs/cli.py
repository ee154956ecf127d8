"""Batch command-line front end.

Subcommands: ``validate``, ``solve``, ``simulate``, ``verify``, ``analyze``.
Exit codes are a stable contract:

    0  success
    1  config parse or structural error
    2  cost-assumption violation (rejected before any solve)
    3  no convergence / simulation aborted
    4  artifact mismatch (value file malformed, or does not fit the problem
       or grid)
    5  verification failure

All numeric output is written with 17 significant digits (``%.16e``). The
CSVs are written and read with numpy's text codec (``savetxt``/``loadtxt``),
so value files round-trip exactly; identical inputs and seed produce
byte-identical CSVs and reports (manifests additionally record wall-clock
timings).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .discretize import GridSpec, build_tables, interpolate, make_grid
from .hybridsim import ChatterError, evaluate_cost, simulate
from .operators import Variant, isaacs_gap
from .problem import (ProblemSpec, ValidationReport, check_y1_y2, load_config,
                      sample_controls, validate_a2)
from .solver import SolverConfig, solve
from .verify import SUITES, VerificationReport, check_field, run_all

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ASSUMPTION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5

FMT = "%.16e"


def fmt(x: float) -> str:
    return FMT % x


class MismatchError(ValueError):
    """Value file does not belong to this problem/grid combination."""


# ---------------------------------------------------------------------------
# file formats: rows go through numpy's text codec, every float as ``FMT``

def _write_csv(path: Path, header: str, columns: list, formats: list[str]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt=formats, delimiter=",",
               header=header, comments="", encoding="utf-8")


def write_value_csv(path: Path, spec: ProblemSpec, grid: GridSpec,
                    values: np.ndarray) -> None:
    i1, i2, p = np.indices(values.shape).reshape(3, -1)
    header = [
        "# value field",
        f"# dimension = {spec.dimension}",
        f"# counts = {','.join(str(c) for c in grid.counts)}",
        *(f"# box{d} = {fmt(lo)},{fmt(hi)}" for d, (lo, hi) in enumerate(grid.box)),
        f"# d1_labels = {','.join(spec.d1_labels)}",
        f"# d2_labels = {','.join(spec.d2_labels)}",
        f"# discount = {fmt(spec.discount)}",
        "d1,d2," + ",".join(f"x{d}" for d in range(spec.dimension)) + ",value",
    ]
    _write_csv(path, "\n".join(header), [i1, i2, grid.points[p], values.reshape(-1)],
               ["%d", "%d"] + [FMT] * (spec.dimension + 1))


def read_value_csv(path: Path, spec: ProblemSpec) -> tuple[GridSpec, np.ndarray]:
    """Read a value file and check it belongs to ``spec``.

    Raises MismatchError when the metadata disagrees with the problem or a
    row is malformed, missing or out of order.
    """
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                break    # the column header: value rows follow
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        else:
            raise MismatchError(f"{path}: empty value file")
        try:
            with warnings.catch_warnings():
                # a header with no rows is reported by the shape check below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise MismatchError(f"{path}: {exc}") from None

    try:
        dim = int(meta["dimension"])
        counts = tuple(int(c) for c in meta["counts"].split(","))
        d1_labels = tuple(meta["d1_labels"].split(","))
        d2_labels = tuple(meta["d2_labels"].split(","))
        box = np.array([[float(v) for v in meta[f"box{d}"].split(",")]
                        for d in range(dim)])
    except KeyError as exc:
        raise MismatchError(f"{path}: missing metadata line {exc}") from None
    except ValueError as exc:
        raise MismatchError(f"{path}: malformed metadata: {exc}") from None

    if dim != spec.dimension:
        raise MismatchError(f"{path}: dimension {dim} != problem dimension {spec.dimension}")
    if d1_labels != spec.d1_labels or d2_labels != spec.d2_labels:
        raise MismatchError(f"{path}: mode labels do not match the problem")
    if not np.array_equal(box, spec.box):
        raise MismatchError(f"{path}: box does not match the problem")

    grid = make_grid(spec, counts)
    shape = (spec.m1 * spec.m2 * grid.n_points, 3 + spec.dimension)
    if rows.shape != shape:
        raise MismatchError(f"{path}: expected {shape[0]} value rows of {shape[1]} columns, "
                            f"found {rows.shape[0]} of {rows.shape[1]}")
    i1, i2, _ = np.indices((spec.m1, spec.m2, grid.n_points)).reshape(3, -1)
    bad = np.flatnonzero((rows[:, 0] != i1) | (rows[:, 1] != i2))
    if bad.size:
        raise MismatchError(f"{path}: rows out of order at line {bad[0] + 1}")
    return grid, np.ascontiguousarray(rows[:, -1]).reshape(spec.m1, spec.m2, grid.n_points)


def write_residual_csv(path: Path, history: np.ndarray) -> None:
    _write_csv(path, "iteration,sup_change", [np.arange(1, len(history) + 1), history],
               ["%d", FMT])


def _sums_from_zero(terms: np.ndarray) -> np.ndarray:
    """``out[j]`` is ``((0.0 + terms[0]) + ...) + terms[j - 1]``, added in order."""
    return np.cumsum(np.concatenate(([0.0], terms)))


def write_trajectory_csv(path: Path, spec: ProblemSpec, traj) -> None:
    """One row per step; the four ``cum_*`` columns are the discounted cost
    each term has run up by the row's time, events at that instant included."""
    lam = spec.discount
    w = (1.0 - np.exp(-lam * traj.dt)) / lam
    running = _sums_from_zero(np.exp(-lam * traj.times) * w * traj.step_costs)[1:]
    ledgers = []
    for events in (traj.switch1_events, traj.switch2_events, traj.impulse_events):
        at = np.array([e.time for e in events], dtype=float)    # in time order
        sums = _sums_from_zero(np.exp(-lam * at) * np.array([e.cost for e in events]))
        ledgers.append(sums[np.searchsorted(at, traj.times, "right")])
    coords = ",".join(f"x{d}" for d in range(spec.dimension))
    header = (f"time,{coords},d1,d2,u1,u2,impulses,switches1,switches2,"
              "cum_running,cum_switch1,cum_switch2,cum_impulse")
    _write_csv(path, header,
               [traj.times, traj.states, traj.modes, traj.controls, traj.event_flags,
                running, *ledgers],
               [FMT] * (1 + spec.dimension) + ["%d"] * 2 + [FMT] * 2 + ["%d"] * 3 + [FMT] * 4)


def write_manifest(path: Path, command: str, inputs: dict, outputs: list[Path],
                   started: float) -> None:
    manifest = {
        "command": command,
        "inputs": inputs,
        "outputs": [p.name for p in outputs],
        "version": __version__,
        "wall_seconds": round(time.perf_counter() - started, 6),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_grid(text: str | None, grid_cfg: dict):
    """Point counts for ``make_grid``: a single count (``--grid 11`` or
    ``points = 11``) stays an int, which ``make_grid`` gives every axis."""
    if text:
        counts = tuple(int(c) for c in text.split(","))
        return counts[0] if len(counts) == 1 else counts
    points = grid_cfg.get("points", 101)
    return tuple(int(c) for c in points) if isinstance(points, list) else int(points)


def _solver_config(args, solver_cfg: dict) -> SolverConfig:
    dt = args.dt if args.dt is not None else solver_cfg.get("dt")
    tol = args.tol if args.tol is not None else solver_cfg.get("tolerance", 1e-9)
    iters = (args.max_iters if args.max_iters is not None
             else solver_cfg.get("max_iterations", 100_000))
    init = args.init if getattr(args, "init", None) else solver_cfg.get("init", "zero")
    variant = Variant.parse(args.variant if getattr(args, "variant", None)
                            else solver_cfg.get("variant", "plus"))
    return SolverConfig(dt=dt, tolerance=float(tol), max_iterations=int(iters),
                        init=init, variant=variant)


def _out_dir(args, config_path: Path) -> Path:
    out = Path(args.out) if args.out else config_path.parent
    out.mkdir(parents=True, exist_ok=True)
    return out


def _mode_index(labels: tuple[str, ...], raw: str, player: int) -> int:
    if raw in labels:
        return labels.index(raw)
    try:
        idx = int(raw)
    except ValueError:
        raise MismatchError(f"unknown player-{player} mode {raw!r}; "
                            f"choose from {', '.join(labels)}") from None
    if not 0 <= idx < len(labels):
        raise MismatchError(f"player-{player} mode index {idx} out of range")
    return idx


# ---------------------------------------------------------------------------
# commands

def _write_report(report, out_dir: Path, stem: str, kind: str) -> list[Path]:
    """Write ``report`` as ``<stem>.<kind>.txt`` and ``.kv`` and to stdout."""
    txt = out_dir / f"{stem}.{kind}.txt"
    kv = out_dir / f"{stem}.{kind}.kv"
    txt.write_text(report.to_text(), encoding="utf-8")
    kv.write_text(report.to_kv(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    return [txt, kv]


def _gate(report: ValidationReport) -> int:
    """EXIT_ASSUMPTION, with each failed check on stderr, when a mandatory
    cost assumption fails; EXIT_OK otherwise."""
    if report.mandatory_ok:
        return EXIT_OK
    for check in report.failures():
        sys.stderr.write(f"assumption violated: {check.name}: {check.detail}\n")
    return EXIT_ASSUMPTION


def cmd_validate(args) -> int:
    started = time.perf_counter()
    config_path = Path(args.config)
    spec, _, _ = load_config(config_path)
    report = validate_a2(spec, samples=args.samples, seed=args.seed)
    out_dir = _out_dir(args, config_path)
    stem = config_path.stem
    outputs = _write_report(report, out_dir, stem, "validation")
    write_manifest(out_dir / f"{stem}.validate-manifest.json", "validate",
                   {"config": str(config_path), "samples": args.samples, "seed": args.seed},
                   outputs, started)
    return _gate(report)


def cmd_solve(args) -> int:
    started = time.perf_counter()
    config_path = Path(args.config)
    spec, grid_cfg, solver_cfg = load_config(config_path)
    gate = _gate(validate_a2(spec, samples=args.samples, seed=args.seed))
    if gate != EXIT_OK:
        return gate

    grid = make_grid(spec, _parse_grid(args.grid, grid_cfg))
    config = _solver_config(args, solver_cfg)
    result = solve(spec, grid, config)

    out_dir = _out_dir(args, config_path)
    stem = config_path.stem
    value_path = out_dir / f"{stem}.value.csv"
    residual_path = out_dir / f"{stem}.residuals.csv"
    write_value_csv(value_path, spec, grid, result.values)
    write_residual_csv(residual_path, result.change_history)
    write_manifest(out_dir / f"{stem}.solve-manifest.json", "solve", {
        "config": str(config_path),
        "grid": list(grid.counts),
        "dt": result.dt,
        "tolerance": config.tolerance,
        "max_iterations": config.max_iterations,
        "init": str(config.init),
        "variant": config.variant.value,
        "seed": args.seed,
        "iterations": result.iterations,
        "converged": result.converged,
    }, [value_path, residual_path], started)

    status = "converged" if result.converged else "NOT CONVERGED"
    sys.stdout.write(
        f"{status} in {result.iterations} iteration(s); last change "
        f"{fmt(result.last_change)}; field written to {value_path}\n")
    if not result.converged:
        sys.stderr.write(
            f"no convergence within {config.max_iterations} iterations "
            f"(last change {fmt(result.last_change)}); partial field kept\n")
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    config_path = Path(args.config)
    spec, grid_cfg, solver_cfg = load_config(config_path)
    grid, values = read_value_csv(Path(args.values), spec)

    d1 = _mode_index(spec.d1_labels, args.d1, 1)
    d2 = _mode_index(spec.d2_labels, args.d2, 2)
    start = np.array([float(v) for v in args.start.split(",")]) if args.start \
        else grid.box.mean(axis=1)
    if start.size != spec.dimension:
        raise MismatchError(f"--start needs {spec.dimension} coordinate(s)")

    traj = simulate(spec, grid, values, start, d1, d2, horizon=args.horizon,
                    dt=args.dt, action_tol=args.action_tol,
                    variant=Variant.parse(args.variant or solver_cfg.get("variant", "plus")))

    out_dir = _out_dir(args, config_path)
    stem = config_path.stem
    traj_path = out_dir / f"{stem}.trajectory.csv"
    write_trajectory_csv(traj_path, spec, traj)

    total = traj.total_cost()
    recomputed = evaluate_cost(traj, spec.discount)
    v0 = interpolate(values[d1, d2], grid, grid.clamp(start))
    summary = (
        f"trajectory: {traj.steps} step(s), {len(traj.impulse_events)} impulse(s), "
        f"{len(traj.switch1_events)} player-1 switch(es), "
        f"{len(traj.switch2_events)} player-2 switch(es)\n"
        f"cost decomposition:\n"
        f"  running          = {fmt(traj.running_total)}\n"
        f"  player-1 switches = -{fmt(traj.switch1_total)}\n"
        f"  player-2 switches = +{fmt(traj.switch2_total)}\n"
        f"  impulses          = +{fmt(traj.impulse_total)}\n"
        f"  total             = {fmt(total)}  (recomputed {fmt(recomputed)})\n"
        f"value at start      = {fmt(v0)}  (gap {fmt(abs(total - v0))})\n")
    summary_path = out_dir / f"{stem}.simulation.txt"
    summary_path.write_text(summary, encoding="utf-8")
    sys.stdout.write(summary)
    write_manifest(out_dir / f"{stem}.simulate-manifest.json", "simulate", {
        "config": str(config_path),
        "values": str(args.values),
        "start": start.tolist(),
        "d1": d1, "d2": d2,
        "horizon": args.horizon,
        "dt": traj.dt,
        "action_tol": args.action_tol,
    }, [traj_path, summary_path], started)
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.perf_counter()
    config_path = Path(args.config)
    spec, grid_cfg, solver_cfg = load_config(config_path)
    gate = _gate(validate_a2(spec, samples=args.samples, seed=args.seed))
    if gate != EXIT_OK:
        return gate

    config = _solver_config(args, solver_cfg)
    suites = set(args.suite) if args.suite else None

    if args.values:
        grid, values = read_value_csv(Path(args.values), spec)
        tables = build_tables(spec, grid, config.dt)
        report = VerificationReport(check_field(values, spec, grid, config, tables, suites),
                                    args.seed)
    else:
        grid = make_grid(spec, _parse_grid(args.grid, grid_cfg))
        report = run_all(spec, grid, config, seed=args.seed, trials=args.trials,
                         suites=suites)

    out_dir = _out_dir(args, config_path)
    stem = config_path.stem
    outputs = _write_report(report, out_dir, stem, "verification")
    write_manifest(out_dir / f"{stem}.verify-manifest.json", "verify", {
        "config": str(config_path),
        "values": str(args.values) if args.values else None,
        "suite": sorted(suites) if suites else "all",
        "seed": args.seed,
        "trials": args.trials,
    }, outputs, started)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_analyze(args) -> int:
    config_path = Path(args.config)
    spec, grid_cfg, _ = load_config(config_path)
    grid = make_grid(spec, _parse_grid(args.grid, grid_cfg))

    y = check_y1_y2(spec)
    gap = isaacs_gap(*sample_controls(spec, grid.points), costate_samples=args.costates,
                     seed=args.seed)
    report = validate_a2(spec, samples=args.samples, seed=args.seed)

    sys.stdout.write(y.to_text(spec))
    sys.stdout.write(f"saddle-order gap estimate: {fmt(gap)}"
                     + (" (orders agree on the sample)\n" if gap == 0.0 else "\n"))
    for key in sorted(report.estimates):
        sys.stdout.write(f"{key} = {fmt(report.estimates[key])}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-isaacs",
        description="Solve, simulate, and verify zero-sum hybrid differential games.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("config", help="problem definition file")
        p.add_argument("--out", help="output directory (default: beside the config)")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=256,
                       help="sample count for the cost-assumption gate")

    p = sub.add_parser("validate", help="check the cost assumptions")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute the value field")
    common(p)
    p.add_argument("--grid", help="points per dimension, e.g. 101 or 65,65")
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--init", choices=["zero", "upper"])
    p.add_argument("--variant", choices=["plus", "minus"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="roll out the feedback policy")
    p.add_argument("config")
    p.add_argument("values", help="value CSV produced by solve")
    p.add_argument("--out")
    p.add_argument("--start", help="comma-separated start state")
    p.add_argument("--d1", default="0", help="starting player-1 mode (label or index)")
    p.add_argument("--d2", default="0", help="starting player-2 mode (label or index)")
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--action-tol", type=float, default=1e-8, dest="action_tol")
    p.add_argument("--variant", choices=["plus", "minus"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the structural property checks")
    common(p)
    p.add_argument("--grid")
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--variant", choices=["plus", "minus"])
    p.add_argument("--suite", action="append", choices=SUITES,
                   help="restrict to named checks (repeatable)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--values", help="check an existing value CSV instead of solving")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="print structure conditions and estimates")
    common(p)
    p.add_argument("--grid")
    p.add_argument("--costates", type=int, default=16)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, ChatterError) as exc:
        # config, spec-structure and mismatch errors are all ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, MismatchError):
            return EXIT_MISMATCH
        return EXIT_NO_CONVERGENCE if isinstance(exc, ChatterError) else EXIT_PARSE


def app() -> None:
    raise SystemExit(main())
