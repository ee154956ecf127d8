"""The CLI writes its CSVs with ``np.savetxt`` and reads value files with
``np.loadtxt``.  These tests hold it to the per-row writers it replaced,
kept below as the reference: every file must match them byte for byte, and
a value file must read back bit for bit."""

import importlib.util
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybrid_isaacs import cli
from hybrid_isaacs.discretize import make_grid
from hybrid_isaacs.hybridsim import simulate
from hybrid_isaacs.problem import load_spec
from hybrid_isaacs.solver import SolverConfig, solve

from conftest import game_2d, toy_spec

ROOT = Path(__file__).resolve().parents[1]


def fmt(x):
    return f"{x:.16e}"


def reference_write_value_csv(path, spec, grid, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# value field\n")
        fh.write(f"# dimension = {spec.dimension}\n")
        fh.write(f"# counts = {','.join(str(c) for c in grid.counts)}\n")
        for d in range(spec.dimension):
            fh.write(f"# box{d} = {fmt(grid.box[d, 0])},{fmt(grid.box[d, 1])}\n")
        fh.write(f"# d1_labels = {','.join(spec.d1_labels)}\n")
        fh.write(f"# d2_labels = {','.join(spec.d2_labels)}\n")
        fh.write(f"# discount = {fmt(spec.discount)}\n")
        coords = ",".join(f"x{d}" for d in range(spec.dimension))
        fh.write(f"d1,d2,{coords},value\n")
        pts = grid.points
        for i1 in range(spec.m1):
            for i2 in range(spec.m2):
                slab = values[i1, i2]
                for p in range(grid.n_points):
                    xs = ",".join(fmt(c) for c in pts[p])
                    fh.write(f"{i1},{i2},{xs},{fmt(slab[p])}\n")


def reference_write_residual_csv(path, history):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,sup_change\n")
        for i, change in enumerate(history, start=1):
            fh.write(f"{i},{fmt(change)}\n")


def reference_write_trajectory_csv(path, spec, traj):
    """Each row rescans every event list: O(steps x events)."""
    lam = spec.discount
    w = (1.0 - np.exp(-lam * traj.dt)) / lam
    with open(path, "w", encoding="utf-8") as fh:
        coords = ",".join(f"x{d}" for d in range(spec.dimension))
        fh.write(f"time,{coords},d1,d2,u1,u2,impulses,switches1,switches2,"
                 "cum_running,cum_switch1,cum_switch2,cum_impulse\n")
        cum_run = 0.0
        for n in range(traj.steps):
            t = traj.times[n]
            cum_run += np.exp(-lam * t) * w * traj.step_costs[n]
            cum_s1 = sum(np.exp(-lam * e.time) * e.cost
                         for e in traj.switch1_events if e.time <= t)
            cum_s2 = sum(np.exp(-lam * e.time) * e.cost
                         for e in traj.switch2_events if e.time <= t)
            cum_imp = sum(np.exp(-lam * e.time) * e.cost
                          for e in traj.impulse_events if e.time <= t)
            xs = ",".join(fmt(c) for c in traj.states[n])
            d1, d2 = traj.modes[n]
            u1, u2 = traj.controls[n]
            imp_f, s1_f, s2_f = traj.event_flags[n]
            fh.write(f"{fmt(t)},{xs},{d1},{d2},{fmt(u1)},{fmt(u2)},"
                     f"{imp_f},{s1_f},{s2_f},"
                     f"{fmt(cum_run)},{fmt(cum_s1)},{fmt(cum_s2)},{fmt(cum_imp)}\n")


# ---------------------------------------------------------------------------
# value and residual files

FIELDS = {
    "1d": (toy_spec(d1=("a", "b"), d2=("c",), c1=[[0.0, 1.0], [1.0, 0.0]]), 7),
    "2d": (game_2d(), (4, 3)),
}

SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, np.inf, -np.inf, 0.1, -1.0 / 3.0])


def assert_round_trip(key, values):
    spec, counts = FIELDS[key]
    grid = make_grid(spec, counts)
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        cli.write_value_csv(new, spec, grid, values)
        reference_write_value_csv(ref, spec, grid, values)
        assert new.read_bytes() == ref.read_bytes()
        grid_back, back = cli.read_value_csv(new, spec)
        assert grid_back.counts == grid.counts
        assert back.shape == values.shape and back.tobytes() == values.tobytes()

        cli.write_residual_csv(new, values.reshape(-1))
        reference_write_residual_csv(ref, values.reshape(-1))
        assert new.read_bytes() == ref.read_bytes()


def field_shape(key):
    spec, counts = FIELDS[key]
    return (spec.m1, spec.m2, make_grid(spec, counts).n_points)


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_special_values_round_trip(key):
    shape = field_shape(key)
    assert_round_trip(key, np.resize(SPECIALS, shape))


@pytest.mark.parametrize("key", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_fields_round_trip_bit_for_bit(key, data):
    values = data.draw(arrays(np.float64, field_shape(key),
                              elements=st.floats(allow_nan=False)))
    assert_round_trip(key, values)


# ---------------------------------------------------------------------------
# trajectory files

def gen2d(seed, directory):
    """The benchmark's seeded 2-D game at 21x21."""
    source = importlib.util.spec_from_file_location("perfbench_gen",
                                                    ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(source)
    source.loader.exec_module(gen)
    path = directory / f"gen{seed}.toml"
    path.write_text(gen.grid2d_spec_text(seed, 21))
    return load_spec(path)


@pytest.fixture(scope="module")
def rollouts(tmp_path_factory):
    """Rollouts from a 3x3 grid of starts in every mode pair, and one at
    horizon 0, on game_2d and on gen2d seed 1."""
    out = []
    for spec in (game_2d(), gen2d(1, tmp_path_factory.mktemp("gen2d"))):
        grid = make_grid(spec, 21)
        values = solve(spec, grid, SolverConfig(tolerance=1e-9)).values
        for x in itertools.product(*(np.linspace(lo, hi, 3) for lo, hi in spec.box)):
            for d1, d2 in spec.mode_pairs():
                out.append((spec, simulate(spec, grid, values, np.array(x), d1, d2,
                                           horizon=3.0)))
        out.append((spec, simulate(spec, grid, values, spec.box.mean(axis=1), 0, 0,
                                   horizon=0.0)))
    return out


def test_rollouts_hold_every_event_kind(rollouts):
    for kind in ("impulse_events", "switch1_events", "switch2_events"):
        assert sum(len(getattr(traj, kind)) for _, traj in rollouts) > 0, kind
    assert any(traj.steps == 0 for _, traj in rollouts)


def test_trajectory_csvs_match_the_reference(rollouts, tmp_path):
    for j, (spec, traj) in enumerate(rollouts):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli.write_trajectory_csv(new, spec, traj)
        reference_write_trajectory_csv(ref, spec, traj)
        assert new.read_bytes() == ref.read_bytes(), j


def test_horizon_zero_writes_the_header_only(rollouts, tmp_path):
    spec, traj = next((spec, traj) for spec, traj in rollouts if traj.steps == 0)
    cli.write_trajectory_csv(tmp_path / "new.csv", spec, traj)
    assert (tmp_path / "new.csv").read_text().splitlines() == [
        "time,x0,x1,d1,d2,u1,u2,impulses,switches1,switches2,"
        "cum_running,cum_switch1,cum_switch2,cum_impulse"]
