"""Stacked sweeps and lock-step solves: every member of a stack has the bits
of its own sweep, and every member of ``solve_many`` the bits, sweep count
and history of its own ``solve``."""

import numpy as np
import pytest

from hybrid_isaacs import discretize
from hybrid_isaacs.discretize import build_tables, make_grid
from hybrid_isaacs.operators import Variant, bellman_update
from hybrid_isaacs.solver import SolverConfig, solve, solve_many

from conftest import BUNDLED, game_2d, game_3d, load_bundled

GAMES = sorted(BUNDLED) + ["game_2d", "game_3d"]


def load_game(name):
    """(spec, grid, config) of a bundled spec at its own grid, or of the
    test suite's 2-D game at 9 points per side and 3-D game at 7."""
    if name == "game_2d":
        spec = game_2d()
        return spec, make_grid(spec, 9), SolverConfig(tolerance=1e-8)
    if name == "game_3d":
        spec = game_3d()
        return spec, make_grid(spec, 7), SolverConfig(tolerance=1e-6)
    spec, grid_cfg, solver_cfg = load_bundled(name)
    return (spec, make_grid(spec, grid_cfg["points"]),
            SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"]))


def assert_same_solve(result, alone):
    assert result.values.tobytes() == alone.values.tobytes()
    assert result.values.shape == alone.values.shape
    assert result.iterations == alone.iterations
    assert result.change_history.tobytes() == alone.change_history.tobytes()
    assert (result.converged, result.monotone, result.variant) == (
        alone.converged, alone.monotone, alone.variant)
    assert result.stop_threshold == alone.stop_threshold and result.dt == alone.dt


@pytest.mark.parametrize("name", GAMES)
def test_lock_step_members_match_their_own_solves(name):
    """PLUS and MINUS members from zero, upper and array inits, a looser
    tolerance that stops earlier, and a cap that stops one unconverged."""
    spec, grid, config = load_game(name)
    field = np.random.default_rng(4).uniform(0.0, 1.0, (spec.m1, spec.m2, grid.n_points))
    configs = [config,
               SolverConfig(dt=config.dt, tolerance=config.tolerance, variant=Variant.MINUS),
               SolverConfig(dt=config.dt, tolerance=config.tolerance, init="upper"),
               SolverConfig(dt=config.dt, tolerance=config.tolerance, init="upper",
                            variant=Variant.MINUS),
               SolverConfig(dt=config.dt, tolerance=config.tolerance, init=field,
                            variant=Variant.MINUS),
               SolverConfig(dt=config.dt, tolerance=1e3 * config.tolerance),
               SolverConfig(dt=config.dt, tolerance=config.tolerance, max_iterations=7,
                            variant=Variant.MINUS)]
    results = solve_many(spec, grid, configs)
    for config, result in zip(configs, results):
        assert_same_solve(result, solve(spec, grid, config))
    assert len({r.iterations for r in results}) >= 3
    assert results[-1].iterations == 7 and not results[-1].converged
    assert all(r.tables is results[0].tables for r in results)


def test_lock_step_members_stop_at_zero_sweeps():
    spec, grid, config = load_game("constant_cost")
    capped = SolverConfig(dt=config.dt, tolerance=config.tolerance, max_iterations=0)
    results = solve_many(spec, grid, [capped, config])
    assert_same_solve(results[0], solve(spec, grid, capped))
    assert results[0].iterations == 0 and not results[0].converged
    assert_same_solve(results[1], solve(spec, grid, config))


def test_equal_configs_are_one_member(monkeypatch):
    """Configs with the same init string, variant, tolerance and cap share
    one result, and each sweep updates the distinct members only."""
    spec, grid, config = load_game("balanced_loop")
    members = []

    def counting(values, *args, **kwargs):
        members.append(1 if values.ndim == 3 else len(values))
        return bellman_update(values, *args, **kwargs)

    monkeypatch.setattr("hybrid_isaacs.solver.bellman_update", counting)
    upper = SolverConfig(dt=config.dt, tolerance=config.tolerance, init="upper")
    a, b, c = solve_many(spec, grid, [config, upper, SolverConfig(
        dt=config.dt, tolerance=config.tolerance, init="upper")])
    assert b is c and a is not b
    assert max(members) == 2


def test_lock_step_refuses_unequal_time_steps_and_bad_tolerances():
    spec, grid, _ = load_game("constant_cost")
    with pytest.raises(ValueError, match="share dt"):
        solve_many(spec, grid, [SolverConfig(dt=0.5), SolverConfig(dt=0.25)])
    with pytest.raises(ValueError, match="tolerance"):
        solve_many(spec, grid, [SolverConfig(dt=0.5), SolverConfig(dt=0.5, tolerance=-1.0)])
    assert solve_many(spec, grid, []) == []


def test_lock_step_builds_the_tables_once_or_not_at_all(monkeypatch):
    spec, grid, config = load_game("drift_1d")
    tables = build_tables(spec, grid, config.dt)
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return build_tables(*args, **kwargs)

    monkeypatch.setattr("hybrid_isaacs.solver.build_tables", counting)
    minus = SolverConfig(dt=config.dt, tolerance=config.tolerance, variant=Variant.MINUS)
    solve_many(spec, grid, [config, minus])
    assert len(builds) == 1
    results = solve_many(spec, grid, [config, minus], tables=tables)
    assert len(builds) == 1 and results[0].tables is tables


@pytest.mark.parametrize("name", GAMES)
def test_stacked_sweeps_match_single_sweeps(name):
    """One sweep of a stack, one variant for all or one per member, gives
    each member the bits of its own sweep."""
    spec, grid, config = load_game(name)
    tables = build_tables(spec, grid, config.dt)
    rng = np.random.default_rng(9)
    stack = rng.uniform(0.0, 2.0, (6, spec.m1, spec.m2, grid.n_points))
    variants = [Variant.PLUS] * 2 + [Variant.MINUS] * 3 + [Variant.PLUS]
    for variant in (Variant.PLUS, Variant.MINUS, variants):
        swept = bellman_update(stack, spec, grid, variant=variant, tables=tables)
        each = variant if isinstance(variant, list) else [variant] * len(stack)
        for values, out, v in zip(stack, swept, each):
            alone = bellman_update(values, spec, grid, variant=v, tables=tables)
            assert out.tobytes() == alone.tobytes()
    swept = bellman_update(stack.reshape((2, 3) + stack.shape[1:]), spec, grid, tables=tables)
    assert swept.reshape(stack.shape).tobytes() == bellman_update(stack, spec, grid,
                                                                  tables=tables).tobytes()


def test_stacked_sweep_refuses_a_variant_list_of_the_wrong_length():
    spec, grid, config = load_game("drift_1d")
    stack = np.zeros((3, 1, 1, grid.n_points))
    with pytest.raises(ValueError, match="2 variants for a stack of 3"):
        bellman_update(stack, spec, grid, dt=config.dt, variant=[Variant.PLUS] * 2)


@pytest.mark.parametrize("budget, members, blocks", [
    (1, 3, [(1, 1)] * 12),       # one member-pair per block, as one member reads
    (4, 1, [(1, 4)]),            # one member: every pair in one block
    (4, 2, [(2, 2)] * 2),        # two members share a block of two pairs
    (4, 3, [(3, 1)] * 4),        # three members, pair by pair
    (4, 5, [(4, 1)] * 4 + [(1, 1)] * 4),
])
def test_pair_blocks_count_members(budget, members, blocks, monkeypatch):
    """A block spans at most the budget of member-pairs: ``(members in the
    block, pairs in the block)`` per block; a lone member is an index."""
    spec, grid, _ = load_game("game_2d")
    per_pair = len(spec.u1_levels) * len(spec.u2_levels) * grid.n_points
    monkeypatch.setattr(discretize, "_PAIR_BLOCK_READS", budget * per_pair)
    tables = build_tables(spec, grid)
    got = tables.pair_blocks(members)
    shape = [(1 if isinstance(m, int) else m.stop - m.start, idx.shape[0])
             for m, _, idx, _ in got]
    assert shape == blocks
    covered = sorted((m, p) for rows, pairs, _, _ in got
                     for m in ([rows] if isinstance(rows, int) else range(rows.start, rows.stop))
                     for p in range(4)[pairs])
    assert covered == [(m, p) for m in range(members) for p in range(4)]
    assert tables.pair_blocks(members) is got
