"""Stacked sweeps and lock-step solves: every member of a stack has the bits
of its own sweep, and every member of ``solve_many`` the bits, sweep count
and history of its own Picard solve, a ``solve_many`` of that config
alone."""

import numpy as np
import pytest

from hybrid_isaacs import discretize
from hybrid_isaacs.discretize import build_tables, make_grid
from hybrid_isaacs.operators import Variant, bellman_update
from hybrid_isaacs.solver import SolverConfig, solve_many

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


def picard_solve(spec, grid, config):
    """The Picard solve of ``config`` alone."""
    return solve_many(spec, grid, [config])[0]


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
        assert_same_solve(result, picard_solve(spec, grid, config))
    assert len({r.iterations for r in results}) >= 3
    assert results[-1].iterations == 7 and not results[-1].converged
    assert all(r.tables is results[0].tables for r in results)


def test_lock_step_members_stop_at_zero_sweeps():
    spec, grid, config = load_game("constant_cost")
    capped = SolverConfig(dt=config.dt, tolerance=config.tolerance, max_iterations=0)
    results = solve_many(spec, grid, [capped, config])
    assert_same_solve(results[0], picard_solve(spec, grid, capped))
    assert results[0].iterations == 0 and not results[0].converged
    assert_same_solve(results[1], picard_solve(spec, grid, config))


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


@pytest.mark.parametrize("per_block", [None, 1, 3])
@pytest.mark.parametrize("name", GAMES)
def test_stacked_sweeps_match_single_sweeps(name, per_block, monkeypatch):
    """One sweep of a stack, one variant for all or one per member, gives
    each member the bits of its own sweep: at the default block budget, and
    at budgets of 1 and 3 member-pairs, where runs of interleaved variants
    end inside what one block of the whole stack would read."""
    spec, grid, config = load_game(name)
    if per_block is not None:
        per_pair = len(spec.u1_levels) * len(spec.u2_levels) * grid.n_points
        monkeypatch.setattr(discretize, "_PAIR_BLOCK_READS", per_block * per_pair)
    tables = build_tables(spec, grid, config.dt)
    rng = np.random.default_rng(9)
    stack = rng.uniform(0.0, 2.0, (6, spec.m1, spec.m2, grid.n_points))
    P, M = Variant.PLUS, Variant.MINUS
    for variant in (P, M, [P, P, M, M, M, P], [P, M, M, P, M, P], [M, P, P, P, P, M]):
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


@pytest.mark.parametrize("budget, start, stop, blocks", [
    (1, 0, 3, [(1, 1)] * 12),       # one member-pair per block, as one member reads
    (4, 0, 1, [(1, 4)]),            # one member: every pair in one block
    (4, 0, 2, [(2, 2)] * 2),        # two members share a block of two pairs
    (4, 0, 3, [(3, 1)] * 4),        # three members, pair by pair
    (4, 0, 5, [(4, 1)] * 4 + [(1, 1)] * 4),
    (4, 2, 7, [(4, 1)] * 4 + [(1, 1)] * 4),  # a run that starts past member 0
    (4, 3, 4, [(1, 4)]),
])
def test_pair_blocks_count_members(budget, start, stop, blocks, monkeypatch):
    """A block spans at most the budget of member-pairs: ``(members in the
    block, pairs in the block)`` per block; a lone member is an index.
    Members are numbered in the whole stack, from ``start``."""
    spec, grid, _ = load_game("game_2d")
    per_pair = len(spec.u1_levels) * len(spec.u2_levels) * grid.n_points
    monkeypatch.setattr(discretize, "_PAIR_BLOCK_READS", budget * per_pair)
    tables = build_tables(spec, grid)
    got = tables.pair_blocks(start, stop)
    shape = [(1 if isinstance(m, int) else m.stop - m.start, idx.shape[0])
             for m, _, idx, _ in got]
    assert shape == blocks
    covered = sorted((m, p) for rows, pairs, _, _ in got
                     for m in ([rows] if isinstance(rows, int) else range(rows.start, rows.stop))
                     for p in range(4)[pairs])
    assert covered == [(m, p) for m in range(start, stop) for p in range(4)]
    assert tables.pair_blocks(start, stop) is got
