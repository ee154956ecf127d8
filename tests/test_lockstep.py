"""Stacked sweeps and lock-step solves: every member of a stack has the bits
of its own sweep, and every member of ``solve_many`` the bits, sweep count
and history of its own Picard solve, a ``solve_many`` of that start
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


def picard_solve(spec, grid, config, init):
    """The Picard solve of ``config`` from ``init`` alone."""
    return solve_many(spec, grid, config, [init])[0]


def assert_same_solve(result, alone):
    assert result.values.tobytes() == alone.values.tobytes()
    assert result.values.shape == alone.values.shape
    assert result.iterations == alone.iterations
    assert result.change_history.tobytes() == alone.change_history.tobytes()
    assert (result.converged, result.monotone, result.variant) == (
        alone.converged, alone.monotone, alone.variant)
    assert result.stop_threshold == alone.stop_threshold and result.dt == alone.dt


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("name", GAMES)
def test_lock_step_members_match_their_own_solves(name, variant):
    """Members from zero, upper and an array start, in each variant by a
    call of its own; the members stop at different sweeps."""
    spec, grid, config = load_game(name)
    config = SolverConfig(dt=config.dt, tolerance=config.tolerance, variant=variant)
    field = np.random.default_rng(4).uniform(0.0, 1.0, (spec.m1, spec.m2, grid.n_points))
    inits = ["zero", "upper", field]
    results = solve_many(spec, grid, config, inits)
    for init, result in zip(inits, results):
        assert_same_solve(result, picard_solve(spec, grid, config, init))
        assert result.converged and result.variant is variant
    assert results[0].monotone and results[1].monotone is None
    assert len({r.iterations for r in results}) >= 2
    assert all(r.tables is results[0].tables for r in results)


def test_lock_step_members_stop_together_at_the_cap():
    spec, grid, config = load_game("drift_1d")
    capped = SolverConfig(dt=config.dt, tolerance=config.tolerance, max_iterations=7,
                          variant=Variant.MINUS)
    results = solve_many(spec, grid, capped, ["zero", "upper"])
    for init, result in zip(["zero", "upper"], results):
        assert_same_solve(result, picard_solve(spec, grid, capped, init))
        assert result.iterations == 7 and not result.converged


def test_lock_step_members_stop_at_zero_sweeps():
    spec, grid, config = load_game("constant_cost")
    capped = SolverConfig(dt=config.dt, tolerance=config.tolerance, max_iterations=0)
    results = solve_many(spec, grid, capped, ["zero", "upper"])
    for init, result in zip(["zero", "upper"], results):
        assert_same_solve(result, picard_solve(spec, grid, capped, init))
        assert result.iterations == 0 and not result.converged


def test_lock_step_refuses_bad_tolerances_and_takes_no_start():
    spec, grid, _ = load_game("constant_cost")
    with pytest.raises(ValueError, match="tolerance"):
        solve_many(spec, grid, SolverConfig(dt=0.5, tolerance=-1.0), ["zero"])
    assert solve_many(spec, grid, SolverConfig(dt=0.5), []) == []


def test_lock_step_reads_no_init_from_the_config():
    """The config's init plays no part: the members are the starts given."""
    spec, grid, config = load_game("drift_1d")
    upper = SolverConfig(dt=config.dt, tolerance=config.tolerance, init="upper")
    [result] = solve_many(spec, grid, upper, ["zero"])
    assert_same_solve(result, picard_solve(spec, grid, config, "zero"))


def test_lock_step_builds_the_tables_once_or_not_at_all(monkeypatch):
    spec, grid, config = load_game("drift_1d")
    tables = build_tables(spec, grid, config.dt)
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return build_tables(*args, **kwargs)

    monkeypatch.setattr("hybrid_isaacs.solver.build_tables", counting)
    solve_many(spec, grid, config, ["zero", "upper"])
    assert len(builds) == 1
    results = solve_many(spec, grid, config, ["zero", "upper"], tables=tables)
    assert len(builds) == 1 and results[0].tables is tables
    assert solve_many(spec, grid, config, []) == [] and len(builds) == 1


@pytest.mark.parametrize("per_block", [None, 1, 3])
@pytest.mark.parametrize("name", GAMES)
def test_stacked_sweeps_match_single_sweeps(name, per_block, monkeypatch):
    """One sweep of a stack in either variant gives each member the bits of
    its own sweep: at the default block budget, and at budgets of 1 and 3
    member-pairs, where a block ends inside what one block of the whole
    stack would read."""
    spec, grid, config = load_game(name)
    if per_block is not None:
        per_pair = len(spec.u1_levels) * len(spec.u2_levels) * grid.n_points
        monkeypatch.setattr(discretize, "_PAIR_BLOCK_READS", per_block * per_pair)
    tables = build_tables(spec, grid, config.dt)
    rng = np.random.default_rng(9)
    stack = rng.uniform(0.0, 2.0, (6, spec.m1, spec.m2, grid.n_points))
    for variant in Variant:
        swept = bellman_update(stack, spec, grid, variant=variant, tables=tables)
        for values, out in zip(stack, swept):
            alone = bellman_update(values, spec, grid, variant=variant, tables=tables)
            assert out.tobytes() == alone.tobytes()
    swept = bellman_update(stack.reshape((2, 3) + stack.shape[1:]), spec, grid, tables=tables)
    assert swept.reshape(stack.shape).tobytes() == bellman_update(stack, spec, grid,
                                                                  tables=tables).tobytes()


@pytest.mark.parametrize("budget, members, blocks", [
    (1, 3, [(1, 1)] * 12),       # one member-pair per block, as one member reads
    (4, 1, [(1, 4)]),            # one member: every pair in one block
    (4, 2, [(2, 2)] * 2),        # two members share a block of two pairs
    (4, 3, [(3, 1)] * 4),        # three members, pair by pair
    (4, 5, [(4, 1)] * 4 + [(1, 1)] * 4),
    (4, 0, []),                  # an empty stack has no block
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
