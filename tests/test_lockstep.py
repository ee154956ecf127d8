"""Stacked sweeps: every member of a stack has the bits of its own sweep,
and a stack's blocks of mode pairs span at most the block budget."""

import numpy as np
import pytest

from hybrid_isaacs import discretize
from hybrid_isaacs.discretize import build_tables, make_grid
from hybrid_isaacs.operators import Variant, bellman_update
from hybrid_isaacs.solver import SolverConfig

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
