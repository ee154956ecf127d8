"""Nested policy iteration, which ``solve`` runs where it can certify the
field: its arg-opt sweep and policy rows reproduce the sweep, its fields
agree with Picard's within twice the tolerance and carry a certificate,
its cap, fallback and memory stay in bounds, and it runs only where the
field can be certified."""

import json
import time
import tracemalloc
import math
from dataclasses import replace

import numpy as np
import pytest

from hybrid_isaacs import discretize, solver
from hybrid_isaacs.cli import main
from hybrid_isaacs.discretize import build_tables, make_grid, step_constants
from hybrid_isaacs.operators import (CONTINUE, IMPULSE, SWITCH_LOWER, SWITCH_UPPER, Variant,
                                     bellman_update, policy_sweep)
from hybrid_isaacs.solver import SolverConfig, picard, solve

from conftest import BUNDLED, game_2d, game_3d, gen2d, load_bundled, special_fields, toy_spec

CERTIFIED = ["constant_cost", "drift_1d", "impulse_toy", "mode_selection", "game_2d",
             "gen2d_1", "gen2d_2", "gen2d_3", "gen2d_4"]


def load_game(name, tmp_path):
    """(spec, grid, config): a bundled spec at its own grid, the test
    suite's 2-D game at 9 points per side and 3-D game at 7, or the
    benchmark's 2-D game of seed ``gen2d_<seed>`` at 41."""
    if name == "game_2d":
        spec = game_2d()
        return spec, make_grid(spec, 9), SolverConfig(tolerance=1e-8)
    if name == "game_3d":
        spec = game_3d()
        return spec, make_grid(spec, 7), SolverConfig(tolerance=1e-6)
    if name.startswith("gen2d_"):
        spec = gen2d(int(name[6:]), 41, tmp_path)
        return spec, make_grid(spec, 41), SolverConfig(tolerance=1e-9)
    spec, grid_cfg, solver_cfg = load_bundled(name)
    return (spec, make_grid(spec, grid_cfg["points"]),
            SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"]))


def rows_times(system, values):
    """``r + M V`` of the assembled policy rows, read corner by corner."""
    padded = system.padded()
    padded[:values.size] = values.reshape(-1)
    out = system.r.copy()
    for offset, wts in zip(system.offsets, system.wts):
        out += wts * padded[offset:][system.base]
    return out.reshape(values.shape)


@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
@pytest.mark.parametrize("name", sorted(BUNDLED) + ["game_2d", "game_3d", "gen2d_1"])
def test_arg_opt_sweep_has_the_bits_of_the_sweep_and_rows_that_reproduce_it(
        name, variant, tmp_path):
    spec, grid, config = load_game(name, tmp_path)
    tables = build_tables(spec, grid, config.dt)
    rng = np.random.default_rng(3)
    system = solver._PolicySystem(tables, variant)
    branches = set()
    for values in (rng.uniform(0.0, 3.0, (spec.m1, spec.m2, grid.n_points)),
                   picard(spec, grid, replace(config, variant=variant)).values):
        updated, branch, arg = policy_sweep(values, tables, variant)
        assert updated.tobytes() == bellman_update(values, spec, grid, variant=variant,
                                                   tables=tables).tobytes()
        assert branch.dtype == np.int8 and set(np.unique(branch)) <= {
            CONTINUE, IMPULSE, SWITCH_LOWER, SWITCH_UPPER}
        branches |= set(np.unique(branch).tolist())
        system.assemble(branch, arg)
        np.testing.assert_allclose(rows_times(system, values), updated, rtol=1e-14, atol=1e-14)
    if spec.impulses:
        assert IMPULSE in branches
    if spec.m2 > 1:
        assert SWITCH_LOWER in branches


@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
@pytest.mark.parametrize("name", sorted(BUNDLED) + ["game_2d", "game_3d"])
def test_every_assembled_row_reads_inside_the_padded_vector(name, variant, tmp_path):
    """The matvec gathers with ``mode="clip"``, which checks no bound:
    every row's base of a greedy policy, of random fields and of fields
    holding nan, inf, -inf and -0.0, lies in ``[0, nodes)``, and the
    padding covers the largest corner offset past it."""
    spec, grid, config = load_game(name, tmp_path)
    tables = build_tables(spec, grid, config.dt)
    system = solver._PolicySystem(tables, variant)
    rng = np.random.default_rng(7)
    fields = [rng.uniform(-1.0, 3.0, (spec.m1, spec.m2, grid.n_points)) for _ in range(3)]
    with np.errstate(invalid="ignore"):
        for values in fields + special_fields(spec, grid, 3):
            system.base.fill(-1)
            system.assemble(*policy_sweep(values, tables, variant)[1:])
            assert 0 <= system.base.min() and system.base.max() < system.nodes
    assert system.padded().size == system.nodes + max(system.offsets)


@pytest.mark.parametrize("name", ["drift_1d", "impulse_toy", "game_2d", "gen2d_1",
                                  "balanced_loop"])
def test_a_field_holding_nan_ends_unconverged_at_once(name, tmp_path):
    """An explicit start with one nan: policy iteration ends at its first
    residual, which is nan, and the Picard loop after its first sweep."""
    spec, grid, config = load_game(name, tmp_path)
    start = np.zeros((spec.m1, spec.m2, grid.n_points))
    start.reshape(-1)[start.size // 2] = np.nan
    with np.errstate(invalid="ignore"):
        result = solve(spec, grid, replace(config, init=start))
        looped = picard(spec, grid, replace(config, init=start))
    assert not result.converged and result.iterations == 1
    assert math.isnan(result.last_change)
    assert result.outer_steps + result.fallbacks == 0
    assert result.method == ("picard" if name == "balanced_loop" else "policy")
    assert not looped.converged and looped.iterations == 1


def test_a_value_that_is_infinite_ends_the_solve_without_a_warning():
    """exp(800*x0) is inf near the right face for every control, and so is
    the field: both methods stop unconverged at their first change or
    residual that is not finite, and the sweeps' 0 * inf and inf - inf
    raise no RuntimeWarning."""
    spec = toy_spec(f="0.5*u1", k="exp(800*x0)", u1=(-1.0, 1.0))
    grid, config = make_grid(spec, 11), SolverConfig(tolerance=1e-6)
    for result in (solve(spec, grid, config), picard(spec, grid, config)):
        assert not result.converged and not math.isfinite(result.last_change)


def test_a_singular_policy_system_breaks_down_into_a_fallback(monkeypatch):
    """Where continuing costs about 1e300, the greedy policy of the smoothed
    field has player 2 switch back and forth at every node, so ``I - M``
    maps BiCGSTAB's constant first direction to 0 and its ``alpha`` would
    divide by zero: each step breaks down at once and falls back, and the
    solve ends at its cap, unconverged: 4 residuals here, and at the
    default cap within a second."""
    spec = toy_spec(f="u1*x0", k="1e300*x0^2", u1=(-1.0, 1.0), d2=("a", "b"),
                    c2=[[0.0, 0.5], [0.5, 0.0]], box=((0.5, 1.5),))
    grid, config = make_grid(spec, 11), SolverConfig(tolerance=1e-6)
    start = time.perf_counter()
    result = solve(spec, grid, config)
    assert time.perf_counter() - start < 1.0
    assert result.method == "policy" and not result.converged
    assert result.fallbacks == result.outer_steps == solver._POLICY_RESIDUALS - 1
    monkeypatch.setattr(solver, "_POLICY_RESIDUALS", 4)
    result = solve(spec, grid, config)
    assert result.method == "policy" and not result.converged
    assert result.krylov_iterations == 0 and result.fallbacks == result.outer_steps == 3


@pytest.mark.parametrize("per_block", [1, 3])
@pytest.mark.parametrize("name", sorted(BUNDLED) + ["game_2d", "game_3d"])
def test_arg_opt_sweep_has_the_same_bits_in_smaller_blocks(name, per_block, tmp_path,
                                                          monkeypatch):
    """``T[V]``, ``branch`` and ``arg`` at budgets of 1 and 3 member-pairs
    per continue block are the default budget's, in both variants."""
    spec, grid, config = load_game(name, tmp_path)
    values = np.random.default_rng(5).uniform(0.0, 3.0, (spec.m1, spec.m2, grid.n_points))
    tables = build_tables(spec, grid, config.dt)
    whole = {variant: policy_sweep(values, tables, variant) for variant in Variant}
    per_pair = len(spec.u1_levels) * len(spec.u2_levels) * grid.n_points
    monkeypatch.setattr(discretize, "_PAIR_BLOCK_READS", per_block * per_pair)
    tables = build_tables(spec, grid, config.dt)
    assert len(tables.pair_blocks()) == -(-spec.m1 * spec.m2 // per_block)
    for variant in Variant:
        for got, want in zip(policy_sweep(values, tables, variant), whole[variant]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m1, m2", [(3, 4), (4, 3)])
def test_switch_targets_are_the_other_modes_picked(m1, m2):
    """On players of 3 and 4 modes, each switch node's target is
    ``others[i, j]`` of ``ProblemSpec.switches``, j the first best of the
    candidates over the other modes ascending."""
    rng = np.random.default_rng(m1)
    c1, c2 = (rng.uniform(0.05, 0.2, (m, m)) * (1 - np.eye(m)) for m in (m1, m2))
    spec = toy_spec(f="0.5*u1", k="0.2 + x0^2", u1=(-1.0, 1.0), d1=tuple("abcd"[:m1]),
                    d2=tuple("wxyz"[:m2]), c1=c1, c2=c2)
    grid = make_grid(spec, 9)
    tables = build_tables(spec, grid, 0.1)
    values = rng.uniform(0.0, 3.0, (m1, m2, grid.n_points))
    (_, others1, _), (_, others2, _) = spec.switches
    for variant in Variant:
        _, branch, arg = policy_sweep(values, tables, variant)
        for code, others, costs, pick in ((SWITCH_LOWER, others2, c2, np.argmin),
                                          (SWITCH_UPPER, others1, -c1, np.argmax)):
            nodes = np.argwhere(branch == code)
            assert len(nodes) > 0
            for i1, i2, p in nodes:
                mode = i2 if code == SWITCH_LOWER else i1
                targets = others[mode]
                cands = (values[i1, targets, p] if code == SWITCH_LOWER
                         else values[targets, i2, p]) + costs[mode, targets]
                assert arg[i1, i2, p] == targets[pick(cands)]


def test_ties_go_to_the_continue_branch():
    """On the zero field a switch and a jump that cost the continue step's
    running cost tie with it, and the node stays on the continue branch; a
    switch one ulp cheaper binds."""
    dt = 0.5
    weight = step_constants(toy_spec(), dt)[1]
    for c2, expected in [(weight, CONTINUE), (np.nextafter(weight, 0.0), SWITCH_LOWER)]:
        spec = toy_spec(d2=("a", "b"), c2=[[0.0, c2], [c2, 0.0]],
                        impulses=(([0.5], weight),))
        grid = make_grid(spec, 5)
        tables = build_tables(spec, grid, dt)
        values = np.zeros((spec.m1, spec.m2, grid.n_points))
        updated, branch, arg = policy_sweep(values, tables)
        assert (branch == expected).all()
        np.testing.assert_array_equal(updated, min(weight, c2))
        if expected == SWITCH_LOWER:
            np.testing.assert_array_equal(arg, [[[1] * 5, [0] * 5]])


@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
@pytest.mark.parametrize("name", CERTIFIED)
def test_policy_field_is_within_twice_the_tolerance_of_picard_and_certified(
        name, variant, tmp_path):
    spec, grid, config = load_game(name, tmp_path)
    config = replace(config, variant=variant)
    fixed = picard(spec, grid, config)
    policy = solve(spec, grid, config)
    tol = config.tolerance
    assert policy.method == "policy" and fixed.method == "picard"
    assert policy.converged and policy.uncertified is None and policy.monotone is None
    assert policy.certificate <= tol
    assert np.abs(policy.values - fixed.values).max() <= 2 * tol
    assert policy.iterations == policy.change_history.size >= 1
    assert policy.certificate == policy.last_change / (1.0 - policy.tables.gamma)
    assert policy.tables.grid == grid and policy.dt == fixed.dt
    # the certificate is the bound an extra sweep gives
    update = bellman_update(policy.values, spec, grid, variant=variant, tables=policy.tables)
    assert float(np.abs(update - policy.values).max()) / (1 - policy.tables.gamma) == (
        policy.certificate)


@pytest.mark.parametrize("name", ["game_3d", "balanced_loop"])
def test_a_zero_cost_loop_starts_picard_from_a_bracketing_field(name, tmp_path):
    """Both games have a zero-cost switching loop, so the fixed point need
    not be unique: ``solve`` runs the Picard loop from the policy field of
    a bracketing copy, lands within twice the tolerance of the loop from
    zero in fewer sweeps, reports the copy's policy counts, and names the
    loop instead of a certificate."""
    spec, grid, config = load_game(name, tmp_path)
    default = solve(spec, grid, config)
    fixed = picard(spec, grid, config)
    assert np.abs(default.values - fixed.values).max() <= 2 * config.tolerance
    assert default.converged and default.iterations < fixed.iterations
    assert default.iterations == default.change_history.size
    assert default.method == "bracketed" and default.certificate is None
    assert default.monotone is None and fixed.monotone is True
    assert default.outer_steps > 0 and default.krylov_iterations > 0
    assert default.tables.spec is spec
    assert default.uncertified.startswith("zero-cost switching loop (")
    if name == "game_3d":
        assert default.uncertified == (
            "zero-cost switching loop (a,c) -> (b,c) -> (a,c) -> (a,d) -> (a,c)")


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("name, points", [("balanced_loop", 161), ("game_3d", 9),
                                          ("game_3d", 13)])
def test_a_bracketed_solve_lands_on_the_picard_loops_field(name, points, variant, tmp_path):
    """From zero and from the upper bound, a bracketed solve's field lies
    within twice the tolerance of the Picard loop's from the same start:
    where game_3d's fixed points lie 0.1 apart, each side keeps its own."""
    spec = game_3d() if name == "game_3d" else load_game(name, tmp_path)[0]
    grid = make_grid(spec, points)
    for init in ("zero", "upper"):
        config = SolverConfig(tolerance=1e-9, init=init, variant=variant)
        result = solve(spec, grid, config)
        fixed = picard(spec, grid, config)
        assert result.method == "bracketed" and result.converged
        assert np.abs(result.values - fixed.values).max() <= 2 * config.tolerance


@pytest.mark.parametrize("init", ["zero", "upper"])
@pytest.mark.parametrize("patch", ["_krylov_cap", "_POLICY_RESIDUALS"])
def test_a_failed_bracket_keeps_the_picard_loop_bit_for_bit(patch, init, monkeypatch,
                                                            tmp_path):
    """A bracketing copy whose policy solve does not converge, its Krylov
    solves capped at one iteration or the solve at one residual per grid,
    leaves the start as it was: the Picard loop's field and history, bit
    for bit, with the attempt's counts."""
    spec, grid, config = load_game("balanced_loop", tmp_path)
    config = replace(config, init=init)
    monkeypatch.setattr(solver, patch, (lambda grid: 1) if patch == "_krylov_cap" else 1)
    result = solve(spec, grid, config)
    fixed = picard(spec, grid, config)
    assert result.method == "picard" and result.converged
    assert result.values.tobytes() == fixed.values.tobytes()
    assert result.change_history.tobytes() == fixed.change_history.tobytes()
    assert result.monotone is fixed.monotone
    if patch == "_krylov_cap":
        assert result.fallbacks > 0
    else:
        assert result.outer_steps == result.fallbacks == 0


def test_loops_not_enumerated_keep_the_picard_loop():
    """With 3x3 modes ``check_y1_y2`` does not enumerate the loops, of the
    spec or of a copy, so no copy is solved: the Picard loop runs from
    zero."""
    costs = [[0.0, 0.4, 0.5], [0.6, 0.0, 0.4], [0.5, 0.3, 0.0]]
    spec = toy_spec(k="0.5 + x0^2", d1=("a", "b", "c"), d2=("x", "y", "z"), c1=costs,
                    c2=costs)
    grid = make_grid(spec, 5)
    config = SolverConfig(tolerance=1e-9)
    result = solve(spec, grid, config)
    assert result.uncertified == "switching loops not enumerated (mode graph too large)"
    assert result.method == "picard" and result.outer_steps == result.krylov_iterations == 0
    assert result.values.tobytes() == picard(spec, grid, config).values.tobytes()


def test_a_failed_krylov_step_falls_back_and_still_certifies(monkeypatch, tmp_path):
    spec, grid, config = load_game("gen2d_1", tmp_path)
    free = solve(spec, grid, config)
    monkeypatch.setattr(solver, "_krylov_cap", lambda grid: 1)
    capped = solve(spec, grid, config)
    assert capped.method == "policy" and capped.converged
    assert capped.fallbacks > free.fallbacks and capped.fallbacks >= 1
    assert capped.certificate <= config.tolerance
    assert np.abs(capped.values - free.values).max() <= 2 * config.tolerance


def test_an_explicit_field_starts_on_the_fine_grid(tmp_path):
    spec, grid, config = load_game("drift_1d", tmp_path)
    start = picard(spec, grid, config).values
    result = solve(spec, grid, replace(config, init=start))
    assert result.method == "policy" and result.converged and result.certificate <= 1e-9
    assert result.iterations == 1 and result.outer_steps == 0  # no coarse grid ran
    with pytest.raises(ValueError, match="shape"):
        solve(spec, grid, replace(config, init=start[..., :-1]))


@pytest.mark.parametrize("name", CERTIFIED)
def test_a_certified_start_comes_back_bit_for_bit(name, monkeypatch, tmp_path):
    """An explicit start's first residual is its own, taken before any
    sweep: a field that already meets the tolerance comes back unmoved,
    with no outer step and one history entry.  Starts "zero" and "upper"
    keep their smoothing sweeps on every grid."""
    spec, grid, config = load_game(name, tmp_path)
    field = solve(spec, grid, config)
    sweeps = []

    def counting(*args, **kwargs):
        sweeps.append(args[2].counts)
        return bellman_update(*args, **kwargs)

    monkeypatch.setattr(solver, "bellman_update", counting)
    again = solve(spec, grid, replace(config, init=field.values))
    assert again.values.tobytes() == field.values.tobytes() and again.values is not field.values
    assert again.converged and again.outer_steps == again.fallbacks == 0
    assert again.change_history.tolist() == [field.last_change]
    assert sweeps == []
    levels = solver._grids(grid) if config.dt is None else [grid]
    for init in ("zero", "upper"):
        sweeps.clear()
        solve(spec, grid, replace(config, init=init))
        assert sweeps[:solver._SMOOTHING_SWEEPS] == [levels[0].counts] * solver._SMOOTHING_SWEEPS
        assert {counts for counts in sweeps} == {level.counts for level in levels}


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_the_cap_counts_residuals_on_each_grid_and_returns_the_least(cap, tmp_path,
                                                                    monkeypatch):
    """gen2d seed 2 nests 21^2 and 41^2, and its first policy step on each
    overshoots.  At a cap of ``cap`` residuals, a grid takes its start's
    residual and at most ``cap - 1`` steps; a capped grid returns the field
    of the least residual, whose residual ends the history and gives the
    certificate.  ``max_iterations`` caps no policy solve."""
    spec, grid, config = load_game("gen2d_2", tmp_path)
    monkeypatch.setattr(solver, "_POLICY_RESIDUALS", cap)
    result = solve(spec, grid, replace(config, max_iterations=1))
    assert result.method == "policy" and not result.converged
    steps = max(cap - 1, 0) * len(solver._grids(grid))
    assert result.outer_steps + result.fallbacks <= steps
    update = bellman_update(result.values, spec, grid, tables=result.tables)
    residual = float(np.abs(update - result.values).max())
    assert result.last_change == residual == result.change_history.min()
    assert result.certificate == residual / (1.0 - result.tables.gamma)
    assert result.iterations == result.change_history.size
    if cap <= 1:
        assert result.iterations == 1 and result.outer_steps == result.fallbacks == 0
    if cap == 2:  # the step overshot: its field's residual, then the start's again
        history = result.change_history
        assert history.size == 3 and history[1] > history[0] == history[2]
    assert math.isfinite(result.certificate)


def test_nested_grids_halve_each_side_down_to_the_coarsest():
    spec = game_2d()
    counts = [g.counts for g in solver._grids(make_grid(spec, 161))]
    assert counts == [(21, 21), (41, 41), (81, 81), (161, 161)]
    assert [g.counts for g in solver._grids(make_grid(spec, (101, 40)))] == [(101, 40)]
    assert [g.counts for g in solver._grids(make_grid(spec, 101))] == [
        (26, 26), (51, 51), (101, 101)]


@pytest.mark.parametrize("name, grids", [("drift_1d", [21, 41, 81, 161]),
                                         ("impulse_toy", [161]), ("constant_cost", [101])])
def test_nesting_only_where_the_step_follows_the_cell(name, grids, monkeypatch, tmp_path):
    """drift_1d takes the default half-cell step, so each coarser grid
    steps longer; impulse_toy and constant_cost give ``dt``."""
    spec, grid, config = load_game(name, tmp_path)
    built = []

    def counting(spec, grid, dt=None):
        built.append(grid.counts[0])
        return build_tables(spec, grid, dt)

    monkeypatch.setattr(solver, "build_tables", counting)
    assert solve(spec, grid, config).method == "policy"
    assert built == grids


def test_policy_peak_memory_stays_within_budget(tmp_path):
    """The traced peak of a policy solve exceeds Picard's by at most the
    3 MB that a gen2d solve at 81^2 may add, scaled to the grid's nodes."""
    spec, grid, config = load_game("gen2d_2", tmp_path)
    peaks = {}
    for method, run in (("picard", picard), ("policy", solve)):
        run(spec, make_grid(spec, 9), config)  # caches and imports
        tracemalloc.start()
        try:
            result = run(spec, grid, config)
            peaks[method] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.method == method
    nodes = spec.m1 * spec.m2 * grid.n_points
    assert peaks["policy"] - peaks["picard"] <= 3e6 * nodes / (4 * 81 ** 2), peaks


def test_two_policy_solves_write_the_same_bytes(tmp_path):
    gen2d(4, 41, tmp_path)
    path = tmp_path / "gen4_41.toml"
    outputs = []
    for out in ("first", "second"):
        assert main(["solve", str(path), "--out", str(tmp_path / out)]) == 0
        manifest = json.loads((tmp_path / out / "gen4_41.solve-manifest.json").read_text())
        manifest.pop("wall_seconds")
        outputs.append([(tmp_path / out / f"gen4_41.{kind}.csv").read_bytes()
                        for kind in ("value", "residuals")] + [manifest])
    assert outputs[0] == outputs[1]
    assert outputs[0][2]["inputs"]["method"] == "policy"
