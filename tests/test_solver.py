import math

import numpy as np
import pytest

from hybrid_isaacs.discretize import make_grid
from hybrid_isaacs.operators import Variant, bellman_update, isaacs_gap
from hybrid_isaacs.problem import sample_controls
from hybrid_isaacs.solver import SolverConfig, solve

from conftest import toy_spec


# ---------------------------------------------------------------------------
# independent oracles (deliberately dumb: plain dict/loop value iteration)

def mode_game_oracle(k_by_mode, c2, lam, dt, sweeps=10_000, tol=1e-13):
    """Value iteration for a state-independent player-2 switching game."""
    gamma = math.exp(-lam * dt)
    w = (1.0 - gamma) / lam
    modes = list(range(len(k_by_mode)))
    v = {j: 0.0 for j in modes}
    for _ in range(sweeps):
        new = {}
        for j in modes:
            stay = w * k_by_mode[j] + gamma * v[j]
            jump = min(v[o] + c2[j][o] for o in modes if o != j)
            new[j] = min(stay, jump)
        if max(abs(new[j] - v[j]) for j in modes) <= tol:
            v = new
            break
        v = new
    return v


def impulse_game_oracle(grid_x, k_vals, impulses, lo, hi, sweeps=10_000):
    """Node-exact iteration of V = min(k, best impulse) for static dynamics.

    Impulse targets are clamped to the box and must land on nodes.
    """
    n = len(grid_x)
    spacing = grid_x[1] - grid_x[0]

    def node_of(x):
        x = min(max(x, lo), hi)
        idx = round((x - lo) / spacing)
        assert abs(lo + idx * spacing - x) < 1e-9, "impulse menu not node-aligned"
        return idx

    targets = [[node_of(grid_x[i] + xi) for i in range(n)] for (xi, _) in impulses]
    v = [0.0] * n
    for _ in range(sweeps):
        new = [
            min(k_vals[i], min((cost + v[targets[j][i]]
                                for j, (_, cost) in enumerate(impulses)), default=math.inf))
            for i in range(n)
        ]
        if max(abs(a - b) for a, b in zip(new, v)) == 0.0:
            v = new
            break
        v = new
    return v


def test_mode_game_oracle_matches_closed_form():
    v = mode_game_oracle([2.0, 0.5], [[0.0, 1.0], [1.0, 0.0]], lam=1.0, dt=0.5)
    assert v[0] == pytest.approx(min(2.0, 0.5 + 1.0), abs=1e-12)
    assert v[1] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form solves

def test_constant_cost_solves_to_ratio(constant_cost):
    spec, grid_cfg, solver_cfg = constant_cost
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(dt=solver_cfg["dt"],
                                            tolerance=solver_cfg["tolerance"]))
    assert result.converged
    assert result.iterations < 2000
    assert np.abs(result.values - 2.0).max() <= 1e-9
    assert result.monotone is True
    assert np.isfinite(result.values).all()


def test_mode_selection_matches_oracle(mode_selection):
    spec, grid_cfg, solver_cfg = mode_selection
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(dt=solver_cfg["dt"],
                                            tolerance=solver_cfg["tolerance"]))
    oracle = mode_game_oracle([2.0, 0.5], [[0.0, 1.0], [1.0, 0.0]], lam=1.0,
                              dt=solver_cfg["dt"])
    assert result.converged
    assert np.abs(result.values[0, 0] - 1.5).max() <= 1e-8
    assert np.abs(result.values[0, 1] - 0.5).max() <= 1e-8
    assert np.abs(result.values[0, 0] - oracle[0]).max() <= 1e-8
    assert np.abs(result.values[0, 1] - oracle[1]).max() <= 1e-8


def test_mode_selection_upper_init_agrees(mode_selection):
    spec, grid_cfg, solver_cfg = mode_selection
    grid = make_grid(spec, grid_cfg["points"])
    tol = solver_cfg["tolerance"]
    low = solve(spec, grid, SolverConfig(dt=0.5, tolerance=tol, init="zero"))
    high = solve(spec, grid, SolverConfig(dt=0.5, tolerance=tol, init="upper"))
    assert low.converged and high.converged
    assert high.monotone is None
    assert np.abs(low.values - high.values).max() <= 10 * tol


def test_impulse_toy_matches_node_oracle(impulse_toy):
    spec, grid_cfg, solver_cfg = impulse_toy
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(dt=solver_cfg["dt"],
                                            tolerance=solver_cfg["tolerance"]))
    assert result.converged
    xs = grid.points[:, 0]
    k_vals = np.minimum(xs ** 2, 4.0)
    oracle = impulse_game_oracle(xs.tolist(), k_vals.tolist(),
                                 [(-2.0, 1.0), (-4.0, 1.5)], -4.0, 4.0)
    assert np.abs(result.values[0, 0] - np.asarray(oracle)).max() <= 1e-8

    # frozen hand values at integer nodes
    def at(x):
        return result.values[0, 0, int(round((x + 4.0) / 0.05))]

    for x, expected in [(-4, 4.0), (-3, 4.0), (-1, 1.0), (0, 0.0), (1, 1.0),
                        (1.25, 1.5625), (1.5, 1.25), (2, 1.0), (3, 2.0),
                        (3.5, 1.75), (4, 1.5)]:
        assert at(x) == pytest.approx(expected, abs=1e-8), f"V({x})"


def test_balanced_loop_two_sided_agreement(balanced_loop):
    spec, grid_cfg, solver_cfg = balanced_loop
    grid = make_grid(spec, grid_cfg["points"])
    tol = solver_cfg["tolerance"]
    low = solve(spec, grid, SolverConfig(tolerance=tol, init="zero"))
    high = solve(spec, grid, SolverConfig(tolerance=tol, init="upper"))
    assert low.converged and high.converged
    assert low.monotone is True
    assert np.abs(low.values - high.values).max() <= 10 * tol
    # value sandwich: 0 <= V <= k_sup / lambda
    assert low.values.min() >= -tol
    assert low.values.max() <= low.tables.upper_bound + tol


def test_plus_and_minus_solves_identical_when_gap_zero(drift_1d):
    spec, grid_cfg, solver_cfg = drift_1d
    grid = make_grid(spec, grid_cfg["points"])
    assert isaacs_gap(*sample_controls(spec, grid.points), costate_samples=8, seed=0) == 0.0
    tol = solver_cfg["tolerance"]
    plus = solve(spec, grid, SolverConfig(tolerance=tol, variant=Variant.PLUS))
    minus = solve(spec, grid, SolverConfig(tolerance=tol, variant=Variant.MINUS))
    assert plus.converged and minus.converged
    assert np.abs(plus.values - minus.values).max() <= 1e-12


def test_grid_refinement_keeps_state_independent_value(mode_selection):
    spec, _, solver_cfg = mode_selection
    coarse = solve(spec, make_grid(spec, 51), SolverConfig(dt=0.5, tolerance=1e-10))
    fine = solve(spec, make_grid(spec, 101), SolverConfig(dt=0.25, tolerance=1e-10))
    for result in (coarse, fine):
        assert np.abs(result.values[0, 0] - 1.5).max() <= 1e-8
        assert np.abs(result.values[0, 1] - 0.5).max() <= 1e-8


def test_refinement_shrinks_error_on_smooth_problem(drift_1d):
    spec, _, _ = drift_1d
    fine = solve(spec, make_grid(spec, 641), SolverConfig(tolerance=1e-9))
    errs = []
    for counts in (41, 81, 161):
        res = solve(spec, make_grid(spec, counts), SolverConfig(tolerance=1e-9))
        # compare on the shared coarse nodes (every grid nests in the 641 one)
        stride = (641 - 1) // (counts - 1)
        errs.append(np.abs(res.values[0, 0] - fine.values[0, 0, ::stride]).max())
    assert errs[2] < errs[1] < errs[0]


# ---------------------------------------------------------------------------
# driver behavior

def test_nonconvergence_returns_partial_field():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 5)
    result = solve(spec, grid, SolverConfig(dt=0.1, tolerance=1e-12, max_iterations=3))
    assert not result.converged
    assert result.iterations == 3
    assert result.change_history.shape == (3,)
    assert np.isfinite(result.values).all()


def test_monotone_iterates_from_zero(impulse_toy):
    spec, _, _ = impulse_toy
    grid = make_grid(spec, 41)
    result = solve(spec, grid, SolverConfig(dt=0.5, tolerance=1e-8))
    assert result.monotone is True


def test_custom_init_field():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 5)
    start = np.full((1, 1, 5), 2.0)
    result = solve(spec, grid, SolverConfig(dt=0.1, init=start))
    assert result.converged
    assert result.iterations == 1   # started at the fixed point
    np.testing.assert_array_equal(result.values, 2.0)


def test_bad_custom_init_rejected():
    spec = toy_spec()
    grid = make_grid(spec, 5)
    with pytest.raises(ValueError, match="shape"):
        solve(spec, grid, SolverConfig(init=np.zeros((2, 2, 5))))


@pytest.mark.parametrize("tolerance", [-1e-9, math.nan, math.inf])
def test_unworkable_tolerance_rejected(tolerance):
    """An infinite tolerance stopped after one sweep with a field one sweep
    from zero, reported converged; a nan one swept to the cap."""
    spec = toy_spec()
    grid = make_grid(spec, 5)
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        solve(spec, grid, SolverConfig(tolerance=tolerance))


def test_large_time_step_warns():
    spec = toy_spec(f="2", box=((-1.0, 1.0),))
    grid = make_grid(spec, 5)
    with pytest.warns(UserWarning, match="time step"):
        solve(spec, grid, SolverConfig(dt=5.0, tolerance=1e-6))


def test_two_dimensional_constant_cost():
    spec = toy_spec(f="0", k="2", lam=0.5, box=((-1.0, 1.0), (0.0, 2.0)),
                    A=[[0.1, 0.0], [0.0, 0.2]])
    grid = make_grid(spec, (9, 11))
    result = solve(spec, grid, SolverConfig(dt=0.5, tolerance=1e-10))
    assert result.converged
    np.testing.assert_allclose(result.values, 4.0, atol=1e-9)


def test_two_dimensional_rotation_game():
    # rotation through the generator plus a steered radial drift
    spec = toy_spec(f=["0.3*u1 - 0.4*x0", "0.3*u2 - 0.4*x1"],
                    k="x0^2 + x1^2 + 0.1*(1 + u1) + 0.1*(1 - u2)",
                    u1=(-1.0, 1.0), u2=(-1.0, 1.0),
                    A=[[0.0, -1.0], [1.0, 0.0]],
                    box=((-1.5, 1.5), (-1.5, 1.5)),
                    d2=("a", "b"), c2=[[0.0, 0.7], [0.7, 0.0]])
    grid = make_grid(spec, (25, 25))
    low = solve(spec, grid, SolverConfig(tolerance=1e-8))
    high = solve(spec, grid, SolverConfig(tolerance=1e-8, init="upper"))
    assert low.converged and high.converged
    assert low.monotone is True
    assert np.abs(low.values - high.values).max() <= 1e-7
    assert low.values.min() >= -1e-8
    assert low.values.max() <= low.tables.upper_bound + 1e-8


def test_residual_small_at_solved_fixed_point(constant_cost):
    spec, grid_cfg, solver_cfg = constant_cost
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(dt=solver_cfg["dt"], tolerance=1e-10))
    updated = bellman_update(result.values, spec, grid, tables=result.tables)
    assert np.abs(updated - result.values).max() <= 1e-10
