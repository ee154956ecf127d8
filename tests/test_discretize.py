import math
import re

import numpy as np
import pytest
import scipy.linalg

from hybrid_isaacs.discretize import (build_tables, interp_weights, interpolate, make_grid,
                                      semigroup_step)
from hybrid_isaacs.hybridsim import rollout_value_gap
from hybrid_isaacs.problem import eval_dynamics, eval_running_cost, sample_controls

from conftest import game_2d, toy_spec


# ---------------------------------------------------------------------------
# grids

def test_grid_coordinates_are_reproducible():
    spec = toy_spec(box=((-1.0, 1.0),))
    grid = make_grid(spec, 5)
    assert grid.n_points == 5
    np.testing.assert_array_equal(grid.points[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid.points[3, 0] == grid.box[0, 0] + 3 * grid.spacing[0]


def test_grid_is_row_major():
    spec = toy_spec(box=((-1.0, 1.0), (0.0, 1.0)))
    grid = make_grid(spec, (3, 4))
    assert grid.n_points == 12
    np.testing.assert_array_equal(grid.strides, [4, 1])
    assert int(np.dot((1, 2), grid.strides)) == 6
    np.testing.assert_allclose(grid.points[6], [0.0, 2.0 / 3.0])
    np.testing.assert_array_equal(grid.points.reshape(3, 4, 2)[:, 0, 0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(grid.points.reshape(3, 4, 2)[0, :, 1],
                               [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


def test_grid_points_match_the_meshgrid_reference():
    spec = toy_spec(box=((-1.0, 1.0), (0.1, 0.7), (-2.0, 0.3)))
    grid = make_grid(spec, (3, 7, 11))
    box = grid.box
    spacing = (box[:, 1] - box[:, 0]) / (np.asarray(grid.counts) - 1)
    assert grid.spacing.tobytes() == spacing.tobytes()
    axes = [box[d, 0] + spacing[d] * np.arange(c) for d, c in enumerate(grid.counts)]
    for d, axis in enumerate(grid.axes):
        assert axis.reshape(-1).tobytes() == axes[d].tobytes()
    ref = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert grid.points.tobytes() == ref.tobytes() and grid.points.shape == ref.shape
    assert grid.points.flags.c_contiguous and not grid.points.flags.writeable


def test_grid_rejects_bad_counts():
    spec = toy_spec()
    with pytest.raises(ValueError):
        make_grid(spec, 1)
    with pytest.raises(ValueError):
        make_grid(spec, (3, 3))


# ---------------------------------------------------------------------------
# interpolation

def test_linear_interpolation_1d():
    spec = toy_spec(box=((0.0, 1.0),))
    grid = make_grid(spec, 2)
    values = np.array([0.0, 10.0])
    assert interpolate(values, grid, [0.25]) == pytest.approx(2.5)


def test_clamped_below_box():
    spec = toy_spec(box=((0.0, 1.0),))
    grid = make_grid(spec, 2)
    values = np.array([3.0, 10.0])
    assert interpolate(values, grid, [-1.0]) == 3.0
    assert interpolate(values, grid, [42.0]) == 10.0


@pytest.mark.parametrize("counts", [(20, 20), (21, 20), (21, 21)])
def test_interpolate_refuses_a_nan_state_on_every_grid(counts):
    """A nan coordinate is a ValueError naming the state, whatever the
    grid's point counts; an infinite one clamps to the face."""
    spec = toy_spec(box=((-1.0, 1.0), (-1.0, 1.0)))
    grid = make_grid(spec, counts)
    values = np.arange(grid.n_points, dtype=float)
    for x in ([np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(ValueError, match=re.escape(f"state {x}")):
            interpolate(values, grid, x)
    assert interpolate(values, grid, [np.inf, 0.0]) == interpolate(values, grid, [1.0, 0.0])
    assert interpolate(values, grid, [-np.inf, -np.inf]) == values[0]


def test_rollout_value_gap_refuses_a_nan_start(drift_1d):
    spec, _, _ = drift_1d
    grid = make_grid(spec, 21)
    values = np.zeros((1, 1, grid.n_points))
    with pytest.raises(ValueError, match=re.escape("state [nan]")):
        rollout_value_gap(spec, grid, values, [([np.nan], 0, 0)], horizon=0.0)


def test_nodal_exactness():
    spec = toy_spec(box=((-1.0, 1.0), (0.0, 2.0)))
    grid = make_grid(spec, (7, 9))
    rng = np.random.default_rng(3)
    values = rng.standard_normal(grid.n_points)
    for flat in range(grid.n_points):
        assert interpolate(values, grid, grid.points[flat]) == values[flat]


def test_bilinear_exact_for_affine():
    spec = toy_spec(box=((-1.0, 1.0), (0.0, 2.0)))
    grid = make_grid(spec, (5, 5))
    values = 2.0 + 3.0 * grid.points[:, 0] - 0.5 * grid.points[:, 1]
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform([-1, 0], [1, 2])
        assert interpolate(values, grid, x) == pytest.approx(2 + 3 * x[0] - 0.5 * x[1])


def test_interp_weights_partition_of_unity():
    spec = toy_spec(box=((-1.0, 1.0), (0.0, 2.0)))
    grid = make_grid(spec, (6, 4))
    rng = np.random.default_rng(1)
    pts = rng.uniform([-2, -1], [2, 3], size=(50, 2))
    base, wts = interp_weights(grid, pts)
    np.testing.assert_allclose(wts.sum(axis=1), 1.0, atol=1e-14)
    assert (wts >= 0).all()
    idx = base[:, None] + grid.corner_offsets
    assert idx.min() >= 0 and idx.max() < grid.n_points


# ---------------------------------------------------------------------------
# one-step linear factor

def test_semigroup_zero_matrix_is_identity():
    np.testing.assert_array_equal(semigroup_step(np.zeros((3, 3)), 0.7), np.eye(3))


def test_semigroup_scalar():
    out = semigroup_step(np.array([[0.5]]), 0.1)
    assert out[0, 0] == pytest.approx(math.exp(-0.05), rel=1e-14)


def test_semigroup_diagonal():
    out = semigroup_step(np.diag([1.0, 2.0]), 1.0)
    np.testing.assert_allclose(out, np.diag([math.exp(-1), math.exp(-2)]), rtol=1e-13)


def test_semigroup_matches_scipy_up_to_norm_ten():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            A = rng.standard_normal((n, n))
            dt = rng.uniform(0.01, 10.0 / max(1e-9, np.abs(A).sum(axis=0).max()))
            ours = semigroup_step(A, dt)
            ref = scipy.linalg.expm(-dt * A)
            err = np.abs(ours - ref).max() / max(1.0, np.abs(ref).max())
            assert err <= 1e-12


def test_semigroup_rotation_is_orthogonal():
    # -A generates a clockwise rotation here, so the quarter turn lands on
    # [[0, 1], [-1, 0]]
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = semigroup_step(A, math.pi / 2)
    np.testing.assert_allclose(out, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-13)


def test_semigroup_input_validation():
    with pytest.raises(ValueError):
        semigroup_step(np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError):
        semigroup_step(np.zeros((2, 2)), 0.0)


# ---------------------------------------------------------------------------
# tables

def test_tables_bounds_and_quadrature():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 11)
    tables = build_tables(spec, grid, dt=0.1)
    assert tables.k_sup == 1.0
    assert tables.f_sup == 0.0
    assert tables.gamma == pytest.approx(math.exp(-0.05), rel=1e-15)
    assert tables.weight == pytest.approx((1 - math.exp(-0.05)) / 0.5, rel=1e-15)
    assert tables.upper_bound == pytest.approx(2.0)


def test_tables_default_time_step_rule():
    spec = toy_spec(f="2*x0", box=((-1.0, 1.0),))
    grid = make_grid(spec, 21)   # spacing 0.1, sampled drift bound 2
    tables = build_tables(spec, grid)
    assert tables.dt == pytest.approx(0.5 * 0.1 / 2.0)


def test_tables_feet_respect_linear_factor():
    # pure linear decay: foot of x is exp(-dt/2) x, no control dependence
    spec = toy_spec(f="0", A=[[0.5]], box=((-1.0, 1.0),))
    grid = make_grid(spec, 3)
    tables = build_tables(spec, grid, dt=0.2)
    values = grid.points[:, 0].copy()   # identity function on nodes
    wts = tables.foot_wts[0, 0, 0, 0]
    corners = tables.foot_idx[0, 0, 0, 0][:, None] + grid.corner_offsets[:wts.shape[-1]]
    foot_values = (values[corners] * wts).sum(-1)
    np.testing.assert_allclose(foot_values, math.exp(-0.1) * grid.points[:, 0], atol=1e-12)


def test_tables_hold_the_control_samples():
    """``build_tables`` keeps ``sample_controls``' running-cost samples byte
    for byte, laid out as (mode pair, u1, u2, point); the drift samples,
    laid out alike, are not kept."""
    spec = game_2d()
    grid = make_grid(spec, (5, 4))
    tables = build_tables(spec, grid)
    f, k = sample_controls(spec, grid.points)
    assert not hasattr(tables, "f") and f.shape == (2, 2, 3, 3, 20, 2)
    assert tables.k.tobytes() == k.tobytes() and tables.k.shape == (2, 2, 3, 3, 20)
    for (i1, i2) in spec.mode_pairs():
        for a, u1 in enumerate(spec.u1_levels):
            for b, u2 in enumerate(spec.u2_levels):
                args = (spec, i1, i2, grid.points, float(u1), float(u2))
                assert f[i1, i2, a, b].tobytes() == eval_dynamics(*args).tobytes()
                assert k[i1, i2, a, b].tobytes() == eval_running_cost(*args).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("f, where", [
    ("exp(800*x0) - exp(800*x0)", "mode (a,b) at u1=-0.5, u2=0.0, x=[1.0, -1.0]"),
    ("exp(1600*x1*(u1 + 0.5))", "mode (a,b) at u1=0.5, u2=0.0, x=[-1.0, 0.5]"),
    ("1e200 + 0*x0", "mode (a,a) at u1=-0.5, u2=0.0, x=[-1.0, -1.0]"),
])
def test_a_drift_norm_that_is_not_finite_is_refused_where_it_first_is(f, where):
    """nan, inf, or finite components whose norm overflows: the first mode
    pair, control pair and node in the tables' order are named."""
    drift = {(0, 0): ("0", "0"), (0, 1): (f, "0"), (1, 0): ("0", "0"), (1, 1): (f, "0")}
    if f.startswith("1e200"):
        drift = {pair: (f, f) for pair in drift}
    spec = toy_spec(f=drift, u1=(-0.5, 0.5), box=((-1.0, 1.0), (-1.0, 1.0)),
                    d1=("a", "b"), d2=("a", "b"))
    with pytest.raises(ValueError, match=re.escape(f"drift norm is not finite in {where}")):
        build_tables(spec, make_grid(spec, 5))


def test_an_overflowing_matrix_exponential_is_a_value_error():
    with pytest.raises(ValueError, match="generator is pathological"):
        semigroup_step(np.array([[-100000.0]]), 0.01)
