import math

import numpy as np
import pytest

from hybrid_isaacs.discretize import build_tables, make_grid
from hybrid_isaacs.operators import (Variant, bellman_update, continue_field, hamiltonian,
                                     impulse_field, isaacs_gap, switch_lower_field,
                                     switch_upper_field)
from hybrid_isaacs.problem import sample_controls

from conftest import toy_spec


def saddle_oracle(spec, d1, d2, x, p, order):
    """Plain-loop enumeration of the control table, independent of the
    vectorized implementation."""
    from hybrid_isaacs.problem import eval_dynamics, eval_running_cost
    rows = []
    for u1 in spec.u1_levels:
        row = []
        for u2 in spec.u2_levels:
            f = eval_dynamics(spec, d1, d2, np.asarray(x, float), float(u1), float(u2))
            k = eval_running_cost(spec, d1, d2, np.asarray(x, float), float(u1), float(u2))
            row.append(-float(np.dot(p, f)) - float(k))
        rows.append(row)
    if order == "min_max":      # min over u1 of max over u2
        return min(max(row) for row in rows)
    return max(min(rows[a][b] for a in range(len(rows)))   # max over u2 of min over u1
               for b in range(len(rows[0])))


# ---------------------------------------------------------------------------
# Hamiltonians

def saddles(spec, x, p):
    """Both orders of the Hamiltonian at state ``x``, from ``sample_controls``."""
    f, k = sample_controls(spec, np.atleast_2d(np.asarray(x, float)))
    table = -(f[0, 0] @ p) - k[0, 0]  # (nu1, nu2, 1)
    return float(hamiltonian(table, Variant.PLUS)[0]), float(hamiltonian(table, Variant.MINUS)[0])


def test_hamiltonian_additive_controls():
    spec = toy_spec(f="u1 + u2", k="0", u1=(-1.0, 1.0), u2=(-1.0, 1.0))
    x, p = np.array([0.0]), np.array([1.0])
    assert saddles(spec, x, p) == (0.0, 0.0)
    assert saddle_oracle(spec, 0, 0, x, p, "min_max") == 0.0


def test_hamiltonian_zero_costate_zero_cost():
    spec = toy_spec(f="u1*u2 + x0", k="0", u1=(-1.0, 1.0), u2=(-1.0, 1.0))
    x, p = np.array([0.3]), np.array([0.0])
    assert saddles(spec, x, p) == (0.0, 0.0)


def test_hamiltonian_multiplicative_controls_order_gap():
    spec = toy_spec(f="u1*u2", k="0", u1=(-1.0, 1.0), u2=(-1.0, 1.0))
    x, p = np.array([0.0]), np.array([1.0])
    assert saddles(spec, x, p) == (1.0, -1.0)
    assert saddle_oracle(spec, 0, 0, x, p, "min_max") == 1.0
    assert saddle_oracle(spec, 0, 0, x, p, "max_min") == -1.0


def test_hamiltonian_matches_oracle_on_random_inputs():
    spec = toy_spec(f="u1 - 0.5*u2*x0", k="0.1*u1^2 + x0^2", u1=(-1.0, 0.0, 1.0),
                    u2=(-1.0, 1.0))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=1)
        p = rng.standard_normal(1)
        assert saddles(spec, x, p) == (saddle_oracle(spec, 0, 0, x, p, "min_max"),
                                       saddle_oracle(spec, 0, 0, x, p, "max_min"))


def test_isaacs_gap_zero_for_separated_controls():
    # player 1 steers, player 2 only modulates the cost: both orders agree
    spec = toy_spec(f="0.5*u1 - 0.25*x0", k="x0^2 + 0.05*(1 + u1) + 0.1*(1 - u2*tanh(x0))",
                    u1=(-1.0, 0.0, 1.0), u2=(-1.0, 0.0, 1.0), box=((-2.0, 2.0),))
    grid = make_grid(spec, 41)
    assert isaacs_gap(*sample_controls(spec, grid.points), costate_samples=16, seed=0) == 0.0


def test_isaacs_gap_two_for_multiplicative_controls():
    spec = toy_spec(f="u1*u2", k="0", u1=(-1.0, 1.0), u2=(-1.0, 1.0))
    grid = make_grid(spec, 5)
    # canonical costates include +/- unit vectors, where the order gap is 2
    assert isaacs_gap(*sample_controls(spec, grid.points), costate_samples=0, seed=0) == 2.0
    # the same gap when only the last of two mode pairs couples the controls
    spec = toy_spec(f={(0, 0): "u1", (0, 1): "u1*u2"}, k="0", u1=(-1.0, 1.0), u2=(-1.0, 1.0),
                    d2=("a", "b"), c2=[[0.0, 1.0], [1.0, 0.0]])
    assert isaacs_gap(*sample_controls(spec, grid.points), costate_samples=0, seed=0) == 2.0


def test_isaacs_gap_zero_for_singleton_controls():
    spec = toy_spec(f="u1*u2 + x0", k="x0^2", u1=(0.5,), u2=(-0.5,))
    grid = make_grid(spec, 9)
    assert isaacs_gap(*sample_controls(spec, grid.points), costate_samples=8, seed=3) == 0.0


# ---------------------------------------------------------------------------
# obstacle operators

def test_switch_lower_single_competitor():
    spec = toy_spec(d2=("a", "b"), c2=[[0.0, 1.0], [1.0, 0.0]])
    values = np.zeros((1, 2, 3))
    values[0, 1, :] = 0.5
    field = switch_lower_field(values, spec)
    assert field[0, 0, 0] == 1.5
    assert field[0, 1, 0] == 1.0   # switch back costs 1 on top of V[a] = 0


def test_switch_lower_inactive_for_single_mode():
    spec = toy_spec()
    values = np.zeros((1, 1, 3))
    assert (switch_lower_field(values, spec) == math.inf).all()


def test_switch_lower_three_modes_takes_best():
    spec = toy_spec(d2=("a", "b", "c"),
                    c2=[[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
    values = np.zeros((1, 3, 1))
    values[0, 1, 0] = 0.5   # candidate 0.5 + 1.0
    values[0, 2, 0] = 2.0   # candidate 2.0 + 0.1
    assert switch_lower_field(values, spec)[0, 0, 0] == 1.5


def test_switch_upper_examples():
    spec = toy_spec(d1=("a", "b"), c1=[[0.0, 0.3], [0.3, 0.0]])
    values = np.zeros((2, 1, 2))
    values[1, 0, :] = 1.0
    assert switch_upper_field(values, spec)[0, 0, 0] == pytest.approx(0.7)

    single = toy_spec()
    assert (switch_upper_field(np.zeros((1, 1, 2)), single) == -math.inf).all()

    three = toy_spec(d1=("a", "b", "c"),
                     c1=[[0.0, 0.3, 0.1], [0.3, 0.0, 0.1], [0.1, 0.1, 0.0]])
    values = np.zeros((3, 1, 1))
    values[1, 0, 0] = 1.0   # candidate 1.0 - 0.3
    values[2, 0, 0] = 0.2   # candidate 0.2 - 0.1
    field = switch_upper_field(values, three)
    assert field[0, 0, 0] == pytest.approx(0.7)


def sequential_switch_fields(values, spec):
    """The per-mode loops the fused switch fields replace: minimum and
    maximum folded over the other modes in ascending order from +/-inf."""
    m1, m2, _ = values.shape
    lower = np.full_like(values, np.inf)
    upper = np.full_like(values, -np.inf)
    for i2 in range(m2):
        for j2 in range(m2):
            if j2 != i2:
                lower[:, i2] = np.minimum(lower[:, i2], values[:, j2] + spec.switch_cost_2[i2, j2])
    for i1 in range(m1):
        for j1 in range(m1):
            if j1 != i1:
                upper[i1] = np.maximum(upper[i1], values[j1] - spec.switch_cost_1[i1, j1])
    return lower, upper


# off-diagonal zeros of both signs let candidates tie at +0.0 and -0.0:
# x + 0.0 and x - (-0.0) turn -0.0 into +0.0, x - 0.0 and x + (-0.0) keep it
THREE_MODE_COSTS = [[0.0, 0.0, -0.0], [-0.0, 0.0, 0.0], [-0.0, 0.3, 0.0]]


@pytest.mark.parametrize("modes", [(3, 1), (1, 3), (3, 2)])
def test_switch_fields_match_the_sequential_loops_bit_for_bit(modes):
    m1, m2 = modes
    labels = ("a", "b", "c")
    costs = np.array(THREE_MODE_COSTS)
    spec = toy_spec(d1=labels[:m1], d2=labels[:m2], c1=costs[:m1, :m1], c2=costs[:m2, :m2])
    rng = np.random.default_rng(4)
    shape = (m1, m2, 40)
    mixed = rng.uniform(-1.0, 3.0, size=shape) * np.exp(rng.uniform(-20.0, 20.0, size=shape))
    signs = rng.random(shape)
    mixed[signs < 0.3] = -0.0
    mixed[signs > 0.7] = 0.0
    for values in (mixed, np.full(shape, -0.0)):
        lower, upper = sequential_switch_fields(values, spec)
        for actual, expected in ((switch_lower_field(values, spec), lower),
                                 (switch_upper_field(values, spec), upper)):
            assert actual.shape == expected.shape and actual.dtype == expected.dtype
            assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("impulses", [(), (([0.5], -0.0),)])
@pytest.mark.parametrize("modes", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_bellman_update_skips_only_branches_that_cannot_bind(modes, impulses):
    """Against the full composition of all four branches, bit for bit, on
    fields where the branches tie at zeros of both signs (with a zero
    running cost the continue branch of an all -0.0 field is +0.0)."""
    m1, m2 = modes
    costs = np.array([[0.0, -0.0], [0.0, 0.0]])
    spec = toy_spec(f="0.3*u1", k="0", u1=(-1.0, 1.0), d1=("a", "b")[:m1],
                    d2=("c", "d")[:m2], c1=costs[:m1, :m1], c2=costs[:m2, :m2],
                    impulses=impulses)
    grid = make_grid(spec, 9)
    tables = build_tables(spec, grid, dt=0.1)
    rng = np.random.default_rng(2)
    mixed = rng.uniform(-1.0, 1.0, size=(m1, m2, grid.n_points))
    mixed[rng.random(mixed.shape) < 0.5] = -0.0
    for values in (mixed, np.full_like(mixed, -0.0)):
        for variant in Variant:
            expected = np.maximum(
                switch_upper_field(values, spec),
                np.minimum(np.minimum(switch_lower_field(values, spec),
                                      impulse_field(values, tables)),
                           continue_field(values, tables, variant)))
            actual = bellman_update(values, spec, grid, variant=variant, tables=tables)
            assert actual.tobytes() == expected.tobytes()


def test_impulse_obstacle_empty_menu_inactive():
    spec = toy_spec()
    grid = make_grid(spec, 5)
    values = np.zeros((1, 1, grid.n_points))
    tables = build_tables(spec, grid, dt=0.1)
    assert impulse_field(values, tables)[0, 0, 2] == math.inf  # node x = 0
    assert np.isinf(impulse_field(values, tables)).all()


def test_impulse_obstacle_two_candidates():
    spec = toy_spec(box=((-2.0, 2.0),),
                    impulses=(([-1.0], 0.4), ([0.5], 0.25)))
    grid = make_grid(spec, 5)  # nodes -2,-1,0,1,2... spacing 1.0; 0.5 interpolates
    values = np.zeros((1, 1, grid.n_points))
    # V(x-1) = 2 at node -1, V(x+0.5) = 1 halfway between nodes 0 and 1
    values[0, 0, :] = [0.0, 2.0, 0.0, 2.0, 0.0]
    # at node x = 0, candidates: 2.0 + 0.4 and interp(0.5) = 1.0 + 0.25
    field = impulse_field(values, build_tables(spec, grid, dt=0.1))
    assert field[0, 0, 2] == pytest.approx(1.25)


def test_impulse_obstacle_clamps_outside_box():
    spec = toy_spec(box=((0.0, 1.0),), impulses=(([-5.0], 0.1),))
    grid = make_grid(spec, 2)
    values = np.array([[[3.0, 9.0]]])
    # every jump lands clamped on node 0
    field = impulse_field(values, build_tables(spec, grid, dt=0.1))
    assert field[0, 0] == pytest.approx([3.1, 3.1])


# ---------------------------------------------------------------------------
# one-step update

def test_update_applies_discount_consistent_quadrature():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 11)
    tables = build_tables(spec, grid, dt=0.1)
    out = bellman_update(np.zeros((1, 1, 11)), spec, grid, tables=tables)
    expected = (1.0 - math.exp(-0.05)) / 0.5
    assert expected == pytest.approx(0.09754115, abs=1e-8)
    np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_update_fixes_constant_cost_ratio():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 11)
    tables = build_tables(spec, grid, dt=0.1)
    values = np.full((1, 1, 11), 2.0)
    out = bellman_update(values, spec, grid, tables=tables)
    np.testing.assert_array_equal(out, values)


def test_update_takes_cheap_switch_branch():
    spec = toy_spec(k={(0, 0): "2", (0, 1): "0.5"}, d2=("high", "low"),
                    c2=[[0.0, 0.1], [0.1, 0.0]])
    grid = make_grid(spec, 5)
    tables = build_tables(spec, grid, dt=0.5)
    out = bellman_update(np.zeros((1, 2, 5)), spec, grid, tables=tables)
    w = (1.0 - math.exp(-0.5))
    # switching at 0.1 beats continuing at 2w ~ 0.787 in the dear mode
    np.testing.assert_allclose(out[0, 0], 0.1, rtol=1e-15)
    np.testing.assert_allclose(out[0, 1], min(0.1, 0.5 * w), rtol=1e-15)


def test_update_monotone_and_nonexpansive():
    spec = toy_spec(f="0.4*u1 - 0.4*u2", k="x0^2 + 0.1*(1 + u1)",
                    u1=(-1.0, 1.0), u2=(-1.0, 1.0),
                    d2=("a", "b"), c2=[[0.0, 0.4], [0.4, 0.0]],
                    impulses=(([-0.5], 0.3),), box=((-1.0, 1.0),))
    grid = make_grid(spec, 9)
    tables = build_tables(spec, grid)
    rng = np.random.default_rng(42)
    shape = (1, 2, grid.n_points)
    for _ in range(25):
        v = rng.uniform(0.0, 2.0, size=shape)
        w = v + rng.uniform(0.0, 1.0, size=shape)
        tv = bellman_update(v, spec, grid, tables=tables)
        tw = bellman_update(w, spec, grid, tables=tables)
        assert (tv <= tw).all()   # exact: every constituent op is fp-monotone
        # obstacle branches re-round V + cost, so allow machine precision
        assert np.abs(tv - tw).max() <= np.abs(v - w).max() * (1 + 1e-13)


def test_update_contracts_without_obstacles():
    spec = toy_spec(f="0.5*u1", k="x0^2", u1=(-1.0, 1.0), lam=2.0)
    grid = make_grid(spec, 9)
    tables = build_tables(spec, grid, dt=0.25)
    rng = np.random.default_rng(7)
    gamma = math.exp(-0.5)
    for _ in range(10):
        v = rng.uniform(0, 1, size=(1, 1, 9))
        w = rng.uniform(0, 1, size=(1, 1, 9))
        tv = bellman_update(v, spec, grid, tables=tables)
        tw = bellman_update(w, spec, grid, tables=tables)
        assert np.abs(tv - tw).max() <= gamma * np.abs(v - w).max() + 1e-15


def test_update_constant_shift_identity():
    spec = toy_spec(f="0.5*u1", k="x0^2", u1=(-1.0, 1.0))
    grid = make_grid(spec, 9)
    tables = build_tables(spec, grid, dt=0.25)
    rng = np.random.default_rng(13)
    v = rng.uniform(0, 1, size=(1, 1, 9))
    c = 0.37
    tv = bellman_update(v, spec, grid, tables=tables)
    tvc = bellman_update(v + c, spec, grid, tables=tables)
    np.testing.assert_allclose(tvc, tv + tables.gamma * c, atol=1e-13)


def test_zero_cost_zero_field_is_fixed_point():
    spec = toy_spec(f="0.3*u1 - 0.3*u2", k="0", u1=(-1.0, 1.0), u2=(-1.0, 1.0))
    grid = make_grid(spec, 9)
    tables = build_tables(spec, grid)
    out = bellman_update(np.zeros((1, 1, 9)), spec, grid, tables=tables)
    np.testing.assert_array_equal(out, 0.0)


def test_plus_minus_updates_coincide_when_gap_is_zero(drift_1d):
    spec, grid_defaults, _ = drift_1d
    grid = make_grid(spec, 41)
    assert isaacs_gap(*sample_controls(spec, grid.points), costate_samples=8, seed=2) == 0.0
    tables = build_tables(spec, grid)
    rng = np.random.default_rng(21)
    for _ in range(5):
        v = rng.uniform(0, 4, size=(1, 1, grid.n_points))
        plus = bellman_update(v, spec, grid, tables=tables, variant=Variant.PLUS)
        minus = bellman_update(v, spec, grid, tables=tables, variant=Variant.MINUS)
        np.testing.assert_array_equal(plus, minus)


# ---------------------------------------------------------------------------
# fixed-point residuals |T[V] - V|

def test_residual_zero_when_upper_switch_binds():
    """Where V sits exactly on player 1's switch obstacle, above the
    continue value, the update returns V: the fixed-point residual is 0."""
    spec = toy_spec(k="0.5", d1=("a", "b"), c1=[[0.0, 0.3], [0.3, 0.0]])
    grid = make_grid(spec, 7)
    values = np.zeros((2, 1, 7))
    values[1, 0, :] = 1.0
    values[0, 0, :] = 0.7    # exactly the switch target: V = M_plus
    np.testing.assert_array_equal(values[0, 0] - switch_upper_field(values, spec)[0, 0], 0.0)
    np.testing.assert_array_equal(bellman_update(values, spec, grid, dt=0.2)[0, 0], 0.7)


def test_fixed_point_residual_reports_update_distance():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 5)
    values = np.zeros((1, 1, 5))
    residual = np.abs(bellman_update(values, spec, grid, dt=0.1) - values)
    expected = (1.0 - math.exp(-0.05)) / 0.5
    np.testing.assert_allclose(residual, expected, rtol=1e-15)
