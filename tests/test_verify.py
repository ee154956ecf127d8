import inspect
import itertools
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybrid_isaacs import solver, verify
from hybrid_isaacs import discretize, operators
from hybrid_isaacs.discretize import build_tables, interpolate, make_grid
from hybrid_isaacs.operators import (Variant, bellman_update, impulse_candidates,
                                     impulse_field, isaacs_gap,
                                     switch_lower_field, switch_upper_field)
from hybrid_isaacs.problem import Check, _subadditivity_gaps, load_config, sample_controls
from hybrid_isaacs.solver import SolverConfig, picard, solve
from hybrid_isaacs.verify import (dpp_consistency, isaacs_value_equality, obstacle_chain_check,
                                  operator_probes, post_impulse_strictness, run_all,
                                  two_sided_uniqueness)

from conftest import BUNDLED, game_2d, game_3d, gen2d, load_bundled, toy_spec

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def solved_impulse(impulse_toy):
    spec, grid_cfg, solver_cfg = impulse_toy
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(dt=solver_cfg["dt"],
                                            tolerance=solver_cfg["tolerance"]))
    return spec, grid, result


@pytest.fixture(scope="module")
def solved_balanced_loop(balanced_loop):
    spec, grid_cfg, solver_cfg = balanced_loop
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(tolerance=solver_cfg["tolerance"]))
    return spec, grid, result


# ---------------------------------------------------------------------------
# obstacle chain

def test_chain_holds_on_converged_fields(solved_impulse, solved_balanced_loop):
    for spec, grid, result in (solved_impulse, solved_balanced_loop):
        check = obstacle_chain_check(result.values, spec, grid, tol=1e-9)
        assert check.status == "pass", check.detail
        assert check.measured["max_violation"] <= 1e-9


def test_chain_detects_constructed_violation(solved_balanced_loop):
    spec, grid, result = solved_balanced_loop
    broken = result.values.copy()
    # push one entry above the player-2 switch ceiling
    broken[0, 0, 40] = broken[0, 1, 40] + spec.switch_cost_2[0, 1] + 1.0
    check = obstacle_chain_check(broken, spec, grid, tol=1e-9)
    assert check.status == "fail"
    assert check.measured["max_violation"] >= 0.99


def test_chain_vacuous_without_obstacles():
    spec = toy_spec(f="0", k="1")
    grid = make_grid(spec, 5)
    values = np.full((1, 1, 5), 1.0)
    check = obstacle_chain_check(values, spec, grid)
    assert check.status == "pass"
    assert "inactive" in check.detail


def composed_obstacle_chain(values, spec, grid, tol, tables):
    """The chain check on obstacles composed from the public branch fields:
    the player-1 switch below, min(player-2 switch, impulse) above."""
    upper = switch_upper_field(values, spec)
    lower = np.minimum(switch_lower_field(values, spec), impulse_field(values, tables))
    below = upper - values            # -inf where no obstacle binds below
    above = values - lower            # -inf where none binds above
    worst = float(max(below.max(), above.max()))
    if worst == -np.inf:
        return Check("obstacle-chain", "pass", "all obstacles inactive",
                     {"max_violation": 0.0}, tol)
    side = below if below.max() >= above.max() else above
    loc = np.unravel_index(int(side.argmax()), side.shape)
    return Check(
        "obstacle-chain", "pass" if worst <= tol else "fail",
        f"max violation {worst:.3e} ({verify._where(spec, grid, loc)})",
        {"max_violation": max(worst, 0.0)}, tol)


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["game_2d", "game_3d"])
def test_chain_reports_what_the_composed_obstacles_report(name):
    """The check reads the projection's obstacles; its report has the bytes
    of the one built on the branch fields, on a random field, on a field
    swept toward the fixed point, and on that field with one node lifted
    above its ceiling."""
    if name.startswith("game_"):
        spec = game_2d() if name == "game_2d" else game_3d()
        grid, dt = make_grid(spec, 9 if name == "game_2d" else 7), None
    else:
        spec, grid_cfg, solver_cfg = load_bundled(name)
        grid, dt = make_grid(spec, grid_cfg["points"]), solver_cfg.get("dt")
    tables = build_tables(spec, grid, dt)
    rng = np.random.default_rng(11)
    swept = rng.uniform(0.0, 3.0, (spec.m1, spec.m2, grid.n_points))
    fields = [swept.copy()]
    for _ in range(60):
        swept = bellman_update(swept, spec, grid, tables=tables)
    lifted = swept.copy()
    lifted[0, 0, grid.n_points // 2] += 5.0
    fields += [swept, lifted]
    for values in fields:
        for tol in (1e-9, 10.0):
            got = obstacle_chain_check(values, spec, grid, tol=tol)
            assert repr(got) == repr(composed_obstacle_chain(values, spec, grid, tol, tables))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chain_fails_a_value_that_is_not_finite_at_its_node(solved_balanced_loop, bad):
    """A value that is not finite is an infinite violation at its own node,
    though nodes before it read it through their obstacles."""
    spec, grid, result = solved_balanced_loop
    broken = result.values.copy()
    broken[1, 0, 40] = bad
    check = obstacle_chain_check(broken, spec, grid)
    assert check.status == "fail"
    assert check.measured == {"max_violation": np.inf}
    assert check.detail == (f"max violation inf: value {bad} is not finite "
                            f"({verify._where(spec, grid, (1, 0, 40))})")


def test_chain_fails_an_obstacle_that_is_infinite_where_it_binds():
    """An infinite switching cost makes the obstacle below the field +inf:
    a violation, not an obstacle that cannot bind."""
    spec = toy_spec(d1=("a", "b"), c1=[[0.0, -np.inf], [1.0, 0.0]])
    grid = make_grid(spec, 5)
    check = obstacle_chain_check(np.zeros((2, 1, 5)), spec, grid)
    assert check.status == "fail" and check.measured["max_violation"] == np.inf
    assert check.detail.startswith("max violation inf (mode (a,only) at x=[-1.0])")


@pytest.mark.parametrize("tolerance, bound", [(1e-10, 1e-9), (1e-9, 1e-9), (1e-7, 1e-7)])
def test_chain_bound_follows_the_solver_tolerance(balanced_loop, tolerance, bound):
    """A Picard field stops about ``tolerance * (1 - gamma) / gamma`` from
    its fixed point, so its chain violation grows with the tolerance:
    balanced_loop's is 1.234e-9 at 1e-7, past a fixed 1e-9."""
    spec, grid_cfg, _ = balanced_loop
    grid = make_grid(spec, grid_cfg["points"])
    [check] = run_all(spec, grid, SolverConfig(tolerance=tolerance), suites={"chain"}).checks
    assert check.status == "pass", check.detail
    assert check.tolerance == bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multi_step_fails_a_field_that_is_not_finite_with_a_nan_ratio(solved_balanced_loop,
                                                                      bad):
    """nan residuals, and infinite ones within an infinite bound, fail; the
    detail reads their nan ratio, and numpy warns of none of them."""
    spec, grid, result = solved_balanced_loop
    broken = result.values.copy()
    broken[1, 0, 40] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = dpp_consistency(broken, spec, grid, tables=result.tables)
    assert check.status == "fail"
    assert check.detail.endswith("(worst ratio nan)")


# ---------------------------------------------------------------------------
# post-impulse strictness

def test_strictness_on_impulse_toy(solved_impulse):
    spec, grid, result = solved_impulse
    check = post_impulse_strictness(result.values, spec, grid, tol=1e-6)
    assert check.status == "pass", check.detail
    assert check.measured["margin"] == pytest.approx(0.5)
    assert check.measured["binding_points"] > 0
    assert check.measured["min_post_gap"] >= 0.5 - 1e-6


def test_check_field_binds_within_ten_times_the_tolerance(solved_impulse):
    """The impulse check of ``check_field`` counts binding points within 10x
    the solver tolerance, here on a field lifted by up to 1e-5."""
    spec, grid, result = solved_impulse
    values = result.values + np.random.default_rng(0).uniform(0.0, 1e-5, result.values.shape)
    counts = []
    for tol in (1e-10, 1e-4):
        config = SolverConfig(dt=result.dt, tolerance=tol)
        [check] = verify.check_field(values, spec, grid, config, result.tables, {"impulse"})
        assert check == post_impulse_strictness(values, spec, grid, binding_tol=10 * tol)
        counts.append(check.measured["binding_points"])
    assert counts[0] < counts[1]


def test_strictness_not_applicable_without_impulses():
    spec = toy_spec()
    grid = make_grid(spec, 5)
    check = post_impulse_strictness(np.zeros((1, 1, 5)), spec, grid)
    assert check.status == "not-applicable"


def test_strictness_not_applicable_without_matching_sums():
    spec = toy_spec(box=((-2.0, 2.0),), impulses=(([-0.7], 0.5),))
    grid = make_grid(spec, 9)
    check = post_impulse_strictness(np.zeros((1, 1, 9)), spec, grid)
    assert check.status == "not-applicable"


def test_strictness_covers_only_menu_sums_inside_the_box():
    """Jumps (-0.6, 0), (0, -0.5) and their sum at costs 0.6, 0.7, 1.2
    (margin 0.1).  On the top face an optimal jump (-0.6, 0) is best
    followed by a second (-0.6, 0), whose composition is not in the menu:
    that slack, 0.0517, lies outside the lemma and must not fail the check."""
    spec, grid_cfg, solver_cfg = load_config(DATA / "summing_menu.toml")
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(tolerance=solver_cfg["tolerance"]))
    check = post_impulse_strictness(result.values, spec, grid, tol=1e-6, binding_tol=1e-8)
    assert check.status == "pass", check.detail
    assert check.measured["margin"] == pytest.approx(0.1)
    assert check.measured["binding_points"] == 16
    assert check.measured["skipped_points"] == 0
    assert check.measured["min_post_gap"] == pytest.approx(0.37664, abs=1e-5)
    assert "16 binding point(s), 0 skipped" in check.detail


def test_strictness_fails_on_a_field_below_the_margin():
    """A hand-built field on [0, 1] with jumps -0.3 (cost 0.5) and
    -0.6 + 5e-10 (cost 0.8), which the menu check takes for the sum of two
    -0.3 jumps (margin 0.2).  With an exact sum the lemma's bound follows
    from the first jump being optimal, so a field can break it only where
    the sum holds to the match tolerance.  A cliff between 0.3 and 0.4 makes
    the single jump from 0.9 dear, so 0.9 jumps to 0.6, where a second -0.3
    jump is no dearer than stopping.  The node at 0.1 binds too, but its
    first jump leaves the box, so it is skipped."""
    spec = toy_spec(box=((0.0, 1.0),), impulses=(([-0.3], 0.5), ([-0.6 + 5e-10], 0.8)))
    grid = make_grid(spec, 11)
    values = np.full(11, 10.0)
    values[[1, 3, 4, 6, 9]] = [10.5, 0.0, 1e9, 0.5, 1.0]
    check = post_impulse_strictness(values.reshape(1, 1, -1), spec, grid)
    assert check.status == "fail"
    assert check.measured["margin"] == pytest.approx(0.2)
    assert check.measured["min_post_gap"] == 0.0
    assert check.measured["skipped_points"] >= 1
    assert "x=[0.9" in check.detail


def pointwise_strictness(values, spec, grid, tol=1e-6, binding_tol=1e-7):
    """The post-impulse check read one binding point at a time through the
    scalar ``interpolate``, on the impulse candidates of the full update
    tables: the reference the one-read check must reproduce."""
    applicable, _, margin = _subadditivity_gaps(spec)
    if not spec.impulses:
        return Check("post-impulse-strictness", "not-applicable", "no impulses")
    if not np.isfinite(margin):
        return Check("post-impulse-strictness", "not-applicable",
                     "no impulse pair sums back into the menu")
    cand = impulse_candidates(values, build_tables(spec, grid))
    binding = np.abs(values - cand.min(axis=2)) <= binding_tol
    count = int(binding.sum())
    if count == 0:
        return Check("post-impulse-strictness", "pass",
                     "impulse obstacle never binds",
                     {"binding_points": 0.0, "margin": margin}, tol)
    covered = [set() for _ in spec.impulses]
    for i, j, _ in applicable:
        covered[i].add(j)
        covered[j].add(i)
    low, high = spec.box[:, 0], spec.box[:, 1]

    def inside(z):
        return bool(np.all((z >= low) & (z <= high)))

    worst, worst_at, used = np.inf, "", 0
    for (i1, i2) in spec.mode_pairs():
        for p in np.flatnonzero(binding[i1, i2]):
            j = int(cand[i1, i2, :, p].argmin())
            landed = grid.points[p] + spec.impulses[j].vector
            ks = [k for k in sorted(covered[j]) if inside(landed + spec.impulses[k].vector)]
            if not (ks and inside(landed)):
                continue
            used += 1
            v_landed = interpolate(values[i1, i2], grid, landed)
            gap = min(interpolate(values[i1, i2], grid, landed + spec.impulses[k].vector)
                      + spec.impulses[k].cost for k in ks) - v_landed
            if gap < worst:
                worst, worst_at = gap, verify._where(spec, grid, (i1, i2, p))
    skipped = count - used
    measured = {"binding_points": float(count), "skipped_points": float(skipped),
                "margin": margin}
    if used == 0:
        return Check(
            "post-impulse-strictness", "pass",
            f"{count} binding point(s), none with a second impulse the lemma covers",
            measured, tol)
    status = "pass" if worst >= margin - tol else "fail"
    measured["min_post_gap"] = worst
    return Check(
        "post-impulse-strictness", status,
        f"{count} binding point(s), {skipped} skipped; min post-impulse slack {worst:.6g} "
        f"vs margin {margin:.6g}" + ("" if status == "pass" else f" (worst from {worst_at})"),
        measured, tol)


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["summing_menu", "game_2d", "game_3d"])
def test_strictness_reports_what_the_pointwise_reads_report(name):
    """The one-read check has the report of the per-point reference on a
    random field, the solved field and that field lifted by up to 1e-5, at
    binding tolerances from 1e-8 to 10.  A tolerance of -1 fails every
    tested field, so the reports name the worst point too."""
    if name.startswith("game_"):
        spec = game_2d() if name == "game_2d" else game_3d()
        grid, config = make_grid(spec, 9 if name == "game_2d" else 7), SolverConfig()
    else:
        spec, grid_cfg, solver_cfg = load_config(
            DATA / "summing_menu.toml" if name == "summing_menu" else BUNDLED[name])
        grid = make_grid(spec, grid_cfg["points"])
        config = SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"])
    rng = np.random.default_rng(5)
    solved = solve(spec, grid, config).values
    fields = [rng.uniform(0.0, 3.0, solved.shape), solved,
              solved + rng.uniform(0.0, 1e-5, solved.shape)]
    for values in fields:
        for tol, binding_tol in itertools.product((1e-6, -1.0), (1e-8, 1e-4, 0.1, 10.0)):
            got = post_impulse_strictness(values, spec, grid, tol, binding_tol)
            want = pointwise_strictness(values, spec, grid, tol, binding_tol)
            assert got == want and repr(got) == repr(want)


def test_strictness_failure_reports_what_the_pointwise_reads_report():
    """The hand-built failing field below, against the reference."""
    spec = toy_spec(box=((0.0, 1.0),), impulses=(([-0.3], 0.5), ([-0.6 + 5e-10], 0.8)))
    grid = make_grid(spec, 11)
    values = np.full(11, 10.0)
    values[[1, 3, 4, 6, 9]] = [10.5, 0.0, 1e9, 0.5, 1.0]
    values = values.reshape(1, 1, -1)
    check = post_impulse_strictness(values, spec, grid)
    assert check.status == "fail"
    assert check == pointwise_strictness(values, spec, grid)


@pytest.mark.parametrize("path", [BUNDLED["impulse_toy"], BUNDLED["balanced_loop"],
                                  DATA / "summing_menu.toml"])
def test_obstacle_checks_build_no_update_tables(path, monkeypatch):
    """Called as a stored field's checks call them, the two obstacle checks
    read the impulse landings alone: no update-table build."""
    spec, grid_cfg, _ = load_config(path)
    grid = make_grid(spec, grid_cfg["points"])
    values = solve(spec, grid).values

    def refuse(*args, **kwargs):
        raise AssertionError("build_tables called")

    for module in (discretize, operators, verify):
        monkeypatch.setattr(module, "build_tables", refuse)
    assert obstacle_chain_check(values, spec, grid).status == "pass"
    assert post_impulse_strictness(values, spec, grid).status == "pass"


# ---------------------------------------------------------------------------
# saddle-order equality / two-sided agreement

# both players' controls in the drift, as a product: a saddle-order gap of 2
COUPLED = dict(f="u1*u2", k="0.1 + 0.05*x0^2", u1=(-1.0, 1.0), u2=(-1.0, 1.0))


# both players steer the drift and the sampled gap is zero, yet the discrete
# orders differ at the interpolant's kinks
BOTH_STEER = dict(f="0.5*u1 - 0.3*u2 - 0.2*x0", k="0.1 + 0.05*x0^2", u1=(-1.0, 1.0),
                  u2=(-1.0, 1.0))


def gap_and_field(spec, grid, config):
    """The saddle-order gap of the grid's control samples, and the field
    ``solve`` returns with its tables."""
    result = solve(spec, grid, config)
    return isaacs_gap(*sample_controls(spec, grid.points), seed=0), result.values, result.tables


def order_difference(values, tables):
    """``max|T+[V] - T-[V]|``, each one sweep of ``values`` on ``tables``."""
    plus, minus = (bellman_update(values, tables.spec, tables.grid, variant=v, tables=tables)
                   for v in Variant)
    return float(np.abs(plus - minus).max())


def test_isaacs_equality_on_separated_spec(drift_1d):
    spec, grid_cfg, solver_cfg = drift_1d
    grid = make_grid(spec, 81)
    check = isaacs_value_equality(*gap_and_field(spec, grid, SolverConfig(tolerance=1e-9)))
    assert check.status == "pass", check.detail
    assert check.measured["order_gap"] == 0.0
    assert check.measured["value_difference"] == 0.0


def test_isaacs_equality_skipped_for_coupled_controls():
    spec = toy_spec(**COUPLED)
    grid = make_grid(spec, 9)
    gap = isaacs_gap(*sample_controls(spec, grid.points), seed=0)
    check = isaacs_value_equality(gap, None, build_tables(spec, grid))
    assert check.status == "skipped"
    assert check.measured == {"order_gap": gap} and gap >= 2.0


def test_isaacs_equality_singleton_controls():
    spec = toy_spec(f="u1*u2 + 0.2", k="0.5 + 0.1*x0^2", u1=(0.7,), u2=(-0.3,))
    grid = make_grid(spec, 9)
    check = isaacs_value_equality(*gap_and_field(spec, grid, SolverConfig(tolerance=1e-9)))
    assert check.status == "pass"


def test_isaacs_equality_compares_the_sweeps_of_the_field_it_is_handed():
    """On any field, not only a solved one, the measured difference is that
    of the two orders' sweeps; it fails above ``tol`` and passes at it."""
    spec = toy_spec(**BOTH_STEER)
    grid = make_grid(spec, 21)
    tables = build_tables(spec, grid)
    values = np.random.default_rng(2).uniform(0.0, 1.0, (1, 1, grid.n_points))
    diff = order_difference(values, tables)
    check = isaacs_value_equality(0.0, values, tables)
    assert check.status == "fail" and diff > 1e-12
    assert check.measured == {"order_gap": 0.0, "value_difference": diff}
    assert isaacs_value_equality(0.0, values, tables, tol=diff).status == "pass"


def test_two_sided_on_balanced_loop(solved_balanced_loop):
    spec, grid, low = solved_balanced_loop
    config = SolverConfig(tolerance=1e-9)
    high = picard(spec, grid, replace(config, init="upper"), low.tables)
    check = two_sided_uniqueness(low, high, 10 * config.tolerance)
    assert check.status == "pass", check.detail
    assert check.measured["difference"] <= 1e-8


def test_two_sided_fails_on_noncovergence():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 5)
    config = SolverConfig(dt=0.01, tolerance=1e-12, max_iterations=2)
    low, high = (picard(spec, grid, replace(config, init=init)) for init in ("zero", "upper"))
    assert not low.converged    # the upper start is the fixed point here
    check = two_sided_uniqueness(low, high, 1e-11)
    assert check.status == "fail"
    assert check.measured == {"low_iterations": 2.0, "high_iterations": float(high.iterations)}


def test_two_sided_fails_on_fields_apart(solved_balanced_loop):
    spec, grid, low = solved_balanced_loop
    high = replace(low, values=low.values + 2e-8)
    check = two_sided_uniqueness(low, high, 1e-8)
    assert check.status == "fail" and check.tolerance == 1e-8
    assert check.measured["difference"] == float(np.abs(high.values - low.values).max())


def test_comparison_checks_make_no_solve(drift_1d, monkeypatch):
    """Handed a solved field and its tables, the saddle-order check builds
    no tables and makes no solve; nor does the two-sided check, handed two
    solves."""
    spec, _, _ = drift_1d
    grid = make_grid(spec, 21)
    config = SolverConfig(tolerance=1e-9)
    gap, values, tables = gap_and_field(spec, grid, config)
    result = solve(spec, grid, config)
    calls, builds, policies = counted_solves(monkeypatch)
    assert isaacs_value_equality(gap, values, tables).status == "pass"
    assert two_sided_uniqueness(result, result, 10 * config.tolerance).status == "pass"
    assert calls == [] and builds == [] and policies == []


# ---------------------------------------------------------------------------
# operator probes / multi-step consistency

def test_probes_clean_on_obstacle_free_spec():
    spec = toy_spec(f="0.5*u1 - 0.5*u2", k="x0^2 + 0.1*(1 + u1)",
                    u1=(-1.0, 1.0), u2=(-1.0, 1.0))
    grid = make_grid(spec, 5)
    check = operator_probes(spec, grid, trials=100, seed=0)
    assert check.status == "pass", check.detail
    assert check.measured["monotone_violations"] == 0
    assert check.measured["nonexpansive_violations"] == 0
    assert check.measured["contraction_violations"] == 0
    assert check.measured["shift_identity_error"] <= 1e-12


def test_probes_clean_with_obstacles(balanced_loop):
    spec, _, _ = balanced_loop
    grid = make_grid(spec, 5)
    check = operator_probes(spec, grid, trials=50, seed=3)
    assert check.status == "pass", check.detail
    assert "contraction_violations" not in check.measured


def test_probes_of_an_infinite_cost_bound_draw_fields_of_unit_scale():
    """exp(800*x0) is inf near the right face in mode a, which player 2
    leaves for b: the tables' upper bound is inf, and the probes draw
    their fields on [0, 1], where numpy refuses [0, inf)."""
    spec = toy_spec(f="0.5*u1", k={(0, 0): "exp(800*x0)", (0, 1): "1"}, u1=(-1.0, 1.0),
                    d2=("a", "b"), c2=[[0.0, 0.5], [0.5, 0.0]])
    grid = make_grid(spec, 11)
    tables = build_tables(spec, grid)
    assert tables.upper_bound == np.inf
    assert operator_probes(spec, grid, trials=5, tables=tables).status == "pass"


def test_probes_deterministic(balanced_loop):
    spec, _, _ = balanced_loop
    grid = make_grid(spec, 5)
    a = operator_probes(spec, grid, trials=20, seed=11)
    b = operator_probes(spec, grid, trials=20, seed=11)
    assert a.measured == b.measured


def test_dpp_consistency_on_solved_fields(solved_impulse, solved_balanced_loop):
    for spec, grid, result in (solved_impulse, solved_balanced_loop):
        check = dpp_consistency(result.values, spec, grid, tables=result.tables)
        assert check.status == "pass", check.detail
        eps = check.measured["one_step_residual"]
        assert check.measured["residual_m1"] <= eps + 1e-16
        assert check.measured["residual_m100"] <= 100 * eps + 1e-10


# ---------------------------------------------------------------------------
# full run

def test_run_all_passes_on_bundled(impulse_toy):
    spec, grid_cfg, solver_cfg = impulse_toy
    grid = make_grid(spec, grid_cfg["points"])
    report = run_all(spec, grid, SolverConfig(dt=solver_cfg["dt"], tolerance=1e-9),
                     seed=0, trials=25)
    assert report.passed, report.to_text()
    names = {c.name for c in report.checks}
    assert {"obstacle-chain", "post-impulse-strictness", "multi-step-consistency",
            "saddle-order-equality", "two-sided-agreement", "operator-probes"} <= names


def verified_game(name, tmp_path):
    """(spec, grid, config) of a bundled spec at its own grid, the test
    suite's 2-D game at 9 points per side, or the benchmark's 2-D game of
    seed ``gen2d_<seed>`` at 41; tolerance 1e-9 on the 2-D games."""
    if name == "game_2d":
        spec = game_2d()
        return spec, make_grid(spec, 9), SolverConfig(tolerance=1e-9)
    if name.startswith("gen2d_"):
        spec = gen2d(int(name[6:]), 41, tmp_path)
        return spec, make_grid(spec, 41), SolverConfig(tolerance=1e-9)
    spec, grid_cfg, solver_cfg = load_bundled(name)
    return (spec, make_grid(spec, grid_cfg["points"]),
            SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"]))


@pytest.mark.parametrize("init", ["zero", "upper"])
@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
@pytest.mark.parametrize("name", sorted(BUNDLED) + ["game_2d", "gen2d_1", "gen2d_2",
                                                    "gen2d_3", "gen2d_4"])
def test_run_all_passes_wherever_picard_verified(name, variant, init, tmp_path):
    """Every check passes on the bundled specs, the 2-D game and the
    benchmark's 2-D games, in both variants and from both inits.  Where
    one player steers the drift the saddle orders agree bit for bit, and
    so do the two variants' fields; the 2-D game's gap is above zero."""
    spec, grid, config = verified_game(name, tmp_path)
    report = run_all(spec, grid, replace(config, variant=variant, init=init), trials=10)
    assert report.passed, report.to_text()
    [check] = [c for c in report.checks if c.name == "saddle-order-equality"]
    if name == "game_2d":
        assert check.status == "skipped"
    else:
        assert check.measured["value_difference"] == 0.0


def test_saddle_orders_still_differ_where_both_players_steer():
    """Both players steer the drift and the sampled gap is zero, yet the
    discrete orders differ at the interpolant's kinks: the check fails, and
    its difference is that of the two orders' sweeps of ``solve``'s field."""
    spec = toy_spec(**BOTH_STEER)
    grid = make_grid(spec, 41)
    config = SolverConfig(tolerance=1e-9)
    [check] = run_all(spec, grid, config, suites={"isaacs"}).checks
    result = solve(spec, grid, config)
    diff = order_difference(result.values, result.tables)
    assert check.status == "fail" and check.measured["order_gap"] == 0.0
    assert check.measured["value_difference"] == diff and diff > 1e-4


@pytest.mark.parametrize("name", ["drift_1d", "balanced_loop", "gen2d_1"])
def test_two_runs_give_the_same_report_bytes(name, tmp_path):
    spec, grid, config = verified_game(name, tmp_path)
    first, second = (run_all(spec, grid, config, seed=2, trials=10) for _ in range(2))
    assert first.to_kv() == second.to_kv() and first.to_text() == second.to_text()


def test_run_all_suite_filter(constant_cost):
    spec, grid_cfg, solver_cfg = constant_cost
    grid = make_grid(spec, 21)
    report = run_all(spec, grid, SolverConfig(dt=0.5, tolerance=1e-9), suites={"chain"})
    assert [c.name for c in report.checks] == ["obstacle-chain"]


def test_report_serialization_is_diff_stable(constant_cost):
    spec, grid_cfg, solver_cfg = constant_cost
    grid = make_grid(spec, 21)
    config = SolverConfig(dt=0.5, tolerance=1e-9)
    a = run_all(spec, grid, config, seed=5, trials=10)
    b = run_all(spec, grid, config, seed=5, trials=10)
    assert a.to_kv() == b.to_kv()
    assert a.to_text() == b.to_text()
    kv_lines = a.to_kv().splitlines(keepends=True)
    assert kv_lines == sorted(kv_lines)


def counted_solves(monkeypatch):
    """Every Picard loop ``verify`` runs, as (variant, start, result), a
    start it computed as "field"; the update tables of every table build
    it makes; and every policy solve it makes, of the spec or of a
    bracketing copy (``solver._bracket``), as (init, variant, tables
    passed, result)."""
    calls, builds, policies = [], [], []
    loop, policy = solver.picard, solver._policy_solve

    def counting_picard(spec, grid, config, tables=None):
        result = loop(spec, grid, config, tables)
        calls.append((config.variant,
                      config.init if isinstance(config.init, str) else "field", result))
        return result

    def counting_build(*args, **kwargs):
        builds.append(build_tables(*args, **kwargs))
        return builds[-1]

    def counting_policy(spec, grid, config, tables=None):
        result = policy(spec, grid, config, tables)
        policies.append((config.init, config.variant, tables, result))
        return result

    monkeypatch.setattr(solver, "picard", counting_picard)
    monkeypatch.setattr(verify, "build_tables", counting_build)
    monkeypatch.setattr(solver, "build_tables", counting_build)
    monkeypatch.setattr(solver, "_policy_solve", counting_policy)
    return calls, builds, policies


def loop_members(calls):
    """(variant, start) of each Picard loop."""
    return [(variant, start) for variant, start, _ in calls]


def policy_members(policies):
    """(init, variant) of each policy solve."""
    return [(init, variant) for init, variant, _, _ in policies]


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_run_all_reuses_its_base_solve(name, monkeypatch):
    """The base solve from zero is the field whose two orders' sweeps the
    saddle-order check compares, and the gap is measured once, on the
    grid's control samples.  On a certified spec the solves from zero and
    upper are policy solves, each made once on the one build of the grid's
    tables; on balanced_loop, which is not certified, each start's
    bracketing copy is solved once on a twin of those tables, and a Picard
    loop on those tables starts from each copy's field.  The base field is
    ``solve``'s, and the check that of its sweeps on the run's tables.
    Each solve gates the spec once, and balanced_loop's ``_bracket`` gates
    each start's copy."""
    spec, grid_cfg, solver_cfg = load_bundled(name)
    grid = make_grid(spec, grid_cfg["points"])
    config = SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"])
    expected = solve(spec, grid, config).values
    calls, builds, policies = counted_solves(monkeypatch)
    gap_samples, gates, compared = [], [], []

    def recording_gap(f, k, **kwargs):
        gap_samples.append((f, k))
        return isaacs_gap(f, k, **kwargs)

    gate = solver._uncertified

    def counting_gate(spec):
        gates.append(spec)
        return gate(spec)

    def recording_check(gap, values, tables, **kwargs):
        compared.append((values, tables))
        return isaacs_value_equality(gap, values, tables, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(verify, "isaacs_gap", recording_gap)
        patched.setattr(solver, "_uncertified", counting_gate)
        patched.setattr(verify, "isaacs_value_equality", recording_check)
        report = run_all(spec, grid, config, suites={"isaacs", "uniqueness"})
    check = report.checks[0]
    assert check.name == "saddle-order-equality" and check.status == "pass"
    assert check.measured["value_difference"] == 0.0
    per_solve = [True, False] if name == "balanced_loop" else [True]  # the spec, then a copy
    assert [g is spec for g in gates] == per_solve * 2
    [tables] = [t for t in builds if t.grid == grid]  # coarse grids build their own
    f, k = sample_controls(spec, grid.points)
    [(gap_f, gap_k)] = gap_samples
    assert gap_f.tobytes() == f.tobytes() and gap_k.tobytes() == k.tobytes()
    [(values, passed)] = compared
    assert passed is tables
    assert values.tobytes() == expected.tobytes()
    assert check == isaacs_value_equality(check.measured["order_gap"], values, tables)
    if name == "balanced_loop":
        assert loop_members(calls) == [(Variant.PLUS, "field")] * 2
        assert policy_members(policies) == [("zero", Variant.PLUS), ("upper", Variant.PLUS)]
        assert all(p[2].spec is not spec and p[2].foot_idx is tables.foot_idx
                   for p in policies)
        return
    assert calls == []
    assert policy_members(policies) == [("zero", Variant.PLUS), ("upper", Variant.PLUS)]
    assert all(p[2] is tables for p in policies)
    assert values is policies[0][3].values


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["game_2d"])
def test_run_all_reads_the_gap_of_the_control_samples(name):
    """``order_gap`` has the bits of the gap of ``sample_controls``' samples
    at the run's seed."""
    if name == "game_2d":
        spec, points, config = game_2d(), 9, SolverConfig(tolerance=1e-9)
    else:
        spec, grid_cfg, solver_cfg = load_bundled(name)
        points = grid_cfg["points"]
        config = SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"])
    grid = make_grid(spec, points)
    [check] = run_all(spec, grid, config, seed=3, suites={"isaacs"}).checks
    gap = isaacs_gap(*sample_controls(spec, grid.points), seed=3)
    assert np.float64(check.measured["order_gap"]).tobytes() == np.float64(gap).tobytes()


@pytest.mark.parametrize("init", ["upper", "array"])
def test_run_all_reads_no_init_from_the_config(constant_cost, init, monkeypatch):
    """An upper or array init is not read: the saddle-order check alone
    reads the solve from zero."""
    spec, grid_cfg, solver_cfg = constant_cost
    grid = make_grid(spec, 21)
    calls, builds, policies = counted_solves(monkeypatch)
    start = np.zeros((spec.m1, spec.m2, grid.n_points)) if init == "array" else init
    config = SolverConfig(dt=0.5, tolerance=1e-9, init=start)
    report = run_all(spec, grid, config, suites={"isaacs"})
    assert report.checks[0].status == "pass"
    assert calls == []
    assert policy_members(policies) == [("zero", Variant.PLUS)]
    assert len(builds) == 1 and all(p[2] is builds[0] for p in policies)


@pytest.mark.parametrize("init", ["zero", "upper"])
@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
def test_run_all_builds_the_tables_once(balanced_loop, init, variant, monkeypatch):
    """Every suite on a spec that is not certified: one build of the
    grid's tables, whatever the init a policy solve of the bracketing copy
    from zero and from upper of the configured variant, each on a twin of
    those tables (its coarse grid builds its own), and a Picard loop on
    those tables from each copy's field."""
    spec, grid_cfg, solver_cfg = balanced_loop
    grid = make_grid(spec, 41)
    calls, builds, policies = counted_solves(monkeypatch)
    config = SolverConfig(tolerance=solver_cfg["tolerance"], init=init, variant=variant)
    report = run_all(spec, grid, config, trials=3)
    assert report.passed, report.to_text()
    [tables] = [t for t in builds if t.grid == grid]
    assert policy_members(policies) == [("zero", variant), ("upper", variant)]
    assert all(p[2].foot_idx is tables.foot_idx for p in policies)
    assert loop_members(calls) == [(variant, "field"), (variant, "field")]
    assert all(result.tables is tables for _, _, result in calls)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("name", ["balanced_loop", "game_3d"])
def test_run_all_solves_are_the_fields_of_solve(name, variant, monkeypatch):
    """On specs it cannot certify, ``run_all``'s Picard loops from zero and
    from the upper bound end on the fields of ``solve`` from those starts,
    bit for bit, with their histories and methods: balanced_loop at its
    own grid, and game_3d at 7^3 and tolerance 1e-6, whose two fields
    differ."""
    if name == "game_3d":
        spec, points = game_3d(), 7
        config = SolverConfig(tolerance=1e-6, variant=variant)
    else:
        spec, grid_cfg, solver_cfg = load_bundled(name)
        points = grid_cfg["points"]
        config = SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"],
                              variant=variant)
    grid = make_grid(spec, points)
    expected = [solve(spec, grid, replace(config, init=init)) for init in ("zero", "upper")]
    calls, _, _ = counted_solves(monkeypatch)
    run_all(spec, grid, config, trials=3, suites={"uniqueness"})
    assert [variant for variant, _, _ in calls] == [config.variant] * 2
    for (_, _, made), want in zip(calls, expected):
        assert made.values.tobytes() == want.values.tobytes()
        assert made.change_history.tobytes() == want.change_history.tobytes()
        assert (made.method, made.converged) == (want.method, True)
    if name == "game_3d":
        assert expected[0].values.tobytes() != expected[1].values.tobytes()


@pytest.mark.parametrize("suites, coupled, members", [
    (None, False, [("zero", Variant.PLUS), ("upper", Variant.PLUS)]),
    (None, True, [("zero", Variant.PLUS), ("upper", Variant.PLUS)]),
    ({"chain"}, False, [("zero", Variant.PLUS)]),
    ({"uniqueness"}, False, [("zero", Variant.PLUS), ("upper", Variant.PLUS)]),
    ({"isaacs"}, False, [("zero", Variant.PLUS)]),
    ({"isaacs"}, True, None),
    ({"probes"}, False, None),
])
def test_run_all_solves_what_its_suites_read(suites, coupled, members, monkeypatch):
    """Each solve the asked suites read, made once by policy iteration on
    these certified single-mode toys, and none when they read no solve:
    the probes alone, or the saddle-order check alone where the gap is
    above zero; the tables are built once either way."""
    spec = (toy_spec(**COUPLED) if coupled
            else toy_spec(f="0.5*u1", k="0.1 + 0.05*x0^2 + 0.1*u2", u1=(-1.0, 1.0),
                          u2=(-1.0, 1.0)))
    grid = make_grid(spec, 9)
    calls, builds, policies = counted_solves(monkeypatch)
    report = run_all(spec, grid, SolverConfig(tolerance=1e-9), trials=3, suites=suites)
    assert report.passed, report.to_text()
    assert calls == [] and policy_members(policies) == (members or [])
    assert len(builds) == 1 and all(p[2] is builds[0] for p in policies)


def test_run_all_gates_on_the_base_solve_only_when_made(balanced_loop):
    """A base solve that does not converge fails the run when a check reads
    it, the saddle-order check included; the probes alone make no solve and
    pass."""
    spec, _, _ = balanced_loop
    grid = make_grid(spec, 11)
    config = SolverConfig(tolerance=1e-12, max_iterations=1)  # one sweep from the copy's field
    for suites in ({"chain"}, {"uniqueness"}, {"isaacs"}):
        report = run_all(spec, grid, config, trials=3, suites=suites)
        assert [(c.name, c.status) for c in report.checks] == [("base-solve", "fail")]
    report = run_all(spec, grid, config, trials=3, suites={"probes"})
    assert [(c.name, c.status) for c in report.checks] == [("operator-probes", "pass")]


@pytest.mark.parametrize("trials", [0, -5, 2.5, True])
def test_probes_refuse_trials_below_one(balanced_loop, trials):
    spec, _, _ = balanced_loop
    grid = make_grid(spec, 41)
    with pytest.raises(ValueError, match="trials"):
        operator_probes(spec, grid, trials=trials)
    with pytest.raises(ValueError, match="trials"):
        run_all(spec, grid, SolverConfig(tolerance=1e-6), trials=trials)


def test_probes_sweep_in_stacks_as_one_at_a_time(balanced_loop, monkeypatch):
    """Stacks of at most ``_PROBE_STACK_VALUES`` field values, here one or
    two trials' fields, give the report of one large stack."""
    spec, _, _ = balanced_loop
    grid = make_grid(spec, 11)
    whole = operator_probes(spec, grid, trials=5, seed=4)
    monkeypatch.setattr(verify, "_PROBE_STACK_VALUES", 4 * spec.m1 * spec.m2 * grid.n_points)
    assert operator_probes(spec, grid, trials=5, seed=4) == whole
    obstacle_free = toy_spec(f="0.5*u1 - 0.5*u2", k="x0^2 + 0.1*(1 + u1)",
                             u1=(-1.0, 1.0), u2=(-1.0, 1.0))
    grid = make_grid(obstacle_free, 5)
    whole = operator_probes(obstacle_free, grid, trials=5, seed=4)
    monkeypatch.setattr(verify, "_PROBE_STACK_VALUES", 1)
    assert operator_probes(obstacle_free, grid, trials=5, seed=4) == whole


def test_run_all_probes_the_configured_variant(balanced_loop, monkeypatch):
    """A MINUS verification probes the MINUS operator, on the base solve's
    tables, with every trial's two fields in one stack."""
    spec, _, solver_cfg = balanced_loop
    grid = make_grid(spec, 21)
    variants, fields = [], []

    def recording(*args, **kwargs):
        bound = inspect.signature(bellman_update).bind(*args, **kwargs)
        bound.apply_defaults()
        variants.append(bound.arguments["variant"])
        fields.append(len(bound.arguments["values"]))
        return bellman_update(*args, **kwargs)

    builds = []

    def build_once(*args, **kwargs):
        assert not builds, "operator_probes rebuilt the tables"
        builds.append(build_tables(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(verify, "bellman_update", recording)
    monkeypatch.setattr(verify, "build_tables", build_once)
    config = SolverConfig(tolerance=solver_cfg["tolerance"], variant=Variant.MINUS)
    report = run_all(spec, grid, config, trials=5, suites={"probes"})
    assert [c.name for c in report.checks] == ["operator-probes"]
    assert report.checks[0].status == "pass"
    assert variants == [Variant.MINUS] and fields == [10]
