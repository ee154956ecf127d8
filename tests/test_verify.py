import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybrid_isaacs import solver, verify
from hybrid_isaacs.discretize import build_tables, make_grid
from hybrid_isaacs.operators import (Variant, bellman_update, impulse_field, isaacs_gap,
                                     switch_lower_field, switch_upper_field)
from hybrid_isaacs.problem import load_config, sample_controls
from hybrid_isaacs.solver import SolverConfig, solve, solve_many
from hybrid_isaacs.verify import (dpp_consistency, isaacs_value_equality, obstacle_chain_check,
                                  operator_probes, post_impulse_strictness, run_all,
                                  two_sided_uniqueness)

from conftest import BUNDLED, game_2d, game_3d, load_bundled, toy_spec

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
        check = obstacle_chain_check(result.values, spec, grid, tol=1e-9,
                                     tables=result.tables)
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
    below = upper - values
    above = values - lower
    below = np.where(np.isfinite(below), below, -np.inf)
    above = np.where(np.isfinite(above), above, -np.inf)
    worst = float(max(below.max(), above.max()))
    if worst == -np.inf:
        return verify.CheckResult("obstacle-chain", "pass", "all obstacles inactive",
                                  {"max_violation": 0.0}, tol)
    side = below if below.max() >= above.max() else above
    loc = np.unravel_index(int(side.argmax()), side.shape)
    return verify.CheckResult(
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
            got = obstacle_chain_check(values, spec, grid, tol=tol, tables=tables)
            assert repr(got) == repr(composed_obstacle_chain(values, spec, grid, tol, tables))


# ---------------------------------------------------------------------------
# post-impulse strictness

def test_strictness_on_impulse_toy(solved_impulse):
    spec, grid, result = solved_impulse
    check = post_impulse_strictness(result.values, spec, grid, tol=1e-6,
                                    tables=result.tables)
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
        assert check == post_impulse_strictness(values, spec, grid, binding_tol=10 * tol,
                                                tables=result.tables)
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
    check = post_impulse_strictness(result.values, spec, grid, tol=1e-6, binding_tol=1e-8,
                                    tables=result.tables)
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


# ---------------------------------------------------------------------------
# saddle-order equality / two-sided agreement

# both players' controls in the drift, as a product: a saddle-order gap of 2
COUPLED = dict(f="u1*u2", k="0.1 + 0.05*x0^2", u1=(-1.0, 1.0), u2=(-1.0, 1.0))


def variants_and_gap(spec, grid, config):
    """The saddle-order gap of the grid's control samples, and both
    variants of ``config`` solved in one lock-step call."""
    plus, minus = solve_many(spec, grid, [replace(config, variant=v) for v in Variant])
    return isaacs_gap(*sample_controls(spec, grid.points), seed=0), plus, minus


def test_isaacs_equality_on_separated_spec(drift_1d):
    spec, grid_cfg, solver_cfg = drift_1d
    grid = make_grid(spec, 81)
    check = isaacs_value_equality(*variants_and_gap(spec, grid, SolverConfig(tolerance=1e-9)))
    assert check.status == "pass", check.detail
    assert check.measured["order_gap"] == 0.0
    assert check.measured["value_difference"] <= 1e-12


def test_isaacs_equality_skipped_for_coupled_controls():
    spec = toy_spec(**COUPLED)
    grid = make_grid(spec, 9)
    gap = isaacs_gap(*sample_controls(spec, grid.points), seed=0)
    check = isaacs_value_equality(gap, None, None)
    assert check.status == "skipped"
    assert check.measured == {"order_gap": gap} and gap >= 2.0


def test_isaacs_equality_singleton_controls():
    spec = toy_spec(f="u1*u2 + 0.2", k="0.5 + 0.1*x0^2", u1=(0.7,), u2=(-0.3,))
    grid = make_grid(spec, 9)
    check = isaacs_value_equality(*variants_and_gap(spec, grid, SolverConfig(tolerance=1e-9)))
    assert check.status == "pass"


def test_isaacs_equality_fails_on_fields_apart(drift_1d):
    """Converged variants more than ``tol`` apart fail, and the difference
    is measured."""
    spec, _, _ = drift_1d
    grid = make_grid(spec, 21)
    gap, plus, minus = variants_and_gap(spec, grid, SolverConfig(tolerance=1e-9))
    apart = replace(minus, values=minus.values + 1e-9)
    check = isaacs_value_equality(gap, plus, apart)
    assert check.status == "fail"
    assert check.measured["value_difference"] == float(np.abs(plus.values - apart.values).max())
    assert isaacs_value_equality(gap, plus, apart, tol=1e-8).status == "pass"


def test_isaacs_equality_fails_on_nonconvergence(drift_1d):
    spec, _, _ = drift_1d
    grid = make_grid(spec, 21)
    gap, plus, minus = variants_and_gap(spec, grid,
                                        SolverConfig(tolerance=1e-12, max_iterations=2))
    assert not (plus.converged or minus.converged)
    check = isaacs_value_equality(gap, plus, minus)
    assert check.status == "fail" and "did not converge" in check.detail
    assert check.measured == {"order_gap": 0.0}


def test_two_sided_on_balanced_loop(solved_balanced_loop):
    spec, grid, low = solved_balanced_loop
    config = SolverConfig(tolerance=1e-9)
    [high] = solve_many(spec, grid, [replace(config, init="upper")], low.tables)
    check = two_sided_uniqueness(low, high, 10 * config.tolerance)
    assert check.status == "pass", check.detail
    assert check.measured["difference"] <= 1e-8


def test_two_sided_fails_on_noncovergence():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 5)
    config = SolverConfig(dt=0.01, tolerance=1e-12, max_iterations=2)
    low, high = solve_many(spec, grid, [replace(config, init=i) for i in ("zero", "upper")])
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
    """Handed solved fields, the saddle-order and two-sided checks build
    no tables and make no solve."""
    spec, _, _ = drift_1d
    grid = make_grid(spec, 21)
    config = SolverConfig(tolerance=1e-9)
    gap, plus, minus = variants_and_gap(spec, grid, config)
    calls, builds = counted_lock_steps(monkeypatch)
    assert isaacs_value_equality(gap, plus, minus).status == "pass"
    assert two_sided_uniqueness(plus, plus, 10 * config.tolerance).status == "pass"
    assert calls == [] and builds == []


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


def test_probes_deterministic(balanced_loop):
    spec, _, _ = balanced_loop
    grid = make_grid(spec, 5)
    a = operator_probes(spec, grid, trials=20, seed=11)
    b = operator_probes(spec, grid, trials=20, seed=11)
    assert a.measured == b.measured


def test_dpp_consistency_on_solved_fields(solved_impulse, solved_balanced_loop):
    for spec, grid, result in (solved_impulse, solved_balanced_loop):
        check = dpp_consistency(result.values, spec, grid, steps=(1, 10, 100),
                                tables=result.tables)
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


def counted_lock_steps(monkeypatch):
    """The members of every lock-step call ``verify`` makes, as (init,
    variant) lists, and the update tables of every table build it makes."""
    calls, builds = [], []

    def counting_solve_many(spec, grid, configs, tables=None):
        configs = list(configs)
        calls.append([(c.init, c.variant) for c in configs])
        return solve_many(spec, grid, configs, tables)

    def counting_build(*args, **kwargs):
        builds.append(build_tables(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(verify, "solve_many", counting_solve_many)
    monkeypatch.setattr(verify, "build_tables", counting_build)
    monkeypatch.setattr(solver, "build_tables", counting_build)
    return calls, builds


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_run_all_reuses_its_base_solve(name, monkeypatch):
    """From a zero init the base solve is the saddle-order check's solve of
    the configured variant, and the gap is measured once, on the grid's
    control samples: three distinct solves in one lock-step call on one
    table build, and the check of the same solves made apart."""
    spec, grid_cfg, solver_cfg = load_bundled(name)
    grid = make_grid(spec, grid_cfg["points"])
    config = SolverConfig(dt=solver_cfg.get("dt"), tolerance=solver_cfg["tolerance"])
    calls, builds = counted_lock_steps(monkeypatch)
    gap_samples = []

    def recording_gap(f, k, **kwargs):
        gap_samples.append((f, k))
        return isaacs_gap(f, k, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(verify, "isaacs_gap", recording_gap)
        report = run_all(spec, grid, config, suites={"isaacs", "uniqueness"})
    check = report.checks[0]
    assert check.name == "saddle-order-equality" and check.status == "pass"
    assert calls == [[("zero", Variant.PLUS), ("zero", Variant.MINUS), ("upper", Variant.PLUS)]]
    assert len(builds) == 1
    f, k = sample_controls(spec, grid.points)
    [(gap_f, gap_k)] = gap_samples
    assert gap_f.tobytes() == f.tobytes() and gap_k.tobytes() == k.tobytes()
    assert check == isaacs_value_equality(*variants_and_gap(spec, grid, config))


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


def test_run_all_solves_again_from_an_upper_init(constant_cost, monkeypatch):
    """An upper init solves both variants from the upper bound, and the
    saddle-order check alone reads no solve from zero."""
    spec, grid_cfg, solver_cfg = constant_cost
    grid = make_grid(spec, 21)
    calls, builds = counted_lock_steps(monkeypatch)
    config = SolverConfig(dt=0.5, tolerance=1e-9, init="upper")
    report = run_all(spec, grid, config, suites={"isaacs"})
    assert report.checks[0].status == "pass"
    assert calls == [[("upper", Variant.PLUS), ("upper", Variant.MINUS)]]
    assert len(builds) == 1


@pytest.mark.parametrize("init", ["zero", "upper"])
@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
def test_run_all_builds_the_tables_once(balanced_loop, init, variant, monkeypatch):
    """Every suite: one table build and three distinct members in one
    lock-step call; from an upper init, the upper start of two-sided
    agreement is saddle-order equality's solve of the configured variant."""
    spec, grid_cfg, solver_cfg = balanced_loop
    grid = make_grid(spec, 41)
    calls, builds = counted_lock_steps(monkeypatch)
    config = SolverConfig(tolerance=solver_cfg["tolerance"], init=init, variant=variant)
    report = run_all(spec, grid, config, trials=3)
    assert report.passed, report.to_text()
    assert len(builds) == 1 and len(calls) == 1
    assert len(calls[0]) == 3
    assert set(calls[0]) == {("zero", variant), (init, Variant.PLUS), (init, Variant.MINUS),
                             ("upper", variant)}


def test_run_all_matches_an_init_array_by_identity(balanced_loop, monkeypatch):
    """An init array is one member however many checks read it, and an
    equal array is another member."""
    spec, grid_cfg, solver_cfg = balanced_loop
    grid = make_grid(spec, 21)
    start = np.zeros((spec.m1, spec.m2, grid.n_points))
    calls, _ = counted_lock_steps(monkeypatch)
    config = SolverConfig(tolerance=solver_cfg["tolerance"], init=start)
    report = run_all(spec, grid, config, suites={"isaacs", "chain"})
    assert report.passed, report.to_text()
    [members] = calls
    assert [(init if isinstance(init, str) else id(init), v) for init, v in members] == [
        ("zero", Variant.PLUS), (id(start), Variant.PLUS), (id(start), Variant.MINUS)]


@pytest.mark.parametrize("suites, coupled, members", [
    (None, False, [("zero", Variant.PLUS), ("zero", Variant.MINUS), ("upper", Variant.PLUS)]),
    (None, True, [("zero", Variant.PLUS), ("upper", Variant.PLUS)]),
    ({"chain"}, False, [("zero", Variant.PLUS)]),
    ({"uniqueness"}, False, [("zero", Variant.PLUS), ("upper", Variant.PLUS)]),
    ({"isaacs"}, False, [("zero", Variant.PLUS), ("zero", Variant.MINUS)]),
    ({"isaacs"}, True, None),
    ({"probes"}, False, None),
])
def test_run_all_solves_what_its_suites_read(suites, coupled, members, monkeypatch):
    """One lock-step call of the solves the asked suites read, and none
    when they read no solve: the probes alone, or the saddle-order check
    alone where the gap is above zero; the tables are built once either
    way."""
    spec = (toy_spec(**COUPLED) if coupled
            else toy_spec(f="0.5*u1", k="0.1 + 0.05*x0^2 + 0.1*u2", u1=(-1.0, 1.0),
                          u2=(-1.0, 1.0)))
    grid = make_grid(spec, 9)
    calls, builds = counted_lock_steps(monkeypatch)
    report = run_all(spec, grid, SolverConfig(tolerance=1e-9), trials=3, suites=suites)
    assert report.passed, report.to_text()
    assert calls == ([] if members is None else [members])
    assert len(builds) == 1


def test_run_all_gates_on_the_base_solve_only_when_made(balanced_loop):
    """A base solve that does not converge fails the run when a check reads
    it; the probes alone make no solve and pass."""
    spec, _, _ = balanced_loop
    grid = make_grid(spec, 11)
    config = SolverConfig(tolerance=1e-12, max_iterations=2)
    for suites in ({"chain"}, {"uniqueness"}):
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
