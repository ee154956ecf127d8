import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from hybrid_isaacs import problem
from hybrid_isaacs.discretize import build_tables, make_grid
from hybrid_isaacs.problem import (SpecStructureError, check_y1_y2, eval_dynamics,
                                   eval_running_cost, load_config, load_spec,
                                   save_spec, subadditivity_gap, validate_a2)

from conftest import BUNDLED, INVALID, game_2d, toy_spec


MINIMAL = """
[problem]
dimension = 1
discount = 1.0
d1_labels = ["only"]
d2_labels = ["only"]
u1_levels = [0.0]
u2_levels = [0.0]
generator = [[0.0]]
box = [[-1.0, 1.0]]

[dynamics."only,only"]
f = ["0"]

[cost."only,only"]
k = "1"
"""


def write(tmp_path, text, name="game.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_spec_loads(tmp_path):
    spec = load_spec(write(tmp_path, MINIMAL))
    assert spec.dimension == 1
    assert spec.m1 == spec.m2 == 1
    assert spec.impulses == ()
    assert spec.switch_cost_1.shape == (1, 1)


def test_missing_mode_pair_is_named(tmp_path):
    text = MINIMAL.replace('d2_labels = ["only"]', 'd2_labels = ["a", "b"]')
    text = text.replace('[dynamics."only,only"]', '[dynamics."only,a"]')
    text = text.replace('[cost."only,only"]', '[cost."only,a"]')
    with pytest.raises(SpecStructureError, match=r"only,b"):
        load_spec(write(tmp_path, text))


def test_wrong_impulse_dimension(tmp_path):
    text = MINIMAL + '\n[impulses]\nvectors = [[1.0, 1.0]]\ncosts = [1.0]\n'
    with pytest.raises(SpecStructureError, match="component"):
        load_spec(write(tmp_path, text))


def test_undeclared_variable_rejected(tmp_path):
    text = MINIMAL.replace('k = "1"', 'k = "x1"')
    with pytest.raises(SpecStructureError, match="x1"):
        load_spec(write(tmp_path, text))


def test_nonpositive_discount_rejected(tmp_path):
    text = MINIMAL.replace("discount = 1.0", "discount = 0.0")
    with pytest.raises(SpecStructureError, match="discount"):
        load_spec(write(tmp_path, text))


def test_empty_box_rejected(tmp_path):
    text = MINIMAL.replace("box = [[-1.0, 1.0]]", "box = [[1.0, 1.0]]")
    with pytest.raises(SpecStructureError, match="box"):
        load_spec(write(tmp_path, text))


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_specs_load_and_roundtrip(name, tmp_path):
    spec = load_spec(BUNDLED[name])
    first = tmp_path / "first.toml"
    save_spec(spec, first)
    respec = load_spec(first)
    second = tmp_path / "second.toml"
    save_spec(respec, second)
    assert first.read_text() == second.read_text()
    assert respec.d1_labels == spec.d1_labels
    assert np.array_equal(respec.switch_cost_2, spec.switch_cost_2)


def test_saved_spec_keeps_edge_floats_bit_exact(tmp_path):
    edges = [-0.0, 5e-324, 1e+16, 1e-05, math.inf, -math.inf]
    spec = load_spec(write(tmp_path, MINIMAL.replace("u1_levels = [0.0]",
                                                     f"u1_levels = {edges!r}")))
    path = tmp_path / "saved.toml"
    save_spec(spec, path)
    assert "u1_levels = [-0.0, 5e-324, 1e+16, 1e-05, inf, -inf]" in path.read_text()
    assert load_spec(path).u1_levels.tobytes() == np.array(edges).tobytes()


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_saved_spec_builds_bit_identical_tables(name, tmp_path):
    spec, grid_cfg, solver_cfg = load_config(BUNDLED[name])
    path = tmp_path / "saved.toml"
    save_spec(spec, path)
    grid = make_grid(spec, grid_cfg["points"])
    ours = build_tables(spec, grid, solver_cfg.get("dt"))
    theirs = build_tables(load_spec(path), grid, solver_cfg.get("dt"))
    for f in dataclasses.fields(ours):
        if f.name not in ("spec", "grid"):
            a, b = np.asarray(getattr(ours, f.name)), np.asarray(getattr(theirs, f.name))
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name


# ---------------------------------------------------------------------------
# sampled assumption checks

def test_validate_passes_on_bundled(balanced_loop):
    spec, _, _ = balanced_loop
    report = validate_a2(spec, samples=128, seed=1)
    assert report.mandatory_ok
    assert report.estimates["subadd_gap"] == pytest.approx(0.2)


@pytest.mark.parametrize("samples", [0, -4])
def test_validate_refuses_fewer_than_one_sample(balanced_loop, samples):
    spec, _, _ = balanced_loop
    with pytest.raises(ValueError, match=f"samples must be a whole number >= 1, got {samples}"):
        validate_a2(spec, samples=samples)
    assert validate_a2(spec, samples=1).estimates


def test_zero_switch_cost_fails_check():
    spec = load_spec(INVALID["zero_switch_cost"])
    report = validate_a2(spec, samples=32, seed=0)
    failed = {c.name for c in report.failures()}
    assert "switch-cost-2-positive" in failed
    assert not report.mandatory_ok


def test_subadditivity_violation_detected():
    spec = load_spec(INVALID["subadditivity"])
    report = validate_a2(spec, samples=32, seed=0)
    failed = {c.name for c in report.failures()}
    assert "impulse-subadditivity" in failed


def test_negative_running_cost_detected():
    spec = load_spec(INVALID["negative_cost"])
    report = validate_a2(spec, samples=64, seed=0)
    failed = {c.name for c in report.failures()}
    assert "running-cost-nonnegative" in failed


def test_nan_running_cost_fails_the_gate():
    # exp overflows on the right of the box, where k is inf - inf
    spec = toy_spec(k="exp(1000*x0) - exp(1000*x0) + 1 + u1", u1=(0.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        report = validate_a2(spec, samples=32, seed=0)
    check = report.checks[0]
    assert check.name == "running-cost-nonnegative" and check.status == "fail"
    assert math.isnan(check.measured["k_min"])
    assert math.isnan(report.estimates["lipschitz_k"])


def test_nan_dynamics_shows_in_the_drift_estimates():
    spec = toy_spec(f="exp(1000*x0) - exp(1000*x0)")
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = validate_a2(spec, samples=32, seed=0).estimates
    assert math.isnan(estimates["f_sup_sampled"]) and math.isnan(estimates["lipschitz_f"])


@pytest.mark.parametrize("drift", ["exp(1000*x0) - exp(1000*x0)", "exp(1000*x0)"])
def test_a_drift_that_is_not_finite_earns_a_warning(drift):
    """``validate`` names the first sampled mode pair, controls and state
    where the drift's norm is nan or inf; the verdict stays ok."""
    spec = toy_spec(f=drift, u1=(-1.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        report = validate_a2(spec, samples=32, seed=0)
    assert report.mandatory_ok
    [warning] = report.warnings
    assert re.fullmatch(r"drift norm is not finite in mode \(only,only\) at u1=-1\.0, "
                        r"u2=0\.0, x=\[0\.[0-9]+\]; solve and verify refuse it", warning)
    assert f"  [       warning] {warning}\n" in report.to_text()
    assert validate_a2(toy_spec(f="x0"), samples=32, seed=0).warnings == []


def test_a_running_cost_that_is_not_finite_earns_a_warning():
    """``validate`` names the first sampled mode pair, controls and state
    where the running cost is nan or inf, in the drift's words, and
    raises no RuntimeWarning."""
    spec = toy_spec(k="1e300*x0^2*1e10", u1=(-1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = validate_a2(spec, samples=32, seed=0)
    [warning] = report.warnings
    assert re.fullmatch(r"running cost is not finite in mode \(only,only\) at u1=-1\.0, "
                        r"u2=0\.0, x=\[-?0\.[0-9]+\]", warning)
    assert report.mandatory_ok and math.isnan(report.estimates["lipschitz_k"])


def loop_estimates(spec, samples, seed):
    """The sampled cost and drift estimates of ``validate_a2``, one
    (mode pair, u1, u2) at a time: the reference for its array reductions."""
    rng = np.random.default_rng(seed)
    pts, xs, ys = (problem._sample_states(spec, rng, samples) for _ in range(3))
    dist = np.linalg.norm(xs - ys, axis=-1)
    k_min, k_max, where = np.inf, -np.inf, ""
    f_sup = lip_f = lip_k = 0.0
    for (i1, i2) in spec.mode_pairs():
        for u1 in spec.u1_levels:
            for u2 in spec.u2_levels:
                args = (spec, i1, i2)
                u = (float(u1), float(u2))
                k = eval_running_cost(*args, pts, *u)
                if k.min() < k_min:
                    k_min = float(k.min())
                    where = (f"mode ({spec.d1_labels[i1]},{spec.d2_labels[i2]}), "
                             f"u1={u[0]!r}, u2={u[1]!r}, x={pts[int(k.argmin())].tolist()}")
                k_max = max(k_max, float(k.max()))
                fx, fy = eval_dynamics(*args, xs, *u), eval_dynamics(*args, ys, *u)
                f_sup = max(f_sup, float(np.linalg.norm(fx, axis=-1).max()))
                lip_f = max(lip_f, float((np.linalg.norm(fx - fy, axis=-1) / dist).max()))
                k_diff = eval_running_cost(*args, xs, *u) - eval_running_cost(*args, ys, *u)
                lip_k = max(lip_k, float((np.abs(k_diff) / dist).max()))
    return k_min, where, {"k_sup_sampled": k_max, "f_sup_sampled": f_sup,
                          "lipschitz_f": lip_f, "lipschitz_k": lip_k}


SIGNED_COSTS = toy_spec(
    f={(0, 0): "u1 - x0", (0, 1): "u1*u2", (1, 0): "0.5*u2", (1, 1): "sin(3*x0)*u1"},
    k={(0, 0): "1 + x0^2", (0, 1): "x0 - 0.3*u1", (1, 0): "x0 + 0.2*u2 - 0.1*u1",
       (1, 1): "x0^2 + u2"},
    u1=(-1.0, 1.0), u2=(-1.0, 0.0, 1.0), d1=("a", "b"), d2=("c", "d"))


@pytest.mark.parametrize("spec", [game_2d(), load_spec(INVALID["negative_cost"]), SIGNED_COSTS],
                         ids=["game_2d", "negative_cost", "signed_costs"])
def test_sampled_estimates_match_a_per_control_loop(spec):
    for seed in (0, 4):
        k_min, where, estimates = loop_estimates(spec, 48, seed)
        report = validate_a2(spec, samples=48, seed=seed)
        check = report.checks[0]
        assert check.measured == {"k_min": k_min}
        assert check.status == ("pass" if k_min >= 0 else "fail")
        assert check.detail.endswith(f"= {k_min:.6g}" if k_min >= 0 else f" at {where}")
        assert {key: report.estimates[key] for key in estimates} == estimates


def test_subadditivity_gap_value(tmp_path):
    text = MINIMAL + '\n[impulses]\nvectors = [[1.0], [2.0]]\ncosts = [1.0, 1.5]\n'
    spec = load_spec(write(tmp_path, text))
    assert subadditivity_gap(spec) == pytest.approx(0.5)


def test_subadditivity_not_applicable_without_matching_sum(tmp_path):
    text = MINIMAL + '\n[impulses]\nvectors = [[1.0], [0.7]]\ncosts = [1.0, 0.9]\n'
    spec = load_spec(write(tmp_path, text))
    assert math.isinf(subadditivity_gap(spec))
    report = validate_a2(spec, samples=16, seed=0)
    sub = next(c for c in report.checks if c.name == "impulse-subadditivity")
    assert sub.status == "not-applicable"


def test_validation_deterministic_given_seed(impulse_toy):
    spec, _, _ = impulse_toy
    a = validate_a2(spec, samples=64, seed=7)
    b = validate_a2(spec, samples=64, seed=7)
    assert a.to_kv() == b.to_kv()


def test_report_serializations(mode_selection):
    spec, _, _ = mode_selection
    report = validate_a2(spec, samples=16, seed=0)
    assert "verdict: ok" in report.to_text()
    kv = report.to_kv()
    assert "verdict = ok" in kv
    assert kv == "".join(sorted(kv.splitlines(keepends=True)))


# ---------------------------------------------------------------------------
# Lipschitz probe

def test_expanding_generator_warns_but_loads(tmp_path):
    text = MINIMAL.replace("generator = [[0.0]]", "generator = [[-1.0]]")
    with pytest.warns(UserWarning, match="negative eigenvalue"):
        spec = load_spec(write(tmp_path, text))
    report = validate_a2(spec, samples=16, seed=0)
    assert report.mandatory_ok          # a warning, never a rejection
    assert any("eigenvalue" in w for w in report.warnings)
    assert report.estimates["generator_sym_min_eig"] == pytest.approx(-1.0)


def test_lipschitz_constant_map(tmp_path):
    spec = load_spec(write(tmp_path, MINIMAL))
    assert validate_a2(spec, samples=64, seed=0).estimates["lipschitz_f"] == 0.0


def test_lipschitz_linear_slope(tmp_path):
    text = MINIMAL.replace('f = ["0"]', 'f = ["2*x0"]')
    spec = load_spec(write(tmp_path, text))
    est = validate_a2(spec, samples=256, seed=0).estimates["lipschitz_f"]
    assert est == pytest.approx(2.0, abs=1e-9)


def test_lipschitz_sine_bounded_by_one(tmp_path):
    text = MINIMAL.replace('f = ["0"]', 'f = ["sin(x0)"]')
    spec = load_spec(write(tmp_path, text))
    est = validate_a2(spec, samples=512, seed=0).estimates["lipschitz_f"]
    assert est <= 1.0 + 1e-9
    assert est > 0.5


# ---------------------------------------------------------------------------
# switching-cost structure conditions

def test_y1_fails_when_impulses_cheaper(balanced_loop):
    spec, _, _ = balanced_loop
    report = check_y1_y2(spec)
    assert report.c2_min == 1.0
    assert report.l_min == pytest.approx(0.8)
    assert not report.y1_holds       # 1.0 < 0.8 is false
    assert report.y2_holds is False  # the balanced 4-loop


def test_y2_zero_loop_found_for_equal_costs(mode_selection, tmp_path):
    # two modes for each player, every switch costs 1: some 4-loop balances
    text = """
[problem]
dimension = 1
discount = 1.0
d1_labels = ["a", "b"]
d2_labels = ["c", "d"]
u1_levels = [0.0]
u2_levels = [0.0]
generator = [[0.0]]
box = [[-1.0, 1.0]]
"""
    for p1 in ("a", "b"):
        for p2 in ("c", "d"):
            text += f'\n[dynamics."{p1},{p2}"]\nf = ["0"]\n[cost."{p1},{p2}"]\nk = "1"\n'
    text += '\n[switching]\nc1 = [[0.0, 1.0], [1.0, 0.0]]\nc2 = [[0.0, 1.0], [1.0, 0.0]]\n'
    spec = load_spec(write(tmp_path, text))
    report = check_y1_y2(spec)
    assert report.y2_holds is False
    assert any(len(loop) == 4 for loop in report.zero_loops)


def test_y2_vacuous_for_single_player1_mode(mode_selection):
    spec, _, _ = mode_selection
    report = check_y1_y2(spec)
    assert report.y2_holds is True
    assert report.loop_count == 0


def test_y2_holds_for_generic_costs(tmp_path):
    text = """
[problem]
dimension = 1
discount = 1.0
d1_labels = ["a", "b"]
d2_labels = ["c", "d"]
u1_levels = [0.0]
u2_levels = [0.0]
generator = [[0.0]]
box = [[-1.0, 1.0]]
"""
    for p1 in ("a", "b"):
        for p2 in ("c", "d"):
            text += f'\n[dynamics."{p1},{p2}"]\nf = ["0"]\n[cost."{p1},{p2}"]\nk = "1"\n'
    text += '\n[switching]\nc1 = [[0.0, 1.3], [1.7, 0.0]]\nc2 = [[0.0, 0.9], [1.1, 0.0]]\n'
    spec = load_spec(write(tmp_path, text))
    report = check_y1_y2(spec)
    assert report.y2_holds is True
    assert report.loop_count > 0



def test_expressions_compile_once_per_spec(monkeypatch):
    compiled = []
    original = problem.compile_expr

    def counting(expr):
        compiled.append(expr)
        return original(expr)

    monkeypatch.setattr(problem, "compile_expr", counting)
    spec = game_2d()
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (9, 2))
    u = np.linspace(-1.0, 1.0, 9)
    results = {}
    for _ in range(3):
        for (i1, i2) in spec.mode_pairs():
            f = eval_dynamics(spec, i1, i2, x, u, u[::-1])
            k = eval_running_cost(spec, i1, i2, x, 0.5, u)
            assert results.setdefault((i1, i2), (f.tobytes(), k.tobytes())) \
                == (f.tobytes(), k.tobytes())
    expected = [c for pair in spec.mode_pairs() for c in spec.dynamics[pair]] \
        + list(spec.running_cost.values())
    assert len(compiled) == len(expected) == 12
    assert sorted(map(id, compiled)) == sorted(map(id, expected))


def every_rotation_loops(spec):
    """Closed alternating walks enumerated from every start pair, each loop
    walked once from each of its rotations and deduplicated by its least
    rotation: the enumeration ``check_y1_y2`` made before it walked a loop
    only from its least pair.  Returns (zero loops in the order found,
    loop count)."""
    n_pairs = spec.m1 * spec.m2
    zero_loops, seen = [], set()

    def walk(start, current, path, cost1, cost2, used1, used2):
        if len(path) > 1 and current == start and used1 and used2:
            loop = tuple(path[:-1])
            key = min(loop[i:] + loop[:i] for i in range(len(loop)))
            if key not in seen:
                seen.add(key)
                if abs(cost1 - cost2) <= 1e-12:
                    zero_loops.append(list(loop))
        if len(path) - 1 >= n_pairs:
            return
        a, b = current
        for a2 in range(spec.m1):
            if a2 != a:
                walk(start, (a2, b), path + [(a2, b)], cost1 + spec.switch_cost_1[a, a2],
                     cost2, True, used2)
        for b2 in range(spec.m2):
            if b2 != b:
                walk(start, (a, b2), path + [(a, b2)], cost1,
                     cost2 + spec.switch_cost_2[b, b2], used1, True)

    for start in [(a, b) for a in range(spec.m1) for b in range(spec.m2)]:
        walk(start, start, [start], 0.0, 0.0, False, False)
    return zero_loops, len(seen)


@pytest.mark.parametrize("m1, m2, costs", [
    (2, 2, "uniform"), (2, 2, "equal"), (2, 3, "uniform"), (2, 3, "two-valued"),
    (3, 2, "uniform"), (3, 2, "equal"), (2, 4, "uniform"), (2, 4, "two-valued"),
    (3, 3, "two-valued"),
])
def test_loops_walked_from_their_least_pair_are_every_rotations_loops(m1, m2, costs):
    """Walking each loop only from its least mode pair finds the zero loops
    of walks from every rotation, in the same order, and the same loop
    count, with random costs, costs of 1 or 2, and all-equal costs."""
    rng = np.random.default_rng(m1 * 10 + m2)

    def switch_costs(m):
        c = {"uniform": rng.uniform(0.1, 1.0, (m, m)), "equal": np.ones((m, m)),
             "two-valued": rng.choice([1.0, 2.0], (m, m))}[costs]
        np.fill_diagonal(c, 0.0)
        return c

    spec = toy_spec(d1=tuple("abc"[:m1]), d2=tuple("wxyz"[:m2]), c1=switch_costs(m1),
                    c2=switch_costs(m2))
    report = check_y1_y2(spec)
    zero_loops, count = every_rotation_loops(spec)
    assert report.zero_loops == zero_loops
    assert report.loop_count == count and report.y2_holds is (not zero_loops)
    if costs != "uniform":
        assert zero_loops
