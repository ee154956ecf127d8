"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Solved fields are shared through a session fixture so the suite stays fast.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hybrid_isaacs.cli import EXIT_ASSUMPTION, main
from hybrid_isaacs.discretize import make_grid
from hybrid_isaacs.hybridsim import rollout_value_gap
from hybrid_isaacs.operators import Variant, isaacs_gap
from hybrid_isaacs.problem import sample_controls
from hybrid_isaacs.solver import SolverConfig, picard, solve
from hybrid_isaacs.verify import (dpp_consistency, obstacle_chain_check, operator_probes,
                                  post_impulse_strictness, two_sided_uniqueness)

from conftest import BUNDLED, INVALID, load_bundled
from test_solver import impulse_game_oracle, mode_game_oracle

BUNDLED_NAMES = ("constant_cost", "mode_selection", "drift_1d", "impulse_toy", "balanced_loop")


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="session")
def solved():
    """name -> (spec, grid, solver config, solve result) for every bundled game."""
    out = {}
    for name in BUNDLED_NAMES:
        spec, grid_cfg, solver_cfg = load_bundled(name)
        grid = make_grid(spec, grid_cfg["points"])
        config = SolverConfig(dt=solver_cfg.get("dt"),
                              tolerance=solver_cfg.get("tolerance", 1e-9))
        result = solve(spec, grid, config)
        assert result.converged, f"bundled spec {name} did not converge"
        out[name] = (spec, grid, config, result)
    return out


def test_criterion_1_constant_cost_closed_form(solved):
    spec, grid_cfg, solver_cfg = load_bundled("constant_cost")
    grid = make_grid(spec, grid_cfg["points"])
    started = time.perf_counter()
    result = solve(spec, grid, SolverConfig(dt=solver_cfg["dt"],
                                            tolerance=solver_cfg["tolerance"]))
    elapsed = time.perf_counter() - started
    err = float(np.abs(result.values - 2.0).max())
    ok = (result.converged and err <= 1e-9 and result.iterations < 2000
          and elapsed < 1.0)
    report(1, ok, f"max |V - 2| = {err:.2e}, {result.iterations} iterations, "
                  f"{elapsed * 1000:.0f} ms on a {grid.n_points}-point grid")


def test_criterion_2_mode_selection_closed_form(solved):
    spec, grid, config, result = solved["mode_selection"]
    oracle = mode_game_oracle([2.0, 0.5], [[0.0, 1.0], [1.0, 0.0]],
                              lam=spec.discount, dt=config.dt)
    err_high = float(np.abs(result.values[0, 0] - 1.5).max())
    err_low = float(np.abs(result.values[0, 1] - 0.5).max())
    err_oracle = max(float(np.abs(result.values[0, 0] - oracle[0]).max()),
                     float(np.abs(result.values[0, 1] - oracle[1]).max()))
    ok = err_high <= 1e-8 and err_low <= 1e-8 and err_oracle <= 1e-8
    report(2, ok, f"|V_high - 1.5| = {err_high:.2e}, |V_low - 0.5| = {err_low:.2e}, "
                  f"vs brute-force oracle {err_oracle:.2e}")


def test_criterion_3_obstacle_chain_everywhere(solved):
    worst = -math.inf
    all_ok = True
    for name in BUNDLED_NAMES:
        spec, grid, config, result = solved[name]
        check = obstacle_chain_check(result.values, spec, grid, tol=1e-9)
        worst = max(worst, check.measured["max_violation"])
        all_ok = all_ok and check.status == "pass"
    report(3, all_ok, f"upper <= V <= min(lower, impulse) on all bundled specs; "
                      f"max violation {worst:.2e} (tolerance 1e-9)")


def test_criterion_4_order_equality_on_separated_spec(solved):
    spec, grid, config, plus = solved["drift_1d"]
    gap = isaacs_gap(*sample_controls(spec, grid.points), costate_samples=16, seed=0)
    minus = solve(spec, grid, SolverConfig(dt=config.dt, tolerance=config.tolerance,
                                           variant=Variant.MINUS))
    diff = float(np.abs(plus.values - minus.values).max())
    ok = gap == 0.0 and minus.converged and diff <= 1e-12
    report(4, ok, f"measured order gap {gap:.1e}; plus-vs-minus field difference "
                  f"{diff:.2e} (tolerance 1e-12)")


def test_criterion_5_two_sided_agreement_everywhere(solved):
    worst_ratio = 0.0
    all_ok = True
    details = []
    for name in BUNDLED_NAMES:
        spec, grid, config, low = solved[name]
        high = picard(spec, grid, replace(config, init="upper"), low.tables)
        check = two_sided_uniqueness(low, high, 10 * config.tolerance)
        all_ok = all_ok and check.status == "pass"
        ratio = check.measured.get("difference", math.inf) / (10 * config.tolerance)
        worst_ratio = max(worst_ratio, ratio)
        details.append(f"{name} {check.measured.get('difference', math.inf):.1e}")
    report(5, all_ok, "zero-init vs upper-init agreement on all bundled specs "
                      f"(incl. the one violating both switching-cost conditions): "
                      f"{'; '.join(details)}")


def test_criterion_6_post_impulse_strictness(solved):
    spec, grid, config, result = solved["impulse_toy"]
    check = post_impulse_strictness(result.values, spec, grid, tol=1e-6,
                                    binding_tol=10 * config.tolerance)
    ok = (check.status == "pass" and check.measured["margin"] == pytest.approx(0.5)
          and check.measured["min_post_gap"] >= 0.5 - 1e-6)
    report(6, ok, f"margin 0.5; {int(check.measured['binding_points'])} binding points; "
                  f"min post-impulse slack {check.measured['min_post_gap']:.6f}")


def test_criterion_7_operator_probes():
    spec, _, _ = load_bundled("drift_1d")   # no obstacles: all probe parts apply
    grid = make_grid(spec, 5)
    check = operator_probes(spec, grid, trials=100, seed=0)
    spec2, _, _ = load_bundled("balanced_loop")  # obstacle-active probes
    grid2 = make_grid(spec2, 5)
    check2 = operator_probes(spec2, grid2, trials=100, seed=0)
    ok = (check.status == "pass" and check2.status == "pass"
          and check.measured["monotone_violations"] == 0
          and check.measured["nonexpansive_violations"] == 0
          and check2.measured["monotone_violations"] == 0
          and check2.measured["nonexpansive_violations"] == 0
          and check.measured["shift_identity_error"] <= 1e-12)
    report(7, ok, "100 seeded field pairs on 5-point grids: 0 order violations, "
                  "0 nonexpansiveness violations, shift identity error "
                  f"{check.measured['shift_identity_error']:.2e}")


def test_criterion_8_multi_step_consistency(solved):
    all_ok = True
    worst = 0.0
    for name in BUNDLED_NAMES:
        spec, grid, config, result = solved[name]
        check = dpp_consistency(result.values, spec, grid, steps=(1, 10, 100),
                                tol=1e-10, tables=result.tables)
        all_ok = all_ok and check.status == "pass"
        eps = check.measured["one_step_residual"]
        for m in (1, 10, 100):
            bound = m * eps + 1e-10
            worst = max(worst, check.measured[f"residual_m{m}"] / bound)
    report(8, all_ok, f"|T^m V - V| <= m*eps + 1e-10 for m in (1, 10, 100) on all "
                      f"bundled specs (worst bound usage {worst:.3f})")


def test_criterion_9_rollout_value_gap(solved):
    spec, grid, config, result = solved["mode_selection"]
    horizon = 14.0   # e^{-lambda T} ~ 8e-7
    mode_report = rollout_value_gap(spec, grid, result.values,
                                    [([0.0], 0, 0), ([0.5], 0, 1)], horizon, dt=0.5)
    spec_d, grid_d, config_d, result_d = solved["drift_1d"]
    drift_report = rollout_value_gap(spec_d, grid_d, result_d.values,
                                     [([-1.5], 0, 0), ([0.0], 0, 0), ([1.2], 0, 0)],
                                     horizon, dt=result_d.dt)
    ok = mode_report.max_gap <= 1e-5 and drift_report.max_relative_gap <= 0.05
    report(9, ok, f"mode-selection |J - V| = {mode_report.max_gap:.2e} (<= 1e-5); "
                  f"smooth drift game relative gap "
                  f"{100 * drift_report.max_relative_gap:.2f}% (reported, <= 5%)")


def test_criterion_10_validation_gates(tmp_path, capsys):
    codes = {}
    for name in ("zero_switch_cost", "subadditivity", "negative_cost"):
        out = tmp_path / name
        out.mkdir()
        codes[f"validate/{name}"] = main(["validate", str(INVALID[name]),
                                          "--out", str(out)])
        codes[f"solve/{name}"] = main(["solve", str(INVALID[name]), "--out", str(out)])
        assert not (out / f"{name}.value.csv").exists(), "solve must be gated"
    capsys.readouterr()
    ok = all(code == EXIT_ASSUMPTION for code in codes.values())
    report(10, ok, f"exit code 2 before any solve for all three violations: "
                   f"{sorted(set(codes.values()))}")
