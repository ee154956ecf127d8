import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hybrid_isaacs import cli, discretize, operators, verify
from hybrid_isaacs.cli import (EXIT_ASSUMPTION, EXIT_MISMATCH, EXIT_NO_CONVERGENCE, EXIT_OK,
                               EXIT_PARSE, EXIT_VERIFY, main, read_value_csv)
from hybrid_isaacs.problem import load_config, load_spec, save_spec

from conftest import BUNDLED, INVALID, game_2d, toy_spec

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workdir(tmp_path):
    """Copy a bundled config into a scratch dir so outputs land there."""
    def copy(name, source=BUNDLED):
        dest = tmp_path / source[name].name
        shutil.copy(source[name], dest)
        return dest
    return tmp_path, copy


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# validate

def test_validate_ok(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("constant_cost")
    assert run("validate", cfg) == EXIT_OK
    assert (tmp / "constant_cost.validation.txt").exists()
    assert (tmp / "constant_cost.validation.kv").exists()
    assert "verdict: ok" in capsys.readouterr().out


def test_validate_zero_switch_cost_exits_2(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("zero_switch_cost", INVALID)
    assert run("validate", cfg) == EXIT_ASSUMPTION
    err = capsys.readouterr().err
    assert "switch-cost" in err


def test_validate_syntax_error_exits_1(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("syntax_error", INVALID)
    assert run("validate", cfg) == EXIT_PARSE
    assert "offset" in capsys.readouterr().err


def test_validate_missing_file_exits_1(tmp_path):
    assert run("validate", tmp_path / "nope.toml") == EXIT_PARSE


# each case maps the text of a good spec to a malformed one, and names a
# piece of the error it must raise
MALFORMED_SPECS = {
    "unterminated string": (lambda t: t.replace('k = "2"', 'k = "2'),
                            "(at line 22, column 7)"),
    "duplicate key": (lambda t: t.replace("dimension = 1", "dimension = 1\ndimension = 1"),
                      "(at line 7, column 14)"),
    "duplicate section": (lambda t: t + "\n[grid]\npoints = [101]\n", "(at line 38, column 6)"),
    "key before any section": (lambda t: "dimension = 1\n" + t,
                               "key 'dimension' is outside any [section]"),
    "boolean": (lambda t: t.replace("dimension = 1", "dimension = true"),
                "[problem] dimension: bool is not"),
    "nan": (lambda t: t.replace("discount = 1.0", "discount = nan"), "[problem] discount: nan"),
    "date": (lambda t: t.replace("discount = 1.0", "discount = 1979-05-27"),
             "[problem] discount: date is not"),
    "time": (lambda t: t.replace("discount = 1.0", "discount = 07:32:00"),
             "[problem] discount: time is not"),
    "inline table": (lambda t: t.replace('k = "2"', 'k = {x = "2"}'),
                     '[cost."only,high"] k: dict is not'),
    "leading point": (lambda t: t.replace("discount = 1.0", "discount = .5"),
                      "(at line 7, column 12)"),
    "trailing point": (lambda t: t.replace("discount = 1.0", "discount = 1."),
                       "(at line 7, column 13)"),
    "deep sum": (lambda t: t.replace('k = "2"', 'k = "%s"' % " + ".join(["x0^2"] * 3000)),
                 'cost."only,high": expression nested deeper than 200 levels'),
    "deep negation": (lambda t: t.replace('k = "2"', 'k = "%s2"' % ("-" * 1200)),
                      'cost."only,high": expression nested deeper than 200 levels'),
    "overflowing number": (lambda t: t.replace('k = "2"', 'k = "min(x0^2, 1e400)"'),
                           "cost.\"only,high\": number '1e400' is too large at offset 10"),
    "scalar impulse costs": (lambda t: t + "\n[impulses]\nvectors = [[1.0]]\ncosts = 1.0\n",
                             "[impulses] costs: expected a list, got 1.0"),
    "scalar impulse vectors": (lambda t: t + "\n[impulses]\nvectors = 1.0\ncosts = [1.0]\n",
                               "[impulses] vectors: expected a list, got 1.0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_exits_1_and_names_it(tmp_path, capsys, case):
    break_text, needle = MALFORMED_SPECS[case]
    path = tmp_path / "broken.toml"
    path.write_text(break_text(BUNDLED["mode_selection"].read_text()))
    assert run("validate", path) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert needle in err, err


# each case maps impulse_toy's text to one with a scalar that is no number
NON_NUMERIC_SCALARS = {
    "discount": (("discount = 1.0", 'discount = "abc"'),
                 "[problem] discount: expected a number, got 'abc'"),
    "impulse cost": (("costs = [1.0, 1.5]", 'costs = ["abc", 1.0]'),
                     "impulses.costs[0]: expected a number, got 'abc'"),
    "discount list": (("discount = 1.0", "discount = [1.0]"),
                      "[problem] discount: expected a number, got [1.0]"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC_SCALARS))
def test_non_numeric_spec_scalar_exits_1_and_names_file_and_key(tmp_path, capsys, case):
    (old, new), needle = NON_NUMERIC_SCALARS[case]
    text = BUNDLED["impulse_toy"].read_text()
    assert text.count(old) == 1
    path = tmp_path / "scalar.toml"
    path.write_text(text.replace(old, new))
    assert run("validate", path) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {path}: {needle}\n"


# ---------------------------------------------------------------------------
# solve

def test_solve_constant_cost_writes_field(workdir):
    tmp, copy = workdir
    cfg = copy("constant_cost")
    assert run("solve", cfg) == EXIT_OK
    spec = load_spec(cfg)
    grid, values = read_value_csv(tmp / "constant_cost.value.csv", spec)
    assert grid.counts == (101,)
    assert np.abs(values - 2.0).max() <= 1e-9
    residuals = (tmp / "constant_cost.residuals.csv").read_text().splitlines()
    assert residuals[0] == "iteration,sup_change"
    manifest = (tmp / "constant_cost.solve-manifest.json").read_text()
    assert '"converged": true' in manifest
    # policy iteration: one residual row per field whose residual was taken
    assert len(residuals) == 1 + json.loads(manifest)["inputs"]["iterations"] > 1


def test_solve_gate_rejects_invalid_before_solving(workdir):
    tmp, copy = workdir
    for name in ("zero_switch_cost", "subadditivity", "negative_cost"):
        cfg = copy(name, INVALID)
        assert run("solve", cfg) == EXIT_ASSUMPTION
        assert not (tmp / f"{name}.value.csv").exists()


def test_solve_variant_flag_changes_nothing_on_separated_spec(workdir):
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("solve", cfg, "--grid", "81", "--variant", "plus") == EXIT_OK
    plus = (tmp / "drift_1d.value.csv").read_bytes()
    assert run("solve", cfg, "--grid", "81", "--variant", "minus") == EXIT_OK
    minus = (tmp / "drift_1d.value.csv").read_bytes()
    assert plus == minus


def test_solve_outputs_are_deterministic(workdir):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("solve", cfg, "--seed", "3") == EXIT_OK
    first = (tmp / "mode_selection.value.csv").read_bytes()
    first_res = (tmp / "mode_selection.residuals.csv").read_bytes()
    assert run("solve", cfg, "--seed", "3") == EXIT_OK
    assert (tmp / "mode_selection.value.csv").read_bytes() == first
    assert (tmp / "mode_selection.residuals.csv").read_bytes() == first_res


# each case swaps mode_selection's ``[solver]`` lines for one of the wrong
# type, or for a number no solve can use
BAD_SOLVER_VALUES = {
    "dt inf": ("dt = inf", "[solver] dt: inf is not a positive finite number"),
    "dt zero": ("dt = 0.0", "[solver] dt: 0.0 is not a positive finite number"),
    "tolerance negative": ("tolerance = -1e-9",
                           "[solver] tolerance: -1e-09 is not a finite number >= 0"),
    "tolerance inf": ("tolerance = inf", "[solver] tolerance: inf is not a finite number >= 0"),
    "iterations zero": ("max_iterations = 0", "[solver] max_iterations: 0 is not a whole number"),
    "iterations inf": ("max_iterations = inf", "[solver] max_iterations: inf is not a whole"),
    "iterations fraction": ("max_iterations = 2.5", "[solver] max_iterations: 2.5 is not a whole"),
    "tolerance list": ("tolerance = [1]", "[solver] tolerance: list is not a number"),
    "dt string": ('dt = "fast"', "[solver] dt: str is not a number"),
    "iterations string": ('max_iterations = "many"', "[solver] max_iterations: str is not"),
    "iterations list": ("max_iterations = [10]", "[solver] max_iterations: list is not"),
    "tolerance bool": ("tolerance = true", "[solver] tolerance: bool is not"),
    "variant int": ("variant = 1", "[solver] variant: 1 is not one of plus, minus"),
    "variant unknown": ('variant = "sideways"', "[solver] variant: 'sideways' is not one of"),
    "init int": ("init = 5", "[solver] init: 5 is not one of zero, upper"),
    "init list": ("init = [1.0]", "[solver] init: [1.0] is not one of zero, upper"),
    "init unknown": ('init = "sideways"', "[solver] init: 'sideways' is not one of"),
}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("case", sorted(BAD_SOLVER_VALUES))
def test_solver_value_of_the_wrong_type_exits_1_and_names_it(tmp_path, capsys, case, command):
    line, needle = BAD_SOLVER_VALUES[case]
    text = BUNDLED["mode_selection"].read_text()
    assert text.endswith("[solver]\ndt = 0.5\ntolerance = 1e-10\n")
    path = tmp_path / "typed.toml"
    path.write_text(text.replace("dt = 0.5\ntolerance = 1e-10", line))
    assert run(command, path) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {needle}") and err.count("\n") == 1, err
    assert not (tmp_path / "typed.value.csv").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "analyze"])
@pytest.mark.parametrize("points, needle", [
    ("21.7", "21.7 is not an int or a list of ints"),
    ("[21.5]", "[21.5] is not an int or a list of ints"),
    ("[[21]]", "[[21]] is not an int or a list of ints"),
    ('"abc"', "'abc' is not an int or a list of ints"),
    ("true", "bool is not a number"),
])
def test_grid_points_of_the_wrong_type_exit_1_and_name_it(tmp_path, capsys, command, points,
                                                           needle):
    path = tmp_path / "typed.toml"
    path.write_text(BUNDLED["mode_selection"].read_text().replace(
        "points = [101]", f"points = {points}"))
    assert run(command, path) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: [grid] points: {needle}") and err.count("\n") == 1
    assert not (tmp_path / "typed.value.csv").exists()


@pytest.mark.parametrize("grid", ["abc", "1.5", "11,"])
def test_grid_flag_that_is_no_count_exits_1_and_names_it(workdir, capsys, grid):
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("solve", cfg, "--grid", grid) == EXIT_PARSE
    assert capsys.readouterr().err == (f"error: --grid: {grid!r} is not an int or a "
                                       "comma-separated list of ints\n")
    assert not (tmp / "drift_1d.value.csv").exists()


# each case is a command, its flags and the error that names the flag
UNWORKABLE_FLAGS = {
    "solve dt inf": ("solve", ("--dt", "inf"), "--dt: inf is not a positive finite number"),
    "solve dt nan": ("solve", ("--dt", "nan"), "--dt: nan is not a positive finite number"),
    "solve dt negative": ("solve", ("--dt", "-0.5"),
                          "--dt: -0.5 is not a positive finite number"),
    "solve tol negative": ("solve", ("--tol", "-1"), "--tol: -1.0 is not a finite number >= 0"),
    "solve tol nan": ("solve", ("--tol", "nan"), "--tol: nan is not a finite number >= 0"),
    "solve tol inf": ("solve", ("--tol", "inf"), "--tol: inf is not a finite number >= 0"),
    "solve iterations": ("solve", ("--max-iters", "-5"),
                         "--max-iters: -5 is not a whole number >= 1"),
    "verify dt inf": ("verify", ("--dt", "inf"), "--dt: inf is not a positive finite number"),
    "verify tol nan": ("verify", ("--tol", "nan"), "--tol: nan is not a finite number >= 0"),
    "verify tol inf": ("verify", ("--tol", "inf"), "--tol: inf is not a finite number >= 0"),
    "verify trials negative": ("verify", ("--trials", "-5"),
                               "--trials: -5 is not a whole number >= 1"),
    "verify trials zero": ("verify", ("--trials", "0"), "--trials: 0 is not a whole number >= 1"),
    "validate samples zero": ("validate", ("--samples", "0"),
                              "--samples: 0 is not a whole number >= 1"),
    "solve samples zero": ("solve", ("--samples", "0"), "--samples: 0 is not a whole number >= 1"),
    "verify samples negative": ("verify", ("--samples", "-3"),
                                "--samples: -3 is not a whole number >= 1"),
    "analyze samples zero": ("analyze", ("--samples", "0"),
                             "--samples: 0 is not a whole number >= 1"),
    "analyze costates negative": ("analyze", ("--costates", "-1"),
                                  "--costates: -1 is not a whole number >= 0"),
    "simulate dt inf": ("simulate", ("--dt", "inf"), "--dt: inf is not a positive finite number"),
    "horizon inf": ("simulate", ("--horizon", "inf"),
                    "--horizon: inf is not a finite number >= 0"),
    "horizon nan": ("simulate", ("--horizon", "nan"),
                    "--horizon: nan is not a finite number >= 0"),
    "horizon negative": ("simulate", ("--horizon", "-1"),
                         "--horizon: -1.0 is not a finite number >= 0"),
    "action tol nan": ("simulate", ("--action-tol", "nan"),
                       "--action-tol: nan is not a finite number >= 0"),
    "action tol negative": ("simulate", ("--action-tol", "-1"),
                            "--action-tol: -1.0 is not a finite number >= 0"),
    "action tol inf": ("simulate", ("--action-tol", "inf"),
                       "--action-tol: inf is not a finite number >= 0"),
    "start word": ("simulate", ("--start", "abc"),
                   "--start: 'abc' is not a comma-separated list of numbers"),
    "start nan": ("simulate", ("--start", "nan"),
                  "--start: 'nan' is not a comma-separated list of numbers"),
}


@pytest.mark.parametrize("case", sorted(UNWORKABLE_FLAGS))
def test_unworkable_number_flag_exits_1_and_names_it(mode_selection_field, tmp_path, capsys,
                                                     monkeypatch, case):
    """Refused before any solve or rollout starts: an infinite horizon
    would never return, a NaN tolerance would sweep to the cap and an
    infinite one stop after one sweep; a NaN or negative action tolerance
    would never let an obstacle bind, and no probe trial pass verify
    without a probe."""
    command, flags, needle = UNWORKABLE_FLAGS[case]
    cfg, _ = mode_selection_field

    def unreached(*args, **kwargs):
        raise AssertionError(f"{case} reached the solver or the rollout")

    for name in ("solve", "simulate", "run_all", "check_field"):
        monkeypatch.setattr(cli, name, unreached)
    values = (cfg.parent / "mode_selection.value.csv",) if command == "simulate" else ()
    assert run(command, cfg, *values, "--out", tmp_path, *flags) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not list(tmp_path.iterdir())


def test_a_zero_horizon_and_a_negative_start_are_valid(tmp_path, capsys, monkeypatch):
    """``--horizon 0`` writes a trajectory of no steps; a start whose first
    coordinate is negative is written ``--start=-0.5,-0.25``, since argparse
    takes ``-0.5,-0.25`` after a space for an option; the help text and the
    README show that form."""
    cfg = tmp_path / "planar.toml"
    cfg.write_text(TWO_D)
    assert run("solve", cfg) == EXIT_OK
    assert run("simulate", cfg, tmp_path / "planar.value.csv", "--horizon", "0") == EXIT_OK
    assert "trajectory: 0 step(s)" in capsys.readouterr().out
    assert run("simulate", cfg, tmp_path / "planar.value.csv", "--start=-0.5,-0.25",
               "--horizon", "1") == EXIT_OK
    row = (tmp_path / "planar.trajectory.csv").read_text().splitlines()[1].split(",")
    assert [float(v) for v in row[1:3]] == [-0.5, -0.25]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        run("simulate", cfg, tmp_path / "planar.value.csv", "--start", "-0.5,-0.25")
    assert "expected one argument" in capsys.readouterr().err
    monkeypatch.setenv("COLUMNS", "200")    # help lines wrap at hyphens when narrow
    with pytest.raises(SystemExit):
        run("simulate", "--help")
    assert "--start=-1.8,-1.9" in " ".join(capsys.readouterr().out.split())
    assert "--start=-1.8,-1.9" in (ROOT / "README.md").read_text()


def test_module_entry_point_returns_the_exit_code(tmp_path):
    """``python -m hybrid_isaacs.cli`` runs the command and exits with its code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "hybrid_isaacs.cli", "solve",
                           str(INVALID["negative_cost"]), "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_ASSUMPTION, done.stderr
    assert done.stderr.startswith("assumption violated: "), done.stderr
    assert not (tmp_path / "negative_cost.value.csv").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("drift", ["exp(800*x0) - exp(800*x0)", "exp(800*x0)"])
def test_a_drift_that_is_not_finite_exits_1_and_names_where(tmp_path, command, drift):
    """A drift that overflows to inf, or to nan as inf - inf, passes
    ``validate`` but not the table build: exit 1 with the first mode pair,
    control pair and node, and no traceback."""
    text = BUNDLED["drift_1d"].read_text()
    path = tmp_path / "blowup.toml"
    path.write_text(text.replace('f = ["0.5*u1 - 0.25*x0"]', f'f = ["{drift}"]')
                    .replace("points = [161]", "points = [21]"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "hybrid_isaacs.cli", command, str(path),
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_PARSE, done.stderr
    assert "Traceback" not in done.stderr
    last = done.stderr.splitlines()[-1]
    assert re.fullmatch(r"error: drift norm is not finite in mode \(only,only\) at "
                        r"u1=-1\.0, u2=-1\.0, x=\[[0-9.]+\]", last), done.stderr
    assert not (tmp_path / "blowup.value.csv").exists()


def test_validate_warns_of_a_drift_that_is_not_finite(tmp_path, capsys):
    """``validate`` passes the spec that ``solve`` and ``verify`` refuse,
    with a warning that names where the drift is first not finite."""
    path = tmp_path / "blowup.toml"
    path.write_text(BUNDLED["drift_1d"].read_text().replace(
        'f = ["0.5*u1 - 0.25*x0"]', 'f = ["exp(800*x0) - exp(800*x0)"]'))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("validate", path) == EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"\n  \[       warning\] drift norm is not finite in mode \(only,only\) "
                     r"at u1=-1\.0, u2=-1\.0, x=\[[0-9.]+\]; solve and verify refuse it\n", out)
    assert "verdict: ok" in out


def test_validate_and_analyze_name_a_running_cost_that_is_not_finite(tmp_path, capsys):
    """drift_1d with a running cost that overflows to inf: ``validate`` and
    ``analyze`` both say, in the same words, where it is first not finite,
    and neither command raises a RuntimeWarning."""
    path = tmp_path / "overflow.toml"
    path.write_text(re.sub(r'k = ".*"', 'k = "1e300*x0^2*1e10"',
                           BUNDLED["drift_1d"].read_text()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("validate", path) == EXIT_OK
        out = capsys.readouterr().out
        assert run("analyze", path) == EXIT_OK
    where = (r"running cost is not finite in mode \(only,only\) at u1=-1\.0, u2=-1\.0, "
             r"x=\[[0-9.]+\]\n")
    found = re.search(r"\n  \[       warning\] (" + where + ")", out)
    assert found
    analyzed = capsys.readouterr().out
    assert "saddle-order gap estimate: 0.0" in analyzed
    assert f"\nwarning: {found.group(1)}" in analyzed


def test_an_overflowing_generator_exits_1(workdir, capsys):
    """A generator whose matrix exponential overflows at the step: ``solve``,
    ``verify`` and ``simulate`` exit 1 with an error line, no traceback."""
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("solve", cfg) == EXIT_OK    # a field for the rollout
    capsys.readouterr()
    cfg.write_text(cfg.read_text().replace("generator = [[0.25]]", "generator = [[-100000.0]]"))
    for argv in (["solve", cfg], ["verify", cfg], ["simulate", cfg, tmp / "drift_1d.value.csv"]):
        with pytest.warns(UserWarning, match="negative eigenvalue"):
            assert run(*argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: matrix exponential overflowed") and err.count("\n") == 1


def test_simulate_through_a_drift_that_is_not_a_number_exits_1(workdir, capsys):
    """A rollout whose continue foot is nan: exit 1 naming the mode pair and
    the state, not an IndexError's traceback."""
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("solve", cfg) == EXIT_OK
    capsys.readouterr()
    cfg.write_text(cfg.read_text().replace('f = ["0.5*u1 - 0.25*x0"]',
                                           'f = ["exp(800*x0) - exp(800*x0)"]'))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("simulate", cfg, tmp / "drift_1d.value.csv", "--start", "1.5",
                   "--dt", "0.0125") == EXIT_PARSE
    assert capsys.readouterr().err == ("error: drift or running cost is not a number in mode "
                                       "(only,only) at x=[1.5]\n")
    # without a step, the default step's drift bound names the first such node
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("simulate", cfg, tmp / "drift_1d.value.csv", "--start", "1.5") == EXIT_PARSE
    assert capsys.readouterr().err == ("error: drift norm is not finite in mode (only,only) at "
                                       "u1=-1.0, u2=-1.0, x=[0.9000000000000004]\n")


def test_simulate_rejects_a_time_step_of_the_wrong_type(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("solve", cfg) == EXIT_OK
    cfg.write_text(cfg.read_text().replace("dt = 0.5", 'dt = "fast"'))
    assert run("simulate", cfg, tmp / "mode_selection.value.csv") == EXIT_PARSE
    assert f"error: {cfg}: [solver] dt: str is not a number" in capsys.readouterr().err


def test_simulate_rejects_a_variant_of_the_wrong_type(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("solve", cfg) == EXIT_OK
    for line, needle in [("variant = 1", "1 is not"), ('variant = "sideways"', "'sideways' is not")]:
        cfg.write_text(BUNDLED["mode_selection"].read_text() + line + "\n")
        assert run("simulate", cfg, tmp / "mode_selection.value.csv") == EXIT_PARSE
        assert (capsys.readouterr().err
                == f"error: {cfg}: [solver] variant: {needle} one of plus, minus\n")


def test_solve_manifest_records_the_table_bytes(workdir):
    tmp, copy = workdir
    for name in ("drift_1d", "impulse_toy"):
        cfg = copy(name)
        assert run("solve", cfg, "--grid", "41") == EXIT_OK
        manifest = json.loads((tmp / f"{name}.solve-manifest.json").read_text())
        spec, _, solver_cfg = load_config(cfg)
        tables = discretize.build_tables(spec, discretize.make_grid(spec, 41),
                                         solver_cfg.get("dt"))
        assert manifest["inputs"]["table_bytes"] == tables.nbytes > 0, name


def test_solve_manifest_records_the_method_and_the_certificate(workdir, capsys):
    """drift_1d meets the nonzero-loop condition and is solved by policy
    iteration with a certificate; balanced_loop has a zero-cost loop, so it
    is solved by Picard iteration from a bracketing copy's policy field,
    one residual row per sweep, and its manifest names the loop in place of
    a certificate and counts the copy's policy steps."""
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("solve", cfg, "--grid", "41") == EXIT_OK
    inputs = json.loads((tmp / "drift_1d.solve-manifest.json").read_text())["inputs"]
    assert (inputs["method"], inputs["uncertified"]) == ("policy", None)
    assert inputs["outer_steps"] > 0 and inputs["krylov_iterations"] > 0
    assert inputs["fallbacks"] >= 0 and 0 <= inputs["certificate"] <= inputs["tolerance"]
    residuals = (tmp / "drift_1d.residuals.csv").read_text().splitlines()
    assert len(residuals) == 1 + inputs["iterations"]

    cfg = copy("balanced_loop")
    assert run("solve", cfg, "--grid", "41") == EXIT_OK
    assert capsys.readouterr().err == ""
    inputs = json.loads((tmp / "balanced_loop.solve-manifest.json").read_text())["inputs"]
    assert (inputs["method"], inputs["certificate"]) == ("bracketed", None)
    assert inputs["uncertified"].startswith("zero-cost switching loop (")
    assert inputs["outer_steps"] > 0 and inputs["krylov_iterations"] > 0
    assert inputs["fallbacks"] >= 0
    residuals = (tmp / "balanced_loop.residuals.csv").read_text().splitlines()
    assert len(residuals) == 1 + inputs["iterations"] > 1


def test_solve_iteration_cap_exits_3_with_partial_field(workdir, capsys):
    """``--max-iters`` caps the Picard loop's sweeps: balanced_loop, which
    has no certificate, ends after one sweep from its bracketing field,
    and the message names that cap.  A policy solve, constant_cost's, is
    capped by residuals per grid, not by the flag."""
    tmp, copy = workdir
    cfg = copy("balanced_loop")
    assert run("solve", cfg, "--max-iters", "1") == EXIT_NO_CONVERGENCE
    assert (tmp / "balanced_loop.value.csv").exists()
    assert "no convergence within 1 Picard sweep(s)" in capsys.readouterr().err
    assert run("solve", copy("constant_cost"), "--max-iters", "1") == EXIT_OK


def test_solve_at_an_unreachable_tolerance_exits_3_at_the_policy_cap(workdir, capsys):
    """At a tolerance of 0, which drift_1d's residual (floored at about
    1e-16) never meets, the policy solve ends after its 32 residuals per
    grid, not after the 100 000 sweeps of ``max_iterations``."""
    tmp, copy = workdir
    start = time.perf_counter()
    assert run("solve", copy("drift_1d"), "--tol", "0") == EXIT_NO_CONVERGENCE
    assert time.perf_counter() - start < 5.0
    assert "no convergence within 32 residuals per grid" in capsys.readouterr().err


def test_a_step_whose_discount_rounds_to_one_exits_1(workdir, capsys):
    """``--dt 1e-17`` gives drift_1d's discount e^(-dt) = 1, which would
    leave the stop rules nothing to divide by: solve and verify exit 1
    naming the step, with no traceback; balanced_loop's likewise."""
    tmp, copy = workdir
    for name, command in [("drift_1d", "solve"), ("drift_1d", "verify"),
                          ("balanced_loop", "solve")]:
        assert run(command, copy(name), "--dt", "1e-17") == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: time step dt = 1e-17 is too short: e^(-1.0 * dt) rounds to 1\n")


def test_a_step_whose_discount_rounds_to_zero_solves(workdir):
    """``--dt 1000`` gives balanced_loop's discount e^(-1000) = 0: its
    Picard loop stops at the tolerance itself."""
    tmp, copy = workdir
    with pytest.warns(UserWarning, match="exceeds box diameter"):
        assert run("solve", copy("balanced_loop"), "--dt", "1000") == EXIT_OK


def test_solve_of_an_overflowing_running_cost_exits_3_at_once(workdir, capsys):
    """drift_1d with a running cost that overflows to inf: every residual
    is nan, and the solve ends at its first one rather than at the cap of
    100 000."""
    tmp, copy = workdir
    cfg = copy("drift_1d")
    cfg.write_text(re.sub(r'k = ".*"', 'k = "1e300*x0^2*1e10"', cfg.read_text()))
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        assert run("solve", cfg) == EXIT_NO_CONVERGENCE
    assert time.perf_counter() - start < 5.0
    assert (tmp / "drift_1d.value.csv").exists()
    assert "no convergence: a change is not finite (last change nan)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_mode_selection_switch_at_zero(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("solve", cfg) == EXIT_OK
    assert run("simulate", cfg, tmp / "mode_selection.value.csv",
               "--start", "0.0", "--d1", "only", "--d2", "high",
               "--horizon", "16", "--dt", "0.5") == EXIT_OK
    out = capsys.readouterr().out
    assert "1 player-2 switch(es)" in out
    traj_lines = (tmp / "mode_selection.trajectory.csv").read_text().splitlines()
    header = traj_lines[0].split(",")
    first = dict(zip(header, traj_lines[1].split(",")))
    assert first["switches2"] == "1"
    # total approaches the closed form 1.5
    summary = (tmp / "mode_selection.simulation.txt").read_text()
    total = float(summary.split("total             = ")[1].split()[0])
    assert abs(total - 1.5) <= 1e-5


def test_simulate_no_event_game_has_empty_flags(workdir):
    tmp, copy = workdir
    cfg = copy("constant_cost")
    assert run("solve", cfg) == EXIT_OK
    assert run("simulate", cfg, tmp / "constant_cost.value.csv",
               "--horizon", "10", "--dt", "0.5") == EXIT_OK
    rows = (tmp / "constant_cost.trajectory.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        # columns: time, x0, d1, d2, u1, u2, impulses, switches1, switches2, ...
        assert fields[6] == "0" and fields[7] == "0" and fields[8] == "0"


def test_simulate_takes_the_solver_step_from_the_spec(workdir):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("solve", cfg) == EXIT_OK
    outputs = []
    for flags in ((), ("--dt", "0.5")):
        assert run("simulate", cfg, tmp / "mode_selection.value.csv", "--d2", "high",
                   "--horizon", "4", *flags) == EXIT_OK
        outputs.append([(tmp / f"mode_selection.{kind}").read_bytes()
                        for kind in ("trajectory.csv", "simulation.txt")])
    assert outputs[0] == outputs[1]


def test_simulate_grid_mismatch_exits_4(workdir):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    other = copy("constant_cost")
    assert run("solve", other) == EXIT_OK
    assert run("simulate", cfg, tmp / "constant_cost.value.csv") == EXIT_MISMATCH


def test_simulate_bad_mode_label_exits_4(workdir):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("solve", cfg) == EXIT_OK
    assert run("simulate", cfg, tmp / "mode_selection.value.csv",
               "--d2", "nonexistent") == EXIT_MISMATCH


@pytest.fixture(scope="module")
def mode_selection_field(tmp_path_factory):
    """A solved mode_selection config and its value file's lines."""
    tmp = tmp_path_factory.mktemp("field")
    cfg = tmp / BUNDLED["mode_selection"].name
    shutil.copy(BUNDLED["mode_selection"], cfg)
    assert run("solve", cfg) == EXIT_OK
    return cfg, (tmp / "mode_selection.value.csv").read_text().splitlines(keepends=True)


def _swap_mode_columns(line):
    d1, d2, rest = line.split(",", 2)
    return f"{d2},{d1},{rest}"


def _move_coordinate(line, x0="9.9"):
    d1, d2, _, value = line.split(",")
    return f"{d1},{d2},{x0},{value}"


# each case maps the lines of a good value file to a broken one: lines[:8]
# are the metadata and the column header, lines[30] a row of the first mode
# pair, and lines[58] its row at node 50, whose x0 is 0.0
BROKEN_VALUE_FILES = {
    "empty": lambda lines: [],
    "missing metadata line": lambda lines: [ln for ln in lines
                                            if not ln.startswith("# counts")],
    "non-numeric metadata": lambda lines: [ln.replace("# dimension = 1", "# dimension = one")
                                           for ln in lines],
    "label mismatch": lambda lines: [ln.replace("high,low", "low,high") for ln in lines],
    "truncated": lambda lines: lines[:-5],
    "cut mid-number": lambda lines: ["".join(lines)[:-12]],
    "header only": lambda lines: lines[:8],
    "short row": lambda lines: lines[:30] + [lines[30].rsplit(",", 1)[0] + "\n"] + lines[31:],
    "non-numeric value": lambda lines: (lines[:30] + [lines[30].rsplit(",", 1)[0] + ",abc\n"]
                                        + lines[31:]),
    "swapped mode columns": lambda lines: lines[:8] + [_swap_mode_columns(ln)
                                                       for ln in lines[8:]],
    "swapped rows": lambda lines: lines[:30] + [lines[31], lines[30]] + lines[32:],
    "moved coordinate": lambda lines: lines[:30] + [_move_coordinate(lines[30])] + lines[31:],
    "negative zero coordinate": lambda lines: (lines[:58] + [_move_coordinate(lines[58], "-0.0")]
                                               + lines[59:]),
    "counts of another dimension": lambda lines: [ln.replace("# counts = 101", "# counts = 5,5")
                                                  for ln in lines],
    "count of one": lambda lines: [ln.replace("# counts = 101", "# counts = 1") for ln in lines],
    "negative count": lambda lines: [ln.replace("# counts = 101", "# counts = -3")
                                     for ln in lines],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BROKEN_VALUE_FILES))
def test_malformed_value_file_exits_4_and_names_it(mode_selection_field, tmp_path,
                                                    capsys, case):
    cfg, lines = mode_selection_field
    path = tmp_path / "broken.value.csv"
    path.write_text("".join(BROKEN_VALUE_FILES[case](lines)))
    for argv in (("simulate", cfg, path, "--out", tmp_path),
                 ("verify", cfg, "--values", path, "--out", tmp_path)):
        assert run(*argv) == EXIT_MISMATCH, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("case, message", [
    ("swapped rows", r"line 31 is not the row of mode pair \(0, 0\) at grid node 22"),
    ("moved coordinate", r"line 31 is not the row of mode pair \(0, 0\) at grid node 22"),
    ("negative zero coordinate", r"line 59 is not the row of mode pair \(0, 0\) at grid node 50"),
    ("swapped mode columns", r"line 110 is not the row of mode pair \(0, 1\) at grid node 0"),
])
def test_a_misplaced_row_is_named_by_its_line(mode_selection_field, tmp_path, case, message):
    """lines[30] is the file's line 31.  With the mode columns swapped, the
    first row out of order is mode pair (0, 1)'s first: 8 header lines and
    101 rows of mode pair (0, 0) come before it."""
    cfg, lines = mode_selection_field
    path = tmp_path / "broken.value.csv"
    path.write_text("".join(BROKEN_VALUE_FILES[case](lines)))
    with pytest.raises(cli.MismatchError, match=f"^{re.escape(str(path))}: {message}$"):
        read_value_csv(path, load_spec(cfg))


TWO_D = """
[problem]
dimension = 2
discount = 1.0
d1_labels = ["only"]
d2_labels = ["only"]
u1_levels = [-1.0, 1.0]
u2_levels = [0.0]
generator = [[0.0, -0.5], [0.5, 0.0]]
box = [[-1.0, 1.0], [-1.0, 1.0]]

[dynamics."only,only"]
f = ["0.2*u1 - 0.3*x0", "-0.3*x1"]

[cost."only,only"]
k = "x0^2 + x1^2 + 0.05*(1 + u1)"

[grid]
points = [17, 17]

[solver]
tolerance = 1e-8
"""


def test_two_dimensional_solve_and_simulate_roundtrip(tmp_path):
    cfg = tmp_path / "planar.toml"
    cfg.write_text(TWO_D)
    assert run("solve", cfg) == EXIT_OK
    spec = load_spec(cfg)
    grid, values = read_value_csv(tmp_path / "planar.value.csv", spec)
    assert grid.counts == (17, 17)
    assert np.isfinite(values).all()
    assert run("simulate", cfg, tmp_path / "planar.value.csv",
               "--start", "0.5,-0.5", "--horizon", "12") == EXIT_OK
    header = (tmp_path / "planar.trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("time,x0,x1,d1,d2,")


def test_a_single_point_count_spans_every_axis(tmp_path):
    """``points = 11`` and ``--grid 11`` on a 2-D spec solve on the grid
    ``points = [11, 11]`` gives, not on a 1-D grid that does not fit."""
    csvs = {}
    for case, points, argv in (("list", [11, 11], ()), ("scalar", 11, ()),
                               ("flag", [5, 7], ("--grid", "11"))):
        out = tmp_path / case
        out.mkdir()
        cfg = out / "game.toml"
        save_spec(game_2d(), cfg, grid={"points": points})
        assert run("solve", cfg, *argv) == EXIT_OK, case
        csvs[case] = (out / "game.value.csv").read_bytes()
    assert csvs["scalar"] == csvs["list"] == csvs["flag"]


# ---------------------------------------------------------------------------
# verify

def test_verify_bundled_specs_pass(workdir):
    tmp, copy = workdir
    for name in sorted(BUNDLED):
        cfg = copy(name)
        assert run("verify", cfg, "--trials", "20") == EXIT_OK, name
        report = (tmp / f"{name}.verification.kv").read_text()
        assert "overall = pass" in report


def test_verify_broken_field_exits_5(workdir):
    tmp, copy = workdir
    cfg = copy("impulse_toy")
    assert run("solve", cfg) == EXIT_OK
    value_path = tmp / "impulse_toy.value.csv"
    lines = value_path.read_text().splitlines(keepends=True)
    # corrupt one value row far beyond any tolerance
    row = lines[60].split(",")
    row[-1] = "9.9000000000000000e+01\n"
    lines[60] = ",".join(row)
    value_path.write_text("".join(lines))
    assert run("verify", cfg, "--values", value_path) == EXIT_VERIFY


def with_one_value(value_path, bad):
    """The value CSV with its node 60 (a data row) set to ``bad``."""
    lines = value_path.read_text().splitlines(keepends=True)
    lines[60] = lines[60].rsplit(",", 1)[0] + f",{bad}\n"
    value_path.write_text("".join(lines))


def run_cli(*argv):
    """The command in a fresh interpreter, as a user runs it: what it
    writes to standard error is what they see."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "hybrid_isaacs.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_verify_a_field_that_is_not_finite_exits_5(workdir, bad):
    """One value that is not a number or not finite makes the multi-step
    residuals nan, which fails the check and reads as a nan ratio, and
    numpy warns of none of the arithmetic that gives them."""
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("solve", cfg) == EXIT_OK
    value_path = tmp / "drift_1d.value.csv"
    with_one_value(value_path, bad)
    done = run_cli("verify", cfg, "--values", value_path, "--out", tmp)
    assert done.returncode == EXIT_VERIFY, done.stderr
    assert done.stderr == ""
    report = (tmp / "drift_1d.verification.kv").read_text()
    assert "check.multi-step-consistency = fail" in report
    assert "vs m*eps+tol (worst ratio nan)" in done.stdout


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_verify_the_chain_of_a_field_that_is_not_finite_exits_5(workdir, bad):
    """The obstacle chain alone fails a field with one value that is not
    finite, and names that value's node."""
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("solve", cfg) == EXIT_OK
    value_path = tmp / "mode_selection.value.csv"
    with_one_value(value_path, bad)
    done = run_cli("verify", cfg, "--values", value_path, "--suite", "chain", "--out", tmp)
    assert done.returncode == EXIT_VERIFY, done.stderr
    assert done.stderr == ""
    spec = load_spec(cfg)
    grid, values = read_value_csv(value_path, spec)
    node = np.unravel_index(int(np.flatnonzero(~np.isfinite(values))[0]), values.shape)
    assert (f"[          fail] obstacle-chain -- max violation inf: value {bad} is not finite "
            f"({verify._where(spec, grid, node)})") in done.stdout
    report = (tmp / "mode_selection.verification.kv").read_text()
    assert "check.obstacle-chain.max_violation = inf" in report


def test_probes_let_an_unavoidable_infinite_cost_agree(tmp_path, capsys):
    """k = exp(800*x0) is +inf past x0 = 0.887 whatever the controls, so
    both probe fields sweep to +inf there: equal infinities agree, with no
    RuntimeWarning, and the probes pass."""
    cfg = tmp_path / "inf_cost.toml"
    save_spec(toy_spec(k="exp(800*x0)"), cfg, grid={"points": 11})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("verify", cfg, "--suite", "probes", "--trials", "5") == EXIT_OK
    assert "operator-probes" in capsys.readouterr().out
    kv = (tmp_path / "inf_cost.verification.kv").read_text()
    assert "check.operator-probes = pass" in kv
    assert "check.operator-probes.nonexpansive_violations = 0.0000000000000000e+00" in kv
    assert "nan" not in kv


def test_verify_values_uses_the_solving_operator(workdir):
    """``--values`` checks a stored field against the operator it was solved
    with: the configured dt (0.5 for impulse_toy, not the default step) and
    binding within 10x the configured tolerance."""
    tmp, copy = workdir
    cfg = copy("impulse_toy")
    assert run("solve", cfg) == EXIT_OK
    assert run("verify", cfg, "--values", tmp / "impulse_toy.value.csv") == EXIT_OK
    spec, _, solver_cfg = load_config(cfg)
    grid, values = read_value_csv(tmp / "impulse_toy.value.csv", spec)
    assert solver_cfg["dt"] == 0.5
    tables = discretize.build_tables(spec, grid, solver_cfg["dt"])
    expected = [verify.post_impulse_strictness(values, spec, grid,
                                               binding_tol=10 * solver_cfg["tolerance"]),
                verify.dpp_consistency(values, spec, grid, tables=tables)]
    kv = (tmp / "impulse_toy.verification.kv").read_text()
    for check in expected:
        block = [line for line in kv.splitlines() if line.startswith(f"check.{check.name}")]
        assert block == sorted([f"check.{check.name} = {check.status}",
                                f"check.{check.name}.tolerance = {check.tolerance:.16e}"]
                               + [f"check.{check.name}.{key} = {value:.16e}"
                                  for key, value in check.measured.items()])


def test_verify_values_builds_the_tables_once(workdir, monkeypatch):
    tmp, copy = workdir
    cfg = copy("impulse_toy")
    assert run("solve", cfg) == EXIT_OK
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2:])
        return discretize.build_tables(*args, **kwargs)

    for module in (cli, verify, operators):
        monkeypatch.setattr(module, "build_tables", counting)
    assert run("verify", cfg, "--values", tmp / "impulse_toy.value.csv") == EXIT_OK
    assert calls == [(0.5,)]


def test_verify_isaacs_suite_skips_on_coupled_spec(workdir, tmp_path, capsys):
    text = (BUNDLED["constant_cost"].read_text()
            .replace('u1_levels = [0.0]', 'u1_levels = [-1.0, 1.0]')
            .replace('u2_levels = [0.0]', 'u2_levels = [-1.0, 1.0]')
            .replace('f = ["0"]', 'f = ["u1*u2"]'))
    cfg = tmp_path / "coupled.toml"
    cfg.write_text(text)
    assert run("verify", cfg, "--suite", "isaacs", "--grid", "11") == EXIT_OK
    out = capsys.readouterr().out
    assert "skipped" in out


def test_verify_report_deterministic(workdir):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("verify", cfg, "--seed", "9", "--trials", "10") == EXIT_OK
    first = (tmp / "mode_selection.verification.kv").read_bytes()
    assert run("verify", cfg, "--seed", "9", "--trials", "10") == EXIT_OK
    assert (tmp / "mode_selection.verification.kv").read_bytes() == first


# ---------------------------------------------------------------------------
# analyze

def test_analyze_balanced_loop_reports_failures_but_exits_0(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("balanced_loop")
    assert run("analyze", cfg, "--grid", "41") == EXIT_OK
    out = capsys.readouterr().out
    assert "cheaper-switching condition: fails" in out
    assert "nonzero-loop condition: fails" in out


def test_analyze_separated_spec_zero_gap(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("analyze", cfg, "--grid", "41") == EXIT_OK
    out = capsys.readouterr().out
    assert "orders agree on the sample" in out


def test_analyze_mode_selection_vacuous_loop_condition(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("mode_selection")
    assert run("analyze", cfg) == EXIT_OK
    out = capsys.readouterr().out
    assert "nonzero-loop condition: holds" in out


def test_analyze_takes_the_least_counts(workdir, capsys):
    """One sample and no costate draws beyond the canonical ones are valid."""
    tmp, copy = workdir
    cfg = copy("drift_1d")
    assert run("analyze", cfg, "--grid", "11", "--samples", "1", "--costates", "0") == EXIT_OK
    assert "orders agree on the sample" in capsys.readouterr().out
