import shutil

import numpy as np
import pytest

from hybrid_isaacs import cli, discretize, operators, verify
from hybrid_isaacs.cli import (EXIT_ASSUMPTION, EXIT_MISMATCH, EXIT_NO_CONVERGENCE, EXIT_OK,
                               EXIT_PARSE, EXIT_VERIFY, main, read_value_csv)
from hybrid_isaacs.problem import load_config, load_spec, save_spec

from conftest import BUNDLED, INVALID, game_2d


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
    assert len(residuals) > 10
    manifest = (tmp / "constant_cost.solve-manifest.json").read_text()
    assert '"converged": true' in manifest


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


def test_solve_iteration_cap_exits_3_with_partial_field(workdir, capsys):
    tmp, copy = workdir
    cfg = copy("constant_cost")
    assert run("solve", cfg, "--max-iters", "1") == EXIT_NO_CONVERGENCE
    assert (tmp / "constant_cost.value.csv").exists()
    assert "no convergence" in capsys.readouterr().err


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


# each case maps the lines of a good value file to a broken one: lines[:8]
# are the metadata and the column header, lines[30] a row of the first mode pair
BROKEN_VALUE_FILES = {
    "empty": lambda lines: [],
    "missing metadata line": lambda lines: [ln for ln in lines
                                            if not ln.startswith("# counts")],
    "non-numeric metadata": lambda lines: [ln.replace("# dimension = 1", "# dimension = one")
                                           for ln in lines],
    "label mismatch": lambda lines: [ln.replace("high,low", "low,high") for ln in lines],
    "truncated": lambda lines: lines[:-5],
    "header only": lambda lines: lines[:8],
    "short row": lambda lines: lines[:30] + [lines[30].rsplit(",", 1)[0] + "\n"] + lines[31:],
    "non-numeric value": lambda lines: (lines[:30] + [lines[30].rsplit(",", 1)[0] + ",abc\n"]
                                        + lines[31:]),
    "swapped mode columns": lambda lines: lines[:8] + [_swap_mode_columns(ln)
                                                       for ln in lines[8:]],
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
    expected = [verify.post_impulse_strictness(values, spec, grid,
                                               binding_tol=10 * solver_cfg["tolerance"]),
                verify.dpp_consistency(values, spec, grid, dt=solver_cfg["dt"])]
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
