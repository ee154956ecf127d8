"""Tests of the benchmark's own parts: span arithmetic, host-speed
scaling, the workload generator and the correctness gate.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gen
import workloads as wl
from measure import HostSpeed, Timing, Tracer, op_of, self_times, tail
from hybrid_isaacs import problem

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# self time

def span(name, start, end, parent=-1):
    return [name, start, end, parent, "round0"]


def test_self_time_subtracts_children_once():
    spans = [
        span("op.solve", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),     # overlaps a: [1, 5] is covered once
        span("c", 9.0, 12.0, 0),    # sticks out of its parent: only [9, 10] counts
        span("d", 1.5, 2.5, 1),     # grandchild: counts against a, not op.solve
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_self_times_partition_a_traced_call_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op.solve"):          # 0 .. 9
        with tracer.span("build"):         # 1 .. 2
            pass
        for _ in range(2):
            with tracer.span("sweep"):     # 3 .. 4, 5 .. 6
                pass
        with tracer.span("op.inner"):      # 7 .. 8
            pass
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["op.solve", "build", "sweep", "sweep", "op.inner"]
    assert parents == [-1, 0, 0, 0, 0]
    selfs = self_times(tracer.spans)
    assert selfs == [5.0, 1.0, 1.0, 1.0, 1.0]
    assert sum(selfs) == tracer.spans[0][2] - tracer.spans[0][1]
    assert op_of(tracer.spans) == [0, 0, 0, 0, 4]


def test_installed_wrappers_are_removed_on_exit():
    class Module:
        @staticmethod
        def f(x):
            return 2 * x

    tracer = Tracer()
    original = Module.f
    with tracer.installed([(Module, "f", "m.f")]):
        assert Module.f(3) == 6
    assert Module.f is original
    assert [s[0] for s in tracer.spans] == ["m.f"]


def test_tail_is_rank_n_minus_10():
    assert tail(list(range(10))) is None
    pct, value = tail(list(range(20, 0, -1)))  # 1 .. 20
    assert (pct, value) == (50.0, 10)
    pct, value = tail([float(i) for i in range(100)])
    assert pct == 90.0 and sum(v > value for v in range(100)) == 10


class FixedSpeed(HostSpeed):
    """A host-speed probe whose kernels take ``kernel_s[kind]`` and spend
    no real time."""

    def __init__(self, compute_s, memory_s):
        super().__init__(reference_s={"compute": 0.01, "memory": 0.01})
        self.kernel_s = {"compute": compute_s, "memory": memory_s}

    def probe(self, kind, n=1):
        self.samples[kind] += [self.kernel_s[kind]] * n


def test_host_speed_factor_is_reference_over_median_kernel():
    speed = FixedSpeed(0.02, 0.02)
    speed.samples["compute"] = [0.03, 0.02, 0.05, 0.01, 0.02]
    assert speed.factor("compute") == pytest.approx(0.5)
    assert speed.factor("compute", first=3) == pytest.approx(2 / 3)  # of 0.01, 0.02
    real = HostSpeed()
    assert real.compute() == real.compute() and real.memory() == real.memory()


def test_timings_add_and_scale():
    a, b = Timing(1.0, 2.0), Timing(0.5, 0.25)
    assert sum([a, b]) == Timing(1.5, 2.25)
    assert 0.0 + a == a
    assert a / 4 * 2 == Timing(0.5, 1.0)


def test_operations_are_scaled_by_the_kernels_around_them(tmp_path):
    s = wl.Session(seed=1, root=ROOT, workdir=tmp_path, speed=FixedSpeed(0.04, 0.005))
    with s.phase("round", 0, traced=False):
        _, slow = s.timed("x", time.sleep, 0.01)                    # 4x slower host
        _, fast = s.timed("y", time.sleep, 0.01, kind="memory", long=True)   # 2x faster
        s.add("solve_s", slow + fast)
    assert slow.wall >= 0.01 and fast.wall >= 0.01
    assert slow.ref == pytest.approx(slow.wall / 4)
    assert fast.ref == pytest.approx(fast.wall * 2)
    assert s.raw[False]["solve_s"] == [slow.wall + fast.wall]
    assert s.samples[False]["solve_s"] == pytest.approx([slow.ref + fast.ref])
    # the phase: its operations' reference seconds, plus the time between
    # them at the compute kernel's pace
    (wall,) = s.raw[False]["round_wall_s"]
    between = wall - slow.wall - fast.wall
    assert between >= 0
    assert s.samples[False]["round_wall_s"] == pytest.approx([slow.ref + fast.ref + between / 4])
    assert len(s.speed.samples["memory"]) == 2 * wl.Session.LONG_PROBES


# ---------------------------------------------------------------------------
# generator

def test_generator_is_deterministic_per_seed():
    assert gen.grid2d_spec_text(7, 21) == gen.grid2d_spec_text(7, 21)
    assert gen.grid2d_spec_text(7, 21) != gen.grid2d_spec_text(8, 21)
    box = [[-2.0, 2.0], [-2.0, 2.0]]
    assert gen.rollout_starts("7/x", box, 2, 2, 5) == gen.rollout_starts("7/x", box, 2, 2, 5)
    assert gen.rollout_starts("7/x", box, 2, 2, 5) != gen.rollout_starts("8/x", box, 2, 2, 5)


@pytest.mark.parametrize("seed", range(6))
def test_generated_specs_load_and_pass_the_gate(tmp_path, seed):
    path = tmp_path / "game.toml"
    path.write_text(gen.grid2d_spec_text(seed, 21), encoding="utf-8")
    spec = problem.load_spec(path)
    assert (spec.dimension, spec.m1, spec.m2) == (2, 2, 2)
    assert len(spec.u1_levels) == len(spec.u2_levels) == 3
    assert len(spec.impulses) == 3
    report = problem.validate_a2(spec, samples=256, seed=seed)
    assert report.mandatory_ok, report.to_text()
    # no two jumps sum into the menu
    assert not np.isfinite(problem.subadditivity_gap(spec))


# ---------------------------------------------------------------------------
# correctness gate

@pytest.fixture
def small_game(tmp_path):
    s = wl.Session(seed=3, root=ROOT, workdir=tmp_path)
    path = tmp_path / "game.toml"
    path.write_text(gen.grid2d_spec_text(3, 9), encoding="utf-8")
    g = wl.load_game(s, path, "small", n_starts=1)
    wl.solve_game(s, g)
    wl.write_csv(s, g)
    assert (s.gate.attempted, s.gate.failed) == (2, 0), s.gate.problems
    return s, g


def test_clean_round_passes_every_check(small_game):
    s, g = small_game
    wl.solve_game(s, g)
    wl.write_csv(s, g)
    values, _ = wl.read_csv(s, g)
    wl.verify_stored(s, g, values)
    g.dt = 0.1
    wl.roll_out(s, g, values, steps=5)
    wl.roll_out(s, g, values, steps=5)
    assert s.gate.failed == 0, s.gate.problems
    assert s.gate.attempted == 8


def test_corrupted_field_is_counted(small_game):
    s, g = small_game
    bad = g.values.copy()
    bad[0, 0, 4] += 1e-6
    s.gate.record("solve", wl.check_field(s, g, bad, g.tables, True, g.sweeps))
    assert (s.gate.attempted, s.gate.failed) == (3, 1)
    assert s.gate.fail_share == pytest.approx(1 / 3)
    assert any("bytes differ" in p for p in s.gate.problems)
    assert any("certificate" in p for p in s.gate.problems)


def test_corrupted_csv_is_counted(small_game):
    s, g = small_game
    lines = g.csv.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("0,0,"))
    head, _, last = lines[row].rstrip("\n").rpartition(",")
    lines[row] = f"{head},{float(last) + 0.5!r}\n"
    g.csv.write_text("".join(lines), encoding="utf-8")
    wl.read_csv(s, g)
    assert (s.gate.attempted, s.gate.failed) == (3, 1)
    assert "bit for bit" in s.gate.problems[-1]

    g.csv.write_text("# value field\n", encoding="utf-8")
    wl.read_csv(s, g)
    assert (s.gate.attempted, s.gate.failed) == (4, 2)


def test_changed_csv_bytes_are_counted(small_game):
    s, g = small_game
    g.values = g.values + 1.0
    wl.write_csv(s, g)
    assert s.gate.failed == 1
    assert "bytes differ" in s.gate.problems[-1]


# ---------------------------------------------------------------------------
# the command

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-2d",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_benchmark_json_names_match_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} >= {"setup_s", "peak_rss_mb"}
