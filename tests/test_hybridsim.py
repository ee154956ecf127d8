import copy
import math
import re
import warnings

import numpy as np
import pytest

from hybrid_isaacs import hybridsim
from hybrid_isaacs.discretize import (build_tables, drift_bound, interp_weights, interpolate,
                                      make_grid, read_stencils, semigroup_step)
from hybrid_isaacs.exprlang import ExprDomainError
from hybrid_isaacs.hybridsim import (DEFAULT_ACTION_TOL, ChatterError, PolicyDecision, _Policy,
                                     decide, evaluate_cost, rollout_value_gap, simulate)
from hybrid_isaacs.operators import Variant
from hybrid_isaacs.problem import eval_dynamics, eval_running_cost
from hybrid_isaacs.solver import SolverConfig, solve

from conftest import (BUNDLED, full_stencils, game_2d, game_3d, interpolate_many,
                      load_bundled, toy_spec)


@pytest.fixture(scope="module")
def solved_mode_selection():
    spec = toy_spec(k={(0, 0): "2", (0, 1): "0.5"}, d2=("high", "low"),
                    c2=[[0.0, 1.0], [1.0, 0.0]])
    grid = make_grid(spec, 21)
    result = solve(spec, grid, SolverConfig(dt=0.5, tolerance=1e-10))
    return spec, grid, result.values


@pytest.fixture(scope="module")
def solved_constant():
    spec = toy_spec(f="0", k="1", lam=0.5)
    grid = make_grid(spec, 21)
    result = solve(spec, grid, SolverConfig(dt=0.5, tolerance=1e-10))
    return spec, grid, result.values


@pytest.fixture(scope="module")
def solved_impulse_toy(impulse_toy):
    spec, grid_cfg, solver_cfg = impulse_toy
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(dt=solver_cfg["dt"],
                                            tolerance=solver_cfg["tolerance"]))
    return spec, grid, result.values


@pytest.fixture(scope="module")
def solved_balanced_loop(balanced_loop):
    spec, grid_cfg, solver_cfg = balanced_loop
    grid = make_grid(spec, grid_cfg["points"])
    result = solve(spec, grid, SolverConfig(tolerance=solver_cfg["tolerance"]))
    return spec, grid, result.values, result.dt


@pytest.fixture(scope="module")
def solved_2d():
    spec = game_2d()
    grid = make_grid(spec, 11)
    result = solve(spec, grid, SolverConfig(tolerance=1e-9))
    return spec, grid, result.values, result.dt


def reference_decide(spec, grid, values, x, d1, d2, dt, action_tol, variant):
    """The pointwise policy: one interpolation per candidate value and one
    expression walk per control pair."""
    x = np.asarray(x, dtype=float)

    def value(y, i1, i2):
        return interpolate(values[i1, i2], grid, y)

    here = value(x, d1, d2)
    cands = [imp.cost + value(grid.clamp(x + imp.vector), d1, d2) for imp in spec.impulses]
    if cands and min(cands) <= here + action_tol:
        return PolicyDecision("impulse", impulse_index=int(np.argmin(cands)))
    cands = [spec.switch_cost_2[d2, o] + value(x, d1, o) if o != d2 else math.inf
             for o in range(spec.m2)]
    if min(cands) <= here + action_tol:
        return PolicyDecision("switch2", target=int(np.argmin(cands)))
    cands = [value(x, o, d2) - spec.switch_cost_1[d1, o] if o != d1 else -math.inf
             for o in range(spec.m1)]
    if max(cands) >= here - action_tol:
        return PolicyDecision("switch1", target=int(np.argmax(cands)))

    gamma = math.exp(-spec.discount * dt)
    step = semigroup_step(spec.generator, dt)
    q = np.empty((len(spec.u1_levels), len(spec.u2_levels)))
    for a, u1 in enumerate(spec.u1_levels):
        for b, u2 in enumerate(spec.u2_levels):
            foot = grid.clamp(step @ x + dt * eval_dynamics(spec, d1, d2, x, u1, u2))
            k = float(eval_running_cost(spec, d1, d2, x, u1, u2))
            q[a, b] = (1.0 - gamma) / spec.discount * k + gamma * value(foot, d1, d2)
    if variant is Variant.PLUS:
        a = int(q.min(axis=1).argmax())
        b = int(q[a].argmin())
    else:
        b = int(q.max(axis=0).argmin())
        a = int(q[:, b].argmax())
    return PolicyDecision("continue", u1=float(spec.u1_levels[a]), u2=float(spec.u2_levels[b]))


def sample_states(grid, rng):
    """Nodes, off-node points, points on every face, and the box corners."""
    low, high = grid.box[:, 0], grid.box[:, 1]
    nodes = grid.points[rng.choice(grid.n_points, 12, replace=False)]
    inside = rng.uniform(low, high, size=(24, grid.dimension))
    faces = []
    for d in range(grid.dimension):
        for bound in (low, high):
            for y in rng.uniform(low, high, size=(2, grid.dimension)):
                y[d] = bound[d]
                faces.append(y)
    return np.vstack([nodes, inside, faces, low, high])


# balanced_loop's cheapest impulse undercuts every player-2 switch
REACHED = {"solved_balanced_loop": {"continue", "impulse", "switch1"},
           "solved_2d": {"continue", "impulse", "switch1", "switch2"}}


@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
@pytest.mark.parametrize("game", sorted(REACHED))
def test_decide_matches_pointwise_reference(game, variant, request):
    spec, grid, values, dt = request.getfixturevalue(game)
    kinds = set()
    for x in sample_states(grid, np.random.default_rng(3)):
        for d1 in range(spec.m1):
            for d2 in range(spec.m2):
                expected = reference_decide(spec, grid, values, x, d1, d2, dt, 1e-8, variant)
                assert decide(spec, grid, values, x, d1, d2, dt=dt, action_tol=1e-8,
                              variant=variant) == expected, (x, d1, d2)
                kinds.add(expected.kind)
    # the samples reach the game's branches, obstacle-binding states included
    assert kinds == REACHED[game]


# ---------------------------------------------------------------------------
# decide

def test_decide_switches_out_of_dear_mode(solved_mode_selection):
    spec, grid, values = solved_mode_selection
    decision = decide(spec, grid, values, [0.3], 0, 0, dt=0.5, action_tol=1e-8)
    assert decision.kind == "switch2"
    assert decision.target == 1


def test_decide_continues_in_cheap_mode(solved_mode_selection):
    spec, grid, values = solved_mode_selection
    decision = decide(spec, grid, values, [0.3], 0, 1, dt=0.5, action_tol=1e-8)
    assert decision.kind == "continue"


def test_decide_continue_without_obstacles(solved_constant):
    spec, grid, values = solved_constant
    decision = decide(spec, grid, values, [0.0], 0, 0, dt=0.5, action_tol=1e-8)
    assert decision.kind == "continue"
    assert decision.u1 == 0.0 and decision.u2 == 0.0


def test_decide_takes_impulse_far_from_the_well(solved_impulse_toy):
    spec, grid, values = solved_impulse_toy
    decision = decide(spec, grid, values, [4.0], 0, 0, dt=0.5, action_tol=1e-7)
    assert decision.kind == "impulse"
    assert decision.impulse_index == 1   # the long jump straight to the origin

    # brute-force check at the start state: jumping now beats never acting
    never = 4.0            # k(4)/lambda staying forever
    jump_now = 1.5 + 0.0   # long-jump cost + value at the origin
    assert jump_now < never


# ---------------------------------------------------------------------------
# simulate + evaluate_cost

def test_mode_selection_rollout_matches_closed_form(solved_mode_selection):
    spec, grid, values = solved_mode_selection
    horizon = 16.0   # e^{-T} ~ 1e-7
    traj = simulate(spec, grid, values, [0.0], 0, 0, horizon, dt=0.5)
    assert len(traj.switch2_events) == 1
    assert traj.switch2_events[0].time == 0.0
    expected = 1.0 + 0.5 * (1.0 - math.exp(-horizon))
    assert traj.total_cost() == pytest.approx(expected, abs=1e-9)
    assert evaluate_cost(traj, spec.discount) == pytest.approx(expected, abs=1e-9)
    assert abs(traj.total_cost() - 1.5) <= 1e-5


def test_constant_game_rollout_approaches_ratio(solved_constant):
    spec, grid, values = solved_constant
    horizon = 40.0   # e^{-0.5 T} ~ 2e-9
    traj = simulate(spec, grid, values, [0.5], 0, 0, horizon, dt=0.5)
    assert not traj.switch1_events and not traj.switch2_events and not traj.impulse_events
    assert (traj.event_flags == 0).all()
    assert traj.total_cost() == pytest.approx(2.0, abs=1e-7)


def test_zero_dynamics_zero_cost_accumulates_nothing():
    spec = toy_spec(f="0", k="0")
    grid = make_grid(spec, 5)
    values = np.zeros((1, 1, 5))
    traj = simulate(spec, grid, values, [0.2], 0, 0, 5.0, dt=0.5)
    assert traj.total_cost() == 0.0
    assert traj.running_total == 0.0
    np.testing.assert_array_equal(traj.states, 0.2)


def test_impulse_rollout_value(solved_impulse_toy):
    spec, grid, values = solved_impulse_toy
    traj = simulate(spec, grid, values, [4.0], 0, 0, 20.0, dt=0.5)
    assert len(traj.impulse_events) == 1
    ev = traj.impulse_events[0]
    assert ev.time == 0.0 and ev.cost == 1.5
    np.testing.assert_allclose(traj.states[0], 0.0)   # jumped before the first sample
    assert traj.total_cost() == pytest.approx(1.5, abs=1e-6)


def test_accumulators_match_recomputed_cost(solved_impulse_toy):
    spec, grid, values = solved_impulse_toy
    for x0 in (-3.0, -0.6, 1.7, 3.1):
        traj = simulate(spec, grid, values, [x0], 0, 0, 12.0, dt=0.25)
        assert evaluate_cost(traj, spec.discount) == pytest.approx(
            traj.total_cost(), abs=1e-12)


def test_event_times_nondecreasing_and_labels_change(solved_mode_selection):
    spec, grid, values = solved_mode_selection
    traj = simulate(spec, grid, values, [0.0], 0, 0, 8.0, dt=0.5)
    times = [e.time for e in traj.switch2_events]
    assert times == sorted(times)
    for e in traj.switch2_events:
        assert e.from_mode != e.to_mode
    # no diagonal-cost event: every recorded cost is an off-diagonal entry
    for e in traj.switch2_events:
        assert e.cost == spec.switch_cost_2[e.from_mode, e.to_mode]
        assert e.cost > 0


def test_sign_structure_of_cost_terms(solved_mode_selection):
    spec, grid, values = solved_mode_selection
    traj = simulate(spec, grid, values, [0.0], 0, 0, 10.0, dt=0.5)
    base = evaluate_cost(traj, spec.discount)

    dearer2 = copy.deepcopy(traj)
    for e in dearer2.switch2_events:
        e.cost += 0.25
    assert evaluate_cost(dearer2, spec.discount) >= base

    # player-1 switches enter with the opposite sign
    with_p1 = copy.deepcopy(traj)
    from hybrid_isaacs.hybridsim import SwitchEvent
    with_p1.switch1_events.append(SwitchEvent(0.0, 1, 0, 1, 0.3))
    assert evaluate_cost(with_p1, spec.discount) == pytest.approx(base - 0.3, abs=1e-12)

    with_imp = copy.deepcopy(traj)
    from hybrid_isaacs.hybridsim import ImpulseEvent
    tau = math.log(2.0) / spec.discount
    with_imp.impulse_events.append(ImpulseEvent(tau, 0, np.array([0.0]), 1.0))
    assert evaluate_cost(with_imp, spec.discount) == pytest.approx(base + 0.5, abs=1e-12)


def test_discount_monotone_in_horizon(solved_constant):
    spec, grid, values = solved_constant
    costs = [simulate(spec, grid, values, [0.0], 0, 0, T, dt=0.5).total_cost()
             for T in (2.0, 5.0, 10.0, 20.0)]
    assert all(a <= b + 1e-15 for a, b in zip(costs, costs[1:]))


def test_chatter_guard_raises_for_huge_tolerance(solved_impulse_toy):
    spec, grid, values = solved_impulse_toy
    with pytest.raises(ChatterError):
        simulate(spec, grid, values, [4.0], 0, 0, 2.0, dt=0.5, action_tol=10.0)


@pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
def test_unworkable_horizon_rejected(solved_constant, horizon):
    """A negative or nan horizon rolled out no step, an infinite one never
    returned."""
    spec, grid, values = solved_constant
    with pytest.raises(ValueError, match="horizon must be a finite number >= 0"):
        simulate(spec, grid, values, [0.0], 0, 0, horizon, dt=0.5)


@pytest.mark.parametrize("action_tol", [-1.0, math.nan, math.inf])
def test_unworkable_action_tolerance_rejected(solved_mode_selection, action_tol):
    """A negative or nan tolerance let no obstacle bind: mode_selection's
    dear mode never switched out."""
    spec, grid, values = solved_mode_selection
    with pytest.raises(ValueError, match="action_tol must be a finite number >= 0"):
        decide(spec, grid, values, [0.0], 0, 0, dt=0.5, action_tol=action_tol)
    with pytest.raises(ValueError, match="action_tol must be a finite number >= 0"):
        simulate(spec, grid, values, [0.0], 0, 0, 1.0, dt=0.5, action_tol=action_tol)


def _two_by_two_game(field, impulses=()):
    """Four constant value planes (values by mode pair) with unit switch
    costs, no dynamics and unit running cost."""
    spec = toy_spec(d1=("a", "b"), d2=("c", "d"), c1=[[0.0, 1.0], [1.0, 0.0]],
                    c2=[[0.0, 1.0], [1.0, 0.0]], impulses=impulses)
    grid = make_grid(spec, 5)
    values = np.repeat(np.asarray(field, dtype=float)[:, :, None], grid.n_points, axis=2)
    return spec, grid, values


def test_switch_cascade_completes_within_one_instant():
    # from (a, d): player 1 to b, player 2 to c, player 1 back to a, continue
    spec, grid, values = _two_by_two_game([[9.0, 8.5], [7.0, 10.0]])
    traj = simulate(spec, grid, values, [0.3], 0, 1, 1.0, dt=0.5)
    assert [(e.from_mode, e.to_mode) for e in traj.switch1_events] == [(0, 1), (1, 0)]
    assert [(e.from_mode, e.to_mode) for e in traj.switch2_events] == [(1, 0)]
    assert all(e.time == 0.0 for e in traj.switch1_events + traj.switch2_events)
    np.testing.assert_array_equal(traj.event_flags, [[0, 2, 1], [0, 0, 0]])
    np.testing.assert_array_equal(traj.modes, [[0, 0], [0, 0]])
    assert evaluate_cost(traj, spec.discount) == pytest.approx(traj.total_cost(), abs=1e-12)


def test_zero_net_cost_switch_cycle_raises():
    # (a,c) -> (a,d) -> (b,d) -> (b,c) -> (a,c): each player pays 2 per lap.
    # A never-binding impulse lifts the event bound to 8, so the revisit of
    # (a, c) is what stops the cycle, after its four events.
    spec, grid, values = _two_by_two_game([[1.0, 0.0], [0.0, 1.0]],
                                          impulses=(([0.0], 100.0),))
    with pytest.raises(ChatterError, match="after 4 events"):
        simulate(spec, grid, values, [0.0], 0, 0, 1.0, dt=0.5)


def test_states_stay_in_the_box():
    # outward drift from the edge: every sample must stay clamped inside
    spec = toy_spec(f="2", k="x0^2", box=((-1.0, 1.0),))
    grid = make_grid(spec, 21)
    values = solve(spec, grid, SolverConfig(tolerance=1e-8)).values
    traj = simulate(spec, grid, values, [0.9], 0, 0, 5.0, dt=0.1)
    assert (traj.states[:, 0] >= -1.0).all()
    assert (traj.states[:, 0] <= 1.0).all()
    assert traj.states[-1, 0] == 1.0   # parked on the face


def test_2d_rollout_accumulators_match_recomputed_cost(solved_2d):
    spec, grid, values, dt = solved_2d
    starts = [([0.3, -0.7], 0, 1), ([-0.9, 0.9], 1, 0), ([1.0, 0.0], 1, 1), ([0.1, 0.2], 0, 0)]
    events = 0
    for x0, d1, d2 in starts:
        traj = simulate(spec, grid, values, x0, d1, d2, 60 * dt, dt=dt)
        assert traj.steps == 60
        assert traj.states.shape == (60, 2)
        assert evaluate_cost(traj, spec.discount) == pytest.approx(
            traj.total_cost(), abs=1e-12)
        events += int(traj.event_flags.sum())
    assert events > 0


# ---------------------------------------------------------------------------
# rollout-vs-value reports

def test_rollout_gap_mode_selection(solved_mode_selection):
    spec, grid, values = solved_mode_selection
    horizon = 16.0
    report = rollout_value_gap(spec, grid, values,
                               [([0.0], 0, 0), ([0.4], 0, 1)], horizon, dt=0.5)
    tail = math.exp(-horizon) * 2.0
    assert report.max_gap <= 1e-6 + tail
    assert "max gap" in report.to_text()


def test_rollout_gap_constant(solved_constant):
    spec, grid, values = solved_constant
    report = rollout_value_gap(spec, grid, values, [([0.0], 0, 0)], 40.0, dt=0.5)
    assert report.max_gap <= math.exp(-0.5 * 40.0) * 2.0 + 1e-9


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_rollout_steps_with_the_tables_constants(name):
    """The rollout's discount, cost weight and linear factor are the
    tables' bit for bit.  At dt 0.01, e^{-0.01} from ``math.exp`` is 1 ulp
    above the tables' ``np.exp``."""
    spec, grid_cfg, _ = load_bundled(name)
    grid = make_grid(spec, grid_cfg["points"])
    values = np.zeros((spec.m1, spec.m2, grid.n_points))
    policy = _Policy(spec, grid, values, 0.01, DEFAULT_ACTION_TOL, Variant.PLUS)
    tables = build_tables(spec, grid, 0.01)
    for attr in ("gamma", "weight", "step_matrix"):
        assert (np.float64(getattr(policy, attr)).tobytes()
                == np.float64(getattr(tables, attr)).tobytes()), attr


# ---------------------------------------------------------------------------
# the fused decision kernel against the two-build kernel it replaced

def two_build_decide(self, x, d1, d2):
    """The reference kernel: obstacles first, on one stencil build of
    ``[x; clamp(x + xi_j)]`` and one read over every mode pair; only if
    none binds are the expressions evaluated over the control grid, with a
    second build and read on the feet."""
    spec, tol = self.spec, self.action_tol
    if spec.impulses or spec.m1 > 1 or spec.m2 > 1:
        pts = np.empty((1 + len(self.jumps), len(x)))
        pts[0] = x
        pts[1:] = self.grid.clamp(x + self.jumps)
        idx, wts = full_stencils(self.grid, pts)
        v = interpolate_many(self.values, idx, wts)    # (m1, m2, 1 + n_imp)
        here = v[d1, d2, 0]
        if spec.impulses:
            cands = self.jump_costs + v[d1, d2, 1:]
            j = int(np.argmin(cands))
            if cands[j] <= here + tol:
                return PolicyDecision("impulse", impulse_index=j), None, None
        if spec.m2 > 1:
            cands2 = spec.switch_cost_2[d2] + v[d1, :, 0]
            cands2[d2] = math.inf
            o2 = int(np.argmin(cands2))
            if cands2[o2] <= here + tol:
                return PolicyDecision("switch2", target=o2), None, None
        if spec.m1 > 1:
            cands1 = v[:, d2, 0] - spec.switch_cost_1[d1]
            cands1[d1] = -math.inf
            o1 = int(np.argmax(cands1))
            if cands1[o1] >= here - tol:
                return PolicyDecision("switch1", target=o1), None, None

    xs = np.empty((len(x), len(self.u1))).T
    xs[...] = x
    f = eval_dynamics(spec, d1, d2, xs, self.u1, self.u2)
    k = eval_running_cost(spec, d1, d2, xs, self.u1, self.u2)
    feet = self.grid.clamp(self.step_matrix @ x + self.dt * f)
    idx, wts = full_stencils(self.grid, feet)
    q = self.weight * k + self.gamma * interpolate_many(self.values[d1, d2], idx, wts)
    q = q.reshape(len(spec.u1_levels), -1)
    if self.variant is Variant.PLUS:
        a = int(q.min(axis=1).argmax())
        b = int(q[a].argmin())
    else:
        b = int(q.max(axis=0).argmin())
        a = int(q[:, b].argmax())
    pair = a * len(spec.u2_levels) + b
    return (PolicyDecision("continue", u1=float(self.u1[pair]), u2=float(self.u2[pair])),
            float(k[pair]), feet[pair])


def _bundled_game(name):
    spec, grid_cfg, solver_cfg = load_bundled(name)
    return spec, make_grid(spec, grid_cfg["points"]), solver_cfg.get("dt"), solver_cfg["tolerance"]


PARITY_GAMES = {
    "balanced_loop": lambda: _bundled_game("balanced_loop"),
    "impulse_toy": lambda: _bundled_game("impulse_toy"),
    "mode_selection": lambda: _bundled_game("mode_selection"),
    "game_2d": lambda: (game_2d(), make_grid(game_2d(), 11), None, 1e-9),
    "game_3d": lambda: (game_3d(), make_grid(game_3d(), 7), None, 1e-9),
}


def trajectory_bytes(traj):
    """The recorded rollout: times, states, modes, controls, step costs,
    event flags and the four discounted totals."""
    totals = np.array([traj.running_total, traj.switch1_total, traj.switch2_total,
                       traj.impulse_total])
    return b"".join(np.ascontiguousarray(a).tobytes() for a in (
        traj.times, traj.states, traj.modes, traj.controls, traj.step_costs,
        traj.event_flags, totals))


@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
def test_rollouts_match_the_two_build_kernel_byte_for_byte(variant, monkeypatch):
    events = np.zeros(3, dtype=int)
    for name, make in PARITY_GAMES.items():
        spec, grid, dt, tol = make()
        result = solve(spec, grid, SolverConfig(dt=dt, tolerance=tol, variant=variant))
        rng = np.random.default_rng(1)
        for i in range(8):
            x0 = rng.uniform(grid.box[:, 0], grid.box[:, 1])
            d1, d2 = i % spec.m1, i // spec.m1 % spec.m2
            args = (spec, grid, result.values, x0, d1, d2, 40 * result.dt)
            fused = simulate(*args, dt=result.dt, variant=variant)
            with monkeypatch.context() as patch:
                patch.setattr(_Policy, "decide", two_build_decide)
                reference = simulate(*args, dt=result.dt, variant=variant)
            assert trajectory_bytes(fused) == trajectory_bytes(reference), (name, i)
            events += fused.event_flags.sum(axis=0)
    # impulses, player-1 switches and player-2 switches all fire somewhere
    assert (events > 0).all(), events


@pytest.mark.parametrize("game", ["solved_2d", "solved_balanced_loop", "solved_constant"])
def test_each_decision_builds_and_reads_one_stencil_set(game, request, monkeypatch):
    spec, grid, values, *rest = request.getfixturevalue(game)
    dt = rest[0] if rest else 0.5
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hybridsim, "interp_weights", counted("build", interp_weights))
    monkeypatch.setattr(hybridsim, "read_stencils", counted("read", read_stencils))
    policy = _Policy(spec, grid, values, dt, DEFAULT_ACTION_TOL, Variant.PLUS)
    kinds = set()
    for x in sample_states(grid, np.random.default_rng(4)):
        for d1 in range(spec.m1):
            for d2 in range(spec.m2):
                calls.clear()
                kinds.add(policy.decide(x, d1, d2)[0].kind)
                assert calls == ["build", "read"], (x, d1, d2)
    assert "continue" in kinds and (len(kinds) > 1) == (policy.obstacles > 0)


def test_expressions_leave_their_domain_before_an_impulse_fires():
    """The controls are evaluated before the obstacles: a state where the
    running cost leaves its domain raises, though the impulse binds there
    (the two-build kernel returned the impulse)."""
    spec = toy_spec(k="sqrt(x0 + 0.5)", impulses=(([1.0], 0.1),))
    grid = make_grid(spec, 21)
    values = -5.0 * grid.points[:, 0].reshape(1, 1, -1)    # dear on the left
    x = np.array([-0.9])    # 0.1 + V(0.1) = -0.4 undercuts V(-0.9) = 4.5
    policy = _Policy(spec, grid, values, 0.1, DEFAULT_ACTION_TOL, Variant.PLUS)
    assert two_build_decide(policy, x, 0, 0)[0] == PolicyDecision("impulse", impulse_index=0)
    with pytest.raises(ExprDomainError, match="sqrt of a negative value"):
        decide(spec, grid, values, x, 0, 0, dt=0.1)


def test_a_cost_that_overflows_on_the_way_is_inf_without_a_warning():
    """The state drifts right into x0 > 0.887, where exp(800*x0) overflows:
    the rollout and a decision there take the cost as inf, and raise no
    RuntimeWarning."""
    spec = toy_spec(f="1", k="exp(800*x0)")
    grid = make_grid(spec, 11)
    values = np.zeros((1, 1, grid.n_points))
    traj = simulate(spec, grid, values, [0.5], 0, 0, horizon=1.0, dt=0.1)
    assert traj.step_costs[0] < np.inf == traj.step_costs[-1] == traj.running_total
    assert decide(spec, grid, values, [1.0], 0, 0, dt=0.1).kind == "continue"


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_value_field_that_is_not_finite_gives_no_policy(drift_1d, value):
    """A stencil corner of weight 0 on an infinite value reads nan, so
    ``simulate`` and ``decide`` refuse a field that is not finite, as an
    unconverged solve may leave."""
    spec, grid_cfg, _ = drift_1d
    grid = make_grid(spec, 21)
    values = np.zeros((1, 1, grid.n_points))
    values[0, 0, 20] = value
    with pytest.raises(ValueError, match="value field is not finite"):
        simulate(spec, grid, values, [0.0], 0, 0, horizon=1.0)
    with pytest.raises(ValueError, match="value field is not finite"):
        decide(spec, grid, values, [0.0], 0, 0, dt=0.1)


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["skewed"])
def test_the_default_step_is_the_solves(name):
    """Without a ``dt``, ``simulate`` steps at the step ``build_tables``
    picks: the half-cell rule of the drift bound over every node and
    control.  The skewed drift (x0 - x1, 0) peaks at the corners (-1, 1)
    and (1, -1), so its step at 21^2 is 0.025."""
    if name == "skewed":
        spec = toy_spec(f=("x0 - x1", "0"), box=((-1.0, 1.0), (-1.0, 1.0)))
        grid = make_grid(spec, 21)
    else:
        spec, grid_cfg, _ = load_bundled(name)
        grid = make_grid(spec, grid_cfg["points"])
    values = np.zeros((spec.m1, spec.m2, grid.n_points))
    traj = simulate(spec, grid, values, grid.box.mean(axis=1), 0, 0, horizon=0.0)
    assert traj.dt == build_tables(spec, grid).dt
    if name == "skewed":
        assert traj.dt == 0.025


def test_a_default_step_through_an_overflowing_drift_is_refused():
    """exp(800*x0) squared overflows past x0 = 0.444: with no ``dt``,
    ``simulate`` refuses the drift bound at the first such node, with no
    RuntimeWarning, rather than step at 0 for ever."""
    spec = toy_spec(f="exp(800*x0)")
    grid = make_grid(spec, 11)
    values = np.zeros((1, 1, grid.n_points))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(
                "drift norm is not finite in mode (only,only) at u1=0.0, u2=0.0, "
                "x=[0.6000000000000001]")):
            simulate(spec, grid, values, [0.0], 0, 0, horizon=1.0)


def test_a_rollout_report_takes_the_default_step_once(drift_1d, monkeypatch):
    spec, grid_cfg, _ = drift_1d
    grid = make_grid(spec, 21)
    values = np.zeros((1, 1, grid.n_points))
    bounds = []

    def counting(*args):
        bounds.append(args)
        return drift_bound(*args)

    monkeypatch.setattr(hybridsim, "drift_bound", counting)
    report = rollout_value_gap(spec, grid, values, [([x], 0, 0) for x in (-1.0, 0.0, 1.0)],
                               horizon=0.1)
    assert len(report.rows) == 3 and len(bounds) == 1


@pytest.mark.parametrize("dt", [1e-300, 1e-17])
def test_a_step_whose_discount_rounds_to_one_is_refused(drift_1d, dt):
    """A step with no discount would weigh the running cost 0."""
    spec, _, _ = drift_1d
    grid = make_grid(spec, 21)
    with pytest.raises(ValueError, match=f"time step dt = {dt!r} is too short"):
        simulate(spec, grid, np.zeros((1, 1, grid.n_points)), [0.0], 0, 0, 1.0, dt=dt)


@pytest.mark.parametrize("counts", [21, (21, 21), (20, 20)])
def test_a_rollout_through_a_drift_that_is_not_a_number_raises(counts):
    """inf - inf in the drift makes the continue foot nan.  Its cast puts
    the stencil's base off the grid, or, where an even stride wraps it, on
    the grid with nan weights: either way ExprDomainError names the mode
    pair and the state, with no IndexError and no nan state recorded."""
    nan = "exp(800*x0) - exp(800*x0)"
    if isinstance(counts, int):
        spec, x0 = toy_spec(f=nan, box=((-2.0, 2.0),)), [1.5]
    else:
        spec, x0 = toy_spec(f=(nan, "0"), box=((-2.0, 2.0), (-1.0, 1.0))), [1.5, 0.0]
    grid = make_grid(spec, counts)
    values = np.zeros((1, 1, grid.n_points))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ExprDomainError, match=re.escape(f"not a number in mode (only,only) at x={x0}")):
        simulate(spec, grid, values, x0, 0, 0, 0.1, dt=0.1)
