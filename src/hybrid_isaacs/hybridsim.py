"""Feedback policies from a solved value field, trajectory rollout, and
discounted cost accounting.

The policy at a state checks the obstacles in a fixed priority order
(impulse, then player-2 switch, then player-1 switch) and otherwise plays
the saddle of the one-step continue values over the control grids, with one
pass over each expression, one stencil build and one read per decision.
Events are instantaneous, and a cascade of them at one instant may neither
return to a (modes, state) it held (the policy is deterministic, so it
would chatter forever) nor exceed ``m1*m2*(1 + n_impulses)`` events.
Without a given step, a rollout steps as ``solve`` does by default:
``default_time_step`` of the drift bound over every grid node and control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import (GridSpec, default_time_step, drift_bound, interp_weights,
                         interpolate, read_stencils, step_constants)
from .exprlang import ExprDomainError
from .operators import _ARGS, _SADDLE, Variant
from .problem import ProblemSpec, eval_dynamics, eval_running_cost

__all__ = [
    "PolicyDecision",
    "SwitchEvent",
    "ImpulseEvent",
    "HybridTrajectory",
    "ChatterError",
    "decide",
    "simulate",
    "evaluate_cost",
    "rollout_value_gap",
    "RolloutReport",
]

CONTINUE = "continue"
SWITCH1 = "switch1"
SWITCH2 = "switch2"
IMPULSE = "impulse"

# ten times the default solver tolerance: binding detection must sit above
# fixed-point noise
DEFAULT_ACTION_TOL = 1e-8


class ChatterError(RuntimeError):
    """The events at one instant revisit a (modes, state) or exceed
    ``m1*m2*(1 + n_impulses)``: the binding tolerance is too large for this field."""


@dataclass(frozen=True)
class PolicyDecision:
    kind: str
    u1: float | None = None
    u2: float | None = None
    target: int | None = None          # mode index for switches
    impulse_index: int | None = None


@dataclass
class SwitchEvent:
    time: float
    player: int
    from_mode: int
    to_mode: int
    cost: float


@dataclass
class ImpulseEvent:
    time: float
    index: int
    vector: np.ndarray
    cost: float


@dataclass
class HybridTrajectory:
    """Step-sampled rollout record with per-term discounted accumulators.

    Rows describe the state after any same-instant events: ``states[n]`` is
    the position at time ``times[n]`` from which controls ``controls[n]``
    act over the next step, incurring running cost ``step_costs[n]``.
    """

    dt: float
    discount: float
    times: np.ndarray
    states: np.ndarray        # (steps, n)
    modes: np.ndarray         # (steps, 2) int
    controls: np.ndarray      # (steps, 2)
    step_costs: np.ndarray    # (steps,) running-cost samples k(...)
    event_flags: np.ndarray   # (steps, 3) ints: impulses, p1 switches, p2 switches
    switch1_events: list[SwitchEvent] = field(default_factory=list)
    switch2_events: list[SwitchEvent] = field(default_factory=list)
    impulse_events: list[ImpulseEvent] = field(default_factory=list)
    running_total: float = 0.0    # discounted integral of k
    switch1_total: float = 0.0    # discounted player-1 switching outlay (enters J with -)
    switch2_total: float = 0.0    # discounted player-2 switching outlay (enters J with +)
    impulse_total: float = 0.0    # discounted impulse outlay (enters J with +)

    @property
    def steps(self) -> int:
        return len(self.times)

    def total_cost(self) -> float:
        return (self.running_total - self.switch1_total
                + self.switch2_total + self.impulse_total)


class _Policy:
    """Batched decision kernel for a fixed (field, grid, step) context.

    Controls first: the mode pair's dynamics and running cost are evaluated
    once over the whole control grid (the expressions a pointwise walk
    evaluates, so ExprDomainError is raised at every state the policy sees,
    also where an obstacle binds).  Then one stencil build on
    ``[x; clamp(x + xi_j); feet]`` and one read over every mode pair yield
    the local value, every switch and impulse candidate and every continue
    foot's value.  ``continue`` returns the chosen pair's cost and foot,
    which is the next state.
    """

    def __init__(self, spec: ProblemSpec, grid: GridSpec, values: np.ndarray,
                 dt: float, action_tol: float, variant: Variant):
        if not 0 <= action_tol < math.inf:
            raise ValueError(f"action_tol must be a finite number >= 0, got {action_tol!r}")
        self.spec = spec
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if not np.isfinite(self.values).all():  # 0 * inf reads nan where a weight is 0
            raise ValueError("the value field is not finite; it gives no policy")
        self.dt = dt
        self.action_tol = action_tol
        self.variant, self.saddle = variant, _SADDLE[variant]
        self.gamma, self.weight, self.step_matrix = step_constants(spec, dt)
        # the control grid flattened: pair (a, b) sits at a*nu2 + b
        self.u1 = np.repeat(spec.u1_levels, len(spec.u2_levels))
        self.u2 = np.tile(spec.u2_levels, len(spec.u1_levels))
        self.jumps = np.reshape([imp.vector for imp in spec.impulses], (-1, spec.dimension))
        self.jump_costs = np.array([imp.cost for imp in spec.impulses])
        # rows of x and its jump landings, read only when an obstacle can bind
        binds = spec.impulses or spec.m1 > 1 or spec.m2 > 1
        self.obstacles = 1 + len(self.jumps) if binds else 0

    def decide(self, x: np.ndarray, d1: int, d2: int):
        """(decision, running cost, next state); the last two are None
        unless the decision is ``continue``."""
        spec, tol, obs = self.spec, self.action_tol, self.obstacles
        # x over the control grid as contiguous arrays: a broadcast
        # (stride-0) input may take another SIMD loop and round differently
        xs = np.empty((len(x), len(self.u1))).T
        xs[...] = x
        f = eval_dynamics(spec, d1, d2, xs, self.u1, self.u2)
        k = eval_running_cost(spec, d1, d2, xs, self.u1, self.u2)
        pts = np.empty((obs + len(k), len(x)))
        pts[:obs] = x
        pts[1:obs] += self.jumps
        pts[obs:] = self.step_matrix @ x + self.dt * f
        pts = self.grid.clamp(pts)
        base, wts = interp_weights(self.grid, pts)
        try:
            v = read_stencils(self.values, base, wts, self.grid)    # (m1, m2, obs + nu1*nu2)
        except IndexError:  # a nan coordinate casts to a base off the grid: read nan
            v = np.full(self.values.shape[:2] + (len(pts),), math.nan)
        here = v[d1, d2, 0]
        if spec.impulses:
            cands = self.jump_costs + v[d1, d2, 1:obs]
            j = int(cands.argmin())
            if cands[j] <= here + tol:
                return PolicyDecision(IMPULSE, impulse_index=j), None, None
        if spec.m2 > 1:
            cands2 = spec.switch_cost_2[d2] + v[d1, :, 0]
            cands2[d2] = math.inf
            o2 = int(cands2.argmin())
            if cands2[o2] <= here + tol:
                return PolicyDecision(SWITCH2, target=o2), None, None
        if spec.m1 > 1:
            cands1 = v[:, d2, 0] - spec.switch_cost_1[d1]
            cands1[d1] = -math.inf
            o1 = int(cands1.argmax())
            if cands1[o1] >= here - tol:
                return PolicyDecision(SWITCH1, target=o1), None, None

        q = self.weight * k + self.gamma * v[d1, d2, obs:]
        q = q.reshape(len(spec.u1_levels), -1)
        # _SADDLE's axes -3 (u1) and -2 (u2) are q's -2 and -1; ``rows`` has the
        # outer player's control first, and the inner player replies to it
        (axis, inner), (_, outer) = self.saddle
        rows = q if axis == -2 else q.T
        o = int(_ARGS[outer](inner(rows, axis=-1)))
        i = int(_ARGS[inner](rows[o]))
        if rows[o, i] != rows[o, i]:  # the saddle picks a nan wherever q holds one
            raise ExprDomainError(f"drift or running cost is not a number in mode "
                                  f"({spec.d1_labels[d1]},{spec.d2_labels[d2]}) at x={x.tolist()}")
        a, b = (o, i) if axis == -2 else (i, o)
        pair = a * len(spec.u2_levels) + b
        return (PolicyDecision(CONTINUE, u1=float(self.u1[pair]), u2=float(self.u2[pair])),
                float(k[pair]), pts[obs + pair])


@np.errstate(over="ignore", invalid="ignore")  # a saddle that reads nan raises
def decide(spec: ProblemSpec, grid: GridSpec, values: np.ndarray, x, d1: int, d2: int,
           dt: float, action_tol: float = DEFAULT_ACTION_TOL,
           variant: Variant = Variant.PLUS) -> PolicyDecision:
    """One feedback decision at state ``x`` in modes (d1, d2).

    Obstacles are checked in the order impulse, player-2 switch, player-1
    switch, each binding when within ``action_tol`` of the local value; ties
    inside a category resolve to the lowest index.  Otherwise the saddle
    controls of the one-step continue table are returned.  The mode pair's
    dynamics and running cost are evaluated over the control grid before
    any obstacle is checked, so a state where they leave their domain
    raises ExprDomainError even where an event would fire.  An
    ``action_tol`` that is negative, nan or infinite is a ValueError.
    """
    policy = _Policy(spec, grid, values, dt, action_tol, variant)
    return policy.decide(np.asarray(x, dtype=float), d1, d2)[0]


@np.errstate(over="ignore", invalid="ignore")  # a saddle that reads nan raises
def simulate(spec: ProblemSpec, grid: GridSpec, values: np.ndarray, x0, d1: int, d2: int,
             horizon: float, dt: float | None = None,
             action_tol: float = DEFAULT_ACTION_TOL,
             variant: Variant = Variant.PLUS) -> HybridTrajectory:
    """Roll the feedback policy out to ``horizon``.

    Events fire at the current instant without advancing the clock, and any
    cascade of them may fire before the step's controls act.  A cascade
    that returns to a (d1, d2, x) it already held would repeat forever, and
    one longer than ``m1*m2*(1 + n_impulses)`` events is taken for the same;
    both raise ChatterError, which indicates ``action_tol`` is too coarse.
    Each decision evaluates the mode pair's expressions first, so any state
    visited where they leave their domain, or where the continue step reads
    a nan drift or cost, raises ExprDomainError.  A ``horizon`` or
    ``action_tol`` that is negative, nan or infinite is a ValueError.
    ``dt`` of None is the solve's default step on ``grid`` (see ``drift_bound``);
    a step whose discount rounds to 1 is a ValueError.
    """
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be a finite number >= 0, got {horizon!r}")
    if dt is None:
        dt = default_time_step(grid, drift_bound(spec, grid))
    policy = _Policy(spec, grid, values, dt, action_tol, variant)

    x = grid.clamp(np.asarray(x0, dtype=float))
    times, states, modes, controls, step_costs, flags = [], [], [], [], [], []
    traj = HybridTrajectory(dt, spec.discount, *[np.empty(0)] * 6)    # arrays filled in below

    n, t = 0, 0.0
    while t < horizon - 1e-12:
        held = {}    # (d1, d2, x) -> the event taken there at this instant
        disc = math.exp(-spec.discount * t)
        while True:
            decision, k_val, x_next = policy.decide(x, d1, d2)
            if decision.kind == CONTINUE:
                break
            here = (d1, d2, tuple(x.tolist()))
            if here in held or len(held) == spec.m1 * spec.m2 * (1 + len(spec.impulses)):
                raise ChatterError(f"{decision.kind} request at t={t:.6g} after {len(held)} "
                                   "events; action_tol is too large for this field")
            held[here] = decision.kind
            if decision.kind == IMPULSE:
                imp = spec.impulses[decision.impulse_index]
                traj.impulse_events.append(ImpulseEvent(t, decision.impulse_index,
                                                        imp.vector, imp.cost))
                traj.impulse_total += disc * imp.cost
                x = grid.clamp(x + imp.vector)
            elif decision.kind == SWITCH2:
                cost = float(spec.switch_cost_2[d2, decision.target])
                traj.switch2_events.append(SwitchEvent(t, 2, d2, decision.target, cost))
                traj.switch2_total += disc * cost
                d2 = decision.target
            else:
                cost = float(spec.switch_cost_1[d1, decision.target])
                traj.switch1_events.append(SwitchEvent(t, 1, d1, decision.target, cost))
                traj.switch1_total += disc * cost
                d1 = decision.target

        times.append(t)
        states.append(x.copy())
        modes.append((d1, d2))
        controls.append((decision.u1, decision.u2))
        step_costs.append(k_val)
        kinds = list(held.values())
        flags.append([kinds.count(kind) for kind in (IMPULSE, SWITCH1, SWITCH2)])
        traj.running_total += disc * policy.weight * k_val

        x = x_next
        n += 1
        t = n * dt

    traj.times = np.asarray(times)
    traj.states = np.asarray(states).reshape(len(times), spec.dimension)
    traj.modes = np.asarray(modes, dtype=int).reshape(len(times), 2)
    traj.controls = np.asarray(controls).reshape(len(times), 2)
    traj.step_costs = np.asarray(step_costs)
    traj.event_flags = np.asarray(flags, dtype=int).reshape(len(times), 3)
    return traj


def evaluate_cost(traj: HybridTrajectory, discount: float) -> float:
    """Recompute the four-term discounted cost from the trajectory record.

    Independent of the accumulators filled during simulation: discounts are
    re-derived from event times and the recorded raw magnitudes.
    """
    gamma_w = (1.0 - math.exp(-discount * traj.dt)) / discount
    running = sum(math.exp(-discount * t) * gamma_w * k
                  for t, k in zip(traj.times, traj.step_costs))
    c1 = sum(math.exp(-discount * e.time) * e.cost for e in traj.switch1_events)
    c2 = sum(math.exp(-discount * e.time) * e.cost for e in traj.switch2_events)
    imp = sum(math.exp(-discount * e.time) * e.cost for e in traj.impulse_events)
    return running - c1 + c2 + imp


@dataclass
class RolloutRow:
    start: tuple
    value: float
    cost: float

    @property
    def gap(self) -> float:
        return abs(self.cost - self.value)

    @property
    def relative_gap(self) -> float:
        return self.gap / max(abs(self.value), 1e-12)


@dataclass
class RolloutReport:
    rows: list[RolloutRow]
    horizon: float

    @property
    def max_gap(self) -> float:
        return max((r.gap for r in self.rows), default=0.0)

    @property
    def max_relative_gap(self) -> float:
        return max((r.relative_gap for r in self.rows), default=0.0)

    def to_text(self) -> str:
        lines = [f"rollout-vs-value report (horizon {self.horizon:g})"]
        for r in self.rows:
            lines.append(f"  start {r.start}: value {r.value:.9e}, rollout {r.cost:.9e}, "
                         f"gap {r.gap:.3e} ({100 * r.relative_gap:.3f}%)")
        lines.append(f"  max gap {self.max_gap:.3e}, max relative {100 * self.max_relative_gap:.4f}%")
        return "\n".join(lines) + "\n"


def rollout_value_gap(spec: ProblemSpec, grid: GridSpec, values: np.ndarray,
                      starts, horizon: float, dt: float | None = None,
                      action_tol: float = DEFAULT_ACTION_TOL,
                      variant: Variant = Variant.PLUS) -> RolloutReport:
    """Simulate from each (x, d1, d2) start and compare cost to the field."""
    if dt is None:
        dt = default_time_step(grid, drift_bound(spec, grid))
    rows = []
    for (x, d1, d2) in starts:
        x = np.asarray(x, dtype=float)
        traj = simulate(spec, grid, values, x, d1, d2, horizon, dt=dt,
                        action_tol=action_tol, variant=variant)
        rows.append(RolloutRow(start=(tuple(np.atleast_1d(x).tolist()), d1, d2),
                               value=interpolate(values[d1, d2], grid, grid.clamp(x)),
                               cost=evaluate_cost(traj, spec.discount)))
    return RolloutReport(rows=rows, horizon=horizon)
