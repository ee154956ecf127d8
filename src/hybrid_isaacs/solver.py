"""Fixed-point drivers producing the value field.

Two methods reach the fixed point of the one-step update ``T``.

* Picard iteration, ``V <- T[V]`` (``picard``): each sweep returns a new
  field and the previous one is dropped.  The stop rule converts the
  requested ``tolerance`` (a target sup-norm distance to the fixed point)
  into a successive-change threshold through the one-step discount
  factor: for a gamma-contraction,
  ``|V_n - V*| <= gamma/(1-gamma) * |V_n - V_{n-1}|``.
* Policy iteration (Howard's algorithm), which ``solve`` runs where it
  can certify the field: each outer step fixes the greedy policy of ``V``
  (``operators.policy_sweep``) and solves its linear system
  ``(I - M) V = r`` by BiCGSTAB over the stencils.
  Where the time step follows the cell, it is nested: the same spec is
  solved on grids of ``(n-1)/2 + 1`` points per side down to about
  ``_COARSEST``, and each field is interpolated onto the next grid as its
  start.  It stops when ``|T[V] - V| / (1 - gamma)`` is at most
  ``tolerance``, or after ``_POLICY_RESIDUALS`` residuals on a grid.

Both bounds rest on a unique fixed point, which the paper's switching-cost
conditions secure: ``solve`` certifies a field, and runs policy iteration,
only where ``problem.check_y1_y2`` finds the nonzero-loop condition, and
runs Picard iteration elsewhere.  There Picard from zero rises to the
least fixed point above zero, and from the upper bound falls to the
greatest below it.  Where a zero-cost loop is the only fault, the loop
starts instead from the policy field of a perturbed copy of the spec
whose operator lies below ``T`` (from zero) or above it (from the upper
bound), which brackets the same end (``_bracket``); where the copy fails,
from the start it was given.  ``verify.run_all`` makes its solves by
calling ``solve``, on its one table build.  Switch and
impulse rows are not discounted, so ``T`` is not a one-step
gamma-contraction wherever they bind: the certificate is the unscaled
residual bound, and the factor a chain of zero-time events adds to it is
still open.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .discretize import BellmanTables, GridSpec, build_tables, interp_weights, read_stencils
from .operators import (CONTINUE, IMPULSE, SWITCH_LOWER, SWITCH_UPPER, _SADDLE, Variant,
                        bellman_update, policy_sweep)
from .problem import ProblemSpec, check_y1_y2

__all__ = [
    "SolverConfig",
    "SolveResult",
    "solve",
    "picard",
]

INIT_ZERO = "zero"
INIT_UPPER = "upper"
METHOD_POLICY = "policy"
METHOD_PICARD = "picard"
METHOD_BRACKETED = "bracketed"

# closed mode walks ``check_y1_y2`` may enumerate for a certificate, as its
# estimate counts them (walks from every pair, though it walks each loop
# from its least pair only): 2x2 and 2x3 mode sets fit, 2x4 and 3x3 (0.24 s
# and 1.0 s to enumerate, 2-vCPU Xeon) do not
_LOOP_WALKS = 100_000

# policy iteration: the coarsest grid of the nesting has at least this many
# points per side, and its grids but the last stop at this tolerance, since
# they only give the next grid its start; Picard sweeps on each grid's
# first field; outer steps without a new least residual, and Picard sweeps
# from the field of the least, of a fallback
_COARSEST = 21
_COARSE_TOLERANCE = 1e-4
_SMOOTHING_SWEEPS = 3
_STALL_STEPS = 3
_FALLBACK_SWEEPS = 10

# an uncertified spec's Picard loop starts from the policy field of a copy
# whose one player's switches are dearer by this share of that player's
# cheapest switch (see ``_bracket``).  Every policy solve, a certified
# spec's and a copy's alike, takes at most this many residuals per grid:
# at each spec's tolerance the solves of ROADMAP.md's table took at most 16
# (2-vCPU Xeon, numpy 2.4).  At a share of 1e-3, game_3d 13^3's upper copy
# ran 999 outer steps, 993 of them fallbacks, unconverged in 30 s; this
# bound stops it after 31 steps in under a second
_BRACKET_SHARE = 0.1
_POLICY_RESIDUALS = 32


def _krylov_cap(grid: GridSpec) -> int:
    """BiCGSTAB iterations after which a policy step fails: twice the
    points along the longest side, at least 50.  The last, tightest solve
    of a step took 12, 21 and 58 iterations on 1-D grids of 41, 81 and 161
    points, 20 and 46 at 41^2 and 81^2 (gen2d); a near-singular policy
    system on gen2d seed 4 at 21^2 ran to a cap of 200 unsolved."""
    return max(50, 2 * max(grid.counts))


@dataclass
class SolverConfig:
    """Iteration controls.

    ``dt`` of None picks the half-cell travel rule from the sampled drift
    bound.  ``init`` is "zero", "upper" (the no-action cost bound k_sup /
    discount), or an explicit field.  ``tolerance`` is the target sup-norm
    accuracy of the returned field, not the raw successive-change cutoff.
    ``max_iterations`` caps the sweeps of the Picard loop (``picard``),
    also where it starts from a bracketing copy's field; a policy solve
    takes at most ``_POLICY_RESIDUALS`` residuals per grid instead.
    """

    dt: float | None = None
    tolerance: float = 1e-9
    max_iterations: int = 100_000
    init: object = INIT_ZERO
    variant: Variant = Variant.PLUS


@dataclass
class SolveResult:
    """A solve's field and diagnostics.  ``change_history`` has one row per
    Picard sweep (the successive change), or, under policy iteration, one
    per field on the returned grid whose residual ``|T[V] - V|`` was taken,
    with the returned field's last; ``iterations`` is its length.
    ``certificate`` is ``|T[V] - V| / (1 - gamma)`` of the returned field:
    the distance to the fixed point were ``T`` a gamma-contraction, which
    it is not where undiscounted switch and impulse rows chain (see the
    module docstring).  It is None where the nonzero-loop condition fails
    or was not enumerated, and ``uncertified`` says why; ``picard``'s
    results carry neither.  ``method`` is the method that ran: "policy",
    "picard", or "bracketed", Picard from a bracketing copy's policy field
    (``_bracket``).  The policy counts sum over the nested grids; on an
    uncertified spec they are the copy's, where one was solved, and the
    history counts the Picard sweeps alone.  ``monotone`` is kept from a
    zero start only: a bracketing field's iterates rise or fall but for
    rounding."""

    values: np.ndarray                  # (m1, m2, n_points)
    change_history: np.ndarray          # sup-norm change per iteration
    converged: bool
    monotone: bool | None               # nondecreasing iterates (Picard from zero only)
    tables: BellmanTables = field(repr=False)
    method: str = METHOD_PICARD
    certificate: float | None = None
    uncertified: str | None = None
    outer_steps: int = 0                # policy steps
    krylov_iterations: int = 0          # BiCGSTAB iterations
    fallbacks: int = 0                  # policy steps replaced by Picard sweeps

    @property
    def iterations(self) -> int:
        return len(self.change_history)

    @property
    def dt(self) -> float:
        return self.tables.dt

    @property
    def last_change(self) -> float:
        return float(self.change_history[-1]) if self.change_history.size else 0.0


def _check_tolerance(config: SolverConfig) -> None:
    if not 0 <= config.tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {config.tolerance!r}")


def _warn_long_step(spec: ProblemSpec, tables: BellmanTables) -> None:
    diameter = float(np.linalg.norm(spec.box[:, 1] - spec.box[:, 0]))
    if tables.f_sup > 0 and tables.dt > diameter / tables.f_sup:
        warnings.warn(
            f"time step {tables.dt:.3g} exceeds box diameter / drift bound "
            f"{diameter / tables.f_sup:.3g}; feet may clamp to the box faces",
            stacklevel=3)


def _initial_field(init, tables: BellmanTables,
                   shape: tuple[int, int, int]) -> tuple[np.ndarray, bool]:
    if isinstance(init, str):
        if init == INIT_ZERO:
            return np.zeros(shape), True
        if init == INIT_UPPER:
            return np.full(shape, tables.upper_bound), False
        raise ValueError(f"unknown init {init!r}; use 'zero', 'upper', or an array")
    values = np.asarray(init, dtype=float)
    if values.shape != shape:
        raise ValueError(f"custom initial field has shape {values.shape}, expected {shape}")
    return values.copy(), False


def _uncertified(spec: ProblemSpec) -> str | None:
    """Why no field of ``spec`` carries a certificate, or None where
    ``check_y1_y2`` finds the nonzero-loop condition within
    ``_LOOP_WALKS`` walks."""
    report = check_y1_y2(spec, walk_budget=_LOOP_WALKS)
    if report.y2_holds is None:
        return "switching loops not enumerated (mode graph too large)"
    if not report.y2_holds:
        return f"zero-cost switching loop {report.loop_text(spec)}"
    return None


def solve(spec: ProblemSpec, grid: GridSpec, config: SolverConfig | None = None,
          tables: BellmanTables | None = None) -> SolveResult:
    """Solve for the value field: by policy iteration where the field can
    be certified (see ``_uncertified``), elsewhere by the Picard loop of
    ``picard``, from a bracketing start where ``_bracket`` finds one and
    else from ``config.init``, whose field it then returns bit for bit.
    ``tables``, as ``picard``'s, serve the Picard loop or the last grid of
    the policy solve; None builds them here.

    Returns the field together with diagnostics even when the iteration cap
    is hit (``converged=False``); callers decide whether a partial field is
    usable.  A tolerance that is negative, nan or infinite is a ValueError:
    an infinite one would stop after one sweep, a nan one never.
    """
    config = config or SolverConfig()
    _check_tolerance(config)
    reason = _uncertified(spec)
    if reason is None:
        return _policy_solve(spec, grid, config, tables)
    if tables is None:
        tables = build_tables(spec, grid, config.dt)
    start, attempt = _bracket(spec, grid, config, tables)
    result = picard(spec, grid, config if start is None else replace(config, init=start),
                    tables)
    result.uncertified = reason
    if attempt is not None:
        result.outer_steps = attempt.outer_steps
        result.krylov_iterations = attempt.krylov_iterations
        result.fallbacks = attempt.fallbacks
    if start is not None:
        result.method = METHOD_BRACKETED
    return result


def _bracket(spec: ProblemSpec, grid: GridSpec, config: SolverConfig,
             tables: BellmanTables) -> tuple[np.ndarray | None, SolveResult | None]:
    """A start for the Picard loop from ``config.init`` on ``spec``, a spec
    without a certificate, that ends where the loop from ``config.init``
    does: ``(field, attempt)``, the field None where the attempt, or a copy
    to attempt, failed, and both None from a start other than "zero" and
    "upper".

    From zero, the copy's player-1 switches are dearer, which lowers the
    upper obstacle: its operator ``T_lo`` lies below ``T``.  Its fixed
    point ``V_lo`` lies at or below every fixed point ``V`` of ``T``,
    since ``T_lo``'s iterates from ``V`` fall, and ``T[V_lo] >= V_lo``.
    So where ``V_lo >= 0``, ``T``'s iterates from ``V_lo`` rise between
    those from zero and the least fixed point above zero, where both end.
    From the upper bound, the copy's player-2 switches are dearer, and
    ``V_hi``, at most the bound, leads to the greatest fixed point below
    it.  A copy is used only where ``check_y1_y2`` certifies it, and its
    field only where its policy solve, capped at ``_POLICY_RESIDUALS``
    residuals per grid, converged and the field meets its side's bound."""
    init = config.init
    if not (isinstance(init, str) and init in (INIT_ZERO, INIT_UPPER)):
        return None, None
    player = 0 if init == INIT_ZERO else 1
    name = ("switch_cost_1", "switch_cost_2")[player]
    costs = getattr(spec, name)
    others = ~np.eye(len(costs), dtype=bool)
    delta = _BRACKET_SHARE * float(costs[others].min())
    if not delta > 0.0:  # a switch that costs nothing or less: no side to perturb
        return None, None
    perturbed = replace(spec, **{name: costs + others * delta})
    if _uncertified(perturbed) is not None:
        return None, None
    with warnings.catch_warnings():  # the spec's own Picard loop warns of a long step
        warnings.simplefilter("ignore")
        attempt = _policy_solve(perturbed, grid, config, tables.with_spec(perturbed))
    values = attempt.values
    bounded = values.min() >= 0.0 if player == 0 else values.max() <= tables.upper_bound
    return (values if attempt.converged and bounded else None), attempt


@np.errstate(over="ignore", invalid="ignore")  # a change that is not finite ends the loop
def picard(spec: ProblemSpec, grid: GridSpec, config: SolverConfig,
           tables: BellmanTables | None = None) -> SolveResult:
    """The Picard loop of ``config`` from ``config.init`` ("zero", "upper"
    or an array), on ``tables`` if given, which must be built for ``spec``,
    ``grid`` and ``config.dt``.  It stops when the successive change is at
    most the stop threshold, or unconverged after ``max_iterations`` sweeps
    or at the first change that is not finite, as on a field or table that
    holds nan or inf (a nan change never meets the stop).  This is
    ``solve`` on a spec it cannot certify and no copy brackets.
    """
    _check_tolerance(config)
    if tables is None:
        tables = build_tables(spec, grid, config.dt)

    _warn_long_step(spec, tables)

    # successive-change cutoff delivering the requested fixed-point accuracy
    # (min(1, (1 - gamma) / gamma) bit for bit, and 1 at gamma = 0)
    gamma = tables.gamma
    stop = config.tolerance * ((1.0 - gamma) / max(gamma, 1.0 - gamma))
    values, zero = _initial_field(config.init, tables, (spec.m1, spec.m2, grid.n_points))
    monotone = True if zero else None
    history: list[float] = []
    converged = False
    while len(history) < config.max_iterations:
        updated = bellman_update(values, spec, grid, variant=config.variant, tables=tables)
        diff = updated - values
        low = float(np.minimum.reduce(diff, axis=None))
        high = float(np.maximum.reduce(diff, axis=None))
        change = abs(max(high, -low))  # |diff|.max(), +0.0 when all zero
        history.append(change)
        if monotone:
            monotone = low >= 0.0  # updated >= values, on finite fields
        values = updated
        converged = change <= stop
        if converged or not math.isfinite(change):
            break
    return SolveResult(values=values, change_history=np.asarray(history),
                       converged=converged, monotone=monotone, tables=tables)


# ---------------------------------------------------------------------------
# nested policy iteration

def _grids(grid: GridSpec) -> list[GridSpec]:
    """The grids of a nested solve, coarsest first: ``(n-1)/2 + 1`` points
    per side while every side keeps at least ``_COARSEST``."""
    grids = [grid]
    while min(grids[-1].counts) >= 2 * _COARSEST - 1:
        grids.append(GridSpec(tuple((c - 1) // 2 + 1 for c in grids[-1].counts), grid.box))
    return grids[::-1]


@np.errstate(over="ignore", invalid="ignore")  # a residual that is not finite ends a grid
def _policy_solve(spec: ProblemSpec, grid: GridSpec, config: SolverConfig,
                  tables: BellmanTables | None = None) -> SolveResult:
    """Policy iteration, nested where the time step follows the cell.  A
    given ``dt`` keeps each coarse solve as many steps from its start as
    the fine one, so it starts on ``grid`` itself (bundled specs with
    ``dt = 0.5``: 0.8-1.4 ms against 2.2-4.7 ms nested), and so does an
    explicit initial field.  ``tables``, if given, are ``grid``'s at
    ``config.dt`` and serve the last grid; coarser grids build their own.

    Each grid's first field gets ``_SMOOTHING_SWEEPS`` Picard sweeps, but
    an explicit initial field none: its first residual is its own, so a
    field that already meets the tolerance comes back bit for bit."""
    explicit = not isinstance(config.init, str)
    grids = [grid] if explicit or config.dt is not None else _grids(grid)
    run = _PolicyRun()
    fine, values, coarse = tables, None, None
    for level in grids:
        tables = None  # the coarser grid's tables go before this grid's are built
        tables = (fine if level is grid and fine is not None
                  else build_tables(spec, level, config.dt))
        if values is None:
            values, _ = _initial_field(config.init, tables,
                                       (spec.m1, spec.m2, level.n_points))
        else:
            base, wts = interp_weights(coarse, level.points)
            values = read_stencils(values, base, wts, coarse)
        for _ in range(0 if explicit else _SMOOTHING_SWEEPS):
            values = bellman_update(values, spec, level, variant=config.variant, tables=tables)
        coarse = level
        values = run.iterate(values, tables, config.variant, config.tolerance if level is grid
                             else max(config.tolerance, _COARSE_TOLERANCE))
    _warn_long_step(spec, tables)
    return SolveResult(
        values=values, change_history=np.asarray(run.history), converged=run.converged,
        monotone=None, tables=tables, method=METHOD_POLICY,
        certificate=run.history[-1] / (1.0 - tables.gamma), outer_steps=run.steps,
        krylov_iterations=run.krylov, fallbacks=run.fallbacks)


class _PolicyRun:
    """Policy iteration on one grid after another, with the counts summed
    over the grids and the history of the last."""

    def __init__(self):
        self.steps = self.krylov = self.fallbacks = 0
        self.history: list[float] = []
        self.converged = False

    def iterate(self, values: np.ndarray, tables: BellmanTables, variant: Variant,
                tolerance: float) -> np.ndarray:
        """Outer steps from ``values`` until ``|T[V] - V| / (1 - gamma)``
        is at most the tolerance, and returns that field; or until the
        history holds ``_POLICY_RESIDUALS`` residuals, or a residual is not
        finite, and returns the field of the least, whose residual ends it.

        Each step takes the greedy policy of ``V`` and solves its system
        from ``T[V]``: to ``0.01 |T[V] - V|`` while the policy changes and
        to a tenth of the stop residual once it does not.  The first steps
        on a grid may overshoot, so the guard keeps the field of the least
        residual; after ``_STALL_STEPS`` steps without a new least, or a
        step whose Krylov solve fails, ``_FALLBACK_SWEEPS`` Picard sweeps
        from that field replace the step.
        """
        spec = tables.spec
        scale = 1.0 - tables.gamma
        stop = tolerance * scale
        self.history, self.converged = [], False
        best, least, stall, last = values, math.inf, 0, None
        system = _PolicySystem(tables, variant)
        while True:
            updated, branch, arg = policy_sweep(values, tables, variant)
            residual = float(np.abs(updated - values).max())
            self.history.append(residual)
            self.converged = residual / scale <= tolerance
            if self.converged:
                return values
            if residual < least:
                best, least, stall = values, residual, 0
            else:
                stall += 1
            if len(self.history) >= _POLICY_RESIDUALS or not math.isfinite(residual):
                break
            if stall < _STALL_STEPS:
                same = last is not None and np.array_equal(branch, last[0]) and np.array_equal(
                    arg, last[1])
                last = branch, arg
                system.assemble(branch, arg)
                inner = 0.1 * stop if same else max(0.01 * residual, 0.1 * stop)
                self.steps += 1
                solved, its = system.solve(updated, inner)
                self.krylov += its
                if solved:
                    values = updated
                    continue
            values, stall, last = best, 0, None
            self.fallbacks += 1
            for _ in range(_FALLBACK_SWEEPS):
                values = bellman_update(values, spec, tables.grid, variant=variant, tables=tables)
        if best is not values:
            self.history.append(least)
        return best


class _PolicySystem:
    """The linear system of one policy, ``V = r + M V``, held in place for
    every policy on one grid's tables.  Row ``n`` of ``M`` is a stencil in
    ``read_stencils``' format over the flat field: corner ``c`` at ``base[n]
    + grid.corner_offsets[c]`` with weight ``wts[c, n]``.  A continue row is
    the foot's stencil times gamma, an impulse row the landing's, a switch
    row a unit weight on the target; corners a row does not use weigh 0.
    Vectors ``M`` reads are padded past the field with zeros, so those
    corners of a row near the end read inside the buffer.
    """

    def __init__(self, tables: BellmanTables, variant: Variant):
        self.tables = tables
        self.cost = tables.saddle_cost(_SADDLE[variant])
        corners = max(tables.foot_wts.shape[-1], tables.imp_wts.shape[-1])
        self.offsets = tables.grid.corner_offsets[:corners].tolist()
        self.nodes = tables.spec.m1 * tables.spec.m2 * tables.grid.n_points
        self.base = np.empty(self.nodes, dtype=np.intp)
        self.wts = np.empty((corners, self.nodes))
        self.r = np.empty(self.nodes)

    def padded(self) -> np.ndarray:
        """A zero vector that ``M`` can read: the field and its padding."""
        return np.zeros(self.nodes + self.offsets[-1])

    def assemble(self, branch: np.ndarray, arg: np.ndarray) -> None:
        """Write the rows of the policy ``policy_sweep`` returned, one mode
        pair at a time: every temporary is one pair's length."""
        t, cost = self.tables, self.cost
        spec, points, gamma = t.spec, t.grid.n_points, t.gamma
        across = max(cost.shape[2], t.foot_idx.shape[3])  # B of arg's a * B + b
        self.wts.fill(0.0)
        for pair, (pair_branch, pair_arg) in enumerate(zip(branch.reshape(-1, points),
                                                           arg.reshape(-1, points))):
            i1, i2 = divmod(pair, spec.m2)
            nodes = slice(pair * points, (pair + 1) * points)
            base, wts, r = self.base[nodes], self.wts[:, nodes], self.r[nodes]
            at = np.flatnonzero(pair_branch == CONTINUE)
            a, b = np.divmod(pair_arg[at], across)

            def row(table):
                """Each continue node's entry of a (..., A or 1, B or 1, p) table."""
                rows_a, rows_b = table.shape[-3:-1]
                return ((pair * rows_a + (a if rows_a > 1 else 0)) * rows_b
                        + (b if rows_b > 1 else 0)) * points + at

            r[at] = cost.reshape(-1)[row(cost)]
            foot = row(t.foot_idx)
            base[at] = t.foot_idx.reshape(-1)[foot]
            for c in range(t.foot_wts.shape[-1]):
                wts[c, at] = t.foot_wts[..., c].reshape(-1)[foot] * gamma
            at = np.flatnonzero(pair_branch == IMPULSE)
            jump = pair_arg[at]
            row = jump * points + at
            base[at] = t.imp_idx.reshape(-1)[row] + pair * points
            for c in range(t.imp_wts.shape[-1]):
                wts[c, at] = t.imp_wts[..., c].reshape(-1)[row]
            r[at] = t.imp_costs[jump]
            at = np.flatnonzero(pair_branch == SWITCH_LOWER)
            target = pair_arg[at]
            base[at] = (i1 * spec.m2 + target) * points + at
            wts[0, at] = 1.0
            r[at] = spec.switch_cost_2[i2, target]
            at = np.flatnonzero(pair_branch == SWITCH_UPPER)
            target = pair_arg[at]
            base[at] = (target * spec.m2 + i2) * points + at
            wts[0, at] = 1.0
            r[at] = -spec.switch_cost_1[i1, target]

    def _residual_step(self, v: np.ndarray, out: np.ndarray, gathered: np.ndarray) -> None:
        """``out = (I - M) v`` of a padded ``v``, each corner's terms taken
        off in order; corner c reads the view of ``v`` that starts at its
        offset, at ``base``.  Every base lies in ``[0, nodes)`` and ``v``
        is padded by the largest offset, so ``mode="clip"`` clips no index:
        it only spares the gather the buffered copy that numpy makes of an
        ``out`` under ``mode="raise"``."""
        np.copyto(out, v[:self.nodes])
        for offset, wts in zip(self.offsets, self.wts):
            v[offset:].take(self.base, out=gathered, mode="clip")
            gathered *= wts
            out -= gathered

    def solve(self, values: np.ndarray, tolerance: float) -> tuple[bool, int]:
        """BiCGSTAB (van der Vorst, 1992) on ``(I - M) V = r`` from
        ``values``, updated in place, until the sup norm of the residual is
        at most ``tolerance``.  Returns (solved, iterations); not solved
        after ``_krylov_cap`` iterations, on a breakdown or a field that is
        no longer finite."""
        x, cap = values.reshape(-1), _krylov_cap(self.tables.grid)
        apply, n = self._residual_step, self.nodes
        gathered, v, t = (np.empty_like(x) for _ in range(3))
        r_in, p_in = self.padded(), self.padded()  # the vectors M reads
        r, p = r_in[:n], p_in[:n]
        p[:] = x
        apply(p_in, r, gathered)
        np.subtract(self.r, r, out=r)
        p.fill(0.0)
        v.fill(0.0)
        shadow = r.copy()
        rho = alpha = omega = 1.0
        for its in range(cap + 1):
            if max(r.max(), -r.min()) <= tolerance:
                return True, its
            if its == cap:
                break
            rho_next = float(np.dot(shadow, r))
            if rho_next == 0.0 or not math.isfinite(rho_next):
                break
            # p = r + beta (p - omega v)
            np.multiply(v, omega, out=gathered)
            p -= gathered
            p *= (rho_next / rho) * (alpha / omega)
            p += r
            apply(p_in, v, gathered)
            sv = float(np.dot(shadow, v))
            if sv == 0.0:  # a breakdown: alpha would divide by zero
                break
            alpha = rho_next / sv
            np.multiply(v, alpha, out=gathered)
            r -= gathered                                  # s = r - alpha v
            np.multiply(p, alpha, out=gathered)
            x += gathered
            if max(r.max(), -r.min()) <= tolerance:
                return True, its + 1
            apply(r_in, t, gathered)
            tt = float(np.dot(t, t))
            if tt == 0.0 or not math.isfinite(tt):
                break
            omega = float(np.dot(t, r)) / tt
            np.multiply(r, omega, out=gathered)
            x += gathered
            np.multiply(t, omega, out=gathered)
            r -= gathered
            rho = rho_next
            if omega == 0.0:
                break
        return False, its
