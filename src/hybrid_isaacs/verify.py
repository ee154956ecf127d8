"""Executable structural-property checks for solved value fields.

Each check returns a CheckResult with a machine-readable status:

* ``pass`` / ``fail``: the property was tested and held / was violated;
* ``not-applicable``: the problem lacks the ingredient the property needs
  (an empty impulse menu, say);
* ``skipped``: a precondition failed, with the measurement that failed it
  reported (a nonzero saddle-order gap skips the order-equality check).

``run_all`` is the one place that makes solves: it measures the
saddle-order gap on the grid's control samples, builds the update tables
once, makes the solves from zero and from the upper bound that its checks
read through ``solver._solve``, by the method ``solve`` runs on the spec
(nested policy iteration where ``check_y1_y2`` certifies it, elsewhere
each start's Picard loop, from the field of a bracketing copy where one
is found), and drives every applicable check, producing a deterministic
report for a given (problem, grid, config, seed).  The saddle-order check
compares the two commitment orders' sweeps of the solved field, the
discrete form of the game having a value; the two-sided check only
compares the solved fields it is handed.  The obstacle-chain and
post-impulse checks read only the obstacles, which no time step enters:
never the update tables.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .discretize import (BellmanTables, GridSpec, build_tables, impulse_table, interp_weights,
                         read_stencils)
from .operators import Variant, _obstacles, bellman_update, impulse_candidates, isaacs_gap
from .problem import (FAIL, NOT_APPLICABLE, PASS, ProblemSpec, _subadditivity_gaps,
                      sample_controls)
# ``solve`` is not called here: the name stays for perfbench's traced runs,
# which patch ``verify.solve`` by name
from .solver import SolverConfig, SolveResult, _solve, _uncertified, solve  # noqa: F401

__all__ = [
    "CheckResult",
    "VerificationReport",
    "obstacle_chain_check",
    "post_impulse_strictness",
    "isaacs_value_equality",
    "two_sided_uniqueness",
    "operator_probes",
    "dpp_consistency",
    "check_field",
    "run_all",
    "SUITES",
]

SKIPPED = "skipped"

# check names ``run_all`` and ``check_field`` filter by
SUITES = ("chain", "impulse", "dpp", "isaacs", "uniqueness", "probes")

# relative guard for comparisons that are exact in real arithmetic but
# re-round once on the obstacle branches
_ULP_GUARD = 1e-13

# cap on one probe sweep's stack, in field values.  The branch temporaries
# grow with the stack, and past this cap cost more than the calls a larger
# stack saves: 100 trials on each bundled spec (2-vCPU Xeon, numpy 2.4)
# took 59 ms one trial at a time, 21 ms at 2^13 and 25 ms at 2^17, and
# raised peak memory by 0.5 and 7 MB over one at a time
_PROBE_STACK_VALUES = 1 << 13


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str = ""
    measured: dict[str, float] = field(default_factory=dict)
    tolerance: float | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = [f"verification report (seed={self.seed})"]
        for c in self.checks:
            lines.append(f"  [{c.status:>14}] {c.name}" + (f" -- {c.detail}" if c.detail else ""))
            for key in sorted(c.measured):
                lines.append(f"      {key} = {c.measured[key]:.16e}")
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        rows: dict[str, str] = {"seed": str(self.seed),
                                "overall": "pass" if self.passed else "fail"}
        for c in self.checks:
            rows[f"check.{c.name}"] = c.status
            if c.tolerance is not None:
                rows[f"check.{c.name}.tolerance"] = f"{c.tolerance:.16e}"
            for key, value in c.measured.items():
                rows[f"check.{c.name}.{key}"] = f"{value:.16e}"
        return "".join(f"{k} = {rows[k]}\n" for k in sorted(rows))


def _require_trials(trials) -> None:
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be a whole number >= 1, got {trials!r}")


def _where(spec: ProblemSpec, grid: GridSpec, flat: tuple) -> str:
    i1, i2, p = int(flat[0]), int(flat[1]), int(flat[2])
    return (f"mode ({spec.d1_labels[i1]},{spec.d2_labels[i2]}) at "
            f"x={grid.points[p].tolist()}")


def obstacle_chain_check(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                         tol: float = 1e-9) -> CheckResult:
    """At a fixed point the field sits between the player-1 switch obstacle
    (below) and both player-2 obstacles (above):
    upper_switch - tol <= V <= min(lower_switch, impulse) + tol.

    An obstacle that cannot bind is -inf below the field and +inf above
    it, so its difference is -inf and drops out; any other difference that
    is not finite fails.  A field value that is not finite is itself a
    violation, reported at the first such node."""
    if not np.isfinite(values).all():
        loc = np.unravel_index(int(np.flatnonzero(~np.isfinite(values))[0]), values.shape)
        return CheckResult("obstacle-chain", FAIL,
                           f"max violation inf: value {float(values[loc])} is not finite "
                           f"({_where(spec, grid, loc)})", {"max_violation": np.inf}, tol)
    # the obstacles below the field and above it, -inf and +inf where none
    # binds, then each side's difference from the field, which wants <= 0
    diffs = np.empty((2,) + values.shape)
    below, above = diffs
    below.fill(-np.inf)
    above.fill(np.inf)
    sides = {np.maximum: below, np.minimum: above}
    for _, cands, axis, better, _ in _obstacles(values, spec, impulse_table(spec, grid)):
        better(better.reduce(cands, axis=axis), sides[better], out=sides[better])
        del cands  # freed before the next obstacle's candidates are built
    below -= values
    np.subtract(values, above, out=above)

    at = int(diffs.argmax())  # the first worst, below before above, and a nan first of all
    worst = float(diffs.flat[at])
    if worst == -np.inf:
        return CheckResult("obstacle-chain", PASS, "all obstacles inactive",
                           {"max_violation": 0.0}, tol)
    loc = np.unravel_index(at, diffs.shape)[1:]
    status = PASS if worst <= tol else FAIL
    return CheckResult("obstacle-chain", status,
                       f"max violation {worst:.3e} ({_where(spec, grid, loc)})",
                       {"max_violation": max(worst, 0.0)}, tol)


def post_impulse_strictness(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                            tol: float = 1e-6, binding_tol: float = 1e-7) -> CheckResult:
    """Where the impulse obstacle binds, re-impulsing from the landed state
    must be suboptimal by at least the menu's strict-subadditivity margin.

    The strictness lemma bounds a second impulse k after the optimal jump j
    only when ``xi_j + xi_k`` is itself in the menu and the box clamps
    neither ``x + xi_j`` nor ``x + xi_j + xi_k``: then the two jumps cost at
    least the margin more than the single one.  The minimum runs over those
    k alone, and binding points with none are counted as skipped.  For an
    exact menu sum the bound follows from j being optimal at x, so a
    failure points at a sum matched only to the 1e-9 tolerance, at
    rounding, or at a wrong landing or second-jump set.  Every landing and
    covered second landing is read in one stencil read of the flat field;
    the worst point is the first minimum in (i1, i2, node) order.
    """
    applicable, _, margin = _subadditivity_gaps(spec)
    if not spec.impulses:
        return CheckResult("post-impulse-strictness", NOT_APPLICABLE, "no impulses")
    if not np.isfinite(margin):
        return CheckResult("post-impulse-strictness", NOT_APPLICABLE,
                           "no impulse pair sums back into the menu")

    table = impulse_table(spec, grid)
    # a field that is not finite reads 0 * inf and takes inf - inf: nan, which
    # binds nowhere and fails the gap
    with np.errstate(invalid="ignore"):
        cand = impulse_candidates(values, table)  # picks the minimizing jump at binding points
        binding = np.abs(values - cand.min(axis=2)) <= binding_tol
    count = int(binding.sum())
    if count == 0:
        return CheckResult("post-impulse-strictness", PASS,
                           "impulse obstacle never binds", {"binding_points": 0.0,
                                                            "margin": margin}, tol)

    # after jump j, the second jumps k with xi_j + xi_k in the menu
    covered = np.zeros((len(spec.impulses),) * 2, dtype=bool)
    for a, b, _ in applicable:
        covered[a, b] = covered[b, a] = True
    jumps = np.array([imp.vector for imp in spec.impulses])
    i1, i2, p = np.nonzero(binding)                    # (i1, i2, node) order
    j = cand[i1, i2, :, p].argmin(axis=1)
    landed = grid.points[p] + jumps[j]                 # (count, n)
    second = landed[:, None] + jumps                   # (count, n_imp, n)
    # covered second jumps that the box clamps at neither landing
    ks = covered[j] & (grid.clamp(second) == second).all(axis=-1)
    used = (grid.clamp(landed) == landed).all(axis=-1) & ks.any(axis=1)
    skipped = count - int(used.sum())
    measured = {"binding_points": float(count), "skipped_points": float(skipped),
                "margin": margin}
    if skipped == count:
        return CheckResult(
            "post-impulse-strictness", PASS,
            f"{count} binding point(s), none with a second impulse the lemma covers",
            measured, tol)

    i1, i2, p, landed, second, ks = (a[used] for a in (i1, i2, p, landed, second, ks))
    point, k = np.nonzero(ks)
    base, wts = interp_weights(grid, np.concatenate([landed, second[ks]]))
    pair = (i1 * spec.m2 + i2) * grid.n_points
    base += np.concatenate([pair, pair[point]])        # each read in its own mode pair
    after = np.full(ks.shape, np.inf)
    with np.errstate(invalid="ignore"):
        read = read_stencils(values.reshape(-1), base, wts, grid)
        after[ks] = read[len(p):] + table.imp_costs[k]
        gaps = after.min(axis=1) - read[:len(p)]
    at = int(gaps.argmin())
    worst = float(gaps[at])
    status = PASS if worst >= margin - tol else FAIL
    measured["min_post_gap"] = worst
    where = _where(spec, grid, (i1[at], i2[at], p[at]))
    return CheckResult(
        "post-impulse-strictness", status,
        f"{count} binding point(s), {skipped} skipped; min post-impulse slack {worst:.6g} "
        f"vs margin {margin:.6g}" + ("" if status == PASS else f" (worst from {where})"),
        measured, tol)


def isaacs_value_equality(gap: float, values: np.ndarray | None, tables: BellmanTables,
                          tol: float = 1e-12) -> CheckResult:
    """When both saddle orders agree on sampled costates (``gap`` not above
    zero), the two orders' one-step operators must agree on the solved
    field ``values``: ``T+[V] == T-[V]``, each one sweep on ``tables``.
    ``values`` is None when ``gap > 0``, which skips the check.

    Caveat: the costate-level gap is linear in the drift, but the discrete
    continue value feeds the drift through a piecewise-linear interpolant.
    When both players' continuous controls enter the drift, the two discrete
    saddle orders can disagree at interpolation kinks even though the
    measured gap is zero; with the drift controlled by one player (costs may
    involve both, additively) the orders provably coincide bit for bit.
    """
    if gap > 0:
        return CheckResult("saddle-order-equality", SKIPPED,
                           f"saddle-order gap {gap:.3e} > 0; orders differ by design",
                           {"order_gap": gap}, tol)
    plus, minus = (bellman_update(values, tables.spec, tables.grid, variant=v, tables=tables)
                   for v in Variant)
    diff = float(np.abs(plus - minus).max())
    return CheckResult("saddle-order-equality", PASS if diff <= tol else FAIL,
                       f"sup-norm difference {diff:.3e}",
                       {"order_gap": gap, "value_difference": diff}, tol)


def two_sided_uniqueness(low: SolveResult, high: SolveResult, tol: float) -> CheckResult:
    """Fixed points reached from below (``low``, from zero) and above
    (``high``, from the cost bound) must coincide within ``tol``."""
    if not (low.converged and high.converged):
        return CheckResult("two-sided-agreement", FAIL,
                           "a solve did not converge within the iteration cap",
                           {"low_iterations": float(low.iterations),
                            "high_iterations": float(high.iterations)}, tol)
    diff = float(np.abs(low.values - high.values).max())
    return CheckResult("two-sided-agreement", PASS if diff <= tol else FAIL,
                       f"sup-norm difference {diff:.3e} (tolerance {tol:.1e})",
                       {"difference": diff}, tol)


def operator_probes(spec: ProblemSpec, grid: GridSpec, dt: float | None = None,
                    trials: int = 100, seed: int = 0, variant: Variant = Variant.PLUS,
                    tables: BellmanTables | None = None) -> CheckResult:
    """Random-field probes of the one-step operator of ``variant``: order
    preservation, nonexpansiveness, and (without obstacles) the discount
    contraction and constant-shift identity.

    Each trial draws a field ``v``, a field ``w >= v`` and, without
    obstacles, a shift ``c``, in that order.  The trials' fields are swept
    as stacks of at most ``_PROBE_STACK_VALUES`` values, each field with
    the bits of its own sweep.  ``trials`` below 1 is a ValueError: no
    probe would pass.
    """
    _require_trials(trials)
    if tables is None:
        tables = build_tables(spec, grid, dt)
    rng = np.random.default_rng(seed)
    shape = (spec.m1, spec.m2, grid.n_points)
    scale = max(1.0, tables.upper_bound)
    obstacle_free = not spec.impulses and spec.m1 == 1 and spec.m2 == 1
    fields = 3 if obstacle_free else 2  # v, w and v + c per trial
    per_stack = max(1, _PROBE_STACK_VALUES // (fields * int(np.prod(shape))))

    monotone_violations = 0
    nonexpansive_violations = 0
    contraction_violations = 0
    shift_error = 0.0

    for done in range(0, trials, per_stack):
        count = min(per_stack, trials - done)
        v, w, c = np.empty((count,) + shape), np.empty((count,) + shape), np.empty(count)
        for i in range(count):
            v[i] = rng.uniform(0.0, scale, size=shape)
            w[i] = v[i] + rng.uniform(0.0, scale, size=shape)
            if obstacle_free:
                c[i] = rng.uniform(0.1, 2.0)
        stack = [v, w] + ([v + c[:, None, None, None]] if obstacle_free else [])
        swept = bellman_update(np.concatenate(stack), spec, grid, tables=tables,
                               variant=variant).reshape((fields, count, -1))
        tv, tw = swept[0], swept[1]
        monotone_violations += int((tv > tw).any(axis=1).sum())
        norms_in = np.abs(v - w).reshape(count, -1).max(axis=1).tolist()
        norms_out = np.abs(tv - tw).max(axis=1).tolist()
        for norm_in, norm_out in zip(norms_in, norms_out):
            if norm_out > norm_in * (1.0 + _ULP_GUARD):
                nonexpansive_violations += 1
            if obstacle_free and norm_out > tables.gamma * norm_in * (1.0 + _ULP_GUARD):
                contraction_violations += 1
        if obstacle_free:
            shifts = np.abs(swept[2] - (tv + tables.gamma * c[:, None])).max(axis=1).tolist()
            shift_error = max(shift_error, *shifts)

    measured = {
        "monotone_violations": float(monotone_violations),
        "nonexpansive_violations": float(nonexpansive_violations),
        "trials": float(trials),
    }
    bad = monotone_violations or nonexpansive_violations
    detail = f"{trials} random field pairs"
    if obstacle_free:
        measured["contraction_violations"] = float(contraction_violations)
        measured["shift_identity_error"] = shift_error
        bad = bad or contraction_violations or shift_error > 1e-12
        detail += "; obstacle-free extras: contraction and constant-shift identity"
    return CheckResult("operator-probes", FAIL if bad else PASS, detail, measured, 1e-12)


def dpp_consistency(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                    dt: float | None = None, variant: Variant = Variant.PLUS,
                    steps: tuple[int, ...] = (1, 10, 100), tol: float = 1e-10,
                    tables: BellmanTables | None = None) -> CheckResult:
    """Iterating the one-step update m times moves a converged field by at
    most m times its one-step residual (plus ``tol``): the multi-step
    optimality recursion collapses onto the fixed point."""
    if tables is None:
        tables = build_tables(spec, grid, dt)
    measured, ratios, status = {}, [], PASS
    # a field that is not finite gives inf - inf and 0 * inf: nan residuals, which fail
    with np.errstate(invalid="ignore"):
        one = bellman_update(values, spec, grid, tables=tables, variant=variant)
        eps = float(np.abs(one - values).max())
        measured["one_step_residual"] = eps
        current = one
        applied = 1
        for m in sorted(steps):
            while applied < m:
                current = bellman_update(current, spec, grid, tables=tables, variant=variant)
                applied += 1
            drift = float(np.abs(current - values).max())
            measured[f"residual_m{m}"] = drift
            bound = m * eps + tol
            ratios.append(0.0 if bound <= 0 else drift / bound)  # a nan bound gives nan
            if not drift <= bound or np.isnan(ratios[-1]):  # nan, and inf within an inf bound
                status = FAIL
    return CheckResult("multi-step-consistency", status,
                       f"residuals for m in {sorted(steps)} vs m*eps+tol "
                       f"(worst ratio {float(np.max(ratios, initial=0.0)):.3f})", measured, tol)


def _wanted(suites: set[str] | None, key: str) -> bool:
    return suites is None or key in suites


def check_field(values: np.ndarray, spec: ProblemSpec, grid: GridSpec, config: SolverConfig,
                tables: BellmanTables, suites: set[str] | None = None) -> list[CheckResult]:
    """The checks that read one field: obstacle chain (within the solver
    tolerance, at least 1e-9: a Picard field stops about that far from its
    fixed point) and post-impulse strictness (binding within 10x the solver
    tolerance), which read only the obstacles, and multi-step consistency
    against the operator of ``config``'s variant on ``tables``."""
    checks = []
    if _wanted(suites, "chain"):
        checks.append(obstacle_chain_check(values, spec, grid,
                                           tol=max(1e-9, config.tolerance)))
    if _wanted(suites, "impulse"):
        checks.append(post_impulse_strictness(values, spec, grid,
                                              binding_tol=10 * config.tolerance))
    if _wanted(suites, "dpp"):
        checks.append(dpp_consistency(values, spec, grid, variant=config.variant,
                                      tables=tables))
    return checks


def run_all(spec: ProblemSpec, grid: GridSpec, config: SolverConfig | None = None,
            seed: int = 0, trials: int = 100,
            suites: set[str] | None = None) -> VerificationReport:
    """Build the update tables once, make every solve the checks need by
    the method ``solve`` runs on ``spec``, and run every applicable check.

    There are at most two solves of ``config``'s variant.  The one from
    zero is the checked field, the lower side of two-sided agreement and,
    when the saddle-order gap (measured on the grid's control samples
    before the build) is not above zero, the field whose two orders'
    sweeps the saddle-order check compares; it is made when a check reads
    it.  The one from the upper bound is two-sided agreement's upper side.
    ``config.init`` is not read.  Where ``check_y1_y2`` certifies the spec,
    each is a nested policy solve whose last grid reads the run's tables;
    elsewhere each start's bracketing copy is solved on a twin of the
    tables, and each start's Picard loop runs on the one table build, from
    its copy's field, or from zero or upper where the copy fails.
    ``suites`` filters by the names in ``SUITES``; None runs everything.
    ``trials`` below 1 is a ValueError.
    """
    config = config or SolverConfig()
    _require_trials(trials)
    gap = None
    if _wanted(suites, "isaacs"):
        gap = isaacs_gap(*sample_controls(spec, grid.points), seed=seed)
    inits = []
    if (any(_wanted(suites, key) for key in ("chain", "impulse", "dpp", "uniqueness"))
            or _wanted(suites, "isaacs") and not gap > 0):
        inits.append("zero")
    if _wanted(suites, "uniqueness"):
        inits.append("upper")
    tables = build_tables(spec, grid, config.dt)
    reason = _uncertified(spec) if inits else None
    solved = {init: _solve(spec, grid, replace(config, init=init), tables, reason)
              for init in inits}

    checks = []
    base = solved.get("zero")
    if base is not None:
        if not base.converged:
            return VerificationReport([CheckResult(
                "base-solve", FAIL, f"no convergence in {base.iterations} iterations")], seed)
        checks = check_field(base.values, spec, grid, config, tables, suites)
    if _wanted(suites, "isaacs"):
        checks.append(isaacs_value_equality(gap, None if gap > 0 else base.values, tables))
    if _wanted(suites, "uniqueness"):
        checks.append(two_sided_uniqueness(base, solved["upper"], 10.0 * config.tolerance))
    if _wanted(suites, "probes"):
        checks.append(operator_probes(spec, grid, trials=trials, seed=seed,
                                      variant=config.variant, tables=tables))
    return VerificationReport(checks, seed)
