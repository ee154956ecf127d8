"""Executable structural-property checks for solved value fields.

Each check returns a CheckResult with a machine-readable status:

* ``pass`` / ``fail``: the property was tested and held / was violated;
* ``not-applicable``: the problem lacks the ingredient the property needs
  (an empty impulse menu, say);
* ``skipped``: a precondition failed, with the measurement that failed it
  reported (a nonzero saddle-order gap skips the order-equality check).

``run_all`` builds the update tables once, makes every solve its checks
need in one lock-step call (``solver.solve_many``) and drives every
applicable check, producing a deterministic report for a given (problem,
grid, config, seed).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .discretize import BellmanTables, GridSpec, build_tables, interpolate
from .operators import Variant, _obstacles, bellman_update, impulse_candidates, isaacs_gap
from .problem import FAIL, NOT_APPLICABLE, PASS, ProblemSpec, _subadditivity_gaps
# ``solve`` is not called here: the name stays for perfbench's traced runs,
# which patch ``verify.solve`` by name
from .solver import SolverConfig, SolveResult, solve, solve_many  # noqa: F401

__all__ = [
    "CheckResult",
    "VerificationReport",
    "SharedSolves",
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


# a plain class: a dataclass costs about 1 ms of import time
class SharedSolves:
    """Solves of one configuration that share one table build.

    ``gap`` is the saddle-order gap of the tables' control samples,
    measured with the saddle-order check's ``costate_samples`` and
    ``seed``, or None until measured.  ``results`` holds the solves made
    on the tables, by init and variant (see ``solved``).  ``run_all`` makes
    every solve its checks need in one lock-step call and hands them this.
    """

    def __init__(self, tables: BellmanTables, gap: float | None = None,
                 results: dict | None = None):
        self.tables, self.gap = tables, gap
        self.results = {} if results is None else results

    def solved(self, spec: ProblemSpec, grid: GridSpec, config: SolverConfig,
               members: list[tuple[object, Variant]]) -> list[SolveResult]:
        """The solves of ``config`` from each ``(init, variant)`` of
        ``members``; those not made yet are made in one lock-step call.  An
        init array is matched by identity."""
        keys = [_member_key(init, variant) for init, variant in members]
        todo = {key: replace(config, init=init, variant=variant)
                for key, (init, variant) in zip(keys, members) if key not in self.results}
        if todo:
            self.results.update(zip(todo, solve_many(spec, grid, todo.values(), self.tables)))
        return [self.results[key] for key in keys]


def _member_key(init, variant: Variant) -> tuple:
    """``SharedSolves.results``' key: an init string, or an init array by identity."""
    return (init if isinstance(init, str) else id(init)), variant


def _require_trials(trials) -> None:
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be a whole number >= 1, got {trials!r}")


def _where(spec: ProblemSpec, grid: GridSpec, flat: tuple) -> str:
    i1, i2, p = int(flat[0]), int(flat[1]), int(flat[2])
    return (f"mode ({spec.d1_labels[i1]},{spec.d2_labels[i2]}) at "
            f"x={grid.points[p].tolist()}")


def obstacle_chain_check(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                         tol: float = 1e-9,
                         tables: BellmanTables | None = None) -> CheckResult:
    """At a fixed point the field sits between the player-1 switch obstacle
    (below) and both player-2 obstacles (above):
    upper_switch - tol <= V <= min(lower_switch, impulse) + tol."""
    if tables is None:
        tables = build_tables(spec, grid)
    # the obstacles below the field and above it, -inf and +inf where none binds
    sides = {np.maximum: np.full_like(values, -np.inf), np.minimum: np.full_like(values, np.inf)}
    for _, cands, axis, better, _ in _obstacles(values, spec, tables):
        better(better.reduce(cands, axis=axis), sides[better], out=sides[better])
        del cands  # freed before the next obstacle's candidates are built
    upper, lower = sides[np.maximum], sides[np.minimum]

    below = upper - values            # wants <= 0
    above = values - lower            # wants <= 0
    below = np.where(np.isfinite(below), below, -np.inf)
    above = np.where(np.isfinite(above), above, -np.inf)
    worst = float(max(below.max(), above.max()))
    if worst == -np.inf:
        return CheckResult("obstacle-chain", PASS, "all obstacles inactive",
                           {"max_violation": 0.0}, tol)
    side = below if below.max() >= above.max() else above
    loc = np.unravel_index(int(side.argmax()), side.shape)
    status = PASS if worst <= tol else FAIL
    return CheckResult("obstacle-chain", status,
                       f"max violation {worst:.3e} ({_where(spec, grid, loc)})",
                       {"max_violation": max(worst, 0.0)}, tol)


def post_impulse_strictness(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                            tol: float = 1e-6, binding_tol: float = 1e-7,
                            tables: BellmanTables | None = None) -> CheckResult:
    """Where the impulse obstacle binds, re-impulsing from the landed state
    must be suboptimal by at least the menu's strict-subadditivity margin.

    The strictness lemma bounds a second impulse k after the optimal jump j
    only when ``xi_j + xi_k`` is itself in the menu and the box clamps
    neither ``x + xi_j`` nor ``x + xi_j + xi_k``: then the two jumps cost at
    least the margin more than the single one.  The minimum runs over those
    k alone, and binding points with none are counted as skipped.  For an
    exact menu sum the bound follows from j being optimal at x, so a
    failure points at a sum matched only to the 1e-9 tolerance, at
    rounding, or at a wrong landing or second-jump set.
    """
    applicable, _, margin = _subadditivity_gaps(spec)
    if not spec.impulses:
        return CheckResult("post-impulse-strictness", NOT_APPLICABLE, "no impulses")
    if not np.isfinite(margin):
        return CheckResult("post-impulse-strictness", NOT_APPLICABLE,
                           "no impulse pair sums back into the menu")
    if tables is None:
        tables = build_tables(spec, grid)

    cand = impulse_candidates(values, tables)  # picks the minimizing jump at binding points
    imp = cand.min(axis=2)
    binding = np.abs(values - imp) <= binding_tol
    count = int(binding.sum())
    if count == 0:
        return CheckResult("post-impulse-strictness", PASS,
                           "impulse obstacle never binds", {"binding_points": 0.0,
                                                            "margin": margin}, tol)

    # after jump j, the second jumps k with xi_j + xi_k in the menu
    covered = [set() for _ in spec.impulses]
    for i, j, _ in applicable:
        covered[i].add(j)
        covered[j].add(i)
    low, high = spec.box[:, 0], spec.box[:, 1]

    def inside(z: np.ndarray) -> bool:
        return bool(np.all((z >= low) & (z <= high)))

    worst = np.inf
    worst_at = ""
    used = 0
    for (i1, i2) in spec.mode_pairs():
        for p in np.flatnonzero(binding[i1, i2]):
            j = int(cand[i1, i2, :, p].argmin())
            landed = grid.points[p] + spec.impulses[j].vector
            ks = [k for k in sorted(covered[j]) if inside(landed + spec.impulses[k].vector)]
            if not (ks and inside(landed)):
                continue
            used += 1
            v_landed = interpolate(values[i1, i2], grid, landed)
            gap = min(interpolate(values[i1, i2], grid, landed + spec.impulses[k].vector)
                      + spec.impulses[k].cost for k in ks) - v_landed
            if gap < worst:
                worst = gap
                worst_at = _where(spec, grid, (i1, i2, p))
    skipped = count - used
    measured = {"binding_points": float(count), "skipped_points": float(skipped),
                "margin": margin}
    if used == 0:
        return CheckResult(
            "post-impulse-strictness", PASS,
            f"{count} binding point(s), none with a second impulse the lemma covers",
            measured, tol)
    status = PASS if worst >= margin - tol else FAIL
    measured["min_post_gap"] = worst
    return CheckResult(
        "post-impulse-strictness", status,
        f"{count} binding point(s), {skipped} skipped; min post-impulse slack {worst:.6g} "
        f"vs margin {margin:.6g}" + ("" if status == PASS else f" (worst from {worst_at})"),
        measured, tol)


def isaacs_value_equality(spec: ProblemSpec, grid: GridSpec,
                          config: SolverConfig | None = None,
                          costate_samples: int = 16, seed: int = 0,
                          tol: float = 1e-12,
                          shared: SharedSolves | None = None) -> CheckResult:
    """When both saddle orders agree on sampled costates, the two solve
    variants must produce the same field.

    The gap is read from the control samples of the update tables, and
    both variants from ``config``'s init are solved in one lock-step call
    on them.  ``shared``, if given, supplies the tables, the gap if
    measured, and any solve already made; otherwise the tables are built
    here.

    Caveat: the costate-level gap is linear in the drift, but the discrete
    continue value feeds the drift through a piecewise-linear interpolant.
    When both players' continuous controls enter the drift, the two discrete
    saddle orders can disagree at interpolation kinks even though the
    measured gap is zero; with the drift controlled by one player (costs may
    involve both, additively) the orders provably coincide bit for bit.
    """
    base = config or SolverConfig()
    if shared is None:
        shared = SharedSolves(build_tables(spec, grid, base.dt))
    gap = shared.gap
    if gap is None:
        gap = isaacs_gap(shared.tables.f, shared.tables.k, costate_samples=costate_samples,
                         seed=seed)
    if gap > 0:
        return CheckResult("saddle-order-equality", SKIPPED,
                           f"saddle-order gap {gap:.3e} > 0; orders differ by design",
                           {"order_gap": gap}, tol)
    plus, minus = shared.solved(spec, grid, base, [(base.init, v) for v in Variant])
    if not (plus.converged and minus.converged):
        return CheckResult("saddle-order-equality", FAIL, "a variant solve did not converge",
                           {"order_gap": gap}, tol)
    diff = float(np.abs(plus.values - minus.values).max())
    return CheckResult("saddle-order-equality", PASS if diff <= tol else FAIL,
                       f"sup-norm difference {diff:.3e}",
                       {"order_gap": gap, "value_difference": diff}, tol)


def two_sided_uniqueness(spec: ProblemSpec, grid: GridSpec,
                         config: SolverConfig | None = None,
                         low: SolveResult | None = None,
                         shared: SharedSolves | None = None) -> CheckResult:
    """Fixed points reached from below (zero) and above (the cost bound)
    must coincide within 10x the solver tolerance.

    Both are solved in one lock-step call on one table build.  ``low``, if
    given, is the solve from zero, whose tables the upper start reuses;
    ``shared``, if given, supplies the tables and any solve already made.
    """
    base = config or SolverConfig()
    if shared is None:
        if low is None:
            shared = SharedSolves(build_tables(spec, grid, base.dt))
        else:
            shared = SharedSolves(low.tables, results={_member_key("zero", low.variant): low})
    low, high = shared.solved(spec, grid, base, [("zero", base.variant), ("upper", base.variant)])
    tol = 10.0 * base.tolerance
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
    one = bellman_update(values, spec, grid, tables=tables, variant=variant)
    eps = float(np.abs(one - values).max())
    measured = {"one_step_residual": eps}
    worst_ratio = 0.0
    status = PASS
    current = one
    applied = 1
    for m in sorted(steps):
        while applied < m:
            current = bellman_update(current, spec, grid, tables=tables, variant=variant)
            applied += 1
        drift = float(np.abs(current - values).max())
        measured[f"residual_m{m}"] = drift
        bound = m * eps + tol
        worst_ratio = max(worst_ratio, drift / bound if bound > 0 else 0.0)
        if drift > bound:
            status = FAIL
    return CheckResult("multi-step-consistency", status,
                       f"residuals for m in {sorted(steps)} vs m*eps+tol "
                       f"(worst ratio {worst_ratio:.3f})", measured, tol)


def _wanted(suites: set[str] | None, key: str) -> bool:
    return suites is None or key in suites


def check_field(values: np.ndarray, spec: ProblemSpec, grid: GridSpec, config: SolverConfig,
                tables: BellmanTables, suites: set[str] | None = None) -> list[CheckResult]:
    """The checks that read one field, against the operator of ``config``'s
    variant on ``tables``: obstacle chain, post-impulse strictness (binding
    within 10x the solver tolerance) and multi-step consistency."""
    checks = []
    if _wanted(suites, "chain"):
        checks.append(obstacle_chain_check(values, spec, grid, tables=tables))
    if _wanted(suites, "impulse"):
        checks.append(post_impulse_strictness(values, spec, grid,
                                              binding_tol=10 * config.tolerance,
                                              tables=tables))
    if _wanted(suites, "dpp"):
        checks.append(dpp_consistency(values, spec, grid, variant=config.variant,
                                      tables=tables))
    return checks


def run_all(spec: ProblemSpec, grid: GridSpec, config: SolverConfig | None = None,
            seed: int = 0, trials: int = 100,
            suites: set[str] | None = None) -> VerificationReport:
    """Build the update tables once, make every solve the checks need in
    one lock-step call on them, and run every applicable check.

    The solves are the base solve from zero, which is the checked field;
    both variants from ``config``'s init when the saddle-order gap, read
    from the tables, is zero; and the start from the upper bound.  A solve
    two checks share is made once.  ``suites`` filters by the names in
    ``SUITES``; None runs everything.  ``trials`` below 1 is a ValueError.
    """
    config = config or SolverConfig()
    _require_trials(trials)
    shared = SharedSolves(build_tables(spec, grid, config.dt))
    members = [("zero", config.variant)]
    if _wanted(suites, "isaacs"):
        shared.gap = isaacs_gap(shared.tables.f, shared.tables.k, seed=seed)
        if not shared.gap > 0:
            members += [(config.init, v) for v in Variant]
    if _wanted(suites, "uniqueness"):
        members.append(("upper", config.variant))
    base = shared.solved(spec, grid, config, members)[0]
    if not base.converged:
        return VerificationReport([CheckResult(
            "base-solve", FAIL, f"no convergence in {base.iterations} iterations")], seed)

    checks = check_field(base.values, spec, grid, config, shared.tables, suites)
    if _wanted(suites, "isaacs"):
        checks.append(isaacs_value_equality(spec, grid, config, seed=seed, shared=shared))
    if _wanted(suites, "uniqueness"):
        checks.append(two_sided_uniqueness(spec, grid, config, shared=shared))
    if _wanted(suites, "probes"):
        checks.append(operator_probes(spec, grid, trials=trials, seed=seed,
                                      variant=config.variant, tables=shared.tables))
    return VerificationReport(checks, seed)
