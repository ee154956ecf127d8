"""Executable structural-property checks for solved value fields.

Each check returns a CheckResult with a machine-readable status:

* ``pass`` / ``fail``: the property was tested and held / was violated;
* ``not-applicable``: the problem lacks the ingredient the property needs
  (an empty impulse menu, say);
* ``skipped``: a precondition failed, with the measurement that failed it
  reported (a nonzero saddle-order gap skips the order-equality check).

``run_all`` solves once and drives every applicable check, producing a
deterministic report for a given (problem, grid, config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .discretize import BellmanTables, GridSpec, build_tables, interpolate
from .operators import (Variant, bellman_update, impulse_candidates, impulse_field, isaacs_gap,
                        switch_lower_field, switch_upper_field)
from .problem import (FAIL, NOT_APPLICABLE, PASS, ProblemSpec, _subadditivity_gaps,
                      sample_controls)
from .solver import SolverConfig, SolveResult, solve

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
    upper = switch_upper_field(values, spec)
    lower = np.minimum(switch_lower_field(values, spec), impulse_field(values, tables))

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
                          low: SolveResult | None = None) -> CheckResult:
    """When both saddle orders agree on sampled costates, the two solve
    variants must produce the same field.

    ``low``, if given, is the solve of ``config`` from a zero init, as
    ``two_sided_uniqueness`` takes it.  Its tables give the control samples
    of the gap, and it stands in for the solve of its own variant only when
    ``config`` starts from zero too.

    Caveat: the costate-level gap is linear in the drift, but the discrete
    continue value feeds the drift through a piecewise-linear interpolant.
    When both players' continuous controls enter the drift, the two discrete
    saddle orders can disagree at interpolation kinks even though the
    measured gap is zero; with the drift controlled by one player (costs may
    involve both, additively) the orders provably coincide bit for bit.
    """
    f, k = (low.tables.f, low.tables.k) if low is not None else sample_controls(spec, grid.points)
    gap = isaacs_gap(f, k, costate_samples=costate_samples, seed=seed)
    del f, k  # free fresh samples before the solves build their tables
    if gap > 0:
        return CheckResult("saddle-order-equality", SKIPPED,
                           f"saddle-order gap {gap:.3e} > 0; orders differ by design",
                           {"order_gap": gap}, tol)
    base = config or SolverConfig()

    from_zero = isinstance(base.init, str) and base.init == "zero"

    def run(variant: Variant) -> SolveResult:
        if from_zero and low is not None and low.variant is variant:
            return low
        return solve(spec, grid, replace(base, variant=variant))

    plus, minus = run(Variant.PLUS), run(Variant.MINUS)
    if not (plus.converged and minus.converged):
        return CheckResult("saddle-order-equality", FAIL, "a variant solve did not converge",
                           {"order_gap": gap}, tol)
    diff = float(np.abs(plus.values - minus.values).max())
    return CheckResult("saddle-order-equality", PASS if diff <= tol else FAIL,
                       f"sup-norm difference {diff:.3e}",
                       {"order_gap": gap, "value_difference": diff}, tol)


def two_sided_uniqueness(spec: ProblemSpec, grid: GridSpec,
                         config: SolverConfig | None = None,
                         low: SolveResult | None = None) -> CheckResult:
    """Fixed points reached from below (zero) and above (the cost bound)
    must coincide within 10x the solver tolerance."""
    base = config or SolverConfig()
    if low is None:
        low = solve(spec, grid, replace(base, init="zero"))
    high = solve(spec, grid, replace(base, init="upper"))
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
    contraction and constant-shift identity."""
    if tables is None:
        tables = build_tables(spec, grid, dt)
    rng = np.random.default_rng(seed)
    shape = (spec.m1, spec.m2, grid.n_points)
    scale = max(1.0, tables.upper_bound)

    monotone_violations = 0
    nonexpansive_violations = 0
    contraction_violations = 0
    shift_error = 0.0
    obstacle_free = not spec.impulses and spec.m1 == 1 and spec.m2 == 1

    for _ in range(trials):
        v = rng.uniform(0.0, scale, size=shape)
        w = v + rng.uniform(0.0, scale, size=shape)
        tv = bellman_update(v, spec, grid, tables=tables, variant=variant)
        tw = bellman_update(w, spec, grid, tables=tables, variant=variant)
        monotone_violations += int((tv > tw).any())
        norm_in = float(np.abs(v - w).max())
        norm_out = float(np.abs(tv - tw).max())
        if norm_out > norm_in * (1.0 + _ULP_GUARD):
            nonexpansive_violations += 1
        if obstacle_free:
            if norm_out > tables.gamma * norm_in * (1.0 + _ULP_GUARD):
                contraction_violations += 1
            c = float(rng.uniform(0.1, 2.0))
            shifted = bellman_update(v + c, spec, grid, tables=tables, variant=variant)
            shift_error = max(shift_error, float(
                np.abs(shifted - (tv + tables.gamma * c)).max()))

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
    """Solve once from zero and run every applicable check.

    ``suites`` filters by the names in ``SUITES``; None runs everything.
    """
    config = config or SolverConfig()
    base = solve(spec, grid, replace(config, init="zero"))
    tables = base.tables
    if not base.converged:
        return VerificationReport([CheckResult(
            "base-solve", FAIL, f"no convergence in {base.iterations} iterations")], seed)

    checks = check_field(base.values, spec, grid, config, tables, suites)
    if _wanted(suites, "isaacs"):
        checks.append(isaacs_value_equality(spec, grid, config, seed=seed, low=base))
    if _wanted(suites, "uniqueness"):
        checks.append(two_sided_uniqueness(spec, grid, config, low=base))
    if _wanted(suites, "probes"):
        checks.append(operator_probes(spec, grid, trials=trials, seed=seed,
                                      variant=config.variant, tables=tables))
    return VerificationReport(checks, seed)
