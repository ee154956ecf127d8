"""Game definition: loading, structural checks, and cost-assumption analysis.

A problem couples a controlled drift ``dy/dt + A y = f(y, u1, d1, u2, d2)``
with a running cost ``k``, per-player switching-cost matrices ``c1``/``c2``,
a finite impulse menu for player 2, and a discount rate.  Player 1 maximizes
the discounted cost, player 2 minimizes it.  The state space is truncated to
a box; control sets are finite level lists; dynamics/cost are expression
tables with one entry per mode pair.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable

import numpy as np

from . import config
from .exprlang import Expr, compile_expr, free_vars, parse, to_str

__all__ = [
    "Impulse",
    "ProblemSpec",
    "SpecStructureError",
    "Check",
    "ValidationReport",
    "Y1Y2Report",
    "load_spec",
    "load_config",
    "save_spec",
    "sample_controls",
    "validate_a2",
    "check_y1_y2",
]

_LABEL_RE = re.compile(r"^[A-Za-z_0-9][A-Za-z_0-9-]*$")


class SpecStructureError(ValueError):
    """Structurally invalid problem definition (missing table entries, shape
    mismatches, undeclared variables, nonsensical scalars)."""


@dataclass(frozen=True)
class Impulse:
    vector: np.ndarray  # shape (n,)
    cost: float


@dataclass(frozen=True)
class ProblemSpec:
    dimension: int
    generator: np.ndarray            # (n, n), the matrix A
    discount: float                  # lambda > 0
    u1_levels: np.ndarray
    u2_levels: np.ndarray
    d1_labels: tuple[str, ...]
    d2_labels: tuple[str, ...]
    dynamics: dict[tuple[int, int], tuple[Expr, ...]]
    running_cost: dict[tuple[int, int], Expr]
    switch_cost_1: np.ndarray        # (m1, m1), diagonal unused
    switch_cost_2: np.ndarray        # (m2, m2), diagonal unused
    impulses: tuple[Impulse, ...]
    box: np.ndarray                  # (n, 2) rows [low, high]

    @property
    def m1(self) -> int:
        return len(self.d1_labels)

    @property
    def m2(self) -> int:
        return len(self.d2_labels)

    @cached_property
    def state_names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.dimension))

    @cached_property
    def compiled(self) -> dict[tuple[int, int], tuple[tuple[Callable, ...], Callable]]:
        """Per mode pair, compiled once: the dynamics components and the cost."""
        return {pair: (tuple(compile_expr(c) for c in self.dynamics[pair]),
                       compile_expr(self.running_cost[pair]))
                for pair in self.mode_pairs()}

    @cached_property
    def switches(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Each player's switches, player 1's then player 2's, built once
        for the sweeps: ``(rows, others, costs)``, with (m, 1) rows and
        (m, m-1) columns, row i the other modes ascending, and the costs of
        switching to them shaped to meet the candidates, c1 as (m1, m1-1,
        1, 1) and c2 as (m2, m2-1, 1)."""
        def player(m: int, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            rows = np.arange(m)[:, None]
            others = np.arange(m - 1) + (np.arange(m - 1) >= rows)
            return rows, others, costs[rows, others]

        (rows1, others1, c1), (rows2, others2, c2) = (player(self.m1, self.switch_cost_1),
                                                      player(self.m2, self.switch_cost_2))
        return (rows1, others1, c1[:, :, None, None]), (rows2, others2, c2[:, :, None])

    def mode_pairs(self) -> Iterable[tuple[int, int]]:
        for i1 in range(self.m1):
            for i2 in range(self.m2):
                yield (i1, i2)


# ---------------------------------------------------------------------------
# loading / saving

def load_config(path) -> tuple[ProblemSpec, dict[str, Any], dict[str, Any]]:
    """Load a config file; returns (spec, grid defaults, solver defaults).

    A SpecStructureError names the file."""
    doc = config.read_file(path)
    try:
        return _spec_from_doc(doc)
    except SpecStructureError as exc:
        raise SpecStructureError(f"{path}: {exc}") from None


def load_spec(path) -> ProblemSpec:
    """Load just the problem definition from a config file."""
    return load_config(path)[0]


def _req(section: dict, key: str, where: str):
    if key not in section:
        raise SpecStructureError(f"{where}: missing required key '{key}'")
    return section[key]


def _spec_from_doc(doc) -> tuple[ProblemSpec, dict, dict]:
    if "problem" not in doc:
        raise SpecStructureError("missing [problem] section")
    prob = doc["problem"]

    dimension = _req(prob, "dimension", "[problem]")
    if not isinstance(dimension, int) or dimension < 1:
        raise SpecStructureError("[problem]: dimension must be an integer >= 1")
    discount = _scalar(_req(prob, "discount", "[problem]"), "[problem] discount")
    if not discount > 0:
        raise SpecStructureError("[problem]: discount must be > 0")

    d1_labels = tuple(_labels(_req(prob, "d1_labels", "[problem]"), "d1_labels"))
    d2_labels = tuple(_labels(_req(prob, "d2_labels", "[problem]"), "d2_labels"))
    u1_levels = _vector(_req(prob, "u1_levels", "[problem]"), "u1_levels")
    u2_levels = _vector(_req(prob, "u2_levels", "[problem]"), "u2_levels")
    if u1_levels.size == 0 or u2_levels.size == 0:
        raise SpecStructureError("[problem]: control level lists must be nonempty")

    generator = _matrix(_req(prob, "generator", "[problem]"), "generator",
                        (dimension, dimension))
    box = _matrix(_req(prob, "box", "[problem]"), "box", (dimension, 2))
    if not np.all(box[:, 0] < box[:, 1]):
        raise SpecStructureError("[problem]: box must have low < high in every dimension")

    state_names = tuple(f"x{i}" for i in range(dimension))
    allowed = set(state_names) | {"u1", "u2"}

    dynamics: dict[tuple[int, int], tuple[Expr, ...]] = {}
    running_cost: dict[tuple[int, int], Expr] = {}
    for i1, l1 in enumerate(d1_labels):
        for i2, l2 in enumerate(d2_labels):
            pair = f"{l1},{l2}"
            dyn_sec = doc.get(f'dynamics."{pair}"')
            if dyn_sec is None:
                raise SpecStructureError(f"missing section [dynamics.\"{pair}\"]")
            comps = _req(dyn_sec, "f", f'[dynamics."{pair}"]')
            if not isinstance(comps, list) or len(comps) != dimension:
                raise SpecStructureError(
                    f'[dynamics."{pair}"]: f must be a list of {dimension} expression string(s)')
            dynamics[(i1, i2)] = tuple(
                _parse_expr(c, allowed, f'dynamics."{pair}" component {i}')
                for i, c in enumerate(comps))
            cost_sec = doc.get(f'cost."{pair}"')
            if cost_sec is None:
                raise SpecStructureError(f"missing section [cost.\"{pair}\"]")
            running_cost[(i1, i2)] = _parse_expr(
                _req(cost_sec, "k", f'[cost."{pair}"]'), allowed, f'cost."{pair}"')

    switching = doc.get("switching", {})
    m1, m2 = len(d1_labels), len(d2_labels)
    c1 = _matrix(switching.get("c1", _zeros(m1)), "switching.c1", (m1, m1))
    c2 = _matrix(switching.get("c2", _zeros(m2)), "switching.c2", (m2, m2))

    impulses: list[Impulse] = []
    imp_sec = doc.get("impulses")
    if imp_sec is not None:
        vectors = imp_sec.get("vectors", [])
        costs = imp_sec.get("costs", [])
        for key, value in (("vectors", vectors), ("costs", costs)):
            if not isinstance(value, list):
                raise SpecStructureError(f"[impulses] {key}: expected a list, got {value!r}")
        if len(vectors) != len(costs):
            raise SpecStructureError("[impulses]: vectors and costs must have equal length")
        for i, (vec, cost) in enumerate(zip(vectors, costs)):
            v = _vector(vec, f"impulses.vectors[{i}]")
            if v.shape != (dimension,):
                raise SpecStructureError(
                    f"impulses.vectors[{i}]: expected {dimension} component(s), got {v.size}")
            impulses.append(Impulse(_freeze(v), _scalar(cost, f"impulses.costs[{i}]")))

    spec = ProblemSpec(
        dimension=dimension,
        generator=_freeze(generator),
        discount=discount,
        u1_levels=_freeze(u1_levels),
        u2_levels=_freeze(u2_levels),
        d1_labels=d1_labels,
        d2_labels=d2_labels,
        dynamics=dynamics,
        running_cost=running_cost,
        switch_cost_1=_freeze(c1),
        switch_cost_2=_freeze(c2),
        impulses=tuple(impulses),
        box=_freeze(box),
    )
    expanding = _expansion_warning(spec)[1]
    if expanding:
        warnings.warn(expanding, stacklevel=2)
    return spec, dict(doc.get("grid", {})), dict(doc.get("solver", {}))


def _labels(value, name: str) -> list[str]:
    if not isinstance(value, list) or not value:
        raise SpecStructureError(f"[problem]: {name} must be a nonempty list of strings")
    out = []
    for item in value:
        if not isinstance(item, str) or not _LABEL_RE.match(item):
            raise SpecStructureError(f"[problem]: bad mode label {item!r} in {name}")
        out.append(item)
    if len(set(out)) != len(out):
        raise SpecStructureError(f"[problem]: duplicate labels in {name}")
    return out


def _scalar(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecStructureError(f"{name}: expected a number, got {value!r}") from None


def _vector(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SpecStructureError(f"{name}: expected a flat list of numbers") from None
    if arr.ndim != 1:
        raise SpecStructureError(f"{name}: expected a flat list of numbers")
    return arr

def _matrix(value, name: str, shape: tuple[int, int]) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SpecStructureError(f"{name}: expected a nested list of numbers") from None
    if arr.shape != shape:
        raise SpecStructureError(f"{name}: expected shape {shape[0]}x{shape[1]}, got {arr.shape}")
    return arr


def _zeros(m: int) -> list[list[float]]:
    return [[0.0] * m for _ in range(m)]


def _parse_expr(text, allowed: set[str], where: str) -> Expr:
    if not isinstance(text, str):
        raise SpecStructureError(f"{where}: expression must be a quoted string")
    try:
        expr = parse(text)
    except ValueError as exc:
        raise SpecStructureError(f"{where}: {exc}") from exc
    extra = free_vars(expr) - allowed
    if extra:
        raise SpecStructureError(
            f"{where}: undeclared variable(s) {', '.join(sorted(extra))}")
    return expr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _expansion_warning(spec: ProblemSpec) -> tuple[float, str | None]:
    """Smallest eigenvalue of the generator's symmetric part, and the warning
    it earns when negative."""
    lam_min = float(np.linalg.eigvalsh(0.5 * (spec.generator + spec.generator.T)).min())
    if lam_min < -1e-12:
        return lam_min, ("symmetric part of the generator matrix has a negative eigenvalue; "
                         "the linear one-step factor may expand distances")
    return lam_min, None


def save_spec(spec: ProblemSpec, path, grid: dict | None = None,
              solver: dict | None = None) -> None:
    """Write ``spec`` in canonical form (stable key order, canonical text)."""
    doc: dict[str, dict[str, Any]] = {}
    doc["problem"] = {
        "dimension": spec.dimension,
        "discount": float(spec.discount),
        "d1_labels": list(spec.d1_labels),
        "d2_labels": list(spec.d2_labels),
        "u1_levels": [float(v) for v in spec.u1_levels],
        "u2_levels": [float(v) for v in spec.u2_levels],
        "generator": _tolist(spec.generator),
        "box": _tolist(spec.box),
    }
    for (i1, i2) in spec.mode_pairs():
        pair = f"{spec.d1_labels[i1]},{spec.d2_labels[i2]}"
        doc[f'dynamics."{pair}"'] = {"f": [to_str(c) for c in spec.dynamics[(i1, i2)]]}
        doc[f'cost."{pair}"'] = {"k": to_str(spec.running_cost[(i1, i2)])}
    doc["switching"] = {"c1": _tolist(spec.switch_cost_1), "c2": _tolist(spec.switch_cost_2)}
    if spec.impulses:
        doc["impulses"] = {
            "vectors": [_tolist(imp.vector) for imp in spec.impulses],
            "costs": [float(imp.cost) for imp in spec.impulses],
        }
    if grid:
        doc["grid"] = dict(grid)
    if solver:
        doc["solver"] = dict(solver)
    config.write_file(path, doc)


def _tolist(arr: np.ndarray):
    return [float(v) for v in arr] if arr.ndim == 1 else [[float(v) for v in row] for row in arr]


# ---------------------------------------------------------------------------
# assumption checks

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""
    data: dict[str, float] = field(default_factory=dict)


@dataclass
class ValidationReport:
    checks: list[Check]
    estimates: dict[str, float]
    warnings: list[str]
    samples: int
    seed: int

    @property
    def mandatory_ok(self) -> bool:
        """No check failed."""
        return all(c.status != FAIL for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def to_text(self) -> str:
        lines = [f"validation report (samples={self.samples}, seed={self.seed})"]
        for c in self.checks:
            lines.append(f"  [{c.status:>14}] {c.name}" + (f" -- {c.detail}" if c.detail else ""))
        for w in self.warnings:
            lines.append(f"  [       warning] {w}")
        lines.append("  estimates:")
        for key in sorted(self.estimates):
            lines.append(f"    {key} = {self.estimates[key]:.16e}")
        lines.append(f"  verdict: {'ok' if self.mandatory_ok else 'REJECTED'}")
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        rows = {}
        for c in self.checks:
            rows[f"check.{c.name}"] = c.status
            for key, value in sorted(c.data.items()):
                rows[f"check.{c.name}.{key}"] = f"{value:.16e}"
        for key in sorted(self.estimates):
            rows[f"estimate.{key}"] = f"{self.estimates[key]:.16e}"
        rows["samples"] = str(self.samples)
        rows["seed"] = str(self.seed)
        rows["verdict"] = "ok" if self.mandatory_ok else "rejected"
        return "".join(f"{k} = {rows[k]}\n" for k in sorted(rows))


def _sample_states(spec: ProblemSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    low, high = spec.box[:, 0], spec.box[:, 1]
    return rng.uniform(low, high, size=(count, spec.dimension))


def _env(spec: ProblemSpec, x: np.ndarray, u1: float, u2: float) -> dict[str, object]:
    env: dict[str, object] = {name: x[..., i] for i, name in enumerate(spec.state_names)}
    env["u1"] = u1
    env["u2"] = u2
    return env


def eval_dynamics(spec: ProblemSpec, i1: int, i2: int, x: np.ndarray,
                  u1: float, u2: float) -> np.ndarray:
    """f(x, u1, d1, u2, d2) for a batch of states ``x`` of shape (..., n)."""
    env = _env(spec, x, u1, u2)
    out = np.empty(x.shape)
    for i, component in enumerate(spec.compiled[(i1, i2)][0]):
        out[..., i] = component(env)
    return out


def eval_running_cost(spec: ProblemSpec, i1: int, i2: int, x: np.ndarray,
                      u1: float, u2: float):
    env = _env(spec, x, u1, u2)
    out = np.empty(x.shape[:-1])
    out[...] = spec.compiled[(i1, i2)][1](env)
    return out


def sample_controls(spec: ProblemSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and k at states ``pts`` (p, n) for every mode pair and control pair.

    Shapes (m1, m2, nu1, nu2, p, n) and (m1, m2, nu1, nu2, p).
    """
    shape = (spec.m1, spec.m2, len(spec.u1_levels), len(spec.u2_levels), len(pts))
    f = np.empty(shape + (spec.dimension,))
    k = np.empty(shape)
    # an entry that overflows or leaves its expression's domain is inf or
    # nan, which ``validate_a2`` names (``_nonfinite_at``), with no warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for (i1, i2) in spec.mode_pairs():
            for a, u1 in enumerate(spec.u1_levels):
                for b, u2 in enumerate(spec.u2_levels):
                    u = (float(u1), float(u2))
                    f[i1, i2, a, b] = eval_dynamics(spec, i1, i2, pts, *u)
                    k[i1, i2, a, b] = eval_running_cost(spec, i1, i2, pts, *u)
    return f, k


def validate_a2(spec: ProblemSpec, samples: int = 256, seed: int = 0) -> ValidationReport:
    """Sampled cost-assumption checks, reported and never raised; ``samples`` < 1 is a ValueError."""
    if samples < 1:
        raise ValueError(f"samples must be a whole number >= 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    warns: list[str] = []
    estimates: dict[str, float] = {}

    # (a) running cost nonnegative on sampled (state, control) draws
    pts = _sample_states(spec, rng, samples)
    f, k = sample_controls(spec, pts)
    # per (pair, u1, u2) extremes; the first block holding the minimum names it
    lows, highs = k.min(axis=-1), k.max(axis=-1)
    i1, i2, a, b = np.unravel_index(int(lows.argmin()), lows.shape)
    k_min, k_max = float(lows[i1, i2, a, b]), float(highs.flat[int(highs.argmax())])
    k_min_where = (f"mode ({spec.d1_labels[i1]},{spec.d2_labels[i2]}), "
                   f"u1={float(spec.u1_levels[a])!r}, u2={float(spec.u2_levels[b])!r}, "
                   f"x={pts[int(k[i1, i2, a, b].argmin())].tolist()}")
    checks.append(Check(
        "running-cost-nonnegative",
        PASS if k_min >= 0 else FAIL,
        f"sampled min k = {k_min:.6g}" + ("" if k_min >= 0 else f" at {k_min_where}"),
        {"k_min": k_min},
    ))
    estimates["k_sup_sampled"] = k_max

    # (b) switching costs bounded away from zero
    for name, matrix, m in (("switch-cost-1-positive", spec.switch_cost_1, spec.m1),
                            ("switch-cost-2-positive", spec.switch_cost_2, spec.m2)):
        if m == 1:
            checks.append(Check(name, NOT_APPLICABLE, "single mode, player never switches"))
            continue
        off = matrix[~np.eye(m, dtype=bool)]
        c0 = float(off.min())
        checks.append(Check(name, PASS if c0 > 0 else FAIL,
                            f"min off-diagonal cost = {c0:.6g}", {"c0": c0}))
        estimates[("c1_min" if name.endswith("1-positive") else "c2_min")] = c0

    # (c) impulse costs strictly positive
    if not spec.impulses:
        checks.append(Check("impulse-cost-positive", NOT_APPLICABLE, "no impulses"))
    else:
        l_min = min(imp.cost for imp in spec.impulses)
        checks.append(Check("impulse-cost-positive", PASS if l_min > 0 else FAIL,
                            f"min impulse cost = {l_min:.6g}", {"l_min": l_min}))
        estimates["l_min"] = float(l_min)

    # (d) strict subadditivity on pairs whose vector sum is in the menu
    applicable, violations, gap = _subadditivity_gaps(spec)
    if not applicable:
        checks.append(Check("impulse-subadditivity", NOT_APPLICABLE,
                            "no impulse pair sums back into the menu"))
    else:
        status = PASS if not violations else FAIL
        detail = f"{len(applicable)} applicable pair(s), strictness gap = {gap:.6g}"
        if violations:
            i, j, s = violations[0]
            detail += (f"; first violation: cost({s}) >= cost({i}) + cost({j})")
        checks.append(Check("impulse-subadditivity", status, detail, {"subadd_gap": gap}))
        estimates["subadd_gap"] = gap

    # (e) impulse-cost growth at infinity has no finite-menu content
    checks.append(Check("impulse-cost-coercive", NOT_APPLICABLE,
                        "finite impulse menu; best impulse always attained"))

    estimates["generator_sym_min_eig"], expanding = _expansion_warning(spec)
    if expanding:
        warns.append(expanding)

    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(f, axis=-1)
    for what, table, then in (("drift norm", norms, "; solve and verify refuse it"),
                              ("running cost", k, "")):
        where = _nonfinite_at(spec, table, pts)
        if where:
            warns.append(f"{what} is not finite in {where}{then}")

    lip_f, lip_k, f_sup = _lipschitz_estimates(spec, samples, rng)
    estimates["lipschitz_f"] = lip_f
    estimates["lipschitz_k"] = lip_k
    estimates["f_sup_sampled"] = f_sup

    return ValidationReport(checks=checks, estimates=estimates, warnings=warns,
                            samples=samples, seed=seed)


def _subadditivity_gaps(spec: ProblemSpec, atol: float = 1e-9):
    """All (i, j) impulse pairs whose sum is in the menu, with cost gaps."""
    applicable: list[tuple[int, int, int]] = []
    violations: list[tuple[int, int, int]] = []
    gap = np.inf
    imps = spec.impulses
    for i, a in enumerate(imps):
        for j, b in enumerate(imps):
            if j < i:
                continue
            total = a.vector + b.vector
            for s, c in enumerate(imps):
                if np.allclose(total, c.vector, rtol=0.0, atol=atol):
                    applicable.append((i, j, s))
                    g = a.cost + b.cost - c.cost
                    gap = min(gap, g)
                    if g <= 0:
                        violations.append((i, j, s))
                    break
    return applicable, violations, (float(gap) if applicable else np.inf)


def subadditivity_gap(spec: ProblemSpec) -> float:
    """Minimal strictness margin cost(a)+cost(b)-cost(a+b) over in-menu sums.

    +inf when no pair of menu vectors sums back into the menu.
    """
    return _subadditivity_gaps(spec)[2]


def _nonfinite_at(spec: ProblemSpec, table: np.ndarray, pts: np.ndarray) -> str | None:
    """Where ``table``, (m1, m2, nu1, nu2, p) of ``sample_controls``' drift
    norms or running costs at states ``pts``, is first not finite: the
    mode pair, the controls and the state; None where all are finite."""
    finite = np.isfinite(table)
    if finite.all():
        return None
    i1, i2, a, b, p = np.argwhere(~finite)[0]
    return (f"mode ({spec.d1_labels[i1]},{spec.d2_labels[i2]}) at "
            f"u1={float(spec.u1_levels[a])!r}, u2={float(spec.u2_levels[b])!r}, "
            f"x={pts[p].tolist()}")


def _lipschitz_estimates(spec: ProblemSpec, samples: int,
                         rng: np.random.Generator) -> tuple[float, float, float]:
    xs = _sample_states(spec, rng, samples)
    ys = _sample_states(spec, rng, samples)
    dist = np.linalg.norm(xs - ys, axis=-1)
    keep = dist > 1e-12
    (fx, kx), (fy, ky) = sample_controls(spec, xs), sample_controls(spec, ys)
    # a table that is not finite gives inf - inf: nan estimates, which the
    # warnings of ``validate_a2`` explain
    with np.errstate(over="ignore", invalid="ignore"):
        f_sup = float(np.linalg.norm(fx, axis=-1).max())
        if not keep.any():
            return 0.0, 0.0, f_sup
        lip_f = float((np.linalg.norm(fx - fy, axis=-1)[..., keep] / dist[keep]).max())
        lip_k = float((np.abs(kx - ky)[..., keep] / dist[keep]).max())
    return lip_f, lip_k, f_sup


# ---------------------------------------------------------------------------
# switching-cost structure conditions

@dataclass
class Y1Y2Report:
    """Status of the two classical switching-cost conditions.

    Validation requires neither.  ``solver.solve`` certifies a field, and
    runs policy iteration, only where ``y2_holds`` is True: a loop whose
    costs cancel can leave the fixed point free along it.
    y1_holds: cheapest player-2 switch is strictly cheaper than any impulse.
    y2_holds: every closed alternating mode loop (one player switches per
    step, both players switch somewhere, length <= m1*m2) has a nonzero
    player-1-minus-player-2 cost sum.  None when enumeration was skipped.
    """
    y1_holds: bool
    c2_min: float
    l_min: float
    y2_holds: bool | None
    zero_loops: list[list[tuple[int, int]]]
    loop_count: int

    def to_text(self, spec: ProblemSpec | None = None) -> str:
        lines = [
            f"cheaper-switching condition: {'holds' if self.y1_holds else 'fails'} "
            f"(min player-2 switch cost {self.c2_min:.6g}, min impulse cost {self.l_min:.6g})",
        ]
        if self.y2_holds is None:
            lines.append("nonzero-loop condition: skipped (mode graph too large to enumerate)")
        elif self.y2_holds:
            lines.append(f"nonzero-loop condition: holds ({self.loop_count} loop(s) checked)")
        else:
            lines.append(f"nonzero-loop condition: fails ({self.loop_count} loop(s) checked; "
                         f"zero-cost loop {self.loop_text(spec)})")
        return "\n".join(lines) + "\n"

    def loop_text(self, spec: ProblemSpec | None = None) -> str:
        """The first zero-cost loop, closed, by mode labels when ``spec`` is given."""
        loop = self.zero_loops[0]
        if spec is not None:
            return " -> ".join(
                f"({spec.d1_labels[a]},{spec.d2_labels[b]})" for a, b in loop + [loop[0]])
        return " -> ".join(str(p) for p in loop + [loop[0]])


def check_y1_y2(spec: ProblemSpec, walk_budget: int = 20_000_000) -> Y1Y2Report:
    """Evaluate both switching-cost conditions on the mode graph.

    Single-player loops always have a nonzero cost difference (their sum is a
    sum of positive costs with one sign), so only loops in which both players
    switch are enumerated; with a single mode on either side no such loop
    exists and the condition holds vacuously.  Enumeration is exhaustive over
    closed alternating walks of length <= m1*m2, deduplicated by cyclic
    rotation; it is skipped (status None) when the walk count would exceed
    ``walk_budget``.  A walk from a start pair visits no pair below it, so
    each loop is walked only from its least pair, the first in its
    rotation order: the loops, and the order they are found in, are those
    of walks from every rotation.
    """
    if spec.m2 > 1:
        c2_min = float(spec.switch_cost_2[~np.eye(spec.m2, dtype=bool)].min())
    else:
        c2_min = np.inf
    l_min = min((imp.cost for imp in spec.impulses), default=np.inf)
    y1 = bool(c2_min < l_min)

    if spec.m1 == 1 or spec.m2 == 1:
        return Y1Y2Report(y1, c2_min, l_min, True, [], 0)

    n_pairs = spec.m1 * spec.m2
    branching = (spec.m1 - 1) + (spec.m2 - 1)
    if n_pairs * branching ** n_pairs > walk_budget:
        return Y1Y2Report(y1, c2_min, l_min, None, [], 0)

    zero_loops: list[list[tuple[int, int]]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    count = 0
    pairs = [(a, b) for a in range(spec.m1) for b in range(spec.m2)]

    def neighbors(p: tuple[int, int], least: tuple[int, int]):
        a, b = p
        for a2 in range(spec.m1):
            if a2 != a and (a2, b) >= least:
                yield (a2, b), spec.switch_cost_1[a, a2], 0.0, True, False
        for b2 in range(spec.m2):
            if b2 != b and (a, b2) >= least:
                yield (a, b2), 0.0, spec.switch_cost_2[b, b2], False, True

    def walk(start, current, path, cost1, cost2, used1, used2):
        nonlocal count
        if len(path) > 1 and current == start:
            if used1 and used2:
                key = _canonical_rotation(tuple(path[:-1]))
                if key not in seen:
                    seen.add(key)
                    count += 1
                    if abs(cost1 - cost2) <= 1e-12:
                        zero_loops.append(list(path[:-1]))
            # a closed walk may keep going as long as length allows
        if len(path) - 1 >= n_pairs:
            return
        for nxt, dc1, dc2, s1, s2 in neighbors(current, start):
            walk(start, nxt, path + [nxt], cost1 + dc1, cost2 + dc2,
                 used1 or s1, used2 or s2)

    for start in pairs:
        walk(start, start, [start], 0.0, 0.0, False, False)

    return Y1Y2Report(y1, c2_min, l_min, not zero_loops, zero_loops, count)


def _canonical_rotation(loop: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    rotations = [loop[i:] + loop[:i] for i in range(len(loop))]
    return min(rotations)
