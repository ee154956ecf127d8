"""Fixed-point driver producing the value field.

The iteration is a plain Picard loop ``V <- T[V]``; each sweep returns a
new field and the previous one is dropped.  ``solve_many`` runs the loop
over a stack of fields on one table build, and ``solve`` is that loop with
one member.  The stop rule converts the requested ``tolerance`` (a target
sup-norm distance to the fixed point) into a successive-change threshold
through the one-step discount factor: for a gamma-contraction,
``|V_n - V*| <= gamma/(1-gamma) * |V_n - V_{n-1}|``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .discretize import BellmanTables, build_tables
from .operators import Variant, bellman_update
from .problem import ProblemSpec

if TYPE_CHECKING:
    from .discretize import GridSpec

__all__ = [
    "SolverConfig",
    "SolveResult",
    "solve",
    "solve_many",
]

INIT_ZERO = "zero"
INIT_UPPER = "upper"


@dataclass
class SolverConfig:
    """Iteration controls.

    ``dt`` of None picks the half-cell travel rule from the sampled drift
    bound.  ``init`` is "zero", "upper" (the no-action cost bound k_sup /
    discount), or an explicit field.  ``tolerance`` is the target sup-norm
    accuracy of the returned field, not the raw successive-change cutoff.
    """

    dt: float | None = None
    tolerance: float = 1e-9
    max_iterations: int = 100_000
    init: object = INIT_ZERO
    variant: Variant = Variant.PLUS


@dataclass
class SolveResult:
    values: np.ndarray                  # (m1, m2, n_points)
    iterations: int
    change_history: np.ndarray          # sup-norm change per iteration
    converged: bool
    monotone: bool | None               # nondecreasing iterates (zero init only)
    stop_threshold: float
    dt: float
    variant: Variant
    tables: BellmanTables | None = field(repr=False, default=None)

    @property
    def last_change(self) -> float:
        return float(self.change_history[-1]) if self.change_history.size else 0.0


def _initial_field(config: SolverConfig, tables: BellmanTables,
                   shape: tuple[int, int, int]) -> tuple[np.ndarray, bool]:
    if isinstance(config.init, str):
        if config.init == INIT_ZERO:
            return np.zeros(shape), True
        if config.init == INIT_UPPER:
            return np.full(shape, tables.upper_bound), False
        raise ValueError(f"unknown init {config.init!r}; use 'zero', 'upper', or an array")
    values = np.asarray(config.init, dtype=float)
    if values.shape != shape:
        raise ValueError(f"custom initial field has shape {values.shape}, expected {shape}")
    return values.copy(), False


def solve(spec: ProblemSpec, grid: GridSpec, config: SolverConfig | None = None) -> SolveResult:
    """Iterate the one-step update to its fixed point.

    Returns the field together with diagnostics even when the iteration cap
    is hit (``converged=False``); callers decide whether a partial field is
    usable.  A tolerance that is negative, nan or infinite is a ValueError:
    an infinite one would stop after one sweep, a nan one never.
    """
    return solve_many(spec, grid, [config or SolverConfig()])[0]


class _Member:
    """One field of a lock-step solve: its config, stop rule and
    diagnostics, and its result once it stops.  A plain class: a dataclass
    costs about 1 ms of import time."""

    __slots__ = ("config", "stop", "monotone", "history", "converged", "result")

    def __init__(self, config: SolverConfig, stop: float, monotone: bool | None):
        self.config, self.stop, self.monotone = config, stop, monotone
        self.history: list[float] = []
        self.converged = False
        self.result: SolveResult | None = None

    def record(self, low: float, high: float) -> bool:
        """Take one sweep's least and largest change; True if it converged."""
        change = abs(max(high, -low))  # |diff|.max(), +0.0 when all zero
        self.history.append(change)
        if self.monotone:
            self.monotone = low >= 0.0  # updated >= values, on finite fields
        self.converged = converged = change <= self.stop
        return converged

    def finish(self, values: np.ndarray, iterations: int, tables: BellmanTables) -> None:
        self.result = SolveResult(
            values=values, iterations=iterations, change_history=np.asarray(self.history),
            converged=self.converged, monotone=self.monotone, stop_threshold=self.stop,
            dt=tables.dt, variant=self.config.variant, tables=tables)


def solve_many(spec: ProblemSpec, grid: GridSpec, configs,
               tables: BellmanTables | None = None) -> list[SolveResult]:
    """``solve`` of each config, in lock-step over one table build.

    The configs must share ``dt``; ``tables``, if given, must be built for
    ``spec``, ``grid`` and that ``dt``.  Every member has its own initial
    field, variant, stop rule, cap, history and monotone flag.  Each sweep
    updates the stack of the members still running at once, and a member
    leaves it when it stops, so its result has the bits of its own
    ``solve``.  Configs with the same init string, variant, tolerance and
    cap are one member, iterated once, and share one result.
    """
    configs = list(configs)
    for config in configs:
        if not 0 <= config.tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite number >= 0, got {config.tolerance!r}")
    if len({config.dt for config in configs}) > 1:
        raise ValueError("lock-step solves must share dt, got "
                         + ", ".join(sorted({repr(config.dt) for config in configs})))
    if not configs:
        return []
    if tables is None:
        tables = build_tables(spec, grid, configs[0].dt)

    diameter = float(np.linalg.norm(spec.box[:, 1] - spec.box[:, 0]))
    if tables.f_sup > 0 and tables.dt > diameter / tables.f_sup:
        warnings.warn(
            f"time step {tables.dt:.3g} exceeds box diameter / drift bound "
            f"{diameter / tables.f_sup:.3g}; feet may clamp to the box faces",
            stacklevel=2)

    # successive-change cutoff delivering the requested fixed-point accuracy
    gamma = tables.gamma
    shape = (spec.m1, spec.m2, grid.n_points)
    keys = [(c.init, c.variant, c.tolerance, c.max_iterations) if isinstance(c.init, str) else i
            for i, c in enumerate(configs)]
    members: dict[object, _Member] = {}
    fields = {}
    for key, config in zip(keys, configs):
        if key not in members:
            fields[key], track_monotone = _initial_field(config, tables, shape)
            members[key] = _Member(config, config.tolerance * min(1.0, (1.0 - gamma) / gamma),
                                   True if track_monotone else None)
    # PLUS members first: each variant's members are one run of the stack
    order = sorted(members, key=lambda key: members[key].config.variant is not Variant.PLUS)
    running = [members[key] for key in order]
    values = np.stack([fields.pop(key) for key in order])

    sweep = 0
    stopping = True  # some member may stop: at the start, and after a member converges
    while True:
        if stopping or sweep >= cap:
            stack = values.reshape((len(running),) + shape)
            done = [m.converged or sweep >= m.config.max_iterations for m in running]
            for m, final, stopped in zip(running, stack, done):
                if stopped:
                    m.finish(final.copy() if len(running) > 1 else final, sweep, tables)
            keep = [i for i, stopped in enumerate(done) if not stopped]
            if not keep:
                break
            if len(keep) < len(running):
                running = [running[i] for i in keep]
                stack = stack[keep]
            # a lone member sweeps its own field: a stack of one cost 1-D solves ~5%
            values = stack[0] if len(running) == 1 else stack
            variants = [m.config.variant for m in running]
            variant = variants if len(set(variants)) > 1 else variants[0]
            cap = min(m.config.max_iterations for m in running)
            stopping = False
        sweep += 1
        updated = bellman_update(values, spec, grid, variant=variant, tables=tables)
        diff = (updated - values).reshape(len(running), -1)
        for m, low, high in zip(running, np.minimum.reduce(diff, axis=1).tolist(),
                                np.maximum.reduce(diff, axis=1).tolist()):
            stopping = m.record(low, high) or stopping
        values = updated
    return [members[key].result for key in keys]
