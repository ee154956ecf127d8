"""Fixed-point driver producing the value field.

The iteration is a plain Picard loop ``V <- T[V]``; each sweep returns a
new field and the previous one is dropped.  The stop rule converts the requested ``tolerance`` (a target
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
    if config is None:
        config = SolverConfig()
    if not 0 <= config.tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {config.tolerance!r}")
    tables = build_tables(spec, grid, config.dt)

    diameter = float(np.linalg.norm(spec.box[:, 1] - spec.box[:, 0]))
    if tables.f_sup > 0 and tables.dt > diameter / tables.f_sup:
        warnings.warn(
            f"time step {tables.dt:.3g} exceeds box diameter / drift bound "
            f"{diameter / tables.f_sup:.3g}; feet may clamp to the box faces",
            stacklevel=2)

    shape = (spec.m1, spec.m2, grid.n_points)
    values, track_monotone = _initial_field(config, tables, shape)

    # successive-change cutoff delivering the requested fixed-point accuracy
    gamma = tables.gamma
    stop = config.tolerance * min(1.0, (1.0 - gamma) / gamma)

    history: list[float] = []
    monotone: bool | None = True if track_monotone else None
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        updated = bellman_update(values, spec, grid, variant=config.variant, tables=tables)
        diff = updated - values
        low = float(diff.min())
        change = abs(max(float(diff.max()), -low))  # |diff|.max(), +0.0 when all zero
        history.append(change)
        if track_monotone and monotone:
            monotone = low >= 0.0  # updated >= values, on finite fields
        values = updated
        if change <= stop:
            converged = True
            break

    return SolveResult(
        values=values,
        iterations=iterations,
        change_history=np.asarray(history),
        converged=converged,
        monotone=monotone,
        stop_threshold=stop,
        dt=tables.dt,
        variant=config.variant,
        tables=tables,
    )
