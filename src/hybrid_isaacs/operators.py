"""Hamiltonians, switching/impulse obstacles, the one-step value update, and
pointwise residuals of the double-obstacle system.

Value fields are plain arrays of shape ``(m1, m2, n_points)``.  Conventions:

* ``Variant.PLUS``: player 1 commits first in the continue branch
  (max over u1 of min over u2); the matching Hamiltonian ordering is
  min over u1 of max over u2 of ``<-p, f> - k``.
* ``Variant.MINUS``: the swapped-and-reversed ordering.
* Missing obstacles are +/- infinity and drop out of the projection
  ``T[V] = max(upper_switch, min(lower_switch, impulse, continue))``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .discretize import BellmanTables, GridSpec, build_tables, read_stencils
from .problem import ProblemSpec

__all__ = [
    "Variant",
    "hamiltonian",
    "isaacs_gap",
    "impulse_candidates",
    "switch_lower_field",
    "switch_upper_field",
    "impulse_field",
    "continue_field",
    "bellman_update",
    "ResidualField",
    "sqvi_residual",
]


class Variant(enum.Enum):
    """Which player's commitment order defines the saddle of the control step."""

    PLUS = "plus"
    MINUS = "minus"


# ---------------------------------------------------------------------------
# Hamiltonians

def hamiltonian(table: np.ndarray, variant: Variant) -> np.ndarray:
    """Saddle of a ``<-p, f> - k`` table over its leading (nu1, nu2) axes, in
    the order of ``variant``."""
    if variant is Variant.PLUS:
        return table.max(axis=1).min(axis=0)  # min over u1 of max over u2
    return table.min(axis=0).max(axis=0)      # max over u2 of min over u1


def isaacs_gap(f: np.ndarray, k: np.ndarray, costate_samples: int = 16,
               seed: int = 0) -> float:
    """Largest |H_plus - H_minus| over the sampled states, mode pairs, and costates.

    ``f``/``k`` are control samples as ``sample_controls`` or
    ``BellmanTables`` hold them.  The costate set always contains the zero
    vector and +/- unit vectors; ``costate_samples`` additional
    standard-normal draws are seeded for reproducibility.  A measured gap of
    zero certifies that both orderings of the control saddle agree on the
    sampled set.
    """
    rng = np.random.default_rng(seed)
    n = f.shape[-1]
    units = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(-1, n)  # e_0, -e_0, e_1, ...
    costates = np.vstack([np.zeros((1, n)), units, rng.standard_normal((costate_samples, n))])

    gap = 0.0
    for pair in np.ndindex(k.shape[:2]):
        for p in costates:
            table = -(f[pair] @ p) - k[pair]  # (nu1, nu2, npts)
            plus, minus = hamiltonian(table, Variant.PLUS), hamiltonian(table, Variant.MINUS)
            gap = max(gap, float(np.abs(plus - minus).max()))
    return gap


# ---------------------------------------------------------------------------
# obstacle operators

@functools.cache
def _other_modes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared (m, 1) rows and (m, m-1) columns, row i the other modes ascending."""
    rows = np.arange(m)[:, None]
    return rows, np.arange(m - 1) + (np.arange(m - 1) >= rows)


def switch_lower_field(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Best player-2 switch: min over other d2 of V[d1, d2'] + c2(d2, d2').

    +inf (inactive) where player 2 has a single mode.
    """
    if spec.m2 == 1:
        return np.full_like(values, np.inf)
    rows, others = _other_modes(spec.m2)
    return (values[:, others] + spec.switch_cost_2[rows, others][:, :, None]).min(axis=2)


def switch_upper_field(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Best player-1 switch: max over other d1 of V[d1', d2] - c1(d1, d1').

    -inf (inactive) where player 1 has a single mode.
    """
    if spec.m1 == 1:
        return np.full_like(values, -np.inf)
    rows, others = _other_modes(spec.m1)
    return (values[others] - spec.switch_cost_1[rows, others][:, :, None, None]).max(axis=1)


def impulse_candidates(values: np.ndarray, tables: BellmanTables) -> np.ndarray:
    """V[d1,d2](clamped x + xi) + cost for every pair and jump: (m1, m2, n_imp, p)."""
    read = read_stencils(values, tables.imp_idx, tables.imp_wts, tables.grid)
    return read + tables.imp_costs[:, None]


def impulse_field(values: np.ndarray, tables: BellmanTables) -> np.ndarray:
    """Best impulse: min over the menu of V[d1,d2](clamped x + xi) + cost.

    +inf (inactive) when the menu is empty.
    """
    if tables.imp_costs.size == 0:
        return np.full_like(values, np.inf)
    return impulse_candidates(values, tables).min(axis=2)


# ---------------------------------------------------------------------------
# one-step update

# each variant's continue saddle over the tables' (m1, m2, nu1, nu2, p)
# axes, inner reduction first: player 1 maximizes over u1 (axis 2),
# player 2 minimizes over u2 (axis 3)
_SADDLE = {Variant.PLUS: ((3, np.min), (2, np.max)),
           Variant.MINUS: ((2, np.max), (3, np.min))}


def continue_field(values: np.ndarray, tables: BellmanTables, variant: Variant) -> np.ndarray:
    """Saddle over the control grids of quadrature cost plus discounted
    interpolated value at the propagated foot.

    The quadrature cost is ``tables.saddle_cost``: ``weight * k``, already
    reduced over each control axis whose feet are all equal, which gives
    the bits of the saddle of ``weight * k + gamma * read`` with fewer
    terms.  Mode pairs are read in the blocks of ``tables.pair_blocks``,
    one read of the flattened field each, up to 2**14 control-node values
    of ``k``: larger fused reads ran no faster, and 4 pairs of 81² ran
    1.1-1.2x slower.
    """
    flat = values.reshape(-1)
    out = np.empty_like(values)
    out_pairs = out.reshape(-1, values.shape[-1])
    cost = tables.saddle_cost(_SADDLE[variant])
    for pairs, idx, wts in tables.pair_blocks:
        q = cost[pairs] + tables.gamma * read_stencils(flat, idx, wts, tables.grid)
        if variant is Variant.PLUS:
            out_pairs[pairs] = q.min(axis=2).max(axis=1)  # max over u1 of min over u2
        else:
            out_pairs[pairs] = q.max(axis=1).min(axis=1)  # min over u2 of max over u1
    return out


def bellman_update(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                   dt: float | None = None, variant: Variant = Variant.PLUS,
                   tables: BellmanTables | None = None) -> np.ndarray:
    """One sweep of the double-obstacle dynamic-programming operator.

    Reads only the previous field (Jacobi update): every point is computed
    from the same input array, so the result is independent of sweep order.
    Branches that cannot bind (a single-mode player's switch, an empty
    menu) are skipped.  np.minimum returns the later operand of a tie and
    the earlier of two NaNs, so min with +inf, max with -inf and
    ``min(L, min(I, C))`` for ``min(min(L, I), C)`` change no bit.
    """
    if tables is None:
        tables = build_tables(spec, grid, dt)
    out = continue_field(values, tables, variant)
    if tables.imp_costs.size:
        out = np.minimum(impulse_field(values, tables), out)
    if spec.m2 > 1:
        out = np.minimum(switch_lower_field(values, spec), out)
    if spec.m1 > 1:
        out = np.maximum(switch_upper_field(values, spec), out)
    return out


# ---------------------------------------------------------------------------
# residuals

@dataclass
class ResidualField:
    """Pointwise diagnostics for a candidate value field.

    ``pde`` is ``lambda*V + <Ax, DV> + H(x, DV)`` with central-difference
    gradients (one-sided on the box faces; face values are informational
    only).  ``hji1``/``hji2`` are the two double-obstacle compositions whose
    common root characterizes the solution; ``fixed_point`` is ``|T[V]-V|``.
    Obstacle gaps are signed so that nonnegative means feasible.
    """

    pde: np.ndarray          # (m1, m2, npts)
    hji1: np.ndarray
    hji2: np.ndarray
    fixed_point: np.ndarray
    gap_upper: np.ndarray    # V - upper_switch  (>= 0 wanted)
    gap_lower: np.ndarray    # lower_switch - V  (>= 0 wanted)
    gap_impulse: np.ndarray  # impulse - V       (>= 0 wanted)
    interior: np.ndarray     # (npts,) bool


def _gradient(values_slab: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Central differences inside, one-sided on faces; shape (npts, n)."""
    shaped = values_slab.reshape(grid.counts)
    grads = []
    for d in range(grid.dimension):
        grads.append(np.gradient(shaped, grid.spacing[d], axis=d, edge_order=1).reshape(-1))
    return np.stack(grads, axis=-1)


def sqvi_residual(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                  dt: float | None = None, variant: Variant = Variant.PLUS,
                  tables: BellmanTables | None = None) -> ResidualField:
    if tables is None:
        tables = build_tables(spec, grid, dt)
    lam = spec.discount
    pts = grid.points
    ax = pts @ spec.generator.T  # rows A @ x

    m1, m2, npts = values.shape
    pde = np.empty_like(values)
    for (i1, i2) in spec.mode_pairs():
        dv = _gradient(values[i1, i2], grid)
        table = -np.einsum("abpn,pn->abp", tables.f[i1, i2], dv) - tables.k[i1, i2]
        pde[i1, i2] = (lam * values[i1, i2] + np.einsum("pn,pn->p", ax, dv)
                       + hamiltonian(table, variant))

    lower = switch_lower_field(values, spec)
    upper = switch_upper_field(values, spec)
    imp = impulse_field(values, tables)

    v_minus_lower = values - lower    # -inf where inactive
    v_minus_imp = values - imp
    v_minus_upper = values - upper    # +inf where inactive

    hji1 = np.minimum(np.maximum(np.maximum(pde, v_minus_lower), v_minus_imp), v_minus_upper)
    hji2 = np.maximum(np.maximum(np.minimum(pde, v_minus_upper), v_minus_lower), v_minus_imp)

    updated = bellman_update(values, spec, grid, variant=variant, tables=tables)
    return ResidualField(
        pde=pde,
        hji1=hji1,
        hji2=hji2,
        fixed_point=np.abs(updated - values),
        gap_upper=values - upper,
        gap_lower=lower - values,
        gap_impulse=imp - values,
        interior=grid.interior_mask(),
    )
