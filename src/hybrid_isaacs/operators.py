"""Hamiltonians, switching/impulse obstacles and the one-step value update
of the double-obstacle system.

Value fields are plain arrays of shape ``(m1, m2, n_points)``; every
branch and the update also take a stack of them, ``(..., m1, m2,
n_points)``, and treat each member as on its own.  Conventions:

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
import math
from collections.abc import Sequence

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
    return (values[..., others, :] + spec.switch_cost_2[rows, others][:, :, None]).min(axis=-2)


def switch_upper_field(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Best player-1 switch: max over other d1 of V[d1', d2] - c1(d1, d1').

    -inf (inactive) where player 1 has a single mode.
    """
    if spec.m1 == 1:
        return np.full_like(values, -np.inf)
    rows, others = _other_modes(spec.m1)
    return (values[..., others, :, :]
            - spec.switch_cost_1[rows, others][:, :, None, None]).max(axis=-3)


def impulse_candidates(values: np.ndarray, tables: BellmanTables) -> np.ndarray:
    """V[d1,d2](clamped x + xi) + cost for every pair and jump: (..., m1, m2, n_imp, p)."""
    read = read_stencils(values, tables.imp_idx, tables.imp_wts, tables.grid)
    return read + tables.imp_costs[:, None]


def impulse_field(values: np.ndarray, tables: BellmanTables) -> np.ndarray:
    """Best impulse: min over the menu of V[d1,d2](clamped x + xi) + cost.

    +inf (inactive) when the menu is empty.
    """
    if tables.imp_costs.size == 0:
        return np.full_like(values, np.inf)
    return impulse_candidates(values, tables).min(axis=-2)


# ---------------------------------------------------------------------------
# one-step update

# each variant's continue saddle over the tables' (m1, m2, nu1, nu2, p)
# axes, inner reduction first: player 1 maximizes over u1 (axis 2),
# player 2 minimizes over u2 (axis 3)
_SADDLE = {Variant.PLUS: ((3, np.min), (2, np.max)),
           Variant.MINUS: ((2, np.max), (3, np.min))}


def _variant_runs(variant: Variant | Sequence[Variant], members: int) -> list[tuple]:
    """``(variant, start, stop)`` of each run of equal variants over a
    stack of ``members`` given one variant per member."""
    variants = list(variant)
    if len(variants) != members:
        raise ValueError(f"{len(variants)} variants for a stack of {members} fields")
    starts = [i for i in range(members) if i == 0 or variants[i] is not variants[i - 1]]
    return [(variants[a], a, b) for a, b in zip(starts, starts[1:] + [members])]


def _saddle(q: np.ndarray, variant: Variant) -> np.ndarray:
    """The saddle of ``q`` over its (..., nu1, nu2, p) control axes."""
    if variant is Variant.PLUS:
        return q.min(axis=-2).max(axis=-2)  # max over u1 of min over u2
    return q.max(axis=-3).min(axis=-2)      # min over u2 of max over u1


def continue_field(values: np.ndarray, tables: BellmanTables,
                   variant: Variant | Sequence[Variant]) -> np.ndarray:
    """Saddle over the control grids of quadrature cost plus discounted
    interpolated value at the propagated foot.

    The quadrature cost is ``tables.saddle_cost``: ``weight * k``, already
    reduced over each control axis whose feet are all equal, which gives
    the bits of the saddle of ``weight * k + gamma * read`` with fewer
    terms.  A stack of fields, ``(..., m1, m2, p)``, is read in the blocks
    of ``tables.pair_blocks``, one read of the flattened fields of
    consecutive members and mode pairs each.  ``variant`` is one Variant
    for the whole stack or one per member, in flattened order: the read is
    shared, and only the saddle is taken per run of equal variants.  One
    field with one variant takes the same reads without a member axis.
    """
    if values.ndim == 3 and isinstance(variant, Variant):
        # one field: the stack's bookkeeping cost a 1-D solve about 1 us a sweep
        flat = values.reshape(-1)
        out = np.empty_like(values)
        out_pairs = out.reshape(-1, values.shape[-1])
        cost = tables.saddle_cost(_SADDLE[variant])
        for _, pairs, idx, wts in tables.pair_blocks():
            read = read_stencils(flat, idx, wts, tables.grid)
            read *= tables.gamma
            q = cost[pairs] + read
            if variant is Variant.PLUS:
                out_pairs[pairs] = q.min(axis=2).max(axis=1)  # max over u1 of min over u2
            else:
                out_pairs[pairs] = q.max(axis=1).min(axis=1)  # min over u2 of max over u1
        return out
    count = math.prod(values.shape[:-3])
    rows = values.reshape(count, -1)
    out = np.empty_like(values)
    out_pairs = out.reshape(count, -1, values.shape[-1])
    if isinstance(variant, Variant):
        runs = [(variant, tables.saddle_cost(_SADDLE[variant]), 0, count)]
    else:
        runs = [(v, tables.saddle_cost(_SADDLE[v]), start, stop)
                for v, start, stop in _variant_runs(variant, count)]
    split = len(runs) > 1
    for members, pairs, idx, wts in tables.pair_blocks(count):
        read = read_stencils(rows[members], idx, wts, tables.grid)
        read *= tables.gamma
        for v, cost, start, stop in runs:
            part, into = read, members
            if split:  # the block's members in this run, if any
                first = members if isinstance(members, int) else members.start
                part = read.reshape((-1,) + idx.shape)
                lo, hi = max(start, first), min(stop, first + len(part))
                if lo >= hi:
                    continue
                part, into = part[lo - first:hi - first], slice(lo, hi)
            out_pairs[into, pairs] = _saddle(cost[pairs] + part, v)
    return out


def bellman_update(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                   dt: float | None = None, variant: Variant | Sequence[Variant] = Variant.PLUS,
                   tables: BellmanTables | None = None) -> np.ndarray:
    """One sweep of the double-obstacle dynamic-programming operator.

    Reads only the previous field (Jacobi update): every point is computed
    from the same input array, so the result is independent of sweep order.
    A stack of fields, ``(..., m1, m2, p)``, is swept at once, each member
    with the bits of its own sweep; ``variant`` is as ``continue_field``
    takes it.
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
