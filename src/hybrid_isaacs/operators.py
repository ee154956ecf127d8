"""Hamiltonians, switching/impulse obstacles and the one-step value update
of the double-obstacle system.

Value fields are plain arrays of shape ``(m1, m2, n_points)``; every
branch and the update also take a stack of them, ``(..., m1, m2,
n_points)``, under one commitment order, and treat each member as on
its own.  Conventions:

* The commitment order is written once, in ``_SADDLE``, which the rollout
  policy reads too.  ``Variant.PLUS``: player 1 commits first (max over u1
  of min over u2 of the continue table); ``Variant.MINUS``: player 2 does
  (min over u2 of max over u1).
* The projection order, ``T[V] = max(upper_switch, min(lower_switch,
  impulse, continue))`` less the obstacles that cannot bind, is written
  once, in ``_obstacles``, and the continue read loop once, in
  ``_continue_blocks``: the sweep and ``policy_sweep`` read both.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .discretize import BellmanTables, GridSpec, ImpulseTable, build_tables, read_stencils
from .problem import ProblemSpec

__all__ = [
    "Variant",
    "isaacs_gap",
    "impulse_candidates",
    "switch_lower_field",
    "switch_upper_field",
    "impulse_field",
    "continue_field",
    "bellman_update",
    "policy_sweep",
    "CONTINUE",
    "IMPULSE",
    "SWITCH_LOWER",
    "SWITCH_UPPER",
]


class Variant(enum.Enum):
    """Which player's commitment order defines the saddle of the control step."""

    PLUS = "plus"
    MINUS = "minus"


# ---------------------------------------------------------------------------
# the commitment order

# each variant's saddle over the control axes of any (..., nu1, nu2, p)
# table, inner reduction first: player 1 maximizes over u1 (axis -3),
# player 2 minimizes over u2 (axis -2)
_SADDLE = {Variant.PLUS: ((-2, np.minimum.reduce), (-3, np.maximum.reduce)),
           Variant.MINUS: ((-3, np.maximum.reduce), (-2, np.minimum.reduce))}
# each reduction's arg-opt, found by equality: every attribute access makes
# a new bound method, so ``np.minimum.reduce is np.minimum.reduce`` is False;
# array methods, as np.argmin's wrapper costs a rollout step about 1 us
_ARGS = {np.minimum.reduce: np.ndarray.argmin, np.maximum.reduce: np.ndarray.argmax}


def _saddle(q: np.ndarray, saddle: tuple) -> np.ndarray:
    """The saddle of ``q`` over its (..., nu1, nu2, p) control axes by one
    of ``_SADDLE``'s orders."""
    (axis, inner), (_, outer) = saddle
    return outer(inner(q, axis=axis), axis=-2)  # the other control axis is now -2


def isaacs_gap(f: np.ndarray, k: np.ndarray, costate_samples: int = 16,
               seed: int = 0) -> float:
    """Largest |H_plus - H_minus| over the sampled states, mode pairs, and costates.

    ``f``/``k`` are control samples as ``sample_controls`` or
    ``BellmanTables`` hold them.  The costate set always contains the zero
    vector and +/- unit vectors; ``costate_samples`` additional
    standard-normal draws are seeded for reproducibility.  A measured gap of
    zero certifies that both orderings of the control saddle agree on the
    sampled set.  The saddles are taken of ``<p, f> + k``, whose exact
    negation is the Hamiltonians' table: the gap has the same bits.
    """
    if costate_samples < 0:
        raise ValueError(f"costate_samples must be a whole number >= 0, got {costate_samples!r}")
    rng = np.random.default_rng(seed)
    n = f.shape[-1]
    units = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(-1, n)  # e_0, -e_0, e_1, ...
    costates = np.vstack([np.zeros((1, n)), units, rng.standard_normal((costate_samples, n))])

    plus, minus = _SADDLE[Variant.PLUS], _SADDLE[Variant.MINUS]
    gap = 0.0
    for pair in np.ndindex(k.shape[:2]):
        for p in costates:
            table = f[pair] @ p + k[pair]  # (nu1, nu2, npts)
            gap = max(gap, float(np.abs(_saddle(table, plus) - _saddle(table, minus)).max()))
    return gap


# ---------------------------------------------------------------------------
# obstacle operators

@functools.cache
def _other_modes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared (m, 1) rows and (m, m-1) columns, row i the other modes ascending."""
    rows = np.arange(m)[:, None]
    return rows, np.arange(m - 1) + (np.arange(m - 1) >= rows)


def _lower_candidates(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """V[d1, d2'] + c2(d2, d2') over the other d2' ascending: (..., m1, m2, m2-1, p)."""
    rows, others = _other_modes(spec.m2)
    return values[..., others, :] + spec.switch_cost_2[rows, others][:, :, None]


def _upper_candidates(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """V[d1', d2] - c1(d1, d1') over the other d1' ascending: (..., m1, m1-1, m2, p)."""
    rows, others = _other_modes(spec.m1)
    return values[..., others, :, :] - spec.switch_cost_1[rows, others][:, :, None, None]


def switch_lower_field(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Best player-2 switch: min over other d2 of V[d1, d2'] + c2(d2, d2').

    +inf (inactive) where player 2 has a single mode.
    """
    if spec.m2 == 1:
        return np.full_like(values, np.inf)
    return _lower_candidates(values, spec).min(axis=-2)


def switch_upper_field(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Best player-1 switch: max over other d1 of V[d1', d2] - c1(d1, d1').

    -inf (inactive) where player 1 has a single mode.
    """
    if spec.m1 == 1:
        return np.full_like(values, -np.inf)
    return _upper_candidates(values, spec).max(axis=-3)


def impulse_candidates(values: np.ndarray, tables: ImpulseTable) -> np.ndarray:
    """V[d1,d2](clamped x + xi) + cost for every pair and jump: (..., m1, m2, n_imp, p)."""
    read = read_stencils(values, tables.imp_idx, tables.imp_wts, tables.grid)
    read += tables.imp_costs[:, None]  # a fresh array: one candidate-sized temporary
    return read


def impulse_field(values: np.ndarray, tables: ImpulseTable) -> np.ndarray:
    """Best impulse: min over the menu of V[d1,d2](clamped x + xi) + cost.

    +inf (inactive) when the menu is empty.
    """
    if tables.imp_costs.size == 0:
        return np.full_like(values, np.inf)
    return impulse_candidates(values, tables).min(axis=-2)


# ---------------------------------------------------------------------------
# one-step update

def _continue_blocks(rows: np.ndarray, tables: BellmanTables, variant: Variant):
    """``(members, pairs, q, saddle)`` of each ``tables.pair_blocks`` block
    of flat fields ``rows``, ``(count, m1*m2*p)``: its index in a ``(count,
    m1*m2, p)`` stack, its continue table ``cost[pairs] + gamma * read`` and
    ``variant``'s ``_SADDLE`` order.  A block of one member reads its flat
    field."""
    saddle = _SADDLE[variant]
    cost = tables.saddle_cost(saddle)
    for members, pairs, idx, wts in tables.pair_blocks(len(rows)):
        read = read_stencils(rows[members], idx, wts, tables.grid)
        read *= tables.gamma
        yield members, pairs, cost[pairs] + read, saddle


def continue_field(values: np.ndarray, tables: BellmanTables, variant: Variant) -> np.ndarray:
    """Saddle over the control grids of quadrature cost plus discounted
    interpolated value at the propagated foot, of one field or a stack
    ``(..., m1, m2, p)``, read in the blocks of ``tables.pair_blocks``.

    The cost is ``tables.saddle_cost``, ``weight * k`` already reduced over
    each control axis whose feet are all equal: the bits of the full saddle
    from fewer terms.
    """
    count = math.prod(values.shape[:-3])
    pairs, points = math.prod(values.shape[-3:-1]), values.shape[-1]
    rows = values.reshape(count, pairs * points)  # sizes spelled out: count may be 0
    out = np.empty_like(values)
    out_pairs = out.reshape(count, pairs, points)
    for members, pairs, q, saddle in _continue_blocks(rows, tables, variant):
        out_pairs[members, pairs] = _saddle(q, saddle)
    return out


# each node's binding branch, in ``_obstacles`` and ``policy_sweep``
CONTINUE, IMPULSE, SWITCH_LOWER, SWITCH_UPPER = range(4)


def _obstacles(values: np.ndarray, spec: ProblemSpec, tables: ImpulseTable):
    """``(branch, candidates, axis, better, pick)`` of each obstacle that can
    bind, in projection order: the obstacle is ``better.reduce(candidates,
    axis=axis)``, np.minimum's above the field and np.maximum's below, and
    ``pick`` maps its arg-opt to the menu entry or target mode; ``tables``
    may be an ImpulseTable alone."""
    if tables.imp_costs.size:
        yield IMPULSE, impulse_candidates(values, tables), -2, np.minimum, lambda j: j
    if spec.m2 > 1:
        rows2, others2 = _other_modes(spec.m2)
        yield (SWITCH_LOWER, _lower_candidates(values, spec), -2, np.minimum,
               lambda j: others2[rows2, j])
    if spec.m1 > 1:
        rows1, others1 = _other_modes(spec.m1)
        yield (SWITCH_UPPER, _upper_candidates(values, spec), -3, np.maximum,
               lambda j: others1[rows1[:, :, None], j])


def bellman_update(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                   dt: float | None = None, variant: Variant = Variant.PLUS,
                   tables: BellmanTables | None = None) -> np.ndarray:
    """One sweep of the double-obstacle dynamic-programming operator.

    Reads only the previous field (Jacobi update): every point is computed
    from the same input array, so the result is independent of sweep order.
    A stack of fields, ``(..., m1, m2, p)``, is swept at once, each member
    with the bits of its own sweep.  np.minimum returns the later operand of
    a tie and the earlier of two NaNs, so ``min(L, min(I, C))`` for
    ``min(min(L, I), C)`` changes no bit.
    """
    if tables is None:
        tables = build_tables(spec, grid, dt)
    out = continue_field(values, tables, variant)
    for _, cands, axis, better, _ in _obstacles(values, spec, tables):
        better(better.reduce(cands, axis=axis), out, out=out)
        del cands  # freed before the next obstacle's candidates are built
    return out


# ---------------------------------------------------------------------------
# the sweep with its arg-opts

def policy_sweep(values: np.ndarray, tables: BellmanTables,
                 variant: Variant = Variant.PLUS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``bellman_update`` of one field ``(m1, m2, p)`` with its arg-opts:
    ``(T[V], branch, arg)``.  ``T[V]`` has the sweep's bits, from the same
    blocks and obstacles; each arg-opt is the first of its reduction's ties.

    ``branch`` (int8) is the branch that binds at each node: a later branch
    of the projection binds only where it changes the value, so ties go to
    the continue branch.  ``arg`` is the continue branch's control pair
    ``a * B + b`` on the (A, B) control grid of the cost table and the feet
    broadcast together (an axis of length 1 stands for every control the
    feet ignore; see ``BellmanTables.saddle_cost``), the impulse's menu
    entry, or the switch's target mode.
    """
    out = np.empty_like(values)
    arg = np.empty(values.shape, dtype=np.intp)
    out_pairs, arg_pairs = (a.reshape((1, -1, values.shape[-1])) for a in (out, arg))
    for members, pairs, q, saddle in _continue_blocks(values.reshape(1, -1), tables, variant):
        (axis, inner), (_, outer) = saddle
        reduced = inner(q, axis=axis)
        out_pairs[members, pairs] = outer(reduced, axis=-2)
        pick_out = _ARGS[outer](reduced, axis=-2)[:, None]
        pick_in = np.take_along_axis(_ARGS[inner](q, axis=axis), pick_out, -2)[:, 0]
        a, b = (pick_out[:, 0], pick_in) if axis == -2 else (pick_in, pick_out[:, 0])
        arg_pairs[members, pairs] = a * q.shape[-2] + b
    branch = np.full(values.shape, CONTINUE, dtype=np.int8)
    for code, cands, axis, better, pick in _obstacles(values, tables.spec, tables):
        wins = better.reduce(cands, axis=axis)
        won = better(wins, out) != out
        np.copyto(arg, pick(_ARGS[better.reduce](cands, axis=axis)), where=won)
        branch[won] = code
        better(wins, out, out=out)
        del cands
    return out, branch, arg
