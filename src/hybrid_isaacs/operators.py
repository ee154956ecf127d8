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
* A sweep does only its arithmetic, with the bits of the full reductions:
  a reduction over an axis of length 1 (a collapsed cost axis, the one
  switch candidate of a player with two modes) is that axis's slice, the
  saddle writes into its output block, each player's switch costs are
  columns built once per spec (``ProblemSpec.switches``), and a one-hot
  table's read is one gather and its ``+ 0.0``.  On balanced_loop a sweep
  takes about 29 us and 45 calls that ``sys.setprofile`` sees, against
  42 us and 52 calls with every reduction and multiply taken (2-vCPU
  Xeon, numpy 2.4, ``scripts/abtime.py sweep``).
"""

from __future__ import annotations

import enum

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
# each reduction's arg-opt for the rollout's per-step saddle, found by
# equality: every attribute access makes a new bound method, so
# ``np.minimum.reduce is np.minimum.reduce`` is False; array methods, as
# np.argmin's wrapper costs a rollout step about 1 us.  ``policy_sweep``
# takes its arg-opts from the reductions it has made (``_arg``)
_ARGS = {np.minimum.reduce: np.ndarray.argmin, np.maximum.reduce: np.ndarray.argmax}


# each end-relative control axis's first slice
_FIRST = {-2: (Ellipsis, 0, slice(None)), -3: (Ellipsis, 0, slice(None), slice(None))}


def _reduce(reduce, a: np.ndarray, axis: int) -> np.ndarray:
    """``reduce(a, axis=axis)``, but over an axis of length 1 that axis's
    one slice: the reduction's bits, with no copy."""
    return a[_FIRST[axis]] if a.shape[axis] == 1 else reduce(a, axis=axis)


def _saddle(q: np.ndarray, saddle: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """The saddle of ``q`` over its (..., nu1, nu2, p) control axes by one
    of ``_SADDLE``'s orders, into ``out`` if given."""
    (axis, inner), (_, outer) = saddle
    return outer(_reduce(inner, q, axis), axis=-2, out=out)  # the other control axis is now -2


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
    # two equal infinite saddles differ by nan, which np.fmax passes over: they agree
    with np.errstate(invalid="ignore"):
        for pair in np.ndindex(k.shape[:2]):
            for p in costates:
                table = f[pair] @ p + k[pair]  # (nu1, nu2, npts)
                diff = np.abs(_saddle(table, plus) - _saddle(table, minus))
                gap = max(gap, float(np.fmax.reduce(diff, axis=None)))
    return gap


# ---------------------------------------------------------------------------
# obstacle operators

def _lower_candidates(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """V[d1, d2'] + c2(d2, d2') over the other d2' ascending: (..., m1, m2, m2-1, p)."""
    _, others, costs = spec.switches[1]
    cands = values.take(others, axis=-2)
    cands += costs
    return cands


def _upper_candidates(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """V[d1', d2] - c1(d1, d1') over the other d1' ascending: (..., m1, m1-1, m2, p)."""
    _, others, costs = spec.switches[0]
    cands = values.take(others, axis=-3)
    cands -= costs
    return cands


def switch_lower_field(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Best player-2 switch: min over other d2 of V[d1, d2'] + c2(d2, d2').

    +inf (inactive) where player 2 has a single mode.
    """
    if spec.m2 == 1:
        return np.full_like(values, np.inf)
    return _reduce(np.minimum.reduce, _lower_candidates(values, spec), -2)


def switch_upper_field(values: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Best player-1 switch: max over other d1 of V[d1', d2] - c1(d1, d1').

    -inf (inactive) where player 1 has a single mode.
    """
    if spec.m1 == 1:
        return np.full_like(values, -np.inf)
    return _reduce(np.maximum.reduce, _upper_candidates(values, spec), -3)


def _read_table(values: np.ndarray, idx: np.ndarray, wts: np.ndarray,
                grid: GridSpec) -> np.ndarray:
    """``read_stencils`` of a compact table (see BellmanTables).  A table of
    one corner is one-hot, so its read skips the multiply by the unit
    weights: ``x * 1.0`` is ``x``, and the running sum's ``+ 0.0``, which
    reads -0.0 as +0.0, stays."""
    if wts.shape[-1] > 1:
        return read_stencils(values, idx, wts, grid)
    read = values.take(idx, axis=-1)
    read += 0.0
    return read


def impulse_candidates(values: np.ndarray, tables: ImpulseTable) -> np.ndarray:
    """V[d1,d2](clamped x + xi) + cost for every pair and jump: (..., m1, m2, n_imp, p)."""
    read = _read_table(values, tables.imp_idx, tables.imp_wts, tables.grid)
    read += tables.imp_costs[:, None]  # a fresh array: one candidate-sized temporary
    return read


def impulse_field(values: np.ndarray, tables: ImpulseTable) -> np.ndarray:
    """Best impulse: min over the menu of V[d1,d2](clamped x + xi) + cost.

    +inf (inactive) when the menu is empty.
    """
    if tables.imp_costs.size == 0:
        return np.full_like(values, np.inf)
    return _reduce(np.minimum.reduce, impulse_candidates(values, tables), -2)


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
        read = _read_table(rows[members], idx, wts, tables.grid)
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
    shape = values.shape
    pairs = shape[-3] * shape[-2]
    rows = values.reshape(-1, pairs * shape[-1])
    out = np.empty_like(values)
    out_pairs = out.reshape(len(rows), pairs, shape[-1])  # sizes spelled out: rows may be 0
    for members, pairs, q, saddle in _continue_blocks(rows, tables, variant):
        _saddle(q, saddle, out_pairs[members, pairs])
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
    # the j-th other mode of mode i is j, or j + 1 from i on: ``others[i, j]``
    # without a gather of j's shape
    if spec.m2 > 1:
        rows2 = spec.switches[1][0]
        yield (SWITCH_LOWER, _lower_candidates(values, spec), -2, np.minimum,
               lambda j: j + (j >= rows2))
    if spec.m1 > 1:
        rows1 = spec.switches[0][0][:, :, None]
        yield (SWITCH_UPPER, _upper_candidates(values, spec), -3, np.maximum,
               lambda j: j + (j >= rows1))


def bellman_update(values: np.ndarray, spec: ProblemSpec, grid: GridSpec,
                   variant: Variant = Variant.PLUS,
                   tables: BellmanTables | None = None) -> np.ndarray:
    """One sweep of the double-obstacle dynamic-programming operator.

    Reads only the previous field (Jacobi update): every point is computed
    from the same input array, so the result is independent of sweep order.
    A stack of fields, ``(..., m1, m2, p)``, is swept at once, each member
    with the bits of its own sweep.  np.minimum returns the later operand of
    a tie and the earlier of two NaNs, so ``min(L, min(I, C))`` for
    ``min(min(L, I), C)`` changes no bit.  ``tables`` of None are built at
    the default step.
    """
    if tables is None:
        tables = build_tables(spec, grid)
    out = continue_field(values, tables, variant)
    for _, cands, axis, better, _ in _obstacles(values, spec, tables):
        better(_reduce(better.reduce, cands, axis), out, out=out)
        del cands  # freed before the next obstacle's candidates are built
    return out


# ---------------------------------------------------------------------------
# the sweep with its arg-opts

# where an obstacle's best candidate beats the running value: its
# reduction's strict order, false wherever either side is nan
_BEATS = {np.minimum: np.less, np.maximum: np.greater}


def _arg(reduced: np.ndarray, a: np.ndarray, axis: int) -> np.ndarray:
    """The arg-opt of ``a`` along ``axis`` whose reduction there is
    ``reduced``: the first index whose entry equals it or is nan, which is
    ``np.argmin``'s and ``np.argmax``'s rule (the first of ties, the first
    nan).  Over an axis of length 1 it is 0, with no call, in an array of
    ones' shape that broadcasts against ``reduced``; over a longer one a
    descending scan writes each index but the last where its entry hits,
    so the last stands where no earlier one does."""
    last = a.shape[axis] - 1
    if not last:
        return np.zeros((1,) * reduced.ndim, dtype=np.intp)
    arg = np.full(reduced.shape, last, dtype=np.intp)
    hit = nan = None  # the first hit's buffers, written over by the rest
    for j in range(last - 1, -1, -1):
        entry = a[(Ellipsis, j) + _FIRST[axis][2:]]
        hit = np.equal(entry, reduced, out=hit)
        nan = np.not_equal(entry, entry, out=nan)
        hit |= nan
        np.copyto(arg, j, where=hit)
    return arg


def policy_sweep(values: np.ndarray, tables: BellmanTables,
                 variant: Variant = Variant.PLUS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``bellman_update`` of one field ``(m1, m2, p)`` with its arg-opts:
    ``(T[V], branch, arg)``.  ``T[V]`` has the sweep's bits, from the same
    blocks, reductions and obstacles; each arg-opt is the first of its
    reduction's ties, taken from the reduced value by ``_arg``.

    ``branch`` (int8) is the branch that binds at each node: a later branch
    of the projection binds only where it changes the value to a number, so
    ties go to the continue branch, and so does every node whose ``T[V]``
    is nan.  ``arg`` is the continue branch's control pair ``a * B + b`` on
    the (A, B) control grid of the cost table and the feet broadcast
    together (an axis of length 1 stands for every control the feet
    ignore; see ``BellmanTables.saddle_cost``), the impulse's menu entry,
    or the switch's target mode.
    """
    out = np.empty_like(values)
    arg = np.empty(values.shape, dtype=np.intp)
    out_pairs, arg_pairs = (a.reshape((1, -1, values.shape[-1])) for a in (out, arg))
    for members, pairs, q, saddle in _continue_blocks(values.reshape(1, -1), tables, variant):
        (axis, inner), (_, outer) = saddle
        reduced = _reduce(inner, q, axis)
        value = _reduce(outer, reduced, -2)
        out_pairs[members, pairs] = value
        pick_out = _arg(value, reduced, -2)
        # the inner arg-opt in the row of the outer control picked, along
        # q's other control axis: that row's reduction is ``value``, or nan
        # where ``value`` is
        other = -5 - axis
        pick_in = 0 if q.shape[axis] == 1 else _arg(value, np.take_along_axis(
            q, pick_out[:, None, None], other).squeeze(other), -2)
        a, b = (pick_out, pick_in) if axis == -2 else (pick_in, pick_out)
        arg_pairs[members, pairs] = a * q.shape[-2] + b
    continued = arg.copy()
    branch = np.full(values.shape, CONTINUE, dtype=np.int8)
    for code, cands, axis, better, pick in _obstacles(values, tables.spec, tables):
        wins = _reduce(better.reduce, cands, axis)
        won = _BEATS[better](wins, out)
        np.copyto(arg, pick(_arg(wins, cands, axis)), where=won)
        np.copyto(branch, code, where=won)
        better(wins, out, out=out)
        del cands
    lost = np.isnan(out)  # a number an obstacle won may turn nan at a later one
    np.copyto(branch, CONTINUE, where=lost)
    np.copyto(arg, continued, where=lost)
    return out, branch, arg
