"""Uniform grids, multilinear interpolation, and precomputed update tables.

Everything the fixed-point sweep touches repeatedly is static once the grid
and step size are chosen: the one-step linear factor, the propagated foot
point of every (state, control, mode) combination, its interpolation stencil,
and the running-cost samples.  ``build_tables`` evaluates all of it once so
each sweep reduces to numpy gathers and one weighted sum per stencil corner.
The impulse landings depend on no step: ``impulse_table`` builds them for
the tables and for the checks that read only the obstacles.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile

import numpy as np

from .problem import ProblemSpec, _nonfinite_at, sample_controls

__all__ = [
    "GridSpec",
    "make_grid",
    "interpolate",
    "read_stencils",
    "interp_weights",
    "semigroup_step",
    "step_constants",
    "ImpulseTable",
    "impulse_table",
    "BellmanTables",
    "build_tables",
    "default_time_step",
]

# snap tolerance for recognizing on-node queries, in units of one cell
_NODE_SNAP = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on a box; point ``i`` along a dimension sits at
    exactly ``low + i*spacing``.  Flat indices are row-major."""

    counts: tuple[int, ...]
    box: np.ndarray  # (n, 2)

    def __post_init__(self):
        if len(self.counts) != self.box.shape[0]:
            raise ValueError("counts and box dimension mismatch")
        if any(c < 2 for c in self.counts):
            raise ValueError("need at least 2 points per dimension")
        box = np.array(self.box, dtype=float)
        box.setflags(write=False)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def dimension(self) -> int:
        return len(self.counts)

    @property
    def n_points(self) -> int:
        return math.prod(self.counts)

    @cached_property
    def spacing(self) -> np.ndarray:
        # in Python floats: the same IEEE quotients as numpy's, in fewer calls
        return np.array([(hi - lo) / (c - 1) for (lo, hi), c in zip(self.box.tolist(),
                                                                     self.counts)])

    @cached_property
    def strides(self) -> np.ndarray:
        # row-major: last dimension varies fastest
        return np.cumprod((1,) + self.counts[:0:-1], dtype=np.int64)[::-1].copy()

    @cached_property
    def corner_offsets(self) -> np.ndarray:
        """Flat offset of stencil corner c from its base: the strides of c's bits."""
        bits = np.arange(1 << self.dimension)[:, None] >> np.arange(self.dimension) & 1
        return bits @ self.strides

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates along each dimension, each shaped to broadcast
        along its own axis of ``counts``: ``(c0, 1, ...)``, ``(c1, 1, ...)``."""
        axes = tuple((self.box[d, 0] + self.spacing[d] * np.arange(c)).reshape(
                         (c,) + (1,) * (self.dimension - 1 - d))
                     for d, c in enumerate(self.counts))
        for axis in axes:
            axis.setflags(write=False)
        return axes

    @cached_property
    def points(self) -> np.ndarray:
        """All grid coordinates, shape (n_points, n), flat row-major order."""
        pts = np.empty((*self.counts, self.dimension))
        for d, axis in enumerate(self.axes):
            pts[..., d] = axis
        pts = pts.reshape(-1, self.dimension)
        pts.setflags(write=False)
        return pts

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.box[:, 0].copy(), self.box[:, 1].copy()

    @cached_property
    def _axis_columns(self) -> tuple[np.ndarray, ...]:
        """(n, 1) columns: low, spacing, last node and last cell per axis."""
        counts = np.asarray(self.counts)[:, None]
        return self.box[:, :1].copy(), self.spacing[:, None], counts - 1.0, counts - 2.0

    def clamp(self, x: np.ndarray) -> np.ndarray:
        low, high = self._bounds
        return np.minimum(np.maximum(x, low), high)


def make_grid(spec: ProblemSpec, counts) -> GridSpec:
    if isinstance(counts, int):
        counts = (counts,) * spec.dimension
    counts = tuple(int(c) for c in counts)
    if len(counts) != spec.dimension:
        raise ValueError(f"expected {spec.dimension} point count(s), got {len(counts)}")
    return GridSpec(counts=counts, box=spec.box)


def interp_weights(grid: GridSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear stencil for each point: (base index, weights).

    Points are clamped to the box first, so the map is total.  Queries that
    sit on a node (up to a relative snap tolerance) reproduce it exactly.
    Shapes: (m,) and (m, 2**n), the weights corner-major (each ``[:, c]``
    column is contiguous); corner c is at ``base + grid.corner_offsets[c]``.

    Cells and fractions are found on an (n, m) copy of the points.  Weights
    are built by doubling: dimension d copies corners ``[0, 2**d)`` to
    ``[2**d, 2**(d+1))`` with weight ``frac_d``, then weights the originals
    by ``1 - frac_d``, so each is ``((1*g_0)*g_1)*...`` in dimension order.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m, n = pts.shape
    if n != grid.dimension:
        raise ValueError("point dimension does not match grid")
    low, spacing, last_node, last_cell = grid._axis_columns
    t = np.minimum(np.maximum((np.ascontiguousarray(pts.T) - low) / spacing, 0.0), last_node)
    near = np.rint(t)
    # t >= 0 here, so max(1, |t|) is max(1, t)
    np.copyto(t, near, where=np.abs(t - near) <= _NODE_SNAP * np.maximum(1.0, t))
    cell = np.minimum(np.floor(t), last_cell)
    frac = t - cell
    comp = 1.0 - frac
    wts = np.empty((1 << n, m))
    wts[0] = 1.0
    for d in range(n):
        half = 1 << d
        np.multiply(wts[:half], frac[d], out=wts[half:2 * half])
        wts[:half] *= comp[d]
    return grid.strides @ cell.astype(np.int64), wts.T


def interpolate(values: np.ndarray, grid: GridSpec, x) -> float:
    """Multilinear interpolation of a flat nodal array at state ``x``, clamped
    to the box, so an infinite coordinate reads the face.  A nan coordinate
    has no cell and is a ValueError naming the state."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise ValueError("values must be a flat nodal array for this grid")
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if np.isnan(x).any():
        raise ValueError(f"cannot interpolate at state {x[0].tolist()}: a coordinate is nan")
    base, wts = interp_weights(grid, x)
    return float(read_stencils(values, base, wts, grid)[0])


# cap on one continue read, in k's control-node values over the block's
# members and mode pairs; a collapsed cost table (see
# BellmanTables.saddle_cost) makes the block's q smaller than that.  Median
# continue branch over caps 2^12 to 2^18 (2-vCPU Xeon, numpy 2.4, two runs):
# a 200-field stack of balanced_loop took 1.9-2.6 ms at 2^14 and 2^15, 3.2
# at 2^16, 4.4-5.2 at 2^12 and 4.7-4.8 at 2^18; one or three fields of the
# gen2d game at 41^2 and 81^2 were within the host's noise at every cap but
# 2^18, 1.7-1.8x slower for three fields at 41^2
_PAIR_BLOCK_READS = 1 << 14


def read_stencils(values: np.ndarray, base: np.ndarray, wts: np.ndarray,
                  grid: GridSpec) -> np.ndarray:
    """Multilinear reads ``sum_c values[..., base + off[c]] * wts[..., c]``,
    ``off = grid.corner_offsets``, of stencils as ``interp_weights`` gives
    them or compact tables store them (see BellmanTables); leading axes of
    ``values`` broadcast over the queries.  Every read is the running sum
    ``((0 + t_0) + t_1) + ... + t_{c-1}`` of the weighted corner terms in
    corner order, as a CSR matrix-vector product adds a row.  A read
    gathers one corner at a time, which skips the corner-long temporary:
    corner c at ``base`` from the view of ``values`` that starts at
    ``off[c]``, with no index add."""
    offsets = grid.corner_offsets
    corners = wts.shape[-1]
    if values.ndim == 1 or corners == 1:
        return _gathered_running_sum(lambda c: values[..., offsets[c]:].take(base, axis=-1), wts)
    # leading axes make the views past offset 0 strided, and take copies a
    # strided view whole (20x the read at 41^3): gather at indices formed in one add
    idx = np.add.outer(offsets[:corners], base)
    return _gathered_running_sum(lambda c: values.take(idx[c], axis=-1), wts)


def _gathered_running_sum(gather, wts: np.ndarray) -> np.ndarray:
    """The weighted corner terms ``gather(c) * wts[..., c]``, summed in order from +0.0."""
    out = gather(0)
    out *= wts[..., 0]
    for c in range(1, wts.shape[-1]):
        term = gather(c)
        term *= wts[..., c]
        out += term
    out += 0.0
    return out


def semigroup_step(A: np.ndarray, dt: float) -> np.ndarray:
    """One-step linear factor: the matrix exponential of ``-dt * A``.

    Scaling-and-squaring with a truncated Taylor series; the argument is
    scaled until its 1-norm is at most 1/2, where 24 terms leave a remainder
    far below 1e-12 relative accuracy.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("generator must be a square matrix")
    if not 0 < dt < np.inf:
        raise ValueError(f"time step must be positive and finite, got {dt!r}")
    M = -dt * A
    norm = float(np.abs(M).sum(axis=0).max())
    if norm == 0.0:
        return np.eye(A.shape[0])
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))))
    S = M / (2.0 ** squarings)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for k in range(1, 25):
            term = term @ S / k
            out = out + term
        for _ in range(squarings):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix exponential overflowed; generator is pathological")
    return out


def step_constants(spec: ProblemSpec, dt: float) -> tuple[float, float, np.ndarray]:
    """One step's discount ``gamma = e^{-lambda dt}``, running-cost weight
    ``(1 - gamma) / lambda`` and linear factor, for the tables and the
    rollout alike."""
    lam = spec.discount
    gamma = float(np.exp(-lam * dt))
    return gamma, (1.0 - gamma) / lam, semigroup_step(spec.generator, dt)


@dataclass
class ImpulseTable:
    """The menu's landing stencils ``clamp(x + xi)`` on one grid, compact
    as in BellmanTables, and its costs: no time step enters them."""

    grid: GridSpec
    imp_idx: np.ndarray          # (n_imp, p)
    imp_wts: np.ndarray          # (n_imp, p, c), c = 1 if one-hot
    imp_costs: np.ndarray        # (n_imp,)


@dataclass
class BellmanTables(ImpulseTable):
    """Static data for one (problem, grid, time step) discretization, the
    impulse landings of ``ImpulseTable`` included.

    Index conventions: mode pairs (i1, i2), control indices (a, b) into the
    level lists, flat grid points p, stencil corners c.  Control axes are
    counted from the end, as the commitment orders name them: u1 is -3 and
    u2 is -2 in ``k``, ``foot_idx`` and the cost tables.

    The stencil tables hold ``interp_weights``' format, which
    ``read_stencils`` reads: one base index per stencil, corner c at ``base
    + grid.corner_offsets[c]``.  Weights are stored corner-major: the
    corner axis is last in the shapes below but outermost in memory.  A
    table whose stencils each have one nonzero weight, 1.0, is one-hot: a
    base at that corner and one unit weight per stencil.

    ``foot_idx`` indexes the flattened field ``values.reshape(-1)``, pair
    offset ``(i1*m2 + i2)*p`` included: one read covers several mode pairs
    (``pair_blocks``) without an offset copy.  ``imp_idx`` indexes a slab.

    A control axis that the drift ignores (``f`` bit-identical along it) has
    length 1 in ``foot_idx``/``foot_wts``: its feet are all equal.  The
    continue branch reads ``saddle_cost``, ``weight * k`` with the saddle's
    reductions over such axes already taken, built on first use per
    commitment order; ``nbytes`` leaves these cost tables out.
    """

    spec: ProblemSpec
    dt: float
    gamma: float                 # e^{-lambda dt}
    weight: float                # (1 - e^{-lambda dt}) / lambda
    step_matrix: np.ndarray      # one-step linear factor
    k: np.ndarray                # (m1, m2, nu1, nu2, p)
    foot_idx: np.ndarray         # (m1, m2, nu1 or 1, nu2 or 1, p)
    foot_wts: np.ndarray         # (m1, m2, nu1 or 1, nu2 or 1, p, c), c = 1 if one-hot
    k_sup: float                 # max running cost over nodes and controls
    f_sup: float                 # max drift norm over nodes and controls

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays built with the tables; cost tables
        that ``saddle_cost`` adds later are not counted."""
        return sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))

    @property
    def upper_bound(self) -> float:
        """Value of never switching/impulsing under the worst constant cost."""
        return self.k_sup / self.spec.discount

    @cached_property
    def _saddle_costs(self) -> dict:
        """``saddle_cost``'s tables by saddle, built on first use."""
        return {}

    @cached_property
    def _pair_blocks(self) -> dict:
        """``pair_blocks``' lists by member count, built on first use."""
        return {}

    def with_spec(self, spec: ProblemSpec) -> BellmanTables:
        """These tables for ``spec``, which differs from theirs in its
        switch costs alone: no table holds those, so the twin shares every
        array and the caches of ``saddle_cost`` and ``pair_blocks``."""
        twin = copy.copy(self)
        twin.spec = spec
        twin.__dict__.update(_saddle_costs=self._saddle_costs, _pair_blocks=self._pair_blocks)
        return twin

    def pair_blocks(self, members: int = 1) -> list[tuple]:
        """``(members, pairs, foot_idx, foot_wts)`` of each block of the
        continue branch over a stack of ``members`` fields: the member
        index, or a slice where the block holds several; the pair slice;
        views of the pairs' tables.  A block spans at most
        ``_PAIR_BLOCK_READS`` of k's control-node values over its members
        and pairs, and at least one member-pair: every member and as many
        pairs as fit, or else one pair and as many members as fit.  An
        empty stack has no block."""
        blocks = self._pair_blocks.get(members)
        if blocks is not None:
            return blocks
        pairs = self.spec.m1 * self.spec.m2
        budget = max(1, _PAIR_BLOCK_READS // self.k[0, 0].size)
        size = max(1, budget // max(1, members))
        rows = max(1, min(members, budget // size))
        idx, wts = (a.reshape((pairs,) + a.shape[2:]) for a in (self.foot_idx, self.foot_wts))
        blocks = [(m if rows == 1 else slice(m, min(m + rows, members)), slice(lo, lo + size),
                   idx[lo:lo + size], wts[lo:lo + size])
                  for m in range(0, members, rows) for lo in range(0, pairs, size)]
        self._pair_blocks[members] = blocks
        return blocks

    def saddle_cost(self, saddle: tuple[tuple[int, Callable], ...]) -> np.ndarray:
        """``weight * k`` for a continue saddle that reduces the control
        axes by ``saddle``, ``(axis, reduction)`` pairs, inner first, with
        end-relative axes: -3 for u1 and -2 for u2; mode pairs flattened:
        (m1*m2, nu1 or 1, nu2 or 1, p).

        Leading reductions are taken here while ``foot_idx`` has length 1
        along their axis.  There the discounted read ``g`` is constant, and
        rounding is monotone, so ``min_b fl(wk[b] + g) == fl(min_b wk[b] +
        g)`` bit for bit, and likewise for max: the saddle of ``cost + g``
        is the saddle of ``weight * k + g``.  An infinite ``weight * k``
        keeps every axis, since ``inf + -inf`` is nan in one term and not
        in the reduced sum.  Built once per ``saddle``, one mode pair at a
        time.
        """
        cost = self._saddle_costs.get(saddle)
        if cost is not None:
            return cost
        k = self.k.reshape((-1,) + self.k.shape[2:])
        taken = list(takewhile(lambda r: self.foot_idx.shape[r[0]] == 1, saddle))
        if taken and any(np.isinf(self.weight * pair).any() for pair in k):
            taken = []
        shape = list(k.shape)
        for axis, _ in taken:
            shape[axis] = 1
        cost = np.empty(shape)
        for out, pair in zip(cost, k):
            wk = self.weight * pair
            for axis, reduce in taken:
                wk = reduce(wk, axis=axis, keepdims=True)
            out[...] = wk
        self._saddle_costs[saddle] = cost
        return cost


def default_time_step(spec: ProblemSpec, grid: GridSpec, f_sup: float) -> float:
    """Keep the propagated foot within about half a cell of its start."""
    return 0.5 * float(grid.spacing.min()) / max(1.0, f_sup)


def _stencil_table(grid: GridSpec, shape: tuple, targets) -> tuple[np.ndarray, np.ndarray]:
    """Compact tables (see BellmanTables) of the point sets ``targets``
    yields, one per ``shape[:-1]`` index in order."""
    base = np.empty(shape, dtype=np.int64)
    wts = np.moveaxis(np.empty((1 << grid.dimension,) + shape), 0, -1)
    for i, pts in zip(np.ndindex(shape[:-1]), targets):
        base[i], wts[i] = interp_weights(grid, pts)
    hot = wts != 0.0
    if (hot.sum(axis=-1) == 1).all() and (wts[hot] == 1.0).all():
        return base + grid.corner_offsets[hot.argmax(axis=-1)], np.ones(shape + (1,))
    return base, wts


def impulse_table(spec: ProblemSpec, grid: GridSpec) -> ImpulseTable:
    """The ImpulseTable of ``spec``'s menu on ``grid``."""
    imp_idx, imp_wts = _stencil_table(grid, (len(spec.impulses), grid.n_points), (
        grid.clamp(grid.points + imp.vector) for imp in spec.impulses))
    return ImpulseTable(grid, imp_idx, imp_wts, np.array([i.cost for i in spec.impulses]))


def build_tables(spec: ProblemSpec, grid: GridSpec, dt: float | None = None) -> BellmanTables:
    pts = grid.points
    f, k = sample_controls(spec, pts)
    m1, m2, _, _, npts, _ = f.shape

    # linalg.norm(f, axis=-1).max() bit for bit: the same squares added in
    # component order, and sqrt is monotone and correctly rounded; the
    # per-node norms are built only to name a node where they are not finite
    squares = f[..., 0] * f[..., 0]
    for i in range(1, f.shape[-1]):
        squares += f[..., i] * f[..., i]
    f_sup = math.sqrt(float(squares.max()))
    if not math.isfinite(f_sup):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(f, axis=-1)
        raise ValueError(f"drift norm is not finite in {_nonfinite_at(spec, norms, pts)}")
    k_sup = float(k.max())
    if dt is None:
        dt = default_time_step(spec, grid, f_sup)
    dt = float(dt)

    gamma, weight, step_matrix = step_constants(spec, dt)

    # one stencil per distinct foot (see BellmanTables): equal drift bits give
    # equal feet, so the u1 (2) or u2 (3) axis keeps length 1 where f's bits
    # never change along it; -0.0 and +0.0 differ
    bits = f.view(np.uint64)
    drift = f[(slice(None),) * 2 + tuple(
        slice(1) if (bits == bits.take([0], axis=ax)).all() else slice(None) for ax in (2, 3))]

    linear_part = pts @ step_matrix.T
    foot_idx, foot_wts = _stencil_table(grid, drift.shape[:-1], (
        grid.clamp(linear_part + dt * drift[i]) for i in np.ndindex(drift.shape[:-2])))
    foot_idx += (np.arange(m1 * m2) * npts).reshape(m1, m2, 1, 1, 1)  # see BellmanTables
    return BellmanTables(
        **vars(impulse_table(spec, grid)), spec=spec, dt=dt, gamma=gamma, weight=weight,
        step_matrix=step_matrix, k=k, foot_idx=foot_idx, foot_wts=foot_wts,
        k_sup=k_sup, f_sup=f_sup,
    )
