"""``interp_weights`` builds its stencils by corner doubling, one base index
per point.  These tests hold it to the per-corner loop it replaced, kept
below as the reference: every corner's index, ``base +
grid.corner_offsets[c]``, and every weight must match byte for byte, the
weights in the same corner-major layout, and so must every table
``build_tables`` makes from them."""

import numpy as np
import pytest

from hybrid_isaacs import discretize
from hybrid_isaacs.discretize import _NODE_SNAP, build_tables, interp_weights, make_grid

from conftest import game_2d, load_bundled, toy_spec


def reference_interp_weights(grid, pts):
    """One corner at a time, one dimension at a time: corner c takes the
    upper node along d when bit d of c is set, and its weight is the
    product of the per-dimension factors in dimension order."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m, n = pts.shape
    base = np.empty((m, n), dtype=np.int64)
    frac = np.empty((m, n), dtype=float)
    for d in range(n):
        t = (pts[:, d] - grid.box[d, 0]) / grid.spacing[d]
        t = np.clip(t, 0.0, grid.counts[d] - 1)
        near = np.rint(t)
        snap = np.abs(t - near) <= _NODE_SNAP * np.maximum(1.0, np.abs(t))
        t = np.where(snap, near, t)
        i0 = np.minimum(np.floor(t).astype(np.int64), grid.counts[d] - 2)
        base[:, d] = i0
        frac[:, d] = t - i0
    corners = 1 << n
    idx = np.zeros((corners, m), dtype=np.int64)
    wts = np.ones((corners, m), dtype=float)
    for c in range(corners):
        for d in range(n):
            bit = (c >> d) & 1
            idx[c] += (base[:, d] + bit) * grid.strides[d]
            wts[c] *= frac[:, d] if bit else (1.0 - frac[:, d])
    return idx.T, wts.T


def reference_stencils(grid, pts):
    """The reference loop's stencils in ``interp_weights``' format: corner
    0's index is the base."""
    idx, wts = reference_interp_weights(grid, pts)
    return idx[:, 0], wts


def assert_same_stencils(grid, actual, expected, what=""):
    """``actual`` is ``interp_weights``' (base, weights), ``expected`` the
    reference loop's full (indices, weights)."""
    (base, wts), (idx, ref_wts) = actual, expected
    assert base.shape == idx.shape[:1] and base.dtype == idx.dtype, what
    assert base.flags.c_contiguous, what
    full = base[:, None] + grid.corner_offsets
    assert full.tobytes() == np.ascontiguousarray(idx).tobytes(), what
    assert wts.shape == ref_wts.shape and wts.dtype == ref_wts.dtype, what
    assert wts.strides == ref_wts.strides, what
    assert wts.tobytes(order="A") == ref_wts.tobytes(order="A"), what


GRIDS = {
    1: ((11,), ((-1.0, 1.0),)),
    2: ((7, 9), ((-1.0, 1.0), (0.0, 2.0))),
    3: ((5, 4, 6), ((-1.0, 1.0), (0.0, 3.0), (-0.5, 0.7))),
    4: ((3, 4, 3, 5), ((-1.0, 1.0), (0.0, 1.0), (-2.0, 2.0), (0.1, 0.9))),
}


def grid_of(dim):
    counts, box = GRIDS[dim]
    return make_grid(toy_spec(box=box), counts)


def query_kinds(grid, rng, count):
    """``count`` queries of each kind, as (kind, (count, n) array) pairs."""
    n = grid.dimension
    low, high = grid.box[:, 0], grid.box[:, 1]
    width = high - low
    nodes = grid.points[rng.integers(0, grid.n_points, count)]
    node_t = (nodes - low) / grid.spacing
    # a node offset by a fraction of the snap tolerance, and by a few times it
    snap_step = _NODE_SNAP * np.maximum(1.0, node_t) * grid.spacing
    sign = rng.choice([-1.0, 1.0], size=(count, n))
    near = nodes + sign * rng.uniform(0.05, 0.9, (count, n)) * snap_step
    past = nodes + sign * rng.uniform(1.5, 4.0, (count, n)) * snap_step
    face = rng.uniform(low, high, (count, n))
    axis = rng.integers(0, n, count)
    face[np.arange(count), axis] = np.where(rng.random(count) < 0.5, low[axis], high[axis])
    corner = np.where(rng.random((count, n)) < 0.5, low, high)
    outside = rng.uniform(low - 0.5 * width, high + 0.5 * width, (count, n))
    inside = rng.uniform(low, high, (count, n))
    return [("on-node", nodes), ("near-node", near), ("past-snap", past), ("face", face),
            ("corner", corner), ("out-of-box", outside), ("interior", inside)]


@pytest.mark.parametrize("dim", sorted(GRIDS))
@pytest.mark.parametrize("m", [1, 9, 6561])
def test_interp_weights_match_reference_loop(dim, m):
    grid = grid_of(dim)
    rng = np.random.default_rng(100 * dim + m)
    kinds = query_kinds(grid, rng, m)
    for kind, pts in kinds:
        assert_same_stencils(grid, interp_weights(grid, pts),
                             reference_interp_weights(grid, pts), kind)
    mixed = np.concatenate([pts for _, pts in kinds])[rng.permutation(len(kinds) * m)][:m]
    assert_same_stencils(grid, interp_weights(grid, mixed),
                         reference_interp_weights(grid, mixed))


def test_single_state_query():
    grid = grid_of(3)
    x = np.array([0.3, 1.7, 0.05])
    assert_same_stencils(grid, interp_weights(grid, x), reference_interp_weights(grid, x))


def _bundled(name):
    spec, grid_cfg, _ = load_bundled(name)
    return spec, make_grid(spec, grid_cfg["points"])


def _cube():
    spec = toy_spec(f=("0.4*u1", "0.2*x0 - 0.1*u2", "0.1 - 0.1*x1"),
                    k="x0^2 + 0.5*x1^2 + 0.3*x2^2 + 0.1*u2 + 0.2",
                    u1=(-1.0, 1.0), u2=(0.0, 1.0), box=((-1.0, 1.0),) * 3,
                    A=np.diag([0.2, 0.1, 0.3]),
                    impulses=(([-0.3, 0.0, 0.1], 0.5), ([0.0, 0.25, -0.25], 0.7)))
    return spec, make_grid(spec, 7)


TABLE_GAMES = {
    "balanced_loop": lambda: _bundled("balanced_loop"),
    "impulse_toy": lambda: _bundled("impulse_toy"),
    "game_2d": lambda: (game_2d(), make_grid(game_2d(), 15)),
    "cube": _cube,
}


@pytest.mark.parametrize("name", sorted(TABLE_GAMES))
def test_tables_match_reference_stencils(name, monkeypatch):
    spec, grid = TABLE_GAMES[name]()
    tables = build_tables(spec, grid)
    monkeypatch.setattr(discretize, "interp_weights", reference_stencils)
    reference = build_tables(spec, grid)
    for field in ("foot_idx", "foot_wts", "imp_idx", "imp_wts", "k"):
        actual, expected = getattr(tables, field), getattr(reference, field)
        assert actual.shape == expected.shape and actual.strides == expected.strides, field
        assert actual.tobytes(order="A") == expected.tobytes(order="A"), field
    assert tables.dt == reference.dt
