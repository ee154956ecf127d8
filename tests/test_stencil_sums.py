"""Multilinear reads on corner-major tables are bit-identical to the
running sum of the weighted corner terms in corner order, written out term
by term, and below 8 corners to numpy's ``(values[idx] * wts).sum(-1)`` on
C-contiguous tables, which every read used to be.  The sweep's compact
tables (one base index per stencil, one unit corner when one-hot) read the
bits of the full tables they replace."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from hybrid_isaacs import discretize, hybridsim
from hybrid_isaacs.discretize import (GridSpec, build_tables, interp_weights, interpolate,
                                      make_grid, read_stencils)
from hybrid_isaacs.operators import (_SADDLE as SADDLE, Variant, bellman_update, continue_field,
                                     impulse_candidates, impulse_field, switch_lower_field,
                                     switch_upper_field)
from hybrid_isaacs.problem import sample_controls

from conftest import (BUNDLED, full_stencils, game_2d, game_3d, gen2d, interpolate_many,
                      load_bundled, toy_spec)


def contiguous_sum(values, idx, wts):
    """The cross-check: C-contiguous stencil tables, every corner gathered
    at once, and numpy's reduction over the corner axis of the C-contiguous
    product.  numpy adds fewer than 8 terms in one running sum, so below 8
    corners this is the read's order; from 8 corners on it joins running
    sums pairwise (see ``assert_read``)."""
    idx, wts = np.ascontiguousarray(idx), np.ascontiguousarray(wts)
    product = np.asarray(values, dtype=float)[..., idx] * wts
    return np.ascontiguousarray(product).sum(axis=-1)


def ordered_sum(values, idx, wts):
    """The reference: ``((0 + t_0) + t_1) + ... + t_{c-1}``, the weighted
    corner terms added in corner order from +0.0, for any corner count."""
    values = np.asarray(values, dtype=float)
    total = 0.0
    for c in range(idx.shape[-1]):
        total = total + values[..., idx[..., c]] * wts[..., c]
    return total


def corners_of(base, wts, grid):
    """A compact table's corner indices written out, ``base + offset`` on
    the last axis, beside its weights: the form ``interpolate_many`` reads."""
    return base[..., None] + grid.corner_offsets[:wts.shape[-1]], wts


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_read(actual, expected, read, corners, values):
    """``expected``'s bits, except where ``read`` is numpy's pairwise sum
    (``contiguous_sum`` from 8 corners on).  There the two orders need only
    agree within their summation error bounds, ``(c - 1) eps`` times the
    terms' absolute sum each, which weights summing to 1 keep below the
    largest ``|value|``."""
    if read is contiguous_sum and corners >= 8:
        atol = 2 * corners * np.finfo(float).eps * np.abs(values).max()
        np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)
    else:
        assert_same_bits(actual, expected)


def _bundled(name):
    spec, grid_cfg, _ = load_bundled(name)
    return spec, make_grid(spec, grid_cfg["points"])


def _balanced_loop():
    return _bundled("balanced_loop")


GAMES = {
    "balanced_loop": _balanced_loop,
    "game_2d": lambda: (game_2d(), make_grid(game_2d(), 11)),
    "game_3d": lambda: (game_3d(), make_grid(game_3d(), 6)),
}


@pytest.fixture(scope="module", params=sorted(GAMES))
def game(request):
    spec, grid = GAMES[request.param]()
    return spec, grid, build_tables(spec, grid)


def fields(spec, grid):
    """Mixed-sign values with signed zeros, and an all -0.0 field, whose
    reads are +0.0 (the running sum starts from +0.0)."""
    rng = np.random.default_rng(7)
    shape = (spec.m1, spec.m2, grid.n_points)
    mixed = rng.uniform(-1.0, 3.0, size=shape) * np.exp(rng.uniform(-20.0, 20.0, size=shape))
    mixed[rng.random(shape) < 0.2] = -0.0
    return [mixed, np.full(shape, -0.0)]


READS = pytest.mark.parametrize("read", [contiguous_sum, ordered_sum])


def reference_continue(values, tables, variant, read):
    """Pair by pair; feet index the flattened field."""
    out = np.empty_like(values)
    for (i1, i2) in tables.spec.mode_pairs():
        q = (tables.weight * tables.k[i1, i2] + tables.gamma * read(
            values.reshape(-1), *corners_of(tables.foot_idx[i1, i2], tables.foot_wts[i1, i2],
                                            tables.grid)))
        if variant is Variant.PLUS:
            out[i1, i2] = q.min(axis=1).max(axis=0)
        else:
            out[i1, i2] = q.max(axis=0).min(axis=0)
    return out


def reference_impulse(values, tables, read):
    out = np.full_like(values, np.inf)
    for j, cost in enumerate(tables.imp_costs):
        for (i1, i2) in tables.spec.mode_pairs():
            cand = read(values[i1, i2], *corners_of(tables.imp_idx[j], tables.imp_wts[j],
                                                    tables.grid)) + cost
            out[i1, i2] = np.minimum(out[i1, i2], cand)
    return out


# (u1, u2) lengths of the foot tables: an axis the drift ignores has length 1
FOOT_CONTROLS = {"balanced_loop": (2, 1), "game_2d": (3, 1), "game_3d": (3, 2)}


# games whose impulse tables are one-hot: every jump lands on a node
ONE_HOT_IMPULSES = {"balanced_loop": True, "game_2d": True, "game_3d": False}


def test_tables_keep_their_shapes_and_store_corners_contiguously(game, request):
    """One int64 base index per stencil; corner-major weights, with one
    unit corner in a one-hot table."""
    spec, grid, tables = game
    name = request.node.callspec.params["game"]
    corners = 1 << spec.dimension
    stencils = (spec.m1, spec.m2) + FOOT_CONTROLS[name] + (grid.n_points,)
    jumps = (len(spec.impulses), grid.n_points)
    tabs = {"foot_idx": stencils, "foot_wts": stencils + (corners,), "imp_idx": jumps,
            "imp_wts": jumps + (1 if ONE_HOT_IMPULSES[name] else corners,)}
    for name, shape in tabs.items():
        table = getattr(tables, name)
        assert table.shape == shape, name
        assert table.nbytes == table.size * 8
        if name.endswith("idx"):
            assert table.dtype == np.int64 and table.flags.c_contiguous, name
        else:
            assert all(table[..., c].flags.c_contiguous for c in range(table.shape[-1])), name
    base, wts = interp_weights(grid, grid.points[:5])
    assert base.shape == (5,) and wts.shape == (5, corners)
    assert base.dtype == np.int64 and base.flags.c_contiguous
    assert all(wts[:, c].flags.c_contiguous for c in range(corners))


def test_feet_index_the_flattened_field(game):
    """Pair (i1, i2)'s feet land in its own slab of ``values.reshape(-1)``,
    and the pair blocks are views of the one table, not offset copies."""
    spec, grid, tables = game
    for (i1, i2) in spec.mode_pairs():
        idx, _ = corners_of(tables.foot_idx[i1, i2], tables.foot_wts[i1, i2], grid)
        assert (idx // grid.n_points == i1 * spec.m2 + i2).all()
    for _, _, idx, wts in tables.pair_blocks():
        assert np.shares_memory(idx, tables.foot_idx) and np.shares_memory(wts, tables.foot_wts)


@pytest.mark.parametrize("name, spec, controls", [
    ("balanced_loop", _balanced_loop()[0], (2, 1)),
    ("game_2d", game_2d(), (3, 1)),
    ("game_3d", game_3d(), (3, 2)),
    # 0*u2 is -0.0 at u2 = -1 and +0.0 at u2 = 1: equal values, unequal bits
    ("signed_zero", toy_spec(f="0*u2", u1=(-1.0, 1.0), u2=(-1.0, 1.0)), (1, 2)),
    ("u1_free", toy_spec(f=("0.3*u2 - 0.1*x0", "0.2*x0"), u1=(-1.0, 0.0, 1.0),
                         u2=(-1.0, 1.0), box=((-1.0, 1.0),) * 2), (1, 2)),
])
def test_foot_axes_collapse_exactly_where_the_drift_bits_are_constant(name, spec, controls):
    tables = build_tables(spec, make_grid(spec, 5))
    assert tables.foot_idx.shape[2:4] == tables.foot_wts.shape[2:4] == controls, name
    assert tables.k.shape[2:4] == (len(spec.u1_levels), len(spec.u2_levels))


def full_shape(tables):
    """The tables with one stencil per (u1, u2) pair, broadcast from the
    stored ones and copied, the weights corner-major."""
    shape = tables.k.shape + (tables.foot_wts.shape[-1],)

    def spread(a):
        return np.moveaxis(np.moveaxis(np.broadcast_to(a, shape), -1, 0).copy(), 0, -1)

    return dataclasses.replace(tables, foot_wts=spread(tables.foot_wts),
                               foot_idx=np.broadcast_to(tables.foot_idx, shape[:-1]).copy())


def compact(base, wts, grid, corners):
    """``interp_weights``' stencils as a table of ``corners`` corners
    stores them: the base and the weights, or in a one-hot table the index
    and weight of the single nonzero corner."""
    assert base.shape == wts.shape[:1] and wts.shape[-1] == len(grid.corner_offsets)
    if corners == 1:
        hot = wts != 0.0
        assert (hot.sum(axis=-1) == 1).all()
        rows, hot = np.arange(len(base)), hot.argmax(axis=-1)
        return base + grid.corner_offsets[hot], wts[rows, hot][:, None]
    return base, wts


@pytest.mark.parametrize("name", ["balanced_loop", "drift_1d", "game_2d"])
def test_collapsed_tables_read_bit_identically_to_full_ones(name):
    """Every (u1, u2) pair's own stencil equals the stored one it reads, and
    the continue branch and the sweep on the collapsed tables give the bits
    of the full-shape tables, in both orderings."""
    spec, grid_cfg = (game_2d(), {"points": 11}) if name == "game_2d" else load_bundled(name)[:2]
    grid = make_grid(spec, grid_cfg["points"])
    tables = build_tables(spec, grid)
    assert tables.foot_idx.shape[2:4] != tables.k.shape[2:4]
    full = full_shape(tables)
    linear_part = grid.points @ tables.step_matrix.T
    f, _ = sample_controls(spec, grid.points)
    for i in np.ndindex(tables.k.shape[:-1]):
        base, wts = interp_weights(grid, grid.clamp(linear_part + tables.dt * f[i]))
        pair = (i[0] * spec.m2 + i[1]) * grid.n_points
        base, wts = compact(base + pair, wts, grid, full.foot_wts.shape[-1])
        assert_same_bits(full.foot_idx[i], base)
        assert_same_bits(full.foot_wts[i], wts)
    for values in fields(spec, grid):
        for variant in (Variant.PLUS, Variant.MINUS):
            assert_same_bits(continue_field(values, tables, variant),
                             continue_field(values, full, variant))
            assert_same_bits(bellman_update(values, spec, grid, variant=variant, tables=tables),
                             bellman_update(values, spec, grid, variant=variant, tables=full))


@pytest.mark.parametrize("per_block", [1, 3])
@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
def test_continue_blocks_match_pair_by_pair_reads(game, variant, per_block, monkeypatch):
    """A budget of ``per_block`` pairs (plus a spare value) splits the four
    mode pairs into full blocks and a partial last one."""
    spec, grid, _ = game
    per_pair = len(spec.u1_levels) * len(spec.u2_levels) * grid.n_points
    monkeypatch.setattr(discretize, "_PAIR_BLOCK_READS", per_block * per_pair + 1)
    tables = build_tables(spec, grid)
    full, rest = divmod(spec.m1 * spec.m2, per_block)
    sizes = [idx.shape[0] for _, _, idx, _ in tables.pair_blocks()]
    assert sizes == [per_block] * full + [rest] * (rest > 0)
    assert len(sizes) > 1
    for values in fields(spec, grid):
        assert_same_bits(continue_field(values, tables, variant),
                         reference_continue(values, tables, variant, ordered_sum))


# ---------------------------------------------------------------------------
# cost tables: weight * k reduced over the control axes whose feet are equal

def steered_by(control):
    """game_2d with its drift steered by ``control``: "u2", or "0" for
    neither player.  Its costs depend on u1 and u2 in every mode pair."""
    base = game_2d()
    drift = toy_spec(f={(i1, i2): (f"{0.3 + 0.1 * i1}*{control} - 0.2*x0",
                                   f"{0.4 - 0.1 * i2}*{control}*tanh(x0) - 0.1*x1")
                        for (i1, i2) in base.mode_pairs()},
                     d1=base.d1_labels, d2=base.d2_labels, box=base.box)
    return dataclasses.replace(base, dynamics=drift.dynamics)


# each drift pattern's game, and the (u1, u2) lengths of its cost table by
# variant: an axis collapses where the feet ignore it and, for the outer
# axis, the inner one collapsed too
DRIFTS = {
    "player 1": (lambda: (game_2d(), 11), {Variant.PLUS: (3, 1), Variant.MINUS: (3, 3)}),
    "player 2": (lambda: (steered_by("u2"), 11), {Variant.PLUS: (3, 3), Variant.MINUS: (1, 3)}),
    "both": (lambda: (game_3d(), 6), {Variant.PLUS: (3, 2), Variant.MINUS: (3, 2)}),
    "neither": (lambda: (steered_by("0"), 11), {Variant.PLUS: (1, 1), Variant.MINUS: (1, 1)}),
}


@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_cost_saddle_gives_the_bits_of_the_full_saddle(drift, variant):
    """The continue branch on the cost table reads the bits of
    ``weight * k + gamma * read`` and its saddle over every control pair.
    The table is ``weight * k`` reduced by the saddle's own max over u1 and
    min over u2, and has length 1 exactly on the collapsed axes."""
    make, lengths = DRIFTS[drift]
    spec, points = make()
    grid = make_grid(spec, points)
    tables = build_tables(spec, grid)
    if drift == "neither":
        assert (np.diff(tables.k, axis=2) != 0).any() and (np.diff(tables.k, axis=3) != 0).any()
    for values in fields(spec, grid):
        assert_same_bits(continue_field(values, tables, variant),
                         reference_continue(values, tables, variant, ordered_sum))
    cost = tables.saddle_cost(SADDLE[variant])
    expected = tables.weight * tables.k
    for axis, reduce in SADDLE[variant]:
        if lengths[variant][axis + 3] > 1:  # u1 is axis -3, u2 axis -2
            break
        expected = reduce(expected, axis=axis, keepdims=True)
    assert cost.shape == (spec.m1 * spec.m2,) + lengths[variant] + (grid.n_points,)
    assert_same_bits(cost, expected.reshape(cost.shape))
    assert tables.saddle_cost(SADDLE[variant]) is cost


def test_an_infinite_running_cost_keeps_every_control_axis():
    """``exp(800)`` overflows: the feet ignore u2, but where u2 = 1 the cost
    is inf, and on a -inf read ``inf + -inf`` is nan in that term alone, so
    the min over u2 must see it."""
    spec = toy_spec(f="0.5*u1", k="exp(800*u2)", u1=(-1.0, 1.0), u2=(0.0, 1.0))
    grid = make_grid(spec, 5)
    with np.errstate(over="ignore"):
        tables = build_tables(spec, grid)
    assert tables.foot_idx.shape[2:4] == (2, 1) and np.isinf(tables.k).any()
    infinite = [np.full((1, 1, 5), -np.inf), np.full((1, 1, 5), np.inf)]
    for values in fields(spec, grid) + infinite:
        for variant in (Variant.PLUS, Variant.MINUS):
            with np.errstate(invalid="ignore"):
                assert_same_bits(continue_field(values, tables, variant),
                                 reference_continue(values, tables, variant, ordered_sum))
            assert tables.saddle_cost(SADDLE[variant]).shape == (1, 2, 2, 5)


@READS
@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
def test_sweep_is_bit_identical_to_contiguous_sums(game, variant, read):
    spec, grid, tables = game
    corners = max(tables.foot_wts.shape[-1], tables.imp_wts.shape[-1])
    for values in fields(spec, grid):
        cont = reference_continue(values, tables, variant, read)
        imp = reference_impulse(values, tables, read)
        assert_read(continue_field(values, tables, variant), cont, read,
                    tables.foot_wts.shape[-1], values)
        assert_read(impulse_field(values, tables), imp, read, tables.imp_wts.shape[-1], values)
        expected = np.maximum(switch_upper_field(values, spec),
                              np.minimum(np.minimum(switch_lower_field(values, spec), imp), cont))
        assert_read(bellman_update(values, spec, grid, variant=variant, tables=tables),
                    expected, read, corners, values)


@READS
def test_interpolate_is_bit_identical_to_contiguous_sum(game, read):
    spec, grid, _ = game
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.uniform(grid.box[:, 0] - 0.1, grid.box[:, 1] + 0.1,
                                 size=(20, spec.dimension)), grid.points[:3]])
    for values in fields(spec, grid):
        for x in pts:
            idx, wts = full_stencils(grid, x.reshape(1, -1))
            expected = read(values[0, 0], idx[0], wts[0])
            assert_read(np.float64(interpolate(values[0, 0], grid, x)), expected, read,
                        idx.shape[-1], values[0, 0])


@pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])
def test_decide_reads_are_bit_identical_to_contiguous_sums(game, variant, monkeypatch):
    spec, grid, tables = game
    calls = []

    def checked(values, base, wts, grid):
        out = read_stencils(values, base, wts, grid)
        idx = base[..., None] + grid.corner_offsets
        for read in (contiguous_sum, ordered_sum, interpolate_many):
            assert_read(out, read(values, idx, wts), read, idx.shape[-1], values)
        calls.append(idx.shape)
        return out

    monkeypatch.setattr(hybridsim, "read_stencils", checked)
    rng = np.random.default_rng(9)
    states = rng.uniform(grid.box[:, 0], grid.box[:, 1], size=(8, spec.dimension))
    for values in fields(spec, grid):
        for x in np.vstack([states, grid.points[:2]]):
            for d1 in range(spec.m1):
                for d2 in range(spec.m2):
                    hybridsim.decide(spec, grid, values, x, d1, d2, dt=tables.dt,
                                     variant=variant)
    # one read per decision: the state, its jump landings and the continue feet
    assert {shape[0] for shape in calls} == {1 + len(spec.impulses)
                                             + len(spec.u1_levels) * len(spec.u2_levels)}


def test_csr_products_read_the_same_bits(game):
    """A CSR matrix over the stored stencils, one row per stencil, gives the
    reads' bits: scipy adds a row's entries in order from +0.0.  The foot
    tables index the flattened field; the impulse tables index one slab,
    applied to the field viewed as (p, m1*m2).  Large and small reads."""
    sparse = pytest.importorskip("scipy.sparse")
    spec, grid, tables = game

    def csr(idx, wts, columns):
        corners = idx.shape[-1]
        rows = idx.size // corners
        return sparse.csr_matrix((wts.reshape(-1), idx.reshape(-1),
                                  np.arange(0, rows * corners + 1, corners)),
                                 shape=(rows, columns))

    few = (0,) * 4 + (slice(4),)
    for values in fields(spec, grid):
        flat = values.reshape(-1)
        for base, wts in ((tables.foot_idx, tables.foot_wts),
                          (tables.foot_idx[few], tables.foot_wts[few])):
            idx, wts = corners_of(base, wts, grid)
            product = (csr(idx, wts, flat.size) @ flat).reshape(idx.shape[:-1])
            assert_same_bits(product, interpolate_many(flat, idx, wts))
            assert_same_bits(product, read_stencils(flat, base, wts, grid))
        slabs = values.reshape(-1, grid.n_points)
        idx, wts = corners_of(tables.imp_idx, tables.imp_wts, grid)
        imp = csr(idx, wts, grid.n_points) @ slabs.T
        expected = interpolate_many(values, idx, wts)
        assert_same_bits(imp.T.reshape(expected.shape), expected)
        assert_same_bits(expected, read_stencils(values, tables.imp_idx, wts, grid))


def corner_grid(corners):
    """A grid of one cell whose stencils have ``corners`` corners (two for
    one corner, a one-hot read uses only the first): only its corner
    offsets matter to a read."""
    dim = max(1, corners.bit_length() - 1)
    return GridSpec(counts=(2,) * dim, box=np.array([[0.0, 1.0]] * dim))


@pytest.mark.parametrize("queries", [(1,), (4, 5), (40, 50)])
@pytest.mark.parametrize("corners", [2, 4, 8, 16])
def test_helper_follows_numpy_summation_order(corners, queries):
    """Any corner count, small and large reads, with leading value axes
    broadcast over the queries: the corner-order running sum, which is
    numpy's contiguous sum below 8 corners and the reference read's bits."""
    rng = np.random.default_rng(corners)
    grid = corner_grid(corners)
    values = rng.standard_normal((2, 3, 50)) * np.exp(rng.uniform(-30.0, 30.0, size=(2, 3, 50)))
    values[0, 0, :20] = -0.0
    base = rng.integers(0, 50, size=queries)
    wts = np.moveaxis(rng.random((corners,) + queries), 0, -1)
    for vals in (values, values[1, 2], values[0, 0, :20]):
        at = base % (vals.shape[-1] - grid.corner_offsets.max())
        out = read_stencils(vals, at, wts, grid)
        idx = at[..., None] + grid.corner_offsets
        for read in (contiguous_sum, ordered_sum, interpolate_many):
            assert_read(out, read(vals, idx, wts), read, corners, vals)


@pytest.mark.parametrize("corners", [1, 2, 4, 8])
@pytest.mark.parametrize("stencils", [1, 32, 300])
def test_reads_of_any_size_give_the_running_sums_bits(corners, stencils):
    """One kernel reads every size, one-hot reads included: the
    corner-order running sum's bits, with signed zeros among the values and
    the weights."""
    rng = np.random.default_rng(corners)
    grid = corner_grid(corners)
    offsets = grid.corner_offsets[:corners]
    values = rng.standard_normal(300) * np.exp(rng.uniform(-30.0, 30.0, size=300))
    values[:30] = -0.0
    base = rng.integers(0, 300 - offsets.max(), size=stencils)
    wts = np.moveaxis(rng.random((corners, stencils)), 0, -1)
    wts[:5] = -0.0
    assert_same_bits(read_stencils(values, base, wts, grid),
                     ordered_sum(values, base[:, None] + offsets, wts))


def test_sweeps_leave_no_reference_cycle_holding_the_tables():
    """Tables are freed as soon as they are dropped, not at the next cyclic
    garbage collection: a sweep must not tie them into a cycle, nor the
    cost tables it builds, collapsed (game_2d) or full (game_3d)."""
    gc.collect()
    gc.disable()
    try:
        for spec, grid in (GAMES["game_2d"](), GAMES["game_3d"]()):
            values = fields(spec, grid)[0]
            tables = build_tables(spec, grid)
            buffers = [weakref.ref(a if a.base is None else a.base) for a in
                       (tables.foot_idx, tables.foot_wts, tables.imp_idx, tables.imp_wts)]
            for variant in (Variant.PLUS, Variant.MINUS):
                bellman_update(values, spec, grid, variant=variant, tables=tables)
            buffers += [weakref.ref(tables.saddle_cost(saddle)) for saddle in SADDLE.values()]
            del tables
            assert all(ref() is None for ref in buffers)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# compact tables against the full layout they replace

def full_layout(tables):
    """Every stencil's ``2**n`` corner indices and weights from
    ``interp_weights``, in the (..., p, c) corner-major layout of the full
    tables: foot indices with their pair offsets, foot weights, then the
    impulses'."""
    grid, spec = tables.grid, tables.spec
    linear_part = grid.points @ tables.step_matrix.T

    def table(shape, targets):
        idx, wts = (np.moveaxis(np.empty((1 << spec.dimension,) + shape, dtype), 0, -1)
                    for dtype in (np.int64, float))
        for i in np.ndindex(shape[:-1]):
            idx[i], wts[i] = full_stencils(grid, targets(i))
        return idx, wts

    f, _ = sample_controls(spec, grid.points)
    foot_idx, foot_wts = table(tables.foot_idx.shape,
                               lambda i: grid.clamp(linear_part + tables.dt * f[i]))
    pairs = np.arange(spec.m1 * spec.m2) * grid.n_points
    foot_idx += pairs.reshape(spec.m1, spec.m2, 1, 1, 1, 1)
    imp_idx, imp_wts = table(tables.imp_idx.shape,
                             lambda i: grid.clamp(grid.points + spec.impulses[i[0]].vector))
    return foot_idx, foot_wts, imp_idx, imp_wts


def full_update(values, tables, variant):
    """The sweep as it was before the compact tables: ``interpolate_many``
    over every corner of the full layout."""
    foot_idx, foot_wts, imp_idx, imp_wts = full_layout(tables)
    spec = tables.spec
    q = tables.weight * tables.k + tables.gamma * interpolate_many(
        values.reshape(-1), foot_idx, foot_wts)
    if variant is Variant.PLUS:
        out = q.min(axis=3).max(axis=2)
    else:
        out = q.max(axis=2).min(axis=2)
    if spec.impulses:
        imp = interpolate_many(values, imp_idx, imp_wts) + tables.imp_costs[:, None]
        out = np.minimum(imp.min(axis=2), out)
    if spec.m2 > 1:
        out = np.minimum(switch_lower_field(values, spec), out)
    if spec.m1 > 1:
        out = np.maximum(switch_upper_field(values, spec), out)
    return out


@pytest.fixture(scope="module")
def layout_games(tmp_path_factory):
    games = {name: _bundled(name) for name in sorted(BUNDLED)}
    games["game_2d"] = (game_2d(), make_grid(game_2d(), 11))
    games["game_3d"] = (game_3d(), make_grid(game_3d(), 6))
    spec = gen2d(1, 21, tmp_path_factory.mktemp("gen2d"))
    games["gen2d_1"] = (spec, make_grid(spec, 21))
    return games


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["game_2d", "game_3d", "gen2d_1"])
def test_sweep_reads_the_bits_of_the_full_tables(layout_games, name):
    """On finite fields, one-hot and full compact tables alike, both orders."""
    spec, grid = layout_games[name]
    tables = build_tables(spec, grid)
    rng = np.random.default_rng(3)
    positive = rng.uniform(0.0, 2.0, size=(spec.m1, spec.m2, grid.n_points))
    for values in fields(spec, grid) + [positive]:
        for variant in (Variant.PLUS, Variant.MINUS):
            assert_same_bits(bellman_update(values, spec, grid, variant=variant, tables=tables),
                             full_update(values, tables, variant))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_node_aligned_jumps_make_one_hot_impulse_tables(seed, tmp_path):
    """Each stencil of the benchmark game's jumps is its landing node."""
    spec = gen2d(seed, 41, tmp_path)
    grid = make_grid(spec, 41)
    tables = build_tables(spec, grid)
    assert tables.imp_idx.shape == (3, grid.n_points)
    assert tables.imp_wts.shape == (3, grid.n_points, 1)
    assert (tables.imp_wts == 1.0).all()
    for j, imp in enumerate(spec.impulses):
        landed = grid.points[tables.imp_idx[j]]
        np.testing.assert_allclose(landed, grid.clamp(grid.points + imp.vector), atol=1e-12)
    assert tables.foot_wts.shape[-1] == 4


def test_one_hot_tables_are_the_ones_with_a_single_unit_weight():
    """balanced_loop's jumps and impulse_toy's feet land on nodes;
    drift_1d's feet do not; a half-cell jump keeps its two-corner table."""
    assert build_tables(*_bundled("balanced_loop")).imp_wts.shape[-1] == 1
    toy = build_tables(*_bundled("impulse_toy"))
    assert toy.foot_wts.shape[-1] == 1 and (toy.foot_wts == 1.0).all()
    assert build_tables(*_bundled("drift_1d")).foot_wts.shape[-1] == 2
    spec = toy_spec(impulses=(([0.25], 0.5),))
    grid = make_grid(spec, 5)    # spacing 0.5: interior jumps land mid-cell
    tables = build_tables(spec, grid)
    assert tables.imp_wts.shape == (1, 5, 2)
    assert tables.imp_wts[0].tolist() == [[0.5, 0.5]] * 4 + [[0.0, 1.0]]
    assert tables.imp_idx.tolist() == [[0, 1, 2, 3, 3]]


def test_one_hot_reads_take_the_landing_node_of_any_field():
    """A one-hot read is the landing node's value, also where a node the
    full stencil weighted by 0 holds inf or nan (0*inf gave nan there)."""
    spec, grid = _bundled("balanced_loop")
    tables = build_tables(spec, grid)
    values = fields(spec, grid)[0]
    values[..., ::7] = np.inf
    values[..., 3::11] = np.nan
    assert_same_bits(impulse_candidates(values, tables),
                     values[..., tables.imp_idx] + tables.imp_costs[:, None])


@pytest.mark.parametrize("name", ["balanced_loop", "impulse_toy"])
def test_impulse_field_holds_one_candidate_sized_temporary(name):
    """On one-hot jump tables, a 50-field stack's best impulse has the bits
    of the candidates read, costed and reduced apart, and its traced peak
    is one array of candidates beside the output: the costs are added in
    place to the fresh read."""
    spec, grid = _bundled(name)
    tables = build_tables(spec, grid)
    assert tables.imp_wts.shape[-1] == 1
    stack = np.random.default_rng(3).uniform(-1.0, 3.0, (50, spec.m1, spec.m2, grid.n_points))
    candidates = (read_stencils(stack, tables.imp_idx, tables.imp_wts, grid)
                  + tables.imp_costs[:, None])
    assert_same_bits(impulse_field(stack, tables), candidates.min(axis=-2))
    tracemalloc.start()
    try:
        out = impulse_field(stack, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= candidates.nbytes * 5 // 4 + out.nbytes, (peak, candidates.nbytes)


@pytest.mark.parametrize("name", ["balanced_loop", "game_2d", "game_3d"])
def test_table_bytes_sum_the_arrays(name):
    spec, grid = GAMES[name]()
    tables = build_tables(spec, grid)
    arrays = [getattr(tables, f.name) for f in dataclasses.fields(tables)]
    assert tables.nbytes == sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    # the cost tables a sweep builds are not counted
    before = tables.nbytes
    for variant in (Variant.PLUS, Variant.MINUS):
        bellman_update(fields(spec, grid)[0], spec, grid, variant=variant, tables=tables)
    assert tables.nbytes == before
    corners = 1 << spec.dimension
    for idx, wts in ((tables.foot_idx, tables.foot_wts), (tables.imp_idx, tables.imp_wts)):
        per_stencil = 16 if wts.shape[-1] == 1 else 8 + 8 * corners
        assert idx.nbytes + wts.nbytes == idx.size * per_stencil


def test_compact_tables_cut_the_3d_table_bytes():
    """game_3d at 21 points per side: at least 30% fewer bytes than the
    full layout, whose stencil tables held 16 bytes per corner."""
    spec = game_3d()
    tables = build_tables(spec, make_grid(spec, 21))
    compact = sum(a.nbytes for a in (tables.foot_idx, tables.foot_wts,
                                     tables.imp_idx, tables.imp_wts))
    full = tables.nbytes - compact + sum(a.nbytes for a in full_layout(tables))
    assert full == tables.nbytes - compact + 16 * 8 * (tables.foot_idx.size + tables.imp_idx.size)
    assert tables.nbytes <= 0.7 * full
