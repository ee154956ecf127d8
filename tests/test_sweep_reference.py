"""The sweep and its arg-opts against a reference that takes every
reduction in full, over axes of length 1 too, reads every table through
``read_stencils``, unit weights multiplied, and builds the switch
candidates by fancy indexing.  Fields hold nan, +inf, -inf and -0.0, one
at a time and in stacks, so the shortcuts (a slice for a reduction over
one entry, a one-hot read without its multiply, switch-cost columns built
once per spec, reductions written into their output) must keep every bit,
nan payloads and signed zeros included."""

import numpy as np
import pytest

from hybrid_isaacs import discretize
from hybrid_isaacs.discretize import build_tables, make_grid, read_stencils
from hybrid_isaacs.operators import (_SADDLE as SADDLE, CONTINUE, IMPULSE, SWITCH_LOWER,
                                     SWITCH_UPPER, Variant, bellman_update, policy_sweep)

from conftest import game_2d, game_3d, load_bundled, toy_spec

VARIANTS = pytest.mark.parametrize("variant", [Variant.PLUS, Variant.MINUS])


def _balanced_loop():
    spec, grid_cfg, _ = load_bundled("balanced_loop")
    return spec, make_grid(spec, grid_cfg["points"])


def _signed_zeros():
    """Costs of -0.0 everywhere and no drift: one-hot feet and jumps, both
    cost axes of length 1, and a -0.0 read that would reach the output
    were the read's ``+ 0.0`` skipped."""
    spec = toy_spec(f="0", k="-0", u1=(-1.0, 1.0), u2=(0.0, 1.0), d1=("a", "b"),
                    d2=("c", "d"), c1=[[0.0, -0.0], [-0.0, 0.0]], c2=[[0.0, -0.0], [-0.0, 0.0]],
                    impulses=(([0.5], -0.0),))
    return spec, make_grid(spec, 5)


# balanced_loop: a cost table with a collapsed control axis under PLUS, two
# modes per player (one switch candidate each) and one-hot jumps; game_2d:
# one-hot jumps on four-corner feet; game_3d: no axis collapses, and jumps
# off the nodes
GAMES = {
    "balanced_loop": _balanced_loop,
    "game_2d": lambda: (game_2d(), make_grid(game_2d(), 9)),
    "game_3d": lambda: (game_3d(), make_grid(game_3d(), 5)),
    "signed_zeros": _signed_zeros,
}


@pytest.fixture(scope="module", params=sorted(GAMES))
def game(request):
    spec, grid = GAMES[request.param]()
    return spec, grid, build_tables(spec, grid)


def special_fields(spec, grid, count):
    """``count`` fields of mixed signs, each with nan, +inf, -inf and -0.0
    at nodes of its own, and an all -0.0 field."""
    rng = np.random.default_rng(count)
    shape = (spec.m1, spec.m2, grid.n_points)
    out = []
    for i in range(count):
        values = rng.uniform(-1.0, 3.0, size=shape)
        cells = rng.permutation(values.size)[:4 * (1 + values.size // 40)].reshape(4, -1)
        for special, at in zip((np.nan, np.inf, -np.inf, -0.0), cells):
            values.reshape(-1)[at] = special
        out.append(values)
    return out + [np.full(shape, -0.0)]


def full_continue(values, tables, variant):
    """The continue table ``cost + gamma * read`` of every pair at once and
    its saddle, both reductions taken with their axes kept."""
    spec, grid = tables.spec, tables.grid
    idx, wts = (a.reshape((-1,) + a.shape[2:]) for a in (tables.foot_idx, tables.foot_wts))
    flat = values.reshape(values.shape[:-3] + (spec.m1 * spec.m2 * grid.n_points,))
    q = tables.saddle_cost(SADDLE[variant]) + tables.gamma * read_stencils(flat, idx, wts, grid)
    reduced = q
    for axis, reduce in SADDLE[variant]:
        reduced = reduce(reduced, axis=axis, keepdims=True)
    return q, reduced[..., 0, 0, :].reshape(values.shape)


def full_obstacles(values, tables):
    """``(branch, candidates, axis, better, targets)`` of each obstacle that
    can bind, in projection order; ``targets`` maps the arg-opt to the menu
    entry or target mode."""
    spec = tables.spec
    if spec.impulses:
        cands = (read_stencils(values, tables.imp_idx, tables.imp_wts, tables.grid)
                 + tables.imp_costs[:, None])
        yield IMPULSE, cands, -2, np.minimum, lambda j: j
    for branch, m, cost, axis, better in ((SWITCH_LOWER, spec.m2, spec.switch_cost_2, -2,
                                           np.minimum),
                                          (SWITCH_UPPER, spec.m1, spec.switch_cost_1, -3,
                                           np.maximum)):
        if m == 1:
            continue
        rows = np.arange(m)[:, None]
        others = np.array([[o for o in range(m) if o != i] for i in range(m)])
        if branch == SWITCH_LOWER:
            cands = values[..., others, :] + cost[rows, others][:, :, None]
            yield branch, cands, axis, better, lambda j, o=others, r=rows: o[r, j]
        else:
            cands = values[..., others, :, :] - cost[rows, others][:, :, None, None]
            yield branch, cands, axis, better, lambda j, o=others, r=rows: o[r[:, :, None], j]


def reference_sweep(values, tables, variant):
    out = full_continue(values, tables, variant)[1]
    for _, cands, axis, better, _ in full_obstacles(values, tables):
        out = better(better.reduce(cands, axis=axis), out)
    return out


def reference_policy_sweep(values, tables, variant):
    """``(T[V], branch, arg)`` by the rules ``policy_sweep`` documents: the
    first of each reduction's ties, a later branch only where it changes
    the value, the continue pair as ``a * B + b``."""
    q, out = full_continue(values, tables, variant)
    (axis, inner), (_, outer) = SADDLE[variant]
    argopt = {np.minimum.reduce: np.argmin, np.maximum.reduce: np.argmax}
    reduced = inner(q, axis=axis)                        # (pairs, A or B, p)
    picked = argopt[outer](reduced, axis=-2)[:, None]    # the outer control
    inside = np.take_along_axis(argopt[inner](q, axis=axis), picked, -2)[:, 0]
    a, b = (picked[:, 0], inside) if axis == -2 else (inside, picked[:, 0])
    arg = (a * q.shape[-2] + b).reshape(values.shape)
    branch = np.full(values.shape, CONTINUE, dtype=np.int8)
    for code, cands, axis, better, targets in full_obstacles(values, tables):
        wins = better.reduce(cands, axis=axis)
        won = better(wins, out) != out
        arg[won] = targets(argopt[better.reduce](cands, axis=axis))[won]
        branch[won] = code
        out = better(wins, out)
    return out, branch, arg


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@VARIANTS
def test_sweeps_of_special_fields_have_the_references_bits(game, variant):
    spec, grid, tables = game
    with np.errstate(invalid="ignore"):
        for values in special_fields(spec, grid, 3):
            assert_same_bits(bellman_update(values, spec, grid, variant=variant, tables=tables),
                             reference_sweep(values, tables, variant))


@pytest.mark.parametrize("per_block", [None, 1])
@VARIANTS
def test_stacked_sweeps_of_special_fields_have_the_references_bits(game, variant, per_block,
                                                                   monkeypatch):
    """A stack of five fields, read in one block or one member-pair per
    block, and an empty stack."""
    spec, grid, tables = game
    if per_block is not None:
        monkeypatch.setattr(discretize, "_PAIR_BLOCK_READS", per_block)
        tables = build_tables(spec, grid)
    stack = np.stack(special_fields(spec, grid, 4))
    with np.errstate(invalid="ignore"):
        for values in (stack, stack[:0], stack.reshape((5, 1) + stack.shape[1:])):
            assert_same_bits(bellman_update(values, spec, grid, variant=variant, tables=tables),
                             reference_sweep(values, tables, variant))


@VARIANTS
def test_arg_opt_sweeps_of_special_fields_have_the_references_bits(game, variant):
    spec, grid, tables = game
    with np.errstate(invalid="ignore"):
        for values in special_fields(spec, grid, 3):
            for got, expected in zip(policy_sweep(values, tables, variant),
                                     reference_policy_sweep(values, tables, variant)):
                assert_same_bits(got, expected)


def test_the_games_take_every_shortcut():
    """The cases above reach each shortcut: a cost axis of length 1, one
    switch candidate per player, one-hot jump tables, and several corners."""
    spec, grid = _balanced_loop()
    tables = build_tables(spec, grid)
    assert tables.saddle_cost(SADDLE[Variant.PLUS]).shape[-2] == 1
    assert spec.m1 == spec.m2 == 2
    assert tables.imp_wts.shape[-1] == 1 and tables.foot_wts.shape[-1] == 2
    spec, grid = GAMES["game_3d"]()
    tables = build_tables(spec, grid)
    assert tables.imp_wts.shape[-1] == 8
    assert all(tables.saddle_cost(s).shape[1:3] == (3, 2) for s in SADDLE.values())
    spec, grid = _signed_zeros()
    tables = build_tables(spec, grid)
    assert tables.foot_wts.shape[-1] == tables.imp_wts.shape[-1] == 1
    assert all(tables.saddle_cost(s).shape[1:3] == (1, 1) for s in SADDLE.values())
    assert np.signbit(tables.saddle_cost(SADDLE[Variant.PLUS])).all()
