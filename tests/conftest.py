import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hybrid_isaacs import discretize
from hybrid_isaacs.exprlang import parse
from hybrid_isaacs.problem import Impulse, ProblemSpec, load_config, load_spec

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def toy_spec(f="0", k="1", u1=(0.0,), u2=(0.0,), lam=1.0, box=((-1.0, 1.0),),
             A=None, d1=("only",), d2=("only",), c1=None, c2=None, impulses=()):
    """Build a ProblemSpec in code.  ``f`` and ``k`` may be single strings
    (shared by every mode pair) or dicts keyed by (i1, i2); ``f`` entries are
    one expression string per state dimension (a bare string means 1-D)."""
    dim = len(box)
    m1, m2 = len(d1), len(d2)

    def table(value, split):
        if isinstance(value, dict):
            return {pair: split(v) for pair, v in value.items()}
        return {(i1, i2): split(value) for i1 in range(m1) for i2 in range(m2)}

    def split_f(v):
        comps = [v] * dim if isinstance(v, str) else list(v)
        assert len(comps) == dim
        return tuple(parse(c) for c in comps)

    c1 = np.zeros((m1, m1)) if c1 is None else np.asarray(c1, dtype=float)
    c2 = np.zeros((m2, m2)) if c2 is None else np.asarray(c2, dtype=float)
    return ProblemSpec(
        dimension=dim,
        generator=np.zeros((dim, dim)) if A is None else np.asarray(A, dtype=float),
        discount=float(lam),
        u1_levels=np.asarray(u1, dtype=float),
        u2_levels=np.asarray(u2, dtype=float),
        d1_labels=tuple(d1),
        d2_labels=tuple(d2),
        dynamics=table(f, split_f),
        running_cost=table(k, parse),
        switch_cost_1=c1,
        switch_cost_2=c2,
        impulses=tuple(Impulse(np.asarray(v, dtype=float), float(c)) for v, c in impulses),
        box=np.asarray(box, dtype=float),
    )


def full_stencils(grid, pts):
    """``interp_weights``' stencils with every corner's index written out,
    ``base + grid.corner_offsets[c]`` in column c: what ``interpolate_many``
    reads."""
    base, wts = discretize.interp_weights(grid, pts)
    return base[:, None] + grid.corner_offsets, wts


# up to this many gathered values the reference read accumulates the
# product, a kernel the program does not have; both of its kernels add the
# terms in corner order, so a read of any size must give their bits
PRODUCT_READS = 256


def interpolate_many(values, idx, wts):
    """The reference read over full corner indices, as the program read
    rollouts before ``read_stencils`` was its only read:
    ``sum_c values[..., idx[..., c]] * wts[..., c]``, leading axes of
    ``values`` broadcast over the queries, added in corner order from +0.0.
    Reads of at most ``PRODUCT_READS`` gathered values accumulate the
    product ``values[..., idx] * wts`` along its corner axis; larger ones
    gather and weight one corner at a time."""
    values = np.asarray(values, dtype=float)
    if values.size // values.shape[-1] * idx.size <= PRODUCT_READS:
        out = np.add.accumulate(values[..., idx] * wts, axis=-1)[..., -1]
        out += 0.0    # the sum starts from +0.0: an all -0.0 stencil reads +0.0
        return out
    out = values.take(idx[..., 0], axis=-1)
    out *= wts[..., 0]
    for c in range(1, idx.shape[-1]):
        term = values.take(idx[..., c], axis=-1)
        term *= wts[..., c]
        out += term
    out += 0.0
    return out


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


def game_2d():
    """A small 2-D game with 2x2 modes, 3x3 controls and a 2-jump menu."""
    return toy_spec(
        f={(0, 0): ("0.5*u1 - 0.2*x0", "0.3*u1*tanh(x0)"),
           (0, 1): ("0.4*u1 + 0.1", "-0.4*u1 - 0.1*x1"),
           (1, 0): ("0.6*u1", "0.2*u1 - 0.1*tanh(x1)"),
           (1, 1): ("0.3*u1 - 0.1*x1", "0.5*u1")},
        k={(0, 0): "x0^2 + x1^2 + 0.1*(1 + u1) + 0.1*(1 - u2*tanh(x1))",
           (0, 1): "0.5*(x0 - 0.5)^2 + x1^2 + 0.3 + 0.1*(1 - u2)",
           (1, 0): "(x0 + 0.5)^2 + 0.5*x1^2 + 0.2 + 0.05*(1 + u1*u2)",
           (1, 1): "x0^2 + (x1 - 0.5)^2 + 0.4 + 0.1*(1 + u2)"},
        u1=(-1.0, 0.0, 1.0), u2=(-1.0, 0.0, 1.0), lam=1.5, box=((-1.0, 1.0), (-1.0, 1.0)),
        A=[[0.2, 0.0], [0.0, 0.1]], d1=("a", "b"), d2=("c", "d"),
        c1=[[0.0, 0.4], [0.5, 0.0]], c2=[[0.0, 0.3], [0.35, 0.0]],
        impulses=(([-0.6, 0.0], 0.4), ([0.4, -0.4], 0.5)))


def game_3d():
    """A small 3-D game with 2x2 modes, 3x2 controls and a 2-jump menu:
    8-corner stencils, where numpy's contiguous sum joins running sums
    pairwise rather than adding in sequence."""
    return toy_spec(
        f={(0, 0): ("0.4*u1", "0.2*x0", "0.1 - 0.1*x1"),
           (0, 1): ("0.4*u1 + 0.1", "0.2*x0*u2", "-0.1*x1"),
           (1, 0): ("0.3*u1", "-0.2*x2", "0.1*x0 + 0.05*u2"),
           (1, 1): ("0.3*u1 - 0.1", "-0.2*x2", "0.1*x0")},
        k={(0, 0): "x0^2 + 0.5*x1^2 + 0.3*x2^2 + 0.1*u2 + 0.2",
           (0, 1): "(x0 - 0.3)^2 + x1^2 + 0.2 + 0.1*u2",
           (1, 0): "0.5*x0^2 + (x1 + 0.2)^2 + x2^2 + 0.3",
           (1, 1): "x0^2 + x2^2 + 0.4 - 0.1*u2"},
        u1=(-1.0, 0.0, 1.0), u2=(0.0, 1.0), lam=1.5, box=((-1.0, 1.0),) * 3,
        A=np.diag([0.2, 0.1, 0.3]), d1=("a", "b"), d2=("c", "d"),
        c1=[[0.0, 0.4], [0.5, 0.0]], c2=[[0.0, 0.3], [0.6, 0.0]],
        impulses=(([-0.3, 0.0, 0.1], 0.5), ([0.0, 0.25, -0.25], 0.7)))


BUNDLED = {
    "constant_cost": SPEC_DIR / "constant_cost.toml",
    "mode_selection": SPEC_DIR / "mode_selection.toml",
    "drift_1d": SPEC_DIR / "drift_1d.toml",
    "impulse_toy": SPEC_DIR / "impulse_toy.toml",
    "balanced_loop": SPEC_DIR / "balanced_loop.toml",
}

INVALID = {
    "zero_switch_cost": SPEC_DIR / "invalid" / "zero_switch_cost.toml",
    "subadditivity": SPEC_DIR / "invalid" / "subadditivity.toml",
    "negative_cost": SPEC_DIR / "invalid" / "negative_cost.toml",
    "syntax_error": SPEC_DIR / "invalid" / "syntax_error.toml",
}

# every spec file the project ships, the invalid ones and test data included
SHIPPED_SPECS = sorted(path for folder in ("specs", "specs/invalid", "tests/data")
                       for path in (SPEC_DIR.parent / folder).glob("*.toml"))


@pytest.fixture(scope="session")
def spec_dir():
    return SPEC_DIR


def load_bundled(name):
    return load_config(BUNDLED[name])


def benchmark_generator():
    """The benchmark's spec generator module, ``perfbench/gen.py``."""
    source = importlib.util.spec_from_file_location("perfbench_gen",
                                                    SPEC_DIR.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(source)
    source.loader.exec_module(gen)
    return gen


def gen2d(seed, points, directory):
    """The benchmark's seeded 2-D game at ``points`` per side, written to
    ``directory`` and read back."""
    path = directory / f"gen{seed}_{points}.toml"
    path.write_text(benchmark_generator().grid2d_spec_text(seed, points))
    return load_spec(path)


@pytest.fixture(scope="session")
def constant_cost():
    return load_bundled("constant_cost")


@pytest.fixture(scope="session")
def mode_selection():
    return load_bundled("mode_selection")


@pytest.fixture(scope="session")
def drift_1d():
    return load_bundled("drift_1d")


@pytest.fixture(scope="session")
def impulse_toy():
    return load_bundled("impulse_toy")


@pytest.fixture(scope="session")
def balanced_loop():
    return load_bundled("balanced_loop")
