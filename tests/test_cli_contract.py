"""A fuzzed contract test of every command.  Small 1-D specs, with one or
two player-2 modes, draw their drift and running cost from terms that
overflow or leave their domain on the box.  Each command runs through
``cli.main`` in process, with numpy's RuntimeWarnings raised as errors: it
returns a code of the exit-code table, lets no exception out of ``main``,
and the example ends within a wall bound."""

import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_isaacs import cli
from hybrid_isaacs.problem import save_spec

from conftest import toy_spec

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_ASSUMPTION, cli.EXIT_NO_CONVERGENCE,
              cli.EXIT_MISMATCH, cli.EXIT_VERIFY}
TERMS = ("exp(800*x0)", "1/x0", "sqrt(x0)", "x0^0.5", "1e300*x0^2", "u1*x0", "0", "1", "0.5",
         "-2")
# one example's commands on an 11-point grid take well under a second; the
# bound leaves room for a slow host, not for a loop without end
WALL_SECONDS = 10.0


def expressions():
    """A sum, difference or product of one to three of ``TERMS``."""
    terms = st.lists(st.sampled_from(TERMS), min_size=1, max_size=3)
    return st.builds(lambda ts, ops: "".join(op + t for op, t in zip(("",) + ops, ts)),
                     terms, st.tuples(*[st.sampled_from((" + ", " - ", " * "))] * 2))


@st.composite
def specs(draw):
    """A spec on [-1, 1], where ``1/x0`` and ``sqrt(x0)`` leave their domain,
    or on [0.5, 1.5], where they do not, with u1 in {-1, 1}, one player-1
    mode and one or two player-2 modes, each pair with its own f and k."""
    d2 = ("a", "b")[:draw(st.integers(1, 2))]
    pairs = [(0, i2) for i2 in range(len(d2))]
    return toy_spec(f={pair: draw(expressions()) for pair in pairs},
                    k={pair: draw(expressions()) for pair in pairs}, u1=(-1.0, 1.0), d2=d2,
                    box=(draw(st.sampled_from([(-1.0, 1.0), (0.5, 1.5)])),),
                    c2=[[0.0, 0.5], [0.5, 0.0]] if len(d2) == 2 else None)


def commands(config: Path):
    """Each command's argv, ``simulate`` last; it reads the field the last
    ``solve`` wrote.  A tolerance of 0, which no residual meets, ends at
    the solve's cap; a step of 1e-300, whose discount rounds to 1, is
    refused; the probes alone sweep fields that may be +inf."""
    value = config.with_name(f"{config.stem}.value.csv")
    return [["validate", config], ["analyze", config], ["solve", config, "--tol", 0],
            ["solve", config, "--dt", "1e-300"], ["solve", config, "--max-iters", 50],
            ["verify", config, "--max-iters", 50, "--trials", 5],
            ["verify", config, "--suite", "probes", "--trials", 5],
            ["simulate", config, value, "--horizon", 1.0]]


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_every_command_keeps_the_exit_code_contract(spec):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.toml"
        save_spec(spec, config, grid={"points": [11]}, solver={"tolerance": 1e-6})
        started = time.perf_counter()
        codes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for argv in commands(config):
                if argv[0] == "simulate" and not argv[2].exists():
                    break
                codes.append(cli.main([str(a) for a in argv]))
        assert set(codes) <= EXIT_CODES, codes
        assert time.perf_counter() - started < WALL_SECONDS
