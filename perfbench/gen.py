"""Seeded workload inputs, written as spec text the way a user's file is.

Every number goes into the text through ``repr(float)``, so the file read
back by ``load_spec`` holds exactly the drawn values.  The seed draws only
what leaves the cost of a solve alone: the box, grid, discount, tolerance
and drift bound (hence the time step and the sweep count) are fixed, so two
seeds cost about the same to solve.
"""

from __future__ import annotations

import json
import math
import random

# fixed shape of the synthetic 2-D game
BOX = (-2.0, 2.0)
DISCOUNT = 2.0
TOLERANCE = 1e-9
CONTROLS = (-1.0, 0.0, 1.0)
D1_LABELS = ("steady", "agile")
D2_LABELS = ("calm", "gusty")


def _f(x: float) -> str:
    return repr(float(x))


def _vec(values) -> str:
    return "[" + ", ".join(_f(v) for v in values) + "]"


def _shifted(name: str, centre: float) -> str:
    return f"({name} - {_f(centre)})" if centre >= 0 else f"({name} + {_f(-centre)})"


def _sums_into(menu) -> bool:
    """Whether some jump plus some jump (itself included) is in the menu."""
    return any(all(abs(u + v - w) < 1e-9 for u, v, w in zip(p, q, r))
               for i, p in enumerate(menu) for q in menu[i:] for r in menu)


def grid2d_spec_text(seed: int, points: int) -> str:
    """A 2-D game with 2x2 modes, 3x3 control levels and a 3-vector impulse
    menu, drift steered by player 1 only.

    Drift norms stay below 1 on the box (speed <= 0.6 plus a state term of
    norm <= 0.2*sqrt(2)), so the solver's default step is half a cell for
    every seed.  Costs are a shifted quadratic well plus control terms that
    are nonnegative by construction.  The impulse menu holds three
    node-aligned jumps, no two of which sum into the menu.  With a pair that
    does (two jumps and their sum), ``verify.post_impulse_strictness``
    fails near the box faces on some seeds (13 and 14 at 41x41): there an
    optimal impulse is followed by a second one whose composition is not
    in the menu, which the strict-subadditivity margin does not cover.
    """
    rng = random.Random(seed)
    spacing = (BOX[1] - BOX[0]) / (points - 1)
    lines = [
        f"# synthetic 2-D game, seed {seed}",
        "",
        "[problem]",
        "dimension = 2",
        f"discount = {_f(DISCOUNT)}",
        f"d1_labels = {json.dumps(D1_LABELS)}",
        f"d2_labels = {json.dumps(D2_LABELS)}",
        f"u1_levels = {_vec(CONTROLS)}",
        f"u2_levels = {_vec(CONTROLS)}",
        f"generator = [{_vec([rng.uniform(0.1, 0.4), 0.0])}, "
        f"{_vec([0.0, rng.uniform(0.1, 0.4)])}]",
        f"box = [{_vec(BOX)}, {_vec(BOX)}]",
    ]
    for l1 in D1_LABELS:
        for l2 in D2_LABELS:
            speed = rng.uniform(0.3, 0.6)
            angle = rng.uniform(-1.0, 1.0)
            swirl = rng.uniform(0.05, 0.2)
            cx, cy = speed * math.cos(angle), speed * math.sin(angle)
            lines += [
                "",
                f'[dynamics."{l1},{l2}"]',
                f'f = ["{_f(cx)}*u1 + {_f(swirl)}*tanh(x1)", '
                f'"{_f(cy)}*u1 - {_f(swirl)}*tanh(x0)"]',
            ]
    for l1 in D1_LABELS:
        for l2 in D2_LABELS:
            c0, c1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            w0, w1 = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
            base = rng.uniform(0.1, 0.5)
            e1, e2 = rng.uniform(0.02, 0.2), rng.uniform(0.02, 0.2)
            lines += [
                "",
                f'[cost."{l1},{l2}"]',
                f'k = "{_f(w0)}*{_shifted("x0", c0)}^2 + {_f(w1)}*{_shifted("x1", c1)}^2 + {_f(base)}'
                f' + {_f(e1)}*(1 + u1) + {_f(e2)}*(1 - u2*tanh(x0 + x1))"',
            ]
    # player 1's switches are dear and player 2's cheap, so at most one
    # player's switch binds at a state and one instant never holds a
    # switch / counter-switch / switch-back cascade
    c1 = [[0.0, rng.uniform(2.0, 3.0)], [rng.uniform(2.0, 3.0), 0.0]]
    c2 = [[0.0, rng.uniform(0.3, 0.8)], [rng.uniform(0.3, 0.8), 0.0]]
    # three node-aligned jumps of 4..10 cells per axis, no two of which sum
    # into the menu (see grid2d_spec_text)
    def cells() -> float:
        return rng.choice((-1, 1)) * rng.randint(4, 10) * spacing

    menu = [[cells(), 0.0], [0.0, cells()], [cells(), cells()]]
    while _sums_into(menu):
        menu[2][1] += spacing
    # dear enough that a jump is not followed at once by another: with costs
    # in [0.6, 1.2] that happened (seed 403 at 41x41), and simulate rejects
    # a second impulse within one step
    costs = [rng.uniform(1.5, 3.0) for _ in range(3)]
    lines += [
        "",
        "[switching]",
        f"c1 = [{_vec(c1[0])}, {_vec(c1[1])}]",
        f"c2 = [{_vec(c2[0])}, {_vec(c2[1])}]",
        "",
        "[impulses]",
        f"vectors = [{', '.join(_vec(v) for v in menu)}]",
        f"costs = {_vec(costs)}",
        "",
        "[grid]",
        f"points = [{points}, {points}]",
        "",
        "[solver]",
        f"tolerance = {_f(TOLERANCE)}",
        "",
    ]
    return "\n".join(lines)


def rollout_starts(seed: int | str, box, m1: int, m2: int, count: int):
    """``count`` seeded (state, d1, d2) starts inside ``box`` (rows low, high),
    kept a tenth of the box away from the faces."""
    rng = random.Random(seed)
    starts = []
    for _ in range(count):
        x = [rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)) for lo, hi in box]
        starts.append((x, rng.randrange(m1), rng.randrange(m2)))
    return starts
