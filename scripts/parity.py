"""Byte-parity digests of the command-line program's outputs.

    python scripts/parity.py [--src PATH] [--work DIR] [CASE ...]

Runs ``validate`` and ``analyze``, then ``solve``, ``solve`` from an
upper init, ``verify``, ``verify`` from an upper init, ``verify
--values`` and ``simulate`` in each variant, on every case: the bundled
specs, the benchmark's seeded 2-D game (seeds 1 to 3 at 41x41) and a 3-D
game at 9x9x9.  ``verify`` has no ``--init`` flag, so the upper-init runs
read a copy of the case's spec whose ``[solver]`` table sets ``init =
"upper"``; ``verify`` solves from zero and from the upper bound whatever
the init, so that run's reports are the plain run's.  Each command runs in a fresh interpreter that imports the
program from ``--src`` (default: this checkout's ``src``), with relative
paths inside a per-case directory, so its output does not depend on where
it ran.  One line is printed per digest: case, command, then ``exit``,
``stdout``, ``stderr`` or an output file name, and the sha256.  Manifests
are digested without their ``wall_seconds``.

``solve`` runs policy iteration wherever it can certify the field, and so
do ``verify``'s solves; elsewhere both run the Picard loop, from the field
of a perturbed copy where one brackets the start.  After each ``solve``,
from zero and from the upper bound alike, the script runs the Picard loop
(``solver.picard(spec, grid, config)``) from the config's own start on
the same arguments and compares its field with the one ``solve`` wrote:
the upper side is the field that ``verify``'s two-sided agreement reads.
The exit code is 1 when a solve's field is missing or lies more than
twice the solve tolerance from Picard's; standard error names the case
and command.  A tree without ``solver.picard`` fails that comparison
under ``--src``, though its listing holds: take its exit code from its
own copy of this script.

The inputs always come from this checkout.  To compare two source trees,
run this script against each and diff the two listings:

    python scripts/parity.py --src /path/to/other/src > other.txt
    python scripts/parity.py > this.txt
    diff other.txt this.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ("balanced_loop", "constant_cost", "drift_1d", "impulse_toy", "mode_selection")
GEN2D_SEEDS = (1, 2, 3)
GEN2D_POINTS = 41
VARIANTS = ("plus", "minus")

# run with a ``solve`` command's arguments in the case's directory: prints
# the largest distance of the field that ``solve`` wrote from the field of
# the Picard loop, and the solve tolerance
PICARD_GAP = """\
import sys
from pathlib import Path
from hybrid_isaacs import cli, problem, solver
args = cli.build_parser().parse_args(sys.argv[1:])
path = Path(args.config)
spec, grid_cfg, solver_cfg = problem.load_config(path)
grid, values = cli.read_value_csv(Path(args.out) / f"{path.stem}.value.csv", spec)
config = cli._solver_config(args, solver_cfg, path)
picard = solver.picard(spec, grid, config).values
print(float(abs(picard - values).max()), config.tolerance)
"""

# the 3-D game of the test suite (tests/conftest.py: game_3d) at 9 points per side
GAME_3D = """\
[problem]
dimension = 3
discount = 1.5
d1_labels = ["a", "b"]
d2_labels = ["c", "d"]
u1_levels = [-1.0, 0.0, 1.0]
u2_levels = [0.0, 1.0]
generator = [[0.2, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.3]]
box = [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]

[dynamics."a,c"]
f = ["0.4*u1", "0.2*x0", "0.1 - 0.1*x1"]

[dynamics."a,d"]
f = ["0.4*u1 + 0.1", "0.2*x0*u2", "-0.1*x1"]

[dynamics."b,c"]
f = ["0.3*u1", "-0.2*x2", "0.1*x0 + 0.05*u2"]

[dynamics."b,d"]
f = ["0.3*u1 - 0.1", "-0.2*x2", "0.1*x0"]

[cost."a,c"]
k = "x0^2 + 0.5*x1^2 + 0.3*x2^2 + 0.1*u2 + 0.2"

[cost."a,d"]
k = "(x0 - 0.3)^2 + x1^2 + 0.2 + 0.1*u2"

[cost."b,c"]
k = "0.5*x0^2 + (x1 + 0.2)^2 + x2^2 + 0.3"

[cost."b,d"]
k = "x0^2 + x2^2 + 0.4 - 0.1*u2"

[switching]
c1 = [[0.0, 0.4], [0.5, 0.0]]
c2 = [[0.0, 0.3], [0.6, 0.0]]

[impulses]
vectors = [[-0.3, 0.0, 0.1], [0.0, 0.25, -0.25]]
costs = [0.5, 0.7]

[grid]
points = [9, 9, 9]

[solver]
tolerance = 1e-9
"""


def case_texts() -> dict[str, str]:
    """Every case's spec text, by case name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    cases = {name: (ROOT / "specs" / f"{name}.toml").read_text(encoding="utf-8")
             for name in BUNDLED}
    for seed in GEN2D_SEEDS:
        cases[f"gen2d_{seed}"] = gen.grid2d_spec_text(seed, GEN2D_POINTS)
    cases["game_3d"] = GAME_3D
    return cases


def commands(name: str) -> list[tuple[str, list[str]]]:
    """(label, arguments) of each command run on case ``name``, in order;
    each writes to the output directory named by its label."""
    spec = f"{name}.toml"
    runs = [("validate", ["validate", spec]), ("analyze", ["analyze", spec])]
    for v in VARIANTS:
        field = f"{v}-solve/{name}.value.csv"
        runs += [
            (f"{v}-solve", ["solve", spec, "--variant", v]),
            (f"{v}-solve-upper", ["solve", f"{name}-upper.toml", "--variant", v]),
            (f"{v}-verify", ["verify", spec, "--variant", v]),
            (f"{v}-verify-upper", ["verify", f"{name}-upper.toml", "--variant", v]),
            (f"{v}-verify-values", ["verify", spec, "--variant", v, "--values", field]),
            (f"{v}-simulate", ["simulate", spec, field, "--variant", v]),
        ]
    return [(label, args + ["--out", label]) for label, args in runs]


def upper_init(text: str) -> str:
    """Spec text with ``init = "upper"`` in its ``[solver]`` table."""
    if "\n[solver]\n" not in text:
        return text + '\n[solver]\ninit = "upper"\n'
    return text.replace("\n[solver]\n", '\n[solver]\ninit = "upper"\n', 1)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("-manifest.json"):
        manifest = json.loads(data)
        manifest.pop("wall_seconds", None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return sha(data)


def picard_gap(name: str, label: str, args: list[str], folder: Path, env: dict) -> str | None:
    """None if the field of the ``solve`` run with ``args`` lies within
    twice its tolerance of the Picard loop's field, else what is wrong."""
    done = subprocess.run([sys.executable, "-c", PICARD_GAP, *args], cwd=folder, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        return f"{name} {label}: no field to compare ({done.stderr.strip().splitlines()[-1]})"
    gap, tolerance = map(float, done.stdout.split())
    if not gap <= 2 * tolerance:
        return (f"{name} {label}: field {gap:.3e} from the Picard loop's, above twice the "
                f"tolerance {tolerance:.1e}")
    return None


def run_case(name: str, text: str, src: Path, work: Path) -> tuple[list[str], list[str]]:
    """Digest lines of every command on one case, run inside ``work/name``,
    and a line for each ``solve`` whose ``picard_gap`` is not None."""
    folder = work / name
    folder.mkdir(parents=True)
    (folder / f"{name}.toml").write_text(text, encoding="utf-8")
    (folder / f"{name}-upper.toml").write_text(upper_init(text), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    lines, gaps = [], []
    for label, args in commands(name):
        done = subprocess.run([sys.executable, "-m", "hybrid_isaacs.cli", *args], cwd=folder,
                              env=env, capture_output=True)
        lines += [f"{name} {label} exit {sha(str(done.returncode).encode())}",
                  f"{name} {label} stdout {sha(done.stdout)}",
                  f"{name} {label} stderr {sha(done.stderr)}"]
        out = folder / label
        if out.is_dir():
            lines += [f"{name} {label} {path.name} {file_digest(path)}"
                      for path in sorted(out.iterdir())]
        if args[0] == "solve":
            gaps.append(picard_gap(name, label, args, folder, env))
    return lines, [gap for gap in gaps if gap is not None]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", help="cases to run (default: all)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree whose program runs (default: this checkout's)")
    parser.add_argument("--work", type=Path,
                        help="directory for the outputs, kept (default: a temporary one)")
    args = parser.parse_args(argv)
    texts = case_texts()
    unknown = sorted(set(args.cases) - texts.keys())
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; choose from {', '.join(texts)}")
    names = args.cases or list(texts)
    gaps = []
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch)
        for name in names:
            lines, case_gaps = run_case(name, texts[name], args.src.resolve(), work)
            for line in lines:
                print(line, flush=True)
            gaps += case_gaps
    for gap in gaps:
        sys.stderr.write(f"parity: {gap}\n")
    return 1 if gaps else 0


if __name__ == "__main__":
    raise SystemExit(main())
