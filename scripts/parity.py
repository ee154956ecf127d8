"""Byte-parity digests of the command-line program's outputs.

    python scripts/parity.py [--src PATH] [--work DIR] [CASE ...]

Runs ``validate`` and ``analyze``, then ``solve``, ``verify``, ``verify``
from an upper init, ``verify --values`` and ``simulate`` in each variant,
on every case: the bundled specs, the benchmark's seeded 2-D game (seeds 1
to 3 at 41x41) and a 3-D game at 9x9x9.  ``verify`` has no ``--init``
flag, so the upper-init run reads a copy of the case's spec whose
``[solver]`` table sets ``init = "upper"``.  Each command runs in a fresh interpreter that imports the
program from ``--src`` (default: this checkout's ``src``), with relative
paths inside a per-case directory, so its output does not depend on where
it ran.  One line is printed per digest: case, command, then ``exit``,
``stdout``, ``stderr`` or an output file name, and the sha256.  Manifests
are digested without their ``wall_seconds``.

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


def run_case(name: str, text: str, src: Path, work: Path) -> list[str]:
    """Digest lines of every command on one case, run inside ``work/name``."""
    folder = work / name
    folder.mkdir(parents=True)
    (folder / f"{name}.toml").write_text(text, encoding="utf-8")
    (folder / f"{name}-upper.toml").write_text(upper_init(text), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    lines = []
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
    return lines


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
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch)
        for name in names:
            for line in run_case(name, texts[name], args.src.resolve(), work):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
