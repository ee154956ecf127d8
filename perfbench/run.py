"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-2d --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from the checkout's ``src``.  One process, one caller, a closed
loop: each operation starts when the previous one has ended, with BLAS
threads pinned to 1 and the process pinned to one CPU.  Set-up runs five
times and is reported as the median; each set-up starts a fresh
interpreter that imports the program, because one process imports only
once.  Rounds then repeat until ``--seconds`` have passed, at least one
(two when traced).

End-to-end timings are in reference seconds: each operation's wall time
scaled by how fast the host ran around it, as fixed kernels outside the
program measure it just before and just after the operation (see
``measure.HostSpeed``).  The report prints the wall-time medians beside
them; per-layer figures are wall times.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
they are its per-layer metrics, taken from spans around the program's
public calls in every other phase, while the phases in between run
untraced to give the tracing overhead.  Spans are written to
``.perfbench-out/`` when a traced run ends; all other artifacts live in a
temporary directory that is removed.  The exit code is 0 when every check
passed, 1 when some check failed (metrics still printed), 2 when the
checkout lacks the program and 3 when a workload's spec is rejected.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# which samples give each end-to-end metric; setup_s and peak_rss_mb are
# computed once per run
SAMPLED = ("solve_s", "verify_s", "sim_step_us", "csv_write_s", "csv_read_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str, code: int) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_path = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "hybrid_isaacs" / "__init__.py"
    if not package.is_file() or not (ROOT / "specs").is_dir():
        return fail(f"no program to measure: {package} or the bundled specs are missing", 2)
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in bench["workloads"]]
    if args.workload not in workload_names:
        return fail(f"unknown workload {args.workload!r}; choose from {workload_names}", 2)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for the whole run: migrations between CPUs spread sweep times
    # by about 15%, a pinned process by about 3%
    cpu = None
    if hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import workloads as wl
    from measure import REFERENCE_KERNEL_S, Tracer, machine_info, median, peak_rss_mb, tail
    import_s = time.perf_counter() - STARTED

    traced = bool(args.trace)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        s = wl.Session(args.seed, ROOT, Path(tmp), Tracer() if traced else None)
        workload = wl.WORKLOADS[args.workload](s)
        try:
            for rep in range(SETUP_REPS):
                with s.phase("setup", rep, traced and rep % 2 == 1):
                    wl.fresh_import(s)
                    workload.setup()
        except wl.SpecRejected as exc:
            return fail(f"spec rejected by the cost-assumption gate: {exc}", 3)
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while rounds < (2 if traced else 1) or time.perf_counter() < deadline:
            with s.phase("round", rounds, traced and rounds % 2 == 1):
                workload.round()
            rounds += 1
        csv_mb = sum(g.csv.stat().st_size for g in workload.games) / 1e6
        kernels = wl.kernel_metrics(workload.games) if traced else {}
    rss = peak_rss_mb()

    plain, raw = s.samples[False], s.raw[False]
    end_to_end = {
        "setup_s": median(plain["setup_wall_s"]),
        "peak_rss_mb": rss,
        **{m: median(plain[m]) if plain[m] else None for m in SAMPLED},
    }
    machine = machine_info(numpy)
    lines = [
        f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s measured, trace {'on' if traced else 'off'}",
        "machine: " + ", ".join(f"{k} {v}" for k, v in machine.items())
        + f", BLAS threads pinned to 1, process pinned to CPU {cpu}",
        f"loop: closed, one caller; {SETUP_REPS} set-ups, then {rounds} round(s)",
        "host speed: " + ", ".join(
            f"{kind} kernel median {median(times) * 1e3:.4g} ms over {len(times)} probes "
            f"(reference {REFERENCE_KERNEL_S[kind] * 1e3:.4g} ms)"
            for kind, times in s.speed.samples.items() if times)
        + "; timings below are in reference seconds, each operation scaled by the "
        "kernel times around it, with the wall-time median after 'wall'",
    ]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    lines.append(f"setup_s = {end_to_end['setup_s']:.6g} s (median of "
                 f"{len(plain['setup_wall_s'])} set-ups, each from a fresh interpreter's "
                 f"imports; wall {median(raw['setup_wall_s']):.6g} s; this process's own "
                 f"imports took {import_s:.4f} s)")
    for name, samples in [(m, plain[m]) for m in SAMPLED] + [
            ("sim_step_rollout_us", plain["sim_step_rollout_us"])]:
        unit = units.get(name, "us/step")
        t = tail(samples)
        lines.append(
            f"{name} = " + (f"{median(samples):.6g} {unit}" if samples else "n/a")
            + f" (median, n={len(samples)}"
            + (f", wall {median(raw[name]):.6g}" if samples else "") + f"); {name}_tail = "
            + (f"{t[1]:.6g} {unit} (p{t[0]:.0f})" if t else "n/a (fewer than 11 samples)"))
    lines.append(f"peak_rss_mb = {rss:.6g} MB")
    gate = s.gate
    lines.append(f"fail_share = {gate.fail_share:.6g} ratio ({gate.failed} failed of "
                 f"ops_attempted = {gate.attempted})")
    lines += [f"  FAILED {p}" for p in gate.problems]

    if traced:
        layer = wl.span_metrics(s.tracer)
        layer.update(kernels)
        layer["cli.csv_mb"] = csv_mb
        layer["cli.write_mbps"] = csv_mb / median(raw["csv_write_s"])
        layer["cli.read_mbps"] = csv_mb / median(raw["csv_read_s"])
        # in reference seconds: wall-time differences between phases minutes
        # apart would mostly measure the host's drift
        ref_traced = s.samples[True]
        layer["trace.overhead_s"] = (median(ref_traced["round_wall_s"])
                                     - median(plain["round_wall_s"]))
        layer["trace.solve_overhead_s"] = median(ref_traced["solve_s"]) - median(plain["solve_s"])
        parts = {k: layer[k] for k in ("solver.self_s", "operators.solve_s",
                                       "discretize.build_tables_s")}
        lines.append(
            "solve accounting: " + " + ".join(f"{k} {v:.6g} s" for k, v in parts.items())
            + f" = {sum(parts.values()):.6g} s traced, wall; untraced solve_s "
            f"{median(raw['solve_s']):.6g} s wall; tracing overhead on the solve "
            f"{layer['trace.solve_overhead_s']:.6g} s in reference seconds")
        for name in sorted(layer):
            unit = units.get(name, "s" if name.endswith("_s") else "")
            lines.append(f"{name} = {layer[name]:.6g} {unit}")
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        origin = s.tracer.spans[0][1] if s.tracer.spans else 0.0
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "machine": machine,
                "fields": ["name", "start_s", "end_s", "parent", "round"],
                "spans": [[n, a - origin, b - origin, p, r] for n, a, b, p, r in s.tracer.spans],
                "counts": [[r, n, c] for (r, n), c in sorted(s.tracer.counts.items())],
                "per_layer": layer,
            }, fh)
            fh.write("\n")
        lines.append(f"spans: {len(s.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        wanted = [m["name"] for m in bench["per_layer"]]
        metrics = {m: layer.get(m) for m in wanted}
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
        metrics = {m: end_to_end.get(m) for m in wanted}

    missing = [m for m, v in metrics.items() if v is None]
    lines += [f"  MISSING metric {m}" for m in missing]
    correct = gate.failed == 0 and not missing
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
