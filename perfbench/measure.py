"""Spans, self time, sample summaries and machine facts for the benchmark.

Nothing here imports the program under test, so the tests of the
arithmetic run without it.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

NAME, START, END, PARENT, ROUND = range(5)


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent, round]``; ``parent`` is the index
    of the enclosing span or -1.  The program is single-threaded, so one
    stack of open spans gives every span its parent.  Counts are kept per
    ``(round, name)`` at the same boundaries.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.round = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = self._start(name)
        try:
            yield
        finally:
            self._end(rec)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.round, name)] += n

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call."""
        start, end = self._start, self._end

        def traced(*args, **kwargs):
            rec = start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Replace ``module.attr`` by its traced form for the duration.

        ``targets`` holds ``(module, attr, span_name)`` triples; the original
        attributes are restored on exit, whatever happened inside.
        """
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for (module, attr, original), (_, _, name) in zip(saved, targets):
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _start(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, 0.0, 0.0, parent, self.round]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = self.clock()
        self._open.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once, and the parts of
    a child outside its parent are ignored)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def op_of(spans) -> list[int]:
    """Index of each span's nearest enclosing span (itself included) whose
    name starts with ``op.``, or -1.  Parents precede their children."""
    out: list[int] = []
    for i, rec in enumerate(spans):
        if rec[NAME].startswith("op."):
            out.append(i)
        else:
            out.append(out[rec[PARENT]] if rec[PARENT] >= 0 else -1)
    return out


# the scale of a reference second: about the median time of each HostSpeed
# kernel on the reference machine (2-vCPU Intel Xeon at 2.1 GHz, Python
# 3.11.7, numpy 2.4.6), pinned to one CPU; changing it rescales every timing
REFERENCE_KERNEL_S = {"compute": 0.0030, "memory": 0.0046}


class HostSpeed:
    """How fast the host runs at the moment, from the times of two fixed
    kernels that never touch the program.

    On a shared host the CPU's speed drifts by up to half over seconds to
    minutes.  Compute-bound work slows with it almost in step; work that
    streams through tables far beyond L2 slows less and partly for other
    reasons, so there are two kernels:

    - ``compute``: pure-Python arithmetic (like the scalar path of a
      simulation) and many numpy calls on a small array (like 1-D sweeps);
    - ``memory``: a weighted gather that streams 16 MiB of indices and
      weights and reads from a 200 KiB field, like a 2-D sweep, which
      streams its 22 MB of stencil tables and gathers from a field that
      stays in L2.

    ``factor(kind, first)`` turns a wall time into reference seconds: it is
    ``REFERENCE_KERNEL_S[kind]`` over the median time of that kernel from
    sample ``first`` on.
    """

    KINDS = ("compute", "memory")
    # untimed calls before the timed ones: right after a large operation
    # the first streaming pass runs slower while its arrays come back into
    # cache, which a sweep in its steady state does not see; the compute
    # kernel shows no such effect
    WARM_UP = {"compute": 0, "memory": 1}

    def __init__(self, clock=time.perf_counter, reference_s: dict | None = None):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.random(64)
        self._field = rng.random(4 * 81 * 81)
        self._idx = rng.integers(0, self._field.size, 1 << 20)
        self._wts = rng.random(1 << 20)
        # preallocated, so that a call's time does not depend on the state
        # the program left the allocator in
        self._buf = np.empty(1 << 20)
        self.clock = clock
        self.reference_s = dict(reference_s or REFERENCE_KERNEL_S)
        self.samples: dict[str, list[float]] = {kind: [] for kind in self.KINDS}
        self.spent = 0.0

    def compute(self) -> float:
        np = self._np
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        a = self._small
        for _ in range(500):
            a = np.minimum(a, a * 0.5 + 0.1)
        return acc + float(a[0])

    def memory(self) -> float:
        np, buf = self._np, self._buf
        np.take(self._field, self._idx, out=buf)
        np.multiply(buf, self._wts, out=buf)
        return float(buf.sum())

    def probe(self, kind: str, n: int = 1) -> None:
        """Run the ``kind`` kernel ``n`` times and keep each time."""
        kernel = getattr(self, kind)
        start = self.clock()
        for _ in range(self.WARM_UP[kind]):
            kernel()
        self.spent += self.clock() - start
        for _ in range(n):
            start = self.clock()
            kernel()
            took = self.clock() - start
            self.samples[kind].append(took)
            self.spent += took

    def mark(self, kind: str) -> int:
        """The index the next ``kind`` sample will have."""
        return len(self.samples[kind])

    def factor(self, kind: str, first: int = 0) -> float:
        """Reference seconds per wall second for ``kind`` of work, over the
        kernel times from sample ``first`` on."""
        return self.reference_s[kind] / median(self.samples[kind][first:])


@dataclass(frozen=True)
class Timing:
    """A wall time and the same time in reference seconds.  Timings add,
    and scale by plain numbers."""

    wall: float
    ref: float

    def __add__(self, other):
        if isinstance(other, (int, float)) and other == 0:   # sum()'s start
            return self
        return Timing(self.wall + other.wall, self.ref + other.ref)

    __radd__ = __add__

    def __mul__(self, k: float):
        return Timing(self.wall * k, self.ref * k)

    def __truediv__(self, k: float):
        return Timing(self.wall / k, self.ref / k)


def tail(samples) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with at least ten
    samples beyond it: the sample of rank n-10 in ascending order.  None
    when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def median(samples) -> float:
    return float(statistics.median(samples))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_sizes(root: str = "/sys/devices/system/cpu/cpu0/cache") -> dict[str, str]:
    """Unified and data cache sizes by level, as the kernel reports them."""
    sizes: dict[str, str] = {}
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(root, entry, "level"), encoding="ascii") as fh:
                level = fh.read().strip()
            with open(os.path.join(root, entry, "type"), encoding="ascii") as fh:
                kind = fh.read().strip()
            with open(os.path.join(root, entry, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_info(numpy_module) -> dict[str, object]:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    caches = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or "unknown",
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
    }
