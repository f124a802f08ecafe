"""Pieces shared by the workloads, the runner and the probes."""

from __future__ import annotations

import importlib
import os
import resource
import select
import signal
import statistics
import sys
from array import array
from bisect import bisect
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: The checkout the benchmark runs in: the directory above ``bench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated input files; removed when a run ends.
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 60


class BenchmarkError(Exception):
    """The benchmark cannot run here (for instance the package is missing)."""


def import_hkgenus():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "hkgenus" / "__init__.py").is_file():
        raise BenchmarkError(f"no hkgenus package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("hkgenus")
    if Path(package.__file__).resolve().parent != SRC / "hkgenus":
        raise BenchmarkError(f"imported hkgenus from {package.__file__}, not from {SRC}")
    return package


def first_catalog_call(hk, tracer=None):
    """The process's first catalog access; traced when a tracer is given."""
    if tracer is None:
        return hk.builtin_names()
    tracer.install(hk)
    tracer.op_begin("setup")
    try:
        return hk.builtin_names()
    finally:
        tracer.op_end()
        tracer.uninstall()


def child_env() -> dict:
    """Environment for ``python -m hkgenus`` children: this checkout's ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


#: Seconds the reference kernel takes on a host of the reference speed.
REF_S = 0.0005
#: Seconds a bare ``python -c pass`` child takes on a host of the reference speed.
REF_CHILD_S = 0.05


class _Poly:
    """A sparse Laurent polynomial as small as the reference kernel needs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        if not isinstance(terms, dict):
            raise TypeError("terms must be a dict")
        self.terms = {e: c for e, c in terms.items() if c}

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return _Poly(out)


def reference_kernel() -> int:
    """A fixed slice of pure-Python work of the package's kind: checked
    constructions and products of small Laurent polynomials, and a symmetry
    scan of a small table."""
    acc, total = _Poly({0: 1}), 0
    for r in range(40):
        acc = acc * _Poly({-1: 1, 0: r % 3, 1: 1})
        if len(acc.terms) > 6:
            acc = _Poly({e: c % 97 for e, c in acc.terms.items() if -3 <= e <= 3})
        total += sum(acc.terms.values())
    rows = [[(i * j) % 5 for j in range(11)] for i in range(11)]
    return total + sum(rows[i][j] == rows[10 - i][10 - j] for i in range(11) for j in range(11))


def kernel_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def bare_child_seconds() -> float:
    """Start and end a bare interpreter, as every cli-session op does first."""
    null = Path(os.devnull)
    return run_child([sys.executable, "-c", "pass"], dict(os.environ), null, null).latency


class HostSpeed:
    """How fast the host runs the workload's kind of work around a moment.

    The host the benchmark was built on runs the same code at two speeds about
    a factor of two apart, and switches between them every few seconds, so raw
    times of one commit spread wider than any usable bound.  The runner times
    a reference ``probe`` that does not touch the package between ops (at most
    every ``every_s`` seconds) and scales a time taken at ``stamp`` by
    ``factor(stamp)``: ``ref_s``, the probe's time at the reference speed, over
    the median of the ``WINDOW`` probe times taken nearest to it.  A change to
    the package moves a scaled time in full, the host's speed far less.

    In process the probe is ``reference_kernel``.  A cli-session op is mostly
    interpreter start-up, which the host slows less than it slows the kernel,
    so there the probe is a bare interpreter child.
    """

    WINDOW = 9
    #: Probe times taken just before and just after a set-up.
    SETUP_SAMPLES = 5

    def __init__(self, probe=kernel_seconds, ref_s: float = REF_S, every_s: float = 0.0):
        self.probe, self.ref_s, self.every_s = probe, ref_s, every_s
        self.stamps = array("d")
        self.times = array("d")

    def sample(self, count: int = 1):
        for _ in range(count):
            self.stamps.append(perf_counter())
            self.times.append(self.probe())

    def maybe_sample(self):
        if not self.stamps or perf_counter() - self.stamps[-1] >= self.every_s:
            self.sample()

    def factor(self, stamp: float) -> float:
        lo = bisect(self.stamps, stamp) - self.WINDOW // 2
        lo = max(0, min(lo, len(self.stamps) - self.WINDOW))
        return self.ref_s / statistics.median(self.times[lo:lo + self.WINDOW])


def timed_setup(workload, tracer=None) -> tuple[float, float]:
    """Run the workload's set-up; return its seconds, raw and scaled.

    The set-up is scaled by the median of the probe times taken just before
    and just after it.
    """
    speed = workload.host_speed()
    speed.sample(HostSpeed.SETUP_SAMPLES)
    clock = Stopwatch()
    workload.setup(clock, tracer)
    speed.sample(HostSpeed.SETUP_SAMPLES)
    return clock.total, clock.total * speed.ref_s / statistics.median(speed.times)


class Stopwatch:
    """Accumulates the time spent inside its ``with`` blocks."""

    def __init__(self):
        self.total = 0.0
        self._start = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += perf_counter() - self._start


@dataclass
class Op:
    """One operation of a workload: its inputs, the oracle's answer and labels."""

    index: int
    kind: str
    args: tuple = ()
    expected: object = None
    reject: bool = False    # the input is invalid and must be refused
    hostile: bool = False   # a refusal that must end on the documented CLI path
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    latency: float
    value: object = None
    error: BaseException | None = None
    rss_kib: int = 0


@dataclass
class ChildResult:
    latency: float
    code: int
    stdout: str
    stderr: str
    rss_kib: int


def run_child(argv, env, out_path: Path, err_path: Path) -> ChildResult:
    """Run one child to completion and return its time, streams and peak RSS.

    ``posix_spawn`` plus ``wait4`` on a pidfd gives the child's own rusage,
    which ``subprocess`` discards; the streams go to files so that a large
    output can never block the child on a full pipe.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(CHILD_TIMEOUT_S * 1000):
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    latency = perf_counter() - start
    return ChildResult(
        latency, os.waitstatus_to_exitcode(status),
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss)


def timed_call(hk, tracer, op_index, fn, *args) -> Outcome:
    """Time ``fn(*args)`` in this process; traced when a tracer is given.

    ``fn`` must look the package's functions up when it runs, so that the
    tracer's wrappers are the ones called.
    """
    if tracer is not None:
        tracer.install(hk)
        tracer.op_begin(op_index)
    value = error = None
    start = perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # the workload's check decides whether it was expected
        error = exc
    latency = perf_counter() - start
    if tracer is not None:
        tracer.op_end()
        tracer.uninstall()
    return Outcome(latency, value, error)


def self_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
