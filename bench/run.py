"""Run one workload of the hkgenus benchmark and print its metrics.

Usage::

    python3 bench/run.py --workload identity-sweep --seed 1 --seconds 35 --trace 0

Workloads: identity-sweep, series-expand, cli-session (see BENCHMARK.json and
bench/README.md).  Each is a closed loop driven by one process and one thread:
the next op starts when the previous one has finished.  Inputs come from
``--seed`` alone, are generated outside the timed region, and every op's
output is checked against the independent oracles in ``oracles.py``.

With ``--trace 0`` the end-to-end metrics are reported, with every time
scaled to the reference host speed (``common.HostSpeed``); the raw figures are
printed beside them.  With ``--trace 1``
every op runs twice, untraced and then traced, and the per-layer metrics of
``layers.py`` are reported; the spans are written to
``.bench_work/traces/<workload>-seed<seed>.json``.

One line per metric is printed with its unit, then one JSON object as the last
line of stdout.  ``failed`` counts ops whose output disagrees with the oracle
or that end in an unexpected error or exit code; ``correct`` is false when any
op on valid input failed.  Failures on hostile CLI input count in ``failed``
only, broken down by kind, so they cannot mask a wrong answer.  The known CLI
boundary defects are no ops of the loop: cli-session probes each once per run
and prints the outcome per kind (``cli.boundary_defects`` when traced).  Exit
code 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from common import ROOT, WORK, BenchmarkError, HostSpeed, self_peak_rss_kib, timed_setup
from layers import layer_metrics
from tracer import Tracer
from workloads import WORKLOADS

#: Set-ups per untraced run, each in a fresh process; setup_s is their median.
SETUPS = 5
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


class Run:
    """What a run keeps of its ops: a few numbers each, so that the benchmark's
    own memory stays flat and ``peak_rss_mib`` measures the package.  Traced
    runs also keep each op's labels for the per-layer metrics."""

    def __init__(self):
        self.lat = array("d")        # seconds, untraced
        self.stamps = array("d")     # perf_counter() at each op's start
        self.rss_kib = 0             # largest child, cli-session only
        self.failures = Counter()    # op kind -> failed ops
        self.reasons: dict[str, Counter] = defaultdict(Counter)
        self.wrong = 0               # failed ops on valid input
        self.traced: list[dict] = []

    def add(self, op, stamp, outcome, reason, lat_traced=None):
        self.lat.append(outcome.latency)
        self.stamps.append(stamp)
        self.rss_kib = max(self.rss_kib, outcome.rss_kib)
        if reason:
            self.failures[op.kind] += 1
            self.reasons[op.kind][reason] += 1
            self.wrong += not op.hostile
        if lat_traced is not None:
            op.args = op.expected = None
            self.traced.append({"op": op, "lat": outcome.latency, "lat_traced": lat_traced,
                                "reason": reason})

    def scaled(self, speed: HostSpeed) -> list[float]:
        """Each op's latency at the reference host speed, in seconds."""
        return [lat * speed.factor(stamp) for lat, stamp in zip(self.lat, self.stamps)]


def measure(workload, seconds: float, tracer=None, speed=None) -> Run:
    run = Run()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not run.lat:
        op = workload.next_op()
        if speed is not None:
            speed.maybe_sample()
        stamp = perf_counter()
        outcome = workload.execute(op)
        reason = workload.check(op, outcome)
        lat_traced = None
        if tracer is not None:
            traced = workload.execute(op, tracer)
            lat_traced = traced.latency
            reason = reason or workload.check(op, traced)
        run.add(op, stamp, outcome, reason, lat_traced)
    if speed is not None:
        speed.sample(HostSpeed.WINDOW // 2)
    return run


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    done = subprocess.run([sys.executable, str(PROBE), name, str(seed)],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
    raw, scaled = done.stdout.split()[-2:]
    return float(raw), float(scaled)


def percentile(values, p: int, steps: int = 16) -> float:
    """The Harrell-Davis estimate of the p-th percentile.

    It weighs every order statistic by the Beta((n+1)q, (n+1)(1-q)) mass of
    its slot, q = p/100, instead of interpolating between two of them, so it
    moves less from run to run on the few hundred ops of a cli-session run.
    The slot masses come from the midpoint rule, which never evaluates the
    density at 0 or 1.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def end_to_end(lat_s, setups, rss_kib) -> dict:
    """The end-to-end metrics from op latencies and set-up times in seconds."""
    lat = [x * 1e3 for x in lat_s]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat_s), "1/s"),
        "lat_p50_ms": (percentile(lat, 50), "ms"),
        "lat_p90_ms": (percentile(lat, 90), "ms"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def report_lines(metrics, raw, lat_s, setups) -> list[str]:
    lat = [x * 1e3 for x in lat_s]
    lines = []
    for name, (value, unit) in metrics.items():
        line = f"{name:<34} {value:14.6f} {unit}"
        if name in raw and name != "peak_rss_mib":
            line += f"   (raw {raw[name][0]:.6f})"
        if name.startswith("lat_p"):
            beyond = sum(x > value for x in lat)
            line += f"   (samples {len(lat)}, {beyond} beyond)"
        elif name == "setup_s":
            line += f"   (median of {len(setups)} fresh-process set-ups)"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    speed = None if args.trace else workload.host_speed()
    try:
        setups = [timed_setup(workload, tracer)]
        run = measure(workload, args.seconds, tracer, speed)
        defects = workload.probe_defects() if hasattr(workload, "probe_defects") else {}
        if not args.trace:
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUPS - 1)]
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)

    attempted, failed = len(run.lat), sum(run.failures.values())
    if args.trace:
        metrics = layer_metrics(tracer, run.traced)
        metrics["cli.boundary_defects"] = (sum(v is not None for v in defects.values()), "count")
        lines = [f"{name:<34} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"spans: {len(tracer.spans)} written to {write_trace(args, tracer, run.traced)}")
    else:
        rss_kib = self_peak_rss_kib() if workload.in_process else run.rss_kib
        scaled = run.scaled(speed)
        metrics = end_to_end(scaled, [s for _, s in setups], rss_kib)
        raw = end_to_end(run.lat, [r for r, _ in setups], rss_kib)
        lines = report_lines(metrics, raw, scaled, setups)
        p99 = percentile([x * 1e3 for x in scaled], 99)
        lines.append(f"{'lat_p99_ms (not a metric)':<34} {p99:14.6f} ms   "
                     f"(samples {len(scaled)}, {sum(x * 1e3 > p99 for x in scaled)} beyond)")
        lines.append(f"{'host speed':<34} {statistics.median(speed.times) * 1e3:14.6f} ms   "
                     f"(median of {len(speed.times)} probe times; "
                     f"{speed.ref_s * 1e3:g} ms is the reference speed)")
    lines.append(f"{'fail_ratio':<34} {failed / attempted:14.6f} ratio   ({failed} of {attempted} ops)")
    for kind, count in sorted(run.failures.items()):
        lines.append(f"  failed {kind}: {count}  ({'; '.join(sorted(run.reasons[kind]))[:160]})")
    for kind, verdict in defects.items():
        lines.append(f"  boundary probe {kind}: {verdict or 'ok'}  (not an op of the loop)")
    if workload.in_process:
        lines.append(f"goettsche_expand.cache_info(): "
                     f"{workload.hk.catalog.goettsche_expand.cache_info()}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_trace(args, tracer, records) -> str:
    path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    ops = [{"index": r["op"].index, "kind": r["op"].kind, "lat_s": r["lat"],
            "lat_traced_s": r["lat_traced"], "failure": r["reason"]} for r in records]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"span_fields": ["name", "parent", "start_ns", "end_ns", "n", "op"],
                   "spans": tracer.spans, "op_stats": list(tracer.op_stats.items()),
                   "ops": ops}, handle)
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
