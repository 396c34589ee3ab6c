"""Benchmark for leavitt_ibn: four seeded workloads, each a closed loop
with one client in its own single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, untraced and traced

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
each pass both untraced and traced, and reports the per-layer metrics of
tracing.py.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Every result is checked
against reference.py after its pass, outside the timed loop.  End-to-end
times are scaled to the reference speed of speed.py; the raw ones are
printed as comment lines.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "leavitt_ibn", "__init__.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedLog  # noqa: E402
from workloads import WORKLOADS, pass_rng  # noqa: E402

MIN_OPS = 100  # so that at least ten samples lie beyond p90
OP_TIMEOUT_S = 30.0
HARD_STOP_S = 120.0  # start no operation after this, to exit within 180 s
SETUP_REPEATS = 7
SETUP_PROBES = 15  # probes on each side of a timed set-up
WARMUP_OPS = 3  # untimed operations before a run's first timed one

END_TO_END_UNITS = {
    "graphs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation; a BaseException so that no
    handler in the program can swallow it."""


def _alarm(_signum, _frame):
    raise OpTimeout()


def import_package():
    """The package from ./src, never an installed copy."""
    sys.path.insert(0, SRC)
    import leavitt_ibn
    import leavitt_ibn.cli  # noqa: F401  (loads the cli submodule)

    if os.path.abspath(leavitt_ibn.__file__) != PACKAGE_INIT:
        sys.stderr.write(f"error: imported {leavitt_ibn.__file__}, not {PACKAGE_INIT}\n")
        sys.exit(2)
    return leavitt_ibn


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: the smallest value with at least q of the samples at
    or below it, so ceil((1 - q) * n) - 1 samples or more lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_op(fn, item, timeout_s: float):
    """(output, cause, start, nanoseconds); cause is None on success,
    'timeout' or the exception type name otherwise; start is in
    perf_counter_ns."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter_ns()
    try:
        out = fn(item)
        cause = None
    except OpTimeout:
        out, cause = None, "timeout"
    except Exception as exc:  # any error of the program is a failed operation
        out, cause = None, type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return out, cause, start, time.perf_counter_ns() - start


class Tally:
    """Operations attempted, failures by cause, latencies, each operation's
    start and end in seconds with whether it succeeded, and timed time."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.intervals: list[tuple[float, float, bool]] = []
        self.failures: Counter = Counter()
        self.timed_ns = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No operation gave a wrong result or raised; timeouts only count
        as failures."""
        return all(cause == "timeout" for cause in self.failures.elements())


def past_deadline() -> bool:
    return time.perf_counter() - PROCESS_START > HARD_STOP_S


def run_pass(wl, root, specs, items, tally: Tally, timeout_s: float, rec=None,
             speed=None) -> int:
    """Run one pass as a closed loop, then check every result.  Returns the
    nanoseconds the loop took.  Operations not started by the deadline
    are not attempted.  With a SpeedLog, the probe runs before the first
    operation and after each one; its time is not counted."""
    outs = []
    probe_ns = 0
    start = time.perf_counter_ns()
    if speed is not None:
        speed.sample()
        probe_ns = time.perf_counter_ns() - start
    for item in items:
        if past_deadline():
            break
        if rec is not None:
            rec.op += 1
        outs.append(run_op(lambda x: wl.op(root, x), item, timeout_s))
        if speed is not None:
            mark = time.perf_counter_ns()
            speed.sample()
            probe_ns += time.perf_counter_ns() - mark
    elapsed = time.perf_counter_ns() - start - probe_ns
    tally.timed_ns += elapsed
    for spec, (out, cause, op_start, ns) in zip(specs, outs):
        if cause is None:
            reason = wl.check(spec, out)
            if reason is not None:
                sys.stderr.write(f"{wl.name}: {spec.family} h={len(spec.vertices)}: {reason}\n")
                cause = reason if reason.startswith("exit-") else "wrong-result"
        tally.intervals.append((op_start / 1e9, (op_start + ns) / 1e9, cause is None))
        if cause is not None:
            tally.failures[cause] += 1
            ns = max(ns, int(timeout_s * 1e9))  # a failure misses every latency limit
        tally.latencies_ms.append(ns / 1e6)
    return elapsed


def setup_probe(wl, seed: int, workdir: str) -> tuple[float, float]:
    """Seconds to import the package and build pass 0's inputs, in this
    fresh process, at the reference speed and raw.  Generating the specs
    is the benchmark's work and is not timed.  The speed is the median of
    SETUP_PROBES probes on each side of the timed part."""
    specs = wl.specs(pass_rng(wl.name, seed, 0))
    speed = SpeedLog()
    for _ in range(SETUP_PROBES):
        speed.sample()
    start = time.perf_counter()
    lib = import_package()
    wl.prepare(lib, specs, workdir)
    raw = time.perf_counter() - start
    for _ in range(SETUP_PROBES):
        speed.sample()
    return raw * REFERENCE_PROBE_S / speed.median_s(), raw


def setup_seconds(wl, seed: int) -> tuple[float, float]:
    """Medians over SETUP_REPEATS fresh processes of setup_probe."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", wl.name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        values = proc.stdout.strip().splitlines()[-1].split()
        scaled.append(float(values[0]))
        raw.append(float(values[1]))
    return statistics.median(scaled), statistics.median(raw)


def untraced_run(wl, lib, seed: int, seconds: float, workdir: str, timeout_s: float):
    """Warm up on WARMUP_OPS operations of a pass of its own, then repeat
    passes until `seconds` of operation time.  Returns the tally, the
    metrics at the reference speed, the same metrics raw, the number of
    passes and the median probe time."""
    root = wl.root(lib)
    warm = wl.specs(pass_rng(wl.name, seed, -1))[:WARMUP_OPS]
    run_pass(wl, root, warm, wl.prepare(lib, warm, workdir), Tally(), timeout_s)
    tally = Tally()
    speed = SpeedLog()
    index = 0
    while True:
        specs = wl.specs(pass_rng(wl.name, seed, index))
        items = wl.prepare(lib, specs, workdir)
        run_pass(wl, root, specs, items, tally, timeout_s, speed=speed)
        index += 1
        enough = tally.timed_ns >= seconds * 1e9 and tally.attempted >= MIN_OPS
        if enough or past_deadline():
            break
    ok = tally.attempted - tally.failed
    scaled_s = [(end - start) * speed.scale(start, end) for start, end, _ in tally.intervals]
    scaled_ms = [
        1e3 * (t if succeeded else max(t, timeout_s))  # a failure misses every latency limit
        for t, (_, _, succeeded) in zip(scaled_s, tally.intervals)
    ]
    metrics = {
        "graphs_per_s": ok / sum(scaled_s),
        "latency_p50_ms": percentile(scaled_ms, 0.5),
        "latency_p90_ms": percentile(scaled_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "graphs_per_s": ok / (tally.timed_ns / 1e9),
        "latency_p50_ms": percentile(tally.latencies_ms, 0.5),
        "latency_p90_ms": percentile(tally.latencies_ms, 0.9),
    }
    return tally, metrics, raw, index, speed.median_s()


def trace_passes(wl, seconds: float) -> int:
    """A fixed number of passes, from --seconds and the workload's nominal
    pass time, so that every count repeats exactly for the same seed."""
    return max(1, round(seconds / (2 * wl.pass_s)))


def traced_run(wl, lib, seed: int, seconds: float, workdir: str, timeout_s: float):
    rec = tracing.Recorder()
    tally = Tally()
    overhead_ns = 0
    root = wl.root(lib)
    traced_root = tracing.traced(rec, wl.root_name, root, tracing.ROOT_HOOKS[wl.root_name])
    passes = trace_passes(wl, seconds)
    for index in range(passes):
        specs = wl.specs(pass_rng(wl.name, seed, index))
        # the same inputs, freshly built, untraced and traced; the order
        # alternates so that warm-up does not favour either side
        for traced_side in (index % 2 == 1, index % 2 == 0):
            items = wl.prepare(lib, specs, workdir)
            if traced_side:
                with tracing.Installed(rec, lib):
                    overhead_ns += run_pass(wl, traced_root, specs, items, tally, timeout_s, rec)
            else:
                overhead_ns -= run_pass(wl, root, specs, items, tally, timeout_s)
    metrics = tracing.layer_metrics(rec)
    metrics["trace.overhead_s"] = overhead_ns / 1e9
    return tally, metrics, passes, rec


def workload_main(args) -> int:
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            print(*setup_probe(wl, args.seed, workdir))
            return 0
        lib = import_package()
        if args.trace:
            tally, metrics, passes, rec = traced_run(
                wl, lib, args.seed, args.seconds, workdir, OP_TIMEOUT_S
            )
            units = tracing.PER_LAYER_UNITS
            spans_path = os.path.join(ROOT, ".perfbench", f"spans-{wl.name}-{args.seed}.jsonl")
            rec.write(spans_path)
            print(f"# {wl.name}: traced {passes} passes, {len(rec.spans)} spans in {spans_path}")
            print("# graph_monoid.states_* count only searches that ended NotFoundWithinBudget")
            for module, share in tracing.layer_shares(rec).items():
                print(f"# self-time share {module:14s} {share:7.2%}")
        else:
            setup_s, raw_setup_s = setup_seconds(wl, args.seed)
            tally, metrics, raw, passes, probe_s = untraced_run(
                wl, lib, args.seed, args.seconds, workdir, OP_TIMEOUT_S
            )
            metrics["setup_s"] = setup_s
            raw["setup_s"] = raw_setup_s
            units = END_TO_END_UNITS
            print(f"# {wl.name}: {passes} passes, {tally.attempted} ops, "
                  f"{tally.timed_ns / 1e9:.3f} s timed")
            print(f"# times are at the reference speed, where the probe takes "
                  f"{REFERENCE_PROBE_S * 1e3:g} ms; its median here was {probe_s * 1e3:.4f} ms")
            for name, value in raw.items():
                print(f"# raw {name:36s} {value:16.6f} {units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = {
        "latency_p50_ms": tally.attempted,
        "latency_p90_ms": tally.attempted,
        "graphs_per_s": tally.attempted,
        "setup_s": SETUP_REPEATS,
    }
    for name, value in metrics.items():
        n = samples.get(name)
        print(f"{wl.name:16s} {name:40s} {value:16.6f} {units[name]:6s}"
              + (f" n={n}" if n else ""))
    print(f"# failures by cause: {dict(tally.failures) or 'none'}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def all_main(args) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for metric, value in res["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        sys.stderr.write(f"error: no package at {SRC}; run from the repository root\n")
        return 2
    if args.workload == "all":
        return all_main(args)
    return workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
