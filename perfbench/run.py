"""Seeded benchmark for journalrank.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src/`` next to this
directory. The run draws its inputs from the seed, checks the library
against the bundled reference scores, and runs a closed loop of operations
for S seconds, checking each operation's output. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the environment,
the instance and each metric.

--trace 0 reports the end-to-end metrics. --trace 1 runs an untraced and
then a traced phase of S/2 seconds each on one set-up and reports the
per-layer metrics, including the traced/untraced latency ratio.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# One BLAS thread, in this process and in CLI children: with two vCPUs shared
# with other work, a multi-threaded BLAS waits on its slowest thread and the
# run-to-run spread of the dense solves triples.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


class Loop:
    """Latencies and outcome counts of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.first_failure = None

    def run(self, workload, seconds: float) -> "Loop":
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        # Stop only between whole cycles, so every run has the same mix of commands.
        while index % workload.cycle or index == 0 or time.perf_counter() < deadline:
            tracer = workload.tracer
            if tracer is not None:
                tracer.op = index
            began = time.perf_counter()
            try:
                workload.op(index)
            except Exception:  # any failing op is counted, and the loop goes on
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = traceback.format_exc(limit=3)
            else:
                self.latencies.append(time.perf_counter() - began)
            self.attempted += 1
            index += 1
        self.elapsed = time.perf_counter() - start
        return self

    def median(self) -> float:
        return statistics.median(self.latencies) if self.latencies else float("nan")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(level, value) of the highest of p99.9, p99, p90 with ten samples beyond it.

    Decade levels keep the level fixed over a tenfold range of op counts,
    so runs with a few ops more or fewer report the same percentile. Below
    100 ops no level qualifies and the median is reported.
    """
    import numpy as np

    n = len(latencies)
    # Rounded, so that 10000 ops count as ten beyond p99.9 despite float error.
    level = next((p for p in TAIL_LEVELS if round(n * (100.0 - p) / 100.0, 6) >= TAIL_BEYOND), 50.0)
    return level, float(np.percentile(latencies, level))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def peak_rss_mb(workload) -> float:
    # ru_maxrss is in KiB on Linux.
    who = resource.RUSAGE_CHILDREN if workload.runs_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(make, seconds: float) -> tuple[dict, Loop, list[str]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = make()
        began = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - began)
    workload.references()
    loop = Loop().run(workload, seconds)
    level, tail_value = tail(loop.latencies) if loop.latencies else (50.0, float("nan"))
    metrics = {
        "ops_per_s": (len(loop.latencies) / loop.elapsed, "1/s"),
        "op_p50_s": (loop.median(), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    notes = [
        f"op_tail_s is p{level:g} of {len(loop.latencies)} completed ops",
        f"fail_ratio {loop.failed / loop.attempted:g} ({loop.failed} of {loop.attempted} ops failed)",
        "setup_s is the median of " + ", ".join(f"{s:.3f}" for s in setups) + " s",
        "instance " + json.dumps(workload.instance()),
    ]
    return metrics, loop, notes


def run_traced(make, seconds: float) -> tuple[dict, Loop, list[str]]:
    import tracer as tracing

    workload = make()
    workload.setup()
    workload.references()
    plain = Loop().run(workload, seconds / 2)
    spans = tracing.Tracer()
    spans.install()
    workload.tracer = spans
    # A workload that runs children records their spans, not its own.
    spans.active = not workload.runs_children
    try:
        traced = Loop().run(workload, seconds / 2)
    finally:
        spans.active = False
        spans.uninstall()
    metrics = tracing.layer_metrics(spans, traced.attempted, workload.matrix_csv_bytes)
    main_s = sum(s["end"] - s["start"] for s in spans.spans if s["name"] == "cli.main")
    startup = 0.0
    if workload.runs_children and traced.latencies:
        startup = (sum(traced.latencies) - main_s) / len(traced.latencies)
    metrics["cli.startup_s"] = (startup, "s/op")
    metrics["tracing_overhead"] = (traced.median() / plain.median(), "ratio")
    loop = Loop()
    loop.attempted = plain.attempted + traced.attempted
    loop.failed = plain.failed + traced.failed
    loop.first_failure = plain.first_failure or traced.first_failure
    notes = [
        f"untraced phase: {plain.attempted} ops, traced phase: {traced.attempted} ops; per-layer values are per traced op",
        "spectral.stationary.matvec_bytes is computed as iterations x shares array bytes",
        "absent functions: " + (", ".join(spans.absent) or "none"),
        "instance " + json.dumps(workload.instance()),
    ]
    return metrics, loop, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_files", "damping_sweep", "loo_sweep"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None, sizes=None) -> int:
    """Run one workload. ``sizes`` maps workload names to smaller instances for tests."""
    args = parse_args(argv)
    if not (ROOT / "src" / "journalrank" / "__init__.py").is_file():
        print(f"error: no journalrank package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    try:
        workloads.preflight()
    except workloads.CheckFailed as exc:
        print(f"error: preflight correctness gate failed, no numbers reported: {exc}", file=sys.stderr)
        return 3

    size = (sizes or {}).get(args.workload)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]

    def make():
        return cls(args.seed, size, workdir)

    try:
        run = run_traced if args.trace else run_untraced
        metrics, loop, notes = run(make, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("environment " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for note in notes:
        print(note)
    if loop.first_failure:
        print("first failure:\n" + loop.first_failure.rstrip())
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
