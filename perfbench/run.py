"""Repository benchmark: cold harness sweeps, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7a-heavy --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload's cold sweep (fresh empty store,
memo cleared) as often as it fits in ``--seconds`` seconds and reports
the end-to-end metrics: the median sweep wall time, simulated
kilo-instructions per host second, the median set-up time of fresh
processes, and peak RSS.  ``--trace 1`` runs one untraced sweep, then
one traced sweep, and reports the per-layer metrics; its spans are
written to ``.perfbench/trace/``.  Both modes check every point: none may raise
or come back truncated, every cold sweep must reproduce the first
one's results, a re-read of the warm store with the memo cleared must
return results equal to the cold ones field by field, and the traced
sweep must reproduce the untraced results.  A failed check counts in
``failed`` instead of aborting the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Host times
are wall-clock seconds on the machine running the benchmark; every
simulated statistic is printed beside the metrics but is not one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layer_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, work_dir: str) -> list:
    """Set-up seconds of :data:`SETUP_PROBES` fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_PROBES):
        store = os.path.join(work_dir, f"setup-{i}")
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, probe, workload, str(seed), store],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]) - started)
    return times


def peak_rss_mb() -> float:
    """Max RSS of this process and its waited-for children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, work_dir: str):
        import sweeps
        self.sweeps = sweeps
        self.workload = workload
        self.work_dir = work_dir
        self.specs = workload.specs(seed)
        self.attempted = 0
        self.failed = 0
        #: Wall seconds of every cold sweep that completed.
        self.seconds = []
        #: The first completed sweep and its per-point digests, which
        #: every later sweep of the run must reproduce.
        self.first = None
        self.reference = None
        self.error = None

    def _check(self, run):
        """Failed point indices of one sweep; the first good sweep
        becomes the reference."""
        failures = self.sweeps.point_failures(self.specs, run,
                                              self.reference)
        if run.sweep is None:
            self.error = run.error
        elif self.first is None:
            self.first = run.sweep
            self.reference = self.sweeps.sweep_digests(run.sweep)
        return failures

    def _count(self, failures) -> None:
        self.attempted += len(self.specs)
        self.failed += len(failures)

    def cold_sweeps(self, seconds: float) -> None:
        """Repeat the cold sweep while another one fits in ``seconds``
        (at least once); the last sweep's points are then re-read from
        its warm store."""
        sw = self.sweeps
        deadline = time.perf_counter() + seconds
        while True:
            run = sw.cold_sweep(self.specs, self.workload.jobs,
                                self.work_dir, "cold")
            failures = self._check(run)
            if run.sweep is not None:
                self.seconds.append(run.seconds)
            if time.perf_counter() + run.seconds > deadline:
                break
            self._count(failures)
        if run.sweep is not None:
            warm = sw.warm_reread(self.specs, self.workload.jobs)
            failures |= sw.reread_failures(run.sweep, warm)
        self._count(failures)

    def traced_sweep(self):
        """One traced cold sweep; returns (tracer, run)."""
        dumps = os.path.join(self.work_dir, "worker-traces")
        os.makedirs(dumps, exist_ok=True)
        tracer = layer_trace.Tracer(dump_dir=dumps)
        with tracer:
            run = self.sweeps.cold_sweep(self.specs, self.workload.jobs,
                                         self.work_dir, "traced")
        tracer.merge_worker_dumps()
        self._count(self._check(run))
        return tracer, run


def write_spans(tracer, workload: str, seed: int) -> str:
    out_dir = os.path.join(WORK, "trace")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    fields = ("id", "name", "start", "end", "parent", "point", "pid")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": fields,
                   "spans": tracer.spans + tracer.worker_spans}, fh)
    return path


def report_simulated(run: Run) -> None:
    sw = run.sweeps
    stats = sw.simulated_stats(run.workload, run.first)
    print("simulated statistics (not metrics; unvalidated per workload, "
          "no error figure):")
    for key, value in stats.items():
        print(f"  {key:<20} {value:.6f}")
    print(f"  result digest        {sw.combined_digest(run.reference)}")


def _terminate(signum, frame):
    # Unwind normally on SIGTERM, so the harness's process pool is shut
    # down and its workers are waited for before the process exits.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, SRC)
    try:
        import sweeps
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    workload = sweeps.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(sweeps.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return execute(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def execute(args, workload, work_dir: str) -> int:
    run = Run(workload, args.seed, work_dir)
    # The traced run needs one untraced sweep: the reference results
    # and the base of trace.overhead_ratio.
    run.cold_sweeps(0.0 if args.trace else args.seconds)
    if run.first is None:
        print(f"perfbench: every sweep failed: {run.error}",
              file=sys.stderr)
        return 1
    sweep_s = statistics.median(run.seconds)
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(run.specs)} points, platform {workload.platform}, "
          f"jobs={workload.jobs}, {len(run.seconds)} cold sweeps")
    correct = True
    if not args.trace:
        rss = peak_rss_mb()
        setup = measure_setup(workload.name, args.seed, work_dir)
        kinst = run.sweeps.work_kinst(run.first)
        metrics = {
            "sweep_s": (sweep_s, "s"),
            "kinst_per_s": (kinst / sweep_s, "kinst/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        sweep_times = ", ".join(f"{t:.3f}" for t in run.seconds)
        print(f"  sweeps [s]: {sweep_times}")
        print(f"  setup probes [s]: "
              + ", ".join(f"{t:.3f}" for t in setup))
    else:
        tracer, traced = run.traced_sweep()
        path = write_spans(tracer, workload.name, args.seed)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
        metrics = layer_trace.per_layer_metrics(
            tracer, traced.seconds, sweep_s, workload.jobs)
        share = metrics["trace.self_share"][0]
        if not 0.0 < share <= 1.0:
            print(f"perfbench: layer self times are {share:.4f} of "
                  f"jobs x traced sweep time; expected (0, 1]",
                  file=sys.stderr)
            correct = False
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(f"  {'failed_points':<32} {run.failed} of {run.attempted} "
          f"points")
    report_simulated(run)
    result = {
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
