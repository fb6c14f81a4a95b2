"""Set-up probe: a fresh process that stops at its first submitted point.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED STORE_DIR``

Imports the harness, builds the workload's specs, binds an empty store
at ``STORE_DIR`` and calls :func:`repro.harness.pool.execute_sweep`,
which normalises and de-duplicates the specs, opens the store and
probes the memo and store for every point.  The moment the sweep hands
its first pending point to an executor, the probe prints
``time.monotonic()`` and exits without simulating.  The caller reads
the monotonic clock just before starting this process, so the
difference is the set-up a user pays before any simulation starts.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class _Submitted(Exception):
    """Raised at the first submitted point to end the probe."""


def _stop(*args, **kwargs):
    raise _Submitted(time.monotonic())


def main(argv) -> int:
    workload, seed, store_dir = argv[0], int(argv[1]), argv[2]
    from repro.harness import pool, runner

    import sweeps
    specs = sweeps.WORKLOADS[workload].specs(seed)
    runner.configure_disk_cache(store_dir)
    for executor in ("_run_grouped", "_run_serial", "_run_parallel"):
        setattr(pool, executor, _stop)
    try:
        pool.execute_sweep(specs, jobs=sweeps.WORKLOADS[workload].jobs)
    except _Submitted as stop:
        print(repr(stop.args[0]))
        return 0
    print("setup probe: no point was submitted", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
