"""The benchmark's sweep workloads, cold-sweep runner and output checks.

Every workload is a list of :class:`~repro.harness.spec.RunSpec`
points executed through the public harness entry point,
:func:`repro.harness.pool.execute_sweep`, against a fresh empty local
store with the in-process memo cleared ("cold").  Instruction budgets
are reduced from the harness default (see :data:`WORKLOADS`) so one
cold sweep takes a few host seconds and a run can repeat it; the
warmup length is the harness default, so statistics start after the
same warmup as every experiment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.harness import cache as run_cache
from repro.harness import pool, runner
from repro.harness.spec import RunSpec, Scale
from repro.stats.metrics import weighted_speedup
from repro.workloads.mixes import mix_composition

#: Fig. 9/10 capacity sweep: the baseline, nine capacities, unbounded.
FIG9_MECHANISMS = (("none",)
                   + tuple(f"chargecache(entries={e})"
                           for e in (16, 32, 64, 128, 256, 512, 1024, 2048,
                                     4096))
                   + ("chargecache(unbounded=true)",))


@dataclass(frozen=True)
class Workload:
    """One named sweep: its platform, pool width and budget factor."""

    name: str
    platform: str
    jobs: int
    #: Multiplier on the harness's default instruction budgets.
    scale_factor: float
    build: Callable[[int, Scale], List[RunSpec]]

    def scale(self) -> Scale:
        return Scale().scaled(self.scale_factor)

    def specs(self, seed: int, scale: Optional[Scale] = None
              ) -> List[RunSpec]:
        return self.build(seed, scale or self.scale())


def _fig7a_heavy(seed: int, scale: Scale) -> List[RunSpec]:
    return [runner.workload_spec(name, mech, scale, seed=seed)
            for name in ("mcf", "omnetpp", "libquantum", "STREAMcopy")
            for mech in ("none", "chargecache")]


def _fig9_light(seed: int, scale: Scale) -> List[RunSpec]:
    return [runner.workload_spec(name, mech, scale, seed=seed)
            for name in ("hmmer", "tpch6", "GemsFDTD")
            for mech in FIG9_MECHANISMS]


def _fig7b_mixes(seed: int, scale: Scale) -> List[RunSpec]:
    specs = [runner.mix_spec(mix, mech, scale, seed=seed)
             for mix in ("w1", "w2") for mech in ("none", "chargecache")]
    for mix in ("w1", "w2"):
        specs += runner.alone_specs_for_mix(mix, scale, seed=seed)
    return specs


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig7a-heavy", "single", 1, 0.2, _fig7a_heavy),
    Workload("fig9-light", "single", 1, 1.0, _fig9_light),
    Workload("fig7b-mixes", "eight", 2, 0.1, _fig7b_mixes),
)}


# ----------------------------------------------------------------------
# Cold sweeps
# ----------------------------------------------------------------------

@dataclass
class SweepRun:
    """One executed sweep: its points (or the error) and wall time."""

    seconds: float
    sweep: Optional[pool.Sweep]
    error: Optional[BaseException] = None


def fresh_store(work_dir: str, tag: str) -> None:
    """Bind an empty store directory as the harness's persistent layer
    and clear the in-process memo."""
    path = os.path.join(work_dir, f"store-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    runner.configure_disk_cache(path)
    runner.clear_memo()


def cold_sweep(specs: List[RunSpec], jobs: int, work_dir: str,
               tag: str) -> SweepRun:
    """Execute ``specs`` cold; a sweep error is returned, not raised."""
    fresh_store(work_dir, tag)
    started = time.perf_counter()
    try:
        sweep = pool.execute_sweep(specs, jobs=jobs)
    except pool.SweepError as exc:
        return SweepRun(time.perf_counter() - started, None, exc)
    return SweepRun(time.perf_counter() - started, sweep)


def warm_reread(specs: List[RunSpec], jobs: int) -> pool.Sweep:
    """Re-read every point from the bound (warm) store, memo cleared."""
    runner.clear_memo()
    return pool.execute_sweep(specs, jobs=jobs)


# ----------------------------------------------------------------------
# Output checks and simulated statistics
# ----------------------------------------------------------------------

def point_digest(spec: RunSpec, result) -> str:
    """SHA-256 of one point's spec payload and encoded result.

    The spec's key payload stands in for its cache key, which hashes
    the source fingerprint and so changes with every code change; the
    digest must stay bit-identical across a change that claims only
    speed.
    """
    body = json.dumps([spec.key_payload(), run_cache.result_to_json(result)],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def sweep_digests(sweep: pool.Sweep) -> List[str]:
    return [point_digest(p.spec, p.result) for p in sweep.points]


def combined_digest(digests: List[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def fields_equal(a, b) -> bool:
    """RunResult equality checked field by field."""
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(a))


def point_failures(specs: List[RunSpec], run: SweepRun,
                   reference: Optional[List[str]]) -> Set[int]:
    """Indices of points of one cold sweep that raised, came back
    truncated, went missing, or differ from the reference digests."""
    if run.sweep is None:
        return set(range(len(specs)))
    points = run.sweep.points
    failed = set(range(len(points), len(specs)))
    digests = sweep_digests(run.sweep)
    for i, point in enumerate(points):
        if point.result.truncated:
            failed.add(i)
        elif reference is not None and digests[i] != reference[i]:
            failed.add(i)
    return failed


def reread_failures(cold: pool.Sweep, warm: pool.Sweep) -> Set[int]:
    """Indices of points the warm store did not serve, or served with
    a result that differs from the cold run in any field."""
    failed = set(range(len(warm.points), len(cold.points)))
    for i, (c, w) in enumerate(zip(cold.points, warm.points)):
        if w.source != "disk" or not fields_equal(c.result, w.result):
            failed.add(i)
    return failed


def work_kinst(sweep: pool.Sweep) -> float:
    """Post-warmup instructions retired over all unique points, in
    thousands (collapsed variants and alone runs included)."""
    unique = {p.spec: p.result for p in sweep.points}
    return sum(r.work_instructions for r in unique.values()) / 1000.0


def simulated_stats(workload: Workload, sweep: pool.Sweep) -> Dict:
    """Simulated (not host-time) statistics of a sweep.

    These are printed beside the metrics, never compared against a
    bound: a change that claims only speed must leave them identical,
    and a model change moves them in no fixed better direction.
    """
    by_spec = {p.spec: p.result for p in sweep.points}
    cc = [r for s, r in by_spec.items() if s.mechanism != "none"
          and s.kind != "alone"]
    base = [r for s, r in by_spec.items() if s.mechanism == "none"
            and s.kind != "alone"]
    stats = {
        "mechanism_hit_rate": _mean(r.mechanism_hit_rate for r in cc),
        "rmpkc": _mean(r.rmpkc() for r in base),
        "row_hit_rate": _mean(r.row_hit_rate for r in base),
    }
    if workload.platform == "single":
        stats["chargecache_ipc"] = _mean(r.total_ipc for r in cc)
        stats["baseline_ipc"] = _mean(r.total_ipc for r in base)
        return stats
    seed = next(iter(by_spec)).seed
    scale = next(iter(by_spec)).scale
    ws = {}
    for spec, result in by_spec.items():
        if spec.kind != "eight":
            continue
        alone = [by_spec[runner.alone_spec(name, scale, seed=seed)]
                 .total_ipc for name in mix_composition(spec.name)]
        ws[(spec.name, spec.mechanism)] = weighted_speedup(result.ipcs,
                                                           alone)
    stats["chargecache_ws"] = _mean(v for (_, m), v in ws.items()
                                    if m != "none")
    stats["baseline_ws"] = _mean(v for (_, m), v in ws.items()
                                 if m == "none")
    return stats


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
