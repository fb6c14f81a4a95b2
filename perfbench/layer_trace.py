"""Per-layer tracing of the simulator from outside ``src/``.

:class:`Tracer` wraps the public functions of each layer of the
simulator and harness (the :data:`TARGETS` table) while it is
installed, and restores every attribute exactly when it is removed.
Nothing inside ``repro`` is modified on disk or aware of the tracer.

Each wrapped call is one of three kinds:

* ``SPAN`` - timed, and kept in memory as a span with a name, start,
  end, parent span and sweep-point id.  Used for calls made at most
  once per DRAM command or memory access.
* ``AGG`` - timed like a span but only aggregated (calls, inclusive
  time, self time).  Used for calls made once or more per visited bus
  cycle (well over 100k calls in one run), where keeping every span
  would cost more memory than the run itself.
* ``COUNT`` - counted, not timed (``Channel.earliest``/``can_issue``).

A layer's self time is the time its wrapped calls took minus the time
their wrapped children took.  Calls nest strictly within one process,
so the children of a call never overlap and "time covered by children"
is their sum.

Pool workers of a ``jobs > 1`` sweep are forked from a traced parent,
so they inherit the wrappers; each work unit resets the worker's copy
of the tracer, runs, and dumps its spans and aggregates to a file that
the parent merges (:meth:`Tracer.merge_worker_dumps`).  Worker self
time is host time on another core, so for such sweeps the per-layer
self times add up to more than the sweep's wall time; the parent's own
self times never do.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

SPAN, AGG, COUNT = "span", "agg", "count"

#: (module, class or None, attribute, layer, kind) for every wrapped
#: callable.  A target that no longer exists fails :meth:`install`
#: loudly, so a renamed method cannot silently zero its layer.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.harness.pool", None, "execute_sweep", "harness.pool", SPAN),
    ("repro.harness.pool", None, "_run_parallel", "harness.pool", SPAN),
    ("repro.harness.pool", None, "_pool_worker", "harness.pool", SPAN),
    ("repro.harness.runner", None, "run_spec_ex", "harness.runner", SPAN),
    ("repro.harness.runner", None, "run_spec_batch", "harness.runner",
     SPAN),
    ("repro.harness.runner", None, "make_trace", "workloads", SPAN),
    ("repro.harness.runner", None, "make_mix_traces", "workloads", SPAN),
    ("repro.harness.cache", None, "cache_key", "harness.cache", SPAN),
    ("repro.harness.cache", None, "result_to_json", "harness.cache", SPAN),
    ("repro.harness.cache", None, "result_from_json", "harness.cache",
     SPAN),
    ("repro.harness.cache", "RunCache", "get", "harness.store", SPAN),
    ("repro.harness.cache", "RunCache", "put", "harness.store", SPAN),
    ("repro.cpu.system", "System", "run_batch", "cpu.system", SPAN),
    ("repro.cpu.system", "System", "run", "cpu.system", SPAN),
    ("repro.cpu.core", "Core", "run_until", "cpu.core", AGG),
    ("repro.cpu.core", "Core", "next_event_cpu_cycle", "cpu.core", AGG),
    ("repro.cpu.cache", "SharedCache", "access_load", "cpu.cache", SPAN),
    ("repro.cpu.cache", "SharedCache", "access_store", "cpu.cache", SPAN),
    ("repro.cpu.cache", "SharedCache", "tick", "cpu.cache", AGG),
    ("repro.controller.controller", "MemoryController", "tick",
     "controller.controller", AGG),
    ("repro.controller.controller", "MemoryController", "next_event_cycle",
     "controller.controller", AGG),
    ("repro.controller.controller", "MemoryController", "enqueue_read",
     "controller.controller", SPAN),
    ("repro.controller.controller", "MemoryController", "enqueue_write",
     "controller.controller", SPAN),
    ("repro.controller.queues", "RequestQueue", "push",
     "controller.queues", SPAN),
    ("repro.controller.scheduler", "FRFCFSScheduler", "choose",
     "controller.scheduler", AGG),
    ("repro.controller.scheduler", "FRFCFSScheduler", "next_ready_cycle",
     "controller.scheduler", AGG),
    ("repro.controller.row_policy", "OpenRowPolicy",
     "wants_precharge_after", "controller.row_policy", SPAN),
    ("repro.controller.row_policy", "ClosedRowPolicy",
     "wants_precharge_after", "controller.row_policy", SPAN),
    ("repro.dram.channel", "Channel", "earliest", "dram.channel", COUNT),
    ("repro.dram.channel", "Channel", "can_issue", "dram.channel", COUNT),
    ("repro.dram.channel", "Channel", "issue_activate", "dram.channel",
     SPAN),
    ("repro.dram.channel", "Channel", "issue_precharge", "dram.channel",
     SPAN),
    ("repro.dram.channel", "Channel", "issue_read", "dram.channel", SPAN),
    ("repro.dram.channel", "Channel", "issue_write", "dram.channel", SPAN),
    ("repro.dram.channel", "Channel", "issue_refresh", "dram.channel",
     SPAN),
    ("repro.dram.bank", "Bank", "do_activate", "dram.bank", SPAN),
    ("repro.dram.bank", "Bank", "do_read", "dram.bank", SPAN),
    ("repro.dram.bank", "Bank", "do_write", "dram.bank", SPAN),
    ("repro.dram.bank", "Bank", "do_precharge", "dram.bank", SPAN),
    ("repro.core.chargecache", "ChargeCache", "on_activate",
     "core.chargecache", SPAN),
    ("repro.core.chargecache", "ChargeCache", "on_precharge",
     "core.chargecache", SPAN),
    ("repro.core.chargecache", "ChargeCache", "maintain",
     "core.chargecache", AGG),
    ("repro.core.hcrac", "HCRAC", "lookup", "core.hcrac", SPAN),
    ("repro.core.hcrac", "HCRAC", "insert", "core.hcrac", SPAN),
    ("repro.core.hcrac", "HCRAC", "invalidate_entry", "core.hcrac", SPAN),
    ("repro.core.hcrac", "UnboundedHCRAC", "lookup", "core.hcrac", SPAN),
    ("repro.core.hcrac", "UnboundedHCRAC", "insert", "core.hcrac", SPAN),
    ("repro.core.replay", None, "replay_decisions_match", "core.replay",
     SPAN),
)

#: The layers, in report order (the repository's module names).
LAYERS = ("cpu.system", "cpu.core", "cpu.cache", "workloads",
          "controller.controller", "controller.queues",
          "controller.scheduler", "controller.row_policy",
          "dram.channel", "dram.bank", "core.chargecache", "core.hcrac",
          "core.replay", "harness.pool", "harness.runner", "harness.cache",
          "harness.store")

#: Name under which the trace iterators' ``__next__`` is aggregated.
TRACE_NEXT = "workloads.trace_next"


def target_name(cls_name: Optional[str], attr: str, module: str) -> str:
    """Stable span name of one target (``Class.attr`` or ``module.attr``)."""
    owner = cls_name or module.rsplit(".", 1)[-1]
    return f"{owner}.{attr}"


def resolve(module: str, cls_name: Optional[str]):
    """The object owning a target attribute (a module or a class)."""
    owner = importlib.import_module(module)
    return getattr(owner, cls_name) if cls_name else owner


class _Stat:
    """Aggregate of one wrapped callable: calls, inclusive and self time,
    plus named event counts (outcomes counted at the same boundary)."""

    __slots__ = ("calls", "total", "self_time", "events")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.events: Dict[str, float] = {}

    def clear(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.events.clear()

    def add(self, other: Dict) -> None:
        self.calls += other["calls"]
        self.total += other["total"]
        self.self_time += other["self"]
        for key, value in other["events"].items():
            self.events[key] = self.events.get(key, 0) + value

    def as_dict(self) -> Dict:
        return {"calls": self.calls, "total": self.total,
                "self": self.self_time, "events": dict(self.events)}


def _bump(stat: _Stat, key: str, amount: float = 1) -> None:
    stat.events[key] = stat.events.get(key, 0) + amount


# ----------------------------------------------------------------------
# Outcome counters: (before, after) hooks per target name.  ``before``
# sees the call's arguments; ``after`` sees the stat, the arguments,
# the result and whatever ``before`` returned.
# ----------------------------------------------------------------------

def _count_true(stat, args, result, token):
    if result:
        _bump(stat, "true")


def _count_not_none(stat, args, result, token):
    if result is not None:
        _bump(stat, "true")


def _count_false(stat, args, result, token):
    if result is False:
        _bump(stat, "false")


def _llc_hits_before(args):
    llc = args[0]
    return llc.load_hits + llc.store_hits


def _llc_after(stat, args, result, token):
    llc = args[0]
    _bump(stat, "hits", llc.load_hits + llc.store_hits - token)
    if result is False:
        _bump(stat, "false")


def _expired_before(args):
    return args[0].invalidations


def _expired_after(stat, args, result, token):
    _bump(stat, "invalidations", args[0].invalidations - token)


def _engine_after(stat, args, result, token):
    system = args[0]
    _bump(stat, "visited", system.visited_cycles)
    _bump(stat, "sim_cycles", system.mem_cycle)


def _sweep_after(stat, args, result, token):
    counts = result.counts()
    _bump(stat, "points", counts["points"])
    _bump(stat, "computed", counts["computed"])
    groups = {p.batch_group for p in result.points
              if p.batch_group is not None}
    _bump(stat, "batch_groups", len(groups))


HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "FRFCFSScheduler.choose": (None, _count_not_none),
    "MemoryController.enqueue_read": (None, _count_false),
    "MemoryController.enqueue_write": (None, _count_false),
    "OpenRowPolicy.wants_precharge_after": (None, _count_true),
    "ClosedRowPolicy.wants_precharge_after": (None, _count_true),
    "SharedCache.access_load": (_llc_hits_before, _llc_after),
    "SharedCache.access_store": (_llc_hits_before, _llc_after),
    "ChargeCache.on_activate": (None, _count_not_none),
    "HCRAC.invalidate_entry": (None, _count_true),
    "UnboundedHCRAC.lookup": (_expired_before, _expired_after),
    "System.run": (None, _engine_after),
    "replay.replay_decisions_match": (None, _count_true),
    "pool.execute_sweep": (None, _sweep_after),
}


def _union(intervals) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


class _TimedIter:
    """Iterator proxy whose ``__next__`` goes through a timed ``next``."""

    __slots__ = ("_inner", "_next")

    def __init__(self, inner, timed_next):
        self._inner = iter(inner)
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next(self._inner)


class Tracer:
    """Installs layer wrappers, records spans and counts, restores."""

    def __init__(self, dump_dir: Optional[str] = None):
        #: Directory where forked pool workers dump their traces.
        self.dump_dir = dump_dir
        self.stats: Dict[str, _Stat] = {TRACE_NEXT: _Stat()}
        self.layer_of: Dict[str, str] = {TRACE_NEXT: "workloads"}
        for module, cls_name, attr, layer, _ in TARGETS:
            name = target_name(cls_name, attr, module)
            self.stats[name] = _Stat()
            self.layer_of[name] = layer
        #: (span id, name, start, end, parent span id, point id, pid).
        self.spans: List[Tuple] = []
        self.point: Optional[str] = None
        self.pid = os.getpid()
        self._stack: List[List[float]] = []
        self._open: List[int] = []
        self._next_sid = 0
        #: Spans merged from pool workers' dumps.
        self.worker_spans: List[Tuple] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._worker_units = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises AttributeError on a missing one."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module, cls_name, attr, _, kind in TARGETS:
                self._install_one(module, cls_name, attr, kind)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original attribute object, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _install_one(self, module, cls_name, attr, kind) -> None:
        owner = resolve(module, cls_name)
        if cls_name is None:
            original = getattr(owner, attr)
        elif attr in vars(owner):
            original = vars(owner)[attr]
        else:
            raise AttributeError(
                f"{cls_name}.{attr} is not defined on {module}.{cls_name}")
        name = target_name(cls_name, attr, module)
        before, after = HOOKS.get(name, (None, None))
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        if kind == COUNT:
            wrapper = self._counter(name, fn)
        else:
            wrapper = self._timer(name, fn, kind == SPAN, before, after)
        if attr in ("make_trace", "make_mix_traces"):
            wrapper = self._trace_source(wrapper)
        elif attr in ("run_spec_ex", "run_spec_batch"):
            wrapper = self._point_scope(wrapper)
        elif attr == "_pool_worker":
            wrapper = self._worker_unit(wrapper)
        functools.update_wrapper(wrapper, fn)
        self._saved.append((owner, attr, original))
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------

    def _counter(self, name: str, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timer(self, name: str, fn, keep: bool, before, after):
        stat = self.stats[name]
        stack = self._stack
        opened = self._open
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            if keep:
                sid = tracer._next_sid
                tracer._next_sid = sid + 1
                parent = opened[-1] if opened else None
                opened.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    opened.pop()
                    spans.append((sid, name, start, end, parent,
                                  tracer.point, tracer.pid))
            if after is not None:
                after(stat, args, result, token)
            return result
        return wrapper

    def _trace_source(self, inner):
        """Hand out trace iterators whose records are timed as drawn."""
        timed_next = self._timer(TRACE_NEXT, next, False, None, None)

        def wrapper(*args, **kwargs):
            traces = inner(*args, **kwargs)
            if isinstance(traces, list):
                return [_TimedIter(t, timed_next) for t in traces]
            return _TimedIter(traces, timed_next)
        return wrapper

    def _point_scope(self, inner):
        """Tag spans under a runner call with the sweep point it serves."""
        tracer = self

        def wrapper(specs, *args, **kwargs):
            if isinstance(specs, (list, tuple)):
                label = specs[0].label()
                if len(specs) > 1:
                    label += f"+{len(specs) - 1}"
            else:
                label = specs.label()
            previous = tracer.point
            tracer.point = label
            try:
                return inner(specs, *args, **kwargs)
            finally:
                tracer.point = previous
        return wrapper

    def _worker_unit(self, inner):
        """Run one pool work unit on a fresh copy and dump it.

        Only forked workers reach this wrapper (the parent submits it,
        never calls it), so the reset drops the parent's state that the
        fork copied.
        """
        tracer = self

        def wrapper(payload):
            tracer.reset()
            tracer.pid = os.getpid()
            try:
                return inner(payload)
            finally:
                tracer._worker_units += 1
                tracer.dump(os.path.join(
                    tracer.dump_dir,
                    f"worker-{tracer.pid}-{tracer._worker_units}.json"))
        return wrapper

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span and aggregate (wrappers stay)."""
        for stat in self.stats.values():
            stat.clear()
        self.spans.clear()
        self._stack.clear()
        self._open.clear()
        self.point = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"stats": {k: v.as_dict()
                                 for k, v in self.stats.items()},
                       "spans": self.spans}, fh)

    def merge_worker_dumps(self) -> None:
        """Fold every worker dump into this tracer.

        Each worker's work-unit span becomes a child of the parent's
        ``pool._run_parallel`` span it ran under, and the part of that
        span's interval the units cover (their union: units overlap
        across workers) leaves the parent's self time.  The
        monotonic clock behind :func:`time.perf_counter` is
        system-wide on Linux, so parent and worker times compare.
        """
        paths = sorted(glob.glob(os.path.join(self.dump_dir,
                                              "worker-*.json")))
        units = []
        for path in paths:
            with open(path, encoding="ascii") as fh:
                data = json.load(fh)
            for name, stat in data["stats"].items():
                self.stats[name].add(stat)
            for span in data["spans"]:
                if span[4] is None:
                    units.append(span)
                else:
                    self.worker_spans.append(tuple(span))
            os.unlink(path)
        waits = [s for s in self.spans if s[1] == "pool._run_parallel"]
        for wait in waits:
            mine = [u for u in units if wait[2] <= u[2] <= wait[3]]
            for unit in mine:
                unit[4] = wait[0]
            self.stats["pool._run_parallel"].self_time -= _union(
                (max(u[2], wait[2]), min(u[3], wait[3])) for u in mine)
        self.worker_spans.extend(tuple(u) for u in units)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------

    def layer_self_times(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[self.layer_of[name]] += stat.self_time
        return out


#: Channel command -> the Channel method that issues it.
COMMANDS = (("act", "Channel.issue_activate"),
            ("pre", "Channel.issue_precharge"),
            ("rd", "Channel.issue_read"),
            ("wr", "Channel.issue_write"),
            ("ref", "Channel.issue_refresh"))


def per_layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                      jobs: int) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced sweep: name -> (value, unit).

    ``*_calls`` and other counts are exact; ``*_s`` times are the
    inclusive host time of the named calls, except ``*_self_s`` and
    ``self_s.<layer>``, which exclude wrapped children.  Counts and
    times cover every process of the sweep (the parent and, at
    ``jobs > 1``, its pool workers), so ``trace.self_share``, the sum
    of the layers' self times over ``jobs`` times the traced sweep's
    wall time, is at most 1.
    """
    stats = tracer.stats

    def calls(*names):
        return sum(stats[n].calls for n in names)

    def total(*names):
        return sum(stats[n].total for n in names)

    def event(key, *names):
        return sum(stats[n].events.get(key, 0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    cmds = calls(*(name for _, name in COMMANDS))
    enqueues = ("MemoryController.enqueue_read",
                "MemoryController.enqueue_write")
    policies = ("OpenRowPolicy.wants_precharge_after",
                "ClosedRowPolicy.wants_precharge_after")
    llc = ("SharedCache.access_load", "SharedCache.access_store")
    visited = event("visited", "System.run")
    sweep = "pool.execute_sweep"
    m: Dict[str, Tuple[float, str]] = {
        "scheduler.choose_calls": (calls("FRFCFSScheduler.choose"), "count"),
        "scheduler.choose_s": (total("FRFCFSScheduler.choose"), "s"),
        "scheduler.issue_ratio": (ratio(
            event("true", "FRFCFSScheduler.choose"),
            calls("FRFCFSScheduler.choose")), "ratio"),
        "scheduler.next_ready_s": (
            total("FRFCFSScheduler.next_ready_cycle"), "s"),
        "channel.earliest_calls": (calls("Channel.earliest"), "count"),
        "channel.earliest_per_cmd": (
            ratio(calls("Channel.earliest"), cmds), "ratio"),
        "channel.can_issue_calls": (calls("Channel.can_issue"), "count"),
        "channel.issue_s": (total(*(n for _, n in COMMANDS)), "s"),
    }
    for cmd, name in COMMANDS:
        m[f"channel.cmds.{cmd}"] = (calls(name), "count")
    m.update({
        "controller.tick_calls": (calls("MemoryController.tick"), "count"),
        "controller.tick_self_s": (
            stats["MemoryController.tick"].self_time, "s"),
        "controller.wake_bids": (
            calls("MemoryController.next_event_cycle"), "count"),
        "controller.wake_bid_s": (
            total("MemoryController.next_event_cycle"), "s"),
        "controller.enqueue_rejects": (event("false", *enqueues), "count"),
        "queues.push_s": (total("RequestQueue.push"), "s"),
        "row_policy.calls": (calls(*policies), "count"),
        "row_policy.close_ratio": (
            ratio(event("true", *policies), calls(*policies)), "ratio"),
        "engine.visited_cycles": (visited, "count"),
        "engine.visit_ratio": (
            ratio(visited, event("sim_cycles", "System.run")), "ratio"),
        "engine.visits_per_cmd": (ratio(visited, cmds), "ratio"),
        "core.run_until_calls": (calls("Core.run_until"), "count"),
        "core.run_until_s": (total("Core.run_until"), "s"),
        "core.next_event_s": (total("Core.next_event_cpu_cycle"), "s"),
        "trace.records": (calls(TRACE_NEXT), "count"),
        "trace.next_s": (total(TRACE_NEXT), "s"),
        "llc.accesses": (calls(*llc), "count"),
        "llc.hit_rate": (ratio(event("hits", *llc), calls(*llc)), "ratio"),
        "llc.access_s": (total(*llc), "s"),
        "llc.rejects": (event("false", "SharedCache.access_store"),
                        "count"),
        "mechanism.lookups": (calls("ChargeCache.on_activate"), "count"),
        "mechanism.hit_rate": (ratio(
            event("true", "ChargeCache.on_activate"),
            calls("ChargeCache.on_activate")), "ratio"),
        "mechanism.on_activate_s": (total("ChargeCache.on_activate"), "s"),
        "mechanism.on_precharge_s": (total("ChargeCache.on_precharge"),
                                     "s"),
        "mechanism.maintain_calls": (calls("ChargeCache.maintain"),
                                     "count"),
        "mechanism.maintain_s": (total("ChargeCache.maintain"), "s"),
        "hcrac.invalidations": (
            event("true", "HCRAC.invalidate_entry")
            + event("invalidations", "UnboundedHCRAC.lookup"), "count"),
        "replay.attempts": (calls("replay.replay_decisions_match"),
                            "count"),
        "replay.collapse_ratio": (ratio(
            event("true", "replay.replay_decisions_match"),
            calls("replay.replay_decisions_match")), "ratio"),
        "replay.match_s": (total("replay.replay_decisions_match"), "s"),
        "pool.points": (event("points", sweep), "count"),
        "pool.computed": (event("computed", sweep), "count"),
        "pool.batch_groups": (event("batch_groups", sweep), "count"),
        "pool.parallel_wait_s": (total("pool._run_parallel"), "s"),
        "runner.batch_s": (total("runner.run_spec_batch"), "s"),
        "store.put_calls": (calls("RunCache.put"), "count"),
        "store.put_s": (total("RunCache.put"), "s"),
        "store.get_calls": (calls("RunCache.get"), "count"),
        "store.get_s": (total("RunCache.get"), "s"),
        "cache.key_s": (total("cache.cache_key"), "s"),
        "cache.encode_s": (total("cache.result_to_json"), "s"),
        "cache.decode_s": (total("cache.result_from_json"), "s"),
    })
    self_times = tracer.layer_self_times()
    for layer, seconds in self_times.items():
        m[f"self_s.{layer}"] = (seconds, "s")
    m.update({
        "trace.sweep_s": (traced_s, "s"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
        "trace.self_share": (
            ratio(sum(self_times.values()), jobs * traced_s), "ratio"),
        "trace.spans": (len(tracer.spans) + len(tracer.worker_spans),
                        "count"),
    })
    return m
