"""The full simulated system: cores + shared LLC + memory controllers.

Clocking follows the paper: cores at 4 GHz, DRAM bus at 800 MHz, so the
system advances in DRAM bus cycles and lets each core catch up by
``cpu_cycles_per_mem_cycle`` (5) CPU cycles per bus cycle.  Load
completions are delivered through a single event heap in CPU time.

A run executes until every core has retired ``instruction_limit``
post-warmup instructions (finished cores keep executing so memory
pressure stays realistic, exactly like trace-loop methodology in
Ramulator-based studies).

Two clock engines share the per-cycle body (:meth:`System._step`):

* **dense** ticks every bus cycle - the reference implementation.
* **event** (default) asks every component for its next wake-up - the
  earliest ready command from the per-bank timing state, the next
  refresh due, the next read completion, the next core memory access
  or instruction-limit crossing - and advances ``mem_cycle`` straight
  to the minimum.  Because every wake-up is a
  *lower bound* on the component's next observable action and all
  state changes happen at visited cycles, the visited set is a
  superset of the dense engine's action cycles and the two engines
  produce bit-identical statistics (see DESIGN.md and
  ``tests/integration/test_engine_parity.py``).  At a visit the event
  engine also touches only what can act: a controller whose standing
  bid lies beyond the cycle is not ticked, and a core is stepped only
  when its bid is due, a completion reached it, or the warmup boundary
  is crossed.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence

from repro.config import SimulationConfig
from repro.controller.address_mapping import AddressMapper
from repro.controller.controller import MemoryController
from repro.core import registry
from repro.core.replay import fork_for_replay
from repro.cpu.cache import SharedCache
from repro.cpu.core import Core
from repro.cpu.result import RunResult
from repro.cpu.trace import TraceRecord
from repro.dram.organization import Organization
from repro.dram.refresh import RefreshScheduler
from repro.dram.standards import preset
from repro.dram.timing import NEVER, TimingParameters
from repro.stats.probes import CompositeProbe
from repro.stats.reuse import RowReuseProfiler
from repro.stats.rltl import RLTLProbe


def mechanism_invariant_config(config: SimulationConfig) -> SimulationConfig:
    """``config`` with every mechanism-defining field normalized away.

    Two configurations whose invariant forms are equal simulate the
    identical system up to the latency mechanism's decisions — the
    compatibility condition for sharing one trace replay in
    :meth:`System.run_batch` (and for the harness's batch grouping).
    """
    from repro.config import ChargeCacheConfig, NUATConfig
    return replace(config, mechanism="none",
                   chargecache=ChargeCacheConfig(), nuat=NUATConfig(),
                   temperature_c=85.0)


class System:
    """Wires cores, LLC and controllers together and runs the clock."""

    def __init__(self, config: SimulationConfig,
                 traces: Sequence[Iterator[TraceRecord]],
                 enable_rltl: bool = False,
                 rltl_time_scale: float = 1.0,
                 enable_reuse: bool = False,
                 log_commands: bool = False,
                 timing: Optional[TimingParameters] = None):
        config.validate()
        if len(traces) != config.processor.num_cores:
            raise ValueError(
                f"need {config.processor.num_cores} traces, got {len(traces)}")
        self.config = config
        if timing is None:
            # Resolve the configured timing grade (DDR3-1600 unless the
            # scenario names another standard); an explicit ``timing``
            # argument still wins for tests and frequency sweeps.
            timing = preset(config.dram.standard)
        self.timing = timing
        self.organization = Organization.from_config(
            config.dram, config.cache.line_bytes)
        self.mapper = AddressMapper(self.organization)
        self.ratio = config.cpu_cycles_per_mem_cycle

        self.rltl_probe = None
        if enable_rltl:
            self.rltl_probe = RLTLProbe(self.timing,
                                        time_scale=rltl_time_scale)
        self.reuse_probe = RowReuseProfiler() if enable_reuse else None
        probes = [p for p in (self.rltl_probe, self.reuse_probe)
                  if p is not None]
        if not probes:
            controller_probe = None
        elif len(probes) == 1:
            controller_probe = probes[0]
        else:
            controller_probe = CompositeProbe(probes)

        self.controllers: List[MemoryController] = []
        for ch in range(self.organization.channels):
            refresh = RefreshScheduler(self.timing, self.organization.ranks,
                                       self.organization.rows)
            # Channels build their latency mechanism through the
            # registry: config.mechanism is a spec string (possibly a
            # +-composition with inline parameter overrides), resolved
            # against this config's per-mechanism parameter blocks.
            mechanism = registry.build(
                config.mechanism,
                registry.MechanismContext(
                    timing=self.timing,
                    num_cores=config.processor.num_cores,
                    refresh_scheduler=refresh, config=config))
            controller = MemoryController(
                ch, self.timing, self.organization.ranks,
                self.organization.banks, self.organization.rows,
                config.controller, mechanism, refresh=refresh,
                rltl_probe=controller_probe, log_commands=log_commands)
            self.controllers.append(controller)
            if self.rltl_probe is not None:
                self.rltl_probe.refresh_schedulers[ch] = refresh

        self.mem_cycle = 0
        self._events: List = []  # (cpu_time, seq, core_id, token)
        self._event_seq = 0
        self._warmed = config.warmup_cpu_cycles == 0
        # CPU time of the bus cycle before the one being visited.
        self._cpu_prev = 0
        # Event engine: per core, the first bus cycle at which it must
        # be stepped again (NEVER while it waits on a completion).
        self._core_wake = [0] * config.processor.num_cores

        self.llc = SharedCache(config.cache, self.mapper, self.controllers,
                               hit_notify=self._schedule_hit,
                               current_mem_cycle=lambda: self.mem_cycle)

        proc = config.processor
        self.cores: List[Core] = []
        for core_id in range(proc.num_cores):
            core = Core(core_id, traces[core_id], issue=self._core_issue,
                        issue_width=proc.issue_width,
                        window_size=proc.window_size,
                        mshrs=proc.mshrs_per_core,
                        instruction_limit=config.instruction_limit)
            self.cores.append(core)

    # ------------------------------------------------------------------
    # Wiring callbacks
    # ------------------------------------------------------------------

    def _core_issue(self, core_id: int, line_address: int, is_write: bool,
                    token: int) -> bool:
        if is_write:
            return self.llc.access_store(core_id, line_address)
        return self.llc.access_load(core_id, line_address, token,
                                    notify=self._load_done)

    def _load_done(self, core_id: int, token: int) -> None:
        """Deliver a load completion; the core is stepped this visit.

        A core the event engine did not step lags behind CPU time, so
        it is first caught up to the previous bus cycle's CPU time, as
        dense stepping would have left it: a blocked core still
        consumes wall-clock every cycle, so stall time skipped must not
        be handed back as dispatch budget once the completion unblocks
        it.  The wake-up bounds guarantee no core can issue a memory
        access before that time, so the advance is side-effect-free
        (dense engine: a no-op).
        """
        core = self.cores[core_id]
        if core.now < self._cpu_prev and not self._frozen(core):
            core.run_until(self._cpu_prev)
        core.on_load_complete(token)
        self._core_wake[core_id] = 0

    def _schedule_hit(self, core_id: int, token: int, delay: int) -> None:
        cpu_time = self.mem_cycle * self.ratio + delay
        self._event_seq += 1
        heapq.heappush(self._events,
                       (cpu_time, self._event_seq, core_id, token))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_mem_cycles: Optional[int] = None) -> RunResult:
        """Run to completion (all cores at their instruction limit).

        ``max_mem_cycles`` is a safety stop; if hit, the result is
        flagged ``truncated`` and IPCs reflect the partial run.
        Dispatches to the engine named by ``config.engine``.

        A ``System`` is single-use: on return (or on an exception) the
        run releases the wiring that points back up from the LLC and
        the cores (:meth:`_release`), so reference counting frees the
        whole system the moment its caller drops it instead of at a
        gen-2 collection.  The components stay readable; a second
        ``run()`` raises :class:`RuntimeError`.
        """
        if self.llc.controllers is None:
            raise RuntimeError("System.run() called twice: a System is "
                               "single-use, build a new one")
        try:
            self._warmed = self.config.warmup_cpu_cycles == 0
            # Engine-efficiency instrumentation (not part of RunResult,
            # so cache keys and artifacts are unaffected): how many bus
            # cycles the engine visited, how many cores it stepped to
            # CPU time and how many full controller ticks it ran.
            self.visited_cycles = 0
            self.core_steps = 0
            self.controller_ticks = 0
            if self.config.engine == "dense":
                return self._run_dense(max_mem_cycles)
            return self._run_event(max_mem_cycles)
        finally:
            self._release()

    def _release(self) -> None:
        """Cut every reference cycle through this system.

        The LLC calls back into the system (``hit_notify``, the
        ``current_mem_cycle`` lambda, the MSHR waiters' ``_load_done``)
        and reaches the controllers, whose queued requests call back
        into the LLC (``callback=SharedCache._fill``), as do its parked
        reads; each core's ``issue`` is a bound method of the system.
        Dropping these leaves only downward references.
        """
        llc = self.llc
        llc.hit_notify = llc.mem_cycle = llc.controllers = None
        llc._mshrs = {}
        llc._retry_reads = []
        for core in self.cores:
            core.issue = None

    @classmethod
    def run_batch(cls, configs: Sequence[SimulationConfig],
                  traces: Sequence[Iterator[TraceRecord]],
                  max_mem_cycles: Optional[int] = None,
                  enable_rltl: bool = False,
                  rltl_time_scale: float = 1.0,
                  enable_reuse: bool = False,
                  timing: Optional[TimingParameters] = None,
                  telemetry: Optional[Dict] = None) -> List[RunResult]:
        """Run N mechanism variants of one workload off one trace tape.

        Every config must describe the *same* system except for its
        latency mechanism (checked via
        :func:`mechanism_invariant_config`); ``traces`` is consumed
        once into a :class:`~repro.cpu.trace.TraceTape` that all
        variants replay.  Each result is bit-identical to the variant's
        standalone serial run — the contract the harness's run cache
        depends on — via two complementary paths:

        * **Full run**: the variant is simulated normally (sharing only
          the trace tape), with a
          :class:`~repro.core.replay.RecordingMechanism` logging its
          decision stream (except the last variant's: no later variant
          can replay against it).  Each full run's ``System`` is
          dropped before the next is built.  Closed-loop timing
          feedback makes any cross-variant computation sharing *after*
          the first diverging mechanism decision unsound (a hit changes
          tRCD, the read completes earlier, the core unblocks earlier,
          and every downstream cycle shifts), so cycle 0 is the only
          state-fork point — full runs share nothing downstream of the
          tape.
        * **Decision-replay collapse**: before paying for a full run,
          the variant's fresh mechanism state is replayed against every
          witness log so far (:mod:`repro.core.replay`).  If its
          decisions match some witness everywhere, its run would
          retrace that witness's trajectory exactly, and the result is
          the witness's with this variant's config attached.

        Mechanisms whose decisions are not a pure function of the
        event stream (``supports_decision_replay = False``, e.g. NUAT)
        always take the full-run path.

        Collapsed results share the witness's ``rltl``/``reuse`` probe
        objects (their contents are identical by the argument above);
        the scalar/list statistics are copied.

        ``telemetry``, when given, receives ``{"full_runs": F,
        "collapsed": C}`` for benchmarking and reporting.
        """
        configs = list(configs)
        if not configs:
            return []
        invariant = mechanism_invariant_config(configs[0])
        for cfg in configs[1:]:
            if mechanism_invariant_config(cfg) != invariant:
                raise ValueError(
                    "batch variants must differ only in mechanism-"
                    f"defining fields; {cfg.mechanism!r} variant "
                    "changes the shared platform")
        # Bound per call, not at import, so that a wrapper installed
        # on repro.core.replay (the benchmark's layer tracer) sees
        # every replay match.
        from repro.core.replay import (
            MechanismEventLog,
            RecordingMechanism,
            replay_decisions_match,
        )
        from repro.cpu.trace import TraceTape

        tape = TraceTape(traces)
        witnesses: List = []  # (per-channel logs, RunResult)
        results: List[RunResult] = []
        full_runs = 0
        last = len(configs) - 1
        for i, cfg in enumerate(configs):
            collapsed = None
            if witnesses:
                channels = cfg.dram.channels
                mechanisms = _replay_mechanisms(cfg, channels, timing)
                if mechanisms is not None:
                    for logs, witness_result in witnesses:
                        if replay_decisions_match(logs, mechanisms):
                            collapsed = _clone_result(witness_result, cfg)
                            break
                        # A failed replay leaves the fork's state
                        # dirty; later witnesses need a clean one.
                        mechanisms = _replay_mechanisms(cfg, channels,
                                                        timing)
                        if mechanisms is None:  # pragma: no cover
                            break
            if collapsed is not None:
                results.append(collapsed)
                continue
            system = cls(cfg, tape.readers(), enable_rltl=enable_rltl,
                         rltl_time_scale=rltl_time_scale,
                         enable_reuse=enable_reuse, timing=timing)
            record = i < last
            if record:
                logs = [MechanismEventLog() for _ in system.controllers]
                for controller, log in zip(system.controllers, logs):
                    controller.mechanism = RecordingMechanism(
                        controller.mechanism, log)
            result = system.run(max_mem_cycles=max_mem_cycles)
            del system
            full_runs += 1
            if record:
                witnesses.append((logs, result))
            results.append(result)
        if telemetry is not None:
            telemetry["full_runs"] = full_runs
            telemetry["collapsed"] = len(configs) - full_runs
        return results

    def _step(self, mem: int, lazy: bool = False) -> bool:
        """The per-bus-cycle body shared by both engines.

        Delivers due CPU-side events, ticks controllers and the LLC,
        steps cores to CPU time, and handles the warmup boundary.
        Returns True when every core is finished.

        ``lazy`` (the event engine) touches only what can act at
        ``mem``.  A controller whose standing bid proves its tick idle
        (:meth:`MemoryController.sleeps_through`) is not ticked.  A
        core is stepped only when its cached bid in ``_core_wake`` is
        due, a completion reached it this visit, or the warmup boundary
        is crossed; any other core can do nothing visible before
        ``cpu_now``, so it keeps its bid and lags behind CPU time until
        :meth:`_load_done`, a due step, or :meth:`_sync_cores` catches
        it up.
        """
        ratio = self.ratio
        cpu_now = mem * ratio
        cpu_prev = self._cpu_prev = cpu_now - ratio
        events = self._events
        while events and events[0][0] <= cpu_now:
            _, _, core_id, token = heapq.heappop(events)
            self._load_done(core_id, token)
        for controller in self.controllers:
            if lazy and controller.sleeps_through(mem):
                continue
            self.controller_ticks += 1
            controller.tick(mem)
        self.llc.tick()
        warmed = self._warmed
        boundary = not warmed and cpu_now >= self.config.warmup_cpu_cycles
        step_all = not lazy or boundary
        idle_finished = warmed and self.config.idle_finished_cores
        wake = self._core_wake
        all_finished = True
        for core in self.cores:
            if idle_finished and core.finished:
                wake[core.core_id] = NEVER
                continue
            if not step_all and wake[core.core_id] > mem:
                if not core.finished:
                    all_finished = False
                continue
            if core.now < cpu_prev:
                core.run_until(cpu_prev)
            core.retry_rejected()
            core.run_until(cpu_now)
            self.core_steps += 1
            if not core.finished:
                all_finished = False
            if lazy and not boundary:
                wake[core.core_id] = self._core_bid(core)
        if boundary:
            self._warmed = True
            self._reset_stats(cpu_now, mem)
            all_finished = False
            if lazy:
                # The reset moved every core's instruction-limit target.
                for core in self.cores:
                    wake[core.core_id] = self._core_bid(core)
        return all_finished

    def _frozen(self, core: Core) -> bool:
        """A finished core that ``idle_finished_cores`` stops stepping."""
        return core.finished and self._warmed \
            and self.config.idle_finished_cores

    def _core_bid(self, core: Core) -> int:
        """First bus cycle at which ``core`` must be stepped again."""
        if self._frozen(core):
            return NEVER
        c = core.next_event_cpu_cycle()
        if c is None:
            return NEVER  # woken by a completion (_load_done)
        # The first bus cycle whose CPU time strictly exceeds c.
        return c // self.ratio + 1

    def _sync_cores(self) -> None:
        """Step every core the event engine left behind to CPU time.

        Lagging cores have no visible action before ``cpu_now`` (their
        bids are not due), so one ``run_until`` reproduces the dense
        engine's per-cycle steps.  Idle finished cores stay frozen, as
        in both engines' loops.
        """
        cpu_now = self.mem_cycle * self.ratio
        for core in self.cores:
            if core.now < cpu_now and not self._frozen(core):
                core.run_until(cpu_now)

    def _run_dense(self, max_mem_cycles: Optional[int]) -> RunResult:
        """Reference engine: visit every bus cycle."""
        truncated = False
        while True:
            self.mem_cycle += 1
            self.visited_cycles += 1
            all_finished = self._step(self.mem_cycle)
            if self._warmed and all_finished:
                break
            if max_mem_cycles is not None and self.mem_cycle >= max_mem_cycles:
                truncated = True
                break
        return self._collect(truncated)

    def _run_event(self, max_mem_cycles: Optional[int]) -> RunResult:
        """Event engine: advance straight to the next wake-up cycle.

        Cycles between wake-ups are provably no-ops (no command can
        issue, no completion fires, no core can touch memory), so
        skipping them leaves every statistic bit-identical to the
        dense engine.
        """
        truncated = False
        while True:
            target = self._next_wake_cycle()
            if target is None:
                if max_mem_cycles is None:
                    raise RuntimeError(
                        "event engine deadlock: no pending wake-ups but "
                        "cores are not finished")
                target = max_mem_cycles
            if max_mem_cycles is not None and target > max_mem_cycles:
                target = max_mem_cycles
            self.mem_cycle = max(target, self.mem_cycle + 1)
            self.visited_cycles += 1
            all_finished = self._step(self.mem_cycle, lazy=True)
            if self._warmed and all_finished:
                break
            if max_mem_cycles is not None and self.mem_cycle >= max_mem_cycles:
                truncated = True
                break
        self._sync_cores()
        return self._collect(truncated)

    def _next_wake_cycle(self) -> Optional[int]:
        """Minimum over every component's next-event bid, or None when
        nothing is pending (only possible if the system is deadlocked
        or every core is quiescent forever)."""
        cycle = self.mem_cycle
        ratio = self.ratio
        if self.llc.has_parked_requests:
            # The dense engine retries parked LLC requests every cycle;
            # a parked read may newly forward from the write queue the
            # cycle after a matching store arrives, which no controller
            # or core bid covers.  Step densely until the lists drain.
            return cycle + 1
        nxt = NEVER
        for controller in self.controllers:
            w = controller.next_event_cycle(cycle)
            if w < nxt:
                nxt = w
                if nxt <= cycle + 1:
                    return cycle + 1
        if self._events:
            # Delivered at the first bus cycle with mem*ratio >= stamp.
            w = -(-self._events[0][0] // ratio)
            if w < nxt:
                nxt = w
        if not self._warmed:
            w = -(-self.config.warmup_cpu_cycles // ratio)
            if w < nxt:
                nxt = w
        # Core bids are cached by _step; untouched cores keep theirs.
        w = min(self._core_wake)
        if w < nxt:
            nxt = w
        return nxt if nxt < NEVER else None

    def _reset_stats(self, cpu_now: int, mem: int) -> None:
        for controller in self.controllers:
            controller.reset_stats(mem)
        for core in self.cores:
            core.reset_stats(cpu_now)
        self.llc.reset_stats()
        self._warmup_end_cpu = cpu_now
        self._warmup_end_mem = mem

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------

    def _collect(self, truncated: bool) -> RunResult:
        start_mem = getattr(self, "_warmup_end_mem", 0)
        start_cpu = getattr(self, "_warmup_end_cpu", 0)
        mem_cycles = self.mem_cycle - start_mem
        cpu_cycles = self.mem_cycle * self.ratio - start_cpu

        instructions = []
        core_cycles = []
        ipcs = []
        limit = self.config.instruction_limit
        for core in self.cores:
            retired = min(core.retired_since_reset, limit)
            end = core.finish_cycle if core.finish_cycle is not None \
                else core.now
            cycles = max(1, end - core.stats_start_cycle)
            instructions.append(retired)
            core_cycles.append(cycles)
            ipcs.append(retired / cycles)

        activations = sum(c.stats.activations for c in self.controllers)
        act_reduced = sum(c.stats.act_reduced for c in self.controllers)
        reads = sum(c.stats.reads for c in self.controllers)
        writes = sum(c.stats.writes for c in self.controllers)
        refreshes = sum(c.stats.refreshes for c in self.controllers)
        lookups = sum(c.mechanism.lookups for c in self.controllers)
        hits = sum(c.mechanism.hits for c in self.controllers)
        row_hits = sum(c.stats.read_row_hits + c.stats.write_row_hits
                       for c in self.controllers)
        col_cmds = reads + writes
        lat_sum = sum(c.stats.read_latency_sum for c in self.controllers)
        lat_cnt = sum(c.stats.read_count for c in self.controllers)
        active = sum(c.active_cycles(self.mem_cycle)
                     for c in self.controllers)
        rank_active = sum(c.rank_active_cycles(self.mem_cycle)
                          for c in self.controllers)
        work = sum(core.retired_since_reset for core in self.cores)

        return RunResult(
            config=self.config,
            mem_cycles=mem_cycles,
            cpu_cycles=cpu_cycles,
            instructions=instructions,
            core_cycles=core_cycles,
            ipcs=ipcs,
            llc_hit_rate=self.llc.hit_rate(),
            llc_load_misses=self.llc.load_misses,
            activations=activations,
            act_reduced=act_reduced,
            reads=reads,
            writes=writes,
            refreshes=refreshes,
            row_hit_rate=(row_hits / col_cmds) if col_cmds else 0.0,
            average_read_latency_cycles=(lat_sum / lat_cnt) if lat_cnt else 0.0,
            mechanism_lookups=lookups,
            mechanism_hits=hits,
            active_bank_cycles=active,
            rank_active_cycles=rank_active,
            work_instructions=work,
            truncated=truncated,
            rltl=self.rltl_probe,
            reuse=self.reuse_probe,
        )


# ----------------------------------------------------------------------
# Batch-evaluator helpers
# ----------------------------------------------------------------------

def _replay_mechanisms(config: SimulationConfig, channels: int,
                       timing: Optional[TimingParameters]):
    """Fresh per-channel mechanisms of ``config`` for decision replay.

    Returns None when the configured mechanism cannot be replayed
    (unsupported, or it demands per-channel context such as NUAT's
    refresh scheduler) — the caller then runs the variant in full.
    """
    if timing is None:
        timing = preset(config.dram.standard)
    try:
        prototype = registry.build(
            config.mechanism,
            registry.MechanismContext(
                timing=timing, num_cores=config.processor.num_cores,
                refresh_scheduler=None, config=config))
    except ValueError:
        return None
    return fork_for_replay(prototype, channels)


def _clone_result(witness: RunResult, config: SimulationConfig) -> RunResult:
    """The witness's result re-labelled for a collapsed variant.

    Mutable containers are copied so downstream consumers can never
    alias two cached variants through one list/dict; the ``rltl`` and
    ``reuse`` probe objects are shared deliberately (their contents are
    identical for a collapsed variant, and they are excluded from the
    cache codec's plain fields).
    """
    return replace(
        witness, config=config,
        instructions=list(witness.instructions),
        core_cycles=list(witness.core_cycles),
        ipcs=list(witness.ipcs),
        extra=dict(witness.extra))
