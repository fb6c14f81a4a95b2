"""Dense-stepping regression for the event engine's wake bids.

Every visited cycle ends with :meth:`MemoryController.next_event_cycle`
bidding the next cycle the controller can act at (read-event heads,
refresh deadlines, the scheduler's ready bound, pending precharges,
mechanism wake).  These tests pin the properties those bids must keep:

* **Soundness** — every counter of an event-engine run stays
  bit-identical to the dense tick-per-cycle reference, on workloads
  that alternate idle-heavy and memory-bound phases (exactly where a
  too-high bid would skip an action cycle and silently diverge).
* **Effectiveness** — the engine visits meaningfully fewer cycles
  than dense on mixed phases, and its visits-per-command stays under a
  budget; regressing the bid to a blanket ``cycle + 1`` busts it.
* **Scheduler work** — the FR-FCFS gates (``Channel.earliest`` calls)
  and the queued banks the scan walks, per issued command, stay under
  budgets in both engines.
* **Per-visit work** — on an eight-core, two-channel platform the
  event engine steps only the cores and ticks only the controllers
  that can act at a visit, well under the dense engine's 8 and 2.
* **Reactive mechanisms** — the controller consults the latency
  mechanism only when it issues an ACT or a PRE (plus the warmup
  statistics reset); no per-tick maintenance and no mechanism bid.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.cpu.system import System
from repro.cpu.trace import TraceRecord
from repro.dram.channel import Channel
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace, zipf_trace

from tests.conftest import tiny_config
from tests.integration.test_engine_parity import PARITY_FIELDS


def _mixed_phase_trace(org, seed: int = 1):
    """Alternate idle-heavy stretches with memory-bound bursts.

    The phase boundary is where the post-issue bid matters most: a
    burst keeps the channel saturated (bid must not overshoot the next
    ready command), then a quiet phase makes the next event tens of
    cycles away (bid must not degenerate to cycle-stepping).
    """
    idle = list(itertools.islice(
        random_trace(org, 1 << 18, 300.0, seed=seed), 40))
    busy = list(itertools.islice(
        zipf_trace(org, 1 << 21, 2.0, seed=seed + 17,
                   write_fraction=0.3), 200))
    records = []
    for phase in range(6):
        records.extend(idle if phase % 2 == 0 else busy)
    return [TraceRecord(*rec) for rec in records]


@pytest.mark.parametrize("mechanism", ("none", "chargecache"))
def test_mixed_phase_parity(mechanism):
    cfg = tiny_config(mechanism, instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    results = {}
    for engine in ("dense", "event"):
        system = System(replace(cfg, engine=engine),
                        [iter(_mixed_phase_trace(org))])
        results[engine] = system.run(max_mem_cycles=600_000)
    for field in PARITY_FIELDS:
        assert getattr(results["event"], field) == \
            getattr(results["dense"], field), field


def test_mixed_phase_visit_budget():
    """The bid must keep skipping cycles on mixed idle/busy phases.

    ``System.visited_cycles`` counts engine loop iterations.  Dense
    visits every bus cycle by construction; the event engine lands
    well under both the dense count and a visits-per-command budget
    (measured 2.5 here; ~9 with a blanket ``cycle + 1`` rebid after
    every command on command-dense workloads).
    """
    cfg = tiny_config("chargecache", instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)

    dense_system = System(replace(cfg, engine="dense"),
                          [iter(_mixed_phase_trace(org))])
    dense = dense_system.run(max_mem_cycles=600_000)
    # Dense ticks every bus cycle (warmup included, so >= mem_cycles).
    assert dense_system.visited_cycles >= dense.mem_cycles

    event_system = System(replace(cfg, engine="event"),
                          [iter(_mixed_phase_trace(org))])
    event = event_system.run(max_mem_cycles=600_000)
    visited = event_system.visited_cycles

    assert event.mem_cycles == dense.mem_cycles
    assert visited < dense.mem_cycles / 2, \
        f"event engine visited {visited} of {dense.mem_cycles} cycles"
    commands = (event.reads + event.writes + event.activations
                + event.refreshes)
    assert commands > 0
    visits_per_command = visited / commands
    assert visits_per_command <= 6.0, (
        f"{visits_per_command:.2f} visits/command — wake bid "
        "regressed toward cycle stepping")


@pytest.mark.parametrize("engine", ("dense", "event"))
def test_mixed_phase_earliest_budget(engine, monkeypatch):
    """FR-FCFS computes each queued bank's gates once per state change.

    The scheduler keeps its per-bank table until a command issues or
    the queue changes, so ``Channel.earliest`` calls scale with issued
    commands, not with visited cycles or queued requests: 5.0 per
    command here in both engines.  A walk over every queued request
    on every call took 12.5 (event) and 17.7 (dense).
    """
    calls = [0]
    earliest = Channel.earliest

    def counted(self, *args):
        calls[0] += 1
        return earliest(self, *args)

    monkeypatch.setattr(Channel, "earliest", counted)
    cfg = tiny_config("chargecache", instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    system = System(replace(cfg, engine=engine),
                    [iter(_mixed_phase_trace(org))])
    system.run(max_mem_cycles=600_000)
    commands = sum(ch.num_acts + ch.num_pres + ch.num_rds + ch.num_wrs
                   + ch.num_refs
                   for ch in (c.channel for c in system.controllers))
    assert commands > 0
    per_command = calls[0] / commands
    assert per_command <= 7.0, (
        f"{per_command:.2f} Channel.earliest calls per command — the "
        "scheduler is recomputing gates it already has")


@pytest.mark.parametrize("engine", ("dense", "event"))
def test_mixed_phase_scan_bank_budget(engine):
    """The FR-FCFS scan walks each queue's banks once per state change.

    ``FRFCFSScheduler.banks_examined`` counts queued banks walked by
    rebuilt scans: 4.3 per issued command here in both engines.
    Rebuilding on every ``choose`` and bid (no kept table) gives 10.2
    (dense) and 9.5 (event).
    """
    cfg = tiny_config("chargecache", instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    system = System(replace(cfg, engine=engine),
                    [iter(_mixed_phase_trace(org))])
    system.run(max_mem_cycles=600_000)
    commands = sum(ch.num_acts + ch.num_pres + ch.num_rds + ch.num_wrs
                   + ch.num_refs
                   for ch in (c.channel for c in system.controllers))
    banks = sum(c.scheduler.banks_examined for c in system.controllers)
    assert commands > 0
    per_command = banks / commands
    assert per_command <= 6.0, (
        f"{per_command:.2f} banks scanned per command — the scheduler "
        "rescans queues whose state did not change")


def _eight_core_mixed_phase(engine: str):
    cfg = tiny_config("chargecache", num_cores=8, channels=2,
                      instruction_limit=20_000, warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    system = System(replace(cfg, engine=engine),
                    [iter(_mixed_phase_trace(org, seed=core + 1))
                     for core in range(8)])
    return system, system.run(max_mem_cycles=600_000)


def test_eight_core_per_visit_work_budget():
    """Each event-engine visit costs what can act, not all components.

    ``System.core_steps`` counts cores stepped to CPU time and
    ``System.controller_ticks`` full controller ticks.  The dense
    engine does both for every core and controller on every cycle (8
    and 2 per visit here), as did the event engine before lazy core
    stepping and the idle-controller skip.  The event engine measures
    0.55 core steps and 1.52 ticks per visit, with identical results.
    """
    dense, dense_result = _eight_core_mixed_phase("dense")
    assert dense.core_steps == 8 * dense.visited_cycles
    assert dense.controller_ticks == 2 * dense.visited_cycles

    event, event_result = _eight_core_mixed_phase("event")
    for field in PARITY_FIELDS:
        assert getattr(event_result, field) == \
            getattr(dense_result, field), field
    steps = event.core_steps / event.visited_cycles
    ticks = event.controller_ticks / event.visited_cycles
    assert steps <= 1.0, (
        f"{steps:.2f} core steps per visit — cores whose bids are not "
        "due are being stepped")
    assert ticks <= 1.75, (
        f"{ticks:.2f} controller ticks per visit — controllers whose "
        "standing bids lie beyond the visit are being ticked")


class _SpyMechanism:
    """Forwards to a real mechanism, recording each method called."""

    def __init__(self, inner, called):
        self._inner = inner
        self._called = called

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if not callable(value):
            return value

        def record(*args, **kwargs):
            self._called.add(name)
            return value(*args, **kwargs)
        return record


@pytest.mark.parametrize("engine", ("dense", "event"))
def test_controller_calls_mechanism_only_at_act_and_pre(engine):
    cfg = tiny_config("chargecache", instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    system = System(replace(cfg, engine=engine),
                    [iter(_mixed_phase_trace(org))])
    called = set()
    for controller in system.controllers:
        controller.mechanism = _SpyMechanism(controller.mechanism, called)
    result = system.run(max_mem_cycles=600_000)
    assert result.mechanism_hits > 0
    assert called == {"on_activate", "on_precharge", "reset_stats"}
