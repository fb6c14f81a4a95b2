"""Lifetime oracle: a finished ``System`` is freed by reference counting.

``System.run`` releases the wiring that points back up from the LLC and
the cores, so once the caller drops a finished system nothing keeps it
(or its LLC, controllers and cores) alive: no reference cycle is left
for a gen-2 collection to find.  Every test runs with the cyclic
collector disabled and checks weak references without calling
``gc.collect()``, so a cycle anywhere through the system shows as a
live reference.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.workloads.synthetic import zipf_trace

from tests.conftest import tiny_config


@pytest.fixture(autouse=True)
def _no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _config(mechanism="chargecache", engine="event", **cc_kwargs):
    cfg = tiny_config(mechanism, instruction_limit=4_000, **cc_kwargs)
    cc = dataclasses.replace(cfg.chargecache, caching_duration_ms=100.0,
                             time_scale=1.0)
    return dataclasses.replace(cfg, chargecache=cc, engine=engine)


def _trace(cfg):
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    return zipf_trace(org, 128 * 1024, 6.0, 3, alpha=1.8,
                      write_fraction=0.2)


def _component_refs(system):
    """Weak references to the system and every part it wires up."""
    parts = [system, system.llc, *system.controllers, *system.cores]
    return [weakref.ref(part) for part in parts]


def _alive(refs):
    return [ref for ref in refs if ref() is not None]


@pytest.mark.parametrize("engine", ["dense", "event"])
def test_finished_system_is_freed_on_drop(engine):
    cfg = _config(engine=engine)
    system = System(cfg, [_trace(cfg)])
    result = system.run(max_mem_cycles=300_000)
    assert not result.truncated
    refs = _component_refs(system)
    del system
    assert _alive(refs) == []
    assert result.reads > 0  # the result outlives the system


def test_truncated_system_is_freed_on_drop():
    """A run cut mid-flight leaves reads queued, in MSHRs and parked in
    the LLC's retry list (a 2-entry read queue overflows at once)."""
    parked = []

    class _System(System):
        def _release(self):
            parked.append(len(self.llc._retry_reads))
            super()._release()

    cfg = _config()
    cfg = dataclasses.replace(cfg, controller=dataclasses.replace(
        cfg.controller, read_queue_size=2))
    system = _System(cfg, [_trace(cfg)])
    result = system.run(max_mem_cycles=200)
    assert result.truncated
    assert parked[0] > 0
    refs = _component_refs(system)
    del system
    assert _alive(refs) == []


def test_system_is_single_use():
    cfg = _config()
    system = System(cfg, [_trace(cfg)])
    system.run(max_mem_cycles=300_000)
    with pytest.raises(RuntimeError, match="single-use"):
        system.run(max_mem_cycles=300_000)


class _TrackedSystem(System):
    """Records a weak reference to every instance ``run_batch`` builds,
    and how many earlier instances were still alive at each build."""

    built = []
    alive_at_build = []

    def __init__(self, *args, **kwargs):
        type(self).alive_at_build.append(len(_alive(type(self).built)))
        super().__init__(*args, **kwargs)
        type(self).built.append(weakref.ref(self))


def test_run_batch_frees_every_system():
    _TrackedSystem.built = []
    _TrackedSystem.alive_at_build = []
    # The two capacities collapse on this hot-row workload; the
    # baseline runs in full.
    configs = [_config(entries=64), _config(entries=256), _config("none")]
    telemetry = {}
    results = _TrackedSystem.run_batch(
        configs, [_trace(configs[0])], max_mem_cycles=300_000,
        telemetry=telemetry)
    assert telemetry == {"full_runs": 2, "collapsed": 1}
    assert len(results) == 3
    assert len(_TrackedSystem.built) == 2
    # Two full runs' systems never coexist, and none outlives the batch.
    assert _TrackedSystem.alive_at_build == [0, 0]
    assert _alive(_TrackedSystem.built) == []
