"""Start-up import closure: what a process loads before it simulates.

Package ``__init__`` modules re-export lazily, numpy loads only where a
trace or mix composition is drawn, and the engine only where a point
is simulated (DESIGN.md section 3, "Start-up").  These tests gate on
which modules are in ``sys.modules``, never on time, and run their
probes in fresh interpreters so that this process's imports cannot
hide a regression.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.harness import pool, runner

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a warm sweep's memo, store and codec path must not load.
ENGINE_SIDE = ("numpy", "repro.cpu.system", "repro.controller.controller",
               "repro.workloads.synthetic", "repro.harness.experiments",
               "repro.energy", "repro.workloads.ingest")

#: The specs of the fig7a-heavy benchmark workload: four memory-heavy
#: single-core workloads, each without and with ChargeCache.
FIG7A_HEAVY = """
from repro.harness.spec import Scale
specs = [runner.workload_spec(name, mech, Scale().scaled(0.2), seed=1)
         for name in ("mcf", "omnetpp", "libquantum", "STREAMcopy")
         for mech in ("none", "chargecache")]
"""

LAZY_PACKAGES = ("repro", "repro.harness", "repro.workloads", "repro.core",
                 "repro.cpu", "repro.energy", "repro.circuit",
                 "repro.stats", "repro.dram", "repro.controller")


def probe(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is
    JSON."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture
def stored_point(tmp_path):
    """A store directory holding fig7a-heavy's first point."""
    namespace = {"runner": runner}
    exec(FIG7A_HEAVY, namespace)
    spec = namespace["specs"][0]
    prev = (runner._disk_enabled, runner._disk_dir)
    store = str(tmp_path / "store")
    runner.clear_memo()
    runner.configure_disk_cache(store)
    try:
        assert pool.execute_sweep([spec]).points[0].source == "computed"
    finally:
        runner.clear_memo()
        runner.configure_disk_cache(prev[1], enabled=prev[0])
    return store


def test_warm_sweep_loads_no_engine(stored_point):
    result = probe(
        "import json, sys\n"
        "from repro.harness import pool, runner\n"
        + FIG7A_HEAVY +
        f"runner.configure_disk_cache({stored_point!r})\n"
        "sweep = pool.execute_sweep(specs[:1], jobs=1)\n"
        f"loaded = [m for m in {ENGINE_SIDE!r} if m in sys.modules]\n"
        "print(json.dumps({'source': sweep.points[0].source,\n"
        "                  'loaded': loaded}))\n")
    assert result == {"source": "disk", "loaded": []}


def test_pool_preloads_engine_before_forking():
    result = probe(
        "import concurrent.futures, json, sys\n"
        "from repro.harness import pool, runner\n"
        + FIG7A_HEAVY +
        "class Spied(Exception):\n"
        "    pass\n"
        "def spy(*args, **kwargs):\n"
        "    raise Spied([m for m in ('numpy', 'repro.cpu.system')\n"
        "                 if m in sys.modules])\n"
        "concurrent.futures.ProcessPoolExecutor = spy\n"
        "runner.configure_disk_cache(None, enabled=False)\n"
        "before = [m for m in ('numpy', 'repro.cpu.system')\n"
        "          if m in sys.modules]\n"
        "try:\n"
        "    pool.execute_sweep(specs[:4], jobs=2)\n"
        "except Spied as exc:\n"
        "    print(json.dumps({'before': before,\n"
        "                      'at_executor': exc.args[0]}))\n")
    assert result == {"before": [],
                      "at_executor": ["numpy", "repro.cpu.system"]}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert name in listed, name
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_public_names_are_the_defining_objects():
    from repro.core import registry
    from repro.cpu.result import RunResult
    from repro.cpu.system import System
    import repro.core
    assert repro.System is System
    assert repro.RunResult is RunResult
    assert repro.core.build_mechanism_spec is registry.build
