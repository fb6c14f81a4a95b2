"""Experiment harness: one driver per paper table/figure.

Every experiment in the paper's evaluation can be regenerated with
:mod:`repro.harness.experiments` (programmatic), the ``benchmarks/``
pytest-benchmark suite, or the ``chargecache-harness`` CLI.
"""

from repro._lazy import lazy_exports

__all__ = [
    "RunSpec",
    "Scale",
    "RunCache",
    "cache_key",
    "code_fingerprint",
    "Sweep",
    "SweepError",
    "SweepPoint",
    "execute_sweep",
    "current_scale",
    "build_config",
    "run_workload",
    "run_mix",
    "run_spec",
    "alone_ipcs_for_mix",
    "clear_caches",
    "clear_memo",
    "configure_disk_cache",
    "workload_spec",
    "mix_spec",
    "alone_spec",
    "run_fig3",
    "run_fig4",
    "run_fig6",
    "run_table2",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_sec63",
    "run_table1",
    "format_table",
    "format_percent",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.harness.spec": ("RunSpec", "Scale", "current_scale"),
    "repro.harness.cache": (
        "RunCache", "cache_key", "code_fingerprint",
    ),
    "repro.harness.pool": (
        "Sweep", "SweepError", "SweepPoint", "execute_sweep",
    ),
    "repro.harness.runner": (
        "build_config", "run_workload", "run_mix", "run_spec",
        "alone_ipcs_for_mix", "clear_caches", "clear_memo",
        "configure_disk_cache", "workload_spec", "mix_spec",
        "alone_spec",
    ),
    "repro.harness.experiments": (
        "run_fig3", "run_fig4", "run_fig6", "run_table2", "run_fig7",
        "run_fig8", "run_fig9", "run_fig10", "run_fig11", "run_sec63",
        "run_table1",
    ),
    "repro.harness.report": ("format_table", "format_percent"),
})
