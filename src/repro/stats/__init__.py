"""Statistics: counters, the RLTL profiler and evaluation metrics."""

from repro._lazy import lazy_exports

__all__ = [
    "StatsCollector",
    "CompositeProbe",
    "RowReuseProfiler",
    "RLTLProbe",
    "RLTL_INTERVALS_MS",
    "ipc",
    "weighted_speedup",
    "speedup",
    "rmpkc",
    "geometric_mean",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.stats.collector": ("StatsCollector",),
    "repro.stats.probes": ("CompositeProbe",),
    "repro.stats.reuse": ("RowReuseProfiler",),
    "repro.stats.rltl": ("RLTLProbe", "RLTL_INTERVALS_MS"),
    "repro.stats.metrics": (
        "ipc", "weighted_speedup", "speedup", "rmpkc", "geometric_mean",
    ),
})
