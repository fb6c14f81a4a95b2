"""Circuit-level models: DRAM cell, sense amplifier and the derived
latency tables (paper Figure 6 and Table 2).

This subpackage is the reproduction's substitute for the paper's SPICE
setup (55 nm DDR3 sense-amplifier netlist with PTM low-power
transistors).  It provides a transient simulator of the charge-sharing
and sense-amplification phases plus the caching-duration -> (tRCD, tRAS)
tables the memory controller consumes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CellParameters",
    "cell_voltage_after",
    "SenseAmpModel",
    "TransientResult",
    "bitline_transient",
    "find_latency_pair",
    "BASELINE_TIMINGS_NS",
    "DURATION_TABLE_NS",
    "DURATION_REDUCTIONS_CYCLES",
    "reductions_for_duration_ms",
    "timings_ns_for_duration_ms",
    "nuat_bin_reductions",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.circuit.cell": ("CellParameters", "cell_voltage_after"),
    "repro.circuit.sense_amp": ("SenseAmpModel", "TransientResult"),
    "repro.circuit.spice": ("bitline_transient", "find_latency_pair"),
    "repro.circuit.latency_tables": (
        "BASELINE_TIMINGS_NS", "DURATION_TABLE_NS",
        "DURATION_REDUCTIONS_CYCLES", "reductions_for_duration_ms",
        "timings_ns_for_duration_ms", "nuat_bin_reductions",
    ),
})
