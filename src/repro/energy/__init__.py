"""Energy and area models.

* :mod:`repro.energy.drampower` - command-level DRAM energy (the
  paper's DRAMPower substitute, Section 6.2 / Figure 8), parameterized
  by the per-standard IDD presets of :mod:`repro.dram.standards`.
* :mod:`repro.energy.mcpat` - ChargeCache storage/area/power overhead
  (the paper's McPAT substitute, Section 6.3, equations 1-2).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DDR3PowerParameters",
    "EnergyBreakdown",
    "PowerParameters",
    "access_rate_for_run",
    "energy_components",
    "energy_for_run",
    "run_seconds",
    "hcrac_storage_bits",
    "hcrac_entry_bits",
    "HCRACOverhead",
    "hcrac_overhead",
    "overhead_for_config",
    "LLC_AREA_MM2_4MB_22NM",
    "LLC_POWER_W_4MB_22NM",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.energy.drampower": (
        "DDR3PowerParameters", "EnergyBreakdown", "PowerParameters",
        "access_rate_for_run", "energy_components", "energy_for_run",
        "run_seconds",
    ),
    "repro.energy.mcpat": (
        "hcrac_storage_bits", "hcrac_entry_bits", "HCRACOverhead",
        "hcrac_overhead", "overhead_for_config",
        "LLC_AREA_MM2_4MB_22NM", "LLC_POWER_W_4MB_22NM",
    ),
})
