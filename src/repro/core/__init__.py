"""The paper's primary contribution: ChargeCache and the latency
mechanisms it is evaluated against.

* :class:`~repro.core.chargecache.ChargeCache` - the proposed mechanism
  (HCRAC + IIC/EC invalidation + reduced ACT timings on a hit).
* :class:`~repro.core.nuat.NUAT` - the closest prior work (Shin et al.,
  HPCA 2014): reduced timings for recently *refreshed* rows.
* :class:`~repro.core.lldram.LowLatencyDRAM` - the idealised upper
  bound (every activation uses reduced timings).
"""

from repro._lazy import lazy_exports

__all__ = [
    "MechanismContext",
    "MechanismSpec",
    "build_mechanism_spec",
    "canonical_spec",
    "mechanism_names",
    "parse_mechanism_spec",
    "register_mechanism",
    "LatencyMechanism",
    "DefaultTiming",
    "CombinedMechanism",
    "build_mechanism",
    "HCRAC",
    "UnboundedHCRAC",
    "PeriodicInvalidator",
    "TimestampInvalidator",
    "ChargeCache",
    "NUAT",
    "LowLatencyDRAM",
    "ALDRAM",
    "aldram_timings_at",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.registry": (
        "MechanismContext", "MechanismSpec", "canonical_spec",
        "mechanism_names", "parse_mechanism_spec", "register_mechanism",
        "build_mechanism_spec=build",
    ),
    "repro.core.timing_policy": (
        "LatencyMechanism", "DefaultTiming", "CombinedMechanism",
        "build_mechanism",
    ),
    "repro.core.hcrac": ("HCRAC", "UnboundedHCRAC"),
    "repro.core.invalidation": (
        "PeriodicInvalidator", "TimestampInvalidator",
    ),
    "repro.core.aldram": ("ALDRAM", "aldram_timings_at"),
    "repro.core.chargecache": ("ChargeCache",),
    "repro.core.nuat": ("NUAT",),
    "repro.core.lldram": ("LowLatencyDRAM",),
})
