"""DRAM device model: commands, timing constraints and bank/rank/channel
state machines.

This subpackage is the reproduction's substitute for the C++ Ramulator
device model the paper used.  It implements the DDR3 command protocol at
the level ChargeCache interacts with: ACT/PRE/RD/WR/REF commands gated by
the standard inter-command timing constraints.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Command",
    "CommandKind",
    "TimingParameters",
    "ReducedTimings",
    "DDR3_1600",
    "Organization",
    "DecodedAddress",
    "Bank",
    "BankState",
    "Rank",
    "Channel",
    "RefreshScheduler",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.dram.commands": ("Command", "CommandKind"),
    "repro.dram.timing": (
        "TimingParameters", "ReducedTimings", "DDR3_1600",
    ),
    "repro.dram.organization": ("Organization", "DecodedAddress"),
    "repro.dram.bank": ("Bank", "BankState"),
    "repro.dram.rank": ("Rank",),
    "repro.dram.channel": ("Channel",),
    "repro.dram.refresh": ("RefreshScheduler",),
})
