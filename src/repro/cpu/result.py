"""The outcome of one simulation run.

:class:`RunResult` lives apart from :mod:`repro.cpu.system` so the
harness's memo, store and codec can build, read and compare results
without loading the simulation engine (DESIGN.md section 3,
"Start-up"); the system module re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import SimulationConfig
from repro.stats.reuse import RowReuseProfiler
from repro.stats.rltl import RLTLProbe


@dataclass
class RunResult:
    """Everything the harness needs from one simulation run."""

    config: SimulationConfig
    mem_cycles: int
    cpu_cycles: int
    instructions: List[int]
    core_cycles: List[int]
    ipcs: List[float]
    llc_hit_rate: float
    llc_load_misses: int
    activations: int
    act_reduced: int
    reads: int
    writes: int
    refreshes: int
    row_hit_rate: float
    average_read_latency_cycles: float
    mechanism_lookups: int
    mechanism_hits: int
    active_bank_cycles: int
    rank_active_cycles: int = 0
    #: Total post-warmup instructions retired by all cores, including
    #: work done by cores that kept executing after reaching their
    #: instruction limit (trace-loop methodology).  Use this for
    #: iso-work comparisons such as energy per instruction.
    work_instructions: int = 0
    truncated: bool = False
    rltl: Optional[RLTLProbe] = None
    reuse: Optional[RowReuseProfiler] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mechanism_hit_rate(self) -> float:
        if not self.mechanism_lookups:
            return 0.0
        return self.mechanism_hits / self.mechanism_lookups

    @property
    def total_ipc(self) -> float:
        return sum(self.ipcs)

    def rmpkc(self) -> float:
        """Row misses (activations) per kilo CPU cycle."""
        if self.cpu_cycles <= 0:
            return 0.0
        return self.activations * 1000.0 / self.cpu_cycles

    def summary(self) -> str:
        """Human-readable one-paragraph run summary."""
        lines = [
            f"mechanism={self.config.mechanism} "
            f"cores={self.config.processor.num_cores} "
            f"channels={self.config.dram.channels} "
            f"policy={self.config.controller.row_policy}",
            f"cycles: {self.mem_cycles} bus / {self.cpu_cycles} cpu"
            + (" (truncated)" if self.truncated else ""),
            f"IPC: total {self.total_ipc:.3f} "
            f"[{', '.join(f'{i:.3f}' for i in self.ipcs)}]",
            f"DRAM: {self.activations} ACT ({self.rmpkc():.2f} RMPKC), "
            f"{self.reads} RD, {self.writes} WR, "
            f"{self.refreshes} REF, row-hit {self.row_hit_rate:.0%}, "
            f"avg read latency {self.average_read_latency_cycles:.1f} cyc",
            f"LLC hit rate: {self.llc_hit_rate:.0%}",
        ]
        if self.mechanism_lookups:
            lines.append(
                f"mechanism: {self.mechanism_hits}/{self.mechanism_lookups}"
                f" activations accelerated ({self.mechanism_hit_rate:.0%})")
        return "\n".join(lines)
