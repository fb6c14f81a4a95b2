"""Per-bank DRAM state machine.

A bank tracks which row (if any) is open and the earliest bus cycle at
which each command class may legally be issued to it.  The timing chains
relevant to ChargeCache are:

* ``ACT -> RD/WR`` gated by tRCD (reduced on a ChargeCache/NUAT hit),
* ``ACT -> PRE``   gated by tRAS (reduced on a hit),
* ``PRE -> ACT``   gated by tRP.

tRC (ACT->ACT same bank) is enforced transitively by the tRAS + tRP
chain, because a bank must be precharged before it can be activated
again.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.dram.timing import TimingParameters, ReducedTimings


class BankState(enum.Enum):
    """Logical row-buffer state of a bank."""

    CLOSED = "closed"
    OPEN = "open"


class BankTimingArrays:
    """Struct-of-arrays storage for per-bank timing registers.

    One instance spans all banks of a channel (ranks x banks_per_rank,
    rank-major), so bank scans — "earliest PRE over the open banks of
    rank r", "are all banks closed", the scheduler's per-bank gates —
    index flat lists instead of walking :class:`Bank` objects.  They
    are plain Python lists because the registers are read one or a few
    at a time on the scheduler's hot path: a list read returns a
    Python int directly, where an array scalar read costs ~10x as much
    and must be cast back to ``int``.

    ``open_row`` uses -1 as the "closed" sentinel (rows are
    non-negative).
    """

    __slots__ = ("size", "banks_per_rank", "next_act", "next_pre",
                 "next_rd", "next_wr", "open_row")

    def __init__(self, size: int, banks_per_rank: Optional[int] = None):
        self.size = size
        self.banks_per_rank = banks_per_rank if banks_per_rank else size
        self.next_act = [0] * size
        self.next_pre = [0] * size
        self.next_rd = [0] * size
        self.next_wr = [0] * size
        self.open_row = [-1] * size


class Bank:
    """Timing and row-buffer state for one DRAM bank.

    The timing registers (``open_row``, ``next_act``, ``next_pre``,
    ``next_rd``, ``next_wr``) live in a shared
    :class:`BankTimingArrays`; this object is a view at one index,
    exposing them as plain scalar attributes for the command-application
    and single-bank query paths.  Constructing ``Bank(timing)`` without
    arrays keeps the historical standalone behaviour (private
    single-slot arrays), so unit tests and external callers are
    unaffected.
    """

    __slots__ = ("timing", "arrays", "index", "act_cycle", "act_reduced",
                 "open_cycles", "num_acts", "num_reduced_acts",
                 "last_open_at", "_read_to_pre", "_write_to_pre")

    def __init__(self, timing: TimingParameters,
                 arrays: Optional[BankTimingArrays] = None, index: int = 0):
        self.timing = timing
        if arrays is None:
            arrays = BankTimingArrays(1)
            index = 0
        self.arrays = arrays
        self.index = index
        # Derived constraints, read on every column command.
        self._read_to_pre = timing.read_to_pre
        self._write_to_pre = timing.write_to_pre
        # Bookkeeping for the last activation.
        self.act_cycle = -1
        self.act_reduced = False
        self.last_open_at = 0
        # Statistics.
        self.open_cycles = 0
        self.num_acts = 0
        self.num_reduced_acts = 0

    # ------------------------------------------------------------------
    # Scalar views over the shared arrays
    # ------------------------------------------------------------------

    @property
    def open_row(self) -> Optional[int]:
        row = self.arrays.open_row[self.index]
        return None if row < 0 else row

    @open_row.setter
    def open_row(self, value: Optional[int]) -> None:
        self.arrays.open_row[self.index] = -1 if value is None else value

    @property
    def next_act(self) -> int:
        return self.arrays.next_act[self.index]

    @next_act.setter
    def next_act(self, value: int) -> None:
        self.arrays.next_act[self.index] = value

    @property
    def next_pre(self) -> int:
        return self.arrays.next_pre[self.index]

    @next_pre.setter
    def next_pre(self, value: int) -> None:
        self.arrays.next_pre[self.index] = value

    @property
    def next_rd(self) -> int:
        return self.arrays.next_rd[self.index]

    @next_rd.setter
    def next_rd(self, value: int) -> None:
        self.arrays.next_rd[self.index] = value

    @property
    def next_wr(self) -> int:
        return self.arrays.next_wr[self.index]

    @next_wr.setter
    def next_wr(self, value: int) -> None:
        self.arrays.next_wr[self.index] = value

    # ------------------------------------------------------------------

    @property
    def state(self) -> BankState:
        return BankState.CLOSED if self.open_row is None else BankState.OPEN

    def is_open(self, row: Optional[int] = None) -> bool:
        if self.open_row is None:
            return False
        return True if row is None else self.open_row == row

    # ------------------------------------------------------------------
    # Earliest-issue queries (pure; no state change)
    # ------------------------------------------------------------------

    def earliest_act(self) -> int:
        if self.open_row is not None:
            raise RuntimeError("ACT issued to an open bank; PRE required first")
        return self.next_act

    def earliest_pre(self) -> int:
        return self.next_pre

    def earliest_rd(self) -> int:
        return self.next_rd

    def earliest_wr(self) -> int:
        return self.next_wr

    # ------------------------------------------------------------------
    # Command application
    # ------------------------------------------------------------------

    # The command paths read and write the shared register lists
    # directly: each scalar view above costs a property call.

    def do_activate(self, row: int, cycle: int,
                    timings: ReducedTimings) -> None:
        """Open ``row`` at ``cycle`` using the supplied activation timings."""
        arrays = self.arrays
        i = self.index
        if arrays.open_row[i] >= 0:
            raise RuntimeError(
                f"ACT to open bank (row {arrays.open_row[i]}) at cycle {cycle}")
        if cycle < arrays.next_act[i]:
            raise RuntimeError(
                f"ACT at {cycle} violates tRP/tRFC "
                f"(earliest {arrays.next_act[i]})")
        arrays.open_row[i] = row
        self.act_cycle = cycle
        self.last_open_at = cycle
        trcd = timings.trcd
        tras = timings.tras
        self.act_reduced = (trcd < self.timing.tRCD
                            or tras < self.timing.tRAS)
        arrays.next_rd[i] = arrays.next_wr[i] = cycle + trcd
        next_pre = arrays.next_pre
        if cycle + tras > next_pre[i]:
            next_pre[i] = cycle + tras
        self.num_acts += 1
        if self.act_reduced:
            self.num_reduced_acts += 1

    def do_read(self, cycle: int) -> None:
        arrays = self.arrays
        i = self.index
        if arrays.open_row[i] < 0:
            raise RuntimeError(f"RD to closed bank at cycle {cycle}")
        if cycle < arrays.next_rd[i]:
            raise RuntimeError(
                f"RD at {cycle} violates tRCD/tCCD "
                f"(earliest {arrays.next_rd[i]})")
        next_pre = arrays.next_pre
        if cycle + self._read_to_pre > next_pre[i]:
            next_pre[i] = cycle + self._read_to_pre

    def do_write(self, cycle: int) -> None:
        arrays = self.arrays
        i = self.index
        if arrays.open_row[i] < 0:
            raise RuntimeError(f"WR to closed bank at cycle {cycle}")
        if cycle < arrays.next_wr[i]:
            raise RuntimeError(
                f"WR at {cycle} violates tRCD/tCCD "
                f"(earliest {arrays.next_wr[i]})")
        next_pre = arrays.next_pre
        if cycle + self._write_to_pre > next_pre[i]:
            next_pre[i] = cycle + self._write_to_pre

    def do_precharge(self, cycle: int) -> int:
        """Close the open row; returns the row that was open."""
        arrays = self.arrays
        i = self.index
        row = arrays.open_row[i]
        if row < 0:
            raise RuntimeError(f"PRE to closed bank at cycle {cycle}")
        if cycle < arrays.next_pre[i]:
            raise RuntimeError(
                f"PRE at {cycle} violates tRAS/tRTP/tWR "
                f"(earliest {arrays.next_pre[i]})")
        arrays.open_row[i] = -1
        self.open_cycles += cycle - self.last_open_at
        next_act = arrays.next_act
        if cycle + self.timing.tRP > next_act[i]:
            next_act[i] = cycle + self.timing.tRP
        return row

    def do_refresh_block(self, until_cycle: int) -> None:
        """Block activations until a refresh completes (tRFC)."""
        if self.open_row is not None:
            raise RuntimeError("REF issued while a bank row is open")
        self.next_act = max(self.next_act, until_cycle)

    # ------------------------------------------------------------------

    def active_cycles_until(self, cycle: int) -> int:
        """Total cycles this bank has had a row open, up to ``cycle``."""
        total = self.open_cycles
        if self.open_row is not None:
            total += max(0, cycle - self.last_open_at)
        return total
