"""Request schedulers.

**FR-FCFS** (first-ready, first-come-first-served; Rixner et al. [79],
Zuravleff & Robinson [101]) is the paper's baseline policy: among
requests whose next required command can issue *now*, column commands
to already-open rows (row hits) win; ties break by age.

**FCFS** serves strictly in arrival order and is provided as a
reference point for tests and ablations.

A scheduler returns a :class:`SchedulerDecision` naming the request and
the command to issue on its behalf this cycle, or ``None`` when nothing
can issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.controller.request import Request
from repro.dram.channel import Channel
from repro.dram.commands import ACT, PRE, RD, WR, Command
from repro.dram.timing import NEVER

#: The "no rank is reserved for refresh" value of ``blocked_ranks``.
#: Callers pass this one object (or another frozenset) so the scan
#: table's key compares it without building a set per call.
NO_BLOCKED_RANKS: FrozenSet[int] = frozenset()


@dataclass
class SchedulerDecision:
    """The command chosen for this cycle and the request it serves."""

    request: Request
    command: Command


def required_command(request: Request, channel: Channel) -> Command:
    """The next command this request needs, given current bank state."""
    bank = channel.bank(request.rank, request.bank)
    if bank.open_row is None:
        return ACT
    if bank.open_row != request.row:
        return PRE
    return RD if request.is_read else WR


class FRFCFSScheduler:
    """First-ready FCFS over one request queue.

    Requests that share a bank share its timing state, so readiness is
    computed once per distinct queued bank, not once per request.  A
    bank serves two kinds of request: row hits (its open row, via the
    column command) and row misses (PRE when another row is open, ACT
    when the bank is closed).  :meth:`_scan` walks the queue's banks
    once, recording for each kind the gate of its command and the
    oldest request it serves; :meth:`choose` and
    :meth:`next_ready_cycle` both read that table.

    The table depends only on queue contents and channel timing state,
    not on the cycle, so it is kept until either moves: every push or
    removal bumps ``queue.version`` and every command issue advances
    ``channel.next_cmd``.  (Registers changed behind the channel's back,
    by calling ``Bank.do_*`` directly, are not seen.)
    """

    name = "frfcfs"

    def __init__(self):
        self._scan_key = None
        self._table = None
        #: Queued banks walked by :meth:`_scan` (work counter; tests
        #: budget it per issued command).
        self.banks_examined = 0

    def choose(self, queue, channel: Channel, cycle: int,
               blocked_ranks=NO_BLOCKED_RANKS
               ) -> Optional[SchedulerDecision]:
        """Pick the command to issue at ``cycle``, or None.

        The oldest request with a ready row-hit column command wins;
        otherwise the oldest request whose row command (PRE or ACT) is
        ready.  ``blocked_ranks`` lists ranks currently reserved for
        refresh; no new command is scheduled to them.
        """
        hits, misses, _ = self._scan(queue, channel, blocked_ranks)
        for entries in (hits, misses):
            best = best_cmd = None
            for gate, req, cmd in entries:
                if gate <= cycle and (best is None
                                      or req.arrival < best.arrival):
                    best, best_cmd = req, cmd
            if best is not None:
                return SchedulerDecision(best, best_cmd)
        return None

    def next_ready_cycle(self, queue, channel: Channel, cycle: int,
                         blocked_ranks=NO_BLOCKED_RANKS) -> int:
        """Earliest cycle at which :meth:`choose` could return non-None.

        The minimum gate over every unblocked queued bank's required
        commands.  The result is a *lower* bound, valid until the next
        command issue or enqueue (the event engine recomputes after
        both): waking early and finding nothing to do is exactly what
        the dense engine does on every idle cycle.
        """
        del cycle  # the gates do not depend on it
        return self._scan(queue, channel, blocked_ranks)[2]

    def _scan(self, queue, channel: Channel, blocked_ranks):
        """``(hits, misses, gate)`` over the unblocked queued banks.

        ``hits`` holds ``(gate, oldest row-hit request, RD or WR)`` and
        ``misses`` ``(gate, oldest row-miss request, PRE or ACT)``, one
        entry per bank that has such requests; ``gate`` is the earliest
        of all of them (``NEVER`` when there are none).  Each gate is
        ``max(bank register, Channel.shared_gate)``, the same value as
        :meth:`Channel.earliest`; the shared part is computed once per
        (command, rank) of the scan.
        """
        if type(blocked_ranks) is not frozenset:
            # Snapshot: the kept key must not alias a caller's set.
            blocked_ranks = frozenset(blocked_ranks)
        key = (queue, queue.version, channel, channel.next_cmd,
               blocked_ranks)
        if key == self._scan_key:
            return self._table
        arrays = channel.bank_arrays
        open_rows = arrays.open_row
        next_act = arrays.next_act
        next_pre = arrays.next_pre
        banks_per_rank = arrays.banks_per_rank
        shared_gate = channel.shared_gate
        act_shared = {}
        col_shared = {}
        pre_shared = None  # the command bus: the same on every rank
        col_cmd = col_regs = None
        hits = []
        misses = []
        best = NEVER
        bank_requests = queue.bank_requests()
        row_counts = queue.row_counts()
        self.banks_examined += len(bank_requests)
        for (rank, bank), requests in bank_requests:
            if rank in blocked_ranks:
                continue  # reserved for refresh; refresh wake-ups cover it
            flat = rank * banks_per_rank + bank
            open_row = open_rows[flat]
            if open_row < 0:
                gate = act_shared.get(rank)
                if gate is None:
                    gate = act_shared[rank] = shared_gate(ACT, rank)
                if next_act[flat] > gate:
                    gate = next_act[flat]
                misses.append((gate, requests[0], ACT))
            else:
                n_hits = row_counts.get((rank, bank, open_row), 0)
                gate = NEVER
                if n_hits:
                    if col_cmd is None:
                        # Queues are homogeneous (one per direction).
                        col_cmd = WR if requests[0].is_write else RD
                        col_regs = channel.registers(col_cmd)
                    gate = col_shared.get(rank)
                    if gate is None:
                        gate = col_shared[rank] = shared_gate(col_cmd, rank)
                    if col_regs[flat] > gate:
                        gate = col_regs[flat]
                    for req in requests:
                        if req.row == open_row:
                            break
                    hits.append((gate, req, col_cmd))
                if n_hits < len(requests):
                    if pre_shared is None:
                        pre_shared = shared_gate(PRE, rank)
                    pre_gate = next_pre[flat]
                    if pre_shared > pre_gate:
                        pre_gate = pre_shared
                    for req in requests:
                        if req.row != open_row:
                            break
                    misses.append((pre_gate, req, PRE))
                    if pre_gate < gate:
                        gate = pre_gate
            if gate < best:
                best = gate
        self._scan_key = key
        self._table = (hits, misses, best)
        return self._table


class FCFSScheduler:
    """Strict in-order service of the oldest request."""

    name = "fcfs"

    def choose(self, queue, channel: Channel, cycle: int,
               blocked_ranks=NO_BLOCKED_RANKS
               ) -> Optional[SchedulerDecision]:
        for req in queue:
            if req.rank in blocked_ranks:
                continue
            cmd = required_command(req, channel)
            if channel.can_issue(cmd, req.rank, req.bank, cycle):
                return SchedulerDecision(req, cmd)
            return None  # head-of-line blocking: only the oldest counts
        return None

    def next_ready_cycle(self, queue, channel: Channel, cycle: int,
                         blocked_ranks=NO_BLOCKED_RANKS) -> int:
        """Earliest possible pick: only the (unblocked) head counts."""
        del cycle
        for req in queue:
            if req.rank in blocked_ranks:
                continue  # choose() skips refresh-reserved ranks too
            cmd = required_command(req, channel)
            return channel.earliest(cmd, req.rank, req.bank)
        return NEVER


def make_scheduler(name: str):
    if name == "frfcfs":
        return FRFCFSScheduler()
    if name == "fcfs":
        return FCFSScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
