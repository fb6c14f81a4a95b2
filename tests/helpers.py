"""Test-only helpers: an *independent* DRAM command legality checker,
a reference FR-FCFS scheduler, and the shared tiny-trace factory.

The simulator enforces timing constraints in its bank/rank/channel
state machines; the checker below re-verifies an issued-command log
from scratch with its own bookkeeping, so a bug in the simulator's
enforcement cannot hide itself.

:func:`reference_frfcfs_choose` / :func:`reference_frfcfs_next_ready`
are the simulator's original FR-FCFS request walk, kept as the oracle
for the per-bank scan that replaced it; the bound reads the queue's
banks through ``RequestQueue.bank_requests``, the view the scan uses.

:func:`tiny_trace` / :func:`write_trace` factor the repeated "build a
small deterministic trace, write it, ingest it" dance out of the
ingestion, fingerprint and harness tests; :func:`tiny_internal` is the
same idea for the simulator's internal record type.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, List, Optional, Sequence

from repro.controller.scheduler import SchedulerDecision
from repro.cpu.trace import TraceRecord
from repro.dram.commands import Command, IssuedCommand
from repro.dram.timing import NEVER, TimingParameters
from repro.workloads.ingest import MemTraceRecord, write_mem_trace


def tiny_trace(n: int = 32, *, gap: int = 4, start: int = 0x1000,
               stride: int = 64,
               write_every: Optional[int] = 4) -> List[MemTraceRecord]:
    """A small deterministic external-format trace (sequential stream).

    ``n`` records, ``gap`` cycles apart, byte addresses ``start``,
    ``start + stride``, ...; every ``write_every``-th record is a
    write (``None`` = all reads).
    """
    records = []
    cycle = 0
    for i in range(n):
        cycle += gap
        is_write = (write_every is not None
                    and i % write_every == write_every - 1)
        records.append(MemTraceRecord(cycle, start + i * stride,
                                      is_write))
    return records


def write_trace(path, records: Optional[Sequence[MemTraceRecord]] = None,
                **kwargs) -> str:
    """Write ``records`` (default: ``tiny_trace(**kwargs)``) to
    ``path`` in the external ``<cycle> <address> <R|W>`` line format;
    returns ``str(path)``."""
    if records is None:
        records = tiny_trace(**kwargs)
    write_mem_trace(str(path), records)
    return str(path)


def tiny_internal(n: int = 100, *, bubbles: int = 0, start_line: int = 0,
                  stride: int = 1,
                  write_every: Optional[int] = None) -> List[TraceRecord]:
    """A small deterministic internal-format trace (sequential lines)."""
    return [TraceRecord(bubbles, start_line + i * stride,
                        write_every is not None
                        and i % write_every == write_every - 1)
            for i in range(n)]


def _reference_required_command(request, channel) -> Command:
    """The next command this request needs, given current bank state."""
    bank = channel.bank(request.rank, request.bank)
    if bank.open_row is None:
        return Command.ACT
    if bank.open_row != request.row:
        return Command.PRE
    return Command.RD if request.is_read else Command.WR


def reference_frfcfs_choose(queue, channel, cycle: int,
                            blocked_ranks=()) -> Optional[SchedulerDecision]:
    """FR-FCFS as a two-pass walk over every queued request.

    Pass 1 returns the oldest request whose row-hit column command can
    issue at ``cycle``; pass 2 the oldest request whose row command
    (PRE or ACT) can.
    """
    # Pass 1: oldest ready row-hit column command.
    for req in queue:
        if req.rank in blocked_ranks:
            continue
        bank = channel.bank(req.rank, req.bank)
        if bank.open_row != req.row:
            continue
        cmd = Command.RD if req.is_read else Command.WR
        if channel.can_issue(cmd, req.rank, req.bank, cycle):
            return SchedulerDecision(req, cmd)
    # Pass 2: oldest request whose required row command is ready.
    for req in queue:
        if req.rank in blocked_ranks:
            continue
        cmd = _reference_required_command(req, channel)
        if cmd.is_column:
            continue  # handled (or timing-blocked) in pass 1
        if channel.can_issue(cmd, req.rank, req.bank, cycle):
            return SchedulerDecision(req, cmd)
    return None


def reference_frfcfs_next_ready(queue, channel, cycle: int,
                                blocked_ranks=()) -> int:
    """Earliest cycle the two-pass walk could pick something.

    The minimum gate over each queued bank's required commands; it
    stops at the first bank gated no later than ``cycle + 1``, so any
    value up to ``cycle + 1`` means "next cycle".
    """
    best = NEVER
    col_cmd = None
    for (rank, bank), requests in queue.bank_requests():
        if rank in blocked_ranks:
            continue  # reserved for refresh; refresh wake-ups cover it
        open_row = channel.bank(rank, bank).open_row
        if open_row is None:
            t = channel.earliest(Command.ACT, rank, bank)
        else:
            hits = queue.requests_for_row(rank, bank, open_row)
            if hits:
                if col_cmd is None:
                    # Queues are homogeneous (one per direction).
                    first = next(iter(queue))
                    col_cmd = Command.WR if first.is_write else Command.RD
                t = channel.earliest(col_cmd, rank, bank)
            else:
                t = NEVER
            if hits < len(requests):
                t_pre = channel.earliest(Command.PRE, rank, bank)
                if t_pre < t:
                    t = t_pre
        if t < best:
            best = t
            if best <= cycle + 1:
                break  # cannot get any earlier than "next cycle"
    return best


def reference_earliest(channel, command: Command, rank: int,
                       bank: int) -> int:
    """Earliest legal issue cycle of a bank command, from first principles.

    Written out from the timing rules through the ``Bank``/``Rank``
    views, independent of ``Channel.shared_gate``: the bank's own
    register; for ACT, tRRD (``rank.next_act``), tFAW over the last
    four ACTs and tRFC (``refresh_busy_until``); for RD/WR, the
    channel's column gate and, on a rank switch, tRTRS after the
    earlier of the two column gates; and the command bus for all.
    """
    rk = channel.ranks[rank]
    bk = rk.banks[bank]
    if command is Command.ACT:
        gate = max(bk.next_act, rk.next_act, rk.refresh_busy_until)
        if len(rk._act_history) >= 4:
            gate = max(gate, rk._act_history[-4] + channel.timing.tFAW)
    elif command is Command.PRE:
        gate = bk.next_pre
    else:
        is_read = command is Command.RD
        gate = max(bk.next_rd if is_read else bk.next_wr,
                   channel.next_rd if is_read else channel.next_wr)
        last = channel._last_col_rank
        if last is not None and last != rank:
            gate = max(gate, min(channel.next_rd, channel.next_wr)
                       + channel.timing.tRTRS)
    return max(gate, channel.next_cmd)


class CommandLogViolation(AssertionError):
    pass


def check_command_log(log: Iterable[IssuedCommand],
                      timing: TimingParameters,
                      reduced_trcd: int = None,
                      reduced_tras: int = None) -> int:
    """Validate every inter-command constraint in a command log.

    Reduced-timing ACTs (``cmd.reduced``) are checked against the
    reduced tRCD/tRAS (defaults: the paper's 7/20 cycles; pass the
    scenario's own reduction when checking non-DDR3 standards).

    Rank-scope constraints (tRRD, tFAW, tRFC, REF-with-open-bank) are
    tracked **per rank**, so interleaved command streams from
    multi-rank channels are verified independently per rank; column
    commands that hop ranks on the shared data bus must additionally
    be spaced by tCCD + tRTRS (the simulator's rank-switch contract,
    which is at least as strict as JEDEC's tBL + tRTRS burst gap for
    every supported standard).

    Returns the number of commands checked; raises
    :class:`CommandLogViolation` on the first violation.
    """
    if reduced_trcd is None:
        reduced_trcd = timing.tRCD - 4
    if reduced_tras is None:
        reduced_tras = timing.tRAS - 8

    last_cmd_cycle = None
    open_row = {}            # (rank, bank) -> row
    act_cycle = {}           # (rank, bank) -> (cycle, reduced)
    pre_cycle = {}           # (rank, bank) -> cycle
    last_col = {}            # (rank, bank) -> (cycle, cmd)
    rank_acts = defaultdict(deque)   # rank -> recent ACT cycles
    rank_ref_until = defaultdict(int)
    chan_col = deque()       # (cycle, cmd, rank) channel-level column cmds

    def fail(cmd, why):
        raise CommandLogViolation(f"{why}: {cmd}")

    count = 0
    for cmd in log:
        count += 1
        key = (cmd.rank, cmd.bank)
        if last_cmd_cycle is not None:
            if cmd.cycle == last_cmd_cycle:
                fail(cmd, "two commands in one bus cycle")
            if cmd.cycle < last_cmd_cycle:
                fail(cmd, "command log not in cycle order")
        last_cmd_cycle = cmd.cycle

        if cmd.command is Command.ACT:
            if key in open_row:
                fail(cmd, "ACT to an open bank")
            if key in pre_cycle and cmd.cycle - pre_cycle[key] < timing.tRP:
                fail(cmd, "tRP violation")
            if cmd.cycle < rank_ref_until[cmd.rank]:
                fail(cmd, "tRFC violation")
            acts = rank_acts[cmd.rank]
            if acts and cmd.cycle - acts[-1] < timing.tRRD:
                fail(cmd, "tRRD violation")
            if len(acts) >= 4 and cmd.cycle - acts[-4] < timing.tFAW:
                fail(cmd, "tFAW violation")
            acts.append(cmd.cycle)
            if len(acts) > 4:
                acts.popleft()
            open_row[key] = cmd.row
            act_cycle[key] = (cmd.cycle, cmd.reduced)
        elif cmd.command is Command.PRE:
            if key not in open_row:
                fail(cmd, "PRE to a closed bank")
            issued, reduced = act_cycle[key]
            tras = reduced_tras if reduced else timing.tRAS
            if cmd.cycle - issued < tras:
                fail(cmd, "tRAS violation")
            col = last_col.get(key)
            if col is not None:
                col_cycle, col_cmd = col
                if col_cycle >= issued:
                    if col_cmd is Command.RD and \
                            cmd.cycle - col_cycle < timing.read_to_pre:
                        fail(cmd, "tRTP violation")
                    if col_cmd is Command.WR and \
                            cmd.cycle - col_cycle < timing.write_to_pre:
                        fail(cmd, "write recovery violation")
            del open_row[key]
            pre_cycle[key] = cmd.cycle
        elif cmd.command in (Command.RD, Command.WR):
            if key not in open_row:
                fail(cmd, "column command to a closed bank")
            issued, reduced = act_cycle[key]
            trcd = reduced_trcd if reduced else timing.tRCD
            if cmd.cycle - issued < trcd:
                fail(cmd, "tRCD violation")
            if chan_col:
                prev_cycle, prev_cmd, prev_rank = chan_col[-1]
                if cmd.cycle - prev_cycle < timing.tCCD:
                    fail(cmd, "tCCD violation")
                if prev_cmd is Command.RD and cmd.command is Command.WR \
                        and cmd.cycle - prev_cycle < timing.read_to_write:
                    fail(cmd, "read->write turnaround violation")
                if prev_cmd is Command.WR and cmd.command is Command.RD \
                        and cmd.cycle - prev_cycle < timing.write_to_read:
                    fail(cmd, "write->read turnaround violation")
                if prev_rank != cmd.rank and cmd.cycle - prev_cycle \
                        < timing.tCCD + timing.tRTRS:
                    fail(cmd, "tRTRS violation (rank-switch gap)")
            chan_col.append((cmd.cycle, cmd.command, cmd.rank))
            if len(chan_col) > 8:
                chan_col.popleft()
            last_col[key] = (cmd.cycle, cmd.command)
        elif cmd.command is Command.REF:
            for (rank, _bank) in open_row:
                if rank == cmd.rank:
                    fail(cmd, "REF with an open bank")
            rank_ref_until[cmd.rank] = cmd.cycle + timing.tRFC
        else:
            fail(cmd, f"unexpected command {cmd.command}")
    return count


def drain_system(system, max_mem_cycles: int = 400_000):
    """Run a system and return its result (helper for integration)."""
    return system.run(max_mem_cycles=max_mem_cycles)


def collect_command_logs(system) -> List[IssuedCommand]:
    logs = []
    for controller in system.controllers:
        logs.append(controller.channel.command_log)
    return logs
