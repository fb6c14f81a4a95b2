"""FR-FCFS per-bank scan versus the two-pass request walk.

:class:`FRFCFSScheduler` computes readiness once per queued bank; the
reference in tests/helpers.py walks every queued request twice.  On
random channel states (1-2 ranks, random open rows, bank, rank and
channel timing registers), random read-only or write-only queues of up
to 64 requests and random refresh-blocked ranks, both must pick the
same request object and command, and bound the next ready cycle the
same way.
"""

from hypothesis import given, settings, strategies as st

from repro.controller.queues import RequestQueue
from repro.controller.request import read_request, write_request
from repro.controller.scheduler import FRFCFSScheduler
from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.timing import DDR3_1600

from tests.helpers import reference_frfcfs_choose, reference_frfcfs_next_ready

NUM_BANKS = 8
ROWS = 4        # few rows, so hits and conflicts are both common
HORIZON = 60    # timing registers and cycles are drawn from [0, HORIZON]

tick = st.integers(0, HORIZON)


@st.composite
def channel_states(draw):
    """A channel with random open rows and timing registers."""
    num_ranks = draw(st.integers(1, 2))
    channel = Channel(DDR3_1600, num_ranks, NUM_BANKS)
    arrays = channel.bank_arrays
    for i in range(arrays.size):
        arrays.open_row[i] = draw(st.integers(-1, ROWS - 1))
        arrays.next_act[i] = draw(tick)
        arrays.next_pre[i] = draw(tick)
        arrays.next_rd[i] = draw(tick)
        arrays.next_wr[i] = draw(tick)
    for rank in channel.ranks:
        rank.open_banks = rank.open_bank_count()
        rank.next_act = draw(tick)
        rank._act_history = sorted(draw(st.lists(tick, max_size=4)))
        rank.refresh_busy_until = draw(tick)
    channel.next_cmd = draw(tick)
    channel.next_rd = draw(tick)
    channel.next_wr = draw(tick)
    channel._last_col_rank = draw(
        st.one_of(st.none(), st.integers(0, num_ranks - 1)))
    return channel


@st.composite
def scenarios(draw):
    channel = draw(channel_states())
    num_ranks = len(channel.ranks)
    is_write = draw(st.booleans())
    coords = draw(st.lists(
        st.tuples(st.integers(0, num_ranks - 1),
                  st.integers(0, NUM_BANKS - 1),
                  st.integers(0, ROWS - 1)),
        max_size=64))
    queue = RequestQueue(64)
    for line, (rank, bank, row) in enumerate(coords):
        req = write_request(line) if is_write else read_request(line)
        req.channel, req.rank, req.bank, req.row = 0, rank, bank, row
        queue.push(req, 0)
    blocked = draw(st.sets(st.integers(0, num_ranks - 1)))
    return channel, queue, blocked


def _same_decision(got, want):
    if want is None:
        return got is None
    return (got is not None and got.request is want.request
            and got.command is want.command)


def _same_bound(got, want, cycle):
    # The reference stops at the first bank gated by cycle + 1, so
    # bounds agree exactly above cycle + 1 and both say "next cycle"
    # otherwise.
    return max(got, cycle + 1) == max(want, cycle + 1)


@given(scenarios(), tick)
@settings(max_examples=300, deadline=None)
def test_choose_and_bound_match_request_walk(scenario, cycle):
    channel, queue, blocked = scenario
    scheduler = FRFCFSScheduler()
    want = reference_frfcfs_choose(queue, channel, cycle, blocked)
    got = scheduler.choose(queue, channel, cycle, blocked)
    assert _same_decision(got, want), (got, want)
    bound = reference_frfcfs_next_ready(queue, channel, cycle, blocked)
    assert _same_bound(
        scheduler.next_ready_cycle(queue, channel, cycle, blocked),
        bound, cycle)
    # A fresh scheduler (no table kept from choose) agrees too.
    assert _same_bound(
        FRFCFSScheduler().next_ready_cycle(queue, channel, cycle, blocked),
        bound, cycle)


def _issue(channel, queue, decision, cycle):
    req, cmd = decision.request, decision.command
    if cmd is Command.ACT:
        channel.issue_activate(req.rank, req.bank, req.row, cycle)
    elif cmd is Command.PRE:
        channel.issue_precharge(req.rank, req.bank, cycle)
    else:
        if cmd is Command.RD:
            channel.issue_read(req.rank, req.bank, cycle)
        else:
            channel.issue_write(req.rank, req.bank, cycle)
        queue.remove(req)


@given(scenarios(), st.lists(st.integers(0, 12), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_kept_table_tracks_issues_and_removals(scenario, steps):
    """One scheduler driven through a command sequence keeps agreeing
    with the reference as its bank table is reused and invalidated."""
    channel, queue, blocked = scenario
    scheduler = FRFCFSScheduler()
    cycle = channel.next_cmd
    for step in steps:
        cycle += step
        want = reference_frfcfs_choose(queue, channel, cycle, blocked)
        bound = reference_frfcfs_next_ready(queue, channel, cycle, blocked)
        assert _same_bound(
            scheduler.next_ready_cycle(queue, channel, cycle, blocked),
            bound, cycle)
        got = scheduler.choose(queue, channel, cycle, blocked)
        assert _same_decision(got, want), (got, want)
        if got is not None:
            _issue(channel, queue, got, cycle)
