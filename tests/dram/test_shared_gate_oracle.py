"""``Channel.earliest`` as a bank register plus a per-rank shared gate.

The FR-FCFS scan and the controller's pending-PRE loops compute
``Channel.shared_gate(cmd, rank)`` once per rank and combine it with
each bank's register.  On random 1-2-rank channel states (open rows,
bank/rank/channel registers, tFAW history, last column rank, refresh
busy time), for every bank and every ACT/PRE/RD/WR, that combination,
``Channel.earliest`` and the first-principles reference in
tests/helpers.py must all agree.
"""

import pytest
from hypothesis import given, settings

from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.timing import DDR3_1600

from tests.controller.test_scheduler_oracle import channel_states
from tests.helpers import reference_earliest

BANK_COMMANDS = (Command.ACT, Command.PRE, Command.RD, Command.WR)


@given(channel_states())
@settings(max_examples=300, deadline=None)
def test_earliest_is_register_max_shared_gate(channel):
    arrays = channel.bank_arrays
    for rank in range(len(channel.ranks)):
        shared = {cmd: channel.shared_gate(cmd, rank)
                  for cmd in BANK_COMMANDS}
        for bank in range(arrays.banks_per_rank):
            flat = rank * arrays.banks_per_rank + bank
            for cmd in BANK_COMMANDS:
                if cmd is Command.ACT and arrays.open_row[flat] >= 0:
                    with pytest.raises(RuntimeError):
                        channel.earliest(cmd, rank, bank)
                    continue
                want = reference_earliest(channel, cmd, rank, bank)
                assert channel.earliest(cmd, rank, bank) == want, cmd
                register = channel.registers(cmd)[flat]
                assert max(register, shared[cmd]) == want, cmd


def test_shared_gate_rejects_rank_commands():
    channel = Channel(DDR3_1600, 1, 8)
    with pytest.raises(ValueError):
        channel.shared_gate(Command.REF, 0)
    with pytest.raises(ValueError):
        channel.registers(Command.REF)
