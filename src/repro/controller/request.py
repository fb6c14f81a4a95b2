"""Memory requests exchanged between the cache hierarchy and the
memory controller.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional


class RequestType(enum.Enum):
    READ = "read"
    WRITE = "write"


_request_ids = itertools.count()


class Request:
    """One cache-line-sized memory request.

    Attributes:
        line_address: cache-line address (byte address >> 6).
        type: read or write (fixed at construction).
        is_read/is_write: ``type`` as two flags, filled in once so the
            per-command paths test a slot instead of an enum member.
        core_id: issuing core (writebacks inherit the evicting core).
        channel/rank/bank/row/column: decoded DRAM coordinates, filled
            in by the controller's address mapper at enqueue time.
        enqueue_cycle: bus cycle the request entered its queue.
        arrival: the queue's arrival sequence number for this request
            (strictly increasing in push order; FR-FCFS ties break on it).
        issue_cycle: bus cycle its column command was issued (-1 before).
        done_cycle: bus cycle the data transfer completed (-1 before).
        needed_act: True when servicing required a row activation (i.e.
            this request was a row miss or conflict).
        act_was_hit: True when its ACT used reduced timings.
        callback: invoked as ``callback(request)`` when a READ's data
            arrives (WRITEs are posted and complete at issue).
    """

    __slots__ = ("id", "line_address", "type", "is_read", "is_write",
                 "core_id", "channel", "rank", "bank", "row", "column",
                 "enqueue_cycle", "arrival", "issue_cycle", "done_cycle",
                 "needed_act", "act_was_hit", "callback")

    def __init__(self, line_address: int, type: RequestType,
                 core_id: int = 0,
                 callback: Optional[Callable[["Request"], None]] = None):
        self.id = next(_request_ids)
        self.line_address = line_address
        self.type = type
        self.is_read = type is RequestType.READ
        self.is_write = type is RequestType.WRITE
        self.core_id = core_id
        self.channel = -1
        self.rank = -1
        self.bank = -1
        self.row = -1
        self.column = -1
        self.enqueue_cycle = -1
        self.arrival = -1
        self.issue_cycle = -1
        self.done_cycle = -1
        self.needed_act = False
        self.act_was_hit = False
        self.callback = callback

    # ------------------------------------------------------------------

    @property
    def latency(self) -> int:
        """Queueing + service latency in bus cycles (reads only)."""
        if self.done_cycle < 0 or self.enqueue_cycle < 0:
            return -1
        return self.done_cycle - self.enqueue_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Request(#{self.id} {self.type.value} line={self.line_address:#x} "
                f"core={self.core_id} ch{self.channel} ra{self.rank} "
                f"ba{self.bank} row{self.row})")


def read_request(line_address: int, core_id: int = 0,
                 callback=None) -> Request:
    return Request(line_address, RequestType.READ, core_id, callback)


def write_request(line_address: int, core_id: int = 0) -> Request:
    return Request(line_address, RequestType.WRITE, core_id)
