"""Bounded request queues with arrival-order iteration.

The controller keeps one read queue and one write queue per channel
(64 entries each in the paper's configuration).  Writes coalesce by
line address; reads may be served by forwarding from a queued write
(the data is newer than DRAM's copy).
"""

from __future__ import annotations

from typing import Dict, ItemsView, Iterator, List, Optional, Tuple

from repro.controller.request import Request


class RequestQueue:
    """FIFO-ordered bounded queue indexed by line address.

    Besides the arrival-order list, the queue maintains per-(rank,
    bank) arrival-order lists and per-(rank, bank, row) request counts
    incrementally, so the FR-FCFS scan, row-policy checks and the event
    engine's earliest-ready queries run in O(distinct banks) instead of
    rescanning every entry.  Each push stamps the request's
    ``arrival`` sequence number, which orders requests across banks.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: List[Request] = []
        self._by_line: Dict[int, Request] = {}
        self._by_bank: Dict[Tuple[int, int], List[Request]] = {}
        self._row_count: Dict[Tuple[int, int, int], int] = {}
        self._next_arrival = 0
        #: Bumped on every push/remove; lets the event engine cache
        #: earliest-ready computations between content changes.
        self.version = 0
        # Statistics.
        self.enqueued = 0
        self.coalesced = 0
        self.occupancy_accum = 0
        self.occupancy_samples = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    def occupancy_fraction(self) -> float:
        return len(self._items) / self.capacity

    # ------------------------------------------------------------------

    def push(self, request: Request, cycle: int) -> bool:
        """Append ``request``; returns False when the queue is full."""
        if self.is_full:
            return False
        request.enqueue_cycle = cycle
        request.arrival = self._next_arrival
        self._next_arrival += 1
        self._items.append(request)
        self._by_line[request.line_address] = request
        bank_key = (request.rank, request.bank)
        bank_requests = self._by_bank.get(bank_key)
        if bank_requests is None:
            self._by_bank[bank_key] = [request]
        else:
            bank_requests.append(request)
        row_key = (request.rank, request.bank, request.row)
        self._row_count[row_key] = self._row_count.get(row_key, 0) + 1
        self.version += 1
        self.enqueued += 1
        return True

    def coalesce_write(self, line_address: int) -> bool:
        """True if a queued write to ``line_address`` absorbed this one."""
        existing = self._by_line.get(line_address)
        if existing is not None and existing.is_write:
            self.coalesced += 1
            return True
        return False

    def find_line(self, line_address: int) -> Optional[Request]:
        return self._by_line.get(line_address)

    def remove(self, request: Request) -> None:
        self._items.remove(request)
        if self._by_line.get(request.line_address) is request:
            del self._by_line[request.line_address]
        bank_key = (request.rank, request.bank)
        bank_requests = self._by_bank[bank_key]
        bank_requests.remove(request)
        if not bank_requests:
            del self._by_bank[bank_key]
        row_key = (request.rank, request.bank, request.row)
        left = self._row_count[row_key] - 1
        if left:
            self._row_count[row_key] = left
        else:
            del self._row_count[row_key]
        self.version += 1

    def requests_for_bank(self, rank: int, bank: int) -> int:
        """Count queued requests to a specific (rank, bank)."""
        return len(self._by_bank.get((rank, bank), ()))

    def requests_for_row(self, rank: int, bank: int, row: int) -> int:
        """Count queued requests to a specific (rank, bank, row)."""
        return self._row_count.get((rank, bank, row), 0)

    def row_counts(self) -> Dict[Tuple[int, int, int], int]:
        """Queued requests per ``(rank, bank, row)`` (absent rows: 0).

        The queue's own bookkeeping, returned for read-only bulk
        lookups (the FR-FCFS scan reads one entry per open bank).
        """
        return self._row_count

    def banks(self) -> Iterator[Tuple[int, int]]:
        """The distinct (rank, bank) pairs with queued requests."""
        return iter(self._by_bank)

    def bank_requests(self) -> ItemsView[Tuple[int, int], List[Request]]:
        """``((rank, bank), requests)`` per distinct queued bank, with
        each bank's requests in arrival order."""
        return self._by_bank.items()

    def sample_occupancy(self) -> None:
        self.occupancy_accum += len(self._items)
        self.occupancy_samples += 1

    def reset_stats(self) -> None:
        """Zero the enqueue/coalesce counters and occupancy samples."""
        self.enqueued = 0
        self.coalesced = 0
        self.occupancy_accum = 0
        self.occupancy_samples = 0

    @property
    def average_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_accum / self.occupancy_samples
