"""Address mapping between cache-line addresses and DRAM coordinates.

A thin, controller-facing wrapper around
:class:`repro.dram.organization.Organization` that also provides the
helpers workloads and tests use to construct addresses with specific
locality properties (same row, same bank / different row, etc.).
"""

from __future__ import annotations

from typing import Tuple

from repro.dram.organization import DecodedAddress, Organization


class AddressMapper:
    """Bijective cache-line address <-> (ch, ra, ba, row, col) codec."""

    def __init__(self, organization: Organization):
        self.org = organization
        # (shift, mask) per coordinate, in decode_into's field order.
        # Every field lies below the modelled capacity, so masking
        # wraps out-of-range lines exactly as Organization.decode does.
        layout = organization._layout
        (self._ch, self._ra, self._ba, self._ro, self._co) = (
            layout[name] for name in
            ("channel", "rank", "bank", "row", "column"))

    def decode(self, line_address: int) -> DecodedAddress:
        return self.org.decode(line_address)

    def encode(self, channel: int, rank: int, bank: int, row: int,
               column: int) -> int:
        return self.org.encode(channel, rank, bank, row, column)

    def decode_into(self, request) -> None:
        """Fill a request's channel/rank/bank/row/column fields."""
        line = request.line_address
        shift, mask = self._ch
        request.channel = (line >> shift) & mask
        shift, mask = self._ra
        request.rank = (line >> shift) & mask
        shift, mask = self._ba
        request.bank = (line >> shift) & mask
        shift, mask = self._ro
        request.row = (line >> shift) & mask
        shift, mask = self._co
        request.column = (line >> shift) & mask

    # ------------------------------------------------------------------
    # Locality helpers (used by synthetic workloads and tests)
    # ------------------------------------------------------------------

    def same_row(self, a: int, b: int) -> bool:
        da, db = self.org.decode(a), self.org.decode(b)
        return (da.channel, da.rank, da.bank, da.row) == \
               (db.channel, db.rank, db.bank, db.row)

    def same_bank(self, a: int, b: int) -> bool:
        da, db = self.org.decode(a), self.org.decode(b)
        return (da.channel, da.rank, da.bank) == (db.channel, db.rank, db.bank)

    def row_conflict_pair(self, channel: int = 0, rank: int = 0,
                          bank: int = 0) -> Tuple[int, int]:
        """Two addresses in the same bank but different rows."""
        a = self.encode(channel, rank, bank, row=0, column=0)
        b = self.encode(channel, rank, bank, row=1, column=0)
        return a, b

    def row_walk(self, channel: int, rank: int, bank: int, row: int):
        """Generator over all column addresses of one row."""
        for col in range(self.org.columns):
            yield self.encode(channel, rank, bank, row, col)

    @property
    def lines_per_row(self) -> int:
        return self.org.columns
