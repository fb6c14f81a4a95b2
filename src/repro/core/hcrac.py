"""Highly-Charged Row Address Cache (HCRAC).

A tag-only, set-associative cache of row addresses (paper Section 4.2).
The key is the (rank, bank, row) triple of a row within one channel.
The default organization matches Table 1: 128 entries, 2-way, LRU.

Two implementations:

* :class:`HCRAC` - the hardware-faithful fixed-capacity structure with
  way-stable storage (so the IIC/EC invalidation scheme can address
  entries linearly, exactly as in the paper).
* :class:`UnboundedHCRAC` - an idealised infinite-capacity variant used
  for the "unlimited size" reference lines in Figure 9; it evicts only
  by age.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class HCRAC:
    """Fixed-capacity set-associative tag store with LRU replacement."""

    def __init__(self, entries: int = 128, associativity: int = 2):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if entries % associativity:
            raise ValueError("entries must be divisible by associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("entries/associativity must be a power of two")
        # Way-stable flat storage, indexed set-major by
        # ``set * assoc + way`` (the IIC/EC entry numbering); a tag of
        # None marks an invalid way.
        self._tags: List[Optional[int]] = [None] * entries
        self._stamp: List[int] = [0] * entries
        self._use_counter = 0
        # Incremental valid-entry count, so ``len(table)`` is O(1).
        self._valid = 0
        # Statistics.
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------

    def _index(self, key: int) -> Tuple[int, int]:
        """(first flat entry of the key's set, tag)."""
        set_idx = key & (self.num_sets - 1)
        tag = key >> (self.num_sets.bit_length() - 1)
        return set_idx * self.associativity, tag

    def _find(self, base: int, tag: Optional[int]) -> int:
        """Flat entry holding ``tag`` in the set at ``base``, or -1."""
        tags = self._tags
        for entry in range(base, base + self.associativity):
            if tags[entry] == tag:
                return entry
        return -1

    def lookup(self, key: int, touch: bool = True) -> bool:
        """True if ``key`` is present; updates LRU state when ``touch``."""
        entry = self._find(*self._index(key))
        if entry < 0:
            return False
        if touch:
            self._use_counter += 1
            self._stamp[entry] = self._use_counter
        return True

    def insert(self, key: int) -> None:
        """Insert ``key``, evicting the LRU way of its set if needed."""
        base, tag = self._index(key)
        self._use_counter += 1
        # Hit: refresh the stamp (re-insertion of a cached row).
        entry = self._find(base, tag)
        if entry >= 0:
            self._stamp[entry] = self._use_counter
            return
        # Free way if available, else LRU eviction (the first way
        # holding the minimum stamp).
        entry = self._find(base, None)
        if entry < 0:
            entry = min(range(base, base + self.associativity),
                        key=self._stamp.__getitem__)
            self.evictions += 1
        else:
            self._valid += 1
        self._tags[entry] = tag
        self._stamp[entry] = self._use_counter
        self.insertions += 1

    def invalidate_entry(self, entry_index: int) -> bool:
        """Invalidate the physical entry ``entry_index`` (IIC/EC sweep).

        Entries are numbered set-major: ``entry = set * assoc + way``.
        Returns True if a valid entry was cleared.
        """
        if not 0 <= entry_index < self.entries:
            raise IndexError(f"entry {entry_index} out of range")
        if self._tags[entry_index] is None:
            return False
        self._tags[entry_index] = None
        self._valid -= 1
        self.invalidations += 1
        return True

    def invalidate_key(self, key: int) -> bool:
        """Invalidate a specific row address if present."""
        entry = self._find(*self._index(key))
        if entry < 0:
            return False
        self._tags[entry] = None
        self._valid -= 1
        self.invalidations += 1
        return True

    def clear(self) -> None:
        self._tags[:] = [None] * self.entries
        self._valid = 0

    # ------------------------------------------------------------------

    @property
    def valid_count(self) -> int:
        return self._valid

    def __contains__(self, key: int) -> bool:
        return self.lookup(key, touch=False)

    def __len__(self) -> int:
        return self.valid_count


class UnboundedHCRAC:
    """Infinite-capacity HCRAC: entries expire only by age.

    Models the "unlimited size" reference of Figure 9.  Each key stores
    its insertion cycle; a lookup at cycle ``c`` hits when the entry was
    inserted within the caching duration.
    """

    def __init__(self, duration_cycles: int):
        if duration_cycles < 1:
            raise ValueError("duration must be >= 1 cycle")
        self.duration_cycles = duration_cycles
        self._inserted_at: Dict[int, int] = {}
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0

    def insert(self, key: int, cycle: int) -> None:
        self._inserted_at[key] = cycle
        self.insertions += 1

    def lookup(self, key: int, cycle: int) -> bool:
        stamp = self._inserted_at.get(key)
        if stamp is None:
            return False
        if cycle - stamp > self.duration_cycles:
            # Lazy expiry: drop the stale entry.
            del self._inserted_at[key]
            self.invalidations += 1
            return False
        return True

    def __len__(self) -> int:
        return len(self._inserted_at)
