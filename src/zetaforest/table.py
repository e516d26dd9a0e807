"""A process-wide cache bounded by what it holds.

`BoundedTable` keeps values by key, each charged an estimate of its size in
the table's own unit.  The charges never pass the budget: storing a value
evicts the oldest entries first, and a value whose charge alone passes the
budget is not stored.  `info()` reads the hits, misses, entries and the
total charge, and `clear()` empties the table.  The oracle walks of `zeta`
and the symmetrization terms of `trees` each keep one, keyed by a tree's
fields rather than by the ``Tree``, whose cached maps a key would keep
alive.
"""

from __future__ import annotations

from typing import NamedTuple


class TableInfo(NamedTuple):
    hits: int  # calls read from a stored value
    misses: int  # calls that built their value
    entries: int
    charge: int  # charged to the stored entries, at most the budget


class BoundedTable:
    """Values by key, each stored as (value, charge), oldest first.

    A caller reads with `get`; when it finds no value, or one that does not
    serve its call, it builds one and stores it with `put`.  So each `put`
    is a miss, and every other `get` a hit.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.clear()

    def clear(self) -> None:
        self.entries: dict = {}
        self.charge = self.lookups = self.misses = 0

    def info(self) -> TableInfo:
        return TableInfo(self.lookups - self.misses, self.misses, len(self.entries), self.charge)

    def get(self, key):
        """The value stored under `key`, or None."""
        self.lookups += 1
        entry = self.entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key, value, charge: int) -> None:
        """Store `value` under `key`, charged `charge`, in place of any value
        there, evicting the oldest entries until the charges fit the budget;
        a value whose charge alone passes the budget is not stored."""
        self.misses += 1
        if charge > self.budget:
            return
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.charge -= entry[1]
        while self.charge + charge > self.budget:
            self.charge -= self.entries.pop(next(iter(self.entries)))[1]
        self.entries[key] = (value, charge)
        self.charge += charge
