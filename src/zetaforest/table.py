"""The package's one cache, bounded by the bytes it holds.

Every memo of the package lives in `TABLE`, one process-wide `BoundedTable`,
under a key (kind, key): a kind names what is stored, such as "walks" or
"word_products".  Each entry is charged the bytes its key and its value
hold, as ``sys.getsizeof`` counts them over their distinct objects, and the
charges never pass `BUDGET`: storing a value evicts the oldest entries
first, whatever their kind, and a value whose charge alone passes the
budget is not stored.  `info()` gives the hits, misses, entries and bytes
of each kind, and `clear()` empties the table.

`memo(kind)` makes a function of hashable arguments read its value from the
table and build it on a miss.  A caller with a rule of its own, such as a
walk that serves every cap up to its own, uses `TABLE.get` and `TABLE.put`.
"""

from __future__ import annotations

from sys import getsizeof
from typing import NamedTuple

# the one cache size: the bytes `TABLE` may hold, 2^27 (128 MiB)
BUDGET = 1 << 27

_ATOMS = frozenset({int, str, float, bool, bytes, type(None)})
_CONTAINERS = frozenset({tuple, list, set, frozenset})


def charge(*objs) -> int:
    """The bytes that `objs` hold: ``sys.getsizeof`` of each distinct object
    reachable from them through containers, dicts, instance dicts and slots,
    each counted once.  One walk with a stack, so depth costs no recursion.
    An atom (an int, a str, ...) holds no other object and is not tracked
    by the garbage collector, so its ``__sizeof__()`` is its getsizeof, read
    as it is met, and only containers go on the stack."""
    seen: set[int] = set()
    total = 0
    todo = list(objs)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += getsizeof(obj)
        kind = type(obj)
        if kind is dict:
            children = (*obj, *obj.values())
        elif kind in _CONTAINERS:
            children = obj
        elif kind in _ATOMS:
            continue
        else:
            children = [getattr(obj, name) for cls in kind.__mro__
                        for name in cls.__dict__.get("__slots__", ()) if hasattr(obj, name)]
            if hasattr(obj, "__dict__"):
                children.append(obj.__dict__)
        for child in children:
            if type(child) not in _ATOMS:
                todo.append(child)
            elif id(child) not in seen:
                seen.add(id(child))
                total += child.__sizeof__()
    return total


class KindInfo(NamedTuple):
    hits: int  # lookups read from a stored value
    misses: int  # values built and offered to the table
    entries: int
    bytes: int  # charged to the stored entries


class BoundedTable:
    """Values by (kind, key), each stored as (value, charge), oldest first.

    A caller reads with `get`; when it finds no value, or one that does not
    serve its call, it builds one and stores it with `put`.  So each `put`
    is a miss, and every other `get` a hit.  No value is None.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: dict = {}
        self.counts: dict[str, list] = {}  # kind -> [lookups, misses]
        self.bytes = 0  # the sum of the charges

    def clear(self) -> None:
        """Empty the table and zero its counts, in place: `memo` keeps both."""
        self.entries.clear()
        self.bytes = 0
        for counts in self.counts.values():
            counts[:] = [0, 0]

    def counter(self, kind: str) -> list:
        """[lookups, misses] of `kind`, one list for the life of the table."""
        return self.counts.setdefault(kind, [0, 0])

    def info(self) -> dict[str, KindInfo]:
        """`KindInfo` by kind, for every kind looked up or stored since the
        last `clear`."""
        held = {kind: [0, 0] for kind in self.counts}
        for (kind, _), (_, size) in self.entries.items():
            held[kind][0] += 1
            held[kind][1] += size
        return {kind: KindInfo(lookups - misses, misses, *held[kind])
                for kind, (lookups, misses) in sorted(self.counts.items()) if lookups or misses}

    def get(self, kind: str, key):
        """The value stored under (kind, key), or None."""
        self.counter(kind)[0] += 1
        entry = self.entries.get((kind, key))
        return None if entry is None else entry[0]

    def put(self, kind: str, key, value) -> None:
        """Store `value` under (kind, key), charged what the two hold, in
        place of any value there, evicting the oldest entries until the
        charges fit the budget; a value whose charge alone passes the budget
        is not stored."""
        self.counter(kind)[1] += 1
        key = (kind, key)
        size = charge(key, value)
        if size > self.budget:
            return
        old = self.entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        while self.bytes + size > self.budget:
            self.bytes -= self.entries.pop(next(iter(self.entries)))[1]
        self.entries[key] = (value, size)
        self.bytes += size


TABLE = BoundedTable(BUDGET)
info = TABLE.info
clear = TABLE.clear


def memo(kind: str):
    """Decorator: the function's value for its positional arguments, read
    from `TABLE` under (kind, arguments), or built and stored there.  A hit
    is `get` inlined, which saves a call on the hottest path."""
    counts, entries = TABLE.counter(kind), TABLE.entries

    def wrap(build):
        def cached(*args):
            counts[0] += 1
            entry = entries.get((kind, args))
            if entry is not None:
                return entry[0]
            value = build(*args)
            TABLE.put(kind, args, value)
            return value

        cached.__name__, cached.__doc__ = build.__name__, build.__doc__
        return cached

    return wrap
