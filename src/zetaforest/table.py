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
walk that serves every cap up to its own, reads with `TABLE.getter(kind)`
and stores with `TABLE.put`.
"""

from __future__ import annotations

from sys import getsizeof
from typing import NamedTuple

from .rationals import Rat

# the one cache size: the bytes `TABLE` may hold, 2^27 (128 MiB)
BUDGET = 1 << 27

_ATOMS = frozenset({int, str, float, bool, bytes, type(None)})
_CONTAINERS = frozenset({tuple, list, set, frozenset})
_RAT_SIZE = getsizeof(Rat(0))  # the same for every Rat: two slots, no dict
_SLOTS: dict[type, tuple] = {}  # slot names by type, over its whole __mro__, found once per type


def charge(*objs) -> int:
    """The bytes that `objs` hold: ``sys.getsizeof`` of each distinct object
    reachable from them through containers, dicts, instance dicts and slots,
    each counted once.  One walk with a stack, so depth costs no recursion.
    An atom (an int, a str, ...) holds no other object and is not tracked
    by the garbage collector, so its ``__sizeof__()`` is its getsizeof, read
    as it is met, and only containers go on the stack.  A ``Rat`` met
    inside one is charged there too: its fixed size and its two ints, read
    directly and not looked up among the objects seen, so an int that two
    ``Rat``s share (as x and -x share a denominator) is counted for each,
    which only raises the charge.  Any other type's slots are looked up
    once."""
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
            names = _SLOTS.get(kind)
            if names is None:
                names = _SLOTS[kind] = tuple(name for cls in kind.__mro__
                                             for name in cls.__dict__.get("__slots__", ()))
            children = [getattr(obj, name) for name in names if hasattr(obj, name)]
            if hasattr(obj, "__dict__"):
                children.append(obj.__dict__)
        for child in children:
            kind = type(child)
            if kind in _ATOMS:
                if id(child) not in seen:
                    seen.add(id(child))
                    total += child.__sizeof__()
            elif kind is Rat:
                if id(child) not in seen:
                    seen.add(id(child))
                    total += _RAT_SIZE + child._numerator.__sizeof__() + child._denominator.__sizeof__()
            else:
                todo.append(child)
    return total


class KindInfo(NamedTuple):
    hits: int  # lookups read from a stored value
    misses: int  # values built and offered to the table
    entries: int
    bytes: int  # charged to the stored entries


class BoundedTable:
    """Values by (kind, key), each stored as (value, charge), oldest first.

    A caller reads with a `getter`; when it finds no value, or one that does
    not serve its call, it builds one and stores it with `put`.  So each
    `put` is a miss, and every other lookup a hit.  No value is None.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: dict = {}
        self.counts: dict[str, list] = {}  # kind -> [lookups, misses]
        self.bytes = 0  # the sum of the charges

    def clear(self) -> None:
        """Empty the table and zero its counts, in place: `memo` and every
        getter keep both."""
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

    def getter(self, kind: str):
        """The reader of `kind`: a function of a key that gives the value
        stored under (kind, key), or None.  It counts a lookup in the
        kind's one list, as `memo`'s hit does, with no call to find it."""
        counts, entries = self.counter(kind), self.entries

        def get(key):
            counts[0] += 1
            entry = entries.get((kind, key))
            return None if entry is None else entry[0]

        return get

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
