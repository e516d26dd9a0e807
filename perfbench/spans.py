"""In-memory spans around the benchmark's calls into the program.

A span is (name, start_ns, end_ns, parent, case).  Names are
``<module>.<function>``; the module is the layer.  Each case is one root span
named ``bench.case``; the calls a case makes into zetaforest are its
children.  Spans are kept in memory and written out once, at the end of the
traced pass; self times are derived from the written file.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    """Untraced passes: call straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def case(self, case_id, check):
        return check(self)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._case = -1

    def call(self, name, fn, *args):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self._case]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def case(self, case_id, check):
        self._case = case_id
        return self.call("bench.case", check, self)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcase\n")
            for rec in self.spans:
                fh.write("\t".join(map(str, rec)) + "\n")


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [(n, int(s), int(e), int(p), int(c)) for n, s, e, p, c in (line.rstrip("\n").split("\t") for line in fh)]


def self_times(spans: list) -> dict:
    """name -> [self seconds, calls]; self time is the span's duration minus
    the durations of its child spans."""
    child = [0] * len(spans)
    for _, s, e, p, _ in spans:
        if p >= 0:
            child[p] += e - s
    out: dict = defaultdict(lambda: [0.0, 0])
    for i, (name, s, e, _, _) in enumerate(spans):
        acc = out[name]
        acc[0] += (e - s - child[i]) / 1e9
        acc[1] += 1
    return dict(out)
