"""One pass of one workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS MIN_CASES LIMIT OUT

MODE is ``setup`` (import and build the inputs, then stop), ``plain`` (the
timed pass), ``traced`` (the same cases with spans, written to OUT) or
``profile`` (the timed pass under cProfile, top 20 by self time written to
OUT).  A pass cycles through the case list until SECONDS have passed and at
least MIN_CASES ran, or, when LIMIT > 0, for exactly LIMIT cases.  The last
line of stdout is a JSON summary.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from itertools import cycle
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
KEPT_FAILURES = 5
PROFILE_TOP = 20
REFERENCE_TERMS = 300
REFERENCE_EVERY_S = 0.25
SETUP_REFERENCES = 5


def reference() -> None:
    """Fixed pure-Python work (Fraction arithmetic, dicts, strings) whose run
    time tracks the speed the machine is giving this process right now."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, REFERENCE_TERMS):
        acc += Fraction(i % 7 + 1, i * i + 1)
        seen["k%d" % i] = acc.numerator % 97
    sorted(seen.values())


def time_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def run_pass(cases, T, seconds: float, min_cases: int, limit: int) -> dict:
    """Run cases in order, cycling; a check that raises counts as failed.

    Every REFERENCE_EVERY_S the reference work is timed between two cases,
    so that run.py can scale each case time to a fixed machine speed.
    """
    times, starts, refs, failures = [], [], [], []
    start = perf_counter()
    next_ref = start
    for n, (label, check) in enumerate(cycle(cases)):
        if limit > 0 and n >= limit:
            break
        if limit <= 0 and n >= min_cases and perf_counter() - start >= seconds:
            break
        if perf_counter() >= next_ref:
            refs.append((perf_counter() - start, time_reference()))
            next_ref = perf_counter() + REFERENCE_EVERY_S
        t0 = perf_counter()
        try:
            detail = T.case(n, check)
        except Exception as exc:  # a crash in one case must not end the run
            detail = f"{type(exc).__name__}: {exc}"[:200]
        times.append(perf_counter() - t0)
        starts.append(t0 - start)
        if detail is not None:
            failures.append(f"{label}: {detail}")
    refs.append((perf_counter() - start, time_reference()))
    return {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:KEPT_FAILURES],
        "case_s": times,
        "case_start_s": starts,
        "reference_s": refs,
    }


def write_profile(prof, path: str) -> None:
    """Top functions by self time, plus the share of each source file; the
    share of fractions.py is the cost of Fraction arithmetic."""
    import pstats

    stats = pstats.Stats(prof)
    total = sum(row[2] for row in stats.stats.values()) or 1.0
    by_file: dict = {}
    for (filename, _, _), row in stats.stats.items():
        name = "<built-in>" if filename == "~" else os.path.basename(filename)
        by_file[name] = by_file.get(name, 0.0) + row[2]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"total self time {total:.3f} s\n\nself-time share by source file:\n")
        for name, t in sorted(by_file.items(), key=lambda kv: -kv[1])[:PROFILE_TOP]:
            fh.write(f"  {t / total:7.2%}  {t:8.3f} s  {name}\n")
        fh.write(f"\nFraction arithmetic (fractions.py): {by_file.get('fractions.py', 0.0) / total:.2%}\n\n")
        stats.stream = fh
        stats.sort_stats("tottime").print_stats(PROFILE_TOP)


def main(argv) -> int:
    mode, workload, seed, seconds, min_cases, limit, out = argv
    seed, seconds, min_cases, limit = int(seed), float(seconds), int(min_cases), int(limit)
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    from spans import NullTracer, Tracer

    setup_reference = statistics.median(time_reference() for _ in range(SETUP_REFERENCES))
    t0 = perf_counter()
    module = importlib.import_module(workload.replace("-", "_"))
    cases = module.setup(seed)
    result = {"setup_s": perf_counter() - t0, "setup_reference_s": setup_reference}
    if mode != "setup":
        T = Tracer() if mode == "traced" else NullTracer()
        if mode == "profile":
            import cProfile

            prof = cProfile.Profile()
            prof.enable()
            result.update(run_pass(cases, T, seconds, min_cases, limit))
            prof.disable()
            write_profile(prof, out)
        else:
            result.update(run_pass(cases, T, seconds, min_cases, limit))
        if mode == "traced":
            T.write(out)
        who = getattr(module, "RSS_WHO", resource.RUSAGE_SELF)
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        if mode == "traced" and hasattr(module, "overlimit"):
            result["overlimit"] = module.overlimit()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
