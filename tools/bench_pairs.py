"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1-5 \
        --out BENCH_N.json

For every workload of the change's ``BENCHMARK.json`` and every seed, a pair
runs ``python3 perfbench/run.py --workload W --seed S --seconds T`` once from
the root of each checkout, T being the ``run_seconds`` of the change's
``BENCHMARK.json``, one run at a time; the side that goes first
alternates from seed to seed (the parent first on the first seed).  The
record names the machine, whether its interpreters write bytecode, and
both sides, and gives every pair's end-to-end metrics and, per metric,
both sides' medians and quartiles (inclusive method), the pairs the change
wins, and the change's median over the parent's against the metric's bound
in the change's ``BENCHMARK.json``.
The record is rewritten after every pair, so an interrupted run leaves the
pairs it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900
SIDES = ("parent", "change")


def parse_seeds(spec: str) -> list:
    """`1-5` or `1,3,7` (or a mix) as a list of seeds."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: attempted and failed cases and every metric's value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {"attempted": result["attempted"], "failed": result["failed"]}
    out.update((name, m["value"]) for name, m in result["metrics"].items())
    return out


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric of `end_to_end` (BENCHMARK.json entries): both sides'
    quartiles, the pairs each way, and the change's median over the
    parent's, positive `worse_by` meaning worse by that fraction.

    `meets_claim_rule` says whether a gain on the metric may be claimed: the
    change wins at least nine pairs in ten (a tie counts for neither side),
    and its median is better than the parent's by more than the parent's
    interquartile range."""
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p_q, c_q = quartiles(parent), quartiles(change)
        ratio = c_q["median"] / p_q["median"]
        worse_by = 1 - ratio if higher else ratio - 1
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        gain = c_q["median"] - p_q["median"] if higher else p_q["median"] - c_q["median"]
        out[name] = {
            "parent": p_q,
            "change": c_q,
            "change_better_pairs": wins,
            "ties": sum(c == p for p, c in zip(parent, change)),
            "median_change_over_parent": round(ratio, 4),
            "bound": spec["bound"],
            "worse_by": round(worse_by, 4),
            "within_bound": worse_by <= spec["bound"],
            "meets_claim_rule": 10 * wins >= 9 * len(pairs) and gain > p_q["q3"] - p_q["q1"],
        }
    return out


def side(checkout: Path) -> dict:
    """The checkout's commit, whether it has local changes, and a sha256 of
    the package sources as they were measured.  The commit and the dirty
    flag are None where git fails, as in a checkout that is not a git work
    tree, such as a `git archive` export."""
    def git(*args):
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "zetaforest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def machine(checkout: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    code = "from zetaforest.rationals import Rat; print(Rat.__module__ + '.' + Rat.__name__)"
    rat = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(checkout / "src")}).stdout.strip()
    # a run that writes no bytecode compiles every module it imports, and
    # the fresh interpreters of cli-cold inherit the setting
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "rat_backend": rat, "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-5 or 1,3,7")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "about": (f"Alternating parent/change pairs: each run `python3 perfbench/run.py "
                  f"--workload W --seed S --seconds {bench['run_seconds']}` from the root of its own "
                  f"checkout, one run at a time, written by tools/bench_pairs.py."),
        "machine": machine(checkouts["change"]),
        **{name: side(path) for name, path in checkouts.items()},
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for name in order:
                pair[name] = run_once(checkouts[name], workload, seed, bench["run_seconds"])
                print(f"{workload} seed {seed} {name}: cases_per_s {pair[name]['cases_per_s']:.4g}",
                      file=sys.stderr)
            pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs,
                                             "summary": summarize(pairs, bench["end_to_end"])}
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
