"""Record the benchmark's frozen data from the program as it stands.

    python3 perfbench/record_golden.py

writes ``perfbench/data/catalog.json`` (the built-in and harvestable catalogs
as DSL strings) and ``perfbench/data/cli_golden.json`` (stdout bytes and exit
code of every cli-cold invocation, with its median wall time over three
runs, which the workload uses only to order its cases by cost).  The checked-in files were recorded at
the commit that introduced the benchmark; re-recording them at a later
commit would let a behaviour change pass unnoticed, so do it only when an
output change is intended.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
TIMING_RUNS = 3

TREES = [
    "b()",
    "b(2:b(1:b()))",
    "b(1:b(),2:b())",
    "b(0:w(1:b(),1:b()))",
    "b(2:w(1:b(),1:w(1:b(),2:b())))",
    "b(0:w(1:w(1:b(),1:b()),2:b(),2:b()))",
]
HARVESTABLE = ["b(2:b(1:b()))", "b(1:w(1:b(),2:b()))", "b(2:w(1:b(),1:w(1:b(),2:b())))", "b(1:b(0:w(1:b(),1:b())))"]
INDICES = ["", "1", "1,2", "2,1,1", "3,1"]
VERIFY = [
    ["--suite", "vanish"],
    ["--suite", "btt", "--weight-max", "2"],
    ["--suite", "btt", "--weight-max", "3"],
    ["--suite", "t-btt", "--weight-max", "2", "--t-order", "3"],
    ["--suite", "t-btt", "--weight-max", "3", "--t-order", "2"],
    ["--suite", "kaneko", "--weight-max", "3", "--t-order", "2"],
    ["--suite", "assoc", "--count", "5", "--seed", "3"],
    ["--suite", "assoc", "--count", "3", "--seed", "7"],
    ["--suite", "algebra", "--weight-max", "2", "-M", "3", "--count", "5"],
    ["--suite", "harvest", "-M", "2", "--t-order", "2"],
]
ERRORS = [
    (["verify", "--suite", "nope"], {}),
    (["zeta", "--index", "0", "-M", "3"], {}),
    (["zeta", "--index", "1,a", "-M", "3"], {}),
    (["zeta", "--index", "1", "-M", "-1"], {}),
    (["zeta", "-M", "3"], {}),
    (["w", "--tree", "b(1:b(),1:b())"], {}),
    (["w", "--tree", "b(1:b()"], {}),
    (["harvest", "--tree", "b(0:b())"], {}),
    (["cap-phi", "--tree", "w()"], {}),
    (["zeta-tree", "--tree", "b(1:w())", "-M", "3"], {}),
    (["phi-hat", "--index", "1", "--t-order", "0"], {}),
    (["phi-hat", "--index", "1"], {"ZF_T_ORDER": "x"}),
    (["verify", "--suite", "main", "--t-order", "0"], {}),
]


def invocations() -> list:
    """(argv, extra environment) pairs covering every subcommand in text and
    --json form, the cheap verify suites and exit-2 error paths.  The main
    and root-change suites are left out: even at -M 2 they take two to three
    times as long as the rest, so whether a short pass happened to include
    them would decide its 90th percentile."""
    both = []
    for index in INDICES:
        both.append((["phi", "--index", index], {}))
        both.append((["phi-hat", "--index", index, "--t-order", "3"], {}))
        both.append((["zeta", "--index", index, "-M", "6"], {}))
    for tree in TREES[:2]:
        both.append((["harvest", "--tree", tree], {}))
        both.append((["cap-phi", "--tree", tree], {}))
        both.append((["cap-phi-hat", "--tree", tree, "--t-order", "2"], {}))
        both.append((["zeta-tree", "--tree", tree, "-M", "5"], {}))
        both.append((["zeta-shat", "--tree", tree, "-M", "4", "--t-order", "3"], {}))
    for tree in HARVESTABLE[:2]:
        both.append((["w", "--tree", tree], {}))
    for args in VERIFY:
        both.append((["verify", *args], {}))
    text_only = [(["phi-hat", "--index", index], {"ZF_T_ORDER": "2"}) for index in INDICES[1:4]]
    for tree in TREES[2:]:
        text_only.append((["harvest", "--tree", tree], {}))
        text_only.append((["cap-phi", "--tree", tree], {}))
        text_only.append((["cap-phi-hat", "--tree", tree, "--t-order", "2"], {}))
        text_only.append((["zeta-tree", "--tree", tree, "-M", "5"], {}))
        text_only.append((["zeta-shat", "--tree", tree, "-M", "4", "--t-order", "3"], {}))
    text_only += [(["w", "--tree", tree], {}) for tree in HARVESTABLE[2:]]
    return both + [(argv + ["--json"], env) for argv, env in both] + text_only + ERRORS


def main() -> int:
    from zetaforest.catalog import builtin_catalog, harvestable_catalog

    data = os.path.join(HERE, "data")
    os.makedirs(data, exist_ok=True)
    catalog = {
        "builtin": [t.key for t in builtin_catalog()],
        "harvestable": [t.key for t in harvestable_catalog()],
    }
    with open(os.path.join(data, "catalog.json"), "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=1)
        fh.write("\n")
    env = {k: v for k, v in os.environ.items() if k != "ZF_T_ORDER"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    golden = []
    for argv, extra in invocations():
        runs = []
        for _ in range(TIMING_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "zetaforest", *argv],
                env={**env, **extra}, cwd=ROOT, capture_output=True, timeout=120,
            )
            runs.append(((time.perf_counter() - t0) * 1000, proc))
        outputs = {(p.returncode, p.stdout) for _, p in runs}
        if len(outputs) != 1:
            raise SystemExit(f"output of {argv} differs between runs")
        golden.append({
            "argv": argv, "env": extra, "exit": proc.returncode, "stdout": proc.stdout.decode("utf-8"),
            "recorded_ms": round(statistics.median(ms for ms, _ in runs), 1),
        })
    with open(os.path.join(data, "cli_golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"{len(golden)} invocations recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
