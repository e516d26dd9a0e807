"""zetaforest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every pass runs in a fresh interpreter (worker.py), so the lru_caches start
cold as they do for a user's command.

--trace 0 measures the end-to-end metrics over five timed passes of S/5
seconds each (at least 100 cases in all); see end_to_end for how the passes
are combined.

--trace 1 measures the per-layer metrics: an untraced pass of 0.4 S (at
least 100 cases), the same cases again with spans around every call the
benchmark makes into zetaforest, and a cProfile pass of 0.2 S.  Spans, the per-layer summary and
the profile are written to .perfbench/ in the checkout.

The last line of stdout is the JSON result; notes go to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("oracle-sweep", "word-algebra", "tree-rewrite", "cli-cold")
MIN_CASES = 100
PASSES = 5
PROBE_RUNS = 5
WORKER_TIMEOUT_S = 150
REFERENCE_NOMINAL_S = 0.0012  # reference work, uncontended, on the 2-core CPython 3.11.7 machine of baseline.json
REFERENCE_WINDOW_S = 1.0
TRACE_PLAIN_SHARE = 0.4
TRACE_PROFILE_SHARE = 0.2

LAYERS = ("zeta", "symmetrize", "words", "series", "trees", "verify", "cli")
FUNCTIONS = (
    "zeta.zeta_index",
    "zeta.zeta_tree",
    "zeta.zeta_shat_tree",
    "zeta.z_m_eval",
    "zeta.z_shat",
    "symmetrize.phi_hat",
    "symmetrize.phi",
    "words.shuffle",
    "words.harmonic",
    "trees.parse_tree",
    "trees.key",
    "trees.tree_to_json",
    "trees.harvestable_form",
    "trees.is_harvestable",
    "trees.circ_h",
    "trees.cap_phi_hat",
    "trees.w_word",
    "trees.symmetrization_terms",
    "verify.kaneko_rhs",
    "verify.t_btt_rhs",
    "verify.btt_rhs",
    "verify.main_rhs",
    "verify.diagram_rhs",
)


def worker(mode, workload, seed, seconds=0.0, min_cases=MIN_CASES, limit=0, out="-") -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), repr(seconds),
           str(min_cases), str(limit), out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def report(result: dict) -> None:
    """Print a pass's failed cases and over-limit probe results to stderr."""
    for line in result.get("failures", []):
        print(f"FAIL {line}", file=sys.stderr)
    for label, detail in result.get("overlimit", []):
        print(f"over-limit {label}: {'ok' if detail is None else detail}", file=sys.stderr)


def scaled_case_times(p: dict) -> list:
    """Case times of one pass scaled to the reference machine speed: each is
    multiplied by REFERENCE_NOMINAL_S over the median reference time measured
    within REFERENCE_WINDOW_S of the case's start."""
    refs = p["reference_s"]
    at = [t for t, _ in refs]
    out = []
    for start, dt in zip(p["case_start_s"], p["case_s"]):
        lo = bisect.bisect_left(at, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(at, start + REFERENCE_WINDOW_S)
        window = [r for _, r in refs[lo:hi]] or [refs[min(lo, len(refs) - 1)][1]]
        out.append(dt * REFERENCE_NOMINAL_S / statistics.median(window))
    return out


def end_to_end(workload, seed, seconds, min_cases) -> tuple:
    """PASSES timed passes of seconds / PASSES each, every one in a fresh
    interpreter and preceded by a set-up-only interpreter.

    Other tenants of the machine slow it down in bursts of seconds, by up to
    half.  The worker times a fixed piece of reference work every quarter
    second, and every case time, and each set-up time, is scaled to the
    speed at which the reference work takes REFERENCE_NOMINAL_S.  Throughput
    is taken per pass and the median over the passes is reported; the
    percentiles are over the scaled times of all cases of all passes (at
    least min_cases, so that ten or more lie beyond the 90th); set-up time
    is the median of the ten interpreters, peak RSS the median over the
    passes.
    """
    setups, passes = [], []
    for _ in range(PASSES):
        setups.append(worker("setup", workload, seed))
        passes.append(worker("plain", workload, seed, seconds / PASSES, -(-min_cases // PASSES)))
        setups.append(passes[-1])
        report(passes[-1])
    scaled = [scaled_case_times(p) for p in passes]
    pooled_ms = [t * 1000 for ts in scaled for t in ts]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": metric(statistics.median(
            r["setup_s"] * REFERENCE_NOMINAL_S / r["setup_reference_s"] for r in setups), "s"),
        "cases_per_s": metric(statistics.median(len(ts) / sum(ts) for ts in scaled), "1/s"),
        "case_ms.p50": metric(statistics.median(pooled_ms), "ms"),
        "case_ms.p90": metric(statistics.quantiles(pooled_ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        "ok_ratio": metric(1 - failed / attempted, "ratio"),
    }
    raw_rate = statistics.median(p["attempted"] / sum(p["case_s"]) for p in passes)
    print(f"{workload}: {attempted} cases in {PASSES} passes; unscaled cases_per_s {raw_rate:.4g}", file=sys.stderr)
    return attempted, failed, metrics


def fresh_python(code: str) -> tuple:
    """Run `python -c code` in a fresh interpreter that imports from src/;
    return its wall time in ms and its stdout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60)
    return (time.perf_counter() - t0) * 1000, proc.stdout


def interp_ms() -> float:
    """Median wall time of a bare interpreter (`python -c pass`): the control."""
    return statistics.median(fresh_python("pass")[0] for _ in range(PROBE_RUNS))


def import_ms() -> float:
    """Median in-process time of `import zetaforest.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import zetaforest.cli; print((time.perf_counter() - t) * 1000)"
    return statistics.median(float(fresh_python(code)[1]) for _ in range(PROBE_RUNS))


def per_layer(workload, seed, seconds, min_cases) -> tuple:
    from spans import read_spans, self_times

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    plain = worker("plain", workload, seed, seconds * TRACE_PLAIN_SHARE, min_cases)
    traced = worker("traced", workload, seed, limit=plain["attempted"], out=stem + ".spans.tsv")
    report(traced)
    if workload != "cli-cold":  # the work of cli-cold happens in child processes
        worker("profile", workload, seed, seconds * TRACE_PROFILE_SHARE, 1, out=stem + ".profile.txt")
    by_name = self_times(read_spans(stem + ".spans.tsv"))
    pass_s = sum(traced["case_s"])
    layers = {}
    for name, (self_s, calls) in by_name.items():
        acc = layers.setdefault(name.split(".", 1)[0], [0.0, 0])
        acc[0] += self_s
        acc[1] += calls
    metrics = {}
    for layer in LAYERS:
        self_s, calls = layers.get(layer, (0.0, 0))
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.share"] = metric(self_s / pass_s, "ratio")
        metrics[f"{layer}.calls"] = metric(calls, "count")
    for name in FUNCTIONS:
        self_s, calls = by_name.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = metric(self_s, "s")
        metrics[f"{name}.calls"] = metric(calls, "count")
    overhead = sum(scaled_case_times(traced)) / sum(scaled_case_times(plain)) - 1
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    metrics["cli.import_ms"] = metric(import_ms(), "ms")
    metrics["cli.interp_ms"] = metric(interp_ms(), "ms")
    overlimit = traced.get("overlimit", [])
    metrics["trees.overlimit_failed"] = metric(sum(d is not None for _, d in overlimit), "count")
    summary = {
        "pass_s": pass_s,
        "layers": {k: {"self_s": v[0], "share": v[0] / pass_s, "calls": v[1]} for k, v in sorted(layers.items())},
        "spans": {k: {"self_s": v[0], "calls": v[1]} for k, v in sorted(by_name.items())},
    }
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    attempted = plain["attempted"] + traced["attempted"]
    return attempted, plain["failed"] + traced["failed"], metrics


def measure(workload, seed, seconds, trace, min_cases=MIN_CASES) -> dict:
    attempted, failed, metrics = (per_layer if trace else end_to_end)(workload, seed, seconds, min_cases)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "zetaforest", "__init__.py")):
        print(f"error: no zetaforest sources under {ROOT}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from zetaforest.rationals import Rat

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"rat={Rat.__module__}.{Rat.__name__}", file=sys.stderr)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
