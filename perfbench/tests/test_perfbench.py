"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

from the root of a checkout.  They run every workload at a tiny size, so
they take some seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from spans import NullTracer, Tracer, read_spans, self_times  # noqa: E402
from worker import run_pass  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.measure(workload, seed=3, seconds=0.3, trace=trace, min_cases=10)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_wrong_expected_value_is_a_failed_case_not_a_crash():
    def ok(T):
        return None

    def wrong(T):
        got = T.call("words.len", len, "yx")
        return None if got == 3 else f"{got} != 3"

    def raises(T):
        return T.call("trees.boom", lambda: 1 / 0)

    cases = [("ok", ok), ("wrong", wrong), ("raises", raises)]
    for tracer in (NullTracer(), Tracer()):
        result = run_pass(cases, tracer, seconds=0, min_cases=0, limit=6)
        assert result["attempted"] == 6 and result["failed"] == 4
        assert result["failures"][0] == "wrong: 2 != 3"
        assert result["failures"][1].startswith("raises: ZeroDivisionError")


def test_wrong_golden_output_is_a_failed_cli_case():
    import cli_cold

    spec = {"argv": ["phi", "--index", "2"], "env": {}, "exit": 0, "stdout": "2*yx\n", "recorded_ms": 100.0}
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    specs = [spec, {**spec, "stdout": "3*yx\n"}, {**spec, "exit": 2}]
    cases = [cli_cold.invocation(s, env)[:2] for s in specs]
    result = run_pass(cases, NullTracer(), seconds=0, min_cases=0, limit=3)
    assert result["failed"] == 2
    assert "stdout differs" in result["failures"][0]
    assert "exit code 0, expected 2" in result["failures"][1]


def test_overlimit_probes_expect_the_right_answers():
    """With a raised recursion limit (in a child, never in the benchmark) the
    recursive encoders and parser succeed, so each probe's expected value is
    right and a probe fails only through the depth defect."""
    code = (
        "import sys; sys.setrecursionlimit(20000); sys.path[:0] = ['perfbench', 'src'];"
        "import tree_rewrite; print(tree_rewrite.overlimit())"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    labels = ["key chain/1500", "tree_to_json chain/1500", "parse_tree nest/1200"]
    assert proc.stdout.strip() == repr([(label, None) for label in labels])


def test_self_time_subtracts_child_spans(tmp_path):
    spans = [
        ("bench.case", 0, 100, -1, 0),
        ("zeta.zeta_tree", 10, 40, 0, 0),
        ("trees.key", 50, 60, 0, 0),
    ]
    path = tmp_path / "spans.tsv"
    tracer = Tracer()
    tracer.spans = [list(s) for s in spans]
    tracer.write(str(path))
    assert read_spans(str(path)) == spans
    times = self_times(spans)
    assert times["bench.case"][1] == 1 and abs(times["bench.case"][0] - 60e-9) < 1e-15
    assert abs(times["zeta.zeta_tree"][0] - 30e-9) < 1e-15


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word-algebra", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
