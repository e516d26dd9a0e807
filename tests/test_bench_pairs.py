import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "cases_per_s", "better": "higher", "bound": 0.25},
    {"name": "case_ms.p50", "better": "lower", "bound": 0.25},
]


def fake_pairs(parent_rates, change_rates):
    return [{"seed": i, "parent": {"cases_per_s": p, "case_ms.p50": 1000 / p},
             "change": {"cases_per_s": c, "case_ms.p50": 1000 / c}}
            for i, (p, c) in enumerate(zip(parent_rates, change_rates))]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-5") == [1, 2, 3, 4, 5]
    assert bench_pairs.parse_seeds("1,3,7-8") == [1, 3, 7, 8]


def test_summary_directions_and_bounds():
    pairs = fake_pairs([100, 102, 98, 100, 101], [80, 81, 79, 90, 70])
    summary = bench_pairs.summarize(pairs, END_TO_END)
    rate, p50 = summary["cases_per_s"], summary["case_ms.p50"]
    assert rate["parent"] == {"median": 100, "q1": 100, "q3": 101}
    assert rate["change_better_pairs"] == 0 and p50["change_better_pairs"] == 0
    assert rate["median_change_over_parent"] == 0.8
    assert (rate["worse_by"], p50["worse_by"]) == (0.2, 0.25)  # 1 - 80/100 and 12.5/10 - 1
    assert rate["within_bound"] and p50["within_bound"]
    slow = bench_pairs.summarize(fake_pairs([100] * 3, [60] * 3), END_TO_END)
    assert not slow["cases_per_s"]["within_bound"]
    one = bench_pairs.summarize(fake_pairs([100], [100]), END_TO_END)
    assert one["cases_per_s"]["ties"] == 1


def test_claim_rule_needs_nine_in_ten_and_more_than_the_parent_iqr():
    parent = [100, 104, 96, 100, 102, 98, 101, 99, 103, 97]  # median 100, IQR 98.25-101.75

    def claim(change):
        summary = bench_pairs.summarize(fake_pairs(parent, change), END_TO_END)
        return summary["cases_per_s"]["meets_claim_rule"], summary["case_ms.p50"]["meets_claim_rule"]

    assert claim([p + 10 for p in parent]) == (True, True)  # 10 wins, gain 10 > 3.5
    assert claim([p + 10 for p in parent[:9]] + [parent[9]]) == (True, True)  # 9 wins, a tie
    assert claim([p + 10 for p in parent[:8]] + parent[8:]) == (False, False)  # 8 wins, 2 ties
    assert claim([p + 10 for p in parent[:8]] + [p - 1 for p in parent[8:]]) == (False, False)
    assert claim([p + 3 for p in parent]) == (False, False)  # 10 wins, gain 3 < 3.5
    assert claim([p - 10 for p in parent]) == (False, False)  # a loss is no claim
    one = bench_pairs.summarize(fake_pairs([100], [200]), END_TO_END)
    assert one["cases_per_s"]["meets_claim_rule"]


FAKE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
seconds = float(sys.argv[sys.argv.index("--seconds") + 1])
rate = {rate} + seed
print("notes", file=sys.stderr)
print(json.dumps({{"correct": True, "attempted": int(seconds), "failed": 0, "metrics": {{
    "cases_per_s": {{"value": rate, "unit": "1/s"}},
    "case_ms.p50": {{"value": 1000 / rate, "unit": "ms"}}}}}}))
"""


def fake_checkout(root: Path, rate: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(rate=rate))
    (root / "src" / "zetaforest").mkdir(parents=True)
    (root / "src" / "zetaforest" / "rationals.py").write_text("from fractions import Fraction as Rat\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 25, "workloads": [{"name": "w1"}, {"name": "w2"}],
         "end_to_end": END_TO_END}))
    return root


def test_main_writes_alternating_pairs(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no git work tree above
    parent = fake_checkout(tmp_path / "parent", 100)
    change = fake_checkout(tmp_path / "change", 200)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seeds", "1-3",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["seeds"] == [1, 2, 3]
    assert record["machine"]["rat_backend"] == "fractions.Fraction"
    assert record["machine"]["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
    assert record["parent"]["src_sha256"] == record["change"]["src_sha256"]  # same sources
    for name in ("parent", "change"):  # the fake checkouts are not git work trees
        assert record[name]["commit"] is None and record[name]["dirty"] is None
    assert list(record["workloads"]) == ["w1", "w2"]
    pairs = record["workloads"]["w1"]["pairs"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    assert [p["parent"]["cases_per_s"] for p in pairs] == [101, 102, 103]
    assert pairs[0]["change"] == {"attempted": 25, "failed": 0, "cases_per_s": 201,
                                  "case_ms.p50": 1000 / 201}
    assert record["workloads"]["w2"]["summary"]["cases_per_s"]["change_better_pairs"] == 3
