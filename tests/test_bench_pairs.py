"""The summary of ``tools/bench_pairs.py`` on canned benchmark result lines:
per-side statistics, paired wins, the bound test and the claim rule."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def result_line(tail_ms: float, ops: float, failed: int = 0) -> dict:
    """A benchmark result line: ``op_tail_ms`` and ``ops_per_s`` as given,
    every other end-to-end metric 1."""
    values = dict.fromkeys(METRICS, 1.0) | {"op_tail_ms": tail_ms, "ops_per_s": ops}
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


def records(workload: str, parent: list, change: list) -> list:
    """Run records of alternating 35-s pairs: (tail, ops) or (tail, ops,
    failed) per side and pair."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        first = bench_pairs.first_side(pair)
        for side in (first, "change" if first == "parent" else "parent"):
            out.append({"workload": workload, "seed": 7, "pair": pair, "side": side,
                        "seconds": 35, "commit": "abc1234" if side == "parent" else None,
                        "result": result_line(*(p if side == "parent" else c))})
    return out


def test_metric_summary_reads_quartiles_wins_and_bounds():
    parent_tail = [3.0, 2.9, 3.1, 3.0, 3.2, 2.8, 3.0, 3.1, 2.9, 3.0]
    change_tail = [2.5, 2.6, 2.4, 2.5, 3.3, 2.5, 2.6, 2.4, 2.5, 3.0]  # a loss, a tie
    ops = [100.0] * 10
    summary = bench_pairs.summarize(
        records("sweep-small", list(zip(parent_tail, ops)),
                list(zip(change_tail, [50.0] * 10))),
        BENCHMARK, ("sweep-small", "op_tail_ms"))
    w = summary["workloads"]["sweep-small"]
    assert w["pairs"] == 10 and w["seed"] == 7
    assert w["first_side"] == ["parent", "change"] * 5
    assert w["attempted_ops"] == {"parent": 1000, "change": 1000}
    assert w["failed_ops"] == {"parent": 0, "change": 0}
    assert w["correct"] == {"parent": True, "change": True}
    assert list(w["metrics"]) == METRICS
    tail = w["metrics"]["op_tail_ms"]
    q1, med, q3 = np.percentile(parent_tail, [25, 50, 75])
    change_med = np.percentile(change_tail, 50)
    assert (tail["parent"]["q1"], tail["parent"]["median"], tail["parent"]["q3"]) == (q1, med, q3)
    assert tail["parent"]["runs"] == parent_tail
    assert tail["change_wins"] == 8  # ties count for neither side
    assert tail["median_ratio"] == change_med / med
    assert tail["parent_iqr"] == q3 - q1
    assert tail["within_bound"] and tail["bound"] == 0.25
    # ops/s is better higher: halving it loses every pair and breaks its bound
    ops_m = w["metrics"]["ops_per_s"]
    assert (ops_m["change_wins"], ops_m["median_ratio"], ops_m["within_bound"]) == (0, 0.5, False)
    assert summary["claim"] == {
        "metric": "op_tail_ms", "workload": "sweep-small", "rule": bench_pairs.RULE,
        "wins": 8, "pairs": 10, "parent_median": med,
        "change_median": change_med, "median_gap": med - change_med, "parent_iqr": q3 - q1,
        "met": False}


PARENT_TAIL = [3.0, 3.1, 2.9, 3.2, 2.8, 3.0, 3.1, 2.9, 3.0, 3.0]  # median 3, IQR 0.15


@pytest.mark.parametrize("change_tail, failed, pairs, met", [
    ([2.5] * 9 + [3.5], [0] * 10, 10, True),  # 9 of 10 and a gap of 0.5
    ([2.5] * 8 + [3.5] * 2, [0] * 10, 10, False),  # 8 of 10
    ([t - 0.05 for t in PARENT_TAIL], [0] * 10, 10, False),  # 10 of 10, a gap of 0.05
    ([2.5] * 6, [0] * 6, 6, False),  # 6 of 6: too few pairs
    ([2.5] * 10, [0] * 9 + [1], 10, False),  # the change fails an op the parent does not
])
def test_claim_needs_nine_of_ten_and_a_gap_beyond_the_iqr(change_tail, failed, pairs, met):
    recs = records("sweep-small", [(t, 1.0) for t in PARENT_TAIL[:pairs]],
                   [(t, 1.0, f) for t, f in zip(change_tail, failed)])
    # every line reads correct, so the failed-op count alone decides
    recs = [dict(r, result=dict(r["result"], correct=True)) for r in recs]
    summary = bench_pairs.summarize(recs, BENCHMARK, ("sweep-small", "op_tail_ms"))
    assert summary["claim"]["pairs"] == pairs
    assert summary["claim"]["met"] is met


def test_claim_needs_both_sides_correct():
    recs = records("sweep-small", [(t, 1.0) for t in PARENT_TAIL], [(2.5, 1.0)] * 10)
    assert bench_pairs.summarize(recs, BENCHMARK, ("sweep-small", "op_tail_ms"))["claim"]["met"]
    for side in ("parent", "change"):
        wrong = [dict(r, result=dict(r["result"], correct=r["side"] != side)) for r in recs]
        summary = bench_pairs.summarize(wrong, BENCHMARK, ("sweep-small", "op_tail_ms"))
        assert summary["claim"]["met"] is False


def test_method_reads_the_run_length_from_the_records():
    recs = records("dsl-run", [(1.0, 1.0)] * 2, [(1.0, 1.0)] * 2)
    assert "--seconds 35 " in bench_pairs.method(recs)
    assert "--seconds 20 " in bench_pairs.method([dict(r, seconds=20) for r in recs])
    recs[0]["seconds"] = 20
    with pytest.raises(ValueError, match="differing lengths"):
        bench_pairs.method(recs)


def test_failed_ops_and_missing_sides_are_reported():
    recs = records("dsl-run", [(1.0, 1.0)] * 2, [(1.0, 1.0)] * 2)
    recs[-1]["result"] = result_line(1.0, 1.0, failed=3)
    summary = bench_pairs.summarize(recs, BENCHMARK, None)
    assert "claim" not in summary
    w = summary["workloads"]["dsl-run"]
    side = recs[-1]["side"]
    assert w["failed_ops"][side] == 3 and w["correct"][side] is False
    with pytest.raises(ValueError, match="pairs without both sides"):
        bench_pairs.summarize(recs[:-1], BENCHMARK, None)


def test_trees_must_hold_the_same_benchmark_files(tmp_path):
    for tree in ("a", "b"):
        (tmp_path / tree / "perfbench").mkdir(parents=True)
        (tmp_path / tree / "perfbench" / "run.py").write_text("x = 1\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert bench_pairs.perfbench_differs(a, b) == []
    (b / "perfbench" / "run.py").write_text("x = 2\n")
    (a / "perfbench" / "spans.py").write_text("")
    assert bench_pairs.perfbench_differs(a, b) == ["perfbench/run.py", "perfbench/spans.py"]


def test_commit_is_read_only_from_a_checkout_top(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    assert bench_pairs.commit(tmp_path) is None
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "c"], check=True)
    head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.commit(tmp_path.resolve()) == head
    (tmp_path / "sub").mkdir()
    assert bench_pairs.commit((tmp_path / "sub").resolve()) is None
