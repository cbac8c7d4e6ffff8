#!/usr/bin/env python3
"""Run the benchmark in a parent tree and a change tree for alternating pairs
and summarize the end-to-end metrics per workload:

    python3 tools/bench_pairs.py PARENT CHANGE --pr 27 --claim sweep-small:op_tail_ms
        [--pairs 10] [--workload W=SEED ...] [--change TEXT] [--summarize]

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in the tree's own directory, with OPENBLAS_NUM_THREADS=1 and T
the ``run_seconds`` of ``BENCHMARK.json``. Pair i runs the two sides back to
back, the parent first on even i (counting from 0). One workload is
measured at a time. Every run's result line is written to
``BENCH_<pr>.runs.jsonl`` as it arrives, with the run length and the tree's
commit (``git rev-parse --short HEAD``, null outside a git checkout);
``--summarize`` reads that file back and writes the summary from its
records alone, without running anything.

The summary, ``BENCH_<pr>.json``, holds the machine and the method; per
workload and end-to-end metric of ``BENCHMARK.json`` the median, quartiles
and runs of each side, the pairs the change wins, the ratio of the medians,
the metric's bound and whether the ratio is within it, and the parent's
interquartile range; and the claim: over at least 10 pairs the change wins
at least 9 in 10, the median gap exceeds the parent's interquartile range,
and the change fails no more operations than the parent, both sides correct.

The benchmark itself is only run: nothing under ``perfbench/`` and no
``BENCHMARK.json`` is changed, and both trees must hold the same
``perfbench/*.py``. Exits 0, or 2 when those files differ or a run fails to
print a result.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10
RULE = (f"at least {MIN_PAIRS} pairs; the change wins at least 9 in 10 of them, the median "
        "gap exceeds the parent's interquartile range, and the change fails no more "
        "operations than the parent, with both sides correct")


def first_side(pair: int) -> str:
    return SIDES[pair % 2]


def commit(tree: Path) -> str | None:
    """The short commit id of the checkout whose top is ``tree``, or None."""
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel",
                           "--short", "HEAD"], capture_output=True, text=True)
    top, _, head = proc.stdout.strip().partition("\n")
    return head if proc.returncode == 0 and Path(top).resolve() == tree else None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(detail, result) of one benchmark run in ``tree``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def perfbench_differs(a: Path, b: Path) -> list:
    """The benchmark files (``perfbench/*.py``) that differ between two trees."""
    files = sorted({p.relative_to(t) for t in (a, b) for p in (t / "perfbench").glob("*.py")})
    return [str(f) for f in files
            if not ((a / f).is_file() and (b / f).is_file()
                    and filecmp.cmp(a / f, b / f, shallow=False))]


def stats(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": [round(v, 4) for v in values]}


def better(a: float, b: float, higher: bool) -> bool:
    """Whether ``a`` reads better than ``b``; ties read better for neither."""
    return a > b if higher else a < b


def summarize_metric(parent: list, change: list, spec: dict) -> dict:
    """One metric's summary from its paired runs (pair i is parent[i] and
    change[i]) and its ``BENCHMARK.json`` entry."""
    higher = spec["better"] == "higher"
    p, c = stats(parent), stats(change)
    ratio = c["median"] / p["median"] if p["median"] else math.nan
    within = ratio >= 1 - spec["bound"] if higher else ratio <= 1 + spec["bound"]
    return {"unit": spec["unit"], "better": spec["better"], "parent": p, "change": c,
            "change_wins": sum(better(b, a, higher) for a, b in zip(parent, change)),
            "median_ratio": ratio, "bound": spec["bound"], "within_bound": bool(within),
            "parent_iqr": p["q3"] - p["q1"]}


def summarize_workload(records: list, specs: list) -> dict:
    """A workload's summary from its run records, each a dict with ``pair``,
    ``side``, ``seed`` and ``result`` (the benchmark's result line)."""
    pairs = sorted({r["pair"] for r in records})
    by = {(r["pair"], r["side"]): r["result"] for r in records}
    missing = [(i, s) for i in pairs for s in SIDES if (i, s) not in by]
    if missing:
        raise ValueError(f"pairs without both sides: {missing}")
    out = {"pairs": len(pairs), "seed": records[0]["seed"],
           "first_side": [first_side(i) for i in pairs]}
    for key, name in (("failed", "failed_ops"), ("attempted", "attempted_ops")):
        out[name] = {s: sum(by[i, s][key] for i in pairs) for s in SIDES}
    out["correct"] = {s: all(by[i, s]["correct"] for i in pairs) for s in SIDES}
    out["metrics"] = {
        spec["name"]: summarize_metric(
            *[[by[i, s]["metrics"][spec["name"]]["value"] for i in pairs] for s in SIDES],
            spec)
        for spec in specs}
    return out


def claim(workloads: dict, workload: str, metric: str) -> dict:
    w = workloads[workload]
    m = w["metrics"][metric]
    pairs = w["pairs"]
    gap = m["parent"]["median"] - m["change"]["median"]
    if m["better"] == "higher":
        gap = -gap
    met = (pairs >= MIN_PAIRS and m["change_wins"] >= math.ceil(0.9 * pairs)
           and gap > m["parent_iqr"]
           and w["failed_ops"]["change"] <= w["failed_ops"]["parent"]
           and all(w["correct"].values()))
    return {"metric": metric, "workload": workload, "rule": RULE,
            "wins": m["change_wins"], "pairs": pairs,
            "parent_median": m["parent"]["median"], "change_median": m["change"]["median"],
            "median_gap": gap, "parent_iqr": m["parent_iqr"], "met": bool(met)}


def summarize(records: list, benchmark: dict, claimed: tuple | None) -> dict:
    """Per-workload summaries, in the order the records name the workloads,
    and the claim block when ``claimed`` is a (workload, metric) pair."""
    names = list(dict.fromkeys(r["workload"] for r in records))
    workloads = {w: summarize_workload([r for r in records if r["workload"] == w],
                                       benchmark["end_to_end"]) for w in names}
    out = {}
    if claimed:
        out["claim"] = claim(workloads, *claimed)
    out["workloads"] = workloads
    return out


def method(records: list) -> str:
    """The method text of a summary, from its run records."""
    lengths = {r["seconds"] for r in records}
    if len(lengths) != 1:
        raise ValueError(f"runs of differing lengths: {sorted(lengths)}")
    seconds = lengths.pop()
    seeds = ", ".join(f"{w} {s}" for w, s in
                      dict((r["workload"], r["seed"]) for r in records).items())
    return (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            "--trace 0, OPENBLAS_NUM_THREADS=1, run by tools/bench_pairs.py in a tree of "
            "the parent commit and a tree of the change with identical perfbench files; "
            f"one seed per workload ({seeds}), the two sides back to back with the first "
            "side alternating between pairs (parent first on even-numbered pairs, counting "
            "from 0); figures are the benchmark's scaled end-to-end metrics; median and "
            "quartiles are numpy linear-interpolation percentiles over the pairs; a win is "
            "a pair where the change reads better, ties count for neither side; one "
            "workload at a time")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=[], metavar="W=SEED",
                        help="a workload and its seed; default: every workload, seed 1")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--change", dest="change_text", default="",
                        help="one line on what the change does")
    parser.add_argument("--summarize", action="store_true",
                        help="write the summary from the runs file without running")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = dict(w.split("=", 1) for w in args.workload) or {
        w["name"]: "1" for w in benchmark["workloads"]}
    seeds = {w: int(s) for w, s in seeds.items()}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs_path = ROOT / f"BENCH_{args.pr}.runs.jsonl"
    seconds = benchmark["run_seconds"]
    if not args.summarize:
        differ = perfbench_differs(trees["parent"], trees["change"])
        if differ:
            print(f"error: the trees' benchmark files differ: {differ}", file=sys.stderr)
            return 2
        commits = {side: commit(tree) for side, tree in trees.items()}
        with open(runs_path, "w", encoding="utf-8") as log:
            for workload, seed in seeds.items():
                for pair in range(args.pairs):
                    first = first_side(pair)
                    for side in (first, SIDES[1 - SIDES.index(first)]):
                        try:
                            detail, result = run_once(trees[side], workload, seed,
                                                      seconds)
                        except RuntimeError as exc:
                            print(f"error: {exc}", file=sys.stderr)
                            return 2
                        record = {"workload": workload, "seed": seed, "pair": pair,
                                  "side": side, "seconds": seconds,
                                  "commit": commits[side], "machine": detail["machine"],
                                  "result": result}
                        log.write(json.dumps(record) + "\n")
                        log.flush()
                        print(f"{workload} pair {pair} {side} done", file=sys.stderr)
    records = [json.loads(line) for line in runs_path.read_text().splitlines() if line]
    machine = records[0]["machine"]
    machine.pop("load_1min_at_start", None)
    parent_commits = {r["commit"] for r in records if r["side"] == "parent"}
    summary = {"change": args.change_text,
               "parent_commit": parent_commits.pop() if len(parent_commits) == 1 else None,
               "machine": machine, "method": method(records)}
    summary.update(summarize(records, benchmark,
                             tuple(args.claim.split(":")) if args.claim else None))
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
