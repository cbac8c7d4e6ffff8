"""Smoke test of the benchmark at tiny sizes (a few seconds in all).

    python3 perfbench/smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit, that an op whose expected output is corrupted counts
as failed, that one seed always yields one input fingerprint, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import run

run.import_ctcsim()
import workloads  # noqa: E402  (needs ctcsim on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload, trace, seed=1):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.2", "--trace", str(trace)], tiny=True)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def workdir():
    run.SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.SCRATCH, prefix="smoke-")


def one_pass(ops):
    with contextlib.redirect_stderr(io.StringIO()):
        return run.Passes(ops, 0, run.HostSpeed())


class MetricsPrinted(unittest.TestCase):
    def test_workloads_match_the_benchmark_file(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_metric_is_printed_with_its_unit(self):
        for w in BENCH["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, detail = run_tiny(w["name"], trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[key]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for v in result["metrics"].values():
                        self.assertTrue(math.isfinite(v["value"]))
                    self.assertIn("sha256", detail["inputs"])
                    self.assertIn("blas_threads", detail["machine"])


class CorruptedOpFails(unittest.TestCase):
    def test_clone_with_wrong_expected_output(self):
        with workdir() as tmp:
            ops = workloads.clone_large(3, Path(tmp), tiny=True)
            side = ops[0].expected.shape[0]
            ops[0].expected = np.eye(side) / side
            passes = one_pass(ops)
        self.assertEqual((passes.attempted, passes.failed), (len(ops), 1))

    def test_dsl_cloner_with_wrong_expected_marginal(self):
        with workdir() as tmp:
            ops = workloads.dsl_run(3, Path(tmp), tiny=True)
            op = next(o for o in ops if o.expected is not None)
            op.expected = op.expected[::-1, ::-1].copy()
            passes = one_pass(ops)
        self.assertEqual((passes.attempted, passes.failed), (len(ops), 1))

    def test_sweep_report_with_infinity(self):
        # `sweep fidelity-props --trials 0` exits 0 with "ok": true but
        # writes Infinity, which is not JSON: the strict parse must fail it
        with workdir() as tmp:
            ops = workloads.sweep_small(3, Path(tmp), tiny=True)
            op = next(o for o in ops if getattr(o, "kind", "") == "fidelity-props")
            op.trials = 0
            passes = one_pass(ops)
        self.assertEqual((passes.attempted, passes.failed), (len(ops), 1))


class Fingerprint(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, generate in workloads.WORKLOADS.items():
            for tiny in (True, False):
                with self.subTest(workload=name, tiny=tiny):
                    prints = []
                    for seed in (5, 5, 6):
                        with workdir() as tmp:
                            prints.append(workloads.fingerprint(generate(seed, Path(tmp), tiny)))
                    self.assertEqual(prints[0], prints[1])
                    self.assertNotEqual(prints[0]["sha256"], prints[2]["sha256"])


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_files_alone_exit_nonzero_without_a_result(self):
        with workdir() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for f in Path(run.__file__).parent.glob("*.py"):
                shutil.copy(f, bench)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dsl-run", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
                env={"PATH": "/usr/bin:/bin"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
