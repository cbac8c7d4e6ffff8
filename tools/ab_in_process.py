#!/usr/bin/env python3
"""Time the clone-large ops of two trees in one process, alternating them:

    python3 tools/ab_in_process.py PARENT CHANGE --seed S --rounds R

Each tree's ``src/ctcsim`` is imported under its own package name
(``ctcsim_parent``, ``ctcsim_change``), and its ``perfbench/workloads.py``
is executed against that package to rebuild the clone-large ops of seed S:
the same inputs on both sides, built from each side's own types. Only that
file of ``perfbench/`` is read, and both trees must hold it byte for byte.

A round runs every op on both sides back to back: the parent first on even
rounds (counting from 0), the change first on odd ones. An op's time is the
time of the calls its ``execute`` makes through the benchmark's recorder
(the cloner build and ``run_clone``), as ``perfbench/run.py`` times it; its
own check is not timed but must pass. Every op's report and cloner are
asserted bit-identical between the sides. One untimed round warms both.

Prints one JSON document: per (kind, N) the median op time of each side
over every round and op of that class, in microseconds, and their ratio;
per side the median pass time (the sum over a round's ops); the pass ratio,
change over parent, of those medians; each round's ratio and the rounds the
change is faster. OPENBLAS_NUM_THREADS is set to 1. Exits 1 when the bits
differ or an op's check fails, 2 when the workloads files differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import filecmp
import importlib.util
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
WORKLOADS = Path("perfbench") / "workloads.py"


def import_tree(tree: Path, side: str):
    """``tree``'s ctcsim as the package ``ctcsim_<side>`` and its
    ``perfbench/workloads.py`` as a module importing that package."""
    name = f"ctcsim_{side}"
    src = tree / "src" / "ctcsim"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # while the workloads module runs its imports, ``ctcsim`` and its
    # submodules name this side's modules
    aliases = {"ctcsim" + key[len(name):]: module for key, module in list(sys.modules.items())
               if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules[key] for key in aliases if key in sys.modules}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{side}", tree / WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key in aliases:
            del sys.modules[key]
        sys.modules.update(saved)
    return workloads


class Recorder:
    """The recorder an op's ``execute`` calls through: times each call and
    keeps its result."""

    def __init__(self):
        self.seconds = 0.0
        self.last = None
        self.results = []

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.seconds += perf_counter() - t0
        self.results.append(out)
        return out


def bits(x):
    """The arrays and scalars that make up ``x``, as comparable values: a
    dataclass by its fields (and an attached ``factor``), an array by its
    dtype, shape and bytes, a float by its hex form."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        fields = [(f.name, bits(getattr(x, f.name))) for f in dataclasses.fields(x)]
        if "factor" in vars(x):
            fields.append(("factor", bits(vars(x)["factor"])))
        return (type(x).__name__, tuple(fields))
    if isinstance(x, (int, str, bool, np.integer, np.bool_)) or x is None:
        return repr(x)
    raise TypeError(f"no bit form for {type(x).__name__}")


def run(op, round_):
    """(seconds, bits) of one op on one side."""
    rec = Recorder()
    ok, _ = op.execute(rec, round_)
    if not ok:
        raise AssertionError(f"{op.attrs}: the op's check failed")
    return rec.seconds, bits(rec.results)


def measure(ops: dict, rounds: int) -> dict:
    """Per side and op, the op's time in each round; asserts the bits."""
    count = len(ops["parent"])
    times = {side: [[] for _ in range(count)] for side in SIDES}
    for round_ in range(-1, rounds):  # round -1 warms both sides, untimed
        order = SIDES if round_ % 2 == 0 else SIDES[::-1]
        for i in range(count):
            out = {side: run(ops[side][i], round_) for side in order}
            if out["parent"][1] != out["change"][1]:
                raise AssertionError(f"round {round_}, op {i} {ops['parent'][i].attrs}: "
                                     "the two sides' bits differ")
            if round_ >= 0:
                for side in SIDES:
                    times[side][i].append(out[side][0])
    return times


def summary(ops: list, times: dict, rounds: int) -> dict:
    classes = {}
    for i, op in enumerate(ops):
        classes.setdefault(f"{op.kind} N={op.n}", []).append(i)
    per_class = {}
    for key, members in sorted(classes.items()):
        med = {side: statistics.median(t for i in members for t in times[side][i]) * 1e6
               for side in SIDES}
        per_class[key] = {"ops_per_pass": len(members),
                          "parent_us": round(med["parent"], 1),
                          "change_us": round(med["change"], 1),
                          "ratio": round(med["change"] / med["parent"], 3)}
    passes = {side: [sum(t[r] for t in times[side]) for r in range(rounds)] for side in SIDES}
    medians = {side: statistics.median(passes[side]) for side in SIDES}
    ratios = [c / p for p, c in zip(passes["parent"], passes["change"])]
    return {"per_class": per_class,
            "pass_ms": {side: round(medians[side] * 1e3, 3) for side in SIDES},
            "pass_ratio": round(medians["change"] / medians["parent"], 4),
            "round_ratios": {"median": round(statistics.median(ratios), 4),
                             "min": round(min(ratios), 4), "max": round(max(ratios), 4),
                             "change_faster": sum(r < 1 for r in ratios),
                             "rounds": rounds}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if not filecmp.cmp(trees["parent"] / WORKLOADS, trees["change"] / WORKLOADS,
                       shallow=False):
        print(f"error: the trees' {WORKLOADS} differ", file=sys.stderr)
        return 2
    ops = {side: import_tree(tree, side).clone_large(args.seed, None)
           for side, tree in trees.items()}
    try:
        times = measure(ops, args.rounds)
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {"seed": args.seed, "python": platform.python_version(),
           "numpy": np.__version__, "bits": "identical"}
    doc.update(summary(ops["parent"], times, args.rounds))
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
