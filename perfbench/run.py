"""ctcsim benchmark: one closed-loop client driving the public API and the
in-process CLI (``ctcsim.cli.main``) on one workload.

    python3 perfbench/run.py --workload clone-large --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; ctcsim is imported from its ``src``. The
run repeats whole passes over the workload's fixed op list until
``--seconds`` have elapsed, and checks every op's output.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Their timings are scaled to a reference host speed read from a fixed
kernel timed between ops (see ``HostSpeed``); the detail line also holds
them unscaled.
``--trace 1`` spends half the time untraced and half traced, prints the
per-layer metrics and writes the spans to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (machine, input fingerprint, tail percentile, passes).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from spans import Timer, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_RUNS = 9
# Every end-to-end timing metric is scaled to a host that runs one HostSpeed kernel
# in this many seconds: the median kernel time on an Intel Xeon vCPU of a
# shared two-vCPU host. The detail line keeps the unscaled figures.
CALIBRATION_REF_S = 0.0020
SEGMENT_S = 0.5
SETUP_CODE = ("import sys, ctcsim, ctcsim.cli; "
              "sys.stdout.write(ctcsim.__file__ + '\\n'); sys.stdout.flush()")
# op_tail_ms percentile per workload: the highest on the grid with at least
# ten samples beyond it at the design run length. It is fixed, so that a
# commit that completes more ops is compared at the same percentile; it
# steps down the grid only if a run has fewer than ten samples beyond it.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_PERCENTILE = {"clone-large": 75.0, "sweep-small": 95.0, "dsl-run": 95.0}


def pin_blas():
    """One BLAS thread, set before numpy loads. On a shared two-core machine
    a two-thread BLAS spread the N = 8 superoperator over 2.1-4.3 s in
    back-to-back calls; one thread kept it within about 5%."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_ctcsim():
    """Import ctcsim from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import ctcsim

    origin = Path(ctcsim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ctcsim imported from {origin}, not from {SRC}")
    return ctcsim


def blas_threads():
    """Thread count of the loaded OpenBLAS, read through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(load_1min):
    import numpy as np

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "load_1min_at_start": load_1min,
    }


def measure_setup(runs, speed):
    """Seconds from spawning a fresh interpreter to ctcsim and ctcsim.cli
    imported, scaled to the reference host speed with the kernel timed just
    before and after each spawn; the median of ``runs`` spawns, which
    alternate between the usable CPUs. Also returns the unscaled samples."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cpus = sorted(os.sched_getaffinity(0))
    samples, scaled = [], []
    for i in range(runs):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        before = speed.sample()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or SRC.resolve() not in Path(line.decode().strip()).resolve().parents:
            raise RuntimeError(f"set-up interpreter failed (exit {code}, {line!r})")
        scaled.append(samples[-1] * CALIBRATION_REF_S / ((before + speed.sample()) / 2.0))
    os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), samples


def run_op(op, p, tracer):
    """One op: its top-level calls timed, then its output checked; traced
    ops are also replayed. Returns (verified, seconds in the program)."""
    rec = tracer if tracer is not None else Timer()
    try:
        if tracer is None:
            ok, _ = op.execute(rec, p)
        else:
            with tracer.op(op.attrs):
                ok, ctx = op.execute(tracer, p)
                op.replay(tracer, ctx, p)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return bool(ok), rec.elapsed


class HostSpeed:
    """A fixed kernel of the benchmark's own, timed between ops to read how
    fast the host runs at that moment.

    On a shared host other tenants slow each vCPU by up to about half, for
    stretches of seconds to minutes that differ between the vCPUs, and
    every op and this kernel slow together. The kernel mixes the kinds of
    work the workloads do: small dense numpy calls (eigh, kron, matmul on
    4 x 4), Python dict and loop work, and one BLAS product of two
    160 x 160 complex matrices. ctcsim code never runs in it, so no change
    to the program moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h = h + h.conj().T
        self.q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self.big = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self.np = np

    def _kernel(self):
        np, acc = self.np, 0.0
        for _ in range(20):
            w, v = np.linalg.eigh(self.h)
            acc += float(np.trace((v * w) @ v.conj().T @ np.kron(self.q, self.q)).real)
        counts = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return acc + float(np.abs(self.big @ self.big).sum()) + counts[0]

    def sample(self):
        """Seconds per kernel run on the current CPU, median of three."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)


class Passes:
    """Whole passes over the op list until ``seconds`` have elapsed.

    The run is cut into segments of about ``SEGMENT_S`` seconds at op
    boundaries, and successive segments run on successive usable CPUs.
    The host-speed kernel is timed on the segment's CPU when it opens and
    when it closes; each op of the segment is also recorded scaled to the
    reference host speed, ``seconds * CALIBRATION_REF_S / kernel``, with
    the mean of the two kernel times.
    """

    def __init__(self, ops, seconds, speed, first_pass=0, tracer=None):
        self.latencies, self.scaled, self.walls, self.kernel = [], [], [], []
        self.attempted = self.failed = self.verified = 0
        self.busy = 0.0
        cpus = sorted(os.sched_getaffinity(0))
        t_start = perf_counter()
        p = first_pass
        segment = 0
        os.sched_setaffinity(0, {cpus[0]})
        start, opened, t_segment = 0, speed.sample(), perf_counter()
        while True:
            t_pass = perf_counter()
            for op in ops:
                ok, seconds_in_op = run_op(op, p, tracer)
                self.latencies.append(seconds_in_op)
                self.busy += seconds_in_op
                self.verified += ok
                self.attempted += 1
                if perf_counter() - t_segment >= SEGMENT_S:
                    self._close_segment(start, opened, speed.sample())
                    segment += 1
                    os.sched_setaffinity(0, {cpus[segment % len(cpus)]})
                    start, opened, t_segment = len(self.latencies), speed.sample(), perf_counter()
            self.walls.append(perf_counter() - t_pass)
            p += 1
            if perf_counter() - t_start >= seconds:
                break
        if start < len(self.latencies):
            self._close_segment(start, opened, speed.sample())
        os.sched_setaffinity(0, cpus)
        self.next_pass = p
        self.failed = self.attempted - self.verified

    def _close_segment(self, start, opened, closed):
        self.kernel += [opened, closed]
        factor = CALIBRATION_REF_S / ((opened + closed) / 2.0)
        self.scaled += [s * factor for s in self.latencies[start:]]


def tail(latencies, target):
    """(percentile, samples beyond it, value) at the target percentile, or
    the highest grid percentile below it with ten samples beyond it."""
    import numpy as np

    n = len(latencies)
    pct = max((q for q in TAIL_GRID if q <= target and n * (100.0 - q) / 100.0 >= 10),
              default=TAIL_GRID[0])
    return pct, int(n * (100.0 - pct) / 100.0), float(np.percentile(latencies, pct))


def end_to_end(passes, setup_s, tail_target):
    import numpy as np

    pct, beyond, tail_s = tail(passes.scaled, tail_target)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (passes.verified / sum(passes.scaled), "ops/s"),
        "op_p50_ms": (statistics.median(passes.scaled) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_rate": (passes.verified / passes.attempted, "fraction"),
    }
    info = {"tail_percentile": pct, "tail_samples_beyond": beyond,
            "samples": len(passes.latencies),
            "unscaled": {"ops_per_s": passes.verified / passes.busy,
                         "op_p50_ms": statistics.median(passes.latencies) * 1e3,
                         "op_tail_ms": float(np.percentile(passes.latencies, pct)) * 1e3},
            "kernel_ms": {"median": statistics.median(passes.kernel) * 1e3,
                          "min": min(passes.kernel) * 1e3, "max": max(passes.kernel) * 1e3}}
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, info


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line, detail dict)."""
    load_1min = os.getloadavg()[0]
    pin_blas()
    import_ctcsim()
    import workloads

    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(load_1min)}
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix=f"{workload}-") as tmp:
        generate = workloads.WORKLOADS[workload]
        ops = generate(seed, Path(tmp), tiny)
        detail["inputs"] = workloads.fingerprint(ops)
        # one untimed pass over a tiny op list of the same kinds, so that
        # lazy imports and first-call set-up finish before timing starts
        (Path(tmp) / "warmup").mkdir()
        speed = HostSpeed()
        Passes(generate(seed, Path(tmp) / "warmup", True), 0, speed)
        if not trace:
            setup_s, detail["setup_samples_s"] = measure_setup(3 if tiny else SETUP_RUNS, speed)
            passes = Passes(ops, seconds, speed)
            metrics, info = end_to_end(passes, setup_s, TAIL_PERCENTILE[workload])
            detail.update(info)
            runs = [passes]
        else:
            plain = Passes(ops, seconds / 2, speed)
            tracer = Tracer()
            traced = Passes(ops, seconds / 2, speed, plain.next_pass, tracer)
            overhead = 100.0 * (statistics.median(traced.walls)
                                / statistics.median(plain.walls) - 1.0)
            metrics = tracer.metrics(overhead)
            spans_path = SCRATCH / f"spans-{workload}-seed{seed}.json"
            tracer.dump(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            detail["spans"] = len(tracer.spans)
            runs = [plain, traced]
    detail["passes"] = [len(r.walls) for r in runs]
    detail["pass_wall_s"] = [statistics.median(r.walls) for r in runs]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["clone-large", "sweep-small", "dsl-run"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny=False) -> int:
    args = parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace, tiny)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
