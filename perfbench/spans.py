"""Outside-in tracing: spans recorded by the benchmark around calls into
ctcsim's public functions, and the per-layer metrics derived from them.

A traced op is one tree of spans. Its top-level calls (``kind="call"``
directly under the ``op`` span) are the same calls the untraced run times.
Each top-level call is then replayed as the sequence of public calls its
body makes (a ``replay`` span whose children are ``call`` spans), so that a
function's own overhead is its top-level duration minus its replayed
children. ``probe`` spans time extra calls that dissect a replayed call
(for example the superoperator inside a solve); they are attached to the
span they dissect and count toward no self time.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("linalg", "quantum", "sampling", "fidelity", "engine", "cloning",
           "nosignal", "dsl", "cli")
CLONE_SIZES = (5, 6, 7, 8)

# metric -> (span names, span kind, scale, unit): median duration per call
_MEDIANS = {
    "engine.solve_fixed_point_ms": (("engine.solve_fixed_point",), "call", 1e3, "ms"),
    "engine.output_state_ms": (("engine.output_state",), "call", 1e3, "ms"),
    "engine.evolve_ms": (("engine.evolve",), "replay", 1e3, "ms"),
    "quantum.swap_gate_ms": (("quantum.swap_gate",), "call", 1e3, "ms"),
    "quantum.csum_gate_ms": (("quantum.csum_gate",), "call", 1e3, "ms"),
    "quantum.select_gate_ms": (("quantum.select_gate",), "call", 1e3, "ms"),
    "quantum.basis_mapper_us": (("quantum.basis_mapper",), "call", 1e6, "us"),
    "cloning.build_cloner_ms": (("cloning.build_pure_cloner",
                                 "cloning.build_mixed_cloner"), "call", 1e3, "ms"),
    "cloning.make_problem_ms": (("cloning.make_problem",), "call", 1e3, "ms"),
    "cloning.run_clone_ms": (("cloning.run_clone",), "call", 1e3, "ms"),
    "dsl.parse_ms": (("dsl.parse",), "call", 1e3, "ms"),
    "dsl.lower_ms": (("dsl.lower",), "call", 1e3, "ms"),
    "quantum.density_matrix_us": (("quantum.DensityMatrix",), "call", 1e6, "us"),
    "quantum.sanitize_us": (("quantum.DensityMatrix.sanitize",), "call", 1e6, "us"),
    "linalg.partial_trace_us": (("linalg.partial_trace",), "call", 1e6, "us"),
    "linalg.trace_distance_us": (("linalg.trace_distance",), "call", 1e6, "us"),
    "sampling.haar_unitary_us": (("sampling.haar_unitary",), "call", 1e6, "us"),
    "sampling.random_density_us": (("sampling.random_density",), "call", 1e6, "us"),
    "fidelity.fidelity_us": (("fidelity.fidelity",), "call", 1e6, "us"),
    "fidelity.multiplicativity_us": (("fidelity.check_multiplicativity",), "call", 1e6, "us"),
    "fidelity.monotonicity_us": (("fidelity.check_monotonicity",), "call", 1e6, "us"),
    "cloning.no_ctc_baseline_ms": (("cloning.no_ctc_baseline",), "call", 1e3, "ms"),
    "nosignal.run_entangled_clone_ms": (("nosignal.run_entangled_clone",), "call", 1e3, "ms"),
    "nosignal.apply_spectator_channel_us": (("nosignal.apply_spectator_channel",), "call", 1e6, "us"),
    "cli.main_ms": (("cli.main",), "call", 1e3, "ms"),
    "engine.build_superoperator_ms": (("engine.build_superoperator",), "probe", 1e3, "ms"),
    "dsl.load_matrix_file_ms": (("dsl.load_matrix_file",), "probe", 1e3, "ms"),
}

# metric -> replayed top-level span names: median of (top-level duration -
# replayed children), the function's own overhead, in ms
_OVERHEADS = {
    "cloning.build_overhead_ms": ("cloning.build_pure_cloner", "cloning.build_mixed_cloner"),
    "cli.overhead_ms": ("cli.main",),
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: spec[3] for name, spec in _MEDIANS.items()}
    units.update({name: "ms" for name in _OVERHEADS})
    units.update({
        "engine.superop_share": "fraction",
        "engine.solve_ex_superop_ms": "ms",
        "engine.multi_fixed_share": "fraction",
        "dsl.parse_lines_per_s": "lines/s",
        "cli.report_bytes": "bytes",
        "trace.replay_gap_pct": "%",
        "trace.overhead_pct": "%",
    })
    for n in CLONE_SIZES:
        units[f"cloning.run_clone_ms.n{n}"] = "ms"
        units[f"engine.build_superoperator_ms.n{n}"] = "ms"
    for m in MODULES:
        units[f"{m}.calls"] = "calls/op"
        units[f"{m}.self_s"] = "s/op"
    return units


class Timer:
    """Untraced execution: runs each top-level call and sums its time."""

    def __init__(self):
        self.elapsed = 0.0
        self.last = None

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += perf_counter() - t0


class Tracer:
    """Records spans ``[sid, parent, op, name, kind, t0, t1, ref]`` in memory.

    ``ref`` links a replay span to the top-level call it replays, and a
    probe span to the call it dissects.
    """

    def __init__(self):
        self.spans = []
        self.op_attrs = {}
        self.counters = Counter()
        self.samples = defaultdict(list)
        self.elapsed = 0.0
        self.last = None
        self._stack = []
        self._probes = []

    def _open(self, name, kind, ref=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[self._stack[0]][2] if self._stack else sid
        self.spans.append([sid, parent, op, name, kind, perf_counter(), None, ref])
        return sid

    def _close(self, sid):
        self.spans[sid][6] = perf_counter()

    @contextmanager
    def op(self, attrs):
        """Root span of one op; probes deferred during it run at its end."""
        self.elapsed = 0.0
        sid = self._open("op", "op")
        self.op_attrs[sid] = attrs
        self._stack.append(sid)
        try:
            yield sid
            for name, ref, fn, args in self._probes:
                self._probe(name, ref, fn, args)
        finally:
            self._probes.clear()
            self._stack.pop()
            self._close(sid)

    def call(self, name, fn, *args, **kwargs):
        top = len(self._stack) == 1
        sid = self._open(name, "call")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)
            self.last = sid
            if top:
                s = self.spans[sid]
                self.elapsed += s[6] - s[5]

    @contextmanager
    def replay(self, name, ref=None):
        sid = self._open(name, "replay", ref)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self._close(sid)

    def probe(self, name, fn, *args, ref=None):
        """Queue an extra call to time once the op's replay is done, so
        that it never lands inside a replayed interval."""
        self._probes.append((name, self.last if ref is None else ref, fn, args))

    def _probe(self, name, ref, fn, args):
        sid = len(self.spans)
        t0 = perf_counter()
        fn(*args)
        t1 = perf_counter()
        op = self._stack[0]
        self.spans.append([sid, op, op, name, "probe", t0, t1, ref])

    def dump(self, path):
        keys = ("sid", "parent", "op", "name", "kind", "t0", "t1", "ref")
        doc = {"ops": {str(k): v for k, v in self.op_attrs.items()},
               "spans": [dict(zip(keys, s)) for s in self.spans]}
        path.write_text(json.dumps(doc), encoding="utf-8")

    # -- metrics -----------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict:
        spans = self.spans
        dur = {s[0]: s[6] - s[5] for s in spans}
        children = defaultdict(list)
        by_name = defaultdict(list)
        for s in spans:
            if s[4] != "probe" and s[1] is not None:
                children[s[1]].append(s[0])
            by_name[(s[3], s[4])].append(s[0])
        kind = {s[0]: s[4] for s in spans}
        replay_of = {s[7]: s[0] for s in spans if s[4] == "replay" and s[7] is not None}
        n_ops = max(len(self.op_attrs), 1)

        def med(values, scale=1.0):
            return statistics.median(values) * scale if values else 0.0

        out = {}
        for name, (names, k, scale, _unit) in _MEDIANS.items():
            out[name] = med([dur[i] for n in names for i in by_name[(n, k)]], scale)
        for name, names in _OVERHEADS.items():
            gaps = [dur[i] - sum(dur[c] for c in children[replay_of[i]])
                    for n in names for i in by_name[(n, "call")] if i in replay_of]
            out[name] = med(gaps, 1e3)

        direct = sum(dur[c] for op in self.op_attrs for c in children[op]
                     if kind[c] == "call")
        superop = [s for s in spans if s[3] == "engine.build_superoperator"]
        out["engine.superop_share"] = (sum(dur[s[0]] for s in superop) / direct
                                       if direct else 0.0)
        out["engine.solve_ex_superop_ms"] = med(
            [dur[s[7]] - dur[s[0]] for s in superop
             if spans[s[7]][3] == "engine.solve_fixed_point"], 1e3)
        solves = self.counters["engine.solves"]
        out["engine.multi_fixed_share"] = (self.counters["engine.multi_fixed"] / solves
                                           if solves else 0.0)
        parse_s = sum(dur[i] for i in by_name[("dsl.parse", "call")])
        out["dsl.parse_lines_per_s"] = (self.counters["dsl.lines"] / parse_s
                                        if parse_s else 0.0)
        out["cli.report_bytes"] = med(self.samples["cli.report_bytes"])

        # replay gap: share of an op's top-level time not covered by the
        # leaf calls its replay made (the replayed functions' own overhead)
        leaf = defaultdict(float)
        for s in spans:
            if s[4] == "call" and kind.get(s[1]) == "replay":
                leaf[s[2]] += dur[s[0]]
        gaps = []
        for op in self.op_attrs:
            top = [c for c in children[op] if kind[c] == "call"]
            total = sum(dur[c] for c in top)
            if total and any(c in replay_of for c in top):
                gaps.append(100.0 * (total - leaf[op]) / total)
        out["trace.replay_gap_pct"] = med(gaps)
        out["trace.overhead_pct"] = overhead_pct

        for n in CLONE_SIZES:
            ops_n = {op for op, a in self.op_attrs.items() if a.get("n") == n}
            out[f"cloning.run_clone_ms.n{n}"] = med(
                [dur[i] for i in by_name[("cloning.run_clone", "call")]
                 if spans[i][2] in ops_n], 1e3)
            out[f"engine.build_superoperator_ms.n{n}"] = med(
                [dur[i] for i in by_name[("engine.build_superoperator", "probe")]
                 if spans[i][2] in ops_n], 1e3)

        calls, self_s = self._module_self(dur, children, kind, replay_of)
        for m in MODULES:
            out[f"{m}.calls"] = calls[m] / n_ops
            out[f"{m}.self_s"] = self_s[m] / n_ops
        units = per_layer_units()
        return {name: {"value": float(out[name]), "unit": unit}
                for name, unit in units.items()}

    def _module_self(self, dur, children, kind, replay_of):
        """Calls and self time per module over the replayed call trees.

        A replayed function's self time is its top-level duration minus its
        replayed children; a leaf call's is its whole duration; a top-level
        call with no replay counts whole. Summed over modules this is the
        op's top-level time.
        """
        calls = Counter()
        self_s = defaultdict(float)
        for s in self.spans:
            sid, parent, _op, name, k = s[:5]
            module = name.split(".")[0]
            if k == "call" and (kind.get(parent) == "replay"
                                or (kind.get(parent) == "op" and sid not in replay_of)):
                calls[module] += 1
                self_s[module] += dur[sid]
            elif k == "replay":
                base = dur[s[7]] if s[7] is not None else dur[sid]
                calls[module] += 1
                self_s[module] += base - sum(dur[c] for c in children[sid])
        return calls, self_s
