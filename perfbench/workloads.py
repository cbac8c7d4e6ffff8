"""The three workloads: seeded input generation, one class per kind of op,
the per-op correctness checks and the replay of each op for tracing.

Inputs are drawn with numpy from the workload seed and handed to ctcsim as
states, unitaries and circuit files; the expected outputs used by the checks
are computed here with numpy, independently of ctcsim. Every op is one
closed-loop request: the next op starts when the previous one returns.

The size mix of each workload is fixed per pass (stratified), so that
throughput and latency compare across seeds; the seed draws the states,
unitaries, circuits and the order of the ops.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ctcsim import cli, dsl
from ctcsim.cloning import (
    build_mixed_cloner,
    build_pure_cloner,
    make_problem,
    no_ctc_baseline,
    run_clone,
)
from ctcsim.engine import (
    DeutschProblem,
    build_superoperator,
    output_state,
    solve_fixed_point,
)
from ctcsim.fidelity import check_monotonicity, check_multiplicativity, fidelity
from ctcsim.linalg import kron, partial_trace, trace_distance
from ctcsim.nosignal import (
    apply_spectator_channel,
    check_channel_invariance,
    run_entangled_clone,
)
from ctcsim.quantum import (
    Alphabet,
    DensityMatrix,
    Layout,
    PureState,
    basis_mapper,
    csum_gate,
    select_gate,
    swap_gate,
)
from ctcsim.sampling import haar_unitary, random_density

TOL = 1e-9          # trace-distance and deviation bound of every check
RESIDUAL_TOL = 1e-10
SEED_STRIDE = 2**32  # sweep seed of pass p is base + p * SEED_STRIDE


# -- numpy-only input generation and reference checks ------------------------

def rand_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_pure(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def rand_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    m = (m + m.conj().T) / 2
    return m / np.real(np.trace(m))


def mapper(psi, k):
    """Unitary sending psi exactly to e_k: Householder plus a phase fix."""
    n = psi.size
    theta = np.angle(psi[k]) if abs(psi[k]) > 1e-14 else 0.0
    v = psi.copy()
    v[k] -= np.exp(1j * theta)
    h = np.eye(n, dtype=complex) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    h[k, :] *= np.exp(-1j * theta)
    return h


def ref_distance(a, b):
    """Trace distance of two Hermitian matrices, computed here."""
    d = np.asarray(a) - np.asarray(b)
    return 0.5 * float(np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2)).sum())


def strict_report(path: Path):
    """Parse a JSON report, refusing NaN and Infinity; returns (doc, bytes)."""
    text = path.read_text(encoding="utf-8")

    def refuse(token):
        raise ValueError(f"{path.name}: non-finite JSON constant {token}")

    return json.loads(text, parse_constant=refuse), len(text.encode("utf-8"))


def doc_matrix(doc):
    e = np.array(doc["entries"], dtype=float)
    return (e[:, 0] + 1j * e[:, 1]).reshape(doc["rows"], doc["cols"])


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# -- replays shared by several ops --------------------------------------------

def replay_build(tr, ref, cloner, alphabet):
    """The public calls made by build_pure_cloner / build_mixed_cloner."""
    layout = cloner.layout
    if alphabet is None:
        with tr.replay("cloning.build_mixed_cloner", ref):
            tr.call("quantum.swap_gate", swap_gate, layout, "A", "CTC")
            tr.call("quantum.swap_gate", swap_gate, layout, "B", "CTC")
            tr.call("quantum.csum_gate", csum_gate, layout, "B", "CTC")
        return
    with tr.replay("cloning.build_pure_cloner", ref):
        maps = [tr.call("quantum.basis_mapper", basis_mapper, s, k)
                for k, s in enumerate(alphabet.states)]
        tr.call("quantum.swap_gate", swap_gate, layout, "A", "CTC")
        tr.call("quantum.csum_gate", csum_gate, layout, "A", "B")
        tr.call("quantum.select_gate", select_gate, layout, "B", "CTC", maps)
        tr.call("quantum.select_gate", select_gate, layout, "A", "B", maps, adjoint=True)
        tr.call("quantum.select_gate", select_gate, layout, "CTC", "A", maps, adjoint=True)


def replay_evolve(tr, problem):
    """engine.evolve: the solve (dissected by a superoperator probe), then
    the visible output."""
    with tr.replay("engine.evolve"):
        fp = tr.call("engine.solve_fixed_point", solve_fixed_point, problem)
        tr.probe("engine.build_superoperator", build_superoperator, problem)
        out = tr.call("engine.output_state", output_state, problem, fp.rho_ctc)
    count_solve(tr, fp)
    return out


def build_cloner(rec, alphabet, n):
    """Top-level cloner build: pure for an alphabet, mixed otherwise."""
    if alphabet is None:
        return rec.call("cloning.build_mixed_cloner", build_mixed_cloner, n)
    return rec.call("cloning.build_pure_cloner", build_pure_cloner, alphabet)


def count_solve(tr, fp):
    tr.counters["engine.solves"] += 1
    tr.counters["engine.multi_fixed"] += fp.multiplicity > 1


# -- clone-large ----------------------------------------------------------------

class CloneOp:
    """Build a cloner for one alphabet and clone one state with run_clone."""

    def __init__(self, rng, kind, n):
        self.kind, self.n = kind, n
        self.attrs = {"kind": kind, "n": n}
        if kind == "pure":
            amps = [rand_pure(rng, n) for _ in range(n)]
            self.index = int(rng.integers(n))
            self.alphabet = Alphabet(tuple(PureState(a) for a in amps))
            self.target = self.alphabet.states[self.index].density()
            rho = np.outer(amps[self.index], amps[self.index].conj())
            self.inputs = np.array(amps)
        else:
            probs = rng.dirichlet(np.ones(n))
            self.index = -1
            self.alphabet = None
            self.target = DensityMatrix(np.diag(probs.astype(complex)))
            rho = np.diag(probs.astype(complex))
            self.inputs = probs
        self.expected = np.kron(rho, rho)

    def describe(self):
        return _digest("clone", self.kind, self.n, self.index, self.inputs.tobytes())

    def execute(self, rec, p):
        cloner = build_cloner(rec, self.alphabet, self.n)
        build = rec.last
        report = rec.call("cloning.run_clone", run_clone, cloner, self.target)
        return self.check(report), (cloner, build, rec.last)

    def check(self, report):
        ok = ref_distance(report.output.mat, self.expected) <= TOL
        if self.alphabet is not None:
            ok = (ok and report.joint_fid >= 1 - TOL
                  and report.fixed_point.residual <= RESIDUAL_TOL)
        return ok

    def replay(self, tr, ctx, p):
        cloner, build, run = ctx
        replay_build(tr, build, cloner, self.alphabet)
        n, target = self.n, self.target
        with tr.replay("cloning.run_clone", run):
            problem = tr.call("cloning.make_problem", make_problem, cloner, target)
            out = replay_evolve(tr, problem)
            clones = []
            for keep in ([0], [1]):
                m = tr.call("linalg.partial_trace", partial_trace, out.mat, (n, n), keep)
                clones.append(tr.call("quantum.DensityMatrix.sanitize",
                                      DensityMatrix.sanitize, m))
            joint = tr.call("quantum.DensityMatrix", DensityMatrix,
                            tr.call("linalg.kron", kron, target.mat, target.mat))
            for c in clones:
                tr.call("fidelity.fidelity", fidelity, c, target)
            tr.call("fidelity.fidelity", fidelity, out, joint)


def clone_large(seed, workdir, tiny=False):
    """Pure cloners with N in 5..8 and a minority of mixed cloners with N
    in 5..7, where the superoperator dominates: 14 ops per pass.

    The counts put the median inside the pure N = 6 ops and the 75th
    percentile inside the pure N = 7 ops for any number of passes, so that
    neither sits on the edge between two sizes. A mixed op at N = 8 would
    repeat the pure op's superoperator and add 3.5 s to every pass.
    """
    rng = np.random.default_rng(seed)
    if tiny:
        mix = [("pure", 2), ("mixed", 2), ("pure", 3), ("mixed", 3)]
    else:
        mix = ([("pure", 5)] * 4 + [("pure", 6)] * 3 + [("pure", 7)] * 3
               + [("pure", 8)] + [("mixed", n) for n in (5, 6, 7)])
    ops = [CloneOp(rng, kind, n) for kind, n in mix]
    return [ops[i] for i in rng.permutation(len(ops))]


# -- sweep-small ----------------------------------------------------------------

class SweepOp:
    """One ``ctcsim sweep`` through cli.main, with a fresh seed each pass."""

    def __init__(self, rng, kind, trials, dim, out):
        self.kind, self.trials, self.dim, self.out = kind, trials, dim, out
        self.seed = int(rng.integers(SEED_STRIDE))
        self.attrs = {"kind": kind, "trials": trials}

    def describe(self):
        return _digest("sweep", self.kind, self.trials, self.dim, self.seed)

    def execute(self, rec, p):
        seed = self.seed + p * SEED_STRIDE
        argv = ["sweep", self.kind, "--trials", str(self.trials), "--dim",
                str(self.dim), "--seed", str(seed), "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        code = rec.call("cli.main", cli.main, argv)
        main = rec.last
        doc, size = strict_report(self.out)
        return code == 0 and doc["ok"] is True, (main, size, seed)

    def replay(self, tr, ctx, p):
        main, size, seed = ctx
        tr.samples["cli.report_bytes"].append(size)
        dim = self.dim
        with tr.replay("cli.main", main):
            rng = np.random.default_rng(seed)
            if self.kind == "fixed-points":
                layout = tr.call("quantum.Layout", Layout, (("CR", dim), ("CTC", dim)),
                                 ctc_index=1)
                for _ in range(self.trials):
                    u = tr.call("sampling.haar_unitary", haar_unitary, rng, dim * dim)
                    cr = tr.call("sampling.random_density", random_density, rng, dim)
                    problem = tr.call("engine.DeutschProblem", DeutschProblem, layout, u, cr)
                    fp = tr.call("engine.solve_fixed_point", solve_fixed_point, problem)
                    tr.probe("engine.build_superoperator", build_superoperator, problem)
                    count_solve(tr, fp)
            elif self.kind == "fidelity-props":
                for _ in range(self.trials):
                    a, b, c, d = (tr.call("sampling.random_density", random_density, rng, dim)
                                  for _ in range(4))
                    tr.call("fidelity.check_multiplicativity", check_multiplicativity,
                            a, c, b, d)
                    big_a, big_b = (tr.call("sampling.random_density", random_density,
                                            rng, dim * dim) for _ in range(2))
                    tr.call("fidelity.check_monotonicity", check_monotonicity,
                            big_a, big_b, (dim, dim), {1})
                    tr.call("fidelity.fidelity", fidelity, a, b)
                    tr.call("fidelity.fidelity", fidelity, b, a)
                    u = tr.call("sampling.haar_unitary", haar_unitary, rng, dim).mat
                    rot_a = tr.call("quantum.DensityMatrix", DensityMatrix,
                                    u @ a.mat @ u.conj().T)
                    rot_b = tr.call("quantum.DensityMatrix", DensityMatrix,
                                    u @ b.mat @ u.conj().T)
                    tr.call("fidelity.fidelity", fidelity, rot_a, rot_b)
                    tr.call("fidelity.fidelity", fidelity, a, b)
            else:
                zero = tr.call("quantum.PureState.basis", PureState.basis, dim, 0)
                plus = tr.call("quantum.PureState.normalized", PureState.normalized,
                               [1, 1] + [0] * (dim - 2))
                alphabet = tr.call("quantum.Alphabet.padded", Alphabet.padded,
                                   [zero, plus], dim)
                ancilla = tr.call("quantum.PureState.density",
                                  PureState.basis(dim, 0).density)
                for _ in range(self.trials):
                    u = tr.call("sampling.haar_unitary", haar_unitary, rng, dim**3)
                    tr.call("cloning.no_ctc_baseline", no_ctc_baseline, alphabet, u, ancilla)


class NoSignalOp:
    """check_channel_invariance of a qubit cloner on an entangled (A, R)
    input under random trace-preserving channels on the spectator R."""

    def __init__(self, rng, kind, channels):
        self.attrs = {"kind": "nosignal-" + kind}
        if kind == "pure":
            amps = [rand_pure(rng, 2) for _ in range(2)]
            self.alphabet = Alphabet(tuple(PureState(a) for a in amps))
        else:
            self.alphabet = None
        psi = rand_pure(rng, 4)
        self.joint = DensityMatrix(np.outer(psi, psi.conj()), (2, 2))
        # Kraus pairs from the first block column of a 4x4 Haar unitary
        self.channels = []
        for _ in range(channels):
            big = rand_unitary(rng, 4)
            self.channels.append([big[:2, :2], big[2:, :2]])

    def describe(self):
        return _digest("nosignal", self.alphabet is None, self.joint.mat.tobytes(),
                       *(k.tobytes() for ch in self.channels for k in ch))

    def execute(self, rec, p):
        cloner = build_cloner(rec, self.alphabet, 2)
        build = rec.last
        devs = rec.call("nosignal.check_channel_invariance", check_channel_invariance,
                        cloner, self.joint, self.channels)
        ok = len(devs) == len(self.channels) and all(d <= TOL for d in devs)
        return ok, (cloner, build, rec.last)

    def replay(self, tr, ctx, p):
        cloner, build, check = ctx
        replay_build(tr, build, cloner, self.alphabet)
        with tr.replay("nosignal.check_channel_invariance", check):
            base = tr.call("nosignal.run_entangled_clone", run_entangled_clone,
                           cloner, self.joint)
            for kraus in self.channels:
                mod = tr.call("nosignal.apply_spectator_channel", apply_spectator_channel,
                              self.joint, kraus, cloner.n)
                rep = tr.call("nosignal.run_entangled_clone", run_entangled_clone,
                              cloner, mod)
                tr.call("linalg.trace_distance", trace_distance,
                        rep.reduced_ab.mat, base.reduced_ab.mat)


def sweep_small(seed, workdir, tiny=False):
    """Thousands of d = 2 problems where Python overhead dominates: the
    three property sweeps through cli.main and one no-signalling check per
    cloner kind, in rotation."""
    rng = np.random.default_rng(seed)
    trials, channels = (3, 2) if tiny else (40, 20)
    ops = [SweepOp(rng, kind, trials, 2, workdir / f"sweep-{i}.json")
           for i, kind in enumerate(("fixed-points", "fidelity-props",
                                     "no-cloning-baseline"))]
    ops += [NoSignalOp(rng, kind, channels) for kind in ("pure", "mixed")]
    return [ops[i] for i in rng.permutation(len(ops))]


# -- dsl-run --------------------------------------------------------------------

def _c(z):
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


def _matrix_text(mats):
    lines = [f"matrix {mats[0].shape[0]} {len(mats)}"]
    lines += [" ".join(_c(v) for v in row) + " ;" for m in mats for row in m]
    return "\n".join(lines) + "\n"


class DslOp:
    """``ctcsim run`` on one generated circuit file through cli.main."""

    def __init__(self, kind, path: Path, files: dict, trace_out, expected=None):
        self.path, self.trace_out, self.expected = path, trace_out, expected
        self.out = path.with_suffix(".json")
        self.attrs = {"kind": kind}
        for name, text in files.items():
            (path.parent / name).write_text(text, encoding="utf-8")
        self.files = files

    def describe(self):
        return _digest("dsl", sorted(self.files.items()), self.trace_out)

    def execute(self, rec, p):
        argv = ["run", str(self.path), "--trace-out", self.trace_out,
                "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        code = rec.call("cli.main", cli.main, argv)
        main = rec.last
        doc, size = strict_report(self.out)
        ok = (code == 0 and doc["fixed_point"]["residual"]
              <= doc["solver_options"]["tol_residual"])
        if ok and self.expected is not None:
            marginal = doc_matrix(doc["marginals"][self.trace_out])
            ok = ref_distance(marginal, self.expected) <= TOL
        return ok, (main, size)

    def replay(self, tr, ctx, p):
        main, size = ctx
        tr.samples["cli.report_bytes"].append(size)
        base = self.path.parent
        with tr.replay("cli.main", main):
            text = self.path.read_text(encoding="utf-8")
            spec = tr.call("dsl.parse", dsl.parse, text)
            tr.counters["dsl.lines"] += text.count("\n")
            problem = tr.call("dsl.lower", dsl.lower, spec, base)
            for g in spec.gates:
                if g.file is not None:
                    tr.probe("dsl.load_matrix_file", dsl.load_matrix_file, base / g.file)
            out = replay_evolve(tr, problem)
            names = [n for n, _ in problem.layout.registers[:-1]]
            keep = [names.index(n) for n in self.trace_out.split(",")]
            tr.call("linalg.partial_trace", partial_trace, out.mat,
                    problem.layout.cr_dims, keep)


def _cloner_circuit(rng, workdir, n):
    states = [rand_pure(rng, n) for _ in range(n)]
    k = int(rng.integers(n))
    tag = f"cloner{n}"
    blank = np.eye(n)[0]
    text = "\n".join([
        "# ctcsim v1",
        f"system A {n}", f"system B {n}", f"system CTC {n}",
        "input pure A : " + " ".join(_c(a) for a in states[k]),
        "input pure B : " + " ".join(_c(a) for a in blank),
        "gate swap A CTC",
        "gate csum A B",
        f"gate select B CTC @{tag}.mat",
        f"gate select_adj A B @{tag}.mat",
        f"gate select_adj CTC A @{tag}.mat",
    ]) + "\n"
    files = {f"{tag}.ctc": text,
             f"{tag}.mat": _matrix_text([mapper(s, j) for j, s in enumerate(states)])}
    rho = np.outer(states[k], states[k].conj())
    return DslOp(tag, workdir / f"{tag}.ctc", files, "A,B", np.kron(rho, rho))


# random-circuit slots: CR register dims, CTC dim, how gates touch the CTC.
# "idle" and "permuted" give a fixed-point multiplicity above 1.
_SLOTS = {
    "mix3": ((2, 3), 2, "mixed"),
    "mix4": ((2, 2, 2), 3, "mixed"),
    "qutrit3": ((3, 3), 3, "mixed"),
    "idle4": ((3, 2, 2), 2, "idle"),
    "perm3": ((2, 2), 3, "permuted"),
}
_PATTERN = ("unitary", "select", "swap", "unitary", "select", "csum",
            "select", "unitary", "swap", "select", "csum", "unitary")


def _gate_line(rng, kind, regs, dims, files, tag, i, pool=None):
    """One gate line on randomly chosen registers; writes its matrix file
    (or picks one from ``pool``, a dict kind -> {dim(s): [names]})."""
    names = list(regs)
    if kind in ("swap", "csum"):
        pairs = [(a, b) for a in names for b in names if a < b and dims[a] == dims[b]]
        a, b = pairs[int(rng.integers(len(pairs)))]
        return f"gate {kind} {a} {b}"
    if kind == "unitary":
        r = names[int(rng.integers(len(names)))]
        if pool is not None:
            choices = pool["unitary"]
            return f"gate unitary {r} @{choices[int(rng.integers(len(choices)))]}"
        fname = f"{tag}-u{i}.mat"
        files[fname] = _matrix_text([rand_unitary(rng, dims[r])])
        return f"gate unitary {r} @{fname}"
    i1, i2 = rng.choice(len(names), size=2, replace=False)
    ctrl, tgt = names[i1], names[i2]
    sel = "select" if rng.random() < 0.5 else "select_adj"
    if pool is not None:
        choices = pool["select"]
        return f"gate {sel} {ctrl} {tgt} @{choices[int(rng.integers(len(choices)))]}"
    fname = f"{tag}-s{i}.mat"
    files[fname] = _matrix_text([rand_unitary(rng, dims[tgt]) for _ in range(dims[ctrl])])
    return f"gate {sel} {ctrl} {tgt} @{fname}"


def _input_lines(rng, cr, dims, mixed_pair):
    lines = []
    rest = list(cr)
    if mixed_pair:
        a, b = rest[:2]
        rest = rest[2:]
        m = rand_density(rng, dims[a] * dims[b])
        rows = " ; ".join(" ".join(_c(v) for v in row) for row in m)
        lines.append(f"input mixed {a} {b} : {rows}")
    for r in rest:
        lines.append(f"input pure {r} : " + " ".join(_c(a) for a in rand_pure(rng, dims[r])))
    return lines


def _random_circuit(rng, workdir, slot):
    cr_dims, ctc_dim, mode = _SLOTS[slot]
    cr = [f"R{i}" for i in range(len(cr_dims))]
    dims = dict(zip(cr, cr_dims), CTC=ctc_dim)
    gate_regs = cr if mode in ("idle", "permuted") else cr + ["CTC"]
    files = {}
    gates = [_gate_line(rng, kind, gate_regs, dims, files, slot, i)
             for i, kind in enumerate(_PATTERN)]
    if mode == "permuted":
        perm = np.eye(ctc_dim)[np.roll(np.arange(ctc_dim), 1 + int(rng.integers(ctc_dim - 1)))]
        files[f"{slot}-perm.mat"] = _matrix_text([perm])
        gates.insert(len(gates) // 2, f"gate unitary CTC @{slot}-perm.mat")
    systems = [f"system {r} {dims[r]}" for r in cr]
    # declare the CTC first in one slot: lowering moves it to the last slot
    systems = ([f"system CTC {ctc_dim}"] + systems if slot == "mix3"
               else systems + [f"system CTC {ctc_dim}"])
    text = "\n".join(["# ctcsim v1", *systems,
                      *_input_lines(rng, cr, dims, slot == "mix4"), *gates]) + "\n"
    files[f"{slot}.ctc"] = text
    return DslOp(slot, workdir / f"{slot}.ctc", files, "R0")


def _long_circuit(rng, workdir, lines):
    """Hundreds of gate lines on four qubits and a CTC qubit, drawing on a
    small pool of matrix files."""
    tag = f"long{lines}"
    cr = ["Q0", "Q1", "Q2", "Q3"]
    dims = dict.fromkeys(cr + ["CTC"], 2)
    files = {}
    pool = {"unitary": [], "select": []}
    for j in range(6):
        pool["unitary"].append(f"{tag}-u{j}.mat")
        files[pool["unitary"][-1]] = _matrix_text([rand_unitary(rng, 2)])
    for j in range(4):
        pool["select"].append(f"{tag}-s{j}.mat")
        files[pool["select"][-1]] = _matrix_text([rand_unitary(rng, 2) for _ in range(2)])
    kinds = ("swap", "csum", "unitary", "select")
    gates = [_gate_line(rng, kinds[i % 4], cr + ["CTC"], dims, files, tag, i, pool)
             for i in range(lines)]
    text = "\n".join(["# ctcsim v1", *(f"system {r} 2" for r in cr + ["CTC"]),
                      *_input_lines(rng, cr, dims, False), *gates]) + "\n"
    files[f"{tag}.ctc"] = text
    return DslOp(tag, workdir / f"{tag}.ctc", files, "Q0,Q1")


def dsl_run(seed, workdir, tiny=False):
    """Circuit files through ``ctcsim run``: cloners for N = 2..5, random
    gate/select circuits on 3-4 registers (two with multiplicity > 1) and
    long qubit circuits where parsing and per-gate lowering show."""
    rng = np.random.default_rng(seed)
    sizes, slots, longs = (((2, 3), ("mix3", "idle4"), (30,)) if tiny else
                           ((2, 3, 4, 5), tuple(_SLOTS), (200, 400)))
    ops = [_cloner_circuit(rng, workdir, n) for n in sizes]
    ops += [_random_circuit(rng, workdir, s) for s in slots]
    ops += [_long_circuit(rng, workdir, n) for n in longs]
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {"clone-large": clone_large, "sweep-small": sweep_small, "dsl-run": dsl_run}


def fingerprint(ops) -> dict:
    """Hash of the generated op list, in order, with its size mix."""
    digest = _digest(*(op.describe() for op in ops))
    mix = {}
    for op in ops:
        key = "-".join(str(v) for v in op.attrs.values())
        mix[key] = mix.get(key, 0) + 1
    return {"sha256": digest, "ops_per_pass": len(ops), "mix": mix}
