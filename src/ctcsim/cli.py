"""Command-line driver: run circuit files, replay the canned cloning and
no-signalling experiments, and execute seeded property sweeps.

Exit codes: 0 success, 1 parse errors, 2 invalid option values, solver
failure or non-convergence, or property violation, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dsl, linalg, sampling
from .cloning import (
    Alphabet,
    baseline_infidelities,
    build_mixed_cloner,
    build_pure_cloner,
    run_clone,
)
from .engine import SolverOptions, evolve
from .fidelity import fidelities, monotonicity_margins, multiplicativity_defects
from .nosignal import run_entangled_clone
from .quantum import DensityMatrix, Layout, PureState, check_density, check_unitary

FORMAT_VERSION = 1
PASS_TOL = 1e-9
# the fidelity and baseline sweeps draw and evaluate trials as one stack of
# at most CHUNK_TRIALS trials and CHUNK_ENTRIES entries per matrix stack, so
# peak memory stays bounded for any --trials and --dim; the bits do not
# depend on the chunking
CHUNK_TRIALS = 256
CHUNK_ENTRIES = 2**18


def _default_tol() -> float:
    env = os.environ.get("CTCSIM_DEFAULT_TOL")
    if not env:
        return 1e-12
    try:
        tol = float(env)
        valid = 0 < tol < float("inf")
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(
            f"CTCSIM_DEFAULT_TOL must be a positive number, got {env!r}"
        )
    return tol


def matrix_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(v.real), float(v.imag)] for v in m.reshape(-1)],
    }


def _dump_report(report: dict, fmt: str, out: str | None) -> int:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:  # csv flattens scalar fields only
        lines = ["key,value"]

        def walk(prefix, node):
            if isinstance(node, dict):
                if "entries" in node and "rows" in node:
                    return  # matrices are not flattened
                for k in sorted(node):
                    walk(f"{prefix}.{k}" if prefix else k, node[k])
            elif isinstance(node, (int, float, str, bool)):
                lines.append(f"{prefix},{node}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        method=args.solver,
        tol_residual=args.tol,
        max_iter=args.max_iter,
    )


def _options_doc(opts: SolverOptions) -> dict:
    return {
        "method": opts.method,
        "tol_residual": opts.tol_residual,
        "max_iter": opts.max_iter,
        "eig_one_window": opts.eig_one_window,
    }


def _fixed_point_doc(fp) -> dict:
    return {
        "matrix": matrix_doc(fp.rho_ctc.mat),
        "residual": fp.residual,
        "multiplicity": fp.multiplicity,
    }


def cmd_run(args) -> int:
    try:
        text = Path(args.circuit).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.circuit}: {exc}", file=sys.stderr)
        return 3
    try:
        spec = dsl.parse(text)
        problem = dsl.lower(spec, Path(args.circuit).parent)
    except dsl.CircuitSyntaxError as exc:
        for err in exc.errors:
            print(f"{args.circuit}:{err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    opts = _solver_options(args)
    output, fp = evolve(problem, opts)
    if fp.residual > opts.tol_residual:
        print(
            f"error: solver did not converge (residual {fp.residual:.3e})",
            file=sys.stderr,
        )
        return 2
    marginals = {}
    if args.trace_out:
        keep_names = [n for n in args.trace_out.split(",") if n]
        cr_names = [n for n, _ in problem.layout.registers[:-1]]
        for name in keep_names:
            if name not in cr_names:
                print(f"error: unknown register {name!r}", file=sys.stderr)
                return 1
        keep = [cr_names.index(n) for n in keep_names]
        reduced = linalg.partial_trace(output.mat, problem.layout.cr_dims, keep)
        marginals[",".join(keep_names)] = matrix_doc(reduced)
    report = {
        "format_version": FORMAT_VERSION,
        "command": "run",
        "solver_options": _options_doc(opts),
        "fixed_point": {
            **_fixed_point_doc(fp),
            "method": fp.method_used,
            "iterations": fp.iterations,
        },
        "output": matrix_doc(output.mat),
        "marginals": marginals,
        "fidelities": {},
    }
    return _dump_report(report, args.format, args.out)


def _load_alphabet(arg: str) -> Alphabet:
    if arg == "preset:zero-plus":
        zero = PureState.basis(2, 0)
        plus = PureState.normalized([1, 1])
        return Alphabet((zero, plus))
    if arg.startswith("@"):
        mats = dsl.load_matrix_file(arg[1:])
        if len(mats) != 1:
            raise ValueError("alphabet file must hold a single matrix")
        cols = mats[0]
        states = tuple(PureState(cols[:, j]) for j in range(cols.shape[1]))
        return Alphabet(states)
    raise ValueError(f"unknown alphabet {arg!r}; use preset:zero-plus or @file")


def cmd_demo(args) -> int:
    opts = _solver_options(args)
    if args.name == "clone-pure":
        try:
            alphabet = _load_alphabet(args.alphabet)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not 0 <= args.index < len(alphabet):
            print(f"error: index {args.index} out of range", file=sys.stderr)
            return 1
        cloner = build_pure_cloner(alphabet)
        target = alphabet.states[args.index].density()
        rep = run_clone(cloner, target, opts)
        expected = linalg.kron(target.mat, target.mat)
        dist = linalg.trace_distance(rep.output.mat, expected)
        passed = dist <= PASS_TOL
        report = {
            "format_version": FORMAT_VERSION,
            "command": "demo clone-pure",
            "index": args.index,
            "joint_fidelity": rep.joint_fid,
            "fid_a": rep.fid_a,
            "fid_b": rep.fid_b,
            "distance_to_broadcast": dist,
            "fixed_point": _fixed_point_doc(rep.fixed_point),
            "output": matrix_doc(rep.output.mat),
        }
    elif args.name == "clone-mixed":
        try:
            probs = [float(p) for p in args.probs.split(",")]
        except ValueError:
            print(f"error: invalid probabilities {args.probs!r}", file=sys.stderr)
            return 1
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            print("error: probabilities must be nonnegative and sum to 1",
                  file=sys.stderr)
            return 1
        n = len(probs)
        cloner = build_mixed_cloner(n)
        target = DensityMatrix(np.diag(np.array(probs, dtype=complex)))
        rep = run_clone(cloner, target, opts)
        expected = linalg.kron(target.mat, target.mat)
        dist = linalg.trace_distance(rep.output.mat, expected)
        passed = dist <= PASS_TOL
        report = {
            "format_version": FORMAT_VERSION,
            "command": "demo clone-mixed",
            "probs": probs,
            "joint_fidelity": rep.joint_fid,
            "distance_to_broadcast": dist,
            "fixed_point": _fixed_point_doc(rep.fixed_point),
            "output": matrix_doc(rep.output.mat),
        }
    else:  # nosignal
        if args.cloner == "mixed":
            cloner = build_mixed_cloner(2)
        else:
            cloner = build_pure_cloner(
                Alphabet((PureState.basis(2, 0), PureState.basis(2, 1)))
            )
        bell = PureState.normalized([0, 1, 1, 0])
        rep = run_entangled_clone(cloner, bell.density().with_dims((2, 2)), opts)
        passed = rep.deviation <= PASS_TOL
        report = {
            "format_version": FORMAT_VERSION,
            "command": "demo nosignal",
            "cloner": args.cloner,
            "deviation": rep.deviation,
            "reduced_AB": matrix_doc(rep.reduced_ab.mat),
            "expected_AB": matrix_doc(rep.expected_ab.mat),
            "fixed_point": _fixed_point_doc(rep.fixed_point),
        }
    code = _dump_report(report, args.format, args.out)
    if code != 0:
        return code
    print(f"{'PASS' if passed else 'FAIL'} demo {args.name}")
    return 0 if passed else 2


def _chunks(trials, side):
    """(lo, hi) trial ranges, one per stack; ``side`` is the largest matrix
    side drawn per trial."""
    size = max(1, min(CHUNK_TRIALS, CHUNK_ENTRIES // (side * side)))
    for lo in range(0, trials, size):
        yield lo, min(lo + size, trials)


def _check_trials(lo, checks):
    """Run each (check, stack) pair over trials lo, lo + 1, ... and raise one
    ValueError naming the first trial that fails any check."""
    failures = []
    for check, stack in checks:
        try:
            check(stack)
        except linalg.StackError as exc:
            failures.append(exc)
    if failures:
        first = min(failures, key=lambda exc: exc.index)
        raise ValueError(f"trial {lo + first.index}: {first.message}")


def _sweep_fidelity(rng, trials, dim):
    rows = []
    worst = {"multiplicativity": 0.0, "monotonicity": np.inf,
             "symmetry": 0.0, "unitary_invariance": 0.0}
    for lo, hi in _chunks(trials, dim * dim):
        # per trial: four states a, b, c, d, two states on dim x dim and a
        # Haar unitary, the order of the per-trial generators
        *draws, z_u = sampling.ginibre_trials(
            rng, hi - lo, (dim,) * 4 + (dim * dim,) * 2 + (dim,))
        a, b, c, d, big_a, big_b = map(sampling.density_from_ginibre, draws)
        u = sampling.haar_from_ginibre(z_u)
        rot_a = u @ a @ linalg.dagger(u)
        rot_b = u @ b @ linalg.dagger(u)
        reduced = [linalg.partial_trace(s, (dim, dim), [0]) for s in (big_a, big_b)]
        derived = [linalg.kron(a, c), linalg.kron(b, d), *reduced, rot_a, rot_b]
        _check_trials(lo, [(check_unitary, u)] + [
            (check_density, s) for s in (a, b, c, d, big_a, big_b, *derived)])
        f_ab = fidelities(a, b)
        mult = multiplicativity_defects(a, c, b, d)
        mono = monotonicity_margins(big_a, big_b, (dim, dim), {1})
        sym = np.abs(f_ab - fidelities(b, a))
        inv = np.abs(fidelities(rot_a, rot_b) - f_ab)
        for t in range(hi - lo):
            row = {"trial": lo + t, "multiplicativity": float(mult[t]),
                   "monotonicity": float(mono[t]), "symmetry": float(sym[t]),
                   "unitary_invariance": float(inv[t])}
            rows.append(row)
            worst["multiplicativity"] = max(worst["multiplicativity"],
                                            row["multiplicativity"])
            worst["monotonicity"] = min(worst["monotonicity"], row["monotonicity"])
            worst["symmetry"] = max(worst["symmetry"], row["symmetry"])
            worst["unitary_invariance"] = max(worst["unitary_invariance"],
                                              row["unitary_invariance"])
    ok = (worst["multiplicativity"] <= 1e-9 and worst["monotonicity"] >= -1e-9
          and worst["symmetry"] <= 1e-9 and worst["unitary_invariance"] <= 1e-9)
    return rows, worst, ok


def _sweep_fixed_points(rng, trials, dim):
    from .engine import DeutschProblem, solve_fixed_point

    rows = []
    worst = {"residual": 0.0}
    layout = Layout((("CR", dim), ("CTC", dim)), ctc_index=1)
    for t in range(trials):
        u = sampling.haar_unitary(rng, dim * dim)
        cr = sampling.random_density(rng, dim)
        fp = solve_fixed_point(DeutschProblem(layout, u, cr))
        rows.append({"trial": t, "residual": fp.residual,
                     "multiplicity": fp.multiplicity})
        worst["residual"] = max(worst["residual"], fp.residual)
    return rows, worst, worst["residual"] <= 1e-10


def _sweep_baseline(rng, trials, dim):
    zero = PureState.basis(dim, 0)
    plus = PureState.normalized([1, 1] + [0] * (dim - 2))
    alphabet = Alphabet.padded([zero, plus], dim)
    ancilla = PureState.basis(dim, 0).density()
    rows = []
    worst = {"min_infidelity": np.inf}
    for lo, hi in _chunks(trials, dim**3):
        (z,) = sampling.ginibre_trials(rng, hi - lo, (dim**3,))
        u = sampling.haar_from_ginibre(z)
        _check_trials(lo, [(check_unitary, u)])
        infid = baseline_infidelities(alphabet, u, ancilla)
        for t in range(hi - lo):
            rows.append({"trial": lo + t, "worst_pair_infidelity": float(infid[t])})
            worst["min_infidelity"] = min(worst["min_infidelity"], float(infid[t]))
    return rows, worst, worst["min_infidelity"] > 1e-6


def cmd_sweep(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    if args.kind == "fidelity-props":
        rows, worst, ok = _sweep_fidelity(rng, args.trials, args.dim)
    elif args.kind == "fixed-points":
        rows, worst, ok = _sweep_fixed_points(rng, args.trials, args.dim)
    else:
        rows, worst, ok = _sweep_baseline(rng, args.trials, args.dim)
    report = {
        "format_version": FORMAT_VERSION,
        "command": f"sweep {args.kind}",
        "seed": args.seed,
        "trials": args.trials,
        "dim": args.dim,
        "summary": worst if rows else dict.fromkeys(worst),
        "per_trial": rows,
        "ok": ok,
    }
    code = _dump_report(report, args.format, args.out)
    if code != 0:
        return code
    if not ok:
        print(f"error: property violation (seed {args.seed})", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Deutsch closed-timelike-curve circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--solver", choices=["auto", "eig", "cesaro"],
                       default="auto")
        p.add_argument("--tol", type=float, default=_default_tol())
        p.add_argument("--max-iter", type=int, default=100000)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None)

    run = sub.add_parser("run", help="parse, lower and evolve a circuit file")
    run.add_argument("circuit")
    run.add_argument("--trace-out", default=None,
                     help="comma-separated registers to keep as a marginal")
    add_solver_flags(run)
    run.set_defaults(func=cmd_run)

    demo = sub.add_parser("demo", help="run a canned experiment")
    demo.add_argument("name", choices=["clone-pure", "clone-mixed", "nosignal"])
    demo.add_argument("--alphabet", default="preset:zero-plus")
    demo.add_argument("--index", type=int, default=0)
    demo.add_argument("--probs", default="0.25,0.75")
    demo.add_argument("--cloner", choices=["mixed", "pure"], default="mixed")
    add_solver_flags(demo)
    demo.set_defaults(func=cmd_demo)

    sweep = sub.add_parser("sweep", help="seeded property sweep")
    sweep.add_argument("kind", choices=["fidelity-props", "fixed-points",
                                        "no-cloning-baseline"])
    sweep.add_argument("--trials", type=int, default=1000)
    sweep.add_argument("--dim", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--format", choices=["json", "csv"], default="json")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    # a ValueError that escapes a command (or a malformed CTCSIM_DEFAULT_TOL)
    # is a usage or solver error: one line and exit 2, never a traceback
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
