"""Command-line driver: run circuit files, replay the canned cloning and
no-signalling experiments, and execute seeded property sweeps.

Exit codes: 0 success, 1 parse errors, 2 invalid option values, solver
failure or non-convergence, or property violation, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dsl, linalg, quantum, sampling
from .cloning import (
    Alphabet,
    baseline_infidelities,
    build_mixed_cloner,
    build_pure_cloner,
    run_clone,
)
from .engine import evolve, kraus_stack, solve_stack
from .fidelity import fidelities, monotonicity_margins, multiplicativity_defects
from .linalg import CHUNK_TRIALS, chunks  # noqa: F401 (the sweeps' chunk size)
from .nosignal import run_entangled_clone
from .quantum import DensityMatrix, Layout, PureState, check_density, check_unitary

FORMAT_VERSION = 1
PASS_TOL = 1e-9
RESIDUAL_TOL = 1e-10  # sweep fixed-points passes when no residual is above this
MIN_INFIDELITY = 1e-6  # sweep no-cloning-baseline passes when every trial is above this


def _positive_tol(value, name: str) -> float:
    """``value`` as a finite positive float; a ValueError naming ``name``
    otherwise (NaN would accept every residual, and neither NaN nor inf is
    strict JSON)."""
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    return tol


def _default_tol() -> float:
    env = os.environ.get("CTCSIM_DEFAULT_TOL")
    return _positive_tol(env, "CTCSIM_DEFAULT_TOL") if env else 1e-12


def matrix_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist(),
    }


_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_text(node) -> str | None:
    """The JSON text of a scalar, tested in json's order (bool before int),
    or None for a container."""
    if isinstance(node, str):
        return _escape(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    if isinstance(node, float):
        # float.__repr__, not repr: numpy 2 scalars repr as np.float64(...)
        text = float.__repr__(node)
        return _NON_FINITE.get(text, text)
    return None


def _pairs_text(pairs: list, nl: str) -> str | None:
    """A list of [float, float] pairs, a matrix's entries, written at once;
    None for any other list."""
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(pairs))
    if set(map(type, flat)) != {float}:
        return None
    texts = list(map(float.__repr__, flat))
    if not all(map(math.isfinite, flat)):
        texts = [_NON_FINITE.get(t, t) for t in texts]
    inner, inner2 = nl + "  ", nl + "    "
    between = f"{inner}],{inner}[{inner2}"
    body = between.join(map(f",{inner2}".join, zip(texts[::2], texts[1::2])))
    return f"[{inner}[{inner2}{body}{inner}]{nl}]"


def _encode(node, nl: str, parts: list) -> None:
    """Append the text of ``node``, whose line is indented as ``nl`` ends."""
    text = _scalar_text(node)
    if text is not None:
        parts.append(text)
        return
    inner = nl + "  "
    if isinstance(node, dict):
        if not node:
            parts.append("{}")
            return
        sep = "{" + inner
        for key in sorted(node):
            parts.append(f"{sep}{_escape(key)}: ")
            _encode(node[key], inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            parts.append("[]")
            return
        text = _pairs_text(node, nl)
        if text is not None:
            parts.append(text)
            return
        sep = "[" + inner
        for item in node:
            parts.append(sep)
            _encode(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def report_json(report: dict) -> str:
    """Exactly ``json.dumps(report, indent=2, sort_keys=True)`` for a report
    (str-keyed dicts, lists, strings, numbers, bools and None), without the
    pure-Python indent encoder's per-value generator chain."""
    parts = []
    _encode(report, "\n", parts)
    return "".join(parts)


def _dump_report(report: dict, fmt: str, out: str | None) -> int:
    if fmt == "json":
        text = report_json(report) + "\n"
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


def _fixed_point_doc(fp) -> dict:
    return {
        "matrix": matrix_doc(fp.rho_ctc.mat),
        "residual": fp.residual,
        "multiplicity": fp.multiplicity,
    }


def cmd_run(args) -> int:
    # the environment is read per call: the parser is built once per process
    tol = _default_tol() if args.tol is None else _positive_tol(args.tol, "--tol")
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
    except OSError as exc:  # a matrix file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    output, fp = evolve(problem)
    if fp.residual > tol:
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
        "solver_options": {
            "tol_residual": tol,
            "eig_one_window": linalg.tolerances.eig_one_window,
        },
        "fixed_point": _fixed_point_doc(fp),
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
    if args.name == "clone-pure":
        try:
            alphabet = _load_alphabet(args.alphabet)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not 0 <= args.index < len(alphabet):
            print(f"error: index {args.index} out of range", file=sys.stderr)
            return 1
        cloner = build_pure_cloner(alphabet)
        target = alphabet.states[args.index].density()
        rep = run_clone(cloner, target)
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
        # NaN passes the sign and sum comparisons, so test finiteness first
        if (any(not math.isfinite(p) or p < 0 for p in probs)
                or abs(sum(probs) - 1.0) > quantum.TRACE_TOL):
            print("error: probabilities must be nonnegative and sum to 1",
                  file=sys.stderr)
            return 1
        if len(probs) < 2:
            print("error: --probs needs at least two probabilities",
                  file=sys.stderr)
            return 1
        n = len(probs)
        cloner = build_mixed_cloner(n)
        target = DensityMatrix(np.diag(np.array(probs, dtype=complex)))
        rep = run_clone(cloner, target)
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
        bell = PureState.normalized([0, 1, 1, 0]).density().with_dims((2, 2))
        if args.cloner == "mixed":
            cloner = build_mixed_cloner(2)
        else:
            cloner = build_pure_cloner(
                Alphabet((PureState.basis(2, 0), PureState.basis(2, 1)))
            )
        rep = run_entangled_clone(cloner, bell)
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


def _trial_error(lo, exc: linalg.StackError) -> ValueError:
    """The error of a stack over trials lo, lo + 1, ..., naming the trial."""
    return ValueError(f"trial {lo + exc.index}: {exc.message}")


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
        raise _trial_error(lo, min(failures, key=lambda exc: exc.index))


def _sweep_fidelity(rng, trials, dim):
    rows = []
    worst = {"multiplicativity": 0.0, "monotonicity": np.inf,
             "symmetry": 0.0, "unitary_invariance": 0.0}
    for lo, hi in chunks(trials, dim * dim):
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
    ok = (worst["multiplicativity"] <= PASS_TOL and worst["monotonicity"] >= -PASS_TOL
          and worst["symmetry"] <= PASS_TOL and worst["unitary_invariance"] <= PASS_TOL)
    return rows, worst, ok


def _sweep_fixed_points(rng, trials, dim):
    rows = []
    worst = {"residual": 0.0}
    layout = Layout((("CR", dim), ("CTC", dim)), ctc_index=1)
    # the largest matrix per trial is the d^2 x d^2 superoperator
    for lo, hi in chunks(trials, dim * dim):
        # per trial: a Haar unitary on CR x CTC, then the CR state
        z_u, z_cr = sampling.ginibre_trials(rng, hi - lo, (dim * dim, dim))
        u = sampling.haar_from_ginibre(z_u)
        _check_trials(lo, [(check_unitary, u)])
        # the CR states Z Z^dag / Tr(Z Z^dag), given by their factors
        try:
            fps = solve_stack(kraus_stack(layout, u, linalg.unit_factor(z_cr)))
        except linalg.StackError as exc:
            raise _trial_error(lo, exc) from None
        for t in range(hi - lo):
            residual = float(fps.residual[t])
            rows.append({"trial": lo + t, "residual": residual,
                         "multiplicity": int(fps.multiplicity[t])})
            worst["residual"] = max(worst["residual"], residual)
    return rows, worst, worst["residual"] <= RESIDUAL_TOL


def _sweep_baseline(rng, trials, dim):
    zero = PureState.basis(dim, 0)
    plus = PureState.normalized([1, 1] + [0] * (dim - 2))
    alphabet = Alphabet.padded([zero, plus], dim)
    ancilla = PureState.basis(dim, 0).density()
    rows = []
    worst = {"min_infidelity": np.inf}
    for lo, hi in chunks(trials, dim**3):
        (z,) = sampling.ginibre_trials(rng, hi - lo, (dim**3,))
        u = sampling.haar_from_ginibre(z)
        _check_trials(lo, [(check_unitary, u)])
        infid = baseline_infidelities(alphabet, u, ancilla)
        for t in range(hi - lo):
            rows.append({"trial": lo + t, "worst_pair_infidelity": float(infid[t])})
            worst["min_infidelity"] = min(worst["min_infidelity"], float(infid[t]))
    return rows, worst, worst["min_infidelity"] > MIN_INFIDELITY


def cmd_sweep(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.dim < 2:
        raise ValueError(f"--dim must be >= 2, got {args.dim}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared: parsing does not
    change it, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Deutsch closed-timelike-curve circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None)

    run = sub.add_parser("run", help="parse, lower and evolve a circuit file")
    run.add_argument("circuit")
    run.add_argument("--trace-out", default=None,
                     help="comma-separated registers to keep as a marginal")
    run.add_argument("--tol", type=float, default=None,
                     help="largest fixed-point residual accepted "
                          "(default: $CTCSIM_DEFAULT_TOL or 1e-12)")
    add_output_flags(run)
    run.set_defaults(func=cmd_run)

    demo = sub.add_parser("demo", help="run a canned experiment")
    demo.add_argument("name", choices=["clone-pure", "clone-mixed", "nosignal"])
    demo.add_argument("--alphabet", default="preset:zero-plus")
    demo.add_argument("--index", type=int, default=0)
    demo.add_argument("--probs", default="0.25,0.75")
    demo.add_argument("--cloner", choices=["mixed", "pure"], default="mixed")
    add_output_flags(demo)
    demo.set_defaults(func=cmd_demo)

    sweep = sub.add_parser("sweep", help="seeded property sweep")
    sweep.add_argument("kind", choices=["fidelity-props", "fixed-points",
                                        "no-cloning-baseline"])
    sweep.add_argument("--trials", type=int, default=1000)
    sweep.add_argument("--dim", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=0)
    add_output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    # a ValueError that escapes a command (a malformed CTCSIM_DEFAULT_TOL
    # among them) is a usage or solver error: one line and exit 2, never a
    # traceback
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
