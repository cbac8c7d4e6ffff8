"""Command-line driver: run circuit files, replay the canned cloning and
no-signalling experiments, and execute seeded property sweeps.

Exit codes: 0 success, 1 parse errors, 2 invalid option values, solver
failure or non-convergence, or property violation, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
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
from .fidelity import factor_fidelities
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
    """A matrix as a report node: its shape, and in ``entries`` its [re, im]
    pairs in row-major order as one (rows·cols, 2) float64 array, a view of
    the contiguous complex matrix that makes no Python float. ``report_json``
    writes the array as a list of pairs; the csv walk skips the node."""
    m = np.ascontiguousarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "entries": m.view(float).reshape(-1, 2)}


_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# a matrix of fewer floats than this (7 x 7 entries) is formatted one
# float.__repr__ per float: on a random density matrix, finding the distinct
# magnitudes costs 5% more than the __repr__ calls it saves at 6 x 6 and
# saves 7% at 7 x 7 (median of 9 timings, numpy 2.4, one Xeon core)
DISTINCT_MIN_FLOATS = 98
_MAGNITUDE = np.uint64(2**63 - 1)  # the bits of a double less its sign


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


def _repr_texts(values: list) -> list:
    """The JSON texts of a list of floats, one ``float.__repr__`` each."""
    texts = list(map(float.__repr__, values))
    if all(map(math.isfinite, values)):
        return texts
    return [_NON_FINITE.get(t, t) for t in texts]


def _array_texts(flat: np.ndarray) -> list:
    """The JSON texts of a 1-d float array, with one ``float.__repr__`` per
    distinct magnitude: equal magnitudes are matched by their bits and the
    sign is put back, so -0.0 and the mirrored imaginary parts of a
    Hermitian matrix come out exactly. An array with NaN or ±inf, or a small
    one, is formatted one ``float.__repr__`` per float."""
    if flat.size < DISTINCT_MIN_FLOATS or not np.isfinite(flat).all():
        return _repr_texts(flat.tolist())
    magnitudes, index = np.unique(flat.view(np.uint64) & _MAGNITUDE, return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.view(float).tolist()))
    index += len(texts) * np.signbit(flat)  # the negatives' texts follow
    return list(map([*texts, *["-" + t for t in texts]].__getitem__, index.tolist()))


def _pairs_join(texts: list, nl: str) -> str:
    """The list of [texts[0], texts[1]], [texts[2], texts[3]], ... pairs."""
    inner, inner2 = nl + "  ", nl + "    "
    between = f"{inner}],{inner}[{inner2}"
    body = between.join(map(f",{inner2}".join, zip(texts[::2], texts[1::2])))
    return f"[{inner}[{inner2}{body}{inner}]{nl}]"


class TrialColumns:
    """A sweep's per-trial rows, held as columns: ``columns`` maps each field
    to a 1-d array of one entry per trial, float64 or integer (the trial
    index, a count). ``report_json`` writes it as the list of row objects,
    one ``{field: entry}`` per trial with the fields sorted, and ``tolist``
    builds that list."""

    def __init__(self, columns: dict):
        self.columns = columns

    def tolist(self) -> list:
        names = sorted(self.columns)
        return [dict(zip(names, row))
                for row in zip(*(self.columns[name].tolist() for name in names))]


def _rows_text(columns: dict, nl: str) -> str:
    """The list of row objects of per-trial ``columns``: each row is one
    template, the sorted fields' keys written once, filled with its entries'
    texts, so no row becomes a dict."""
    names = sorted(columns)
    if not names or not len(columns[names[0]]):
        return "[]"
    inner, field = nl + "  ", nl + "    "
    keys = (_escape(name).replace("{", "{{").replace("}", "}}") for name in names)
    template = "{{" + field + f",{field}".join(f"{key}: {{}}" for key in keys) + inner + "}}"
    texts = [_repr_texts(column.tolist()) if column.dtype == np.float64
             else list(map(int.__repr__, column.tolist()))
             for column in map(columns.__getitem__, names)]
    return "[" + inner + f",{inner}".join(map(template.format, *texts)) + nl + "]"


def _encode(node, nl: str, parts: list, memo: dict) -> None:
    """Append the text of ``node``, whose line is indented as ``nl`` ends;
    ``memo`` holds the texts of the report's matrices."""
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
            _encode(node[key], inner, parts, memo)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            parts.append("[]")
            return
        sep = "[" + inner
        for item in node:
            parts.append(sep)
            _encode(item, inner, parts, memo)
            sep = "," + inner
        parts.append(nl + "]")
    elif (isinstance(node, np.ndarray) and node.dtype == np.float64
          and node.ndim == 2 and node.shape[1] == 2 and node.size):
        # a matrix's entries; an equal array already written shares its texts
        key = node.tobytes()
        texts = memo.get(key)
        if texts is None:
            texts = memo[key] = _array_texts(node.reshape(-1))
        parts.append(_pairs_join(texts, nl))
    elif isinstance(node, TrialColumns):
        parts.append(_rows_text(node.columns, nl))
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def report_json(report: dict) -> str:
    """Exactly ``json.dumps(report, indent=2, sort_keys=True,
    default=lambda o: o.tolist())`` for a report (str-keyed dicts, lists,
    strings, numbers, bools, None, the non-empty (k, 2) float64 entries
    arrays of ``matrix_doc`` and a sweep's ``TrialColumns``), without the
    pure-Python indent encoder's per-value generator chain; any other array
    raises TypeError, as ``json.dumps`` does. A matrix's entries cost one
    ``float.__repr__`` per distinct magnitude (see ``_array_texts``), and a
    matrix equal to one already written costs none: its texts are joined
    again at its own indent. Per-trial columns are written as their list of
    row objects, each row one template filled with its entries' texts, so
    no row becomes a dict."""
    parts = []
    _encode(report, "\n", parts, {})
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
        text = Path(args.circuit).read_text(encoding="utf-8-sig")
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
    if args.trace_out is not None:
        keep_names = [n for n in args.trace_out.split(",") if n]
        if not keep_names:
            print("error: --trace-out names no register", file=sys.stderr)
            return 1
        cr_names = [n for n, _ in problem.layout.registers[:-1]]
        for i, name in enumerate(keep_names):
            if name not in cr_names:
                print(f"error: unknown register {name!r}", file=sys.stderr)
                return 1
            if name in keep_names[:i]:
                print(f"error: register {name!r} named twice", file=sys.stderr)
                return 1
        keep = [cr_names.index(n) for n in keep_names]
        dims = problem.layout.cr_dims
        reduced = linalg.partial_trace(output.mat, dims, keep)
        # partial_trace keeps layout order; the marginal follows the order named
        order = sorted(keep)
        reduced = linalg.permute_registers(
            reduced, [dims[k] for k in order], [order.index(k) for k in keep])
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
    if arg == "@":
        raise ValueError("--alphabet @ needs a file name")
    if arg.startswith("@"):
        try:
            mats = dsl.load_matrix_file(arg[1:])
        except OSError as exc:
            raise OSError(f"cannot read {arg[1:]}: {exc.strerror or exc}") from None
        if len(mats) != 1:
            raise ValueError("alphabet file must hold a single matrix")
        cols = mats[0]
        states = tuple(PureState(cols[:, j]) for j in range(cols.shape[1]))
        return Alphabet(states)
    raise ValueError(f"unknown alphabet {arg!r}; use preset:zero-plus or @file")


def _clone_case(args):
    """The cloner and target of demo clone-pure or clone-mixed, and a function
    from the run to the report fields that demo alone writes. Raises
    ValueError for an invalid option value, OSError for an alphabet file that
    cannot be read."""
    if args.name == "clone-pure":
        alphabet = _load_alphabet(args.alphabet)
        if not 0 <= args.index < len(alphabet):
            raise ValueError(f"index {args.index} out of range")
        return (build_pure_cloner(alphabet), alphabet.states[args.index].density(),
                lambda rep: {"index": args.index, "fid_a": rep.fid_a, "fid_b": rep.fid_b})
    try:
        probs = [float(p) for p in args.probs.split(",")]
    except ValueError:
        raise ValueError(f"invalid probabilities {args.probs!r}") from None
    # NaN passes the sign and sum comparisons, so test finiteness first
    if (any(not math.isfinite(p) or p < 0 for p in probs)
            or abs(sum(probs) - 1.0) > quantum.TRACE_TOL):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    if len(probs) < 2:
        raise ValueError("--probs needs at least two probabilities")
    return (build_mixed_cloner(len(probs)),
            DensityMatrix(np.diag(np.array(probs, dtype=complex))),
            lambda rep: {"probs": probs})


def cmd_demo(args) -> int:
    if args.name == "nosignal":
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
            "cloner": args.cloner,
            "deviation": rep.deviation,
            "reduced_AB": matrix_doc(rep.reduced_ab.mat),
            "expected_AB": matrix_doc(rep.expected_ab.mat),
        }
    else:
        try:
            cloner, target, own_fields = _clone_case(args)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        rep = run_clone(cloner, target)
        dist = linalg.trace_distance(rep.output.mat, linalg.kron(target.mat, target.mat))
        passed = dist <= PASS_TOL
        report = {
            "joint_fidelity": rep.joint_fid,
            "distance_to_broadcast": dist,
            "output": matrix_doc(rep.output.mat),
            **own_fields(rep),
        }
    report.update(format_version=FORMAT_VERSION, command=f"demo {args.name}",
                  fixed_point=_fixed_point_doc(rep.fixed_point))
    code = _dump_report(report, args.format, args.out)
    if code != 0:
        return code
    print(f"{'PASS' if passed else 'FAIL'} demo {args.name}")
    return 0 if passed else 2


def _by_trial(kernel, *stacks):
    """``kernel(*stacks)`` on trial-major (count, k, ...) stacks, k entries
    per trial, with its StackError naming the trial of the failing entry."""
    try:
        return kernel(*stacks)
    except linalg.StackError as exc:
        raise linalg.StackError(exc.message, exc.index // stacks[0].shape[1]) from None


def _check_trials(checks) -> None:
    """Run each (check, stack) pair over a chunk of trials, each stack
    trial-major of shape (count, k, n, n), and raise the StackError of the
    first trial that fails any check: within a trial, its first failing
    entry, and checks in the order given."""
    failures = []
    for check, stack in checks:
        try:
            _by_trial(check, stack)
        except linalg.StackError as exc:
            failures.append(exc)
    if failures:
        raise min(failures, key=lambda exc: exc.index)


def _fidelity_chunk(rng, count, dim):
    # per trial: states a, b, c, d, two states on dim x dim and a Haar unitary,
    # as the per-trial generators draw them; Z Z^dag / Tr has factor Z / ||Z||_F
    z_a, z_b, z_c, z_d, z_big_a, z_big_b, z_u = sampling.ginibre_trials(
        rng, count, (dim,) * 4 + (dim * dim,) * 2 + (dim,))
    # each matrix side is one trial-major stack, checked at once
    small = sampling.density_from_ginibre(np.stack((z_a, z_b, z_c, z_d), axis=1))
    big = sampling.density_from_ginibre(np.stack((z_big_a, z_big_b), axis=1))
    u = sampling.haar_from_ginibre(z_u)
    _check_trials([(check_unitary, u[:, None]), (check_density, small),
                   (check_density, big)])
    a, b, c, _ = small.swapaxes(0, 1)
    big_a = big[:, 0]
    w_b, w_d, w_a = linalg.unit_factor(np.stack((z_b, z_d, z_a), axis=1)).swapaxes(0, 1)
    w_big_b = linalg.unit_factor(z_big_b)
    # ``multiplicativity_defects`` and ``monotonicity_margins`` written out:
    # the five dim x dim fidelities in one call, F(a, b) among them once (it
    # enters the defect, the symmetry and the invariance), and the two
    # dim^2 x dim^2 ones in another
    rot_a = u @ a @ linalg.dagger(u)
    red_a = linalg.partial_trace(big_a, (dim, dim), {0})
    w_red_b = linalg.reduced_factor(w_big_b, (dim, dim), {1})
    f_ab, f_cd, f_ba, f_rot, f_red = _by_trial(
        factor_fidelities, np.stack((a, c, b, rot_a, red_a), axis=1),
        np.stack((w_b, w_d, w_a, u @ w_b, w_red_b), axis=1)).T
    f_joint, f_big = _by_trial(factor_fidelities,
                               np.stack((linalg.kron(a, c), big_a), axis=1),
                               np.stack((linalg.kron(w_b, w_d), w_big_b), axis=1)).T
    return {
        "multiplicativity": np.abs(f_joint - f_ab * f_cd),
        "monotonicity": f_red - f_big,
        "symmetry": np.abs(f_ab - f_ba),
        "unitary_invariance": np.abs(f_rot - f_ab),
    }


def _fixed_points_chunk(rng, count, dim):
    layout = Layout((("CR", dim), ("CTC", dim)), ctc_index=1)
    # per trial: a Haar unitary on CR x CTC, then the CR state
    z_u, z_cr = sampling.ginibre_trials(rng, count, (dim * dim, dim))
    u = sampling.haar_from_ginibre(z_u)
    check_unitary(u)
    # the CR states Z Z^dag / Tr(Z Z^dag), given by their factors
    fps = solve_stack(kraus_stack(layout, u, linalg.unit_factor(z_cr)))
    return {"residual": fps.residual, "multiplicity": fps.multiplicity}


def _baseline_chunk(rng, count, dim):
    zero = PureState.basis(dim, 0)
    plus = PureState.normalized([1, 1] + [0] * (dim - 2))
    alphabet = Alphabet.padded([zero, plus], dim)
    (z,) = sampling.ginibre_trials(rng, count, (dim**3,))
    u = sampling.haar_from_ginibre(z)
    check_unitary(u)
    infid = baseline_infidelities(alphabet, u, PureState.basis(dim, 0).density())
    return {"worst_pair_infidelity": infid}


# per sweep kind: its chunk kernel, which draws and checks count trials and
# returns their per-trial columns as arrays; the side of the largest matrix a
# trial holds; the summary as (key, column, max or min); and the pass rule on
# that summary
SWEEPS = {
    "fidelity-props": (
        _fidelity_chunk, lambda dim: dim * dim,
        [("multiplicativity", "multiplicativity", max),
         ("monotonicity", "monotonicity", min),
         ("symmetry", "symmetry", max),
         ("unitary_invariance", "unitary_invariance", max)],
        lambda s: (s["multiplicativity"] <= PASS_TOL and s["monotonicity"] >= -PASS_TOL
                   and s["symmetry"] <= PASS_TOL and s["unitary_invariance"] <= PASS_TOL)),
    "fixed-points": (
        _fixed_points_chunk, lambda dim: dim * dim,
        [("residual", "residual", max)],
        lambda s: s["residual"] <= RESIDUAL_TOL),
    "no-cloning-baseline": (
        _baseline_chunk, lambda dim: dim**3,
        [("min_infidelity", "worst_pair_infidelity", min)],
        lambda s: s["min_infidelity"] > MIN_INFIDELITY),
}


def cmd_sweep(args) -> int:
    for flag, value, low in (("--trials", args.trials, 0), ("--dim", args.dim, 2),
                             ("--seed", args.seed, 0)):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    chunk, side, worst_of, passes = SWEEPS[args.kind]
    rng = np.random.default_rng(args.seed)
    parts = {}
    for lo, hi in chunks(args.trials, side(args.dim)):
        try:
            with linalg.entries_from(lo):
                for key, column in chunk(rng, hi - lo, args.dim).items():
                    parts.setdefault(key, []).append(column)
        except linalg.StackError as exc:
            raise ValueError(f"trial {exc.index}: {exc.message}") from None
    columns = {key: np.concatenate(part) for key, part in parts.items()}
    if args.trials:
        summary = {key: worst(columns[col].tolist()) for key, col, worst in worst_of}
        ok = passes(summary)
    else:  # no trial: no worst value, and nothing violated
        summary, ok = dict.fromkeys(key for key, _, _ in worst_of), True
    report = {
        "format_version": FORMAT_VERSION,
        "command": f"sweep {args.kind}",
        "seed": args.seed,
        "trials": args.trials,
        "dim": args.dim,
        "summary": summary,
        "per_trial": TrialColumns({"trial": np.arange(args.trials), **columns}),
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
    sweep.add_argument("kind", choices=list(SWEEPS))
    sweep.add_argument("--trials", type=int, default=1000)
    sweep.add_argument("--dim", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=0)
    add_output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    # a ValueError that escapes a command (a malformed CTCSIM_DEFAULT_TOL
    # among them) is a usage or solver error, and so is a MemoryError (a
    # problem too large to solve): one line and exit 2, never a traceback
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
