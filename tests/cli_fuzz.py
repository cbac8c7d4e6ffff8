"""Seeded fault injection for the CLI contract: every failure exits 1, 2 or
3 with its one-line message, never a traceback, and every success writes a
strict JSON report.

A case writes a small corpus of its own (circuits, their matrix files and
an alphabet file), mutates one of those files, the values of its command
line or both, and runs ``cli.main`` with the report sent to a file. File
mutations replace, drop, insert, duplicate or swap tokens and lines; command
line mutations replace, drop or add a flag's value. Values stay within
argparse's types and choices, whose own usage errors (exit 2 through
``SystemExit``) are a separate path. Every integer a mutation can write is
at most 8, and a mutation that would take a circuit's registers past a
total dimension of 64 is not applied, so no case allocates a large problem.

``contract_breaches`` lists what a case's outcome breaks:

- an exception escaped ``cli.main``, or a warning was raised;
- the exit code is not 0, 1, 2 or 3;
- exit 2 or 3 did not print exactly one ``error:`` line (a demo's FAIL
  verdict, printed as its own line on standard output, is its message);
- exit 1 printed a line that is neither ``error: ...`` nor
  ``<circuit>:line L, column C: ...``;
- exit 0 wrote a report that is not strict JSON.

``fuzz(seed, count, root)`` runs ``count`` cases of one seed under the
directory ``root`` and returns the breaching cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np

from ctcsim import cli

MAX_TOTAL_DIM = 64

CIRCUITS = {
    "two-registers.ctc": """\
# ctcsim v1
system A 2
system B 3
system CTC 2
input pure A : 0.6 0.8
input mixed B : 0.5 0 0 ; 0 0.3 0+0.1i ; 0 0-0.1i 0.2
gate swap A CTC
gate select B CTC @family3.mat
gate unitary A @rotation.mat
gate csum A CTC
gate select_adj A CTC @family2.mat
""",
    "input-order.ctc": """\
system A 2
system B 3
system C 2
system CTC 2
input mixed B A : 0.25 0.05+0.05i 0 0+0.08i 0 0 ; 0.05-0.05i 0.15 0 0 0 0 ; 0 0 0.2 0 0 0.1 ; 0-0.08i 0 0 0.1 0 0 ; 0 0 0 0 0.2 0 ; 0 0 0.1 0 0 0.1
input pure C : 0.6 0+0.8i
gate swap A CTC
gate csum C CTC
gate select B CTC @family3.mat
""",
    "qutrits.ctc": """\
system A 3
system CTC 3
input pure A : 0 0.6 0.8
gate csum A CTC
gate swap A CTC
gate csum CTC A
""",
    "ctc-only.ctc": """\
system CTC 2
gate unitary CTC @rotation.mat
""",
}

MATRIX_FILES = {
    "rotation.mat": "matrix 2 1\n0.6 -0.8 ;\n0.8 0.6 ;\n",
    "family2.mat": "matrix 2 2\n1 0 ; 0 1 ;\n0 1 ; 1 0 ;\n",
    "family3.mat": "matrix 2 3\n1 0 ; 0 1 ;\n0 1 ; 1 0 ;\n0.6 -0.8 ; 0.8 0.6 ;\n",
    # a non-orthogonal N = 3 alphabet, one state per column
    "alphabet.mat": "matrix 3 1\n1.0 0.6 0.0 ;\n0.0 0.8 0.6 ;\n0.0 0.0 0.8 ;\n",
}

# tokens a file mutation may write besides those of the corpus
EDGE_TOKENS = (
    "0", "1", "-1", "2", "3", "8", "0.5", "-0", "1e-300", "1e308", "nan", "inf",
    "-inf", "0+1i", "1-1i", "1j", "@", "@missing.mat", "@rotation.mat", "#", ";",
    ":", "system", "gate", "input", "matrix", "pure", "mixed", "swap", "csum",
    "select", "select_adj", "unitary", "CTC", "A", "B", "Z", "",
)

# the values a command line mutation may give each flag: within the flag's
# argparse type, and never a non-numeric string that starts with "-"
FLAG_VALUES = {
    "--trials": ("-3", "0", "1", "3"),
    "--dim": ("-1", "0", "1", "2", "3"),
    "--seed": ("-1", "0", "5"),
    "--tol": ("0", "-1", "nan", "inf", "1e-300", "1e-12", "1e-10", "1e300"),
    "--trace-out": ("A", "B", "C", "CTC", "Z", "A,A", "B,A", ",", "", "A,,B"),
    "--index": ("-1", "0", "2", "3", "7"),
    "--probs": ("0.25,0.75", "1", "nan,1", "0.2,0.3,0.5", "0.5,0.5,0", "1,0",
                "", ",", "inf,0", "0.5;0.5", "0.5,x"),
    "--alphabet": ("preset:zero-plus", "preset:none", "@", "@alphabet.mat",
                   "@missing.mat", "@rotation.mat", "@.", "alphabet.mat"),
    "--cloner": ("mixed", "pure"),
}

# each command with the flags it accepts; {name} is a corpus file's path
COMMANDS = (
    ("run", "{two-registers.ctc}", "--trace-out", "B,A", "--tol", "1e-10"),
    ("run", "{input-order.ctc}", "--trace-out", "C,A"),
    ("run", "{qutrits.ctc}", "--tol", "1e-12"),
    ("run", "{ctc-only.ctc}"),
    ("demo", "clone-pure", "--alphabet", "@{alphabet.mat}", "--index", "1"),
    ("demo", "clone-mixed", "--probs", "0.25,0.75"),
    ("demo", "nosignal", "--cloner", "pure"),
    ("sweep", "fixed-points", "--trials", "3", "--dim", "2", "--seed", "1"),
    ("sweep", "fidelity-props", "--trials", "3", "--dim", "2", "--seed", "2"),
    ("sweep", "no-cloning-baseline", "--trials", "3", "--dim", "2", "--seed", "3"),
)
# the flags each subcommand accepts, for a mutation that adds one
ACCEPTS = {
    "run": ("--trace-out", "--tol"),
    "demo": ("--alphabet", "--index", "--probs", "--cloner"),
    "sweep": ("--trials", "--dim", "--seed"),
}

def _token_pool() -> tuple[str, ...]:
    tokens = set(EDGE_TOKENS)
    for text in (*CIRCUITS.values(), *MATRIX_FILES.values()):
        tokens.update(text.split())
    return tuple(sorted(tokens))


TOKENS = _token_pool()
LINES = tuple(line for text in CIRCUITS.values() for line in text.splitlines())


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def mutate_text(rng, text: str) -> str:
    """``text`` with one token or line replaced, dropped, inserted,
    duplicated or swapped."""
    lines = text.splitlines()
    if not lines:
        return _pick(rng, TOKENS)
    op = _pick(rng, ("replace", "drop", "insert", "duplicate", "swap"))
    i = int(rng.integers(len(lines)))
    if rng.random() < 0.3:  # a whole line
        j = int(rng.integers(len(lines)))
        if op == "replace":
            lines[i] = _pick(rng, LINES)
        elif op == "drop":
            del lines[i]
        elif op == "insert":
            lines.insert(i, lines[j])
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines) + "\n"
    tokens = lines[i].split()
    if not tokens:
        tokens = [_pick(rng, TOKENS)]
    k = int(rng.integers(len(tokens)))
    if op == "replace":
        tokens[k] = _pick(rng, TOKENS)
    elif op == "drop":
        del tokens[k]
    elif op == "insert":
        tokens.insert(k, _pick(rng, TOKENS))
    elif op == "duplicate":
        tokens.insert(k, tokens[k])
    else:
        m = int(rng.integers(len(tokens)))
        tokens[k], tokens[m] = tokens[m], tokens[k]
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def small_enough(text: str) -> bool:
    """Whether every register a circuit text declares, and their product,
    stay within the fuzzer's dimension bounds."""
    total = 1
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if len(parts) >= 3 and parts[0] == "system" and parts[2].isdecimal():
            total *= max(int(parts[2]), 1)
    return total <= MAX_TOTAL_DIM


def mutate_argv(rng, argv: list[str]) -> list[str]:
    """``argv`` with one flag's value replaced, one flag dropped, or one
    accepted flag added, its value drawn from ``FLAG_VALUES``."""
    argv = list(argv)
    flags = [i for i, a in enumerate(argv) if a in FLAG_VALUES]
    op = _pick(rng, ("replace", "replace", "drop", "add"))
    if op == "replace" and flags:
        i = _pick(rng, flags)
        argv[i + 1] = _pick(rng, FLAG_VALUES[argv[i]])
    elif op == "drop" and flags:
        i = _pick(rng, flags)
        del argv[i:i + 2]
    else:
        flag = _pick(rng, ACCEPTS[argv[0]])
        argv += [flag, _pick(rng, FLAG_VALUES[flag])]
    return argv


def write_corpus(root: Path) -> dict[str, str]:
    """Write the corpus under ``root``; returns each file's path by name."""
    paths = {}
    for name, text in {**CIRCUITS, **MATRIX_FILES}.items():
        (root / name).write_text(text, encoding="utf-8")
        paths[name] = str(root / name)
    return paths


def draw_case(rng, root: Path) -> tuple[list[str], dict[str, str]]:
    """Write a fresh corpus under ``root`` and mutate one file, one command
    line or both: the command line to run (without ``--out``) and the
    mutated file's text by name, if any."""
    paths = write_corpus(root)
    mutated = {}
    command = _pick(rng, COMMANDS)
    argv = [re.sub(r"\{(.+)\}", lambda m: paths[m[1]], a) for a in command]
    # the file a case may mutate: a run's circuit or a matrix file it may
    # read, or the clone demo's alphabet; the other commands read no file
    if argv[0] == "run":
        target = (Path(argv[1]) if rng.random() < 0.7
                  else root / _pick(rng, sorted(MATRIX_FILES)))
    else:
        target = root / "alphabet.mat" if argv[1] == "clone-pure" else None
    kind = _pick(rng, ("file", "file", "argv", "both")) if target else "argv"
    if kind in ("file", "both"):
        text = target.read_text(encoding="utf-8")
        for _ in range(int(rng.integers(1, 4))):
            candidate = mutate_text(rng, text)
            if target.suffix != ".ctc" or small_enough(candidate):
                text = candidate
        target.write_text(text, encoding="utf-8")
        mutated[target.name] = text
    if kind in ("argv", "both"):
        argv = mutate_argv(rng, argv)
    return argv, mutated


def run_case(argv: list[str]):
    """Run ``cli.main(argv)``: (exit code or escaped exception, standard
    output, standard error, warnings raised)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the guard's subject: nothing escapes
            code = exc
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _strict_json(text: str) -> bool:
    def reject(constant):
        raise ValueError(f"non-strict constant {constant}")

    try:
        json.loads(text, parse_constant=reject)
    except ValueError:
        return False
    return True


def contract_breaches(argv, outcome, report: Path) -> list[str]:
    """What one case's outcome breaks of the CLI contract; empty if nothing."""
    code, out, err, caught = outcome
    if isinstance(code, BaseException):
        return [f"{type(code).__name__} escaped: {code}"]
    breaches = [f"warning: {message}" for message in caught]
    lines = err.splitlines()
    if code not in (0, 1, 2, 3):
        breaches.append(f"exit code {code!r}")
    elif code in (2, 3):
        verdict = argv[0] == "demo" and out.splitlines()[-1:] == [f"FAIL demo {argv[1]}"]
        if not (verdict and not lines) and not (
                len(lines) == 1 and lines[0].startswith("error: ")):
            breaches.append(f"exit {code} with standard error {err!r}")
    elif code == 1:
        circuit = re.escape(argv[1]) if argv[0] == "run" else r"(?!)"
        line_ok = re.compile(rf"error: |{circuit}:line \d+, column \d+: ")
        if not lines or not all(line_ok.match(line) for line in lines):
            breaches.append(f"exit 1 with standard error {err!r}")
    elif not report.is_file() or not _strict_json(report.read_text(encoding="utf-8")):
        breaches.append("exit 0 without a strict JSON report")
    return breaches


def fuzz(seed: int, count: int, root: Path) -> list[tuple]:
    """Run ``count`` seeded cases under ``root``: the (command line, mutated
    files, breaches) of each case that breaks the contract."""
    rng = np.random.default_rng(seed)
    report = root / "report.json"
    failures = []
    for _ in range(count):
        argv, mutated = draw_case(rng, root)
        argv += ["--out", str(report)]
        report.unlink(missing_ok=True)
        breaches = contract_breaches(argv, run_case(argv), report)
        if breaches:
            failures.append((argv, mutated, breaches))
    return failures
