"""The CLI contract under seeded fault injection (``cli_fuzz``): mutated
circuits, matrix files, an alphabet file and option values never let an
exception escape, exit only with 0-3, fail with their one-line messages and
succeed with strict JSON. ``tools/fuzz_cli.py`` runs longer seeds."""

import json
import re

import pytest

from cli_fuzz import contract_breaches, fuzz, run_case
from ctcsim import cli

CASES = 100  # per seed: about 0.25 s


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mutated_inputs_keep_the_cli_contract(seed, tmp_path):
    assert fuzz(seed, CASES, tmp_path) == []


def test_the_guard_sees_each_breach(tmp_path):
    # each rule of the contract fails a made-up outcome that breaks it
    report = tmp_path / "report.json"
    run = ["run", "c.ctc"]
    assert contract_breaches(run, (KeyError("x"), "", "", []), report)
    assert contract_breaches(run, (4, "", "error: x\n", []), report)
    assert contract_breaches(run, (2, "", "error: x\nerror: y\n", []), report)
    assert contract_breaches(run, (3, "", "", []), report)
    assert contract_breaches(run, (1, "", "Traceback\n", []), report)
    assert contract_breaches(run, (1, "", "other.ctc:line 1, column 2: x\n", []), report)
    assert contract_breaches(run, (0, "", "", ["overflow"]), report)
    assert contract_breaches(run, (0, "", "", []), report)  # no report
    report.write_text('{"x": NaN}')
    assert contract_breaches(run, (0, "", "", []), report)
    report.write_text('{"x": 1.0}')
    assert contract_breaches(run, (0, "", "", []), report) == []
    assert contract_breaches(run, (1, "", "c.ctc:line 1, column 2: x\nerror: y\n", []),
                             report) == []
    # a failing demo's FAIL verdict does not stand for its error: line
    demo = ["demo", "clone-pure"]
    assert contract_breaches(demo, (2, "FAIL demo clone-pure\n", "", []), report)
    assert contract_breaches(demo, (2, "FAIL demo clone-pure\n",
                                    "error: demo clone-pure failed: x\n", []), report) == []
    assert contract_breaches(demo, (2, "PASS demo clone-pure\n", "", []), report)


def test_an_escaping_error_is_caught_as_a_breach(monkeypatch, tmp_path):
    # an exception no failure path maps escapes cli.main; run_case reports it
    # rather than ending the run
    def escape(*args):
        raise KeyError("escaped")

    monkeypatch.setattr(cli, "_positive_tol", escape)  # cmd_run's first call
    argv = ["run", str(tmp_path / "c.ctc"), "--tol", "1e-9"]
    outcome = run_case(argv)
    assert isinstance(outcome[0], KeyError)
    assert contract_breaches(argv, outcome, tmp_path / "report.json")


CIRCUIT = "system A 2\nsystem CTC 2\ninput pure A : 1 0\ngate swap A CTC\n"
FILES = {
    "c.ctc": CIRCUIT,
    "bad.ctc": CIRCUIT + "gate bogus A\nsystem\n",
    "missing-mat.ctc": CIRCUIT + "gate unitary A @missing.mat\n",
    "non-unitary.ctc": CIRCUIT + "gate unitary A @non-unitary.mat\n",
    "non-unitary.mat": "matrix 2 1\n1 1 ;\n0 1 ;\n",
    # a solve whose residual rounds above 0
    "residual.ctc": "system A 2\nsystem CTC 2\ninput pure A : 0.6 0.8\n"
                    "gate csum A CTC\ngate swap A CTC\n",
    # {|0>, cos e|0> + sin e|1>} at e = 1e-4: the clone demo fails
    "near.mat": "matrix 2 1\n1.0 0.999999995 ;\n0.0 9.999999983333334e-05 ;\n",
}

# the exit-code table as cli.main maps it, one row per failure kind: the
# command line ({name} is a file under the test's directory), the exit code
# and the one standard-error line, or None for a circuit's parse errors
EXIT_CODES = {
    "run-unreadable-circuit": (
        ["run", "{missing.ctc}"], 3,
        r"error: cannot read \S*missing\.ctc: .*No such file.*"),
    "run-parse-error": (
        ["run", "{bad.ctc}"], 1,
        None),
    "run-unreadable-matrix-file": (
        ["run", "{missing-mat.ctc}"], 3,
        r"error: gate on line 5: cannot read \S*missing\.mat: No such file.*"),
    "run-non-unitary-matrix-file": (
        ["run", "{non-unitary.ctc}"], 1,
        r"error: gate on line 5: non-unitary\.mat: not unitary: .*"),
    "run-trace-out-unknown": (
        ["run", "{c.ctc}", "--trace-out", "Z"], 1,
        r"error: unknown register 'Z'"),
    "run-trace-out-empty": (
        ["run", "{c.ctc}", "--trace-out", ","], 1,
        r"error: --trace-out names no register"),
    "run-trace-out-twice": (
        ["run", "{c.ctc}", "--trace-out", "A,A"], 1,
        r"error: register 'A' named twice"),
    "run-tol-zero": (
        ["run", "{c.ctc}", "--tol", "0"], 2,
        r"error: --tol must be a positive number, got 0\.0"),
    "run-residual-above-tol": (
        ["run", "{residual.ctc}", "--tol", "1e-300"], 2,
        r"error: solver did not converge \(residual \S+\)"),
    "run-unwritable-out": (
        ["run", "{c.ctc}", "--out", "{.}"], 3,
        r"error: cannot write .*Is a directory.*"),
    "demo-unreadable-alphabet": (
        ["demo", "clone-pure", "--alphabet", "@{missing.mat}"], 3,
        r"error: cannot read \S*missing\.mat: No such file.*"),
    "demo-unknown-alphabet": (
        ["demo", "clone-pure", "--alphabet", "preset:none"], 1,
        r"error: unknown alphabet 'preset:none'; use preset:zero-plus or @file"),
    "demo-index": (
        ["demo", "clone-pure", "--index", "7"], 1,
        r"error: index 7 out of range"),
    "demo-probs": (
        ["demo", "clone-mixed", "--probs", "nan,1"], 1,
        r"error: probabilities must be nonnegative and sum to 1"),
    "demo-fails": (
        ["demo", "clone-pure", "--alphabet", "@{near.mat}"], 2,
        r"error: demo clone-pure failed: distance to broadcast \S+ above 1e-09"),
    "sweep-negative-trials": (
        ["sweep", "fixed-points", "--trials", "-3"], 2,
        r"error: --trials must be >= 0, got -3"),
    "usage-removed-flag": (
        ["run", "{c.ctc}", "--solver", "eig"], 2,
        r"error: unrecognized arguments: --solver eig"),
    "usage-bad-type": (
        ["sweep", "fixed-points", "--trials", "x"], 2,
        r"error: argument --trials: invalid int value: 'x'"),
}


@pytest.mark.parametrize("argv, code, line", EXIT_CODES.values(), ids=list(EXIT_CODES))
def test_each_failure_exits_with_its_code_and_one_error_line(argv, code, line, tmp_path,
                                                             capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argv = [re.sub(r"\{(.+)\}", lambda m: str(tmp_path / m[1]), a) for a in argv]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if argv[:2] == ["demo", "clone-pure"] and code == 2:
        # a failing demo writes its report and its verdict first
        report, _, verdict = out.rpartition("}\n")
        assert json.loads(report + "}")["command"] == "demo clone-pure"
        assert verdict == "FAIL demo clone-pure\n"
    else:
        assert out == ""
    lines = err.splitlines(keepends=True)
    if line is None:  # a parse error: one line per error, naming the circuit
        assert len(lines) == 2
        where = re.compile(rf"{re.escape(argv[1])}:line \d+, column \d+: ")
        assert all(map(where.match, lines))
    else:
        assert len(lines) == 1
        assert re.fullmatch(line + "\n", lines[0])
