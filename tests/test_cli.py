import json

import numpy as np
import pytest

from ctcsim import cli, linalg
from ctcsim.cli import main

SMALLEST = """\
system A 2
system CTC 2
input pure A : 1 0
gate swap A CTC
"""

# A and B of different sizes in distinct basis states, so A x B and B x A differ
TWO_REGISTERS = """\
system A 2
system B 3
system CTC 2
input pure A : 1 0
input pure B : 0 0.6 0.8
gate swap A CTC
"""


def write_circuit(tmp_path, text=SMALLEST, name="circuit.ctc"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_smallest_circuit(self, tmp_path, capsys):
        code = main(["run", write_circuit(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format_version"] == 1
        # swap semantics: the fixed point equals the input of A, |0><0|
        fp = report["fixed_point"]
        assert fp["multiplicity"] == 1
        entries = np.array(fp["matrix"]["entries"])
        assert np.allclose(entries, [[1, 0], [0, 0], [0, 0], [0, 0]], atol=1e-10)

    def test_parse_error_exit_code_and_diagnostics(self, tmp_path, capsys):
        bad = "system A 2\nsystem CTC 2\ninput pure A : 1 0q\ngate swap A CTC\n"
        code = main(["run", write_circuit(tmp_path, bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "line 3" in captured.err
        assert "column" in captured.err

    def test_zero_side_matrix_file_is_one_line_error(self, tmp_path, capsys):
        (tmp_path / "z.mat").write_text("matrix 0 3\n")
        circuit = write_circuit(tmp_path, SMALLEST + "gate unitary A @z.mat\n")
        assert main(["run", circuit]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: gate on line 5: {tmp_path / 'z.mat'}: "
                       "matrix side must be at least 1, got 0\n")

    @pytest.mark.parametrize("line, column, usage", [
        ("gate unitary A @", 16, "gate unitary <reg> @<file>"),
        ("gate select A CTC @", 19, "gate select <ctrl> <tgt> @<file>"),
    ])
    def test_bare_at_is_parse_error_at_the_operand(self, line, column, usage,
                                                   tmp_path, capsys):
        # an '@' with no file name used to lower as the file "", which read
        # the circuit's own directory and exited 3
        circuit = write_circuit(tmp_path, SMALLEST + line + "\n")
        assert main(["run", circuit]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        kind = line.split()[1]
        assert captured.err == (f"{circuit}:line 5, column {column}: gate {kind}: "
                                f"@ needs a file name (expected {usage})\n")

    def test_unequal_dims_swap_names_its_line(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, TWO_REGISTERS + "gate swap A B\n")
        assert main(["run", circuit]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gate on line 7: swap needs equal dims, got 2 and 3\n"

    def test_missing_file_is_io_error(self, capsys):
        assert main(["run", "/nonexistent/x.ctc"]) == 3

    def test_out_flag_writes_file_and_quiet_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", write_circuit(tmp_path), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["format_version"] == 1

    def test_trace_out_marginal(self, tmp_path, capsys):
        code = main(["run", write_circuit(tmp_path), "--trace-out", "A"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "A" in report["marginals"]
        assert report["marginals"]["A"]["rows"] == 2

    def test_trace_out_marginal_follows_the_order_named(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, TWO_REGISTERS)
        marginals = {}
        for keep in ("A,B", "B,A"):
            assert main(["run", circuit, "--trace-out", keep]) == 0
            doc = json.loads(capsys.readouterr().out)["marginals"]
            assert list(doc) == [keep]
            entries = np.array(doc[keep]["entries"])
            marginals[keep] = (entries[:, 0] + 1j * entries[:, 1]).reshape(6, 6)
        swapped = linalg.permute_registers(marginals["A,B"], (2, 3), (1, 0))
        assert not np.array_equal(marginals["B,A"], marginals["A,B"])
        assert np.array_equal(marginals["B,A"], swapped)

    def test_trace_out_register_named_twice_is_one_line_error(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, TWO_REGISTERS)
        assert main(["run", circuit, "--trace-out", "A,B,A"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: register 'A' named twice\n"

    @pytest.mark.parametrize("keep", [",", ",,", ""])
    def test_trace_out_naming_no_register_is_one_line_error(self, keep, tmp_path, capsys):
        assert main(["run", write_circuit(tmp_path), "--trace-out", keep]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trace-out names no register\n"

    def test_csv_format_flattens_scalars(self, tmp_path, capsys):
        code = main(["run", write_circuit(tmp_path), "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("key,value")
        assert "fixed_point.multiplicity,1" in out

    def test_report_contract(self, tmp_path, capsys):
        # perfbench's checks read these keys; with one exact solve there is
        # no solver method, iteration count or iteration limit to report
        assert main(["run", write_circuit(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["solver_options"]) == {"tol_residual", "eig_one_window"}
        assert set(report["fixed_point"]) == {"matrix", "residual", "multiplicity"}

    @pytest.mark.parametrize("argv", [
        ["run", "{circuit}", "--solver", "eig"],
        ["run", "{circuit}", "--max-iter", "10"],
        ["demo", "clone-pure", "--tol", "1e-9"],
    ])
    def test_removed_solver_flags_are_usage_errors(self, argv, tmp_path, capsys):
        circuit = write_circuit(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([a.format(circuit=circuit) for a in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestDemo:
    def test_clone_pure_passes(self, capsys):
        code = main(["demo", "clone-pure", "--alphabet", "preset:zero-plus",
                     "--index", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS demo clone-pure" in captured.out
        report = json.loads(captured.out.rsplit("PASS", 1)[0])
        assert report["joint_fidelity"] >= 1 - 1e-9

    def test_clone_mixed_passes(self, capsys):
        code = main(["demo", "clone-mixed", "--probs", "0.25,0.75"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS demo clone-mixed" in captured.out

    def test_clone_mixed_rejects_bad_probs(self, capsys):
        assert main(["demo", "clone-mixed", "--probs", "0.5,0.6"]) == 1
        assert main(["demo", "clone-mixed", "--probs=-0.5,1.5"]) == 1

    def test_clone_pure_index_out_of_range_is_one_line_error(self, capsys):
        assert main(["demo", "clone-pure", "--index", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: index 2 out of range\n"

    def test_nosignal_passes(self, capsys):
        code = main(["demo", "nosignal"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS demo nosignal" in captured.out
        report = json.loads(captured.out.rsplit("PASS", 1)[0])
        assert report["deviation"] <= 1e-9

    def test_alphabet_from_file(self, tmp_path, capsys):
        from ctcsim import dsl
        cols = np.array([[1, 1 / np.sqrt(2)], [0, 1 / np.sqrt(2)]], dtype=complex)
        path = tmp_path / "alpha.mat"
        path.write_text(dsl.format_matrix_file([cols]))
        code = main(["demo", "clone-pure", "--alphabet", f"@{path}", "--index", "1"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


class TestSweep:
    def test_fidelity_props(self, capsys):
        code = main(["sweep", "fidelity-props", "--trials", "20", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["summary"]["monotonicity"] >= -1e-9

    def test_fixed_points(self, capsys):
        code = main(["sweep", "fixed-points", "--trials", "20", "--dim", "2",
                     "--seed", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["residual"] <= 1e-10

    def test_no_cloning_baseline(self, capsys):
        code = main(["sweep", "no-cloning-baseline", "--trials", "20",
                     "--seed", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["min_infidelity"] > 1e-6

    @pytest.mark.parametrize("kind", ["fidelity-props", "fixed-points",
                                      "no-cloning-baseline"])
    def test_zero_trials_report_is_strict_json(self, kind, capsys):
        assert main(["sweep", kind, "--trials", "0"]) == 0

        def refuse(token):
            raise ValueError(f"non-finite JSON constant {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["per_trial"] == []
        assert all(v is None for v in report["summary"].values())

    def test_seeded_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["sweep", "fidelity-props", "--trials", "10", "--seed", "42"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_default_tol_env_override(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("CTCSIM_DEFAULT_TOL", "1e-9")
    code = main(["run", write_circuit(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solver_options"]["tol_residual"] == 1e-9


def test_default_tol_env_is_read_per_call(monkeypatch, tmp_path, capsys):
    # the parser is built once per process; the default must not be frozen in it
    circuit = write_circuit(tmp_path)
    tols = []
    for value in ("1e-9", "1e-11"):
        monkeypatch.setenv("CTCSIM_DEFAULT_TOL", value)
        assert main(["run", circuit]) == 0
        tols.append(json.loads(capsys.readouterr().out)["solver_options"]["tol_residual"])
    assert tols == [1e-9, 1e-11]


def test_bad_default_tol_env_fails_only_run(monkeypatch, capsys):
    # only run has --tol, so only run reads the variable
    monkeypatch.setenv("CTCSIM_DEFAULT_TOL", "abc")
    assert main(["sweep", "fixed-points", "--trials", "3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["abc", "0", "-1e-9", "nan"])
def test_bad_default_tol_env_is_usage_error(value, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("CTCSIM_DEFAULT_TOL", value)
    code = main(["run", write_circuit(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: CTCSIM_DEFAULT_TOL")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "{circuit}", "--tol", "0"],
    ["run", "{circuit}", "--tol", "nan"],
    ["run", "{circuit}", "--tol", "inf"],
    ["sweep", "fixed-points", "--dim", "1"],
    ["sweep", "fixed-points", "--trials", "-3"],
    ["sweep", "fidelity-props", "--trials", "-1"],
    ["sweep", "fixed-points", "--seed", "-1"],
])
def test_invalid_values_are_one_line_usage_errors(argv, tmp_path, capsys):
    circuit = write_circuit(tmp_path)
    code = main([a.format(circuit=circuit) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[-2]} ")  # names its flag
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "fidelity-props", "--dim", "0"],
    ["sweep", "fidelity-props", "--dim", "-1"],
    ["sweep", "no-cloning-baseline", "--dim", "0"],
    ["sweep", "no-cloning-baseline", "--dim", "1"],
    ["sweep", "fixed-points", "--dim", "0"],
    ["sweep", "fixed-points", "--dim", "-2", "--trials", "0"],
])
def test_sweep_rejects_dim_below_two(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --dim must be >= 2")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("probs", ["0.5,nan,0.5", "nan", "inf,0.5", "0.5,-inf,0.5"])
def test_clone_mixed_rejects_non_finite_probs(probs, capsys):
    code = main(["demo", "clone-mixed", f"--probs={probs}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: probabilities must be nonnegative and sum to 1\n"


def test_clone_mixed_rejects_a_sum_off_by_more_than_the_trace_tolerance(capsys):
    # a sum within the CLI's check but not within TRACE_TOL used to reach
    # the DensityMatrix constructor and exit 2
    code = main(["demo", "clone-mixed", "--probs", "0.5,0.5000000005"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: probabilities must be nonnegative and sum to 1\n"


def test_clone_mixed_rejects_a_single_probability(capsys):
    # one probability is an invalid --probs value, not a cloner of side 1
    code = main(["demo", "clone-mixed", "--probs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --probs needs at least two probabilities\n"


@pytest.mark.parametrize("value, message", [
    ("@", "--alphabet @ needs a file name"),
    ("zero-plus", "unknown alphabet 'zero-plus'; use preset:zero-plus or @file"),
    ("@{one}", "alphabet dimension must be >= 2, got 1"),
])
def test_malformed_alphabet_value_is_a_usage_error(value, message, tmp_path, capsys):
    # a bare @ names no file: a malformed value, not a directory to read; a
    # 1 x 1 alphabet is an Alphabet, but has no cloner
    (tmp_path / "one.mat").write_text("matrix 1 1\n1\n")
    code = main(["demo", "clone-pure", "--alphabet", value.format(one=tmp_path / "one.mat")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("via", ["circuit", "alphabet"])
def test_unreadable_matrix_file_is_io_error(via, kind, tmp_path, capsys):
    # a matrix file named by a circuit's gate line or by --alphabet that
    # does not exist, or is a directory
    path = tmp_path / "u.mat"
    if kind == "directory":
        path.mkdir()
    if via == "circuit":
        argv = ["run", write_circuit(tmp_path, SMALLEST + "gate unitary A @u.mat\n")]
    else:
        argv = ["demo", "clone-pure", "--alphabet", f"@{path}"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    reason = {"missing": "No such file or directory", "directory": "Is a directory"}[kind]
    where = "gate on line 5: " if via == "circuit" else ""
    assert captured.err == f"error: {where}cannot read {path}: {reason}\n"


# each line is not a state, but the kron of the two lines is |00><00|
NON_STATE_PRODUCTS = {
    "negative": ("-1 0 ; 0 0", "-1 0 ; 0 0", "not PSD: min eigenvalue -1.000e+00"),
    "traces": ("2 0 ; 0 0", "0.5 0 ; 0 0", "trace 2.0 is not 1 within 1e-10"),
    "conjugates": ("0+1i 0 ; 0 0", "0-1i 0 ; 0 0",
                   "matrix is not Hermitian: max |h - h^dag| = 2.000e+00"),
}


@pytest.mark.parametrize("a, b, message", NON_STATE_PRODUCTS.values(),
                         ids=list(NON_STATE_PRODUCTS))
def test_input_lines_whose_product_is_a_state_are_rejected(a, b, message, tmp_path,
                                                           capsys):
    text = (f"system A 2\nsystem B 2\nsystem CTC 2\ninput mixed A : {a}\n"
            f"input mixed B : {b}\ngate swap A CTC\n")
    assert main(["run", write_circuit(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input on line 4: {message}\n"


def test_long_circuit_of_accepted_gates_runs(tmp_path, capsys):
    # 400 unitary lines of a Hadamard written to 10 digits (each within the
    # unitarity bar) and 58 swaps: the product drifts by 1.5e-8, within the
    # bar once per dense gate
    (tmp_path / "h.mat").write_text(
        "matrix 2 1\n0.7071067812 0.7071067812 ;\n0.7071067812 -0.7071067812 ;\n")
    lines = SMALLEST.splitlines()[:3]
    for k in range(400):
        if k % 7 == 0:
            lines.append("gate swap A CTC")
        lines.append(f"gate unitary {('A', 'CTC')[k % 2]} @h.mat")
    circuit = write_circuit(tmp_path, "\n".join(lines) + "\n")
    assert main(["run", circuit]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver did not converge (residual ")
    assert 7e-9 < float(err.rsplit(" ", 1)[1].rstrip(")\n")) < 8e-9
    assert main(["run", circuit, "--tol", "1e-7"]) == 0
    # the map drifts off trace preservation: no singular value of S - I falls
    # in the multiplicity window
    assert json.loads(capsys.readouterr().out)["fixed_point"]["multiplicity"] == 0


def test_single_bad_mixed_line_keeps_its_message(tmp_path, capsys):
    text = "system A 2\nsystem CTC 2\ninput mixed A : 0.6 0.5 ; 0.5 0.4\ngate swap A CTC\n"
    assert main(["run", write_circuit(tmp_path, text)]) == 1
    assert capsys.readouterr().err == "error: input on line 3: not PSD: min eigenvalue -9.902e-03\n"


@pytest.mark.parametrize("via", ["input", "gate", "alphabet"])
def test_non_finite_literal_is_one_line_error(via, tmp_path, capsys, recwarn):
    path = tmp_path / "u.mat"
    path.write_text("matrix 2 1\n1e999 0 ;\n0 1 ;\n")
    expected = f"error: {path}: complex literal '1e999' is not finite"
    if via == "input":
        mixed = SMALLEST.replace("input pure A : 1 0", "input mixed A : 1e999 0 ; 0 0")
        argv = ["run", write_circuit(tmp_path, mixed)]
        expected = f"{argv[1]}:line 3, column 17: complex literal '1e999' is not finite"
    elif via == "gate":
        argv = ["run", write_circuit(tmp_path, SMALLEST + "gate unitary A @u.mat\n")]
        expected = f"error: gate on line 5: {path}: complex literal '1e999' is not finite"
    else:
        argv = ["demo", "clone-pure", "--alphabet", f"@{path}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(expected)
    assert captured.err.count("\n") == 1
    assert recwarn.list == []


@pytest.mark.parametrize("via", ["mixed", "pure", "gate", "alphabet"])
def test_huge_finite_entries_are_one_line_error(via, tmp_path, capsys, recwarn):
    # entries near the float limit overflow inside the checks, which must
    # report the overflowed value and print no numpy warning
    path = tmp_path / "u.mat"
    path.write_text("matrix 2 1\n1e308 0 ;\n1e308 1 ;\n")
    if via == "mixed":
        argv = ["run", write_circuit(tmp_path, SMALLEST.replace(
            "input pure A : 1 0", "input mixed A : 1e308 0 ; 0 1e308"))]
        expected = "error: input on line 3: trace inf is not 1 within 1e-10\n"
    elif via == "pure":
        argv = ["run", write_circuit(tmp_path, SMALLEST.replace("1 0", "1e308 1e308"))]
        expected = f"{argv[1]}:line 3, column 1: pure input norm inf is not 1 within 1e-06\n"
    elif via == "gate":
        argv = ["run", write_circuit(tmp_path, SMALLEST + "gate unitary A @u.mat\n")]
        expected = "error: gate on line 5: u.mat: not unitary: max |U^dag U - I| = inf\n"
    else:
        argv = ["demo", "clone-pure", "--alphabet", f"@{path}"]
        expected = "error: state norm inf is not 1 within 1e-10\n"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == expected
    assert recwarn.list == []


def test_nosignal_pure_cloner_passes(capsys):
    code = main(["demo", "nosignal", "--cloner", "pure"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.endswith("PASS demo nosignal\n")
    report = json.loads(captured.out.rsplit("PASS", 1)[0])
    assert report["deviation"] <= 1e-9
    expected = np.array(report["expected_AB"]["entries"])[:, 0].reshape(4, 4)
    assert np.allclose(expected, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


def test_module_entry_point_exit_code():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "ctcsim", "sweep", "fixed-points", "--trials", "-3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


# a non-orthogonal N = 4 alphabet, one state per column
ALPHABET4 = """\
matrix 4 1
1.0 0.6 0.5 0.0 ;
0.0 0.8 0.0+0.5i 0.6 ;
0.0 0.0 0.5 0.0 ;
0.0 0.0 -0.5 0.0+0.8i ;
"""


def write_cloner3(tmp_path):
    """The pure cloner of a fixed non-orthogonal N = 3 alphabet on its
    state 1, as a circuit file: its 9 x 9 output and A,B marginal are
    above the writer's size cutoff."""
    from ctcsim import dsl
    from ctcsim.cloning import Alphabet
    from ctcsim.quantum import PureState, basis_mappers

    alphabet = Alphabet((PureState.basis(3, 0), PureState.normalized([0.6, 0.8j, 0]),
                         PureState.normalized([0.5, -0.5, 0.5 + 0.5j])))
    (tmp_path / "uk.mat").write_text(dsl.format_matrix_file(basis_mappers(alphabet).blocks))
    amps = " ".join(dsl.format_complex(a) for a in alphabet.states[1].amps)
    return write_circuit(tmp_path, (
        f"system A 3\nsystem B 3\nsystem CTC 3\ninput pure A : {amps}\n"
        "input pure B : 1 0 0\ngate swap A CTC\ngate csum A B\n"
        "gate select B CTC @uk.mat\ngate select_adj A B @uk.mat\n"
        "gate select_adj CTC A @uk.mat\n"), "cloner3.ctc")


REPORT_ARGVS = [
    ["run", "{circuit}"],
    ["run", "{circuit}", "--trace-out", "A"],
    ["run", "{cloner3}", "--trace-out", "A,B"],
    ["run", "{cloner3}", "--trace-out", "B,A"],
    ["demo", "clone-pure", "--index", "1"],
    ["demo", "clone-pure", "--alphabet", "@{alphabet4}", "--index", "2"],
    ["demo", "clone-mixed", "--probs", "0.2,0.3,0.5"],
    ["demo", "nosignal", "--cloner", "pure"],
    ["sweep", "fidelity-props", "--trials", "5", "--seed", "3"],
    ["sweep", "fixed-points", "--trials", "5", "--dim", "3"],
    ["sweep", "no-cloning-baseline", "--trials", "5"],
    ["sweep", "fixed-points", "--trials", "0"],
]


@pytest.mark.parametrize("argv", REPORT_ARGVS, ids=" ".join)
def test_report_writer_matches_json_dumps(argv, tmp_path, monkeypatch, capsys):
    # json.dumps(indent=2, sort_keys=True) is the oracle for every report shape
    written = []
    write = cli.report_json
    monkeypatch.setattr(cli, "report_json",
                        lambda report: written.append(report) or write(report))
    (tmp_path / "alphabet4.txt").write_text(ALPHABET4)
    files = {"circuit": write_circuit(tmp_path), "cloner3": write_cloner3(tmp_path),
             "alphabet4": str(tmp_path / "alphabet4.txt")}
    assert main([a.format(**files) for a in argv]) == 0
    (report,) = written
    # a matrix's entries array and a sweep's per-trial columns both convert
    # to the plain lists they are written as
    assert capsys.readouterr().out.startswith(
        json.dumps(report, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n")
    # every matrix holds its entries as one float array, never a nested list
    matrices = []

    def walk(node):
        if isinstance(node, dict):
            if "entries" in node and "rows" in node:
                matrices.append(node)
            else:
                for value in node.values():
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(report)
    assert bool(matrices) == (argv[0] != "sweep")
    for doc in matrices:
        entries = doc["entries"]
        assert type(entries) is np.ndarray and entries.dtype == np.float64
        assert entries.shape == (doc["rows"] * doc["cols"], 2)


def test_report_writer_edge_values():
    doc = {
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "none": None,
        "bools": [True, False, [True, 1, 1.0]],
        "ints": [0, -7, 2**70, -(2**64)],
        "floats": [-0.0, 5e-324, 1e308, 0.1, np.float64(1 / 3), float("nan"),
                   float("inf"), -float("inf")],
        "text": ["", "caf\u00e9 \u2603 \U0001f600", "quote \" back \\ tab \t nl \n",
                 "\x00\x1f"],
        "\u00e9 key \"q\"": 1,
        "entries": [[0.5, -0.0], [1e-300, float("nan")], [float("inf"), 2.0]],
        "not pairs": [[1.0, 2], [np.float64(0.5), 1.0], [1.0], [1.0, 2.0, 3.0],
                      [[1.0, 2.0], (3.0, 4.0)], [(1.0, 2.0)]],
        "one pair": [[1.0, 2.0]],
        "nested": {"b": [{"z": [], "a": {}}], "a": [[[]]]},
    }
    assert cli.report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    # only a matrix_doc's non-empty (k, 2) float64 entries array is written;
    # any other array raises, and none is written as a few pairs
    arrays = [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 2)),
              *(np.zeros((2, 2), dtype) for dtype in (int, complex, np.float32))]
    for value in (np.int64(3), {1: 2.0}, {"x": {1, 2}}, *({"x": a} for a in arrays)):
        with pytest.raises(TypeError):
            cli.report_json(value)


def hermitian_with_signed_zeros(n):
    """An n x n Hermitian matrix, n >= 3: each off-diagonal magnitude
    appears twice, its imaginary parts of opposite signs, and the imaginary
    part 0.0 of entry (0, 1) is mirrored as -0.0."""
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = z + z.conj().T
    h[0, 1], h[1, 0] = complex(0.25, 0.0), complex(0.25, -0.0)
    h[2, 2] = complex(-0.0, 0.0)
    return h


def test_report_writer_on_matrix_docs():
    # matrix_doc entries are float arrays, written as json.dumps writes
    # their nested lists
    n = 8  # 2 n^2 floats, above the writer's size cutoff
    assert 2 * n * n >= cli.DISTINCT_MIN_FLOATS
    h = hermitian_with_signed_zeros(n)
    parts = np.stack((h.real, h.imag))
    zeros = np.signbit(parts[parts == 0])
    assert zeros.any() and not zeros.all()
    odd = h.copy()
    odd[0, 0], odd[1, 1], odd[2, 2] = complex(np.nan, np.inf), -np.inf, 5e-324
    doc = {
        "signed zeros": cli.matrix_doc(h),
        "non-finite": cli.matrix_doc(odd),
        "small": cli.matrix_doc(hermitian_with_signed_zeros(3)),
        "one by one": cli.matrix_doc([[complex(-0.0, 5e-324)]]),
        # equal matrices made apart, at two other depths
        "again": [{"deeper": cli.matrix_doc(h.copy())}, cli.matrix_doc(h.copy())],
    }
    doc["same object"] = {"deeper": {"still": doc["signed zeros"]}}
    assert cli.report_json(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                              default=np.ndarray.tolist)


def test_report_writer_on_trial_columns():
    # per-trial columns are written as json.dumps writes their rows, at any
    # depth, with signed zeros, NaN, ±inf, integer columns and a field name
    # the row template must escape
    floats = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1])
    columns = cli.TrialColumns({"trial": np.arange(6), "value": floats,
                                "count": np.array([1, 2, 1, 4, 0, -3]),
                                'a "{0}" }{ field': floats[::-1].copy()})
    doc = {"per_trial": columns, "deeper": [{"rows": columns}],
           "none": cli.TrialColumns({"trial": np.arange(0), "value": floats[:0]})}
    assert columns.tolist()[3] == {"trial": 3, "value": -np.inf, "count": 4,
                                   'a "{0}" }{ field': np.inf}
    assert cli.report_json(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                              default=lambda o: o.tolist())


def test_distinct_magnitudes_are_formatted_once(monkeypatch):
    # one float.__repr__ per distinct magnitude of a matrix, matched by bits,
    # and none for a matrix equal to one already written
    h = hermitian_with_signed_zeros(8)
    flat = np.stack((h.real, h.imag), -1).reshape(-1)
    magnitudes = set(np.abs(flat).tolist())
    assert len(magnitudes) < flat.size * 2 // 3  # the mirror repeats each one
    formatted = []

    def counting_map(func, *iterables):
        if func is float.__repr__:
            items = list(*iterables)
            formatted.extend(items)
            return map(func, items)
        return map(func, *iterables)

    monkeypatch.setattr(cli, "map", counting_map, raising=False)
    doc = {"a": cli.matrix_doc(h), "b": [{"c": cli.matrix_doc(h.copy())}]}
    assert cli.report_json(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                              default=np.ndarray.tolist)
    assert sorted(formatted) == sorted(magnitudes)


def test_plain_pairs_write_as_matrix_docs():
    # a plain list of [re, im] pairs takes the generic list path, and
    # writes the text of the matrix_doc array of the same matrix
    h = hermitian_with_signed_zeros(8)
    made = cli.matrix_doc(h)
    plain = dict(made, entries=[list(pair) for pair in made["entries"]])
    assert type(plain["entries"]) is list
    assert cli.report_json({"m": plain}) == cli.report_json({"m": made})
    assert cli.report_json({"m": plain}) == json.dumps({"m": plain}, indent=2,
                                                       sort_keys=True)


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 256. GiB for an array with shape (34359738368,) and data "
     "type complex128",
     "error: Unable to allocate 256. GiB for an array with shape (34359738368,) and "
     "data type complex128\n"),
    ("", "error: out of memory\n"),
])
def test_out_of_memory_is_one_line_solver_failure(message, line, monkeypatch, tmp_path,
                                                  capsys):
    # a circuit too large for memory fails in lowering; no large array is made
    from ctcsim import dsl

    def too_large(spec, base_dir="."):
        raise MemoryError(message)

    monkeypatch.setattr(dsl, "lower", too_large)
    code = main(["run", write_circuit(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == line


BOM = "\ufeff"


def test_files_with_a_byte_order_mark_read_as_without(tmp_path):
    """A circuit, matrix or alphabet file saved as UTF-8 with a byte order
    mark gives the report bytes of the same file without one."""
    from ctcsim import dsl
    family = dsl.format_matrix_file([np.eye(2), [[0.6, -0.8], [0.8, 0.6]]])
    circuit = SMALLEST + "gate select A CTC @fam.mat\n"
    alphabet = dsl.format_matrix_file([[[1, 0.6], [0, 0.8]]])
    reports = []
    for mark in ("", BOM):
        d = tmp_path / ("bom" if mark else "plain")
        d.mkdir()
        (d / "fam.mat").write_text(mark + family, encoding="utf-8")
        (d / "alpha.mat").write_text(mark + alphabet, encoding="utf-8")
        assert main(["run", write_circuit(d, mark + circuit),
                     "--out", str(d / "run.json")]) == 0
        assert main(["demo", "clone-pure", "--alphabet", f"@{d / 'alpha.mat'}",
                     "--out", str(d / "demo.json")]) == 0
        reports.append([(d / name).read_bytes() for name in ("run.json", "demo.json")])
    assert (tmp_path / "bom" / "fam.mat").read_bytes().startswith(BOM.encode())
    assert reports[0] == reports[1]
