import gc
import re
import sys

import numpy as np
import pytest

from conftest import kron_all, random_alphabet, random_pure
from ctcsim import dsl, linalg
from ctcsim.cli import main
from ctcsim.cloning import build_pure_cloner, make_problem
from ctcsim.dsl import CircuitSyntaxError, parse, serialize
from ctcsim.engine import evolve
from ctcsim.quantum import GateList, basis_mappers
from ctcsim.sampling import haar_unitary, random_density

SMALLEST = """\
system A 2
system CTC 2
input pure A : 1 0
gate swap A CTC
"""


def make_random_spec(rng):
    """Generator for round-trip property tests: random but valid circuits."""
    n_regs = int(rng.integers(1, 4))
    names = [f"R{k}" for k in range(n_regs)]
    dims = {n: int(rng.integers(2, 4)) for n in names}
    dims["CTC"] = int(rng.integers(2, 4))
    lines = [f"system {n} {dims[n]}" for n in names + ["CTC"]]
    for n in names:
        if rng.random() < 0.5:
            amps = random_pure(rng, dims[n]).amps
            vals = " ".join(dsl.format_complex(a) for a in amps)
            lines.append(f"input pure {n} : {vals}")
        else:
            p = rng.random(dims[n])
            p /= p.sum()
            rows = " ; ".join(
                " ".join(dsl.format_complex(p[i] if i == j else 0.0)
                         for j in range(dims[n]))
                for i in range(dims[n])
            )
            lines.append(f"input mixed {n} : {rows}")
    candidates = [n for n in names + ["CTC"]]
    for _ in range(int(rng.integers(0, 4))):
        pairs = [(a, b) for a in candidates for b in candidates
                 if a != b and dims[a] == dims[b]]
        if not pairs:
            break
        a, b = pairs[int(rng.integers(0, len(pairs)))]
        kind = "swap" if rng.random() < 0.5 else "csum"
        lines.append(f"gate {kind} {a} {b}")
    return parse("\n".join(lines) + "\n")


class TestParse:
    def test_smallest_valid_circuit(self):
        spec = parse(SMALLEST)
        assert [s.name for s in spec.systems] == ["A", "CTC"]
        assert len(spec.gates) == 1
        assert spec.gates[0].kind == "swap"

    def test_bell_like_joint_input(self):
        text = (
            "system A 2\nsystem R 2\nsystem CTC 2\n"
            "input pure A R : 0 0.7071067812 0.7071067812 0\n"
            "gate swap A CTC\n"
        )
        spec = parse(text)
        (decl,) = spec.inputs
        assert decl.regs == ("A", "R")
        assert abs(np.linalg.norm(decl.amps) - 1.0) <= 1e-12

    def test_ctc_input_rejected(self):
        text = "system A 2\nsystem CTC 2\ninput pure A : 1 0\ninput pure CTC : 1 0\n"
        with pytest.raises(CircuitSyntaxError) as exc:
            parse(text)
        err = exc.value.errors[0]
        assert "CTC register takes no input" in err.message
        assert err.line == 4

    def test_comments_and_blank_lines(self):
        spec = parse("# ctcsim v1\n\n" + SMALLEST + "\n# trailing\n")
        assert len(spec.gates) == 1

    def test_error_recovery_collects_all(self):
        text = (
            "system A 2\nsystem CTC 2\n"
            "input pure A : 1 0x\n"      # bad literal
            "gate swp A CTC\n"           # bad gate kind
            "frobnicate\n"               # unknown directive
        )
        with pytest.raises(CircuitSyntaxError) as exc:
            parse(text)
        assert len(exc.value.errors) >= 3

    def test_error_positions(self):
        with pytest.raises(CircuitSyntaxError) as exc:
            parse("system A 2\nsystem CTC 2\ninput pure A : 1 0.q\n")
        err = next(e for e in exc.value.errors if "complex" in e.message)
        assert err.line == 3
        assert err.column == 18

    def test_norm_policy(self):
        base = "system A 2\nsystem CTC 2\n"
        parse(base + "input pure A : 0.7071067812 0.7071067812\n")  # normalized
        with pytest.raises(CircuitSyntaxError):
            parse(base + "input pure A : 0.7 0.7\n")  # too far from unit norm

    def test_superscript_dimension_is_a_parse_error(self):
        # '²'.isdigit() holds, but int() cannot read it
        with pytest.raises(CircuitSyntaxError) as exc:
            parse("system A \u00b2\nsystem CTC 2\n")
        (err,) = exc.value.errors
        assert (err.line, err.column, err.message, err.expected) == (
            1, 10, "invalid dimension '\u00b2'", "integer >= 2")

    def test_duplicate_system(self):
        with pytest.raises(CircuitSyntaxError) as exc:
            parse("system A 2\nsystem A 2\nsystem CTC 2\ninput pure A : 1 0\n")
        assert any("duplicate" in e.message for e in exc.value.errors)


# one valid line of each gate kind, with the message and expected hint that
# a line of that kind with the wrong operands gets
GATE_LINES = {
    "swap": ("gate swap A CTC", "gate swap takes two registers",
             "gate swap <r1> <r2>"),
    "csum": ("gate csum A CTC", "gate csum takes two registers",
             "gate csum <r1> <r2>"),
    "select": ("gate select A CTC @fam.mat",
               "gate select takes two registers and a @file",
               "gate select <ctrl> <tgt> @<file>"),
    "select_adj": ("gate select_adj CTC A @fam.mat",
                   "gate select_adj takes two registers and a @file",
                   "gate select_adj <ctrl> <tgt> @<file>"),
    "unitary": ("gate unitary A @u.mat", "gate unitary takes a register and a @file",
                "gate unitary <reg> @<file>"),
}
GATE_HEAD = "# ctcsim v1\nsystem A 2\nsystem CTC 2\ninput pure A : 1.0 0.0\n"


def _only_error(line):
    with pytest.raises(CircuitSyntaxError) as exc:
        parse(GATE_HEAD + line + "\n")
    (err,) = exc.value.errors
    return err


@pytest.mark.parametrize("kind", GATE_LINES)
class TestGateGrammar:
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_wrong_operand_count(self, kind, change):
        line, message, expected = GATE_LINES[kind]
        operands = line.split()[2:]
        if change == "drop":
            operands = operands[:-1]
        else:
            operands = operands[:-1] + ["B"] + operands[-1:]
        err = _only_error(" ".join(["gate", kind] + operands))
        assert (err.line, err.column) == (5, 6)
        assert (err.message, err.expected) == (message, expected)

    def test_file_operand_needs_at(self, kind):
        # a file named without '@' is rejected; swap and csum take no file
        line, message, expected = GATE_LINES[kind]
        bare = line.replace("@", "") if "@" in line else line + " fam.mat"
        err = _only_error(bare)
        assert (err.line, err.column, err.message, err.expected) == (
            5, 6, message, expected)

    def test_bare_at_is_an_error_at_the_operand(self, kind):
        # '@' with no file name is rejected at its column; swap and csum
        # take no file at all
        line, message, expected = GATE_LINES[kind]
        if "@" in line:
            bare = line.split("@")[0] + "@"
            column, message = len(bare), f"gate {kind}: @ needs a file name"
        else:
            bare, column = line + " @", 6
        err = _only_error(bare)
        assert (err.line, err.column, err.message, err.expected) == (
            5, column, message, expected)

    def test_roundtrip(self, kind):
        text = GATE_HEAD + GATE_LINES[kind][0] + "\n"
        assert serialize(parse(text)) == text


def test_gate_kind_errors_list_the_kinds():
    kinds = "swap, csum, select, select_adj or unitary"
    for line, message in [("gate", "gate needs a kind"),
                          ("gate swp A CTC", "unknown gate kind 'swp'")]:
        err = _only_error(line)
        assert (err.message, err.expected) == (message, kinds)


class TestComplexLiterals:
    @pytest.mark.parametrize("text,value", [
        ("1", 1 + 0j),
        ("-0.5", -0.5 + 0j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("1e-3+2.5e2i", complex(1e-3, 2.5e2)),
        (".5-.25i", 0.5 - 0.25j),
    ])
    def test_valid(self, text, value):
        assert dsl.parse_complex(text) == value

    @pytest.mark.parametrize("text", ["i", "1+i", "2j", "1 + 2i", "1+2", "--1", ""])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            dsl.parse_complex(text)

    @pytest.mark.parametrize("text", ["1e999", "-1e999", "0-1e999i", "1e400+1i"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="is not finite"):
            dsl.parse_complex(text)

    def test_format_roundtrip(self, rng):
        for _ in range(200):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert dsl.parse_complex(dsl.format_complex(z)) == z


class TestSerialize:
    def test_smallest_roundtrip(self):
        spec = parse(SMALLEST)
        assert parse(serialize(spec)) == spec

    def test_mixed_canonical_rendering(self):
        text = "system A 2\nsystem CTC 2\ninput mixed A : 0.25 0 ; 0 0.75\n"
        spec = parse(text)
        assert "input mixed A : 0.25 0.0 ; 0.0 0.75" in serialize(spec)

    def test_generated_specs_fixpoint(self, rng):
        for _ in range(25):
            spec = make_random_spec(rng)
            assert parse(serialize(spec)) == spec


class TestLower:
    def test_smallest_is_swap_problem(self, tmp_path):
        problem = dsl.lower(parse(SMALLEST), tmp_path)
        assert problem.interaction.side == 4
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.allclose(problem.interaction.mat, swap)
        out, fp = evolve(problem)
        assert linalg.trace_distance(fp.rho_ctc.mat, np.diag([1.0, 0.0])) <= 1e-10

    def test_ctc_declared_first_is_canonicalized(self, tmp_path):
        reordered = "system CTC 2\nsystem A 2\ninput pure A : 1 0\ngate swap A CTC\n"
        p1 = dsl.lower(parse(SMALLEST), tmp_path)
        p2 = dsl.lower(parse(reordered), tmp_path)
        assert np.max(np.abs(p1.interaction.mat - p2.interaction.mat)) == 0
        assert np.max(np.abs(p1.cr_input.mat - p2.cr_input.mat)) == 0

    def test_matrix_file_roundtrip(self, tmp_path, rng):
        mats = [haar_unitary(rng, 3).mat for _ in range(3)]
        path = tmp_path / "fam.mat"
        path.write_text(dsl.format_matrix_file(mats))
        loaded = dsl.load_matrix_file(path)
        assert len(loaded) == 3
        for a, b in zip(mats, loaded):
            assert np.max(np.abs(a - b)) == 0

    def test_unitary_gate_from_file(self, tmp_path, rng):
        u = haar_unitary(rng, 2)
        (tmp_path / "u.mat").write_text(dsl.format_matrix_file([u.mat]))
        text = SMALLEST + "gate unitary A @u.mat\n"
        problem = dsl.lower(parse(text), tmp_path)
        swap = np.eye(4)[[0, 2, 1, 3]]
        expected = np.kron(u.mat, np.eye(2)) @ swap
        assert np.max(np.abs(problem.interaction.mat - expected)) <= 1e-12

    def test_non_unitary_file_rejected(self, tmp_path):
        (tmp_path / "bad.mat").write_text("matrix 2 1\n1 1 ;\n0 1 ;\n")
        text = SMALLEST + "gate unitary A @bad.mat\n"
        with pytest.raises(ValueError, match="not unitary"):
            dsl.lower(parse(text), tmp_path)

    def test_lowering_leaves_no_cyclic_garbage(self, tmp_path, rng):
        # the @file families live in a plain dict: a cached function calling
        # itself would leave a reference cycle holding the matrices
        fam = [haar_unitary(rng, 2).mat for _ in range(2)]
        (tmp_path / "fam.mat").write_text(dsl.format_matrix_file(fam))
        (tmp_path / "u.mat").write_text(dsl.format_matrix_file([haar_unitary(rng, 2).mat]))
        spec = parse(SMALLEST + "gate select A CTC @fam.mat\ngate unitary A @u.mat\n"
                     "gate select_adj CTC A @fam.mat\ngate select A CTC @fam.mat\n")
        gc.collect()
        gc.disable()
        try:
            dsl.lower(spec, tmp_path)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0

    def test_shared_matrix_files_are_read_once(self, tmp_path, rng, monkeypatch):
        fam = [haar_unitary(rng, 2).mat for _ in range(2)]
        u = haar_unitary(rng, 2).mat
        (tmp_path / "fam.mat").write_text(dsl.format_matrix_file(fam))
        (tmp_path / "u.mat").write_text(dsl.format_matrix_file([u]))
        text = (
            "system A 2\nsystem B 2\nsystem CTC 2\n"
            "input pure A : 1 0\ninput pure B : 0 1\n"
            "gate select A B @fam.mat\ngate unitary A @u.mat\n"
            "gate select_adj B CTC @fam.mat\ngate select CTC A @fam.mat\n"
            "gate unitary CTC @u.mat\n"
        )
        reads = []
        load = dsl.load_matrix_file
        monkeypatch.setattr(dsl, "load_matrix_file",
                            lambda path: reads.append(path.name) or load(path))
        problem = dsl.lower(parse(text), tmp_path)
        assert sorted(reads) == ["fam.mat", "u.mat"]
        i2 = np.eye(2)
        proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        steps = [
            sum(np.kron(np.kron(proj[k], fam[k]), i2) for k in range(2)),
            np.kron(u, np.eye(4)),
            sum(np.kron(i2, np.kron(proj[k], fam[k].conj().T)) for k in range(2)),
            sum(np.kron(np.kron(fam[k], i2), proj[k]) for k in range(2)),
            np.kron(np.eye(4), u),
        ]
        expected = np.eye(8)
        for m in steps:
            expected = m @ expected
        assert np.max(np.abs(problem.interaction.mat - expected)) <= 1e-12

    def test_repeated_lines_lower_as_separate_lines(self, tmp_path, rng):
        # each distinct gate line is built once and reused; the result must
        # equal lowering every line on its own and chaining the gates
        fam = [haar_unitary(rng, 2).mat for _ in range(2)]
        (tmp_path / "fam.mat").write_text(dsl.format_matrix_file(fam))
        for name in ("u.mat", "v.mat"):
            (tmp_path / name).write_text(
                dsl.format_matrix_file([haar_unitary(rng, 2).mat]))
        head = ("system A 2\nsystem B 2\nsystem CTC 2\n"
                "input pure A : 1 0\ninput pure B : 0 1\n")
        lines = ["gate swap A CTC", "gate csum A B", "gate select_adj B CTC @fam.mat",
                 "gate unitary A @u.mat", "gate select A B @fam.mat",
                 "gate csum B A", "gate unitary CTC @u.mat", "gate unitary A @v.mat",
                 "gate select_adj CTC B @fam.mat"]
        body = [lines[i] for i in (0, 1, 2, 3, 0, 4, 1, 2, 5, 3, 6, 0, 7, 2, 8, 3)]
        problem = dsl.lower(parse(head + "\n".join(body) + "\n"), tmp_path)
        separate = [dsl.lower(parse(head + line + "\n"), tmp_path).interaction
                    for line in body]
        gates = problem.interaction.gates
        assert len(gates) == len(body)
        for (regs, u), one in zip(gates, separate):
            ((one_regs, one_u),) = one.gates
            assert regs == one_regs and np.array_equal(u.mat, one_u.mat)
        chained = GateList(problem.layout, tuple(g for one in separate for g in one.gates))
        assert np.array_equal(problem.interaction.mat, chained.mat)
        # a repeated line reuses the gate built for its first occurrence
        assert gates[0][1] is gates[4][1] and gates[2][1] is gates[7][1]

    @pytest.mark.parametrize("lines", [
        ["gate select A B @fam.mat", "gate select A B @fam.mat"],
        ["gate select B CTC @fam.mat", "gate select B CTC @fam.mat",
         "gate select A B @fam.mat"],
    ])
    def test_repeated_select_with_wrong_family_size(self, lines, tmp_path, rng):
        # a family of 2 fits the qubit B but not the qutrit A, however often
        # the lines repeat
        fam = [haar_unitary(rng, 2).mat for _ in range(2)]
        (tmp_path / "fam.mat").write_text(dsl.format_matrix_file(fam))
        text = ("system A 3\nsystem B 2\nsystem CTC 2\n"
                "input pure A : 1 0 0\ninput pure B : 0 1\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="fam.mat: select family size 2 "
                                             "does not match control dim 3"):
            dsl.lower(parse(text), tmp_path)

    def test_shared_bad_file_is_named(self, tmp_path):
        (tmp_path / "bad.mat").write_text("matrix 2 1\n1 1 ;\n0 1 ;\n")
        text = SMALLEST + "gate unitary A @bad.mat\ngate unitary CTC @bad.mat\n"
        with pytest.raises(ValueError, match="bad.mat: not unitary"):
            dsl.lower(parse(text), tmp_path)

    @pytest.mark.parametrize("line, message", [
        ("gate select B B @fam.mat", "control and target must differ"),
        ("gate select_adj B A @fam.mat", "family member 0 has side 2, target dim 3"),
        ("gate select A B @fam.mat", "fam.mat: select family size 2 does not match "
                                     "control dim 3"),
    ])
    def test_lines_sharing_a_file_select_keep_their_errors(self, line, message,
                                                           tmp_path, rng):
        fam = [haar_unitary(rng, 2).mat for _ in range(2)]
        (tmp_path / "fam.mat").write_text(dsl.format_matrix_file(fam))
        text = ("system A 3\nsystem B 2\nsystem CTC 2\n"
                "input pure A : 1 0 0\ninput pure B : 0 1\n"
                "gate select B CTC @fam.mat\ngate select_adj CTC B @fam.mat\n"
                + line + "\n")
        with pytest.raises(ValueError, match=message):
            dsl.lower(parse(text), tmp_path)

    def test_one_select_per_file_and_adjoint(self, tmp_path, rng):
        fam = [haar_unitary(rng, 2).mat for _ in range(2)]
        (tmp_path / "fam.mat").write_text(dsl.format_matrix_file(fam))
        text = (SMALLEST.replace("gate swap A CTC\n", "")
                + "gate select A CTC @fam.mat\ngate select CTC A @fam.mat\n"
                "gate select_adj A CTC @fam.mat\ngate select_adj CTC A @fam.mat\n")
        gates = [u for _, u in dsl.lower(parse(text), tmp_path).interaction.gates]
        assert gates[0] is gates[1] and gates[2] is gates[3]
        assert np.array_equal(gates[0].blocks, np.array(fam))
        assert np.array_equal(gates[2].blocks, np.array(fam).conj().swapaxes(1, 2))

    def test_zero_side_matrix_file_rejected_at_header(self, tmp_path):
        (tmp_path / "z.mat").write_text("matrix 0 1\n")
        with pytest.raises(ValueError, match="z.mat: matrix side must be at least 1"):
            dsl.load_matrix_file(tmp_path / "z.mat")

    def test_superscript_header_is_named(self, tmp_path):
        (tmp_path / "s.mat").write_text("matrix \u00b2 1\n1 0 ; 0 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="s.mat: expected header 'matrix <side> <count>'"):
            dsl.load_matrix_file(tmp_path / "s.mat")

    def test_missing_file(self, tmp_path):
        text = SMALLEST + "gate unitary A @missing.mat\n"
        with pytest.raises(OSError):
            dsl.lower(parse(text), tmp_path)

    @pytest.mark.parametrize("lines, message", [
        (["gate csum A A"], "gate on line 6: control and target must differ"),
        (["gate swap A CTC", "gate swap A B", "gate swap A B"],
         "gate on line 7: swap needs equal dims, got 2 and 3"),
        # fam.mat fits its first line; the line that does not fit is named
        (["gate select A CTC @fam.mat", "gate swap A CTC", "gate select B CTC @fam.mat"],
         "gate on line 8: fam.mat: select family size 2 does not match control dim 3"),
        (["gate unitary A @fam.mat"], "gate on line 6: fam.mat: expected a single matrix"),
    ])
    def test_lowering_errors_name_the_gate_line(self, lines, message, tmp_path, rng):
        fam = [haar_unitary(rng, 2).mat for _ in range(2)]
        (tmp_path / "fam.mat").write_text(dsl.format_matrix_file(fam))
        text = ("system A 2\nsystem B 3\nsystem CTC 2\n"
                "input pure A : 1 0\ninput pure B : 0 1 0\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            dsl.lower(parse(text), tmp_path)
        assert str(exc.value) == message


def write_pure_cloner(tmp_path, alphabet, k):
    """The pure cloner of ``alphabet`` on target k as a circuit file."""
    (tmp_path / "uk.mat").write_text(dsl.format_matrix_file(basis_mappers(alphabet).blocks))
    n = alphabet.dim
    amps = " ".join(dsl.format_complex(a) for a in alphabet.states[k].amps)
    blank = " ".join(["1"] + ["0"] * (n - 1))
    path = tmp_path / "cloner.ctc"
    path.write_text(
        f"system A {n}\nsystem B {n}\nsystem CTC {n}\n"
        f"input pure A : {amps}\ninput pure B : {blank}\n"
        "gate swap A CTC\ngate csum A B\ngate select B CTC @uk.mat\n"
        "gate select_adj A B @uk.mat\ngate select_adj CTC A @uk.mat\n")
    return path


def rows_text(m):
    return " ; ".join(" ".join(dsl.format_complex(v) for v in row) for row in m)


class TestInputLines:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pure_cloner_file_has_the_bits_of_the_api(self, n, tmp_path, rng):
        alphabet = random_alphabet(rng, n)
        k = int(rng.integers(n))
        path = write_pure_cloner(tmp_path, alphabet, k)
        out, fp = evolve(dsl.lower(parse(path.read_text()), tmp_path))
        api_out, api_fp = evolve(
            make_problem(build_pure_cloner(alphabet), alphabet.states[k].density()))
        assert np.array_equal(fp.rho_ctc.mat, api_fp.rho_ctc.mat)
        assert np.array_equal(out.mat, api_out.mat)
        assert fp.residual == api_fp.residual

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_run_eigendecomposes_nothing_above_the_ctc_side(self, n, tmp_path, rng,
                                                            eig_calls, capsys):
        # the CR input is the kron of the lines' kets: nothing of side n * n
        path = write_pure_cloner(tmp_path, random_alphabet(rng, n), 0)
        eig_calls.clear()
        assert main(["run", str(path)]) == 0
        sides = [m.shape[-1] for name, m in eig_calls if name in ("eigh", "eigvalsh")]
        assert sides and max(sides) <= n

    def test_multi_register_line_out_of_layout_order(self, tmp_path, rng):
        rho_ba, psi_c = random_density(rng, 6), random_pure(rng, 2)
        text = ("system A 2\nsystem B 3\nsystem C 2\nsystem CTC 2\n"
                f"input mixed B A : {rows_text(rho_ba.mat)}\n"
                "input pure C : " + " ".join(dsl.format_complex(a) for a in psi_c.amps)
                + "\ngate swap A CTC\n")
        cr = dsl.lower(parse(text), tmp_path).cr_input
        # registers [B, A, C] of the kron, moved into layout order [A, B, C]
        oracle = linalg.permute_registers(
            kron_all(rho_ba.mat, psi_c.projector()), [3, 2, 2], [1, 0, 2])
        assert cr.dims == (2, 3, 2)
        assert np.max(np.abs(cr.mat - oracle)) <= 1e-15

    def test_only_the_ctc_register(self, tmp_path):
        cr = dsl.lower(parse("system CTC 2\n"), tmp_path).cr_input
        oracle = linalg.permute_registers(kron_all(), [], [])
        assert cr.dims == ()
        assert np.max(np.abs(cr.mat - oracle)) <= 1e-15

    def test_each_line_is_validated_and_named(self, tmp_path):
        # the kron of the two lines is |00><00|, but neither line is a state
        text = ("system A 2\nsystem B 2\nsystem CTC 2\n"
                "input mixed A : -1 0 ; 0 0\ninput mixed B : -1 0 ; 0 0\n")
        with pytest.raises(ValueError, match="^input on line 4: not PSD"):
            dsl.lower(parse(text), tmp_path)

    def test_non_finite_literal_in_a_matrix_file_is_named(self, tmp_path):
        (tmp_path / "u.mat").write_text("matrix 2 1\n1e999 0 ;\n0 1 ;\n")
        with pytest.raises(ValueError, match="u.mat: complex literal '1e999' is not finite"):
            dsl.load_matrix_file(tmp_path / "u.mat")

    def test_bad_literal_is_the_only_error_of_its_line(self):
        with pytest.raises(CircuitSyntaxError) as exc:
            parse("system A 2\nsystem CTC 2\ninput mixed A : 1e999 0 ; 0 0\n")
        (err,) = exc.value.errors
        assert (err.line, err.column) == (3, 17)
        assert err.message == "complex literal '1e999' is not finite"


def test_fuzz_never_crashes(rng):
    # small smoke version of the acceptance fuzz target
    vocab = ["system", "input", "gate", "pure", "mixed", "swap", "csum",
             "select", "A", "CTC", ":", ";", "@f", "1", "0.5", "1+2i", "#x"]
    for _ in range(2000):
        if rng.random() < 0.5:
            raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 200))))
            text = raw.decode("utf-8", errors="replace")
        else:
            text = "\n".join(
                " ".join(vocab[int(rng.integers(0, len(vocab)))]
                         for _ in range(int(rng.integers(0, 8))))
                for _ in range(int(rng.integers(0, 6)))
            )
        try:
            parse(text)
        except CircuitSyntaxError:
            pass


def random_literal(rng) -> str:
    """A complex literal of the matrix-file grammar: signed or unsigned
    reals in every float form, zeros of either sign, with or without an
    imaginary part."""
    def real():
        mantissa = rng.choice(["0", "-0", "0.0", "7", "12.", ".5", "3.25", "0.000",
                               repr(float(rng.standard_normal())),
                               repr(float(rng.standard_normal() * 1e-300))])
        exponent = rng.choice(["", "e5", "E-3", "e+300", "e-320", "E0"])
        return mantissa.lstrip("+-") + ("" if "e" in mantissa else exponent)

    sign = rng.choice(["", "+", "-"])
    if rng.random() < 0.3:
        return sign + real()
    return sign + real() + rng.choice(["+", "-"]) + real() + "i"


def test_matrix_file_equals_per_literal_parse(tmp_path, rng):
    """The one-pass reader gives the bits of parse_complex on each literal,
    the sign of every zero included, whatever the separators."""
    seps = [" ", "  ", "\t", " ; ", ";", "\n", " ;\n", "\r\n", " # note\n"]
    for trial in range(200):
        side, count = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        tokens = [random_literal(rng) for _ in range(side * side * count)]
        body = "".join(t + seps[rng.integers(len(seps))] for t in tokens)
        path = tmp_path / f"m{trial}.mat"
        path.write_text(f"# header next\n\nmatrix {side} {count}\n{body}")
        expected = np.array([dsl.parse_complex(t) for t in tokens],
                            dtype=complex).reshape(count, side, side)
        loaded = dsl.load_matrix_file(path)
        assert loaded.shape == expected.shape and loaded.dtype == complex
        assert loaded.tobytes() == expected.tobytes(), tokens


@pytest.mark.parametrize("entries, message", [
    ("1 0 ; 0 1.0.0", "malformed complex literal '1.0.0'"),
    ("1 0 ; 0 1+2", "malformed complex literal '1+2'"),
    ("1 nan ; 0 1", "malformed complex literal 'nan'"),
    ("1 1_0 ; 0 1", "malformed complex literal '1_0'"),
    ("1e999 0 ; 0 1", "complex literal '1e999' is not finite"),
    ("1 0+1e999i ; x 1", "complex literal '0+1e999i' is not finite"),
    ("1 x ; 1e999 1", "malformed complex literal 'x'"),
])
def test_matrix_file_names_its_first_bad_literal(entries, message, tmp_path):
    (tmp_path / "u.mat").write_text(f"matrix 2 1\n{entries}\n")
    with pytest.raises(ValueError) as info:
        dsl.load_matrix_file(tmp_path / "u.mat")
    assert str(info.value) == f"{tmp_path / 'u.mat'}: {message}"


class RegexTokenParser(dsl._LineParser):
    """The line parser with a regex match object per token (':' and ';' on
    their own, else a run of non-space characters): the reference for the
    columns of the split tokenizer."""

    def parse_line(self, lineno, raw):
        toks = [(m.group(0), m.start() + 1)
                for m in re.finditer(r"[:;]|[^\s:;]+", raw.split("#", 1)[0])]
        if not toks:
            return
        head, col = toks[0]
        directive = self.DIRECTIVES.get(head)
        if directive is None:
            self.error(lineno, col, f"unknown directive {head!r}", "system, input or gate")
            return
        directive(self, lineno, toks, dsl.SourceSpan(lineno, col))


def random_line(rng):
    """A line of circuit words (mostly a directive first) and odd spaces."""
    vocab = ["system", "input", "gate", "pure", "mixed", "swap", "csum", "select",
             "select_adj", "unitary", "A", "B", "CTC", "2", "x2", "²", ":", ";",
             "A:", ":1", "1;0", "@f.mat", "@", "1", "-0.5", "1+2i", "1e999", "#c", "b@d"]
    spaces = [" ", "  ", "\t", "\u00a0", "\u2003", "\x1c", "\x0b", "\u3000"]
    words = [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(0, 7)))]
    if words and rng.random() < 0.7:
        words[0] = ["system", "gate", "input"][int(rng.integers(3))]
    gaps = [spaces[int(rng.integers(len(spaces)))] * int(rng.integers(0, 3))
            for _ in range(len(words) + 1)]
    return "".join(g + w for g, w in zip(gaps, words + [""]))


def parser_state(parser, lines):
    for lineno, raw in enumerate(lines, start=1):
        parser.parse_line(lineno, raw)
    return (parser.errors, parser.systems, parser.inputs, parser.gates,
            [(d.span.line, d.span.column) for d in parser.gates])


def test_tokenizer_columns_equal_the_regex_reference(rng):
    for _ in range(3000):
        lines = [random_line(rng) for _ in range(int(rng.integers(1, 5)))]
        assert (parser_state(dsl._LineParser(), lines)
                == parser_state(RegexTokenParser(), lines)), lines


# gate lines, clean and bad, that a long circuit may repeat
REPEATED_LINES = ["gate swap A CTC", "  gate swap A CTC", "gate csum B A",
                  "gate select A B @f.mat", "gate select_adj CTC A @g.mat",
                  "gate unitary B @f.mat", "\tgate unitary CTC @u.mat ", "gate swap A Z",
                  "gate swap A", "gate select A B f.mat", "gate unitary A @",
                  "gate rotate A", "gate"]
COMMENTS = ["", "#", "# c", "  # gate swap B A", "#x;y:z"]


def test_repeated_lines_parse_as_the_regex_reference(rng):
    # most lines repeat, with other comments: the parser tokenizes each
    # clean gate line once and copies it with the new line's span, the
    # reference tokenizes every line
    repeats = 0
    for _ in range(500):
        pool = ([REPEATED_LINES[int(k)]
                 for k in rng.choice(len(REPEATED_LINES), 4, replace=False)]
                + [random_line(rng) for _ in range(2)])
        lines = [pool[int(rng.integers(len(pool)))] + COMMENTS[int(rng.integers(len(COMMENTS)))]
                 for _ in range(int(rng.integers(2, 30)))]
        parser = dsl._LineParser()
        assert parser_state(parser, lines) == parser_state(RegexTokenParser(), lines), lines
        repeats += len(parser.gates) - len(parser.known_gates)
    assert repeats > 1000  # lines taken from the parser's table of clean lines


@pytest.mark.parametrize("line, column, message", [
    ("gate swap A Z", 1, "gate references unknown register 'Z'"),
    ("gate swap A", 6, "gate swap takes two registers"),
    ("gate unitary A @", 16, "gate unitary: @ needs a file name"),
])
def test_a_repeated_bad_gate_line_fails_at_each_line(line, column, message):
    text = SMALLEST + "\n".join([line, line + "  # again", line]) + "\n"
    with pytest.raises(CircuitSyntaxError) as exc:
        parse(text)
    assert [(e.line, e.column, e.message) for e in exc.value.errors] == [
        (lineno, column, message) for lineno in (5, 6, 7)]


def test_a_repeated_gate_line_equals_its_first_occurrence():
    # a repeat is a copy of the first line's GateDecl with its own span
    text = SMALLEST + "gate swap A CTC  # again\n  gate csum A CTC\ngate swap A CTC\n"
    first, _, csum, again = parse(text).gates
    for decl, line, column in ((first, 4, 1), (again, 7, 1), (csum, 6, 3)):
        assert type(decl) is dsl.GateDecl and type(decl.span) is dsl.SourceSpan
        assert (decl.span.line, decl.span.column) == (line, column)
    assert again == first and hash(again) == hash(first)
    assert (again.kind, again.regs, again.file) == ("swap", ("A", "CTC"), None)
    assert again.span is not first.span and again.span != first.span
    assert first.span == dsl.SourceSpan(4, 1)
    assert vars(again) == {**vars(first), "span": again.span}
    assert vars(again.span) == vars(dsl.SourceSpan(7, 1))
    with pytest.raises(AttributeError):
        again.kind = "csum"


def test_an_unknown_register_fails_on_every_line_that_names_it():
    # the registers of a distinct gate line are looked up once, but each of
    # its lines fails with its own line
    lines = ["gate swap A Z", "gate swap A CTC", "gate csum Z Y", "gate swap A Z  # again",
             "gate csum Z Y", "  gate swap A Z"]
    with pytest.raises(CircuitSyntaxError) as exc:
        parse(SMALLEST + "\n".join(lines) + "\n")
    assert [(e.line, e.column, e.message) for e in exc.value.errors] == [
        (5, 1, "gate references unknown register 'Z'"),
        (7, 1, "gate references unknown register 'Z'"),
        (7, 1, "gate references unknown register 'Y'"),
        (8, 1, "gate references unknown register 'Z'"),
        (9, 1, "gate references unknown register 'Z'"),
        (9, 1, "gate references unknown register 'Y'"),
        (10, 3, "gate references unknown register 'Z'"),
    ]


FAST_HEAD = ["system A 2", "system B 2", "system CTC 2", "input pure A : 1 0",
             "input pure B : 0 1"]
# gate lines of every kind, clean and bad, for the clean-line regex and the
# tokenizer to parse alike
FAST_LINES = [
    "gate swap A CTC", "gate csum B A", "gate select A B @f.mat",
    "gate select_adj CTC A @g.mat", "gate unitary B @u.mat", "\tgate\tswap\tA\tCTC\t",
    "  gate  unitary   A \t @u.mat  ", "gate swap A: CTC", "gate swap A CTC;",
    "gate swap A :CTC", "gate csum A;B CTC", "gate select A B @f:g", "gate unitary A @f;g",
    "gate unitary A @", "gate unitary A @ f", "gate select A B", "gate select A B @f @g",
    "gate unitary @f A", "gate select A @f B", "gate swap A B @f", "gate unitary A B @f",
    "gate unitary A", "gate swap A", "gate swap A B C", "gate unitary A f.mat",
    "gate unitary A@f", "gate unitary A @@f", "gate unitary @a @f", "gate swap b@d A",
    "gate rotate A", "gate Swap A B", "gate select_adjoint A B @f", "gate", "gate swap",
    "gategate swap A B", "gate swap 1A B", "gate swap A-1 B", "gate csum 2 3",
    "gate unitary -A @u.mat", "gate swap : ;", "gate swap A CTC #x;y:z",
]
ODD_SPACES = ["\r", "\xa0", "\u2003", "\x1c", "\x0b", "\u3000"]


def fast_path_corpus(rng):
    """Each line of FAST_LINES as it is, with a trailing comment, with one
    of its spaces or tabs made an odd space, and the same at random."""
    lines = []
    for line in FAST_LINES:
        gaps = [i for i, c in enumerate(line) if c in " \t"]
        lines += [line, line + "  # gate swap A B", line + "#"]
        for space in ODD_SPACES:
            for i in gaps[:1] + gaps[-1:] + [len(line)]:
                lines.append(line[:i] + space + line[i + 1:])
    for _ in range(300):
        lines.append(FAST_LINES[int(rng.integers(len(FAST_LINES)))])
        if rng.random() < 0.5:
            i = int(rng.integers(len(lines[-1]) + 1))
            space = ODD_SPACES[int(rng.integers(len(ODD_SPACES)))]
            lines[-1] = lines[-1][:i] + space + lines[-1][i:]
    return lines


def front_end(lines):
    """The line parser's and the structural check's state after ``lines``,
    each passed to ``parse_line`` as it is (with any '\\r' or '\\x1c')."""
    p = dsl._LineParser()
    for lineno, raw in enumerate(FAST_HEAD + lines, start=1):
        p.parse_line(lineno, raw)
    dsl._structural_check(p)
    return (p.errors, p.gates, [vars(g.span) for g in p.gates],
            {line: (decl, vars(decl.span)) for line, decl in p.known_gates.items()})


def test_clean_gate_lines_parse_as_the_tokenizer(rng, monkeypatch):
    corpus = fast_path_corpus(rng)
    fast = front_end(corpus)
    accepted = [line for line in corpus
                if dsl._CLEAN_GATE_RE.fullmatch(line.split("#", 1)[0])]
    text = "\n".join(FAST_HEAD + corpus) + "\n"
    with pytest.raises(CircuitSyntaxError) as on:
        parse(text)
    monkeypatch.setattr(dsl, "_CLEAN_GATE_RE", re.compile(r"(?!)"))
    assert front_end(corpus) == fast
    with pytest.raises(CircuitSyntaxError) as off:
        parse(text)
    assert on.value.errors == off.value.errors
    # the regex takes clean lines of every kind, with tabs and comments,
    # and no line with a space other than ' ' or '\t'
    assert set(dsl.GATE_KINDS) <= {line.split()[1] for line in accepted}
    assert any("\t" in line for line in accepted) and any("#" in line for line in accepted)
    for line in accepted:
        assert all(c in " \t" for c in line.split("#", 1)[0] if c.isspace()), repr(line)


def test_the_clean_line_regex_takes_no_other_space():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20
    for line in ("gate swap A CTC", "gate select_adj CTC A @g.mat", "gate unitary B @u.mat "):
        assert dsl._CLEAN_GATE_RE.fullmatch(line)
        for space in spaces:
            if space in " \t":
                continue
            for i in range(len(line) + 1):
                for odd in (line[:i] + space + line[i:], line[:i] + space + line[i + 1:]):
                    assert not dsl._CLEAN_GATE_RE.fullmatch(odd), repr(odd)


def long_circuit(rng, lines):
    """Hundreds of gate lines on four qubits and a CTC qubit, drawing on a
    few matrix files, as in the benchmark's long circuits."""
    regs = ["Q0", "Q1", "Q2", "Q3", "CTC"]
    body = [f"system {r} 2" for r in regs]
    body += [f"input pure {r} : 0.6 0+0.8i" for r in regs[:-1]]
    for i in range(lines):
        a, b = (regs[int(k)] for k in rng.choice(5, 2, replace=False))
        kind = ("swap", "csum", "unitary", "select")[i % 4]
        body.append({"swap": f"gate swap {a} {b}", "csum": f"gate csum {a} {b}",
                     "unitary": f"gate unitary {a} @u{rng.integers(6)}.mat",
                     "select": f"gate select {a} {b} @s{rng.integers(4)}.mat"}[kind])
    return "\n".join(body) + "\n"


def test_a_long_circuit_tokenizes_no_gate_line(rng, monkeypatch):
    # every gate line is clean: the regex parses each distinct one and the
    # table of clean lines each repeat; with every register declared, the
    # structural check visits no gate line
    tokenized = []
    tokenize = dsl._LineParser.DIRECTIVES["gate"]
    monkeypatch.setitem(dsl._LineParser.DIRECTIVES, "gate",
                        lambda p, lineno, *a: tokenized.append(lineno) or tokenize(p, lineno, *a))
    text = long_circuit(rng, 400)
    p = dsl._LineParser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        p.parse_line(lineno, raw)
    assert tokenized == [] and len(p.gates) == 400 and len(p.known_gates) < 400

    class Unvisited(list):
        def __iter__(self):
            raise AssertionError("the structural check visited the gate lines")

    p.gates = Unvisited(p.gates)
    dsl._structural_check(p)
    assert p.errors == []
    # one undeclared register: the gate lines are visited, and every line
    # naming it fails
    spec = parse(text)
    with pytest.raises(CircuitSyntaxError) as exc:
        parse("\n".join(line.replace("Q3", "Q9") if line.startswith("gate") else line
                        for line in text.splitlines()))
    assert [(e.line, e.message) for e in exc.value.errors] == [
        (g.span.line, "gate references unknown register 'Q9'")
        for g in spec.gates if "Q3" in g.regs]
    assert tokenized == []


BAD2 = "matrix 2 1\n1 1 ;\n0 1 ;\n"  # not unitary: max |U^dag U - I| = 1
BAD3 = "matrix 3 1\n1 0 0 ;\n0 1 0 ;\n0 0 2 ;\n"  # max |U^dag U - I| = 3
HUGE2 = "matrix 2 1\n1e308 0 ;\n0 1e308 ;\n"  # U^dag U overflows


class TestMatrixFileChecks:
    """``lower`` reads each @file once and checks each side's matrices in
    one stacked check; a file's failure is raised, with its own message, at
    the first gate line that uses it."""

    @staticmethod
    def run(tmp_path, capsys, lines, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        good = dsl.format_matrix_file([np.eye(2), [[0.6, -0.8], [0.8, 0.6]]])
        (tmp_path / "fam.mat").write_text(good)
        (tmp_path / "u.mat").write_text(dsl.format_matrix_file([[[0, 1], [1, 0]]]))
        path = tmp_path / "c.ctc"
        path.write_text("\n".join(lines) + "\n")
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    HEAD = ["system A 2", "system CTC 2", "input pure A : 1 0"]

    def test_non_unitary_before_missing(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, self.HEAD + [
            "gate unitary A @bad.mat", "gate unitary CTC @missing.mat"], {"bad.mat": BAD2})
        assert code == 1
        assert err == ("error: gate on line 4: bad.mat: not unitary: "
                       "max |U^dag U - I| = 1.000e+00\n")

    def test_missing_before_non_unitary(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, self.HEAD + [
            "gate unitary A @missing.mat", "gate unitary CTC @bad.mat"], {"bad.mat": BAD2})
        assert code == 3
        assert err.startswith(f"error: gate on line 4: cannot read {tmp_path / 'missing.mat'}: ")
        assert err.count("\n") == 1

    def test_misfit_select_before_non_unitary_file(self, tmp_path, capsys):
        # line 3's family of 2 does not fit the qutrit control A
        code, err = self.run(tmp_path, capsys, [
            "system A 3", "system CTC 2", "gate select A CTC @fam.mat",
            "input pure A : 1 0 0", "# a comment", "gate unitary CTC @bad.mat"],
            {"bad.mat": BAD2})
        assert code == 1
        assert err == ("error: gate on line 3: fam.mat: select family size 2 does not "
                       "match control dim 3\n")

    @pytest.mark.parametrize("first", ["bad2.mat", "bad3.mat"])
    def test_earlier_of_two_sides_wins(self, first, tmp_path, capsys):
        regs = {"bad2.mat": "CTC", "bad3.mat": "A"}
        lines = [f"gate unitary {regs[name]} @{name}"
                 for name in sorted(regs, key=lambda name: name != first)]
        code, err = self.run(tmp_path, capsys, [
            "system A 3", "system CTC 2", "input pure A : 1 0 0",
            "gate unitary CTC @u.mat", *lines], {"bad2.mat": BAD2, "bad3.mat": BAD3})
        defect = {"bad2.mat": "1.000e+00", "bad3.mat": "3.000e+00"}[first]
        assert code == 1
        assert err == (f"error: gate on line 5: {first}: not unitary: "
                       f"max |U^dag U - I| = {defect}\n")

    def test_overflowing_file_reads_inf(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, self.HEAD + [
            "gate unitary A @u.mat", "gate select A CTC @fam.mat",
            "gate unitary CTC @huge.mat"], {"huge.mat": HUGE2})
        assert code == 1
        assert err == "error: gate on line 6: huge.mat: not unitary: max |U^dag U - I| = inf\n"

    def test_one_check_per_side(self, tmp_path, monkeypatch):
        # files of sides 2 and 3, two of each side: two stacked checks
        from ctcsim import quantum
        calls = []
        for module in (dsl, quantum):
            check = module.check_unitary
            monkeypatch.setattr(module, "check_unitary",
                                lambda m, *a, check=check: calls.append(m.shape) or check(m))
        perm3 = np.eye(3)[[1, 2, 0]]
        files = {"u.mat": [[[0, 1], [1, 0]]], "fam.mat": [np.eye(2), np.eye(2)[::-1]],
                 "p.mat": [perm3], "q.mat": [perm3.T]}
        for name, mats in files.items():
            (tmp_path / name).write_text(dsl.format_matrix_file(mats))
        text = ("system A 3\nsystem B 2\nsystem CTC 2\ninput pure A : 1 0 0\n"
                "input pure B : 1 0\ngate unitary B @u.mat\ngate select B CTC @fam.mat\n"
                "gate unitary A @p.mat\ngate unitary A @q.mat\ngate unitary CTC @u.mat\n")
        dsl.lower(parse(text), tmp_path)
        assert sorted(calls) == [(2, 3, 3), (3, 2, 2)]
