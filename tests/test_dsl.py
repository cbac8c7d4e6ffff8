import numpy as np
import pytest

from ctcsim import dsl, linalg
from ctcsim.dsl import CircuitSyntaxError, parse, serialize
from ctcsim.engine import evolve
from ctcsim.quantum import GateList
from ctcsim.sampling import haar_unitary, random_pure

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

    def test_duplicate_system(self):
        with pytest.raises(CircuitSyntaxError) as exc:
            parse("system A 2\nsystem A 2\nsystem CTC 2\ninput pure A : 1 0\n")
        assert any("duplicate" in e.message for e in exc.value.errors)


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

    def test_missing_file(self, tmp_path):
        text = SMALLEST + "gate unitary A @missing.mat\n"
        with pytest.raises(OSError):
            dsl.lower(parse(text), tmp_path)


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
