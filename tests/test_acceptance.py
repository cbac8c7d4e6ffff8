"""End-to-end acceptance suite. Each test prints one PASS line for its
criterion; tolerances are fixed here, not configurable."""

import json
import time

import numpy as np
import pytest

from conftest import (
    cesaro_fixed_point,
    classical_copy_circuit,
    random_alphabet,
    random_kraus_channel,
    zero_plus_alphabet,
)
from ctcsim import dsl, linalg
from ctcsim.cli import main
from ctcsim.cloning import (
    build_mixed_cloner,
    build_pure_cloner,
    check_cloning_condition,
    make_problem,
    no_ctc_baseline,
    run_clone,
)
from ctcsim.engine import (
    DeutschProblem,
    evolve,
    solve_fixed_point,
)
from ctcsim.fidelity import check_monotonicity, check_multiplicativity, fidelity
from ctcsim.nosignal import check_channel_invariance, run_entangled_clone
from ctcsim.quantum import (
    Alphabet,
    DensityMatrix,
    Layout,
    PureState,
    embed_on_registers,
)
from ctcsim.sampling import haar_unitary, random_density

# nonlinearity constant for the {|0>,|+>} cloner, pinned before the build by
# an independent brute-force oracle (scipy sqrtm fidelity, null-space solver)
NONLINEARITY_DELTA = 0.1584615590295338


def _elapsed(start, budget, label):
    took = time.monotonic() - start
    assert took < budget, f"{label} exceeded {budget}s ({took:.1f}s)"
    return took


def test_criterion_1_pure_cloning(rng):
    start = time.monotonic()
    alphabets = [zero_plus_alphabet()]
    for _ in range(20):
        n = int(rng.integers(2, 5))
        alphabets.append(random_alphabet(rng, n))
    for alpha in alphabets:
        cloner = build_pure_cloner(alpha)
        for state in alpha.states:
            rep = run_clone(cloner, state.density())
            expected = linalg.kron(state.projector(), state.projector())
            assert linalg.trace_distance(rep.output.mat, expected) <= 1e-9
            assert rep.fixed_point.residual <= 1e-10
            assert rep.fixed_point.multiplicity == 1
    took = _elapsed(start, 5.0, "criterion 1")
    print(f"\nPASS criterion 1: pure cloning exact on 21 alphabets ({took:.2f}s)")


def test_criterion_2_mixed_cloning(rng):
    start = time.monotonic()
    targets = [np.array([0.25, 0.75])]
    for _ in range(10):
        n = int(rng.integers(2, 4))
        p = rng.random(n)
        targets.append(p / p.sum())
    for probs in targets:
        cloner = build_mixed_cloner(len(probs))
        rho = DensityMatrix(np.diag(probs.astype(complex)))
        rep = run_clone(cloner, rho)
        assert linalg.trace_distance(
            rep.output.mat, linalg.kron(rho.mat, rho.mat)
        ) <= 1e-10
        assert linalg.trace_distance(rep.fixed_point.rho_ctc.mat, rho.mat) <= 1e-10
    took = _elapsed(start, 2.0, "criterion 2")
    print(f"\nPASS criterion 2: mixed cloning exact on 11 targets ({took:.2f}s)")


def test_criterion_3_no_signalling(rng):
    start = time.monotonic()
    cloner = build_mixed_cloner(2)
    bell = PureState.normalized([0, 1, 1, 0]).density().with_dims((2, 2))
    report = run_entangled_clone(cloner, bell)
    expected = linalg.kron(np.eye(2) / 2, np.eye(2) / 2)
    assert linalg.trace_distance(report.reduced_ab.mat, expected) <= 1e-10
    channels = [random_kraus_channel(rng, 2) for _ in range(100)]
    deviations = check_channel_invariance(cloner, bell, channels)
    assert max(deviations) <= 1e-9
    took = _elapsed(start, 5.0, "criterion 3")
    print(f"\nPASS criterion 3: no-signalling, 100 spectator channels ({took:.2f}s)")


def test_criterion_4_fidelity_properties(rng):
    start = time.monotonic()
    zero = PureState.basis(2, 0).density()
    one = PureState.basis(2, 1).density()
    assert abs(fidelity(zero, zero) - 1.0) <= 1e-12
    assert fidelity(zero, one) <= 1e-12
    for _ in range(1000):
        a, b = random_density(rng, 2), random_density(rng, 2)
        c, d = random_density(rng, 2), random_density(rng, 2)
        assert check_multiplicativity(a, c, b, d) <= 1e-9
        big_a, big_b = random_density(rng, 4), random_density(rng, 4)
        assert check_monotonicity(big_a, big_b, (2, 2), {1}) >= -1e-9
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9
        u = haar_unitary(rng, 2).mat
        ra = DensityMatrix(u @ a.mat @ u.conj().T)
        rb = DensityMatrix(u @ b.mat @ u.conj().T)
        assert abs(fidelity(ra, rb) - fidelity(a, b)) <= 1e-9
    took = _elapsed(start, 10.0, "criterion 4")
    print(f"\nPASS criterion 4: fidelity property suite, 1000 pairs ({took:.2f}s)")


def test_criterion_5_cloning_inequalities(rng):
    pure_alphabets = [zero_plus_alphabet()] + [
        random_alphabet(rng, int(rng.integers(2, 5))) for _ in range(5)
    ]
    for alpha in pure_alphabets:
        cloner = build_pure_cloner(alpha)
        reports = [run_clone(cloner, s.density()) for s in alpha.states]
        for i in range(len(alpha)):
            for j in range(i + 1, len(alpha)):
                f_cr = fidelity(reports[i].input_state, reports[j].input_state)
                f_ctc = fidelity(
                    reports[i].fixed_point.rho_ctc, reports[j].fixed_point.rho_ctc
                )
                ok_cr, ok_ctc, _ = check_cloning_condition(f_cr, f_ctc)
                assert ok_cr and ok_ctc
                assert f_ctc <= 1e-9  # fixed points pairwise orthogonal
    mixed_pairs = [(np.array([0.25, 0.75]), np.array([0.75, 0.25])),
                   (np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]))]
    for pa, pb in mixed_pairs:
        cloner = build_mixed_cloner(len(pa))
        ra = run_clone(cloner, DensityMatrix(np.diag(pa.astype(complex))))
        rb = run_clone(cloner, DensityMatrix(np.diag(pb.astype(complex))))
        f_cr = fidelity(ra.input_state, rb.input_state)
        f_ctc = fidelity(ra.fixed_point.rho_ctc, rb.fixed_point.rho_ctc)
        ok_cr, ok_ctc, _ = check_cloning_condition(f_cr, f_ctc)
        assert ok_cr and ok_ctc
    print("\nPASS criterion 5: cloning-condition inequalities on all pairs")


def test_criterion_6_nonlinearity_witness():
    alpha = zero_plus_alphabet()
    cloner = build_pure_cloner(alpha)
    rho0 = alpha.states[0].density()
    rho_plus = alpha.states[1].density()
    mix = DensityMatrix(0.5 * rho0.mat + 0.5 * rho_plus.mat)
    out_mix, _ = evolve(make_problem(cloner, mix))
    out0, _ = evolve(make_problem(cloner, rho0))
    out_plus, _ = evolve(make_problem(cloner, rho_plus))
    linear = 0.5 * out0.mat + 0.5 * out_plus.mat
    delta = linalg.trace_distance(out_mix.mat, linear)
    assert delta > 0.1
    assert abs(delta - NONLINEARITY_DELTA) <= 1e-9
    print(f"\nPASS criterion 6: nonlinearity delta = {delta:.12f}")


def test_criterion_7_no_ctc_baseline():
    rng = np.random.default_rng(7777)
    alpha = zero_plus_alphabet()
    ancilla = PureState.basis(2, 0).density()
    worst_floor = np.inf
    for _ in range(1000):
        infid = no_ctc_baseline(alpha, haar_unitary(rng, 8), ancilla)
        worst_floor = min(worst_floor, infid)
        assert infid > 1e-6
    ortho = Alphabet((PureState.basis(2, 0), PureState.basis(2, 1)))
    copy_infid = no_ctc_baseline(ortho, classical_copy_circuit(2), ancilla)
    assert copy_infid <= 1e-9
    print(f"\nPASS criterion 7: baseline floor {worst_floor:.4f} over 1000 U, "
          f"classical copy infidelity {copy_infid:.1e}")


def test_criterion_8_engine_properties(rng):
    layout = Layout((("CR", 2), ("CTC", 2)), ctc_index=1)
    worst_res = 0.0
    problems = []
    for _ in range(500):
        prob = DeutschProblem(layout, haar_unitary(rng, 4), random_density(rng, 2))
        problems.append(prob)
        fp = solve_fixed_point(prob)
        worst_res = max(worst_res, fp.residual)
        assert fp.residual <= 1e-10
    for prob in problems[:100]:
        a = solve_fixed_point(prob)
        b, _ = cesaro_fixed_point(prob)
        if a.multiplicity == 1:
            assert linalg.trace_distance(a.rho_ctc.mat, b) <= 1e-8
    ext = Layout((("CR", 2), ("R", 2), ("CTC", 2)), ctc_index=2)
    for prob in problems[:50]:
        u_ext = embed_on_registers(ext, ["CR", "CTC"], prob.interaction)
        cr_ext = DensityMatrix(
            linalg.kron(prob.cr_input.mat, random_density(rng, 2).mat), (2, 2)
        )
        fp_base = solve_fixed_point(prob)
        fp_ext = solve_fixed_point(DeutschProblem(ext, u_ext, cr_ext))
        assert linalg.trace_distance(fp_base.rho_ctc.mat, fp_ext.rho_ctc.mat) <= 1e-10
    print(f"\nPASS criterion 8: 500 fixed points (worst residual {worst_res:.1e}), "
          "solver agreement, spectator extension")


def test_criterion_9_dsl(rng, tmp_path, capsys):
    from test_dsl import make_random_spec

    # parse-serialize fixpoint on 100 generated specs
    for _ in range(100):
        spec = make_random_spec(rng)
        assert dsl.parse(dsl.serialize(spec)) == spec

    # fuzz: 1e5 inputs up to 64 KiB must never escape as a crash
    vocab = ["system", "input", "gate", "pure", "mixed", "swap", "csum",
             "select", "select_adj", "unitary", "A", "B", "CTC", ":", ";",
             "@f.mat", "1", "0.5", "1+2i", "2", "#", "é"]
    sizes = rng.geometric(0.02, size=100_000)
    for k in range(100_000):
        if k % 1000 == 0 and k > 0 and rng.random() < 0.01:
            n = 65536  # occasional full-size input
        else:
            n = min(int(sizes[k]), 65536)
        if k % 2 == 0:
            raw = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
            text = raw.decode("utf-8", errors="replace")
        else:
            words = rng.integers(0, len(vocab), size=max(1, n // 6))
            text = " ".join(vocab[w] for w in words[:64])
        try:
            dsl.parse(text)
        except dsl.CircuitSyntaxError:
            pass

    # the pure cloner, written as a circuit file, reproduces criterion 1
    from ctcsim.quantum import basis_mapper
    alpha = zero_plus_alphabet()
    mappers = [basis_mapper(alpha.states[k], k).mat for k in range(2)]
    (tmp_path / "uk.mat").write_text(dsl.format_matrix_file(mappers))
    for idx, state in enumerate(alpha.states):
        amps = " ".join(dsl.format_complex(a) for a in state.amps)
        circuit = (
            "system A 2\nsystem B 2\nsystem CTC 2\n"
            f"input pure A : {amps}\n"
            "input pure B : 1 0\n"
            "gate swap A CTC\n"
            "gate csum A B\n"
            "gate select B CTC @uk.mat\n"
            "gate select_adj A B @uk.mat\n"
            "gate select_adj CTC A @uk.mat\n"
        )
        path = tmp_path / f"cloner{idx}.ctc"
        path.write_text(circuit)
        assert main(["run", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        entries = np.array(report["output"]["entries"])
        out = (entries[:, 0] + 1j * entries[:, 1]).reshape(4, 4)
        expected = linalg.kron(state.projector(), state.projector())
        assert linalg.trace_distance(out, expected) <= 1e-9
        assert report["fixed_point"]["multiplicity"] == 1
        assert report["fixed_point"]["residual"] <= 1e-10
    print("\nPASS criterion 9: DSL round-trip, fuzz, and cloner circuit via CLI")
