import numpy as np
import pytest

from conftest import (
    cesaro_fixed_point,
    random_alphabet,
    svd_fixed_point,
    zero_plus_alphabet,
)
from ctcsim import engine, linalg
from ctcsim.cloning import build_mixed_cloner, build_pure_cloner, make_problem, run_clone
from ctcsim.engine import (
    DeutschProblem,
    build_superoperator,
    deutsch_map,
    evolve,
    kraus_stack,
    output_stack,
    output_state,
    solve_fixed_point,
    solve_stack,
)
from ctcsim.nosignal import _extended, run_entangled_clone
from ctcsim.quantum import (
    TRACE_TOL,
    DensityMatrix,
    GateList,
    Layout,
    PureState,
    Unitary,
    check_density,
    embed_on_registers,
    swap_gate,
)
from ctcsim.sampling import haar_unitary, random_density, random_pure


def two_register_problem(interaction, cr, d=2):
    layout = Layout((("CR", d), ("CTC", d)), ctc_index=1)
    return DeutschProblem(layout, interaction, cr)


def identity_problem(rng, d=2):
    return two_register_problem(
        Unitary(np.eye(d * d, dtype=complex)), random_density(rng, d), d
    )


def swap_problem(rng, d=2):
    layout = Layout((("CR", d), ("CTC", d)), ctc_index=1)
    return DeutschProblem(layout, swap_gate(layout, "CR", "CTC"), random_density(rng, d))


def oracle_evolved(problem, sigma):
    u = problem.interaction.mat
    return u @ linalg.kron(problem.cr_input.mat, sigma) @ u.conj().T


def oracle_map(problem, sigma):
    """The induced map from its definition: kron, U . U^dag, partial trace."""
    evolved = oracle_evolved(problem, sigma)
    return linalg.partial_trace(evolved, problem.layout.dims, [problem.layout.ctc_index])


def oracle_superoperator(problem):
    """Column by column: column i*d + j is vec(M(|i><j|))."""
    d = problem.ctc_dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.column_stack([oracle_map(problem, e).reshape(-1) for e in units])


def oracle_output(problem, sigma):
    layout = problem.layout
    keep = [i for i in range(len(layout.dims)) if i != layout.ctc_index]
    return linalg.partial_trace(oracle_evolved(problem, sigma), layout.dims, keep)


def pure_cloner_problem(rng, n):
    alphabet = random_alphabet(rng, n)
    return make_problem(build_pure_cloner(alphabet), alphabet.states[-1].density())


def mixed_cloner_problem(rng, n):
    probs = rng.dirichlet(np.ones(n))
    return make_problem(build_mixed_cloner(n), DensityMatrix(np.diag(probs + 0j)))


def haar_problem(rng, cr_dim=3, d=2):
    layout = Layout((("A", cr_dim), ("CTC", d)), ctc_index=1)
    return DeutschProblem(layout, haar_unitary(rng, cr_dim * d), random_density(rng, cr_dim))


def rank_two_problem(rng):
    layout = Layout((("A", 2), ("B", 2), ("CTC", 3)), ctc_index=2)
    psi, phi = random_pure(rng, 4), random_pure(rng, 4)
    cr = DensityMatrix(0.3 * psi.projector() + 0.7 * phi.projector(), (2, 2))
    return DeutschProblem(layout, haar_unitary(rng, 12), cr)


def nosignal_problem(rng):
    # the [A, B, R, CTC] problem of a no-signalling run on a random (A, R) input
    joint = random_density(rng, 4).factor
    cloner = build_pure_cloner(random_alphabet(rng, 2))
    layout, interaction, cr = _extended(cloner, joint[None], 2)
    rho = DensityMatrix._trusted(cr[0] @ cr[0].conj().T, layout.cr_dims, cr[0])
    return DeutschProblem(layout, interaction, rho)


def x_conjugation_problem():
    # the CTC qubit is conjugated by X whatever the CR state: the map cycles
    # |0><0| and |1><1|, and its fixed space is spanned by I and X
    layout = Layout((("CR", 2), ("CTC", 2)), ctc_index=1)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    inter = Unitary(linalg.kron(np.eye(2), x))
    return DeutschProblem(layout, inter, DensityMatrix.maximally_mixed(2))


def cycling_problem():
    # CR qubit in |0>, CTC qutrit, the permutation |0,0> -> |0,1> -> |0,0>,
    # |0,2> -> |1,0> -> |1,1> -> |1,2> -> |0,2>: a map that is not unital,
    # whose orbit from I/3 alternates between diag(2/3, 1/3, 0) and
    # diag(1/3, 2/3, 0) (S has eigenvalue -1); its fixed space has dimension 2
    layout = Layout((("CR", 2), ("CTC", 3)), ctc_index=1)
    perm = np.zeros((6, 6), dtype=complex)
    perm[[1, 0, 3, 4, 5, 2], range(6)] = 1.0
    return DeutschProblem(layout, Unitary(perm), PureState.basis(2, 0).density())


def multiplicity_four_problem(rng):
    # CR qubit in |0>, CTC qutrit, permutation swapping |0,2> and |1,0>
    layout = Layout((("CR", 2), ("CTC", 3)), ctc_index=1)
    perm = np.eye(6, dtype=complex)[[0, 1, 3, 2, 4, 5]]
    return DeutschProblem(layout, Unitary(perm), PureState.basis(2, 0).density())


ORACLE_CASES = {
    **{f"pure-n{n}": (lambda rng, n=n: pure_cloner_problem(rng, n)) for n in range(2, 6)},
    **{f"mixed-n{n}": (lambda rng, n=n: mixed_cloner_problem(rng, n)) for n in range(2, 6)},
    "haar-3x2": haar_problem,
    "haar-2x3": lambda rng: haar_problem(rng, 2, 3),
    "rank-two": rank_two_problem,
    "nosignal": nosignal_problem,
    "multiplicity-four": multiplicity_four_problem,
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kraus_form_matches_dense_oracle(case, rng):
    prob = ORACLE_CASES[case](rng)
    assert np.max(np.abs(build_superoperator(prob) - oracle_superoperator(prob))) <= 1e-12
    for _ in range(3):
        sigma = random_density(rng, prob.ctc_dim)
        mapped = deutsch_map(prob, sigma).mat
        assert np.max(np.abs(mapped - oracle_map(prob, sigma.mat))) <= 1e-12
        out = output_state(prob, sigma).mat
        assert np.max(np.abs(out - oracle_output(prob, sigma.mat))) <= 1e-12
    if case == "multiplicity-four":
        assert solve_fixed_point(prob).multiplicity == 4


def test_clone_runs_never_materialise_the_interaction(monkeypatch, rng):
    def refuse(self):
        raise AssertionError("a D x D interaction was materialised")

    monkeypatch.setattr(GateList, "unitary", property(refuse))
    alphabet = random_alphabet(rng, 4)
    cloner = build_pure_cloner(alphabet)
    with pytest.raises(AssertionError, match="materialised"):
        cloner.total.mat
    rep = run_clone(cloner, alphabet.states[1].density())
    assert rep.joint_fid >= 1 - 1e-9
    bell = PureState.normalized([0, 1, 1, 0]).density().with_dims((2, 2))
    pure = build_pure_cloner(random_alphabet(rng, 2))
    assert run_entangled_clone(pure, bell).fixed_point.residual <= 1e-10
    assert run_entangled_clone(build_mixed_cloner(2), bell).deviation <= 1e-9


def test_kraus_rejects_gate_corrupted_after_validation(rng):
    alphabet = random_alphabet(rng, 3)
    cloner = build_pure_cloner(alphabet)
    problem = make_problem(cloner, alphabet.states[0].density())
    _, select = cloner.gates[2][1].gates[0]  # S, checked when built
    select.blocks[:] *= 1.001  # the stack the kernel applies
    with pytest.raises(ValueError, match="not trace preserving"):
        problem.kraus


class TestDeutschMap:
    def test_identity_interaction(self, rng):
        prob = identity_problem(rng)
        rho = random_density(rng, 2)
        out = deutsch_map(prob, rho)
        assert linalg.trace_distance(out.mat, rho.mat) <= 1e-12

    def test_swap_returns_cr_input(self, rng):
        # Tr_CR(SWAP (rho x sigma) SWAP) = rho, checked against a brute-force
        # index oracle
        prob = swap_problem(rng)
        sigma = random_density(rng, 2)
        out = deutsch_map(prob, sigma)
        assert linalg.trace_distance(out.mat, prob.cr_input.mat) <= 1e-12
        # oracle: explicit construction
        full = linalg.kron(prob.cr_input.mat, sigma.mat)
        s = prob.interaction.mat
        oracle = linalg.partial_trace(s @ full @ s.conj().T, (2, 2), {1})
        assert np.max(np.abs(out.mat - oracle)) <= 1e-12

    def test_pure_cloner_fixed_point_is_fixed(self):
        from ctcsim.cloning import build_pure_cloner, make_problem
        alpha = zero_plus_alphabet()
        cloner = build_pure_cloner(alpha)
        for j, state in enumerate(alpha.states):
            prob = make_problem(cloner, state.density())
            fp = DensityMatrix(np.diag(np.eye(2)[j]).astype(complex))
            out = deutsch_map(prob, fp)
            assert linalg.trace_distance(out.mat, fp.mat) <= 1e-12

    def test_cptp_on_random_problems(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 4))
            prob = two_register_problem(haar_unitary(rng, d * d), random_density(rng, d), d)
            rho = random_density(rng, d)
            out = deutsch_map(prob, rho)
            check_density(out.mat)
            assert abs(np.trace(out.mat) - 1.0) <= 1e-12
            w, _ = linalg.hermitian_eig(out.mat)
            assert w[0] >= -1e-10


class TestSuperoperator:
    def test_identity(self, rng):
        s = build_superoperator(identity_problem(rng))
        assert np.max(np.abs(s - np.eye(4))) <= 1e-12

    def test_swap_is_constant_map(self, rng):
        prob = swap_problem(rng)
        s = build_superoperator(prob)
        for _ in range(5):
            sigma = random_density(rng, 2)
            got = (s @ sigma.mat.reshape(-1)).reshape(2, 2)
            assert np.max(np.abs(got - prob.cr_input.mat)) <= 1e-11

    def test_agrees_with_map(self, rng):
        for _ in range(3):
            prob = two_register_problem(haar_unitary(rng, 4), random_density(rng, 2))
            s = build_superoperator(prob)
            for _ in range(10):
                rho = random_density(rng, 2)
                via_s = (s @ rho.mat.reshape(-1)).reshape(2, 2)
                direct = deutsch_map(prob, rho).mat
                assert np.max(np.abs(via_s - direct)) <= 1e-11

    def test_preserves_hermiticity(self, rng):
        prob = two_register_problem(haar_unitary(rng, 4), random_density(rng, 2))
        s = build_superoperator(prob)
        from ctcsim.sampling import random_hermitian
        h = random_hermitian(rng, 2)
        out = (s @ h.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-11

    def test_spectral_radius_at_most_one(self, rng):
        for _ in range(25):
            prob = two_register_problem(haar_unitary(rng, 4), random_density(rng, 2))
            eigvals = np.linalg.eigvals(build_superoperator(prob))
            assert np.max(np.abs(eigvals)) <= 1 + 1e-10


class TestSolve:
    def test_identity_gives_maximally_mixed(self, rng):
        fp = solve_fixed_point(identity_problem(rng, 2))
        assert linalg.trace_distance(fp.rho_ctc.mat, np.eye(2) / 2) <= 1e-10
        assert fp.multiplicity == 4

    def test_swap_gives_cr_input(self, rng):
        prob = swap_problem(rng)
        fp = solve_fixed_point(prob)
        assert fp.multiplicity == 1
        assert fp.residual <= 1e-12
        assert linalg.trace_distance(fp.rho_ctc.mat, prob.cr_input.mat) <= 1e-10

    def test_pure_cloner_unique_fixed_point(self):
        from ctcsim.cloning import build_pure_cloner, make_problem
        alpha = zero_plus_alphabet()
        cloner = build_pure_cloner(alpha)
        for j, state in enumerate(alpha.states):
            fp = solve_fixed_point(make_problem(cloner, state.density()))
            assert fp.multiplicity == 1
            target = np.diag(np.eye(2)[j]).astype(complex)
            assert linalg.trace_distance(fp.rho_ctc.mat, target) <= 1e-10

    def test_existence_on_random_problems(self, rng):
        for _ in range(50):
            prob = two_register_problem(haar_unitary(rng, 4), random_density(rng, 2))
            fp = solve_fixed_point(prob)
            assert fp.residual <= 1e-10

    def test_eig_cesaro_agreement(self, rng):
        for _ in range(20):
            prob = two_register_problem(haar_unitary(rng, 4), random_density(rng, 2))
            a = solve_fixed_point(prob)
            b, _ = cesaro_fixed_point(prob)
            if a.multiplicity == 1:
                assert linalg.trace_distance(a.rho_ctc.mat, b) <= 1e-8
        # with several fixed points both select P1(I/d), the averaged limit
        for prob, multiplicity, expected in [
            (multiplicity_four_problem(rng), 4, np.diag([2 / 3, 1 / 3, 0])),
            (x_conjugation_problem(), 2, np.eye(2) / 2),
            (cycling_problem(), 2, np.diag([1 / 2, 1 / 2, 0])),
        ]:
            a = solve_fixed_point(prob)
            b, _ = cesaro_fixed_point(prob)
            assert a.multiplicity == multiplicity
            assert np.max(np.abs(a.rho_ctc.mat - expected)) <= 1e-12
            assert linalg.trace_distance(a.rho_ctc.mat, b) <= 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bordered_solve_matches_svd_oracle_on_haar_problems(self, d, rng):
        for _ in range(50):
            prob = haar_problem(rng, 3, d)
            fp = solve_fixed_point(prob)
            assert fp.multiplicity == 1
            assert np.max(np.abs(fp.rho_ctc.mat - svd_fixed_point(prob))) <= 1e-13

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bordered_solve_matches_svd_oracle_on_cloners(self, n, rng):
        for prob in (pure_cloner_problem(rng, n), mixed_cloner_problem(rng, n)):
            fp = solve_fixed_point(prob)
            assert fp.multiplicity == 1
            assert np.max(np.abs(fp.rho_ctc.mat - svd_fixed_point(prob))) <= 1e-13

    def test_cesaro_handles_cycling_map(self):
        # plain iteration from I/3 cycles between two states; averaging settles
        prob = cycling_problem()
        s = build_superoperator(prob)
        assert np.min(np.abs(np.linalg.eigvals(s) + 1)) <= 1e-12
        orbit = [np.eye(3) / 3]
        for _ in range(4):
            orbit.append(deutsch_map(prob, DensityMatrix(orbit[-1])).mat)
        for rho, p in zip(orbit[1:], [2 / 3, 1 / 3, 2 / 3, 1 / 3]):
            assert np.max(np.abs(rho - np.diag([p, 1 - p, 0]))) <= 1e-12
        # one averaged step leaves the residual of I/3; the iteration goes on
        _, first = cesaro_fixed_point(prob, max_iter=1)
        assert abs(first - 1 / 3) <= 1e-12
        rho, residual = cesaro_fixed_point(prob)
        assert residual <= 1e-10
        assert np.max(np.abs(rho - np.diag([1 / 2, 1 / 2, 0]))) <= 1e-9

    def test_spectator_extension(self, rng):
        for _ in range(10):
            base = Layout((("CR", 2), ("CTC", 2)), ctc_index=1)
            u = haar_unitary(rng, 4)
            cr = random_density(rng, 2)
            fp_base = solve_fixed_point(DeutschProblem(base, u, cr))
            ext = Layout((("CR", 2), ("R", 2), ("CTC", 2)), ctc_index=2)
            u_ext = embed_on_registers(ext, ["CR", "CTC"], u)
            spectator = random_density(rng, 2)
            cr_ext = DensityMatrix(linalg.kron(cr.mat, spectator.mat), (2, 2))
            fp_ext = solve_fixed_point(DeutschProblem(ext, u_ext, cr_ext))
            assert linalg.trace_distance(fp_base.rho_ctc.mat, fp_ext.rho_ctc.mat) <= 1e-10


class TestOutputAndEvolve:
    def test_identity_returns_input(self, rng):
        prob = identity_problem(rng)
        out, fp = evolve(prob)
        assert linalg.trace_distance(out.mat, prob.cr_input.mat) <= 1e-10
        assert linalg.trace_distance(fp.rho_ctc.mat, np.eye(2) / 2) <= 1e-10

    def test_pure_cloner_output(self):
        from ctcsim.cloning import build_pure_cloner, make_problem
        alpha = zero_plus_alphabet()
        cloner = build_pure_cloner(alpha)
        plus = alpha.states[1]
        out, fp = evolve(make_problem(cloner, plus.density()))
        expected = linalg.kron(plus.projector(), plus.projector())
        assert linalg.trace_distance(out.mat, expected) <= 1e-10
        assert linalg.trace_distance(fp.rho_ctc.mat, np.diag([0.0, 1.0])) <= 1e-10

    def test_mixed_cloner_output(self):
        from ctcsim.cloning import build_mixed_cloner, make_problem
        cloner = build_mixed_cloner(2)
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        out = output_state(make_problem(cloner, rho), rho)
        assert linalg.trace_distance(out.mat, linalg.kron(rho.mat, rho.mat)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        prob = identity_problem(rng)
        with pytest.raises(ValueError):
            deutsch_map(prob, DensityMatrix.maximally_mixed(3))


def factor_stack(factors):
    """A (B, n, r) stack of (n, r_b) factors, the narrower ones padded with
    trailing zero columns."""
    width = max(f.shape[1] for f in factors)
    out = np.zeros((len(factors), factors[0].shape[0], width), dtype=complex)
    for i, f in enumerate(factors):
        out[i, :, :f.shape[1]] = f
    return out


def assert_members_equal_single_solves(layout, interactions, crs):
    """Each member of one stacked solve equals its own single solve, bit
    for bit: state, residual, multiplicity and visible output."""
    inter = interactions if isinstance(interactions, GateList) else np.stack(
        [u.mat for u in interactions])
    kraus = kraus_stack(layout, inter, factor_stack([cr.factor for cr in crs]))
    fps = solve_stack(kraus)
    outputs = output_stack(kraus, fps.factor, crs[0].side)
    for i, cr in enumerate(crs):
        u = interactions if isinstance(interactions, GateList) else interactions[i]
        out, fp = evolve(DeutschProblem(layout, u, cr))
        assert np.array_equal(fps.rho_ctc[i], fp.rho_ctc.mat)
        assert fps[i].residual == fp.residual
        assert fps[i].multiplicity == fp.multiplicity
        assert np.array_equal(outputs[i], out.mat)
    return fps


def output_cases(rng):
    """(layout, interaction, CR input factor stack) triples: cloner stacks of
    pure and mixed targets, and Haar stacks with full-rank and pure CR
    inputs."""
    cases = []
    for n in (3, 5, 6):
        alphabet = random_alphabet(rng, n)
        cloner = build_pure_cloner(alphabet)
        targets = [s.density() for s in alphabet.states[:2]] + [random_density(rng, n)]
        crs = [make_problem(cloner, t).cr_input.factor for t in targets]
        cases.append((cloner.layout, cloner.total, factor_stack(crs)))
    for n in (3, 5):
        cloner = build_mixed_cloner(n)
        targets = [DensityMatrix(np.diag(rng.dirichlet(np.ones(n)) + 0j)) for _ in range(3)]
        crs = [make_problem(cloner, t).cr_input.factor for t in targets]
        cases.append((cloner.layout, cloner.total, factor_stack(crs)))
    for cr_dim, d in ((2, 2), (3, 2), (2, 3), (4, 3)):
        layout = Layout((("CR", cr_dim), ("CTC", d)), ctc_index=1)
        u = np.stack([haar_unitary(rng, cr_dim * d).mat for _ in range(4)])
        crs = factor_stack([random_density(rng, cr_dim).factor for _ in range(2)]
                           + [random_pure(rng, cr_dim).density().factor for _ in range(2)])
        cases.append((layout, u, crs))
    return cases


def test_outputs_are_density_matrices_by_construction(rng):
    for layout, interaction, crs in output_cases(rng):
        kraus = kraus_stack(layout, interaction, crs)
        out = output_stack(kraus, solve_stack(kraus).factor, crs.shape[1])
        assert np.all(linalg.hermiticity_defect(out) == 0)
        assert np.all(np.abs(np.trace(out, axis1=1, axis2=2) - 1) <= TRACE_TOL)
        assert np.linalg.eigvalsh(out)[:, 0].min() >= -linalg.tolerances.psd


def test_stack_of_mixed_ranks_equals_single_solves(rng):
    # pure and mixed CR inputs on one cloner: ranks 1, 2 and 3 in one stack,
    # padded with zero Kraus blocks to the largest
    alphabet = random_alphabet(rng, 3)
    cloner = build_pure_cloner(alphabet)
    blank = PureState.basis(3, 0).density().mat
    targets = [alphabet.states[0].density(), random_density(rng, 3),
               DensityMatrix(0.4 * alphabet.states[1].projector()
                             + 0.6 * alphabet.states[2].projector()),
               alphabet.states[2].density()]
    crs = [DensityMatrix(linalg.kron(t.mat, blank), (3, 3)) for t in targets]
    fps = assert_members_equal_single_solves(cloner.layout, cloner.total, crs)
    assert fps.residual.max() <= 1e-10


def test_stack_with_multiplicity_four_member(rng):
    # the multiplicity-4 permutation repro beside Haar problems on its
    # layout: only that member takes the projection branch
    repro = multiplicity_four_problem(rng)
    layout = repro.layout
    unitaries = [haar_unitary(rng, 6), repro.interaction, haar_unitary(rng, 6)]
    crs = [random_density(rng, 2), repro.cr_input, random_density(rng, 2)]
    fps = assert_members_equal_single_solves(layout, unitaries, crs)
    assert fps.multiplicity.tolist() == [1, 4, 1]


def test_stack_makes_a_full_svd_only_for_its_multiple_member(rng, svd_calls):
    # the multiplicity-1 members take singular values and a bordered solve;
    # only the multiplicity-4 repro decomposes its S - I with vectors
    repro = multiplicity_four_problem(rng)
    unitaries = np.stack([haar_unitary(rng, 6).mat, repro.interaction.mat,
                          haar_unitary(rng, 6).mat])
    crs = [random_density(rng, 2), repro.cr_input, random_density(rng, 2)]
    kraus = kraus_stack(repro.layout, unitaries, factor_stack([cr.factor for cr in crs]))
    svd_calls.clear()
    fps = solve_stack(kraus)
    assert fps.multiplicity.tolist() == [1, 4, 1]
    full = [m for compute_uv, m in svd_calls if compute_uv]
    assert len(full) == 1
    assert np.array_equal(full[0], build_superoperator(repro) - np.eye(9))


def test_solves_read_alike_in_numpy_1_and_2(rng, monkeypatch):
    # numpy 1 reads b as vectors when b.ndim == a.ndim - 1, numpy 2 when
    # b.ndim == 1; each solve must fall on the same side of both rules
    calls, real = [], np.linalg.solve

    def recorded(a, b):
        calls.append((np.ndim(a), np.ndim(b)))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    repro = multiplicity_four_problem(rng)
    unitaries = np.stack([haar_unitary(rng, 6).mat, repro.interaction.mat])
    crs = [random_density(rng, 2), repro.cr_input]
    solve_stack(kraus_stack(repro.layout, unitaries, factor_stack([cr.factor for cr in crs])))
    assert len(calls) == 2  # the bordered stack and the multiplicity-4 projection
    assert all((nb == 1) == (nb == na - 1) for na, nb in calls)


def test_multiplicity_zero_takes_the_bordered_solve(rng, monkeypatch, svd_calls):
    # an empty window counts no rounding-level singular value as null; the
    # bordered matrix still gives the unit-trace fixed point, with no full SVD
    problem = DeutschProblem(Layout((("CR", 2), ("CTC", 2)), ctc_index=1),
                             haar_unitary(rng, 4), random_density(rng, 2))
    reference = solve_fixed_point(problem)
    monkeypatch.setattr(linalg.tolerances, "eig_one_window", 0.0)
    monkeypatch.setattr(engine, "_SVD_FLOOR", 0.0)
    svd_calls.clear()
    fp = solve_fixed_point(problem)
    assert fp.multiplicity == 0
    assert all(not compute_uv for compute_uv, _ in svd_calls)
    assert np.array_equal(fp.rho_ctc.mat, reference.rho_ctc.mat)


def test_stack_error_names_the_member(rng):
    layout = Layout((("CR", 2), ("CTC", 2)), ctc_index=1)
    u = np.stack([haar_unitary(rng, 4).mat for _ in range(3)])
    u[2] *= 1.1
    crs = [random_density(rng, 2) for _ in range(3)]
    with pytest.raises(linalg.StackError, match="entry 2: induced map is not") as exc:
        kraus_stack(layout, u, np.stack([cr.factor for cr in crs]))
    assert exc.value.index == 2
    # one problem keeps the single-problem message
    bad = Unitary(haar_unitary(rng, 4).mat)
    bad.mat[:] *= 1.1
    with pytest.raises(ValueError, match="^induced map is not trace preserving"):
        DeutschProblem(layout, bad, crs[0]).kraus
