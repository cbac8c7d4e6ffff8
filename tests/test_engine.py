import warnings

import numpy as np
import pytest

from conftest import (
    cesaro_fixed_point,
    hermitian_eig,
    random_alphabet,
    random_hermitian,
    random_pure,
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
    Alphabet,
    DensityMatrix,
    GateList,
    Layout,
    PureState,
    Unitary,
    check_density,
    embed_on_registers,
    swap_gate,
)
from ctcsim.sampling import haar_unitary, random_density


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


def hermitian_basis(d):
    """(T1, diagonal) with T = scale T1 the map from row-major vec(X) to the
    coordinates of X on the orthonormal Hermitian basis: E_aa at position
    (a, a), (E_ab + E_ba)/sqrt2 at (a, b) and i(E_ab - E_ba)/sqrt2 at (b, a),
    for a < b. T1 has entries 0, 1 and +-i; the scale of a row is 1 where
    ``diagonal`` marks it, else 1/sqrt2."""
    t1 = np.zeros((d, d, d, d), dtype=complex)  # coordinate (a, b), entry (i, j)
    for a in range(d):
        t1[a, a, a, a] = 1
        for b in range(a + 1, d):
            t1[a, b, a, b] = t1[a, b, b, a] = 1  # conj of the basis element
            t1[b, a, a, b], t1[b, a, b, a] = -1j, 1j
    return t1.reshape(d * d, d * d), np.eye(d, dtype=bool).reshape(-1)


def real_form(s):
    """T S T^dag of a Hermiticity-preserving S, whose imaginary part must
    vanish. T1 S T1^dag is exact for an integer-valued S, and each product
    of two row scales is 1, 1/sqrt2 or 1/2 exactly, so the result is too."""
    t1, diagonal = hermitian_basis(int(np.sqrt(s.shape[0])))
    r = t1 @ s @ t1.conj().T
    assert np.max(np.abs(r.imag)) <= 1e-13 * max(1.0, np.max(np.abs(r)))
    ndiag = np.add.outer(diagonal.astype(int), diagonal.astype(int))
    return r.real * np.array([0.5, np.sqrt(0.5), 1.0])[ndiag]


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
            w, _ = hermitian_eig(out.mat)
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
    outputs = output_stack(kraus, fps.factor, crs[0].side, fps.live)
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
        fps = solve_stack(kraus)
        out = output_stack(kraus, fps.factor, crs.shape[1], fps.live)
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


def live_blocks(layout, interaction, cr):
    """Which Kraus blocks of one problem's own stack are nonzero."""
    k = kraus_stack(layout, interaction, cr.factor[None])
    return np.any(k[0] != 0, axis=(1, 2))


@pytest.mark.parametrize("kind", ["mixed", "pure"])
def test_stack_of_different_live_blocks_equals_single_solves(kind, rng):
    # the stacked solve keeps the blocks live in any member; each member's
    # own solve keeps only its own, and must read the same bits
    n = 3
    if kind == "mixed":
        cloner = build_mixed_cloner(n)
        targets = [DensityMatrix(np.diag(rng.dirichlet(np.ones(n)) + 0j)),
                   DensityMatrix(np.diag([0.5, 0.5, 0]) + 0j),
                   PureState.basis(n, 1).density()]
    else:
        # |0>, (|0> + |1>)/sqrt2, (|0> + |2>)/sqrt2: its members leave 7 of
        # 9 blocks live, the basis state |2> 6, a full-rank state 21 of 27
        alphabet = Alphabet((PureState.basis(n, 0), PureState.normalized([1, 1, 0]),
                             PureState.normalized([1, 0, 1])))
        cloner = build_pure_cloner(alphabet)
        targets = [s.density() for s in alphabet.states] + [
            PureState.basis(n, 2).density(), random_density(rng, n)]
    crs = [make_problem(cloner, t).cr_input for t in targets]
    live = [live_blocks(cloner.layout, cloner.total, cr) for cr in crs]
    assert len({tuple(m) for m in live}) > 1
    assert not all(m.all() for m in live)
    fps = assert_members_equal_single_solves(cloner.layout, cloner.total, crs)
    assert fps.residual.max() <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 5])
def test_mixed_cloner_superoperator_takes_only_live_blocks(n, rng, monkeypatch):
    # a rank-n diagonal target gives n^3 Kraus blocks, of which the n^2
    # nonzero ones form S and the residual
    seen, real = [], engine._kraus_gram

    def recorded(k):
        seen.append(k.shape)
        return real(k)

    monkeypatch.setattr(engine, "_kraus_gram", recorded)
    target = DensityMatrix(np.diag(rng.dirichlet(np.ones(n)) + 0j))
    problem = make_problem(build_mixed_cloner(n), target)
    assert problem.kraus.shape == (n ** 3, n, n)
    report = run_clone(build_mixed_cloner(n), target)
    assert seen == [(1, n * n, n, n)]
    assert report.fixed_point.residual <= 1e-10
    assert linalg.trace_distance(report.output.mat, linalg.kron(target.mat, target.mat)) <= 1e-10


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
    # the multiplicity-1 members take the bordered inverse alone; only the
    # multiplicity-4 repro takes an SVD of its S - I, whose singular values
    # count and whose vectors project
    repro = multiplicity_four_problem(rng)
    unitaries = np.stack([haar_unitary(rng, 6).mat, repro.interaction.mat,
                          haar_unitary(rng, 6).mat])
    crs = [random_density(rng, 2), repro.cr_input, random_density(rng, 2)]
    kraus = kraus_stack(repro.layout, unitaries, factor_stack([cr.factor for cr in crs]))
    svd_calls.clear()
    fps = solve_stack(kraus)
    assert fps.multiplicity.tolist() == [1, 4, 1]
    [(compute_uv, full)] = svd_calls
    assert compute_uv
    assert full.shape == (1, 9, 9)
    assert full.dtype == np.float64
    assert np.array_equal(full[0], real_form(build_superoperator(repro) - np.eye(9)))


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
    assert len(calls) == 1  # the multiplicity-4 projection; B^-1 solves the other
    assert all((nb == 1) == (nb == na - 1) for na, nb in calls)


def test_multiplicity_zero_takes_the_bordered_solve(rng, monkeypatch, svd_calls):
    # an empty window counts no rounding-level singular value as null; the
    # bordered matrix still gives the unit-trace fixed point: the member's one
    # SVD only counts, and no projection replaces x
    problem = DeutschProblem(Layout((("CR", 2), ("CTC", 2)), ctc_index=1),
                             haar_unitary(rng, 4), random_density(rng, 2))
    reference = solve_fixed_point(problem)
    monkeypatch.setattr(linalg.tolerances, "eig_one_window", 0.0)
    monkeypatch.setattr(engine, "_SVD_FLOOR", 0.0)
    svd_calls.clear()
    fp = solve_fixed_point(problem)
    assert fp.multiplicity == 0
    assert [(compute_uv, a.shape) for compute_uv, a in svd_calls] == [(True, (1, 4, 4))]
    assert np.array_equal(fp.rho_ctc.mat, reference.rho_ctc.mat)


def singular_value_count(a):
    """The multiplicity by the singular values of R - I: those at most
    ``eig_one_window`` or ``_SVD_FLOOR`` times the largest."""
    sv = np.linalg.svd(a, compute_uv=False)
    window = max(linalg.tolerances.eig_one_window, sv[0] * engine._SVD_FLOOR)
    return int(np.sum(sv <= window))


def count_cases(rng):
    """(layout, interaction, CR input factor stack): Haar stacks at
    d = 2..8, both cloners at N = 2..8 and the multiplicity-4 repro beside
    a Haar member."""
    cases = []
    for d in range(2, 9):
        layout = Layout((("CR", 2), ("CTC", d)), ctc_index=1)
        us = np.stack([haar_unitary(rng, 2 * d).mat for _ in range(4)])
        cases.append((layout, us,
                      factor_stack([random_density(rng, 2).factor for _ in range(4)])))
    for n in range(2, 9):
        for problem in (pure_cloner_problem(rng, n), mixed_cloner_problem(rng, n)):
            cases.append((problem.layout, problem.interaction,
                          problem.cr_input.factor[None]))
    repro = multiplicity_four_problem(rng)
    cases.append((repro.layout,
                  np.stack([haar_unitary(rng, 6).mat, repro.interaction.mat]),
                  factor_stack([random_density(rng, 2).factor, repro.cr_input.factor])))
    return cases


def test_certified_counts_equal_the_singular_value_count(rng, svd_calls, inv_calls):
    # a member the bordered inverse certifies takes no SVD, and its count
    # of 1 is the one the singular values of its R - I give
    certified = 0
    for layout, interaction, crs in count_cases(rng):
        kraus = kraus_stack(layout, interaction, crs)
        svd_calls.clear()
        inv_calls.clear()
        fps = solve_stack(kraus)
        counted = sum(len(a) for _, a in svd_calls)
        certified += len(kraus) - counted
        n = inv_calls[0].shape[-1] - 1
        for a, m in zip(inv_calls[0][:, :n, :n], fps.multiplicity):
            assert m == singular_value_count(a)
    # every member but the multiplicity-4 repro is certified
    assert certified == 7 * 4 + 7 * 2 + 1


def test_stack_with_an_exactly_singular_member(rng, inv_calls, monkeypatch):
    # the ctc-only rotation beside a CR qubit in |0> has two fixed points,
    # and numpy's inverse raises on its bordered matrix, exactly singular,
    # for the whole stack: one slogdet marks that member, one inverse covers
    # the others, the singular member takes the SVD, and each member keeps
    # the bits of its single solve without a warning
    slogdets, real = [], np.linalg.slogdet

    def recorded(m):
        slogdets.append(np.array(m))
        return real(m)

    monkeypatch.setattr(np.linalg, "slogdet", recorded)
    layout = Layout((("CR", 2), ("CTC", 2)), ctc_index=1)
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    unitaries = [haar_unitary(rng, 4), Unitary(np.kron(np.eye(2), rotation)),
                 haar_unitary(rng, 4)]
    crs = [random_density(rng, 2), PureState.basis(2, 0).density(), random_density(rng, 2)]
    inv_calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fps = assert_members_equal_single_solves(layout, unitaries, crs)
    assert fps.multiplicity.tolist() == [1, 2, 1]
    # the stack, then the three single solves: the second one's inverse
    # raises, and the stack of none left takes an empty inverse
    assert [m.shape for m in inv_calls] == [(3, 5, 5), (2, 5, 5), (1, 5, 5),
                                            (1, 5, 5), (0, 5, 5), (1, 5, 5)]
    assert [m.shape for m in slogdets] == [(3, 5, 5), (1, 5, 5)]


def test_singular_certified_and_doubted_members_keep_their_bits(rng, monkeypatch,
                                                               svd_calls, inv_calls):
    # beside a certified Haar member: the exactly singular rotation member
    # (m = 2), and a partial swap cos(t) I + i sin(t) SWAP, whose gap of
    # about t^2 the raised margin no longer certifies although its count is 1.
    # The two in doubt share one SVD, and each member keeps the bits of its
    # single solve
    monkeypatch.setattr(engine, "_CERTIFY_MARGIN", 1e4)
    layout = Layout((("CR", 2), ("CTC", 2)), ctc_index=1)
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    t = 1e-3
    partial_swap = np.cos(t) * np.eye(4) + 1j * np.sin(t) * np.eye(4)[[0, 2, 1, 3]]
    unitaries = [haar_unitary(rng, 4), Unitary(np.kron(np.eye(2), rotation)),
                 Unitary(partial_swap)]
    crs = [random_density(rng, 2), PureState.basis(2, 0).density(),
           random_density(rng, 2)]
    kraus = kraus_stack(layout, np.stack([u.mat for u in unitaries]),
                        factor_stack([cr.factor for cr in crs]))
    svd_calls.clear()
    inv_calls.clear()
    solve_stack(kraus)
    assert [(compute_uv, a.shape) for compute_uv, a in svd_calls] == [(True, (2, 4, 4))]
    assert [m.shape for m in inv_calls] == [(3, 5, 5), (2, 5, 5)]
    fps = assert_members_equal_single_solves(layout, unitaries, crs)
    assert fps.multiplicity.tolist() == [1, 2, 1]


def test_all_singular_stack(inv_calls):
    # every bordered matrix is exactly singular: the slogdet mask leaves an
    # empty inverse, and every member takes the SVD's projection with the
    # bits of its single solve
    layout = Layout((("CR", 2), ("CTC", 2)), ctc_index=1)
    ctc_only = [np.eye(2), np.diag([1, 1j]), np.array([[0, -1], [1, 0]]),
                np.array([[0.8, -0.6], [0.6, 0.8]])]
    unitaries = [Unitary(np.kron(np.eye(2), u).astype(complex)) for u in ctc_only]
    crs = [PureState.basis(2, 0).density()] * len(unitaries)
    inv_calls.clear()
    fps = assert_members_equal_single_solves(layout, unitaries, crs)
    assert [m.shape for m in inv_calls[:2]] == [(4, 5, 5), (0, 5, 5)]
    assert fps.multiplicity.tolist() == [4, 2, 2, 2]
    assert np.all(fps.residual <= 1e-12)


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


def real_form_cases(rng):
    """(layout, interaction, CR input factor stack, member problems): Haar
    stacks with d = 2..5 and both cloners with N = 2..6."""
    cases = []
    for d in range(2, 6):
        layout = Layout((("CR", 3), ("CTC", d)), ctc_index=1)
        us = [haar_unitary(rng, 3 * d) for _ in range(3)]
        crs = [random_density(rng, 3) for _ in range(3)]
        cases.append((layout, np.stack([u.mat for u in us]),
                      factor_stack([cr.factor for cr in crs]),
                      [DeutschProblem(layout, u, cr) for u, cr in zip(us, crs)]))
    for n in range(2, 7):
        for problem in (pure_cloner_problem(rng, n), mixed_cloner_problem(rng, n)):
            cases.append((problem.layout, problem.interaction,
                          problem.cr_input.factor[None], [problem]))
    return cases


def test_solve_decomposes_the_real_form_with_the_singular_values_of_s(rng, svd_calls,
                                                                      inv_calls):
    # the leading block of each bordered matrix is R - I, whose singular
    # values are those of S - I; the inverse certifies every count here
    for layout, interaction, crs, problems in real_form_cases(rng):
        kraus = kraus_stack(layout, interaction, crs)
        svd_calls.clear()
        inv_calls.clear()
        fps = solve_stack(kraus)
        assert np.all(fps.multiplicity == 1)
        assert svd_calls == []
        [bordered] = inv_calls
        n = bordered.shape[-1] - 1
        a = bordered[:, :n, :n]
        assert a.dtype == np.float64
        for member, problem in zip(a, problems):
            s = build_superoperator(problem) - np.eye(problem.ctc_dim ** 2)
            reference = np.linalg.svd(s, compute_uv=False)
            scale = max(1.0, reference[0])
            assert np.max(np.abs(np.linalg.svd(member, compute_uv=False) - reference)) \
                <= 1e-13 * scale
            assert np.max(np.abs(member - real_form(s))) <= 1e-13 * scale


def test_fixed_point_candidates_are_hermitian_by_construction(rng, monkeypatch):
    seen, real = [], linalg.psd_factor

    def recorded(h):
        seen.append(h)
        return real(h)

    monkeypatch.setattr(linalg, "psd_factor", recorded)
    repro = multiplicity_four_problem(rng)
    unitaries = np.stack([haar_unitary(rng, 6).mat, repro.interaction.mat])
    crs = factor_stack([random_density(rng, 2).factor, repro.cr_input.factor])
    assert solve_stack(kraus_stack(repro.layout, unitaries, crs)).multiplicity.tolist() == [1, 4]
    cases = real_form_cases(rng)
    for layout, interaction, crs, _ in cases:
        solve_stack(kraus_stack(layout, interaction, crs))
    assert len(seen) == 1 + len(cases)
    for h in seen:
        assert np.max(np.abs(h - linalg.dagger(h))) == 0


def full_block_output(kraus, factor, cr_dim):
    """The visible output from every Kraus block: E = [K_(k,a) V for every
    k] in each row a, and E E^dag at unit trace."""
    b, n, d, _ = kraus.shape
    kv = (kraus.reshape(b, n * d, d) @ factor).reshape(b, -1, cr_dim, d, d)
    e = kv.transpose(0, 2, 1, 3, 4).reshape(b, cr_dim, -1)
    return linalg.unit_trace_hermitian(e @ linalg.dagger(e))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_mixed_cloner_output_takes_only_live_rows(n, rng, monkeypatch):
    # each CR output row of the mixed cloner has one live block of n: the
    # Gram product sees rows n^2 wide, and reads the full-block output's bits
    cloner = build_mixed_cloner(n)
    targets = [DensityMatrix(np.diag(rng.dirichlet(np.ones(n)) + 0j)) for _ in range(2)]
    factors = [make_problem(cloner, t).cr_input.factor for t in targets]
    widths, real = [], engine._gram

    def recorded(x):
        widths.append(x.shape[-1])
        return real(x)

    stacks = [(f[None], [t]) for f, t in zip(factors, targets)]
    for crs, members in stacks + [(factor_stack(factors), targets)]:
        kraus = kraus_stack(cloner.layout, cloner.total, crs)
        fps = solve_stack(kraus)
        factor = fps.factor
        monkeypatch.setattr(engine, "_gram", recorded)
        out = output_stack(kraus, factor, n * n, fps.live)
        monkeypatch.setattr(engine, "_gram", real)
        assert np.array_equal(out, full_block_output(kraus, factor, n * n))
        for o, t in zip(out, members):
            assert linalg.trace_distance(o, linalg.kron(t.mat, t.mat)) <= 1e-10
    # a stack of one keeps one block per row; members whose factors order
    # the target's eigenvectors differently share rows at more blocks
    assert widths[:2] == [n * n, n * n] and n * n <= widths[2] <= n ** 3


def test_rows_that_share_no_live_block_give_zero(rng):
    # with U = I and a diagonal CR input, row a is live only at k = a: a
    # product of rows 0 and 1 across different k would put a coherence
    # between them, where the output is the CR input
    probs = np.array([0.3, 0.7])
    problem = two_register_problem(Unitary(np.eye(4, dtype=complex)),
                                   DensityMatrix(np.diag(probs + 0j)))
    out, _ = evolve(problem)
    assert out.mat[0, 1] == 0 and out.mat[1, 0] == 0
    assert np.max(np.abs(out.mat - np.diag(probs))) <= 1e-15
