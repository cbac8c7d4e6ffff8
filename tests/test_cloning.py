import numpy as np
import pytest

from conftest import (
    classical_copy_circuit,
    random_alphabet,
    random_pure,
    sandwich_fidelity,
    zero_plus_alphabet,
)
from ctcsim import cloning, linalg, quantum
from ctcsim.cloning import (
    ClonerCircuit,
    baseline_infidelities,
    build_mixed_cloner,
    build_pure_cloner,
    check_cloning_condition,
    make_problem,
    no_ctc_baseline,
    run_clone,
)
from ctcsim.fidelity import factor_fidelities, fidelity
from ctcsim.quantum import (
    Alphabet,
    DensityMatrix,
    GateList,
    Permutation,
    PureState,
    Select,
    Unitary,
    check_density,
)
from ctcsim.sampling import haar_unitary, random_density

# pinned by the pre-build brute-force oracle (scipy sqrtm + null-space solver)
OFF_ALPHABET_MINUS_JOINT_FID = 0.5


def diag_state(*probs):
    return DensityMatrix(np.diag(np.array(probs, dtype=complex)))


class TestBuildPureCloner:
    def test_gate_labels_and_total(self):
        cloner = build_pure_cloner(zero_plus_alphabet())
        assert [lbl for lbl, _ in cloner.gates] == ["W", "V", "S", "T1", "T2"]
        assert cloner.total.side == 8

    def test_orthonormal_alphabet_clones_basis(self):
        alpha = Alphabet((PureState.basis(2, 0), PureState.basis(2, 1)))
        cloner = build_pure_cloner(alpha)
        for state in alpha.states:
            rep = run_clone(cloner, state.density())
            assert rep.joint_fid >= 1 - 1e-9

    def test_zero_plus_clones_plus(self):
        cloner = build_pure_cloner(zero_plus_alphabet())
        plus = cloner.alphabet.states[1]
        rep = run_clone(cloner, plus.density())
        expected = linalg.kron(plus.projector(), plus.projector())
        assert linalg.trace_distance(rep.output.mat, expected) <= 1e-9
        assert linalg.trace_distance(rep.fixed_point.rho_ctc.mat, np.diag([0.0, 1.0])) <= 1e-9

    def test_random_qutrit_alphabet(self, rng):
        alpha = random_alphabet(rng, 3)
        cloner = build_pure_cloner(alpha)
        for state in alpha.states:
            rep = run_clone(cloner, state.density())
            assert rep.joint_fid >= 1 - 1e-9
            assert rep.fixed_point.residual <= 1e-10

    def test_broadcast_marginals(self, rng):
        alpha = random_alphabet(rng, 2)
        cloner = build_pure_cloner(alpha)
        for state in alpha.states:
            rep = run_clone(cloner, state.density())
            assert linalg.trace_distance(rep.clone_a.mat, state.projector()) <= 1e-9
            assert linalg.trace_distance(rep.clone_b.mat, state.projector()) <= 1e-9

    def test_fixed_points_orthogonal(self, rng):
        alpha = random_alphabet(rng, 2)
        cloner = build_pure_cloner(alpha)
        fps = [run_clone(cloner, s.density()).fixed_point.rho_ctc for s in alpha.states]
        assert fidelity(fps[0], fps[1]) <= 1e-9

    def test_one_state_alphabet_rejected(self):
        # a valid alphabet of dim 1 has no cloner; the message names the alphabet
        with pytest.raises(ValueError, match=r"^alphabet dimension must be >= 2, got 1$"):
            build_pure_cloner(Alphabet((PureState.basis(1, 0),)))


class TestBuildMixedCloner:
    def test_gate_labels(self):
        cloner = build_mixed_cloner(2)
        assert [lbl for lbl, _ in cloner.gates] == ["W1", "W2", "V"]

    def test_quarter_three_quarter(self):
        cloner = build_mixed_cloner(2)
        rho = diag_state(0.25, 0.75)
        rep = run_clone(cloner, rho)
        assert linalg.trace_distance(rep.output.mat, linalg.kron(rho.mat, rho.mat)) <= 1e-10
        assert linalg.trace_distance(rep.fixed_point.rho_ctc.mat, rho.mat) <= 1e-10

    def test_pure_basis_special_case(self):
        cloner = build_mixed_cloner(2)
        rho = diag_state(1.0, 0.0)
        rep = run_clone(cloner, rho)
        assert linalg.trace_distance(rep.output.mat, linalg.kron(rho.mat, rho.mat)) <= 1e-10

    def test_qutrit_diagonal(self):
        cloner = build_mixed_cloner(3)
        rho = diag_state(0.5, 0.3, 0.2)
        rep = run_clone(cloner, rho)
        assert linalg.trace_distance(rep.output.mat, linalg.kron(rho.mat, rho.mat)) <= 1e-10

    def test_rejects_off_diagonal_target(self):
        cloner = build_mixed_cloner(2)
        plus = PureState.normalized([1, 1]).density()
        with pytest.raises(ValueError, match="diagonal"):
            run_clone(cloner, plus)


class TestRunClone:
    def test_alphabet_member_perfect(self):
        cloner = build_pure_cloner(zero_plus_alphabet())
        rep = run_clone(cloner, PureState.basis(2, 0).density())
        assert rep.fid_a >= 1 - 1e-9
        assert rep.fid_b >= 1 - 1e-9
        assert rep.joint_fid >= 1 - 1e-9

    def test_off_alphabet_target_reported(self):
        cloner = build_pure_cloner(zero_plus_alphabet())
        minus = PureState.normalized([1, -1])
        rep = run_clone(cloner, minus.density())
        assert rep.joint_fid < 1
        assert abs(rep.joint_fid - OFF_ALPHABET_MINUS_JOINT_FID) <= 1e-9

    def test_large_pure_cloner_is_exact(self, rng):
        # at d = 12 a solve that stops at a residual, not an exact one,
        # leaves 1 - joint fidelity near 1e-11
        alphabet = random_alphabet(rng, 12)
        rep = run_clone(build_pure_cloner(alphabet), alphabet.states[0].density())
        assert rep.fixed_point.multiplicity == 1
        assert 1 - rep.joint_fid <= 1e-12


def clone_targets(kind, n, rng):
    """A cloner and targets for it: an alphabet member and a pure state off
    the alphabet for the pure cloner; a full-rank and a rank-deficient
    diagonal state for the mixed one."""
    if kind == "pure":
        alphabet = random_alphabet(rng, n)
        member = alphabet.states[int(rng.integers(n))].density()
        return build_pure_cloner(alphabet), [member, random_pure(rng, n).density()]
    deficient = np.concatenate([rng.dirichlet(np.ones(n - 1)), [0.0]])
    return build_mixed_cloner(n), [
        DensityMatrix(np.diag(rng.dirichlet(np.ones(n)) + 0j)),
        DensityMatrix(np.diag(rng.permutation(deficient) + 0j))]


@pytest.mark.parametrize("kind, n", [("pure", n) for n in range(2, 9)]
                         + [("mixed", n) for n in range(2, 8)])
def test_clone_fidelities_match_the_dense_oracle(kind, n, rng):
    cloner, targets = clone_targets(kind, n, rng)
    for target in targets:
        rep = run_clone(cloner, target)
        check_density(rep.clone_a.mat)
        check_density(rep.clone_b.mat)
        joint = linalg.kron(target.mat, target.mat)
        assert abs(rep.fid_a - sandwich_fidelity(rep.clone_a.mat, target.mat)) <= 1e-12
        assert abs(rep.fid_b - sandwich_fidelity(rep.clone_b.mat, target.mat)) <= 1e-12
        assert abs(rep.joint_fid - sandwich_fidelity(rep.output.mat, joint)) <= 1e-12


@pytest.mark.parametrize("kind, n", [("pure", n) for n in range(2, 6)]
                         + [("mixed", n) for n in range(2, 5)])
def test_clone_eigendecomposes_one_cr_sized_matrix(kind, n, rng, eig_calls):
    # the output is a Gram matrix, each fidelity is taken against the
    # target's factor and the CR input carries the kron of the target's and
    # the blank's factors: nothing of side n * n is eigendecomposed. A pure
    # target keeps the joint fidelity a 1 x 1 problem (a full-rank mixed one
    # makes it r^2 x r^2, the rank of the joint target).
    if kind == "pure":
        alphabet = random_alphabet(rng, n)
        cloner, target = build_pure_cloner(alphabet), alphabet.states[0].density()
    else:
        cloner, target = build_mixed_cloner(n), PureState.basis(n, n - 1).density()
    eig_calls.clear()
    rep = run_clone(cloner, target)
    assert rep.joint_fid >= 1 - 1e-9
    assert [name for name, m in eig_calls if m.shape[-1] == n * n] == []


@pytest.mark.parametrize("kind, n", [("pure", 5), ("pure", 8), ("mixed", 5)])
def test_clone_eigendecomposes_no_partial_trace(kind, n, rng, eig_calls):
    # the clones are partial traces of the Gram output, states by
    # construction, and the output takes rho_CTC's factor from the solve's
    # clamp: one run's eigh calls are two of side n -- the clamp and the
    # residual -- and, for a mixed target, the target's factor, which a pure
    # target carries as its ket
    cloner, targets = clone_targets(kind, n, rng)
    eig_calls.clear()
    run_clone(cloner, targets[0])
    sides = [m.shape[-1] for name, m in eig_calls if name == "eigh"]
    assert sides == [n] * (2 if kind == "pure" else 3)


@pytest.mark.parametrize("n", [*range(2, 9), 16, 24])
def test_pure_clone_takes_only_singular_values(n, rng, svd_calls, inv_calls):
    # a pure cloner's map has one fixed point, which the inverse of the
    # bordered matrix both certifies and solves: the count takes not even
    # the singular values of S - I, and the solve one inverse of side n^2 + 1
    alphabet = random_alphabet(rng, n)
    cloner = build_pure_cloner(alphabet)
    svd_calls.clear()
    inv_calls.clear()
    rep = run_clone(cloner, alphabet.states[0].density())
    assert rep.fixed_point.multiplicity == 1
    assert svd_calls == []
    assert [m.shape for m in inv_calls] == [(1, n * n + 1, n * n + 1)]


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_cloners_of_one_dim_share_what_depends_on_the_dim_alone(kind, rng):
    # the layout and the SWAP and CSUM permutations are made once per N and
    # are read-only; the mapper stacks belong to their alphabets
    n = 4
    a, b = (build_pure_cloner(random_alphabet(rng, n)) if kind == "pure"
            else build_mixed_cloner(n) for _ in range(2))
    assert a.layout is b.layout
    assert a.layout is not build_mixed_cloner(n + 1).layout
    for (label, ga), (_, gb) in zip(a.gates, b.gates):
        (_, u), = ga.gates
        (_, v), = gb.gates
        if isinstance(u, Permutation):
            assert u is v, label
            with pytest.raises(ValueError, match="read-only"):
                u.source[0] = 1
        else:
            assert isinstance(u, Select) and u is not v, label
            assert not np.array_equal(u.blocks, v.blocks), label


def test_clones_of_one_dim_share_a_read_only_blank(rng, monkeypatch):
    n = 3
    blank = cloning._blank(n)
    assert cloning._blank(n) is blank
    for array in (blank.mat, blank.factor):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5
    fresh = PureState.basis(n, 0).density()
    assert np.array_equal(blank.mat, fresh.mat)
    assert np.array_equal(blank.factor, fresh.factor)
    alphabet = random_alphabet(rng, n)
    cloner, target = build_pure_cloner(alphabet), alphabet.states[1].density()
    made, basis = [], PureState.basis.__func__

    def counted(cls, *args):
        made.append(args)
        return basis(cls, *args)

    monkeypatch.setattr(PureState, "basis", classmethod(counted))
    problem = make_problem(cloner, target)
    assert made == []  # the blank is the shared one
    assert np.array_equal(problem.cr_input.mat,
                          DensityMatrix.product((target, fresh)).mat)


def record_builds(monkeypatch):
    """The stacks given to ``quantum.check_unitary``, the ``Permutation``
    and the ``GateList`` instances constructed from here on."""
    checked, made, lists = [], [], []
    check, perm_init = quantum.check_unitary, Permutation.__post_init__
    list_init = GateList.__post_init__

    def counted_check(m, *args, **kw):
        checked.append(np.array(m))
        return check(m, *args, **kw)

    def counted_perm(self):
        made.append(self)
        perm_init(self)

    def counted_list(self):
        lists.append(self)
        list_init(self)

    monkeypatch.setattr(quantum, "check_unitary", counted_check)
    monkeypatch.setattr(Permutation, "__post_init__", counted_perm)
    monkeypatch.setattr(GateList, "__post_init__", counted_list)
    return checked, made, lists


@pytest.mark.parametrize("n", [2, 5, 6])
def test_pure_build_checks_only_its_mapper_stack(n, rng, monkeypatch):
    # one check_unitary, on the N-member mapper stack; the second build of
    # an N makes no Permutation, and no build checks a gate list again
    quantum._permutation.cache_clear()
    checked, made, lists = record_builds(monkeypatch)
    first = build_pure_cloner(random_alphabet(rng, n))
    assert [m.shape for m in checked] == [(n, n, n)]
    assert np.array_equal(checked[0], first.gates[2][1].gates[0][1].blocks)
    # the SWAP of W and the CSUM of V
    assert [p.dims for p in made] == [(n, n), (n, n)] and lists == []
    checked.clear()
    made.clear()
    second = build_pure_cloner(random_alphabet(rng, n))
    assert [m.shape for m in checked] == [(n, n, n)]
    assert np.array_equal(checked[0], second.gates[2][1].gates[0][1].blocks)
    assert made == [] and lists == []


def test_mixed_build_checks_nothing_again(rng, monkeypatch):
    build_mixed_cloner(5)
    checked, made, lists = record_builds(monkeypatch)
    cloner = build_mixed_cloner(5)
    rep = run_clone(cloner, DensityMatrix(np.diag(rng.dirichlet(np.ones(5))).astype(complex)))
    assert rep.joint_fid >= 1 - 1e-9
    assert checked == [] and made == [] and lists == []


def per_state_baseline(alphabet, interactions, ancilla, kron):
    """The per-state loop ``baseline_infidelities`` replaced: one product and
    one pair fidelity per alphabet state, with the given ``kron``."""
    n = alphabet.dim
    tail = kron(PureState.basis(n, 0).amps[:, None], ancilla.factor)
    worst = np.ones(interactions.shape[:-2])
    for state in alphabet.states:
        ket = state.amps[:, None]
        e = linalg.reduced_factor(interactions @ kron(ket, tail), (n, n, ancilla.side), [2])
        worst = np.minimum(worst, factor_fidelities(e @ linalg.dagger(e), kron(ket, ket)))
    return 1.0 - worst


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_clone_reads_the_bits_of_np_kron(kind, rng, monkeypatch):
    # the product input, the joint target's factor and the baseline's
    # inputs come from linalg.kron, which forms the products np.kron forms;
    # np.kron does not broadcast over the baseline's stacked kets, so the
    # baseline is held to a per-state oracle that uses it
    n = 3
    cloner, targets = clone_targets(kind, n, rng)
    alphabet = random_alphabet(rng, n)
    ancillas = [PureState.basis(2, 0).density(), random_density(rng, 2)]
    u = np.array([haar_unitary(rng, n * n * 2).mat for _ in range(2)])
    runs = []
    for kron in (linalg.kron, np.kron):
        monkeypatch.setattr(linalg, "kron", kron)
        reps = [run_clone(cloner, t) for t in targets]
        runs.append([(r.output.mat, r.fid_a, r.fid_b, r.joint_fid) for r in reps])
    for ours, theirs in zip(*runs):
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    monkeypatch.undo()  # linalg.kron again
    for ancilla in ancillas:
        assert np.array_equal(baseline_infidelities(alphabet, u, ancilla),
                              per_state_baseline(alphabet, u, ancilla, np.kron))


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_clone_fidelities_keep_the_bits_of_one_call_each(kind, rng):
    # fid_a and fid_b come from one call on the stacked clones
    for n in (2, 3, 5):
        cloner, targets = clone_targets(kind, n, rng)
        for target in targets:
            rep = run_clone(cloner, target)
            assert rep.fid_a == float(factor_fidelities(rep.clone_a.mat, target.factor))
            assert rep.fid_b == float(factor_fidelities(rep.clone_b.mat, target.factor))


# {|0>, cos eps |0> + sin eps |1>} and the multiplicity of each clone's map
NEAR_PARALLEL = {1e-2: 1, 1e-3: 1, 1e-4: 2, 1e-5: 4, 1e-6: 4}


@pytest.mark.parametrize("eps, multiplicity", NEAR_PARALLEL.items())
def test_near_parallel_alphabets_keep_their_counts(eps, multiplicity, svd_calls):
    # the gap of R - I shrinks as eps^2: the bordered inverse certifies one
    # fixed point down to eps = 1e-3, and below it the singular values count
    # (a fixed space wider than the map's, open at the alphabet's edge)
    alphabet = Alphabet((PureState.basis(2, 0),
                         PureState(np.array([np.cos(eps), np.sin(eps)], dtype=complex))))
    cloner = build_pure_cloner(alphabet)
    for state in alphabet.states:
        svd_calls.clear()
        rep = run_clone(cloner, state.density())
        assert rep.fixed_point.multiplicity == multiplicity
        assert [compute_uv for compute_uv, _ in svd_calls] == (
            [] if multiplicity == 1 else [True])


def test_baseline_eigendecomposes_no_partial_trace(rng, eig_calls):
    # each trial's Tr_C of U (rho x blank x ancilla) U^dag is a state by
    # construction and only enters 1 x 1 fidelity sandwiches, whose values
    # are their own eigenvalues
    n = 3
    alphabet = random_alphabet(rng, n)
    ancilla = PureState.basis(2, 0).density()
    u = np.array([haar_unitary(rng, n * n * 2).mat for _ in range(4)])
    eig_calls.clear()
    infid = baseline_infidelities(alphabet, u, ancilla)
    assert infid.shape == (4,)
    assert eig_calls == []


@pytest.mark.parametrize("n, other", [(3, 2), (2, 3)])
def test_cloner_rejects_gates_of_another_layout(n, other, rng):
    own, foreign = build_mixed_cloner(n), build_mixed_cloner(other)
    with pytest.raises(ValueError, match="gate W1 is on registers"):
        ClonerCircuit(own.layout, foreign.gates, "mixed_diagonal")
    # the first foreign stage is named
    with pytest.raises(ValueError, match=r"gate V is on registers \(\('A', %d\)" % other):
        ClonerCircuit(own.layout, own.gates[:2] + foreign.gates[2:], "mixed_diagonal")
    pure = build_pure_cloner(random_alphabet(rng, other))
    with pytest.raises(ValueError, match="gate W is on registers"):
        ClonerCircuit(own.layout, pure.gates, "pure_alphabet")


def dense_twin(cloner):
    """The same cloner with every local gate wrapped as a dense Unitary."""
    gates = tuple(
        (label, GateList(cloner.layout, tuple((regs, Unitary(u.mat)) for regs, u in g.gates)))
        for label, g in cloner.gates)
    return ClonerCircuit(cloner.layout, gates, cloner.kind, cloner.alphabet)


@pytest.mark.parametrize("kind, n", [("pure", n) for n in range(2, 13)]
                         + [("mixed", n) for n in range(2, 9)])
def test_structured_gates_keep_the_bits_of_dense_gates(kind, n, rng):
    if kind == "pure":
        alphabet = random_alphabet(rng, n)
        cloner = build_pure_cloner(alphabet)
        target = alphabet.states[int(rng.integers(n))].density()
    else:
        cloner = build_mixed_cloner(n)
        target = DensityMatrix(np.diag(rng.dirichlet(np.ones(n)) + 0j))
    twin = dense_twin(cloner)
    assert all(type(u) is Unitary for _, g in twin.gates for _, u in g.gates)
    a, b = run_clone(cloner, target), run_clone(twin, target)
    assert np.array_equal(a.output.mat, b.output.mat)
    assert np.array_equal(a.fixed_point.rho_ctc.mat, b.fixed_point.rho_ctc.mat)
    assert a.fixed_point.residual == b.fixed_point.residual
    assert (a.fid_a, a.fid_b, a.joint_fid) == (b.fid_a, b.fid_b, b.joint_fid)


class TestCloningCondition:
    def test_zero_plus_case(self):
        f_cr = np.sqrt(0.5)
        ok_cr, ok_ctc, (m_cr, m_ctc) = check_cloning_condition(f_cr, 0.0)
        assert ok_cr and ok_ctc
        assert abs(m_cr - 0.5) <= 1e-9
        assert abs(m_ctc) <= 1e-9

    def test_degenerate_equalities(self):
        ok_cr, ok_ctc, (m_cr, m_ctc) = check_cloning_condition(1.0, 1.0)
        assert ok_cr and ok_ctc
        assert m_cr == 0 and m_ctc == 0

    def test_mixed_pair_equality(self):
        cloner = build_mixed_cloner(2)
        a, b = diag_state(0.25, 0.75), diag_state(0.75, 0.25)
        rep_a, rep_b = run_clone(cloner, a), run_clone(cloner, b)
        f_cr = fidelity(a, b)
        f_ctc = fidelity(rep_a.fixed_point.rho_ctc, rep_b.fixed_point.rho_ctc)
        assert abs(f_cr - f_ctc) <= 1e-9
        _, _, (m_cr, _) = check_cloning_condition(f_cr, f_ctc)
        assert abs(m_cr) <= 1e-9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            check_cloning_condition(1.5, 0.0)


class TestNoCtcBaseline:
    def test_classical_copy_of_orthonormal_states(self):
        alpha = Alphabet((PureState.basis(2, 0), PureState.basis(2, 1)))
        ancilla = PureState.basis(2, 0).density()
        infid = no_ctc_baseline(alpha, classical_copy_circuit(2), ancilla)
        assert infid <= 1e-9

    def test_identity_interaction_closed_form(self):
        alpha = zero_plus_alphabet()
        ancilla = PureState.basis(2, 0).density()
        ident = classical_copy_circuit(2).dagger() @ classical_copy_circuit(2)
        infid = no_ctc_baseline(alpha, ident, ancilla)
        assert abs(infid - (1 - np.sqrt(0.5))) <= 1e-9

    def test_random_unitaries_never_clone(self, rng):
        alpha = zero_plus_alphabet()
        ancilla = PureState.basis(2, 0).density()
        for _ in range(50):
            infid = no_ctc_baseline(alpha, haar_unitary(rng, 8), ancilla)
            assert infid > 1e-6
