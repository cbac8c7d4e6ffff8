import numpy as np
import pytest

from conftest import random_alphabet
from ctcsim import linalg, quantum
from ctcsim.sampling import haar_unitary
from ctcsim.cloning import build_mixed_cloner, build_pure_cloner, make_problem
from ctcsim.engine import DeutschProblem
from ctcsim.quantum import (
    Alphabet,
    DensityMatrix,
    GateList,
    Layout,
    PureState,
    Unitary,
    basis_mapper,
    check_density,
    csum_gate,
    embed_on_registers,
    embed_unitary,
    select_gate,
    swap_gate,
)

X = Unitary(np.array([[0, 1], [1, 0]], dtype=complex))


# -- dense reference constructors, one D x D matrix per gate ------------------

def oracle_permutation(layout, f):
    """Python loop over all basis states: column i has its 1 in row f(i)."""
    m = np.zeros((layout.total_dim,) * 2, dtype=complex)
    for col, idx in enumerate(np.ndindex(*layout.dims)):
        m[np.ravel_multi_index(f(list(idx)), layout.dims), col] = 1.0
    return m


def oracle_swap(layout, r1, r2):
    i1, i2 = layout.index(r1), layout.index(r2)

    def f(x):
        x[i1], x[i2] = x[i2], x[i1]
        return x

    return oracle_permutation(layout, f)


def oracle_csum(layout, ctrl, tgt):
    ic, it, n = layout.index(ctrl), layout.index(tgt), layout.dim(ctrl)

    def f(x):
        x[it] = (x[it] + x[ic]) % n
        return x

    return oracle_permutation(layout, f)


def oracle_select(layout, ctrl, tgt, family, adjoint=False):
    """Sum over k of dense krons |k><k|_ctrl x U_k (or U_k^dag) on tgt."""
    total = 0
    for k, u in enumerate(family):
        parts = {ctrl: np.diag(np.eye(layout.dim(ctrl))[k]),
                 tgt: u.mat.conj().T if adjoint else u.mat}
        total = total + linalg.kron_all(
            *(parts.get(name, np.eye(dim)) for name, dim in layout.registers))
    return total


def oracle_embed_on_registers(layout, regs, u):
    """U x I with U's registers first, then permuted into layout order."""
    order = [layout.index(r) for r in regs]
    order += [i for i in range(len(layout.dims)) if i not in order]
    full = np.kron(u.mat, np.eye(layout.total_dim // u.side))
    inverse = [order.index(i) for i in range(len(order))]
    return linalg.permute_registers(full, [layout.dims[i] for i in order], inverse)


MIXED = Layout((("A", 2), ("B", 3), ("C", 3), ("CTC", 2)), ctc_index=3)


def gate_cases(rng):
    fam_b = [haar_unitary(rng, 3) for _ in range(2)]  # control dim 2, target dim 3
    fam_a = [haar_unitary(rng, 2) for _ in range(3)]  # control dim 3, target dim 2
    u2, u3, u4, u6 = (haar_unitary(rng, d) for d in (2, 3, 4, 6))
    cases = {}
    for r1, r2 in (("B", "C"), ("C", "B"), ("A", "CTC")):
        cases[f"swap-{r1}{r2}"] = (swap_gate(MIXED, r1, r2), oracle_swap(MIXED, r1, r2))
    for c, t in (("B", "C"), ("C", "B"), ("A", "CTC"), ("CTC", "A")):
        cases[f"csum-{c}{t}"] = (csum_gate(MIXED, c, t), oracle_csum(MIXED, c, t))
    for adj in (False, True):
        for c, t, fam in (("A", "B", fam_b), ("C", "A", fam_a), ("CTC", "C", fam_b)):
            cases[f"select-{c}{t}-{adj}"] = (select_gate(MIXED, c, t, fam, adj),
                                             oracle_select(MIXED, c, t, fam, adj))
    for reg, u in (("C", u3), ("CTC", u2)):
        cases[f"embed-{reg}"] = (embed_unitary(MIXED, reg, u),
                                 oracle_embed_on_registers(MIXED, [reg], u))
    for regs, u in ((["CTC", "A"], u4), (["C", "A"], u6), (["A", "C"], u6)):
        cases["embed-" + "".join(regs)] = (embed_on_registers(MIXED, regs, u),
                                           oracle_embed_on_registers(MIXED, regs, u))
    return cases


def test_every_gate_kind_matches_dense_oracle(rng):
    cases = gate_cases(rng)
    assert len(cases) == 18
    for name, (gate, oracle) in cases.items():
        assert isinstance(gate, GateList), name
        assert np.max(np.abs(gate.mat - oracle)) <= 1e-12, name


def test_composition_and_dagger_match_dense_products(rng):
    total = GateList(MIXED)
    dense = np.eye(MIXED.total_dim)
    for gate, oracle in gate_cases(rng).values():
        total = gate @ total
        dense = oracle @ dense
    assert np.max(np.abs(total.mat - dense)) <= 1e-12
    assert np.max(np.abs(total.dagger().mat - dense.conj().T)) <= 1e-12


def oracle_cloner_total(cloner):
    lay = cloner.layout
    if cloner.kind == "mixed_diagonal":
        steps = [oracle_swap(lay, "A", "CTC"), oracle_swap(lay, "B", "CTC"),
                 oracle_csum(lay, "B", "CTC")]
    else:
        maps = [basis_mapper(s, k) for k, s in enumerate(cloner.alphabet.states)]
        steps = [oracle_swap(lay, "A", "CTC"), oracle_csum(lay, "A", "B"),
                 oracle_select(lay, "B", "CTC", maps),
                 oracle_select(lay, "A", "B", maps, adjoint=True),
                 oracle_select(lay, "CTC", "A", maps, adjoint=True)]
    total = np.eye(lay.total_dim, dtype=complex)
    for m in steps:
        total = m @ total
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cloner_totals_match_dense_product(n, rng):
    alphabet = random_alphabet(rng, n)
    probs = rng.dirichlet(np.ones(n))
    for cloner, target in (
        (build_pure_cloner(alphabet), alphabet.states[-1].density()),
        (build_mixed_cloner(n), DensityMatrix(np.diag(probs + 0j))),
    ):
        dense = oracle_cloner_total(cloner)
        assert np.max(np.abs(cloner.total.mat - dense)) <= 1e-12
        problem = make_problem(cloner, target)
        from_dense = DeutschProblem(problem.layout, Unitary(dense), problem.cr_input)
        assert np.max(np.abs(problem.kraus - from_dense.kraus)) <= 1e-12


def basis_vec(layout, *idx):
    v = np.zeros(layout.total_dim, dtype=complex)
    v[np.ravel_multi_index(idx, layout.dims)] = 1.0
    return v


class TestLayout:
    def test_basic(self):
        lay = Layout((("A", 2), ("B", 3), ("CTC", 2)), ctc_index=2)
        assert lay.total_dim == 12
        assert lay.cr_dims == (2, 3)
        assert lay.ctc_dim == 2
        assert lay.index("B") == 1

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Layout((("A", 2), ("A", 2)))

    def test_ctc_must_be_last(self):
        with pytest.raises(ValueError, match="last"):
            Layout((("A", 2), ("B", 2)), ctc_index=0)


class TestStates:
    def test_pure_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_density_invariants(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.6]))
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_sanitize_clamps_drift(self):
        m = np.diag([1.0 + 3e-11, -3e-11]).astype(complex)
        rho = DensityMatrix.sanitize(m)
        assert rho.mat[1, 1].real >= 0

    def test_sanitize_rejects_eigenvalue_below_psd_tolerance(self):
        eps = 2 * linalg.tolerances.psd
        with pytest.raises(ValueError, match="not PSD even before clamping"):
            DensityMatrix.sanitize(np.diag([1.0 + eps, -eps]))

    def test_sanitized_stack_matches_single_matrices(self, rng):
        z = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        m = z @ z.conj().swapaxes(-1, -2)
        stacked = quantum._sanitize(m)
        for k in range(5):
            assert np.array_equal(stacked[k], DensityMatrix.sanitize(m[k]).mat)

    def test_density_of_every_accepted_pure_state(self):
        # the norm tolerance admits a projector trace of 1 + 1.8e-10
        state = PureState(np.array([1 + 0.9e-10, 0]))
        rho = state.density()
        assert abs(np.trace(rho.mat).real - 1.0) <= 1e-15
        # a projector whose trace is already within tolerance keeps its bits
        plus = PureState.normalized([1, 1])
        assert np.array_equal(plus.density().mat, plus.projector())

    def test_stack_check_names_first_failing_entry(self):
        good = np.eye(2, dtype=complex) / 2
        stack = np.array([good, good, np.diag([1.5, -0.5]), good], dtype=complex)
        stack[3, 0, 1] = 0.1  # not Hermitian, but later than the non-PSD entry
        with pytest.raises(linalg.StackError, match="not PSD") as info:
            check_density(stack)
        assert info.value.index == 2
        check_density(stack[:2])


class TestSwap:
    def test_two_register_exchange(self):
        lay = Layout((("A", 2), ("CTC", 2)), ctc_index=1)
        g = swap_gate(lay, "A", "CTC")
        assert np.allclose(g.mat @ basis_vec(lay, 0, 1), basis_vec(lay, 1, 0))

    def test_involution(self):
        lay = Layout((("A", 3), ("B", 3)))
        g = swap_gate(lay, "A", "B")
        assert np.allclose(g.mat @ g.mat, np.eye(9))

    def test_with_bystander(self):
        lay = Layout((("A", 3), ("B", 2), ("CTC", 3)), ctc_index=2)
        g = swap_gate(lay, "A", "CTC")
        assert np.allclose(g.mat @ basis_vec(lay, 2, 1, 0), basis_vec(lay, 0, 1, 2))

    def test_symmetric_in_arguments(self):
        lay = Layout((("A", 2), ("B", 2)))
        assert np.array_equal(swap_gate(lay, "A", "B").mat, swap_gate(lay, "B", "A").mat)

    def test_rejects_unequal_dims(self):
        lay = Layout((("A", 2), ("B", 3)))
        with pytest.raises(ValueError):
            swap_gate(lay, "A", "B")
        with pytest.raises(ValueError):
            swap_gate(lay, "A", "A")


class TestCsum:
    def test_qubit_wraparound(self):
        lay = Layout((("A", 2), ("B", 2)))
        g = csum_gate(lay, "A", "B")
        assert np.allclose(g.mat @ basis_vec(lay, 1, 1), basis_vec(lay, 1, 0))

    def test_qutrit_wraparound(self):
        lay = Layout((("A", 3), ("B", 3)))
        g = csum_gate(lay, "A", "B")
        assert np.allclose(g.mat @ basis_vec(lay, 2, 2), basis_vec(lay, 2, 1))

    def test_zero_control_is_identity_on_target(self):
        lay = Layout((("A", 3), ("B", 3)))
        g = csum_gate(lay, "A", "B")
        for j in range(3):
            assert np.allclose(g.mat @ basis_vec(lay, 0, j), basis_vec(lay, 0, j))

    def test_is_permutation_matrix(self):
        lay = Layout((("A", 3), ("B", 3)))
        m = csum_gate(lay, "A", "B").mat
        assert np.array_equal(np.abs(m) > 0.5, np.abs(m) > 0)  # entries 0/1
        assert np.all(np.sum(np.abs(m), axis=0) == 1)
        assert np.all(np.sum(np.abs(m), axis=1) == 1)


class TestSelect:
    def test_cnot_pattern(self):
        lay = Layout((("A", 2), ("B", 2)))
        ident = Unitary(np.eye(2, dtype=complex))
        g = select_gate(lay, "A", "B", [ident, X])
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
        assert np.allclose(g.mat, cnot)

    def test_all_identity(self):
        lay = Layout((("A", 2), ("B", 2)))
        ident = Unitary(np.eye(2, dtype=complex))
        g = select_gate(lay, "A", "B", [ident, ident])
        assert np.allclose(g.mat, np.eye(4))

    def test_adjoint_flag_blockwise(self, rng):
        from ctcsim.sampling import haar_unitary
        lay = Layout((("A", 2), ("B", 3)))
        fam = [haar_unitary(rng, 3) for _ in range(2)]
        g = select_gate(lay, "A", "B", fam)
        g_adj = select_gate(lay, "A", "B", fam, adjoint=True)
        assert np.allclose(g.mat.conj().T, g_adj.mat)

    def test_control_after_target(self, rng):
        from ctcsim.sampling import haar_unitary
        lay = Layout((("A", 2), ("B", 2)))
        fam = [haar_unitary(rng, 2) for _ in range(2)]
        g = select_gate(lay, "B", "A", fam)
        for k in range(2):
            col = g.mat @ basis_vec(lay, 0, k)
            expect = np.kron(fam[k].mat[:, 0], np.eye(2)[k])
            assert np.allclose(col, expect)

    def test_family_size_checked(self):
        lay = Layout((("A", 2), ("B", 2)))
        with pytest.raises(ValueError):
            select_gate(lay, "A", "B", [Unitary(np.eye(2, dtype=complex))])


class TestBasisMapper:
    def test_basis_vector_gives_identity(self):
        u = basis_mapper(PureState.basis(3, 1), 1)
        assert np.allclose(u.mat, np.eye(3))

    def test_plus_to_zero(self):
        plus = PureState.normalized([1, 1])
        u = basis_mapper(plus, 0)
        img = u.mat @ plus.amps
        assert np.max(np.abs(img - np.array([1, 0]))) <= 1e-12
        assert np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(2))) <= 1e-10

    def test_phase_only_case(self):
        psi = PureState(np.exp(1j * np.pi / 3) * np.eye(3, dtype=complex)[:, 2])
        u = basis_mapper(psi, 2)
        img = u.mat @ psi.amps
        assert np.max(np.abs(img - np.eye(3)[:, 2])) <= 1e-12
        assert np.max(np.abs(img.imag)) <= 1e-12

    def test_random_states(self, rng):
        from ctcsim.sampling import random_pure
        for _ in range(25):
            n = int(rng.integers(2, 5))
            j = int(rng.integers(0, n))
            psi = random_pure(rng, n)
            u = basis_mapper(psi, j)
            assert np.max(np.abs(u.mat @ psi.amps - np.eye(n)[:, j])) <= 1e-12


class TestEmbed:
    def test_identity(self):
        lay = Layout((("A", 2), ("B", 2)))
        g = embed_unitary(lay, "B", Unitary(np.eye(2, dtype=complex)))
        assert np.allclose(g.mat, np.eye(4))

    def test_x_on_b(self):
        lay = Layout((("A", 2), ("B", 2)))
        g = embed_unitary(lay, "B", X)
        assert np.allclose(g.mat @ basis_vec(lay, 0, 0), basis_vec(lay, 0, 1))

    def test_disjoint_embeddings_commute(self, rng):
        from ctcsim.sampling import haar_unitary
        lay = Layout((("A", 2), ("B", 3), ("C", 2)))
        u = embed_unitary(lay, "A", haar_unitary(rng, 2))
        v = embed_unitary(lay, "C", haar_unitary(rng, 2))
        assert np.max(np.abs(u.mat @ v.mat - v.mat @ u.mat)) <= 1e-12

    def test_multi_register_embedding(self, rng):
        from ctcsim.sampling import haar_unitary
        lay = Layout((("A", 2), ("B", 2), ("R", 3), ("CTC", 2)), ctc_index=3)
        sub = haar_unitary(rng, 8)
        g = embed_on_registers(lay, ["A", "B", "CTC"], sub)
        # must commute with anything acting only on R
        r_op = embed_unitary(lay, "R", haar_unitary(rng, 3))
        assert np.max(np.abs(g.mat @ r_op.mat - r_op.mat @ g.mat)) <= 1e-10
        # reduces to the plain kron when R is traced away conceptually:
        # check action on a product basis vector
        for a, b, c in [(0, 1, 0), (1, 0, 1)]:
            vec4 = basis_vec(lay, a, b, 1, c)
            sub_vec = np.zeros(8, dtype=complex)
            sub_vec[np.ravel_multi_index((a, b, c), (2, 2, 2))] = 1.0
            out_sub = sub.mat @ sub_vec
            out4 = g.mat @ vec4
            got = out4.reshape(2, 2, 3, 2)[:, :, 1, :].reshape(-1)
            assert np.max(np.abs(got - out_sub)) <= 1e-12


class TestAlphabet:
    def test_size_must_match_dim(self):
        with pytest.raises(ValueError, match="size"):
            Alphabet((PureState.basis(3, 0), PureState.basis(3, 1)))

    def test_distinctness(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet((PureState.basis(2, 0), PureState.basis(2, 0)))

    def test_padding(self):
        alpha = Alphabet.padded([PureState.basis(3, 0)], 3)
        assert len(alpha) == 3

    def test_gates_unitary_for_random_alphabets(self, rng):
        from ctcsim.cloning import build_pure_cloner
        for n in (2, 3, 4):
            alpha = random_alphabet(rng, n)
            circuit = build_pure_cloner(alpha)
            for _, g in circuit.gates:
                defect = np.max(np.abs(g.mat.conj().T @ g.mat - np.eye(n**3)))
                assert defect <= 1e-10
