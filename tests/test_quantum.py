import math

import numpy as np
import pytest

from conftest import apply_gate_by_gate, kron_all, random_alphabet, random_pure
from ctcsim import linalg, quantum
from ctcsim.sampling import haar_unitary, random_density
from ctcsim.cloning import build_mixed_cloner, build_pure_cloner, make_problem
from ctcsim.engine import DeutschProblem, solve_fixed_point
from ctcsim.nosignal import apply_spectator_channel
from ctcsim.quantum import (
    Alphabet,
    DensityMatrix,
    GateList,
    Layout,
    Permutation,
    PureState,
    Select,
    Unitary,
    basis_mapper,
    basis_mappers,
    check_density,
    csum_gate,
    embed_on_registers,
    ket_distances,
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
        total = total + kron_all(
            *(parts.get(name, np.eye(dim)) for name, dim in layout.registers))
    return total


def oracle_embed_on_registers(layout, regs, u):
    """U x I with U's registers first, then permuted into layout order."""
    order = [layout.index(r) for r in regs]
    order += [i for i in range(len(layout.dims)) if i not in order]
    full = np.kron(u.mat, np.eye(layout.total_dim // u.side))
    inverse = [order.index(i) for i in range(len(order))]
    return linalg.permute_registers(full, [layout.dims[i] for i in order], inverse)


def oracle_basis_mapper(psi, j):
    """One Householder reflection and phase fix, built for one state alone."""
    n = psi.dim
    overlap = psi.amps[j]
    theta = float(np.angle(overlap)) if abs(overlap) > 1e-14 else 0.0
    v = psi.amps - np.exp(1j * theta) * np.eye(n, dtype=complex)[j]
    vv = float(np.real(np.vdot(v, v)))
    h = np.eye(n, dtype=complex)
    if vv >= 1e-24:
        h = h - 2.0 * np.outer(v, v.conj()) / vv
    phase_fix = np.eye(n, dtype=complex)
    phase_fix[j, j] = np.exp(-1j * theta)
    return phase_fix @ h


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
        cases[f"embed-{reg}"] = (embed_on_registers(MIXED, [reg], u),
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


def test_composition_trusts_only_lists_on_the_same_registers():
    qubits = Layout((("A", 2), ("CTC", 2)), ctc_index=1)
    qutrits = Layout((("A", 3), ("CTC", 3)), ctc_index=1)
    a, b = swap_gate(qubits, "A", "CTC"), csum_gate(qutrits, "A", "CTC")
    for first, second in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="cannot compose gate lists on different layouts"):
            first @ second
    # the public constructor checks every gate, also one a list has checked
    for _ in range(2):
        with pytest.raises(ValueError, match="does not fit registers"):
            GateList(qutrits, a.gates)
    # on the same registers the parts are composed as they are
    c = csum_gate(Layout(qubits.registers), "CTC", "A")
    composed = c @ a
    assert composed.layout is c.layout
    assert composed.gates == a.gates + c.gates
    assert np.array_equal(composed.mat, GateList(qubits, a.gates + c.gates).mat)


def test_structured_gates_match_dense_oracles_and_invert(rng):
    fam = [haar_unitary(rng, 3) for _ in range(2)]
    cases = [(swap_gate(MIXED, "B", "C"), oracle_swap(MIXED, "B", "C"), Permutation),
             (csum_gate(MIXED, "C", "B"), oracle_csum(MIXED, "C", "B"), Permutation),
             (select_gate(MIXED, "A", "B", fam), oracle_select(MIXED, "A", "B", fam), Select),
             (select_gate(MIXED, "A", "C", fam, adjoint=True),
              oracle_select(MIXED, "A", "C", fam, adjoint=True), Select)]
    for gate, oracle, kind in cases:
        ((regs, local),) = gate.gates
        assert type(local) is kind
        # the local gate's own matrix, embedded by the embedding oracle
        assert np.array_equal(oracle_embed_on_registers(MIXED, regs, local), oracle)
        assert np.array_equal(local.dagger().mat, local.mat.conj().T)
        inverse = GateList(MIXED, ((regs, local.dagger()),))
        assert np.max(np.abs((inverse @ gate).mat - np.eye(MIXED.total_dim))) <= 1e-12


def test_permutation_rejects_a_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation(np.array([0, 0, 1, 2]), (2, 2))


def test_select_checks_its_stack_once_and_names_the_member(rng):
    blocks = np.array([haar_unitary(rng, 2).mat for _ in range(3)])
    blocks[1, 0, 0] += 0.1
    with pytest.raises(linalg.StackError, match="not unitary") as info:
        Select(blocks)
    assert info.value.index == 1


# a Hadamard written to 10 digits: max |H^dag H - I| = 3.8e-11, within the bar
H10 = np.array([[1, 1], [1, -1]]) * 0.7071067812


def test_product_bound_counts_the_dense_gates():
    layout = Layout((("A", 2), ("CTC", 2)), ctc_index=1)
    h = Unitary(H10)
    swap = swap_gate(layout, "A", "CTC").gates
    bar = linalg.tolerances.unitary
    assert GateList(layout, swap * 3).tolerance == bar
    assert GateList(layout, ((("A",), h),) * 4 + swap * 3).tolerance == 4 * bar
    # 400 such gates drift by 1.5e-8: within 400 bars, not within one
    long = GateList(layout, ((("A",), h), (("CTC",), h)) * 200 + swap * 58)
    defect = np.abs(long.mat.conj().T @ long.mat - np.eye(4)).max()
    assert bar < defect < long.tolerance
    with pytest.raises(ValueError, match="not unitary"):
        Unitary(long.mat)


@pytest.mark.parametrize("n", range(2, 13))
def test_basis_mappers_equal_basis_mapper(n, rng):
    alphabet = random_alphabet(rng, n)
    mappers = basis_mappers(alphabet)
    assert mappers.blocks.shape == (n, n, n)
    for k, state in enumerate(alphabet.states):
        assert np.array_equal(mappers.blocks[k], basis_mapper(state, k).mat)
        assert np.array_equal(mappers.blocks[k], oracle_basis_mapper(state, k))
    # a basis state is its own image: the identity, without a reflection
    basis = Alphabet(tuple(PureState.basis(n, k) for k in range(n)))
    assert np.array_equal(basis_mappers(basis).blocks, np.array([np.eye(n)] * n))


def test_memoised_register_check_rejects_on_every_construction():
    lay = Layout((("A", 2), ("B", 3), ("CTC", 2)), ctc_index=2)
    x = X
    for _ in range(3):
        with pytest.raises(ValueError, match="must be distinct"):
            GateList(lay, ((("A", "A"), Unitary(np.eye(4, dtype=complex))),))
        with pytest.raises(ValueError, match="does not fit registers"):
            GateList(lay, ((("B",), x),))
        with pytest.raises(ValueError, match="does not fit registers"):
            # side 6 matches, but a (3, 2) select does not fit dims (2, 3)
            GateList(lay, ((("A", "B"), Select(np.array([x.mat] * 3))),))
        with pytest.raises(ValueError, match="does not fit registers"):
            GateList(lay, ((("A", "CTC"), swap_gate(lay, "A", "CTC").gates[0][1].dagger()),
                           (("A", "B"), Permutation(np.arange(4), (2, 2)))))
        assert GateList(lay, ((("A",), x),)).side == 12


@pytest.mark.parametrize("as_list", [False, True], ids=["select", "unitary-list"])
def test_gate_builders_reject_misfits_with_their_messages(as_list, rng):
    # swap_gate, csum_gate and select_gate make the checks the GateList
    # constructor would make, so the lists they return are not checked again
    lay = Layout((("A", 2), ("B", 3), ("CTC", 2)), ctc_index=2)

    def family(*sides):
        members = [haar_unitary(rng, side) for side in sides]
        return members if as_list else Select(np.array([u.mat for u in members]))

    cases = [
        (lambda: swap_gate(lay, "A", "A"), "cannot swap a register with itself"),
        (lambda: swap_gate(lay, "A", "B"), "swap needs equal dims, got 2 and 3"),
        (lambda: csum_gate(lay, "B", "B"), "control and target must differ"),
        (lambda: csum_gate(lay, "B", "CTC"), "csum needs equal dims, got 3 and 2"),
        (lambda: select_gate(lay, "A", "A", family(2, 2)), "control and target must differ"),
        (lambda: select_gate(lay, "A", "B", family(3, 3, 3)),
         "family size 3 must equal control dim 2"),
        (lambda: select_gate(lay, "A", "B", family(2, 2)),
         "family member 0 has side 2, target dim 3"),
        (lambda: select_gate(lay, "B", "A", family(3, 3, 3), adjoint=True),
         "family member 0 has side 3, target dim 2"),
    ]
    if as_list:  # each member of a list is tested, not only the first
        cases.append((lambda: select_gate(lay, "A", "B", family(3, 2)),
                      "family member 1 has side 2, target dim 3"))
    for build, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
    with pytest.raises(KeyError, match="no register named 'Z'"):
        select_gate(lay, "A", "Z", family(2, 2))


def test_gate_builders_return_what_the_constructor_accepts(rng):
    lay = Layout((("A", 3), ("B", 2), ("C", 3), ("CTC", 2)), ctc_index=3)
    members = [haar_unitary(rng, 2) for _ in range(3)]
    built = [swap_gate(lay, "C", "A"), csum_gate(lay, "A", "C"), swap_gate(lay, "B", "CTC"),
             select_gate(lay, "A", "B", members),
             select_gate(lay, "C", "CTC", Select(np.array([u.mat for u in members])), True)]
    for gl in built:
        checked = GateList(lay, gl.gates)
        assert checked.gates == gl.gates
        assert np.array_equal(checked.mat, gl.mat)


def test_swap_and_csum_share_one_read_only_permutation_per_dim():
    a = Layout((("A", 3), ("B", 3)))
    b = Layout((("X", 3), ("Y", 2), ("Z", 3)))
    swap = swap_gate(a, "A", "B").gates[0][1]
    csum = csum_gate(a, "A", "B").gates[0][1]
    assert swap_gate(b, "Z", "X").gates[0][1] is swap
    assert csum_gate(b, "X", "Z").gates[0][1] is csum
    assert swap is not csum
    assert swap_gate(Layout((("A", 4), ("B", 4))), "A", "B").gates[0][1] is not swap
    for perm in (swap, csum):
        with pytest.raises(ValueError, match="read-only"):
            perm.source[0] = perm.source[1]
        # the dense matrix is made on request and not kept on the shared gate
        assert perm.mat is not perm.mat
    assert np.array_equal(swap.source, [0, 3, 6, 1, 4, 7, 2, 5, 8])
    assert np.array_equal(csum.source, [0, 1, 2, 5, 3, 4, 7, 8, 6])


def random_local_gates(rng, layout, count, kinds=("swap", "csum", "select", "unitary")):
    """``count`` random local gates of the given kinds on ``layout``: swaps
    and CSUMs on pairs of equal dims, selects with a Haar family, and Haar
    unitaries on one register or two."""
    names, gates = layout.names, []
    while len(gates) < count:
        kind = kinds[rng.integers(len(kinds))]
        a, b = (names[i] for i in rng.choice(len(names), 2, replace=False))
        if kind in ("swap", "csum"):
            if layout.dim(a) != layout.dim(b):
                continue
            gates += (swap_gate if kind == "swap" else csum_gate)(layout, a, b).gates
        elif kind == "select":
            family = [haar_unitary(rng, layout.dim(b)) for _ in range(layout.dim(a))]
            gates += select_gate(layout, a, b, family, bool(rng.integers(2))).gates
        else:
            regs = [a, b][:1 + rng.integers(2)]
            u = haar_unitary(rng, math.prod(layout.dim(r) for r in regs))
            gates += embed_on_registers(layout, regs, u).gates
    return gates


PLAN_LAYOUTS = {
    "mixed-dims": MIXED,
    "qutrits-first": Layout((("A", 3), ("B", 2), ("C", 2), ("D", 3), ("CTC", 2)),
                            ctc_index=4),
    "qubits": Layout(tuple((f"Q{i}", 2) for i in range(4)) + (("CTC", 2),), ctc_index=4),
}


def plan_cases(rng, layout):
    """Gate lists with permutation runs at the start, middle and end, of
    permutations only, empty, and with repeated lines."""
    def perms(n):
        return random_local_gates(rng, layout, n, ("swap", "csum"))

    def dense(n):
        return random_local_gates(rng, layout, n, ("select", "unitary"))

    mixed = random_local_gates(rng, layout, 4)
    return {
        "perms-start": perms(3) + dense(3),
        "perms-middle": dense(2) + perms(3) + dense(2),
        "perms-end": dense(3) + perms(3),
        "perms-only": perms(5),
        "empty": [],
        "repeated": [mixed[i] for i in (0, 1, 0, 2, 3, 1, 0, 3, 3, 2)] * 3,
        "random": random_local_gates(rng, layout, 12),
    }


def gathers_only(steps):
    return sum(product is None for _, product in steps)


@pytest.mark.parametrize("name", PLAN_LAYOUTS)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("room", ["default", 0])
def test_plan_equals_gate_by_gate_oracle(name, lead, room, rng, monkeypatch):
    """One product per dense gate and one gather alone, the last. Each
    distinct gate is compiled once, or at each use with no room to keep it."""
    if room != "default":
        monkeypatch.setattr(quantum, "_PLAN_ROWS", room)
    compiled = []

    def counted(layout, regs, u):
        compiled.append(1)
        return real(layout, regs, u)

    real = quantum._compiled
    monkeypatch.setattr(quantum, "_compiled", counted)
    layout = PLAN_LAYOUTS[name]
    for case, gates in plan_cases(rng, layout).items():
        gl = GateList(layout, tuple(gates))
        columns = (rng.standard_normal(lead + (layout.total_dim, 5))
                   + 1j * rng.standard_normal(lead + (layout.total_dim, 5)))
        compiled.clear()
        out = gl.apply(columns)
        assert out.shape == columns.shape, case
        assert np.array_equal(out, apply_gate_by_gate(gl, columns)), case
        distinct = {(regs, id(u)) for regs, u in gates}
        assert len(compiled) == (len(distinct) if room == "default" else len(gates)), case
        steps = list(gl._steps())
        dense = sum(not isinstance(u, Permutation) for _, u in gates)
        assert len(steps) - gathers_only(steps) == dense, case
        assert gathers_only(steps) == (len(gates) > 0), case


def test_front_gathers_of_large_layouts_are_not_cached(rng, monkeypatch):
    monkeypatch.setattr(quantum, "_CACHED_SIDE", 8)
    layout = PLAN_LAYOUTS["qubits"]  # side 32
    gl = GateList(layout, tuple(random_local_gates(rng, layout, 6)))
    before = quantum._front.cache_info().currsize
    columns = rng.standard_normal((layout.total_dim, 3)) + 0j
    assert np.array_equal(gl.apply(columns), apply_gate_by_gate(gl, columns))
    assert quantum._front.cache_info().currsize == before


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cloner_plans_fold_their_permutations(n, rng):
    """The mixed cloner's SWAP, SWAP, CSUM is one gather and no product; the
    pure cloner's SWAP and CSUM fold into the gather of its first select."""
    mixed = build_mixed_cloner(n).total
    pure = build_pure_cloner(random_alphabet(rng, n)).total
    mixed_steps, pure_steps = list(mixed._steps()), list(pure._steps())
    assert len(mixed_steps) == 1 and gathers_only(mixed_steps) == 1
    assert [product is None for _, product in pure_steps] == [False, False, False, True]
    for gl in (mixed, pure):
        columns = rng.standard_normal((n ** 3, n)) + 1j * rng.standard_normal((n ** 3, n))
        assert np.array_equal(gl.apply(columns), apply_gate_by_gate(gl, columns))


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

    def test_index_and_dim_equal_a_scan_of_the_registers(self):
        lay = Layout((("Q0", 2), ("B", 3), ("Q2", 5), ("CTC", 2)), ctc_index=3)
        for i, (name, dim) in enumerate(lay.registers):
            assert (lay.index(name), lay.dim(name)) == (i, dim)
        for name in ("C", "b", ""):
            with pytest.raises(KeyError) as exc:
                lay.index(name)
            assert exc.value.args == (f"no register named {name!r}",)
            with pytest.raises(KeyError, match=f"no register named {name!r}"):
                lay.dim(name)

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
        stacked = linalg.psd_factor(m)
        for k in range(5):
            assert np.array_equal(stacked[k], linalg.psd_factor(m[k]))

    def test_attached_factors_reproduce_their_matrices(self, rng, eig_calls):
        alphabet = random_alphabet(rng, 3)
        target = alphabet.states[1].density()
        mixed = random_density(rng, 3)
        joint = random_pure(rng, 6).density().with_dims((2, 3))
        states = [
            random_pure(rng, 5).density(),
            make_problem(build_pure_cloner(alphabet), target).cr_input,
            make_problem(build_mixed_cloner(3), mixed).cr_input,
            mixed,
            apply_spectator_channel(joint, [np.sqrt(0.5) * np.eye(3),
                                            np.sqrt(0.5) * np.diag([1, -1, 1])], 2),
            solve_fixed_point(make_problem(build_pure_cloner(alphabet), mixed)).rho_ctc,
            DensityMatrix.sanitize(np.diag([0.5 + 3e-11, 0.5, -3e-11])),
        ]
        # each factor was attached where the state was made, not computed
        eig_calls.clear()
        for rho in states:
            w = rho.factor
            assert np.max(np.abs(w @ w.conj().T - rho.mat)) <= 1e-14
        assert eig_calls == []

    def test_validated_state_factors_at_its_kept_rank(self, rng):
        psi, phi = random_pure(rng, 4), random_pure(rng, 4)
        rho = DensityMatrix(0.3 * psi.projector() + 0.7 * phi.projector())
        assert rho.factor.shape == (4, 2)
        assert np.max(np.abs(rho.factor @ rho.factor.conj().T - rho.mat)) <= 1e-14

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

    def test_stack_check_names_a_nan_entry(self):
        stack = np.array([np.eye(2) / 2] * 4, dtype=complex)
        stack[2, 1, 1] = np.nan
        with pytest.raises(linalg.StackError, match="nan") as info:
            check_density(stack)
        assert info.value.index == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        DensityMatrix, Unitary, lambda m: Select(np.array([np.eye(2), m]))],
        ids=["DensityMatrix", "Unitary", "Select"])
    def test_non_finite_entries_rejected(self, build, entry):
        with pytest.raises(ValueError, match="nan"):
            build(np.array([[entry, 0], [0, 1]], dtype=complex))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("build, entries, message", [
        (DensityMatrix, [[1e308, 0], [0, 1e308]], "trace inf is not 1"),
        (DensityMatrix, [[0, 1e308], [-1e308, 0]], "max |h - h^dag| = inf"),
        (Unitary, [[1e308, 0], [0, 1]], "max |U^dag U - I| = inf"),
        (PureState, [1e308, 1e308], "state norm inf is not 1"),
    ], ids=["trace", "hermiticity", "unitary", "norm"])
    def test_huge_finite_entries_fail_without_overflow_warnings(self, build, entries,
                                                                message):
        with pytest.raises(ValueError) as info:
            build(np.array(entries, dtype=complex))
        assert message in str(info.value)

    @pytest.mark.parametrize("dims, order", [
        ((2, 3, 2), (1, 2, 0)), ((3, 2), (0, 1)), ((2, 2, 3), (2, 0, 1)), ((), ())])
    def test_product_matches_permuted_kron(self, dims, order, rng):
        # one part per register but the last two, which share a part
        parts = [random_density(rng, d).with_dims((d,)) for d in dims[:-2]]
        if len(dims) >= 2:
            parts.append(random_pure(rng, dims[-2] * dims[-1]).density().with_dims(dims[-2:]))
        rho = DensityMatrix.product(parts, order)
        oracle = linalg.permute_registers(
            kron_all(*(p.mat for p in parts)), dims, order)
        assert rho.dims == tuple(dims[i] for i in order)
        assert np.max(np.abs(rho.mat - oracle)) <= 1e-15
        assert np.array_equal(rho.factor @ rho.factor.conj().T, rho.mat)

    def test_product_keeps_the_kron_of_factors(self, rng):
        target, blank = random_density(rng, 3), PureState.basis(3, 0).density()
        rho = DensityMatrix.product((target, blank))
        assert rho.dims == (3, 3)
        assert np.array_equal(rho.factor, np.kron(target.factor, blank.factor))

    def test_product_factor_equals_np_kron(self, rng):
        # linalg.kron forms the products np.kron forms, at every rank
        parts = (random_density(rng, 2), random_pure(rng, 3).density(),
                 DensityMatrix(np.diag([0.25, 0.75, 0]) + 0j))
        rho = DensityMatrix.product(parts)
        oracle = np.kron(np.kron(parts[0].factor, parts[1].factor), parts[2].factor)
        assert rho.factor.shape == (18, 4)
        assert np.array_equal(rho.factor, oracle)
        assert np.array_equal(rho.mat, oracle @ oracle.conj().T)


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
        for _ in range(25):
            n = int(rng.integers(2, 5))
            j = int(rng.integers(0, n))
            psi = random_pure(rng, n)
            u = basis_mapper(psi, j)
            assert np.max(np.abs(u.mat @ psi.amps - np.eye(n)[:, j])) <= 1e-12


class TestEmbed:
    def test_identity(self):
        lay = Layout((("A", 2), ("B", 2)))
        g = embed_on_registers(lay, ["B"], Unitary(np.eye(2, dtype=complex)))
        assert np.allclose(g.mat, np.eye(4))

    def test_x_on_b(self):
        lay = Layout((("A", 2), ("B", 2)))
        g = embed_on_registers(lay, ["B"], X)
        assert np.allclose(g.mat @ basis_vec(lay, 0, 0), basis_vec(lay, 0, 1))

    def test_disjoint_embeddings_commute(self, rng):
        from ctcsim.sampling import haar_unitary
        lay = Layout((("A", 2), ("B", 3), ("C", 2)))
        u = embed_on_registers(lay, ["A"], haar_unitary(rng, 2))
        v = embed_on_registers(lay, ["C"], haar_unitary(rng, 2))
        assert np.max(np.abs(u.mat @ v.mat - v.mat @ u.mat)) <= 1e-12

    def test_multi_register_embedding(self, rng):
        from ctcsim.sampling import haar_unitary
        lay = Layout((("A", 2), ("B", 2), ("R", 3), ("CTC", 2)), ctc_index=3)
        sub = haar_unitary(rng, 8)
        g = embed_on_registers(lay, ["A", "B", "CTC"], sub)
        # must commute with anything acting only on R
        r_op = embed_on_registers(lay, ["R"], haar_unitary(rng, 3))
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

    def test_distinctness_names_the_first_pair_in_row_major_order(self, rng):
        a, b = random_pure(rng, 4), random_pure(rng, 4)
        states = (a, b, PureState(a.amps.copy()), PureState(b.amps.copy()))
        with pytest.raises(ValueError, match="^alphabet states 0 and 2 are not distinct$"):
            Alphabet(states)

    def test_distinctness_takes_no_eigendecomposition(self, rng, eig_calls):
        states = tuple(random_pure(rng, 24) for _ in range(24))
        eig_calls.clear()
        Alphabet(states)
        assert eig_calls == []

    def test_ket_distances_equal_projector_trace_distances(self, rng):
        pairs = [(random_pure(rng, n), random_pure(rng, n)) for n in (2, 5, 24)]
        for n, dist in ((2, 3e-9), (5, 2e-8), (24, 3e-9)):
            # b at trace distance sin(t) = dist from a, along a unit vector
            # orthogonal to a
            a, z = random_pure(rng, n).amps, random_pure(rng, n).amps
            perp = z - np.vdot(a, z) * a
            perp /= np.linalg.norm(perp)
            t = np.arcsin(dist)
            pairs.append((PureState(a), PureState(np.cos(t) * a + np.sin(t) * perp)))
        for a, b in pairs:
            got = ket_distances(np.array([a.amps, b.amps]))
            want = linalg.trace_distance(a.projector(), b.projector())
            assert abs(got[0, 1] - want) <= 1e-15
            assert abs(got[1, 0] - want) <= 1e-15

    def test_padding(self):
        alpha = Alphabet.padded([PureState.basis(3, 0)], 3)
        assert len(alpha) == 3

    def test_padding_names_a_state_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"^state 0 has dimension 3, not 2$"):
            Alphabet.padded([PureState.basis(3, 0)], 2)
        with pytest.raises(ValueError, match=r"^state 1 has dimension 2, not 3$"):
            Alphabet.padded([PureState.basis(3, 0), PureState.basis(2, 1)], 3)

    def test_gates_unitary_for_random_alphabets(self, rng):
        from ctcsim.cloning import build_pure_cloner
        for n in (2, 3, 4):
            alpha = random_alphabet(rng, n)
            circuit = build_pure_cloner(alpha)
            for _, g in circuit.gates:
                defect = np.max(np.abs(g.mat.conj().T @ g.mat - np.eye(n**3)))
                assert defect <= 1e-10
