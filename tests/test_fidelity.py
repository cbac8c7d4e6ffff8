import numpy as np
import pytest

from conftest import random_pure, sandwich_fidelity
from ctcsim import linalg
from ctcsim.fidelity import (
    _EIG_FLOOR,
    check_monotonicity,
    check_multiplicativity,
    factor_fidelities,
    fidelity,
    monotonicity_margins,
    multiplicativity_defects,
)
from ctcsim.quantum import DensityMatrix, PureState
from ctcsim.sampling import haar_unitary, random_density

ZERO = PureState.basis(2, 0).density()
ONE = PureState.basis(2, 1).density()
MIXED = DensityMatrix.maximally_mixed(2)


def test_self_fidelity_is_one(rng):
    for _ in range(10):
        rho = random_density(rng, 3)
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-12


def test_orthogonal_states_zero():
    assert fidelity(ZERO, ONE) <= 1e-12


def test_pure_vs_maximally_mixed():
    # closed form sqrt(<psi|sigma|psi>) for pure rho
    assert abs(fidelity(ZERO, MIXED) - np.sqrt(0.5)) <= 1e-12


def test_shape_mismatch():
    with pytest.raises(ValueError):
        fidelity(ZERO, DensityMatrix.maximally_mixed(3))


def test_symmetry(rng):
    for _ in range(50):
        a, b = random_density(rng, 3), random_density(rng, 3)
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9


def test_unitary_invariance(rng):
    for _ in range(50):
        a, b = random_density(rng, 3), random_density(rng, 3)
        u = haar_unitary(rng, 3).mat
        ra = DensityMatrix(u @ a.mat @ u.conj().T)
        rb = DensityMatrix(u @ b.mat @ u.conj().T)
        assert abs(fidelity(ra, rb) - fidelity(a, b)) <= 1e-9


def test_pure_state_overlap_agreement(rng):
    for _ in range(50):
        p, q = random_pure(rng, 3), random_pure(rng, 3)
        overlap = abs(np.vdot(p.amps, q.amps))
        assert abs(fidelity(p.density(), q.density()) - overlap) <= 1e-9


def test_one_iff_equal(rng):
    for _ in range(20):
        a, b = random_density(rng, 2), random_density(rng, 2)
        f = fidelity(a, b)
        d = linalg.trace_distance(a.mat, b.mat)
        if f >= 1 - 1e-12:
            assert d <= 1e-8
        if d <= 1e-12:
            assert f >= 1 - 1e-8


def rank_deficient_density(rng, n, rank):
    """A random density matrix of side n and the given rank."""
    z = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = z @ z.conj().T
    return m / np.trace(m).real


def rank_deficient_factor(rng, n, rank):
    """An (n, n) unit factor of a random density matrix of the given rank:
    its last n - rank columns are zero."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z[:, rank:] = 0
    return linalg.unit_factor(z)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_fidelities_match_the_dense_oracle(n, rng):
    # full-rank and rank-deficient sigma, as one stack and one by one
    rhos = np.stack([random_density(rng, n).mat for _ in range(6)]
                    + [rank_deficient_density(rng, n, r) for r in (1, 2, 1)])
    ws = np.stack([random_density(rng, n).factor for _ in range(3)]
                  + [rank_deficient_factor(rng, n, r) for r in (1, 2, n - 1)]
                  + [random_density(rng, n).factor for _ in range(3)])
    sigmas = ws @ linalg.dagger(ws)
    stacked = factor_fidelities(rhos, ws)
    for rho, sigma, f in zip(rhos, sigmas, stacked):
        oracle = sandwich_fidelity(rho, sigma)
        assert abs(f - oracle) <= 1e-12
        assert abs(fidelity(DensityMatrix(rho), DensityMatrix(sigma)) - oracle) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 7])
def test_pure_pairs_give_the_overlap(n, rng):
    for _ in range(10):
        p, q = random_pure(rng, n), random_pure(rng, n)
        overlap = abs(np.vdot(p.amps, q.amps))
        rho, sigma = p.projector(), q.projector()
        assert abs(float(factor_fidelities(rho, q.amps[:, None])) - overlap) <= 1e-12
        assert abs(sandwich_fidelity(rho, sigma) - overlap) <= 1e-12


def test_fidelity_against_a_pure_state_sandwiches_one_by_one(rng, eig_calls):
    # the 1 x 1 sandwich against the state's ket is its own eigenvalue
    rho, pure = random_density(rng, 4), random_pure(rng, 4).density()
    eig_calls.clear()
    fidelity(rho, pure)
    assert eig_calls == []


def eigvalsh_ket_fidelities(rho, ket):
    """The r x r path of ``factor_fidelities`` taken for a ket: eigvalsh of
    the symmetrized 1 x 1 sandwich, then the floor, root and clamp."""
    sandwich = linalg.dagger(ket) @ rho @ ket
    ev = np.linalg.eigvalsh((sandwich + linalg.dagger(sandwich)) / 2)[..., 0]
    ev = np.where(ev < _EIG_FLOOR * np.maximum(ev, 1.0), 0.0, ev)
    return np.minimum(np.sqrt(ev), 1.0)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_ket_fidelities_keep_the_bits_of_eigvalsh(n, rng):
    # random states against random kets, against their own kets (a sandwich
    # at 1 up to rounding) and against kets orthogonal to a rank-deficient
    # state (a sandwich at the noise floor)
    rhos = np.array([random_density(rng, n).mat for _ in range(20)])
    kets = np.array([random_pure(rng, n).amps[:, None] for _ in range(20)])
    own = kets[:5] @ linalg.dagger(kets[:5])
    deficient = np.array([np.diag([0.0] * (n - 1) + [1.0]) + 0j] * 5)
    near_zero = np.zeros((5, n, 1), dtype=complex)
    near_zero[:, 0, 0] = 1.0
    near_zero[:, -1, 0] = 1e-9 * rng.standard_normal(5)
    rhos = np.concatenate([rhos, own, deficient])
    kets = np.concatenate([kets, kets[:5], near_zero])
    got = factor_fidelities(rhos, kets)
    assert np.array_equal(got, eigvalsh_ket_fidelities(rhos, kets))
    assert (got[-5:] == 0.0).all() and (got[20:25] >= 1 - 1e-12).all()
    for rho, ket, f in zip(rhos, kets, got):  # a stack of one has the same bits
        assert factor_fidelities(rho, ket) == f


def test_ket_fidelities_reject_a_negative_sandwich():
    rhos = np.array([np.eye(2) / 2, np.eye(2) / 2, np.diag([1.0, -1.0])], dtype=complex)
    kets = np.array([[[0.0], [1.0]]] * 3, dtype=complex)
    with pytest.raises(linalg.StackError, match="sandwiched operator not PSD") as err:
        factor_fidelities(rhos, kets)
    assert err.value.index == 2
    rhos[2] = np.nan
    with pytest.raises(linalg.StackError) as err:
        factor_fidelities(rhos, kets)
    assert err.value.index == 2


def test_factor_kernel_rejects_what_the_dense_path_rejects():
    # a sandwiched operator with a negative eigenvalue, and a fidelity above 1
    with pytest.raises(ValueError, match="sandwiched operator not PSD"):
        factor_fidelities(np.diag([1.0, -1.0]).astype(complex), np.eye(2)[:, 1:])
    with pytest.raises(ValueError, match="outside \\[0,1\\]"):
        factor_fidelities(np.eye(2, dtype=complex), np.eye(2, dtype=complex))


class TestMultiplicativity:
    def test_all_equal(self, rng):
        rho = random_density(rng, 2)
        sig = random_density(rng, 2)
        assert check_multiplicativity(rho, sig, rho, sig) <= 1e-12

    def test_shared_second_factor(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 2)
        sig = random_density(rng, 2)
        big_a = DensityMatrix(linalg.kron(a.mat, sig.mat))
        big_b = DensityMatrix(linalg.kron(b.mat, sig.mat))
        assert abs(fidelity(big_a, big_b) - fidelity(a, b)) <= 1e-9

    def test_random_sweep(self, rng):
        for _ in range(200):
            quad = [random_density(rng, 2) for _ in range(4)]
            assert check_multiplicativity(*quad) <= 1e-9


class TestMonotonicity:
    def test_product_states_equality(self, rng):
        sig, tau = random_density(rng, 2), random_density(rng, 2)
        c = random_density(rng, 2)
        big_s = DensityMatrix(linalg.kron(sig.mat, c.mat))
        big_t = DensityMatrix(linalg.kron(tau.mat, c.mat))
        assert abs(check_monotonicity(big_s, big_t, (2, 2), {1})) <= 1e-9

    def test_equal_inputs(self, rng):
        big = random_density(rng, 4)
        assert abs(check_monotonicity(big, big, (2, 2), {1})) <= 1e-9

    def test_random_sweep_nonnegative(self, rng):
        strict = 0
        for _ in range(200):
            s, t = random_density(rng, 4), random_density(rng, 4)
            margin = check_monotonicity(s, t, (2, 2), {1})
            assert margin >= -1e-9
            if margin > 1e-6:
                strict += 1
        assert strict > 0  # strictly positive cases exist


@pytest.mark.parametrize("dims, traced", [((2, 3), {0}), ((2, 3), {1}),
                                          ((2, 3, 2), {0, 2}), ((2, 3, 2), {1})])
def test_monotonicity_margins_match_the_dense_oracle(dims, traced, rng):
    n = int(np.prod(dims))
    keep = [i for i in range(len(dims)) if i not in traced]
    sigmas = [random_density(rng, n) for _ in range(4)]
    taus = [random_density(rng, n) for _ in range(4)]
    stacked = monotonicity_margins(np.stack([s.mat for s in sigmas]),
                                   np.stack([t.factor for t in taus]), dims, traced)
    for s, t, margin in zip(sigmas, taus, stacked):
        reduced = [linalg.partial_trace(m.mat, dims, keep) for m in (s, t)]
        oracle = sandwich_fidelity(*reduced) - sandwich_fidelity(s.mat, t.mat)
        assert abs(margin - oracle) <= 1e-12
        assert margin == check_monotonicity(s, t, dims, traced)


@pytest.mark.parametrize("bad", [5, -1])
def test_monotonicity_rejects_a_traced_register_out_of_range(bad, rng):
    s, t = random_density(rng, 4), random_density(rng, 4)
    with pytest.raises(ValueError, match=f"traced register {bad} out of range"):
        check_monotonicity(s, t, (2, 2), {bad})


def test_stacked_multiplicativity_equals_the_single_calls(rng):
    quads = [[random_density(rng, 2) for _ in range(4)] for _ in range(6)]
    rho_i, sigma_i, rho_j, sigma_j = (
        np.stack([getattr(q[k], attr) for q in quads])
        for k, attr in ((0, "mat"), (1, "mat"), (2, "factor"), (3, "factor")))
    stacked = multiplicativity_defects(rho_i, sigma_i, rho_j, sigma_j)
    for quad, defect in zip(quads, stacked):
        assert defect == check_multiplicativity(*quad)
