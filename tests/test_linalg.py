import numpy as np
import pytest

from conftest import hermitian_eig, psd_sqrt, random_hermitian
from ctcsim import linalg

X = np.array([[0, 1], [1, 0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def kron_oracle(a, b):
    """Four-loop brute-force Kronecker product."""
    ra, rb = a.shape[0], b.shape[0]
    out = np.zeros((ra * rb, ra * rb), dtype=complex)
    for i in range(ra):
        for j in range(ra):
            for k in range(rb):
                for l in range(rb):
                    out[i * rb + k, j * rb + l] = a[i, j] * b[k, l]
    return out


def ptrace_oracle(m, dims, keep):
    """Explicit index-sum partial trace."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kd = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((kd, kd), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if all(row[t] == col[t] for t in traced):
                r = int(np.ravel_multi_index([row[i] for i in keep], [dims[i] for i in keep])) if keep else 0
                c = int(np.ravel_multi_index([col[i] for i in keep], [dims[i] for i in keep])) if keep else 0
                out[r, c] += m[np.ravel_multi_index(row, dims),
                               np.ravel_multi_index(col, dims)]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert np.array_equal(linalg.kron(p0, p1), np.diag([0, 1, 0, 0.0]))

    def test_x_with_diag_matches_oracle(self):
        d = np.diag([1.0, 2.0]).astype(complex)
        assert np.array_equal(linalg.kron(X, d), kron_oracle(X, d))

    def test_stack_matches_np_kron_bitwise(self, rng):
        a = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        b = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        got = linalg.kron(a, b)
        for k in range(4):
            assert np.array_equal(got[k], np.kron(a[k], b[k]))

    def test_associative(self, rng):
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            left = linalg.kron(linalg.kron(a, b), c)
            right = linalg.kron(a, linalg.kron(b, c))
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_factors_match_np_kron_bitwise(self, rng):
        a = rng.standard_normal((3, 2, 1)) + 1j * rng.standard_normal((3, 2, 1))
        b = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
        got = linalg.kron(a, b)
        assert got.shape == (3, 6, 2)
        for k in range(3):
            assert np.array_equal(got[k], np.kron(a[k], b[k]))


class TestReducedFactor:
    @pytest.mark.parametrize("dims, traced", [((2, 3), {0}), ((2, 3), {1}),
                                              ((2, 3, 2), {0, 2}), ((2, 3, 2), {1}),
                                              ((2, 3), {0, 1}), ((2, 3), set())])
    def test_factor_of_the_partial_trace(self, dims, traced, rng):
        n = int(np.prod(dims))
        w = rng.standard_normal((4, n, 2)) + 1j * rng.standard_normal((4, n, 2))
        keep = [i for i in range(len(dims)) if i not in traced]
        red = linalg.reduced_factor(w, dims, traced)
        want = linalg.partial_trace(w @ linalg.dagger(w), dims, keep)
        assert np.max(np.abs(red @ linalg.dagger(red) - want)) <= 1e-12


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_hermitian(rng, 2)
        rho_b = random_hermitian(rng, 2)
        rho_b /= np.trace(rho_b)
        got = linalg.partial_trace(linalg.kron(rho_a, rho_b), [2, 2], {0})
        assert np.max(np.abs(got - rho_a)) <= 1e-12

    def test_bell_state_matches_oracle(self):
        phi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        m = np.outer(phi, phi.conj())
        got = linalg.partial_trace(m, [2, 2], {0})
        assert np.max(np.abs(got - ptrace_oracle(m, (2, 2), [0]))) <= 1e-14
        assert np.max(np.abs(got - np.eye(2) / 2)) <= 1e-12

    def test_keep_all_is_identity_op(self, rng):
        m = random_hermitian(rng, 6)
        assert np.array_equal(linalg.partial_trace(m, [2, 3], {0, 1}), m)

    def test_empty_keep_gives_trace(self, rng):
        m = random_hermitian(rng, 4)
        got = linalg.partial_trace(m, [2, 2], set())
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - np.trace(m)) <= 1e-12

    def test_trace_preserved(self, rng):
        for _ in range(10):
            m = random_hermitian(rng, 12)
            got = linalg.partial_trace(m, [2, 3, 2], {1})
            assert abs(np.trace(got) - np.trace(m)) <= 1e-12

    def test_composes_over_disjoint_subsets(self, rng):
        m = random_hermitian(rng, 12)
        direct = linalg.partial_trace(m, [2, 3, 2], {0})
        step1 = linalg.partial_trace(m, [2, 3, 2], {0, 2})
        step2 = linalg.partial_trace(step1, [2, 2], {0})
        assert np.max(np.abs(direct - step2)) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), [2, 3], {0})

    def test_stack_matches_single_matrices(self, rng):
        m = np.array([random_hermitian(rng, 12) for _ in range(3)])
        got = linalg.partial_trace(m, [2, 3, 2], {0, 2})
        assert got.shape == (3, 4, 4)
        for k in range(3):
            assert np.array_equal(got[k], linalg.partial_trace(m[k], [2, 3, 2], {0, 2}))


class TestHermitianEig:
    def test_diagonal_sorted(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])

    def test_pauli_x(self):
        w, _ = hermitian_eig(X)
        assert np.allclose(w, [-1, 1])

    def test_reconstruction(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 8)
            w, v = hermitian_eig(h)
            assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_rank_one_projector(self):
        assert np.max(np.abs(psd_sqrt(PLUS) - PLUS)) <= 1e-12

    def test_squares_back(self, rng):
        for side in (2, 4, 8, 16):
            z = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            h = z @ z.conj().T
            r = psd_sqrt(h)
            assert np.max(np.abs(r @ r - h)) <= 1e-9 * max(1.0, np.max(np.abs(h)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian_stack_entry(self):
        stack = np.array([np.eye(2), [[1, 1], [0, 1]]], dtype=complex)
        with pytest.raises(linalg.StackError, match="not Hermitian") as info:
            psd_sqrt(stack)
        assert info.value.index == 1


def test_reject_fails_a_nan_value():
    # NaN compares false with every bound, so a comparison alone passes it
    values = np.array([0.0, np.nan, 0.0])
    with pytest.raises(linalg.StackError, match="value nan") as info:
        linalg.reject((values > 1.0, values, "value {}"))
    assert info.value.index == 1
    with pytest.raises(linalg.StackError, match="value nan") as info:
        linalg.reject((values[1] > 1.0, values[1], "value {}"))
    assert info.value.index is None
    linalg.reject((values[::2] > 1.0, values[::2], "value {}"))


class TestTraceDistance:
    def test_self_is_zero(self, rng):
        h = random_hermitian(rng, 3)
        assert linalg.trace_distance(h, h) == 0

    def test_orthogonal_pure_states(self):
        assert abs(linalg.trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])) - 1) <= 1e-12

    def test_pure_state_formula(self):
        # sqrt(1 - |<0|+>|^2) cross-checked by the eigenvalue route
        got = linalg.trace_distance(np.diag([1.0, 0.0]), PLUS)
        assert abs(got - np.sqrt(0.5)) <= 1e-12
        assert abs(got - 0.70711) <= 5e-6

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a, b, c = (random_hermitian(rng, 3) for _ in range(3))
            ab = linalg.trace_distance(a, b)
            assert ab <= linalg.trace_distance(a, c) + linalg.trace_distance(c, b) + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.trace_distance(np.eye(2), np.eye(3))


def test_permute_registers_roundtrip(rng):
    m = random_hermitian(rng, 12)
    p = linalg.permute_registers(m, (2, 3, 2), [2, 0, 1])
    back = linalg.permute_registers(p, (2, 2, 3), [1, 2, 0])
    assert np.max(np.abs(back - m)) == 0


def test_stacked_trace_distance_and_permutation_equal_single(rng):
    # a stack gives each entry the bits of its single-matrix call, and one
    # matrix still gets a float back
    a = np.stack([random_hermitian(rng, 6) for _ in range(4)])
    b = random_hermitian(rng, 6)
    stacked = linalg.trace_distance(a, b)
    assert stacked.shape == (4,)
    singles = [linalg.trace_distance(m, b) for m in a]
    assert all(type(s) is float for s in singles)
    assert stacked.tolist() == singles
    assert linalg.trace_norm(a).tolist() == [linalg.trace_norm(m) for m in a]
    perm = linalg.permute_registers(a, (2, 3), [1, 0])
    for m, p in zip(a, perm):
        assert np.array_equal(p, linalg.permute_registers(m, (2, 3), [1, 0]))


def test_stacked_trace_distance_names_non_hermitian_entry(rng):
    a = np.stack([random_hermitian(rng, 3) for _ in range(3)])
    a[1, 0, 1] += 1e-6
    with pytest.raises(linalg.StackError, match="entry 1: matrix is not Hermitian"):
        linalg.trace_distance(a, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^matrix is not Hermitian"):
        linalg.trace_distance(a[1], np.zeros((3, 3)))


def test_chunks_cover_the_stack_within_the_budget(monkeypatch):
    assert list(linalg.chunks(0, 4)) == []
    assert list(linalg.chunks(600, 2)) == [(0, 600)]
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 2**10)  # 256 members of side 2
    ranges = list(linalg.chunks(600, 2))
    assert ranges == [(0, 256), (256, 512), (512, 600)]
    big = list(linalg.chunks(5, 1024))
    assert big == [(i, i + 1) for i in range(5)]
