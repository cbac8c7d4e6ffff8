import numpy as np
import pytest

from conftest import random_alphabet, random_kraus_channel, random_pure
from ctcsim import linalg
from ctcsim.cloning import build_mixed_cloner, build_pure_cloner, run_clone
from ctcsim.engine import solve_fixed_point
from ctcsim.nosignal import (
    apply_spectator_channel,
    check_channel_invariance,
    run_entangled_clone,
)
from ctcsim.quantum import Alphabet, DensityMatrix, PureState, check_density
from ctcsim.sampling import random_density


def bell_input():
    return PureState.normalized([0, 1, 1, 0]).density().with_dims((2, 2))


def test_bell_input_no_signal():
    report = run_entangled_clone(build_mixed_cloner(2), bell_input())
    expected = linalg.kron(np.eye(2) / 2, np.eye(2) / 2)
    assert linalg.trace_distance(report.reduced_ab.mat, expected) <= 1e-10
    assert report.deviation <= 1e-10


def test_product_input_reduces_to_plain_clone():
    cloner = build_mixed_cloner(2)
    psi = PureState.basis(2, 0)
    phi = PureState.normalized([1, 1j])
    joint = DensityMatrix(linalg.kron(psi.projector(), phi.projector()), (2, 2))
    report = run_entangled_clone(cloner, joint)
    plain = run_clone(cloner, psi.density())
    assert linalg.trace_distance(report.reduced_ab.mat, plain.output.mat) <= 1e-10


def test_bell_a_clone_uncorrelated_with_spectator():
    report = run_entangled_clone(build_mixed_cloner(2), bell_input())
    dims = (2, 2, 2)
    clone_a_r = linalg.partial_trace(report.rho_tot.mat, dims, {0, 2})
    clone_a = linalg.partial_trace(report.rho_tot.mat, dims, {0})
    spectator = linalg.partial_trace(report.rho_tot.mat, dims, {2})
    assert linalg.trace_distance(clone_a_r, linalg.kron(clone_a, spectator)) <= 1e-9
    assert linalg.trace_distance(clone_a, np.eye(2) / 2) <= 1e-9


def test_trace_over_spectator_commutes_with_evolution():
    # the fixed point solved on the extended problem equals the one solved
    # on the reduced input, so Tr_R(rho_tot) = evolve(Tr_R(input))
    from ctcsim.cloning import make_problem
    cloner = build_mixed_cloner(2)
    report = run_entangled_clone(cloner, bell_input())
    reduced_input = DensityMatrix(
        linalg.partial_trace(bell_input().mat, (2, 2), {0})
    )
    plain = run_clone(cloner, reduced_input)
    assert linalg.trace_distance(report.reduced_ab.mat, plain.output.mat) <= 1e-10
    fp_reduced = solve_fixed_point(make_problem(cloner, reduced_input))
    assert linalg.trace_distance(
        report.fixed_point.rho_ctc.mat, fp_reduced.rho_ctc.mat
    ) <= 1e-10


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("n", [2, 3])
def test_entangled_clone_matches_the_clone_of_the_reduced_input(kind, n, rng):
    # no signalling: Tr_R of the output is the cloner's output on rho_A
    # alone, which is the broadcast rho_A x rho_A only for the mixed cloner
    # on a diagonal rho_A
    if kind == "pure":
        cloner = build_pure_cloner(random_alphabet(rng, n))
    else:
        cloner = build_mixed_cloner(n)
    for r_dim in (2, 3):
        for joint in (random_pure(rng, n * r_dim).projector(),
                      random_density(rng, n * r_dim).mat):
            report = run_entangled_clone(cloner, DensityMatrix(joint, (n, r_dim)))
            assert report.deviation <= 1e-9
            check_density(report.reduced_ab.mat)
            check_density(report.expected_ab.mat)


class TestChannelInvariance:
    def test_identity_channel(self):
        devs = check_channel_invariance(
            build_mixed_cloner(2), bell_input(), [[np.eye(2, dtype=complex)]]
        )
        assert devs[0] <= 1e-12

    def test_full_dephasing(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        devs = check_channel_invariance(
            build_mixed_cloner(2), bell_input(), [[p0, p1]]
        )
        assert devs[0] <= 1e-9

    def test_random_channels(self, rng):
        channels = [random_kraus_channel(rng, 2) for _ in range(20)]
        devs = check_channel_invariance(build_mixed_cloner(2), bell_input(), channels)
        assert max(devs) <= 1e-9

    def test_spectator_channel_outputs_are_states(self, rng):
        joint = DensityMatrix(random_pure(rng, 6).projector(), (2, 3))
        for i in range(20):
            kraus = random_kraus_channel(rng, 3, 1 + i % 3)
            check_density(apply_spectator_channel(joint, kraus, 2).mat)

    def test_chunk_eigendecomposes_no_channel_output(self, rng, eig_calls):
        # with n = 2 and r = 3 the channel outputs on (A, R) have side 6 and
        # their Tr_R side 4: the outputs and the CR inputs (side 12) are
        # carried as factors, so of side 6 only the joint input's own factor
        # is an eigh, and of side 4 only the trace distances are taken
        joint = DensityMatrix(random_pure(rng, 6).projector(), (2, 3))
        channels = [random_kraus_channel(rng, 3) for _ in range(20)]
        eig_calls.clear()
        check_channel_invariance(build_mixed_cloner(2), joint, channels)
        shapes = [m.shape for name, m in eig_calls if name == "eigh"]
        assert [shape for shape in shapes if shape[-1] in (6, 12)] == [(6, 6)]
        assert [shape for shape in shapes if shape[-1] == 4] == [(20, 4, 4)]

    def test_a_dim_must_divide_the_joint_side(self, rng):
        joint = random_density(rng, 6)
        for a_dim in (4, 0):
            with pytest.raises(ValueError, match="^joint input side 6 is not divisible"):
                apply_spectator_channel(joint, [np.eye(1)], a_dim)

    def test_non_trace_preserving_rejected(self):
        import pytest
        with pytest.raises(ValueError, match="trace-preserving"):
            apply_spectator_channel(bell_input(), [np.eye(2) * 0.5], 2)


def channel_invariance_oracle(cloner, joint, channels):
    """The per-channel loop: one entangled clone run per spectator channel."""
    base = run_entangled_clone(cloner, joint)
    return [linalg.trace_distance(
        run_entangled_clone(
            cloner, apply_spectator_channel(joint, kraus, cloner.n)
        ).reduced_ab.mat,
        base.reduced_ab.mat,
    ) for kraus in channels]


def ragged_channels(rng, count, dim):
    # one, two and three Kraus operators in rotation; the identity channel
    # keeps a rank-one input at rank one beside higher-rank members
    channels = []
    for i in range(count):
        if i % 3 == 2:
            channels.append([np.eye(dim, dtype=complex)])
        else:
            channels.append(random_kraus_channel(rng, dim, 2 + i % 3))
    return channels


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("n, count", [(2, 7), (2, 300), (3, 7)])
def test_stacked_invariance_equals_per_channel_oracle(kind, n, count, rng, monkeypatch):
    from ctcsim.cloning import build_pure_cloner

    if count > 256:
        # 256 members per chunk of side n**4, so the 301 members (the
        # unmodified input first) span two chunks: the later one reuses
        # chunk 0's base and names its members from its offset
        monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 256 * n**8)
        assert len(list(linalg.chunks(count + 1, n**4))) == 2
    if kind == "pure":
        cloner = build_pure_cloner(
            Alphabet(tuple(random_pure(rng, n) for _ in range(n))))
    else:
        cloner = build_mixed_cloner(n)
    psi = random_pure(rng, n * n)
    joint = DensityMatrix(psi.projector(), (n, n))
    channels = ragged_channels(rng, count, n)
    devs = check_channel_invariance(cloner, joint, channels)
    assert devs == channel_invariance_oracle(cloner, joint, channels)
    assert max(devs) <= 1e-9


def test_channel_errors_name_the_channel():
    good = [np.eye(2, dtype=complex)]
    with pytest.raises(ValueError, match="entry 1: channel is not trace-preserving"):
        check_channel_invariance(build_mixed_cloner(2), bell_input(),
                                 [good, [0.5 * np.eye(2)], good])
    with pytest.raises(ValueError, match=r"entry 2: Kraus operator shape \(3, 3\)"):
        check_channel_invariance(build_mixed_cloner(2), bell_input(),
                                 [good, good, [np.eye(3)]])


def test_pure_demo_reference_is_the_clone_of_the_reduced_input():
    # the basis-alphabet cloner clones rho_A = I/2 to diag(1/2, 0, 0, 1/2),
    # not to the broadcast I/4, and the entangled run must match that
    from ctcsim.cloning import build_pure_cloner

    cloner = build_pure_cloner(Alphabet((PureState.basis(2, 0), PureState.basis(2, 1))))
    report = run_entangled_clone(cloner, bell_input())
    reference = run_clone(cloner, DensityMatrix.maximally_mixed(2)).output.mat
    assert np.max(np.abs(reference - np.diag([0.5, 0, 0, 0.5]))) <= 1e-12
    assert linalg.trace_distance(report.reduced_ab.mat, reference) <= 1e-9
