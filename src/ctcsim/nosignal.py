"""Cloning one half of an entangled pair and checking that the distant
spectator gains no signal.

The cloner's three registers are extended to [A, B, R, CTC] with the
interaction acting as identity on the spectator R. Because the fixed point
depends only on the reduced input Tr_R, no trace-preserving operation on R
can move the local clone statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .cloning import ClonerCircuit, blank_state, make_problem
from .engine import (
    DeutschProblem,
    FixedPointResult,
    evolve,
    kraus_stack,
    output_stack,
    solve_stack,
)
from .quantum import DensityMatrix, GateList, Layout


@dataclass
class NoSignalReport:
    rho_tot: DensityMatrix          # joint output on (A, B, R)
    reduced_ab: DensityMatrix       # Tr_R of the joint output
    expected_ab: DensityMatrix      # the cloner's output on rho_A = Tr_R(input)
    deviation: float                # trace distance between the two
    fixed_point: FixedPointResult
    channel_invariance: list = field(default_factory=list)


def _spectator_dim(cloner: ClonerCircuit, joint_input: DensityMatrix) -> int:
    n = cloner.n
    if joint_input.side % n != 0:
        raise ValueError(
            f"joint input side {joint_input.side} is not divisible by the "
            f"cloner dimension {n}"
        )
    return joint_input.side // n


def _extended(cloner: ClonerCircuit, joints: np.ndarray, r_dim: int):
    """Layout, interaction and CR input stack of the extended problems on
    [A, B, R, CTC], for a (B, n * r, n * r) stack of (A, R) inputs."""
    n = cloner.n
    layout = Layout(
        (("A", n), ("B", n), ("R", r_dim), ("CTC", n)), ctc_index=3
    )
    # the cloner's gates address registers by name, so on the extended
    # layout they leave R alone
    interaction = GateList(layout, cloner.total.gates)
    # input given on (A, R); insert the blank B and reorder to (A, B, R)
    big = linalg.kron(joints, blank_state(n).mat)  # order (A, R, B)
    cr = linalg.permute_registers(big, (n, r_dim, n), [0, 2, 1])
    return layout, interaction, cr


def _extended_problem(
    cloner: ClonerCircuit, joint_input: DensityMatrix, r_dim: int
) -> DeutschProblem:
    layout, interaction, cr = _extended(cloner, joint_input.mat[None], r_dim)
    return DeutschProblem(
        layout, interaction, DensityMatrix._trusted(cr[0], layout.cr_dims)
    )


def _entangled_runs(cloner: ClonerCircuit, joints: np.ndarray, r_dim: int):
    """Clone the A side of each (A, R) input of a (B, n * r, n * r) stack,
    solved and evolved together: the joint outputs on (A, B, R), their
    Tr_R and the solver results."""
    n = cloner.n
    layout, interaction, cr = _extended(cloner, joints, r_dim)
    kraus = kraus_stack(layout, interaction, cr)
    fps = solve_stack(kraus)
    rho_tot = output_stack(kraus, fps.rho_ctc, cr.shape[-1])
    reduced = linalg.partial_trace(rho_tot, (n, n, r_dim), [0, 1])
    return rho_tot, reduced, fps


def run_entangled_clone(
    cloner: ClonerCircuit, joint_input: DensityMatrix
) -> NoSignalReport:
    """Clone the A side of a joint (A, R) input and compare Tr_R of the
    result against the cloner's output on rho_A = Tr_R(input) alone, which
    is what no signalling requires it to equal."""
    n = cloner.n
    r_dim = _spectator_dim(cloner, joint_input)
    with linalg.single_entry():
        rho_tot, reduced, fps = _entangled_runs(cloner, joint_input.mat[None], r_dim)
    reduced_ab = DensityMatrix._trusted(reduced[0], (n, n))
    rho_a = linalg.partial_trace(joint_input.mat, (n, r_dim), [0])
    expected_ab = evolve(make_problem(cloner, DensityMatrix._trusted(rho_a)))[0]
    deviation = linalg.trace_distance(reduced_ab.mat, expected_ab.mat)
    return NoSignalReport(
        rho_tot=DensityMatrix._trusted(rho_tot[0], (n, n, r_dim)),
        reduced_ab=reduced_ab,
        expected_ab=expected_ab,
        deviation=deviation,
        fixed_point=fps[0],
    )


def _kraus_lists(channels: Sequence[Sequence[np.ndarray]], r_dim: int) -> np.ndarray:
    """A (C, m, r, r) stack of C Kraus lists, padded with zero operators to
    the longest list m; each list is checked for trace preservation on R."""
    longest = max((len(kraus) for kraus in channels), default=0)
    out = np.zeros((len(channels), longest, r_dim, r_dim), dtype=complex)
    for c, kraus in enumerate(channels):
        for j, k in enumerate(kraus):
            k = np.asarray(k, dtype=complex)
            if k.shape != (r_dim, r_dim):
                raise linalg.StackError(
                    f"Kraus operator shape {k.shape} != ({r_dim},{r_dim})", c
                )
            out[c, j] = k
    check = (linalg.dagger(out) @ out).sum(axis=1)
    defect = np.abs(check - np.eye(r_dim)).max(axis=(1, 2), initial=0.0)
    linalg.reject((defect > linalg.tolerances.unitary, defect,
                   "channel is not trace-preserving on R"))
    return out


def _spectator_channels(joint: np.ndarray, kraus: np.ndarray, a_dim: int) -> np.ndarray:
    """Each channel of a (C, m, r, r) Kraus stack applied to the R side of
    one (A, R) state: the (C, a * r, a * r) outputs, PSD by construction."""
    big = linalg.kron(np.eye(a_dim, dtype=complex), kraus)  # I_A x K
    total = np.zeros((len(kraus),) + joint.shape, dtype=complex)
    for j in range(kraus.shape[1]):
        total += big[:, j] @ joint @ linalg.dagger(big[:, j])
    return linalg.unit_trace_hermitian(total)


def apply_spectator_channel(
    joint_input: DensityMatrix, kraus: Sequence[np.ndarray], a_dim: int
) -> DensityMatrix:
    """Apply a Kraus channel to the R side of an (A, R) state."""
    r_dim = joint_input.side // a_dim
    with linalg.single_entry():
        out = _spectator_channels(joint_input.mat, _kraus_lists([kraus], r_dim), a_dim)
    return DensityMatrix._trusted(out[0], (a_dim, r_dim))


def check_channel_invariance(
    cloner: ClonerCircuit,
    joint_input: DensityMatrix,
    channels: Sequence[Sequence[np.ndarray]],
) -> list:
    """Trace distance of the local clone output from the unmodified run, for
    each trace-preserving spectator channel. All deviations should vanish.

    The unmodified input and the input after each channel are cloned as one
    stack (in chunks): member 0 is the unmodified input, member j the input
    after channel j - 1. A channel that is not trace preserving is named by
    its position in ``channels``, a failing solve by its member.
    """
    n = cloner.n
    r_dim = _spectator_dim(cloner, joint_input)
    kraus = _kraus_lists(channels, r_dim)
    deviations, base = [], None
    for lo, hi in linalg.chunks(len(channels) + 1, n**3 * r_dim):
        joints = _spectator_channels(joint_input.mat, kraus[max(lo - 1, 0):hi - 1], n)
        if lo == 0:
            joints = np.concatenate([joint_input.mat[None], joints])
        with linalg.entries_from(lo):
            reduced = _entangled_runs(cloner, joints, r_dim)[1]
        if lo == 0:
            base, reduced = reduced[0], reduced[1:]
        deviations.extend(linalg.trace_distance(reduced, base).tolist())
    return deviations
