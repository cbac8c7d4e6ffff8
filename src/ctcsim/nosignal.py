"""Cloning one half of an entangled pair and checking that the distant
spectator gains no signal.

The cloner's three registers are extended to [A, B, R, CTC] with the
interaction acting as identity on the spectator R. Because the fixed point
depends only on the reduced input Tr_R, no trace-preserving operation on R
can move the local clone statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .cloning import ClonerCircuit, make_problem
from .engine import (
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


def _spectator_dim(joint_input: DensityMatrix, a_dim: int) -> int:
    if a_dim < 1 or joint_input.side % a_dim != 0:
        raise ValueError(
            f"joint input side {joint_input.side} is not divisible by the "
            f"cloner dimension {a_dim}"
        )
    return joint_input.side // a_dim


def _extended(cloner: ClonerCircuit, joints: np.ndarray, r_dim: int):
    """Layout, interaction and CR input factor stack of the extended
    problems on [A, B, R, CTC], for a (B, n * r, k) stack of factors of
    (A, R) inputs."""
    n = cloner.n
    layout = Layout(
        (("A", n), ("B", n), ("R", r_dim), ("CTC", n)), ctc_index=3
    )
    # the cloner's gates address registers by name, so on the extended
    # layout they leave R alone
    interaction = GateList(layout, cloner.total.gates)
    # insert the blank B = |0> between A and R: rows (a, 0, r) of the factor
    b, _, k = joints.shape
    cr = np.zeros((b, n, n, r_dim, k), dtype=complex)
    cr[:, :, 0] = joints.reshape(b, n, r_dim, k)
    return layout, interaction, cr.reshape(b, -1, k)


def _entangled_runs(cloner: ClonerCircuit, joints: np.ndarray, r_dim: int):
    """Clone the A side of each (A, R) input of a (B, n * r, k) stack of
    factors, solved and evolved together: the joint outputs on (A, B, R),
    their Tr_R and the solver results."""
    n = cloner.n
    layout, interaction, cr = _extended(cloner, joints, r_dim)
    kraus = kraus_stack(layout, interaction, cr)
    fps = solve_stack(kraus)
    rho_tot = output_stack(kraus, fps.factor, cr.shape[1], fps.live)
    reduced = linalg.partial_trace(rho_tot, (n, n, r_dim), [0, 1])
    return rho_tot, reduced, fps


def run_entangled_clone(
    cloner: ClonerCircuit, joint_input: DensityMatrix
) -> NoSignalReport:
    """Clone the A side of a joint (A, R) input and compare Tr_R of the
    result against the cloner's output on rho_A = Tr_R(input) alone, which
    is what no signalling requires it to equal."""
    n = cloner.n
    r_dim = _spectator_dim(joint_input, n)
    with linalg.single_entry():
        rho_tot, reduced, fps = _entangled_runs(cloner, joint_input.factor[None], r_dim)
    reduced_ab = DensityMatrix._trusted(reduced[0], (n, n))
    rho_a = linalg.partial_trace(joint_input.mat, (n, r_dim), [0])
    w_a = linalg.reduced_factor(joint_input.factor, (n, r_dim), [1])
    expected_ab = evolve(make_problem(cloner, DensityMatrix._trusted(rho_a, factor=w_a)))[0]
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


def _spectator_channels(w: np.ndarray, kraus: np.ndarray, a_dim: int) -> np.ndarray:
    """Each channel of a (C, m, r, r) Kraus stack applied to the R side of
    one (A, R) state of (a * r, k) factor W: the (C, a * r, m * k) factors
    of the outputs, the blocks (I_A x K_j) W side by side."""
    c, m, r_dim, _ = kraus.shape
    k = w.shape[-1]
    blocks = kraus[:, :, None] @ w.reshape(a_dim, r_dim, k)  # (C, m, a, r, k)
    return blocks.transpose(0, 2, 3, 1, 4).reshape(c, a_dim * r_dim, m * k)


def apply_spectator_channel(
    joint_input: DensityMatrix, kraus: Sequence[np.ndarray], a_dim: int
) -> DensityMatrix:
    """Apply a Kraus channel to the R side of an (A, R) state."""
    r_dim = _spectator_dim(joint_input, a_dim)
    with linalg.single_entry():
        w = _spectator_channels(joint_input.factor, _kraus_lists([kraus], r_dim), a_dim)[0]
    rho = linalg.unit_trace_hermitian(w @ linalg.dagger(w))
    return DensityMatrix._trusted(rho, (a_dim, r_dim), w)


def check_channel_invariance(
    cloner: ClonerCircuit,
    joint_input: DensityMatrix,
    channels: Sequence[Sequence[np.ndarray]],
) -> list:
    """Trace distance of the local clone output from the unmodified run, for
    each trace-preserving spectator channel. All deviations should vanish.

    The unmodified input and the input after each channel are cloned as one
    stack (in chunks): member 0 is the unmodified input, the output of the
    identity channel, and member j the input after channel j - 1. A channel
    that is not trace preserving is named by its position in ``channels``, a
    failing solve by its member.
    """
    n = cloner.n
    r_dim = _spectator_dim(joint_input, n)
    # the identity's blocks are the factor itself, bit for bit
    with linalg.entries_from(-1):
        kraus = _kraus_lists([[np.eye(r_dim)]] + list(channels), r_dim)
    deviations, base = [], None
    for lo, hi in linalg.chunks(len(kraus), n**3 * r_dim):
        joints = _spectator_channels(joint_input.factor, kraus[lo:hi], n)
        with linalg.entries_from(lo):
            reduced = _entangled_runs(cloner, joints, r_dim)[1]
        if lo == 0:
            base, reduced = reduced[0], reduced[1:]
        deviations.extend(linalg.trace_distance(reduced, base).tolist())
    return deviations
