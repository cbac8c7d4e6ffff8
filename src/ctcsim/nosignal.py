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
from .cloning import ClonerCircuit, blank_state
from .engine import DeutschProblem, FixedPointResult, SolverOptions, evolve
from .quantum import DensityMatrix, GateList, Layout


@dataclass
class NoSignalReport:
    rho_tot: DensityMatrix          # joint output on (A, B, R)
    reduced_ab: DensityMatrix       # Tr_R of the joint output
    expected_ab: DensityMatrix      # rho_A x rho_A with rho_A = Tr_R(input)
    deviation: float                # trace distance between the two
    fixed_point: FixedPointResult
    channel_invariance: list = field(default_factory=list)


def _extended_problem(
    cloner: ClonerCircuit, joint_input: DensityMatrix, r_dim: int
) -> DeutschProblem:
    n = cloner.n
    layout = Layout(
        (("A", n), ("B", n), ("R", r_dim), ("CTC", n)), ctc_index=3
    )
    # the cloner's gates address registers by name, so on the extended
    # layout they leave R alone
    interaction = GateList(layout, cloner.total.gates)
    # input given on (A, R); insert the blank B and reorder to (A, B, R)
    big = linalg.kron(joint_input.mat, blank_state(n).mat)  # order (A, R, B)
    cr_mat = linalg.permute_registers(big, (n, r_dim, n), [0, 2, 1])
    cr = DensityMatrix._trusted(cr_mat, (n, n, r_dim))
    return DeutschProblem(layout, interaction, cr)


def run_entangled_clone(
    cloner: ClonerCircuit,
    joint_input: DensityMatrix,
    opts: SolverOptions | None = None,
) -> NoSignalReport:
    """Clone the A side of a joint (A, R) input and compare Tr_R of the
    result against the broadcast of rho_A = Tr_R(input)."""
    n = cloner.n
    if joint_input.side % n != 0:
        raise ValueError(
            f"joint input side {joint_input.side} is not divisible by the "
            f"cloner dimension {n}"
        )
    r_dim = joint_input.side // n
    problem = _extended_problem(cloner, joint_input, r_dim)
    rho_tot, fp = evolve(problem, opts)
    dims = (n, n, r_dim)
    reduced_ab = DensityMatrix.sanitize(
        linalg.partial_trace(rho_tot.mat, dims, [0, 1]), (n, n)
    )
    rho_a = DensityMatrix.sanitize(
        linalg.partial_trace(joint_input.mat, (n, r_dim), [0])
    )
    expected_ab = DensityMatrix._trusted(linalg.kron(rho_a.mat, rho_a.mat), (n, n))
    deviation = linalg.trace_distance(reduced_ab.mat, expected_ab.mat)
    return NoSignalReport(
        rho_tot=rho_tot.with_dims(dims),
        reduced_ab=reduced_ab,
        expected_ab=expected_ab,
        deviation=deviation,
        fixed_point=fp,
    )


def apply_spectator_channel(
    joint_input: DensityMatrix, kraus: Sequence[np.ndarray], a_dim: int
) -> DensityMatrix:
    """Apply a Kraus channel to the R side of an (A, R) state."""
    r_dim = joint_input.side // a_dim
    total = np.zeros_like(joint_input.mat)
    check = np.zeros((r_dim, r_dim), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (r_dim, r_dim):
            raise ValueError(f"Kraus operator shape {k.shape} != ({r_dim},{r_dim})")
        check += k.conj().T @ k
        big = linalg.kron(np.eye(a_dim, dtype=complex), k)
        total += big @ joint_input.mat @ big.conj().T
    if np.max(np.abs(check - np.eye(r_dim))) > 1e-10:
        raise ValueError("channel is not trace-preserving on R")
    return DensityMatrix.sanitize(total, (a_dim, r_dim))


def check_channel_invariance(
    cloner: ClonerCircuit,
    joint_input: DensityMatrix,
    channels: Sequence[Sequence[np.ndarray]],
    opts: SolverOptions | None = None,
) -> list:
    """Trace distance of the local clone output from the unmodified run, for
    each trace-preserving spectator channel. All deviations should vanish."""
    baseline = run_entangled_clone(cloner, joint_input, opts)
    deviations = []
    for kraus in channels:
        modified = apply_spectator_channel(joint_input, kraus, cloner.n)
        report = run_entangled_clone(cloner, modified, opts)
        deviations.append(
            linalg.trace_distance(report.reduced_ab.mat, baseline.reduced_ab.mat)
        )
    return deviations
