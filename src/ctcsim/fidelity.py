"""Uhlmann fidelity and executable checkers for its algebraic properties
(multiplicativity over tensor products, monotonicity under partial trace).

Each property has one kernel over plain (..., n, n) arrays that broadcasts
over leading axes: ``fidelities``, ``multiplicativity_defects`` and
``monotonicity_margins``. The functions on ``DensityMatrix`` arguments call
them with no batch axis, and the property sweeps call them once per stack of
trials. The kernels trust their inputs to be density matrices (validated
where they entered the program) and do not check Hermiticity again.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import dagger, reject
from .quantum import DensityMatrix


def fidelities(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Tr sqrt(rho^{1/2} sigma rho^{1/2}) of each pair of (..., n, n)
    density matrices, clamped to [0, 1].

    Computed by eigendecomposing the (symmetrized) sandwiched operator and
    summing the square roots of its (clamped) eigenvalues.
    """
    root = linalg._psd_sqrt(rho)
    sandwich = root @ sigma @ root
    w, _ = np.linalg.eigh((sandwich + dagger(sandwich)) / 2)
    reject((w[..., 0] < -linalg.tolerances.psd, w[..., 0],
            "sandwiched operator not PSD: {:.3e}"))
    # eigenvalues at the numerical noise floor would contribute sqrt(eps)
    # after the square root; floor them to zero first
    cut = 1e-13 * np.maximum(w[..., -1], 1.0)
    w = np.where(w < cut[..., None], 0.0, w)
    f = np.sqrt(w).sum(axis=-1)
    reject(((f < -1e-9) | (f > 1 + 1e-9), f,
            "fidelity {} outside [0,1] beyond tolerance"))
    return np.minimum(np.maximum(f, 0.0), 1.0)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity of two states; see ``fidelities``."""
    if rho.side != sigma.side:
        raise ValueError(f"shape mismatch: {rho.side} vs {sigma.side}")
    return float(fidelities(rho.mat, sigma.mat))


def multiplicativity_defects(rho_i, sigma_i, rho_j, sigma_j) -> np.ndarray:
    """|F(rho_i x sigma_i, rho_j x sigma_j) - F(rho_i, rho_j) F(sigma_i, sigma_j)|
    for (..., n, n) arrays of density matrices."""
    lhs = fidelities(linalg.kron(rho_i, sigma_i), linalg.kron(rho_j, sigma_j))
    return np.abs(lhs - fidelities(rho_i, rho_j) * fidelities(sigma_i, sigma_j))


def check_multiplicativity(
    rho_i: DensityMatrix,
    sigma_i: DensityMatrix,
    rho_j: DensityMatrix,
    sigma_j: DensityMatrix,
) -> float:
    """|F(rho_i x sigma_i, rho_j x sigma_j) - F(rho_i, rho_j) F(sigma_i, sigma_j)|."""
    return float(
        multiplicativity_defects(rho_i.mat, sigma_i.mat, rho_j.mat, sigma_j.mat)
    )


def monotonicity_margins(
    sigma_big, tau_big, dims: Sequence[int], traced: Iterable[int]
) -> np.ndarray:
    """F(reduced sigma, reduced tau) - F(sigma, tau) for (..., n, n) arrays of
    density matrices on registers ``dims``, tracing out ``traced``."""
    traced = set(int(t) for t in traced)
    keep = [i for i in range(len(dims)) if i not in traced]
    red_s = linalg.partial_trace(sigma_big, dims, keep)
    red_t = linalg.partial_trace(tau_big, dims, keep)
    return fidelities(red_s, red_t) - fidelities(sigma_big, tau_big)


def check_monotonicity(
    sigma_big: DensityMatrix,
    tau_big: DensityMatrix,
    dims: Sequence[int],
    traced: Iterable[int],
) -> float:
    """Margin F(reduced sigma, reduced tau) - F(sigma, tau).

    Non-negative (within numerical slack) for every partial trace; callers
    pick their own threshold.
    """
    return float(monotonicity_margins(sigma_big.mat, tau_big.mat, dims, traced))
