"""Uhlmann fidelity and executable checkers for its algebraic properties
(multiplicativity over tensor products, monotonicity under partial trace).

Every fidelity is taken by one kernel against a factor of its second state:
F(rho, W W^dag) = Tr sqrt(W^dag rho W) (Jozsa 1994), an r x r problem for an
n x r factor W; ``fidelity`` passes ``DensityMatrix.factor``, a ket for a
pure state. The checkers take factors for their second arguments and derive
those of derived states exactly: a product's is the kron of the factors, a
reduced state's is the factor with the traced registers moved into its
columns (``linalg.reduced_factor``), and U rho U^dag's is U W. The kernels
broadcast over leading axes, shared by the ``DensityMatrix`` functions and
the sweeps, and trust their inputs (validated where they entered).

Against a ket (an n x 1 factor: a pure state's, the baseline's pair kets)
the sandwich is 1 x 1, and its real part is its eigenvalue: the kernel reads
it with no ``eigvalsh``, bit for bit what LAPACK returns for it, and keeps
the PSD and range rejects and the noise floor.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import dagger, reject
from .quantum import DensityMatrix

# eigenvalues of W^dag rho W below this fraction of the largest (or of 1)
# are rounding noise, which would contribute sqrt(eps) after the square root
_EIG_FLOOR = 1e-13
# a fidelity further than this outside [0, 1] is an error, not rounding
_RANGE_SLACK = 1e-9


def factor_fidelities(rho: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F(rho, W W^dag) = Tr sqrt(W^dag rho W) of each (..., n, n) density
    matrix rho and (..., n, r) factor W of a density matrix, clamped to
    [0, 1].

    Computed from the eigenvalues of the (symmetrized) r x r sandwiched
    operator, with those at the noise floor taken as zero; for a ket
    (r = 1) that eigenvalue is the sandwich's real part, read without
    ``eigvalsh``.
    """
    sandwich = dagger(w) @ rho @ w
    if w.shape[-1] == 1:
        ev = sandwich.real[..., 0]
    else:
        ev = np.linalg.eigvalsh((sandwich + dagger(sandwich)) / 2)
    reject((ev[..., 0] < -linalg.tolerances.psd, ev[..., 0],
            "sandwiched operator not PSD: {:.3e}"))
    cut = _EIG_FLOOR * np.maximum(ev[..., -1], 1.0)
    ev = np.where(ev < cut[..., None], 0.0, ev)
    f = np.sqrt(ev).sum(axis=-1)
    reject(((f < -_RANGE_SLACK) | (f > 1 + _RANGE_SLACK), f,
            "fidelity {} outside [0,1] beyond tolerance"))
    return np.minimum(np.maximum(f, 0.0), 1.0)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity of two states, against the factor of ``sigma``."""
    if rho.side != sigma.side:
        raise ValueError(f"shape mismatch: {rho.side} vs {sigma.side}")
    return float(factor_fidelities(rho.mat, sigma.factor))


def multiplicativity_defects(rho_i, sigma_i, w_rho_j, w_sigma_j) -> np.ndarray:
    """|F(rho_i x sigma_i, rho_j x sigma_j) - F(rho_i, rho_j) F(sigma_i, sigma_j)|
    for (..., n, n) arrays of density matrices rho_i, sigma_i and (..., n, r)
    factors of rho_j, sigma_j."""
    lhs = factor_fidelities(linalg.kron(rho_i, sigma_i), linalg.kron(w_rho_j, w_sigma_j))
    rhs = factor_fidelities(rho_i, w_rho_j) * factor_fidelities(sigma_i, w_sigma_j)
    return np.abs(lhs - rhs)


def check_multiplicativity(
    rho_i: DensityMatrix,
    sigma_i: DensityMatrix,
    rho_j: DensityMatrix,
    sigma_j: DensityMatrix,
) -> float:
    """|F(rho_i x sigma_i, rho_j x sigma_j) - F(rho_i, rho_j) F(sigma_i, sigma_j)|."""
    return float(multiplicativity_defects(rho_i.mat, sigma_i.mat,
                                          rho_j.factor, sigma_j.factor))


def monotonicity_margins(
    sigma_big, w_tau_big, dims: Sequence[int], traced: Iterable[int]
) -> np.ndarray:
    """F(reduced sigma, reduced tau) - F(sigma, tau) for (..., n, n) density
    matrices sigma and (..., n, r) factors of tau on registers ``dims``,
    tracing out ``traced``; a traced index outside the registers rejects."""
    traced = set(int(t) for t in traced)
    w_red = linalg.reduced_factor(w_tau_big, dims, traced)
    red_s = linalg.partial_trace(sigma_big, dims, set(range(len(dims))) - traced)
    return factor_fidelities(red_s, w_red) - factor_fidelities(sigma_big, w_tau_big)


def check_monotonicity(
    sigma_big: DensityMatrix,
    tau_big: DensityMatrix,
    dims: Sequence[int],
    traced: Iterable[int],
) -> float:
    """Margin F(reduced sigma, reduced tau) - F(sigma, tau): non-negative
    (within numerical slack) for every partial trace; callers pick their own
    threshold."""
    return float(monotonicity_margins(sigma_big.mat, tau_big.factor, dims, traced))
