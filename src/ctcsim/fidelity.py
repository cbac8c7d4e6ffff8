"""Uhlmann fidelity and executable checkers for its algebraic properties
(multiplicativity over tensor products, monotonicity under partial trace).

The fidelity has one kernel over a factor of its second argument:
F(rho, W W^dag) = Tr sqrt(W^dag rho W) (Jozsa 1994), which needs only the
r x r operator W^dag rho W for an n x r factor W. A caller that knows a
factor passes it to ``factor_fidelities``, as ``run_clone`` passes its
target's ``DensityMatrix.factor``: the ket of a pure state makes each
fidelity a 1 x 1 problem. ``fidelities`` factors its second argument at
full width with the program's one clamp, ``linalg.psd_factor`` (one
eigendecomposition), and the
property checkers ``multiplicativity_defects`` and ``monotonicity_margins``
call it. Every kernel works on plain (..., n, n) arrays and broadcasts over
leading axes. The functions on ``DensityMatrix`` arguments call them with no
batch axis, and the property sweeps call them once per stack of trials. The
kernels trust their inputs to be density matrices (validated where they
entered the program) and do not check Hermiticity again.
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
    operator, with those at the noise floor taken as zero.
    """
    sandwich = dagger(w) @ rho @ w
    ev = np.linalg.eigvalsh((sandwich + dagger(sandwich)) / 2)
    reject((ev[..., 0] < -linalg.tolerances.psd, ev[..., 0],
            "sandwiched operator not PSD: {:.3e}"))
    cut = _EIG_FLOOR * np.maximum(ev[..., -1], 1.0)
    ev = np.where(ev < cut[..., None], 0.0, ev)
    f = np.sqrt(ev).sum(axis=-1)
    reject(((f < -_RANGE_SLACK) | (f > 1 + _RANGE_SLACK), f,
            "fidelity {} outside [0,1] beyond tolerance"))
    return np.minimum(np.maximum(f, 0.0), 1.0)


def fidelities(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Tr sqrt(sigma^{1/2} rho sigma^{1/2}) of each pair of (..., n, n)
    density matrices, clamped to [0, 1]: ``factor_fidelities`` against the
    full-width factor of sigma."""
    return factor_fidelities(rho, linalg.psd_factor(sigma))


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
