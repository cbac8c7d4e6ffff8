"""The Deutsch fixed-point engine: the induced map on the time-travelling
register, its linearization as a superoperator, fixed-point solvers with
multiplicity diagnostics, and the visible output state.

The induced map M(sigma) = Tr_CR[U (rho_CR x sigma) U^dag] is handled in
operator-sum form. With rho_CR = sum_k l_k |phi_k><phi_k| (one eigh; only
eigenvalues above rounding level are kept), its Kraus operators are
K_(k,a) = sqrt(l_k) (<a| x I) U (|phi_k> x I), one d x d block for each
eigenvector k and each CR output basis state a. Only the r*d columns
U (|phi_k> x I) of the interaction enter, r being the rank of rho_CR; they
come from pushing the input columns |phi_k> x |c> through the interaction's
local gates (a dense ``Unitary`` is the one gate over every register), so no
path forms rho_CR x sigma, a D x D interaction, or a D x D conjugation. The
stack is built once per problem (``DeutschProblem.kraus``) and checked for
trace preservation, sum K^dag K = I, as one d x d product. The superoperator is
S = sum K x conj(K), the map and the residual apply sum K X K^dag, and the
visible output traces the CTC out of the same blocks applied to sigma.

Two solver paths exist. ``eig`` takes the null space of S - I and projects
onto it; ``cesaro`` iterates the averaged map rho -> (rho + M(rho)) / 2 from
the maximally mixed state, which converges geometrically to the
time-averaged limit even when plain iteration cycles. Both return the unique
fixed point when there is only one (multiplicity 1). With several fixed
points they may select different ones, because ``eig`` projects the
maximally mixed state orthogonally rather than taking its averaged limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .quantum import DensityMatrix, GateList, Layout, Unitary

EIG_DIM_CUTOFF = 8  # largest CTC dimension still solved by dense eigendecomposition


@dataclass(frozen=True)
class DeutschProblem:
    """A layout with a designated CTC register, the interaction over the full
    layout (a ``GateList`` or a dense ``Unitary``), and the chronology-
    respecting input state."""

    layout: Layout
    interaction: GateList | Unitary
    cr_input: DensityMatrix

    def __post_init__(self):
        if self.layout.ctc_index is None:
            raise ValueError("layout must designate a CTC register")
        if self.interaction.side != self.layout.total_dim:
            raise ValueError(
                f"interaction side {self.interaction.side} does not match "
                f"layout dimension {self.layout.total_dim}"
            )
        if (
            isinstance(self.interaction, GateList)
            and self.interaction.layout.registers != self.layout.registers
        ):
            raise ValueError("interaction gate list is on a different layout")
        cr_dim = int(np.prod(self.layout.cr_dims))
        if self.cr_input.side != cr_dim:
            raise ValueError(
                f"CR input side {self.cr_input.side} does not match "
                f"non-CTC dimension {cr_dim}"
            )

    @property
    def ctc_dim(self) -> int:
        return self.layout.ctc_dim

    @property
    def gates(self) -> GateList:
        """The interaction as a gate list; a dense ``Unitary`` is the one
        gate over every register."""
        if isinstance(self.interaction, GateList):
            return self.interaction
        return GateList(self.layout, ((self.layout.names, self.interaction),))

    @cached_property
    def kraus(self) -> np.ndarray:
        """Kraus operators of the induced CTC map, shape (r * D_cr, d, d):
        entry (k, a) is sqrt(l_k) (<a| x I) U (|phi_k> x I).

        Raises ``ValueError`` unless sum K^dag K is the identity (times the
        weight of the kept eigenvalues) within ``tolerances.unitary``: the
        trace preservation every solver path relies on.
        """
        d = self.ctc_dim
        cr_dim = self.cr_input.side
        lam, phi = np.linalg.eigh(self.cr_input.mat)
        # eigenvalues at rounding level carry no weight; dropping them keeps
        # the stack at the true rank of rho_CR
        keep = lam > lam[-1] * cr_dim * np.finfo(float).eps
        weights = lam[keep]
        cols = phi[:, keep] * np.sqrt(weights)
        r = cols.shape[1]
        # the r * d input columns |phi_k> x |c>, column index (k, c)
        inputs = np.zeros((cr_dim, d, r, d), dtype=complex)
        inputs[:, np.arange(d), :, np.arange(d)] = cols
        out = self.gates.apply(inputs.reshape(cr_dim * d, r * d))
        k = out.reshape(cr_dim, d, r, d).transpose(2, 0, 1, 3).reshape(-1, d, d)
        flat = k.reshape(-1, d)
        defect = np.abs(flat.conj().T @ flat - weights.sum() * np.eye(d)).max()
        if defect > linalg.tolerances.unitary:
            raise ValueError(
                "induced map is not trace preserving: "
                f"max |sum K^dag K - I| = {defect:.3e}"
            )
        return k


@dataclass
class SolverOptions:
    method: str = "auto"  # auto | eig | cesaro
    tol_residual: float = 1e-12
    max_iter: int = 100000
    eig_one_window: float = 1e-8

    def __post_init__(self):
        if self.method not in ("auto", "eig", "cesaro"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FixedPointResult:
    rho_ctc: DensityMatrix
    residual: float
    multiplicity: int
    method_used: str
    iterations: int


def _map_raw(problem: DeutschProblem, ctc_mat: np.ndarray) -> np.ndarray:
    """Apply the induced CTC map to an arbitrary operator on the CTC register:
    sum_K K X K^dag."""
    k = problem.kraus
    d = problem.ctc_dim
    kx = (k @ ctc_mat).transpose(1, 0, 2).reshape(d, -1)
    return kx @ k.transpose(1, 0, 2).reshape(d, -1).conj().T


def deutsch_map(problem: DeutschProblem, rho_ctc: DensityMatrix) -> DensityMatrix:
    """One application of the self-consistency map to a CTC state."""
    if rho_ctc.side != problem.ctc_dim:
        raise ValueError(
            f"CTC state side {rho_ctc.side} does not match dim {problem.ctc_dim}"
        )
    return DensityMatrix.sanitize(_map_raw(problem, rho_ctc.mat))


def output_state(problem: DeutschProblem, rho_ctc: DensityMatrix) -> DensityMatrix:
    """Visible output: trace the CTC register out of the evolved joint state."""
    if rho_ctc.side != problem.ctc_dim:
        raise ValueError(
            f"CTC state side {rho_ctc.side} does not match dim {problem.ctc_dim}"
        )
    # blocks[a, k] is Kraus operator (k, a); entry (a, b) of the output sums
    # the row products of blocks[a, k] sigma and conj(blocks[b, k]) over k
    d = problem.ctc_dim
    cr_dim = problem.cr_input.side
    blocks = problem.kraus.reshape(-1, cr_dim, d, d).transpose(1, 0, 2, 3)
    evolved = (blocks @ rho_ctc.mat).reshape(cr_dim, -1)
    reduced = evolved @ blocks.reshape(cr_dim, -1).conj().T
    return DensityMatrix.sanitize(reduced, problem.layout.cr_dims)


def build_superoperator(problem: DeutschProblem) -> np.ndarray:
    """Row-major-vec linearization of the CTC map: vec(M(rho)) = S vec(rho),
    with S = sum_K K x conj(K)."""
    d = problem.ctc_dim
    k = problem.kraus
    s = np.tensordot(k, k.conj(), axes=(0, 0))  # indices (a, b, c, e)
    return s.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _multiplicity(s: np.ndarray, window: float) -> int:
    eigvals = np.linalg.eigvals(s)
    return int(np.sum(np.abs(eigvals - 1.0) <= window))


def _residual(problem: DeutschProblem, mat: np.ndarray) -> float:
    return linalg.trace_distance(_map_raw(problem, mat), mat)


def _solve_eig(problem: DeutschProblem, opts: SolverOptions, s: np.ndarray):
    d = problem.ctc_dim
    # fixed points = null space of S - I; SVD keeps this robust for
    # non-normal superoperators
    u_sv, sv, vh = np.linalg.svd(s - np.eye(d * d))
    null_mask = sv <= max(opts.eig_one_window, sv[0] * 1e-14)
    basis = vh[null_mask].conj().T  # columns span the fixed subspace
    if basis.shape[1] == 0:
        # fall back to the single smallest singular vector
        basis = vh[-1:].conj().T
    if basis.shape[1] == 1:
        candidate = basis[:, 0].reshape(d, d)
    else:
        seed = (np.eye(d, dtype=complex) / d).reshape(-1)
        coeff, *_ = np.linalg.lstsq(basis, seed, rcond=None)
        candidate = (basis @ coeff).reshape(d, d)
    tr = np.trace(candidate)
    if abs(tr) < 1e-12:
        raise ValueError("eigensolver produced a traceless fixed-point candidate")
    return DensityMatrix.sanitize(candidate / tr), 0


def _solve_cesaro(problem: DeutschProblem, opts: SolverOptions):
    d = problem.ctc_dim
    rho = np.eye(d, dtype=complex) / d
    best = rho
    best_res = _residual(problem, rho)
    iterations = 0
    while best_res > opts.tol_residual and iterations < opts.max_iter:
        rho = 0.5 * (rho + _map_raw(problem, rho))
        rho = (rho + rho.conj().T) / 2
        iterations += 1
        res = _residual(problem, rho)
        if res < best_res:
            best, best_res = rho, res
    return DensityMatrix.sanitize(best), iterations


def solve_fixed_point(
    problem: DeutschProblem, opts: SolverOptions | None = None
) -> FixedPointResult:
    """Find the canonical fixed point of the self-consistency condition."""
    opts = opts or SolverOptions()
    method = opts.method
    if method == "auto":
        method = "eig" if problem.ctc_dim <= EIG_DIM_CUTOFF else "cesaro"
    s = build_superoperator(problem)
    multiplicity = _multiplicity(s, opts.eig_one_window)
    if method == "eig":
        rho, iterations = _solve_eig(problem, opts, s)
    else:
        rho, iterations = _solve_cesaro(problem, opts)
    residual = _residual(problem, rho.mat)
    return FixedPointResult(
        rho_ctc=rho,
        residual=residual,
        multiplicity=multiplicity,
        method_used=method,
        iterations=iterations,
    )


def evolve(
    problem: DeutschProblem, opts: SolverOptions | None = None
) -> tuple[DensityMatrix, FixedPointResult]:
    """Solve the fixed point, then return (visible output, solver result)."""
    fp = solve_fixed_point(problem, opts)
    return output_state(problem, fp.rho_ctc), fp
