"""The Deutsch fixed-point engine: the induced map on the time-travelling
register, its linearization as a superoperator, the exact fixed-point
solve with its multiplicity, and the visible output state.

The induced map M(sigma) = Tr_CR[U (rho_CR x sigma) U^dag] is handled in
operator-sum form, from the factor W W^dag = rho_CR that the CR input
carries (``DensityMatrix.factor``); by the unitary freedom of a state's
factors any W gives the same map. Its Kraus operators are
K_(k,a) = (<a| x I) U (|w_k> x I), one d x d block for each column w_k of W
and each CR output basis state a. Only the r*d columns U (|w_k> x I) of the
interaction enter; they come from pushing the input columns |w_k> x |c>
through the interaction's local gates (``quantum.apply_local``: a dense
product, an index gather or per-slice block products), so the engine forms
no rho_CR x sigma, no D x D conjugation and no D_cr-sized eigh. The
superoperator is S = sum K x conj(K), the map and the residual apply
sum K X K^dag, and the visible output traces the CTC out of the same blocks
applied to sigma.

The visible output is a valid density matrix by construction, with no
eigendecomposition and no clamping. The solve's clamp returns sigma with its
factor V V^dag = sigma. Entry (a, c) of the output is
sum_k Tr(K_(k,a) V (K_(k,c) V)^dag), so the output is the Gram matrix
E E^dag of the rows E_a = (K_(k,a) V for every k), and a Gram matrix is
PSD. Its trace is Tr(sum K^dag K sigma) = 1, because sum K^dag K = I is
checked in ``kraus_stack``; dividing by the computed trace removes the
rounding.

Every kernel acts on a stack of B problems on one layout. ``kraus_stack``
takes the CR inputs as a (B, D_cr, r) stack of factors and the interaction
as one shared ``GateList`` or ``Unitary`` (wrapped as a one-gate
``GateList``) or as a (B, D, D) stack of dense unitaries; the input columns
of all members of one width go through the interaction in one
``GateList.apply`` or one batched product, and a narrower member ends in
exactly-zero blocks, which add nothing. Each member's products keep the
shapes of its own stack of one, so a stacked solve gives every member the
bits of its single solve. ``solve_stack`` builds the (B, d^2, d^2)
superoperators and solves them together into ``FixedPoints`` (CTC states
and their factors (B, d, d), residuals and multiplicities (B,));
``output_stack`` gives the (B, D_cr, D_cr) visible outputs in Gram form. A
failing member raises ``linalg.StackError`` naming its position in the
stack. The single-problem API (``DeutschProblem.kraus``,
``solve_fixed_point``, ``deutsch_map``, ``output_state``,
``build_superoperator``) runs the same kernels on a stack of one, with the
single-problem error messages.

The canonical fixed point is P1(I/d): the projection of the maximally
mixed state onto the fixed space of the induced map along its other
eigenspaces, which is the limit of the averaged iteration
rho -> (rho + M(rho)) / 2 from I/d even where plain iteration cycles
(Deutsch 1991). The multiplicity m, the dimension of the fixed space, is the
number of singular values of S - I (a values-only SVD) at most
``tolerances.eig_one_window`` (or ``_SVD_FLOOR`` times the largest, its
rounding level). For m = 1, P1(I/d) is the one unit-trace solution of
(S - I) x = 0, taken from one LU of [[S - I, vec(I)], [vec(I)^dag, 0]]
(Stewart 1994, ch. 2); so is m = 0, which only a window below rounding
gives. A member with m > 1 takes a full SVD S - I = U Sigma V^dag of its own,
and its fixed point is R (L^dag R)^-1 L^dag vec(I/d), the columns of R and L
being the last m right and left singular vectors, which span the fixed space
of S and that of its adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .quantum import DensityMatrix, GateList, Layout, Unitary

# singular values of S - I up to this fraction of the largest are rounding
# noise and count as null
_SVD_FLOOR = 1e-14
# a fixed-point candidate whose |trace| is below this cannot be normalized
_TRACELESS = 1e-12


def _kraus_blocks(interaction, w, d: int) -> np.ndarray:
    """The Kraus operators of members with (B, D_cr, r) factors w:
    (B, r, D_cr, d, d), entry (b, k, a) the block of Kraus operator (k, a)."""
    b, cr_dim, r = w.shape
    # the r * d input columns |w_k> x |c> of each member, column (k, c)
    diag = np.arange(d)
    inputs = np.zeros((b, cr_dim, d, r, d), dtype=complex)
    inputs[:, :, diag, :, diag] = w
    inputs = inputs.reshape(b, cr_dim * d, r * d)
    if isinstance(interaction, GateList):
        out = interaction.apply(inputs)
    else:
        out = interaction @ inputs
    return out.reshape(b, cr_dim, d, r, d).transpose(0, 3, 1, 2, 4)


def kraus_stack(
    layout: Layout, interaction: GateList | Unitary | np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Kraus operators of B induced CTC maps on ``layout``, shape
    (B, r * D_cr, d, d): entry (b, (k, a)) is (<a| x I) U (|w_k> x I) for
    the columns w_k of ``w[b]``, a (B, D_cr, r) stack of CR input factors.
    A member's width ends at its last nonzero column: trailing zero columns
    pad a narrower one. ``interaction`` is one ``GateList`` or ``Unitary``
    shared by the stack, or a (B, D, D) array of dense unitaries.

    Raises ``linalg.StackError`` for the first member whose sum K^dag K is
    not the identity (times sum |w|^2) within ``tolerances.unitary``: the
    trace preservation the solve relies on.
    """
    d = layout.ctc_dim
    b, cr_dim, width = w.shape
    if isinstance(interaction, Unitary):
        # one gate over every register: the same product as U @ columns
        interaction = GateList(layout, ((layout.names, interaction),))
    nonzero = np.any(w != 0, axis=1)
    ranks = width - np.argmax(nonzero[:, ::-1], axis=1)
    # members of one width go through the interaction together, in products
    # of the width their own stacks would have (a wider product can round a
    # column differently), and zero blocks add nothing to a sum over the
    # Kraus index, so each member keeps the bits of its own stack
    groups = sorted(set(ranks.tolist()))
    k = np.zeros((b, groups[-1], cr_dim, d, d), dtype=complex)
    for rank in groups:
        m = ranks == rank
        u = interaction[m] if isinstance(interaction, np.ndarray) else interaction
        k[m, :rank] = _kraus_blocks(u, w[m, :, :rank], d)
    k = k.reshape(b, -1, d, d)
    flat = k.reshape(b, -1, d)
    total = np.sum(np.abs(w) ** 2, axis=(1, 2))[:, None, None] * np.eye(d)
    defect = np.abs(linalg.dagger(flat) @ flat - total).max(axis=(1, 2))
    linalg.reject((defect > linalg.tolerances.unitary, defect,
                   "induced map is not trace preserving: "
                   "max |sum K^dag K - I| = {:.3e}"))
    return k


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
        cr_dim = math.prod(self.layout.cr_dims)
        if self.cr_input.side != cr_dim:
            raise ValueError(
                f"CR input side {self.cr_input.side} does not match "
                f"non-CTC dimension {cr_dim}"
            )

    @property
    def ctc_dim(self) -> int:
        return self.layout.ctc_dim

    @cached_property
    def kraus(self) -> np.ndarray:
        """Kraus operators of the induced CTC map, shape (r * D_cr, d, d):
        ``kraus_stack`` on a stack of one. Raises ``ValueError`` unless
        sum K^dag K is the identity within ``tolerances.unitary``."""
        with linalg.single_entry():
            k = kraus_stack(self.layout, self.interaction, self.cr_input.factor[None])
        return k[0]


@dataclass
class FixedPointResult:
    rho_ctc: DensityMatrix
    residual: float
    multiplicity: int


@dataclass
class FixedPoints:
    """Solver results for a stack of B problems; ``fps[i]`` is member i's
    ``FixedPointResult``."""

    rho_ctc: np.ndarray       # (B, d, d), density matrices by construction
    factor: np.ndarray        # (B, d, d), factor @ factor^dag = rho_ctc
    residual: np.ndarray      # (B,)
    multiplicity: np.ndarray  # (B,)

    def __getitem__(self, i: int) -> FixedPointResult:
        return FixedPointResult(
            rho_ctc=DensityMatrix._trusted(self.rho_ctc[i], factor=self.factor[i]),
            residual=float(self.residual[i]),
            multiplicity=int(self.multiplicity[i]),
        )


def _maps(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply each member's induced map to an arbitrary (B, d, d) operator
    stack on the CTC register: sum_K K X K^dag."""
    b, _, d, _ = k.shape
    kx = (k @ x[:, None]).transpose(0, 2, 1, 3).reshape(b, d, -1)
    return kx @ linalg.dagger(k.transpose(0, 2, 1, 3).reshape(b, d, -1))


def _residuals(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return linalg.trace_distance(_maps(k, rho), rho)


def _superoperators(k: np.ndarray) -> np.ndarray:
    """Row-major-vec linearizations S = sum_K K x conj(K), (B, d^2, d^2)."""
    b, n, d, _ = k.shape
    flat = k.reshape(b, n, d * d)
    s = flat.swapaxes(1, 2) @ flat.conj()  # indices (a, b), (c, e)
    return s.reshape(b, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(b, d * d, d * d)


def deutsch_map(problem: DeutschProblem, rho_ctc: DensityMatrix) -> DensityMatrix:
    """One application of the self-consistency map to a CTC state."""
    if rho_ctc.side != problem.ctc_dim:
        raise ValueError(
            f"CTC state side {rho_ctc.side} does not match dim {problem.ctc_dim}"
        )
    # sum K rho K^dag is PSD by construction
    out = linalg.unit_trace_hermitian(_maps(problem.kraus[None], rho_ctc.mat[None]))
    return DensityMatrix._trusted(out[0])


def output_stack(k: np.ndarray, factor: np.ndarray, cr_dim: int) -> np.ndarray:
    """Visible outputs of a stack, (B, D_cr, D_cr): trace the CTC register
    out of each member's evolved joint state, formed as the Gram matrix
    E E^dag of E = blocks V for the (B, d, r) factors V V^dag = rho_CTC, so
    each output is PSD by construction."""
    # blocks[b, a, k] is Kraus operator (k, a); row a of E holds the
    # products blocks[b, a, k] V over every k, and entry (a, c) of the
    # output is the product of rows a and c. The solve's V has full width d,
    # so no member's products depend on the others in its stack.
    b, _, d, _ = k.shape
    blocks = k.reshape(b, -1, cr_dim, d, d).transpose(0, 2, 1, 3, 4)
    e = (blocks @ factor[:, None, None]).reshape(b, cr_dim, -1)
    return linalg.unit_trace_hermitian(e @ linalg.dagger(e))


def output_state(problem: DeutschProblem, rho_ctc: DensityMatrix) -> DensityMatrix:
    """Visible output: trace the CTC register out of the evolved joint state."""
    if rho_ctc.side != problem.ctc_dim:
        raise ValueError(
            f"CTC state side {rho_ctc.side} does not match dim {problem.ctc_dim}"
        )
    with linalg.single_entry():
        out = output_stack(
            problem.kraus[None], rho_ctc.factor[None], problem.cr_input.side
        )
    return DensityMatrix._trusted(out[0], problem.layout.cr_dims)


def build_superoperator(problem: DeutschProblem) -> np.ndarray:
    """Row-major-vec linearization of the CTC map: vec(M(rho)) = S vec(rho),
    with S = sum_K K x conj(K)."""
    return _superoperators(problem.kraus[None])[0]


def solve_stack(kraus: np.ndarray) -> FixedPoints:
    """The canonical fixed point P1(I/d) of each member of a (B, n, d, d)
    Kraus stack and its full-width factor, solved together: one bordered LU
    for a member with multiplicity 1 (or 0), a full SVD for one with more.
    Raises ``linalg.StackError`` naming the first member whose candidate is
    traceless or not PSD."""
    b, d = kraus.shape[0], kraus.shape[-1]
    n = d * d
    a = _superoperators(kraus) - np.eye(n)
    # singular values count the fixed points robustly for a non-normal S
    sv = np.linalg.svd(a, compute_uv=False)
    window = np.maximum(linalg.tolerances.eig_one_window, sv[:, :1] * _SVD_FLOOR)
    multiplicity = np.sum(sv <= window, axis=1)
    candidate = np.empty((b, n), dtype=complex)
    one = multiplicity <= 1
    # vec(I)^dag (S - I) = 0 by trace preservation, so the bordered matrix is
    # nonsingular exactly for one fixed point; x[:n] is it, at unit trace
    bordered = np.zeros((np.count_nonzero(one), n + 1, n + 1), dtype=complex)
    bordered[:, :n, :n] = a[one]
    bordered[:, :n:d + 1, n] = bordered[:, n, :n:d + 1] = 1  # vec(I) is 1 at i * (d + 1)
    # e_last as a (1, n + 1, 1) column: numpy 1 and 2 both read a right-hand
    # side with the stack's ndim as matrices, where they differ on fewer axes
    candidate[one] = np.linalg.solve(bordered, np.eye(n + 1)[None, :, n:])[:, :n, 0]
    seed = (np.eye(d, dtype=complex) / d).reshape(-1)
    for i in np.flatnonzero(~one):
        u, _, vh = np.linalg.svd(a[i])
        m = multiplicity[i]
        right = vh[-m:].conj().T  # columns span the fixed space of S (last m)
        left_h = u[:, -m:].conj().T  # rows span that of S^dag
        candidate[i] = right @ np.linalg.solve(left_h @ right, left_h @ seed)
    candidate = candidate.reshape(b, d, d)
    tr = np.trace(candidate, axis1=1, axis2=2)
    linalg.reject((np.abs(tr) < _TRACELESS, np.abs(tr),
                   "eigensolver produced a traceless fixed-point candidate"))
    # the one clamp: rho's factor, scaled to unit trace
    factor = linalg.unit_factor(linalg.psd_factor(candidate / tr[:, None, None]))
    rho = linalg.unit_trace_hermitian(factor @ linalg.dagger(factor))
    return FixedPoints(rho, factor, _residuals(kraus, rho), multiplicity)


def solve_fixed_point(problem: DeutschProblem) -> FixedPointResult:
    """Find the canonical fixed point of the self-consistency condition."""
    with linalg.single_entry():
        return solve_stack(problem.kraus[None])[0]


def evolve(problem: DeutschProblem) -> tuple[DensityMatrix, FixedPointResult]:
    """Solve the fixed point, then return (visible output, solver result)."""
    fp = solve_fixed_point(problem)
    return output_state(problem, fp.rho_ctc), fp
