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
through the interaction's gathers and block products
(``GateList.apply``), so the engine forms no rho_CR x sigma, no D x D
conjugation and no D_cr-sized eigh. The superoperator is S = sum K x conj(K),
the map and the residual apply sum K X K^dag, and the visible output traces
the CTC out of the same blocks applied to sigma.

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
bits of its single solve.

Kernels touch only live data. A block that is zero in every member of
the stack adds exactly nothing to S, to a map or to a residual: the mixed
cloner's rank-N target leaves N^3 - N^2 of its N^3 blocks zero. So
``solve_stack`` keeps only the blocks that are nonzero in some member, in
their order, before it forms S and the residuals; each member's sums run
over its own nonzero blocks in the order of its single solve, with only
exact zeros between them. The map, the residual and the visible output
apply each member's blocks as one (n * d, d) column times the d x d
operator or factor, one product instead of n batched d x d ones, and a
stack of one rank group skips the zero-filled padding.

The visible output takes only live rows. Entry (a, c) of E E^dag sums over
the k at which both K_(k,a) and K_(k,c) are live, so the CR output rows
fall into groups that share no live k, entries across groups are exactly
zero, and each group's Gram matrix runs over the k live in it, in k order,
padded with exact zeros. The mixed cloner's rows each have one live block
of N, in N groups of N rows: at N = 7 the Gram product takes 7 x 49 rows
instead of 49 x 343. With every block live, E is all of them.

``solve_stack`` builds the (B, d^2, d^2) superoperators and solves them
together into ``FixedPoints`` (CTC states and their factors (B, d, d),
residuals and multiplicities (B,), and the mask of the live blocks);
``output_stack`` gives the (B, D_cr, D_cr) visible outputs in Gram form,
from the solve's factors and mask. A failing member raises
``linalg.StackError`` naming its position in the stack. The single-problem
API (``DeutschProblem.kraus``, ``solve_fixed_point``, ``deutsch_map``,
``output_state``, ``build_superoperator``) runs the same kernels on a stack
of one, with the single-problem error messages.

The canonical fixed point is P1(I/d): the projection of the maximally
mixed state onto the fixed space of the induced map along its other
eigenspaces, which is the limit of the averaged iteration
rho -> (rho + M(rho)) / 2 from I/d even where plain iteration cycles
(Deutsch 1991). The solve runs in real arithmetic. The induced map
preserves Hermiticity, so in the orthonormal Hermitian basis
{E_aa, (E_ab + E_ba)/sqrt2, i(E_ab - E_ba)/sqrt2} its matrix R = T S T^dag
is real (Wolf 2012, *Quantum Channels & Operations*, ch. 1 and 6); T maps
row-major vec(X) to the coordinates, and R comes from the Gram matrix of
the live blocks, whose entries are those of S, by one cached index gather
per d. T is unitary, so R - I has the singular values of S - I, and the
multiplicity m, the dimension of the fixed space, is the number of them at
most the window max(``tolerances.eig_one_window``, ``_SVD_FLOOR`` sigma_max),
the larger being the rounding level of R - I.

One inverse of the bordered matrix B = [[R - I, t], [t^T, 0]], t = T vec(I)
being 1 at the d diagonal coordinates, counts and solves a member with one
fixed point (Stewart 1994, *Introduction to the Numerical Solution of
Markov Chains*, ch. 2). t^T (R - I) = 0 by trace preservation, so B is
nonsingular exactly for one fixed point, and x = B^-1[:n, n] is it, at unit
trace. B is R - I bordered by one row and one column, so its singular
values interlace those of R - I (Thompson 1972): sigma_min(B) is at most
sigma_(n-1)(R - I), the second smallest, and at least 1 / ||B^-1||_F; and
sigma_n(R - I) is at most ||(R - I) x|| / ||x||. With ||R - I||_F in place
of sigma_max, which it bounds from above and, over sqrt(n), from below, a
member for which 1 / ||B^-1||_F exceeds the upper window and
||(R - I) x|| / ||x|| is within the lower one, each by ``_CERTIFY_MARGIN``,
has m = 1 by the window's rule, and takes no SVD. The other members take
one stacked SVD R - I = U Sigma V^T: Sigma gives the window's count. With
m = 1, or m = 0, a member keeps x from B^-1; the default window gives
m = 0 when a map is not trace preserving to its resolution: the product of
a long circuit's gates, each within its check, can drift that far, as in a
circuit of 400 Hadamards written to 10 digits. A member with m > 1, or with
an exactly singular B, has the fixed point Q (L^T Q)^-1 L^T T vec(I/d)
from the same decomposition, the columns of Q and L being the last m right
and left singular vectors, which span the fixed space of R and that of its
transpose. numpy's inverse raises for a whole stack with one exactly
singular B; one slogdet then marks those members (a sign of 0 is LU's zero
pivot) and one inverse covers the others. The state is T^dag x, Hermitian
by construction. ``build_superoperator`` still returns the complex S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .quantum import DensityMatrix, GateList, Layout, Unitary

# singular values of S - I up to this fraction of the largest are rounding
# noise and count as null
_SVD_FLOOR = 1e-14
# the bordered inverse certifies one fixed point only with this margin on
# each side of the count's window, far beyond the rounding of its estimates
_CERTIFY_MARGIN = 10.0
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
    out = (interaction.apply(inputs) if isinstance(interaction, GateList)
           else interaction @ inputs)
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
    not the identity (times sum |w|^2) within the interaction's bound: the
    trace preservation the solve relies on. A ``GateList``'s bound is its
    ``tolerance``, which grows with its count of dense gates; a dense
    unitary's is ``tolerances.unitary``.
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
    if len(groups) == 1:  # one width: no padding to fill
        k = _kraus_blocks(interaction, w[:, :, :groups[0]], d)
    else:
        k = np.zeros((b, groups[-1], cr_dim, d, d), dtype=complex)
        for rank in groups:
            m = ranks == rank
            u = interaction[m] if isinstance(interaction, np.ndarray) else interaction
            k[m, :rank] = _kraus_blocks(u, w[m, :, :rank], d)
    k = k.reshape(b, -1, d, d)
    flat = k.reshape(b, -1, d)
    total = np.sum(np.abs(w) ** 2, axis=(1, 2))[:, None, None] * np.eye(d)
    defect = np.abs(linalg.dagger(flat) @ flat - total).max(axis=(1, 2))
    bound = (interaction.tolerance if isinstance(interaction, GateList)
             else linalg.tolerances.unitary)
    linalg.reject((defect > bound, defect,
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
        sum K^dag K is the identity within the bound ``kraus_stack`` sets."""
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
    live: np.ndarray          # (n,), the Kraus blocks nonzero in some member

    def __getitem__(self, i: int) -> FixedPointResult:
        return FixedPointResult(
            rho_ctc=DensityMatrix._trusted(self.rho_ctc[i], factor=self.factor[i]),
            residual=float(self.residual[i]),
            multiplicity=int(self.multiplicity[i]),
        )


def _maps(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply each member's induced map to an arbitrary (B, d, d) operator
    stack on the CTC register: sum_K K X K^dag. The blocks, stacked as one
    (n * d, d) column, take X in one product; the n products K X, laid side
    by side, then take [K_1 ... K_n]^dag in another."""
    b, n, d, _ = k.shape
    kx = (k.reshape(b, n * d, d) @ x).reshape(b, n, d, d)
    side = (0, 2, 1, 3)  # (B, n, d, d) -> (B, d, n * d): [K_1 ... K_n]
    return (kx.transpose(side).reshape(b, d, -1)
            @ linalg.dagger(k.transpose(side).reshape(b, d, -1)))


def _residuals(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return linalg.trace_distance(_maps(k, rho), rho)


def _gram(x: np.ndarray) -> np.ndarray:
    """x x^dag of each (..., m, w) entry: the one Gram product of the
    superoperator and of the visible output."""
    return x @ linalg.dagger(x)


def _kraus_gram(k: np.ndarray) -> np.ndarray:
    """The entries of each member's superoperator, (B, d^2, d^2): G[(a, c),
    (b, e)] = sum_K K[a, c] conj(K[b, e]), which is S[(a, b), (c, e)]."""
    b, n, d, _ = k.shape
    return _gram(k.reshape(b, n, d * d).swapaxes(1, 2))


@lru_cache(maxsize=16)
def _hermitian_basis(d: int):
    """The orthonormal Hermitian basis of d x d matrices, as gathers. The
    coordinates x = T vec(X) of row-major vec(X) are x[a, a] = X_aa and, for
    a < b, x[a, b] = sqrt2 Re X_ab and x[b, a] = sqrt2 Im X_ab: the
    coefficients of E_aa, (E_ab + E_ba)/sqrt2 and i(E_ab - E_ba)/sqrt2.

    Returns (index, weight) and (back, scale). Row p of T is
    alpha_p e_(a,b) + conj(alpha_p) e_(b,a) for its pair a <= b, alpha_p
    being 1/2, 1/sqrt2 or -i/sqrt2, so R = T S T^dag has
    R[p, q] = 2 Re(alpha_p conj(alpha_q) S[(a,b), (c,e)]
    + alpha_p alpha_q S[(a,b), (e,c)]). Each coefficient is real or
    imaginary, so R is sum_j weight[j] * f[index[j]] over the flat float view
    f of the entries of S, with weights +-1/2, +-1/sqrt2 or +-1, exactly.
    T^dag x has the float view scale * x[back]: X_ab and X_ba take
    x[a, b] / sqrt2 as real part and +-x[b, a] / sqrt2 as imaginary part, so
    it is Hermitian exactly."""
    i, j = np.divmod(np.arange(d * d), d)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    diagonal = i == j
    phase = np.where(i > j, -1j, 1)  # alpha_p over its magnitude
    a, b = lo[:, None], hi[:, None]  # the pair of coordinate p (rows of R)
    c, e = lo[None, :], hi[None, :]  # and of coordinate q (columns)
    entry = np.stack([(a * d + c) * d * d + b * d + e,    # S[(a,b), (c,e)]
                      (a * d + e) * d * d + b * d + c])   # S[(a,b), (e,c)]
    coefficient = np.stack([phase[:, None] * phase.conj()[None, :],
                            phase[:, None] * phase[None, :]])
    imaginary = coefficient.imag != 0
    ndiag = diagonal[:, None].astype(int) + diagonal[None, :]
    magnitude = np.array([1.0, np.sqrt(0.5), 0.5])[ndiag]
    index = 2 * entry + imaginary  # float view: real part, then imaginary
    weight = magnitude * np.where(imaginary, -coefficient.imag, coefficient.real)
    re = np.where(diagonal, 1.0, np.sqrt(0.5))
    im = np.where(diagonal, 0.0, np.where(i < j, re, -re))
    back = np.stack([lo * d + hi, hi * d + lo], axis=1).reshape(-1)
    return (index, weight), (back, np.stack([re, im], axis=1).reshape(-1))


def _real_forms(g: np.ndarray) -> np.ndarray:
    """R = T S T^dag of each member, (B, d^2, d^2) float, from the entries
    ``_kraus_gram`` gives: real, because the induced map preserves
    Hermiticity (Wolf 2012, ch. 1)."""
    b, n, _ = g.shape
    (index, weight), _ = _hermitian_basis(math.isqrt(n))
    f = g.reshape(b, -1).view(np.float64)
    return (f.take(index, axis=1) * weight).sum(axis=1)


def deutsch_map(problem: DeutschProblem, rho_ctc: DensityMatrix) -> DensityMatrix:
    """One application of the self-consistency map to a CTC state."""
    if rho_ctc.side != problem.ctc_dim:
        raise ValueError(
            f"CTC state side {rho_ctc.side} does not match dim {problem.ctc_dim}"
        )
    # sum K rho K^dag is PSD by construction
    out = linalg.unit_trace_hermitian(_maps(problem.kraus[None], rho_ctc.mat[None]))
    return DensityMatrix._trusted(out[0])


@lru_cache(maxsize=64)
def _row_groups(live: bytes, r: int, cr_dim: int):
    """The rows of E in groups that share no live Kraus column, for the
    (r, D_cr) mask ``live`` of the blocks K_(k,a) nonzero in some member:
    rows a and c that are both live at some k are in one group, and entry
    (a, c) of the output is exactly zero across groups.

    Returns (blocks, dest, src). ``blocks`` (G, R, C) holds, for row i and
    column j of group g, the flat index k * D_cr + a of its block: the rows
    and the k live in the group, in order, padded with a dead block.
    ``dest`` and ``src`` place entry (i, j) of group g's Gram matrix at
    entry (a, c) of the flat output."""
    live = np.frombuffer(live, dtype=bool).reshape(r, cr_dim)
    owner = np.arange(r)  # each k's group, merged through the rows they share
    for a in range(cr_dim):
        ks = owner[live[:, a]]
        if ks.size:
            owner[np.isin(owner, ks)] = ks.min()
    used = live.any(axis=1)
    groups = [np.flatnonzero(used & (owner == g)) for g in np.unique(owner[used])]
    groups = [(np.flatnonzero(live[ks].any(axis=0)), ks) for ks in groups]
    width = max(len(rows) for rows, _ in groups)
    dead = int(np.argmin(live.reshape(-1)))
    blocks = np.full((len(groups), width, max(len(ks) for _, ks in groups)), dead)
    dest, src = [], []
    for g, (rows, ks) in enumerate(groups):
        blocks[g, :len(rows), :len(ks)] = ks * cr_dim + rows[:, None]
        i, j = np.divmod(np.arange(len(rows) ** 2), len(rows))
        dest.append(rows[i] * cr_dim + rows[j])
        src.append((g * width + i) * width + j)
    return blocks, np.concatenate(dest), np.concatenate(src)


def output_stack(k: np.ndarray, factor: np.ndarray, cr_dim: int,
                 live: np.ndarray) -> np.ndarray:
    """Visible outputs of a stack, (B, D_cr, D_cr): trace the CTC register
    out of each member's evolved joint state, formed as the Gram matrix
    E E^dag of E = blocks V for the (B, d, r) factors V V^dag = rho_CTC, so
    each output is PSD by construction. ``live`` is the (n,) mask of the
    blocks nonzero in some member, as ``solve_stack`` gives it."""
    # row a of E holds the products K_(k,a) V over every k, and entry (a, c)
    # of the output is the product of rows a and c: with every block live,
    # E is every block times V in one (n * d, d) product. Rows that share no
    # live k give exactly zero, so otherwise each group of rows
    # (``_row_groups``) takes its own Gram matrix over the k live in it. The
    # solve's V has full width d, so no member's products depend on the
    # others in its stack.
    b, n, d, _ = k.shape
    if live.all():
        kv = (k.reshape(b, n * d, d) @ factor).reshape(b, -1, cr_dim, d, d)
        return linalg.unit_trace_hermitian(
            _gram(kv.transpose(0, 2, 1, 3, 4).reshape(b, cr_dim, -1)))
    blocks, dest, src = _row_groups(live.tobytes(), n // cr_dim, cr_dim)
    kv = k[:, blocks.reshape(-1)].reshape(b, -1, d) @ factor
    gram = _gram(kv.reshape((b,) + blocks.shape[:2] + (blocks.shape[2] * d * d,)))
    out = np.zeros((b, cr_dim * cr_dim), dtype=complex)
    out[:, dest] = gram.reshape(b, -1)[:, src]
    return linalg.unit_trace_hermitian(out.reshape(b, cr_dim, cr_dim))


def output_state(problem: DeutschProblem, rho_ctc: DensityMatrix) -> DensityMatrix:
    """Visible output: trace the CTC register out of the evolved joint state."""
    if rho_ctc.side != problem.ctc_dim:
        raise ValueError(
            f"CTC state side {rho_ctc.side} does not match dim {problem.ctc_dim}"
        )
    with linalg.single_entry():
        return _visible(problem, rho_ctc.factor, problem.kraus.any(axis=(1, 2)))


def _visible(problem: DeutschProblem, factor: np.ndarray, live: np.ndarray) -> DensityMatrix:
    """The visible output for the CTC factor ``factor`` and the mask ``live``."""
    out = output_stack(problem.kraus[None], factor[None], problem.cr_input.side, live)
    return DensityMatrix._trusted(out[0], problem.layout.cr_dims)


def build_superoperator(problem: DeutschProblem) -> np.ndarray:
    """Row-major-vec linearization of the CTC map: vec(M(rho)) = S vec(rho),
    with S = sum_K K x conj(K)."""
    d = problem.ctc_dim
    g = _kraus_gram(problem.kraus[None])[0]  # indices (a, c), (b, e)
    return g.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def solve_stack(kraus: np.ndarray) -> FixedPoints:
    """The canonical fixed point P1(I/d) of each member of a (B, n, d, d)
    Kraus stack and its full-width factor, solved together in real
    arithmetic: one inverse of the bordered matrix counts and solves a
    member with one fixed point; the members it does not certify take one
    stacked SVD of R - I, whose singular values count and whose vectors
    project a member with more than one fixed point, or an exactly singular
    bordered matrix. Raises ``linalg.StackError`` naming the first member
    whose candidate is traceless or not PSD."""
    b, d = kraus.shape[0], kraus.shape[-1]
    n = d * d
    # a block that is zero in every member adds nothing to S or the residual
    live = kraus.any(axis=(0, 2, 3))
    if not live.all():
        kraus = kraus[:, live]
    a = _real_forms(_kraus_gram(kraus)) - np.eye(n)
    # t^T (R - I) = 0 for t = T vec(I) by trace preservation, so the bordered
    # matrix is nonsingular exactly for one fixed point; the first n entries
    # of its inverse's last column are it, at unit trace
    bordered = np.zeros((b, n + 1, n + 1))
    bordered[:, :n, :n] = a
    bordered[:, :n:d + 1, n] = bordered[:, n, :n:d + 1] = 1  # t is 1 at i * (d + 1)
    solved = np.ones(b, dtype=bool)
    try:
        inverse = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        # numpy refuses the stack for one exactly singular member: a sign of
        # 0 marks LU's zero pivot, and one inverse covers the others, each
        # in the products of its own stack of one
        solved = np.linalg.slogdet(bordered)[0] != 0
        inverse = np.zeros_like(bordered)
        inverse[solved] = np.linalg.inv(bordered[solved])
    x = inverse[:, :n, n].copy()
    # the windows of the count with ||R - I||_F in place of sigma_max, which
    # it bounds from above and, over sqrt(n), from below
    frobenius = np.sqrt(np.square(a).sum(axis=(1, 2)))
    floor = linalg.tolerances.eig_one_window
    hi = np.maximum(floor, frobenius * _SVD_FLOOR) * _CERTIFY_MARGIN
    lo = np.maximum(floor, frobenius / math.sqrt(n) * _SVD_FLOOR) / _CERTIFY_MARGIN
    # 1 / ||B^-1||_F > hi: sigma_(n-1)(R - I) >= sigma_min(B) > window;
    # ||(R - I) x|| <= lo ||x||: sigma_n(R - I) <= window
    gap = np.square(inverse).sum(axis=(1, 2)) * np.square(hi) < 1
    fixed = (np.square(a @ x[:, :, None]).sum(axis=(1, 2))
             <= np.square(lo) * np.square(x).sum(axis=1))
    multiplicity = np.ones(b, dtype=int)
    doubt = np.flatnonzero(~(solved & gap & fixed))
    if doubt.size:
        # singular values count the fixed points robustly for a non-normal S;
        # R - I = T (S - I) T^dag has those of S - I, T being unitary. The
        # same decomposition's vectors project a member with m > 1
        u, sv, vh = np.linalg.svd(a[doubt])
        window = np.maximum(floor, sv[:, :1] * _SVD_FLOOR)
        multiplicity[doubt] = np.sum(sv <= window, axis=1)
        seed = np.eye(d).reshape(-1) / d  # T vec(I/d)
        for j in np.flatnonzero(~solved[doubt] | (multiplicity[doubt] > 1)):
            m = max(multiplicity[doubt[j]], 1)
            right = vh[j, -m:].T  # columns span the fixed space of R (last m)
            left_h = u[j, :, -m:].T  # rows span that of R^T
            x[doubt[j]] = right @ np.linalg.solve(left_h @ right, left_h @ seed)
    # the candidate T^dag x, Hermitian by construction
    _, (back, scale) = _hermitian_basis(d)
    candidate = (x.take(back, axis=1) * scale).view(complex).reshape(b, d, d)
    tr = x[:, ::d + 1].sum(axis=1)
    linalg.reject((np.abs(tr) < _TRACELESS, np.abs(tr),
                   "eigensolver produced a traceless fixed-point candidate"))
    # the one clamp: rho's factor, scaled to unit trace
    factor = linalg.unit_factor(linalg.psd_factor(candidate / tr[:, None, None]))
    rho = linalg.unit_trace_hermitian(factor @ linalg.dagger(factor))
    return FixedPoints(rho, factor, _residuals(kraus, rho), multiplicity, live)


def solve_fixed_point(problem: DeutschProblem) -> FixedPointResult:
    """Find the canonical fixed point of the self-consistency condition."""
    with linalg.single_entry():
        return solve_stack(problem.kraus[None])[0]


def evolve(problem: DeutschProblem) -> tuple[DensityMatrix, FixedPointResult]:
    """Solve the fixed point, then return (visible output, solver result)."""
    with linalg.single_entry():
        fps = solve_stack(problem.kraus[None])
        return _visible(problem, fps.factor[0], fps.live), fps[0]
