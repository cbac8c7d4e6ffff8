"""Register layouts, validated state/unitary wrappers (a state carries its
factor W W^dag = rho), and the qudit gates used by the cloning circuits:
SWAP, CSUM, controlled-select blocks, basis mappers, and register
embeddings.

Every gate is local: a tuple of register names plus a small gate on those
registers. A local gate is one of three kinds, each validated once, when it
is built:

- ``Unitary``, a dense matrix, checked by U^dag U;
- ``Permutation`` (``swap_gate``, ``csum_gate``), a map of basis indices,
  unitary by construction and never checked by a matrix product;
- ``Select`` (``select_gate``), the (nc, nt, nt) stack of the blocks U_k of
  sum_k |k><k| x U_k, checked by one ``check_unitary`` on the stack: the
  diagonal blocks the dense check would see, at O(nc * nt^3) instead of
  O((nc * nt)^3). A family of already checked ``Unitary`` members is not
  checked again.

The gate constructors return a ``GateList``, the local gates of an
interaction in application order on one ``Layout``. A list checks each
distinct gate once, and ``@`` composes two lists on the same registers
without checking their gates again. ``swap_gate``, ``csum_gate`` and
``select_gate`` check their registers and sides themselves and return a
list that is not checked again; the SWAP and CSUM permutations are made
once per dim and shared, with read-only index arrays. One kernel,
``GateList.apply``, pushes a (..., D, m) array of columns (leading axes
batch independent column sets) through steps compiled from the gates: per
gate, one gather of the rows that moves its registers in front, then its
own product on the (..., s, rest) view (one s x s product, or one nt x nt
product per control slice). A ``Permutation`` moves no data and folds into
the next gather; a last gather restores layout order. No D x D matrix is
formed, and a batch member's products have the shapes they would have
alone, so its bits do not depend on the batch. Dense matrices are built
only on request (``.mat``; ``GateList.mat`` is the gates applied to the
identity, checked by ``Unitary``).

States and stacks of them are validated by ``check_density``: one
Cholesky factorization of a matrix or a stack accepts it, and a spectrum
(``eigvalsh``) is taken only to decide and name a failure.

Tensor convention: registers appear in declaration order, the CTC register
(when present) last, and a basis state |i0, i1, ...> has flat index
sum(i_k * prod(later dims)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import as_matrix, dagger, reject, tolerances

TRACE_TOL = 1e-10  # max |Tr rho - 1| accepted for a density matrix
NORM_TOL = 1e-10  # max |norm - 1| accepted for a pure state's amplitudes
DISTINCT_TOL = 1e-8  # alphabet states this close in trace distance are not distinct
PAD_FLOOR = 1e-6  # Alphabet.padded keeps a candidate only with residual norm above this
PHASE_FLOOR = 1e-14  # a basis mapper takes no phase from an overlap this small
REFLECT_FLOOR = 1e-24  # a basis mapper reflects only when |v|^2 reaches this


@dataclass(frozen=True)
class Layout:
    """Ordered named registers; at most one is designated as the CTC."""

    registers: tuple  # of (name, dim) pairs
    ctc_index: int | None = None

    def __post_init__(self):
        regs = tuple((str(n), int(d)) for n, d in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        if any(d < 2 for _, d in regs):
            raise ValueError("register dimensions must be >= 2")
        if self.ctc_index is not None:
            if not 0 <= self.ctc_index < len(regs):
                raise ValueError(f"ctc_index {self.ctc_index} out of range")
            if self.ctc_index != len(regs) - 1:
                raise ValueError("the CTC register must be last in tensor order")

    @cached_property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.registers)

    @cached_property
    def dims(self) -> tuple:
        return tuple(d for _, d in self.registers)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def _positions(self) -> dict:
        """Each register name's position in tensor order."""
        return {n: i for i, n in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"no register named {name!r}") from None

    def dim(self, name: str) -> int:
        return self.dims[self.index(name)]

    @property
    def ctc_dim(self) -> int:
        if self.ctc_index is None:
            raise ValueError("layout has no CTC register")
        return self.registers[self.ctc_index][1]

    @cached_property
    def cr_dims(self) -> tuple:
        """Dimensions of the chronology-respecting (non-CTC) registers."""
        return tuple(
            d for i, (_, d) in enumerate(self.registers) if i != self.ctc_index
        )


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex).reshape(-1)
        with np.errstate(over="ignore"):  # huge amplitudes: the norm is inf
            norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amps", a)

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def basis(cls, dim: int, j: int) -> "PureState":
        a = np.zeros(dim, dtype=complex)
        a[j] = 1.0
        return cls(a)

    @classmethod
    def normalized(cls, amps) -> "PureState":
        a = np.asarray(amps, dtype=complex).reshape(-1)
        return cls(a / np.linalg.norm(a))

    def projector(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())

    def density(self) -> "DensityMatrix":
        p = self.projector()
        ket = self.amps[:, None]
        # the norm tolerance admits a trace of 1 +- 2e-10, beyond TRACE_TOL;
        # renormalise only then, so a projector of valid trace keeps its bits
        tr = float(np.real(np.trace(p)))
        if abs(tr - 1.0) > TRACE_TOL:
            p, ket = p / tr, ket / np.sqrt(tr)
        return DensityMatrix._trusted(p, factor=ket)


def check_density(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless every (..., n, n) entry of ``m`` is
    Hermitian, PSD and of unit trace within the tolerances; for a stack the
    error (a ``linalg.StackError``) names the first failing entry.

    One Cholesky factorization of the stack's h + h^dag, shifted by
    ``tolerances.psd / 2``, accepts a stack whose every entry is Hermitian,
    of unit trace and factors: such an entry has norm about 1, so while the
    shift is far above the factorization's rounding (about n * eps), its
    least eigenvalue is above ``-tolerances.psd``, as ``eigvalsh`` would
    find. The factorization is taken only then, while ``tolerances.psd / 2``
    exceeds 1e3 * n * eps (with the default psd, up to n = 225). Any other
    stack takes ``eigvalsh`` of the same h + h^dag, whose spectrum decides
    and names the first failing entry; an entry that fails the Hermiticity
    check (a non-finite one does) is named by it and takes no spectrum."""
    # huge entries overflow here into inf or NaN values, which fail the checks
    with np.errstate(over="ignore", invalid="ignore"):
        defect = linalg.hermiticity_defect(m)
        h = m / 2  # h + h^dag does not overflow where m is Hermitian
        herm = h + dagger(h)
        tr = np.trace(m, axis1=-2, axis2=-1).real
    factor = None
    if tolerances.psd / 2 > 2.22e-13 * m.shape[-1]:  # 1e3 * n * eps
        try:
            factor = np.linalg.cholesky(herm + tolerances.psd / 2 * np.eye(m.shape[-1]))
        except np.linalg.LinAlgError:
            pass
    # NaN fails every comparison. OpenBLAS passes a NaN pivot, where huge
    # entries overflow, as positive; any non-finite entry of a factor makes
    # its last pivot NaN.
    hermitian = defect <= tolerances.herm
    if factor is not None and (hermitian & (np.abs(tr - 1.0) <= TRACE_TOL)
                               & np.isfinite(factor[..., -1, -1])).all():
        return
    # the spectrum only of entries that pass the Hermiticity check, which
    # names the others: eigvalsh of a non-finite entry may not converge
    w = np.linalg.eigvalsh(np.where(hermitian[..., None, None], herm,
                                    np.eye(m.shape[-1])))[..., 0]
    reject(
        (defect > tolerances.herm, defect,
         "matrix is not Hermitian: max |h - h^dag| = {:.3e}"),
        (w < -tolerances.psd, w, "not PSD: min eigenvalue {:.3e}"),
        (np.abs(tr - 1.0) > TRACE_TOL, tr, f"trace {{}} is not 1 within {TRACE_TOL}"),
    )


def check_unitary(m: np.ndarray, bound: float | None = None) -> None:
    """Raise ``ValueError`` unless every (..., n, n) entry of ``m`` has
    max |U^dag U - I| within ``bound``, by default ``tolerances.unitary``;
    for a stack the error (a ``linalg.StackError``) names the first failing
    entry."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in check_density
        defect = np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))
    reject((defect > (tolerances.unitary if bound is None else bound), defect,
            "not unitary: max |U^dag U - I| = {:.3e}"))


def _register_dims(side: int, dims) -> tuple:
    dims = (side,) if dims is None else tuple(int(d) for d in dims)
    if math.prod(dims) != side:
        raise ValueError(f"dims {dims} do not match side {side}")
    return dims


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-one operator, optionally with register dims.

    The public constructor validates its input (``check_density``, one
    Cholesky factorization): use it for anything arriving from outside, the
    API, a DSL file or the CLI.
    States built from validated or solved ones are density matrices by
    construction and wrapped by the internal ``_trusted``, which checks only
    the register dims, and attaches a factor W W^dag = rho where one is
    known: ``PureState.density`` (its ket), ``product`` (the kron of its
    parts' factors: the CR input of ``cloning.make_problem`` and of
    ``dsl.lower``, whose input lines are each validated), the solved CTC state
    and ``sanitize`` output (the clamp's), ``random_density`` (its Ginibre
    draw), spectator-channel outputs (their blocks) and ``nosignal``'s Tr_R
    of its joint input (``linalg.reduced_factor``). I/d, other partial
    traces, the Gram-form output and ``deutsch_map`` output are trusted too,
    and factored on first use if ever. Only
    ``engine.solve_stack`` and ``sanitize`` clamp (``linalg.psd_factor``); map
    outputs are made exactly Hermitian and of unit trace by
    ``linalg.unit_trace_hermitian``. ``check_density`` validates a stack.
    """

    mat: np.ndarray
    dims: tuple = None

    def __post_init__(self):
        m = as_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", _register_dims(m.shape[0], self.dims))
        check_density(m)

    @classmethod
    def _trusted(cls, mat: np.ndarray, dims=None, factor=None) -> "DensityMatrix":
        """Wrap a complex (n, n) array that is a density matrix by
        construction, and its (n, r) ``factor`` when one is known."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", mat)
        object.__setattr__(rho, "dims", _register_dims(mat.shape[0], dims))
        if factor is not None:
            rho.__dict__["factor"] = factor
        return rho

    @cached_property
    def factor(self) -> np.ndarray:
        """An (n, r) W with W W^dag = rho, attached or from one eigh: the
        eigenvectors times the roots of the eigenvalues above the largest
        times n * eps, the rounding level of an n x n eigendecomposition."""
        w, v = np.linalg.eigh(self.mat)
        keep = w > w[-1] * w.size * np.finfo(float).eps
        return v[:, keep] * np.sqrt(w[keep])

    @classmethod
    def product(cls, parts: Sequence["DensityMatrix"], order=None) -> "DensityMatrix":
        """The product state of ``parts`` on their registers (each part's
        ``dims`` in turn), reordered so that register i of the result is
        register ``order[i]`` of that list (default: unchanged). Its factor
        is the kron of the parts' factors with the rows moved into that
        order, and the state is W W^dag: no eigendecomposition of its size."""
        dims = tuple(d for p in parts for d in p.dims)
        order = tuple(range(len(dims))) if order is None else tuple(order)
        w = reduce(linalg.kron, [p.factor for p in parts] or [np.ones((1, 1), dtype=complex)])
        w = w.reshape(dims + (-1,)).transpose(order + (len(dims),)).reshape(w.shape)
        return cls._trusted(w @ dagger(w), tuple(dims[i] for i in order), w)

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    def with_dims(self, dims: Sequence[int]) -> "DensityMatrix":
        return DensityMatrix._trusted(self.mat, dims, self.__dict__.get("factor"))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls._trusted(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def sanitize(cls, m, dims=None) -> "DensityMatrix":
        """Symmetrize, clamp small negative eigenvalues, renormalize.

        The clamp the solve applies to its fixed-point candidate, for a
        caller's matrix with numerical drift; anything beyond the PSD
        tolerance still rejects. The result is a density matrix by
        construction and is not checked again.
        """
        w = linalg.unit_factor(linalg.psd_factor(as_matrix(m)))
        return cls._trusted(linalg.unit_trace_hermitian(w @ dagger(w)), dims, w)


@dataclass(frozen=True)
class Unitary:
    """A dense unitary; as a local gate, one product on its registers."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        check_unitary(m)
        object.__setattr__(self, "mat", m)

    @classmethod
    def _trusted(cls, mat: np.ndarray) -> "Unitary":
        """Wrap a complex (n, n) array that is unitary by construction or
        was checked as part of a stack."""
        u = object.__new__(cls)
        object.__setattr__(u, "mat", mat)
        return u

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    def fits(self, dims: tuple) -> bool:
        return self.side == math.prod(dims)

    def dagger(self) -> "Unitary":
        return Unitary._trusted(self.mat.conj().T)


@dataclass(frozen=True, eq=False)
class Permutation:
    """A permutation of the basis of registers of dims ``dims``: output
    basis index i is input index ``source[i]``. Unitary by construction."""

    source: np.ndarray
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not np.array_equal(np.sort(self.source), np.arange(math.prod(self.dims))):
            raise ValueError(f"source is not a permutation of dims {self.dims}")

    @property
    def side(self) -> int:
        return self.source.size

    def fits(self, dims: tuple) -> bool:
        return self.dims == dims

    @property
    def mat(self) -> np.ndarray:
        # not cached: the SWAP and CSUM permutations are shared per dim
        m = np.zeros((self.side, self.side), dtype=complex)
        m[np.arange(self.side), self.source] = 1.0
        return m

    def dagger(self) -> "Permutation":
        return Permutation(np.argsort(self.source), self.dims)


@dataclass(frozen=True, eq=False)
class Select:
    """The controlled-select gate sum_k |k><k| x blocks[k] on (control,
    target), kept as its (nc, nt, nt) block stack. The public constructor
    checks the stack with one ``check_unitary``."""

    blocks: np.ndarray

    def __post_init__(self):
        b = linalg.as_stack(self.blocks)
        if b.ndim != 3:
            raise ValueError(f"expected an (nc, nt, nt) block stack, got shape {b.shape}")
        check_unitary(b)
        object.__setattr__(self, "blocks", b)

    @classmethod
    def _trusted(cls, blocks: np.ndarray) -> "Select":
        """Wrap an (nc, nt, nt) stack of blocks already checked as unitary."""
        s = object.__new__(cls)
        object.__setattr__(s, "blocks", blocks)
        return s

    @property
    def dims(self) -> tuple:
        return self.blocks.shape[:2]

    @property
    def side(self) -> int:
        return self.dims[0] * self.dims[1]

    def __len__(self) -> int:
        return self.dims[0]

    def fits(self, dims: tuple) -> bool:
        return self.dims == dims

    @cached_property
    def mat(self) -> np.ndarray:
        nc, nt = self.dims
        m = np.zeros((nc, nt, nc, nt), dtype=complex)
        m[np.arange(nc), :, np.arange(nc), :] = self.blocks
        return m.reshape(nc * nt, nc * nt)

    def dagger(self) -> "Select":
        return Select._trusted(np.ascontiguousarray(dagger(self.blocks)))


def ket_distances(amps: np.ndarray) -> np.ndarray:
    """The (N, N) trace distances of the projectors of the unit kets in the
    rows of ``amps``: ||b - <a|b> a|| for kets a and b, from one Gram matrix
    (sqrt(1 - |<a|b>|^2) would cancel for near-parallel kets)."""
    gram = amps.conj() @ amps.T  # gram[i, j] = <a_i|a_j>
    diff = amps[None, :, :] - gram[:, :, None] * amps[:, None, :]
    return np.linalg.norm(diff, axis=-1)


@dataclass(frozen=True)
class Alphabet:
    """N distinct pure states in dimension N, the clone-target set."""

    states: tuple

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("alphabet must not be empty")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise ValueError("alphabet states must share one dimension")
        if len(states) != dim:
            raise ValueError(
                f"alphabet size {len(states)} must equal the dimension {dim}"
            )
        dist = ket_distances(np.array([s.amps for s in states]))
        bad = np.argwhere(np.triu(dist <= DISTINCT_TOL, k=1))
        if len(bad):
            i, j = bad[0]  # the first pair in row-major order
            raise ValueError(f"alphabet states {i} and {j} are not distinct")
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def padded(cls, states: Sequence[PureState], dim: int) -> "Alphabet":
        """Pad fewer than ``dim`` states up to a full alphabet with vectors
        orthogonal to the given ones: Gram-Schmidt of the given states gives
        an orthonormal basis of their span, and each basis vector in turn
        that leaves a residual against it is a padding state."""
        states = list(states)
        for i, s in enumerate(states):
            if s.dim != dim:
                raise ValueError(f"state {i} has dimension {s.dim}, not {dim}")
        if len(states) > dim:
            raise ValueError("more states than the dimension allows")
        given, span = len(states), []
        for k, v in enumerate([s.amps for s in states] + list(np.eye(dim, dtype=complex))):
            if len(states) == dim:
                break
            for b in span:
                v = v - b * (np.vdot(b, v))
            n = np.linalg.norm(v)
            if n > PAD_FLOOR:
                span.append(v / n)
                if k >= given:
                    states.append(PureState(v / n))
        if len(states) != dim:
            raise ValueError("could not complete the alphabet to full dimension")
        return cls(tuple(states))


# the front gathers of layouts up to this side are cached (at most 16 MB)
_CACHED_SIDE = 1 << 12
# the gates compiled during one apply hold at most this many rows (8 MB)
_PLAN_ROWS = 1 << 20


@lru_cache(maxsize=256)
def _front(layout: Layout, regs: tuple) -> tuple:
    """The gather of rows ``index`` that moves the registers ``regs`` of a
    (D, m) array in layout order in front, and its ``inverse``. Cached up to
    side ``_CACHED_SIDE``, because long circuits apply the same few gates
    hundreds of times."""
    order = [layout.index(r) for r in regs]
    order += [a for a in range(len(layout.dims)) if a not in order]
    index = np.arange(layout.total_dim).reshape(layout.dims).transpose(order).reshape(-1)
    inverse = np.empty_like(index)
    inverse[index] = np.arange(layout.total_dim)
    return index, inverse


@lru_cache(maxsize=1024)
def _gate_dims(layout: Layout, regs: tuple) -> tuple:
    """The dims of the distinct registers ``regs`` of ``layout``. Cached,
    so composing or re-wrapping gate lists does not scan the layout again;
    a failure is not cached and raises on every call."""
    positions = [layout.index(r) for r in regs]
    if len(set(positions)) != len(positions):
        raise ValueError(f"registers {list(regs)} must be distinct")
    return tuple(layout.dims[p] for p in positions)


def _compiled(layout: Layout, regs: tuple, u) -> tuple:
    """One local gate as (index, product, inverse): gathering rows ``index``
    moves its registers in front for ``product`` (operand, shape), and
    ``inverse`` moves them back. A ``Permutation`` is a gather alone."""
    front = _front if layout.total_dim <= _CACHED_SIDE else _front.__wrapped__
    index, inverse = front(layout, regs)
    if isinstance(u, Permutation):
        # in front order, row (g, o) takes the amplitude of row (source[g], o)
        return index.reshape(u.side, -1)[u.source].reshape(-1)[inverse], None, None
    product = (u.mat, (u.side, -1)) if isinstance(u, Unitary) else (u.blocks, u.dims + (-1,))
    return index, product, inverse


@dataclass(frozen=True, eq=False)
class GateList:
    """An interaction as local gates on one layout, in application order.

    Each gate is a pair (register names, ``Unitary``, ``Permutation`` or
    ``Select`` on those registers); every other register sees the identity.
    U x I is unitary exactly when U is, so validating each small gate
    validates the whole interaction. The public constructor checks that
    each gate fits its registers; ``_trusted`` composes gates that lists on
    the same registers have checked.
    """

    layout: Layout
    gates: tuple = ()

    def __post_init__(self):
        gates = tuple((tuple(regs), u) for regs, u in self.gates)
        # a long circuit repeats a few gates: each distinct one is checked once
        for regs, u in {(regs, id(u)): (regs, u) for regs, u in gates}.values():
            dims = _gate_dims(self.layout, regs)
            if not u.fits(dims):
                raise ValueError(
                    f"gate of side {u.side} does not fit registers {list(regs)} "
                    f"of dims {dims}"
                )
        object.__setattr__(self, "gates", gates)

    @property
    def side(self) -> int:
        return self.layout.total_dim

    def _steps(self):
        """The gates compiled, as they are taken, into steps (rows, product):
        a gather of ``rows`` of the (..., D, m) array, then one product
        (operand, shape) or none. Gathers in a row (a ``Permutation``, the
        gather back from one gate and the gather in front for the next)
        compose into one. Each distinct gate is compiled once while the
        compiled gates hold at most ``_PLAN_ROWS`` rows, and again at each
        use beyond that, so memory does not grow with D times the gates."""
        known, room, rows = {}, _PLAN_ROWS, None  # rows: the gather pending
        for regs, u in self.gates:
            compiled = known.get((regs, id(u)))
            if compiled is None:
                compiled = _compiled(self.layout, regs, u)
                if room >= 2 * self.side:
                    known[regs, id(u)], room = compiled, room - 2 * self.side
            index, product, inverse = compiled
            rows = index if rows is None else rows[index]
            if product is not None:
                yield rows, product
                rows = inverse
        if rows is not None:
            yield rows, None

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """The interaction applied to each column of a (..., D, m) array."""
        lead, x = columns.shape[:-2], columns
        for rows, product in self._steps():
            x = x.take(rows, axis=-2)
            if product is not None:
                operand, shape = product
                x = (operand @ x.reshape(lead + shape)).reshape(columns.shape)
        return x

    @classmethod
    def _trusted(cls, layout: Layout, gates: tuple) -> "GateList":
        """Wrap a tuple of (register tuple, gate) pairs on ``layout``, each
        taken from a gate list on the same registers, or checked against
        them by the gate builder that makes it."""
        gl = object.__new__(cls)
        object.__setattr__(gl, "layout", layout)
        object.__setattr__(gl, "gates", gates)
        return gl

    def __matmul__(self, other: "GateList") -> "GateList":
        """Matrix-order composition: ``a @ b`` applies b first."""
        if other.layout.registers != self.layout.registers:
            raise ValueError("cannot compose gate lists on different layouts")
        return GateList._trusted(self.layout, other.gates + self.gates)

    def dagger(self) -> "GateList":
        return GateList(
            self.layout, tuple((regs, u.dagger()) for regs, u in reversed(self.gates))
        )

    @property
    def tolerance(self) -> float:
        """The bound on max |U^dag U - I| of the product. Each gate passed
        its own check within ``tolerances.unitary``, and the product can add
        up their defects: one ``tolerances.unitary`` per gate that is not a
        ``Permutation`` (permutations are exact), and at least one."""
        dense = sum(not isinstance(u, Permutation) for _, u in self.gates)
        return tolerances.unitary * max(1, dense)

    @cached_property
    def unitary(self) -> Unitary:
        """The dense D x D interaction, built only on request: the gates
        applied to the identity, checked within ``tolerance``."""
        m = self.apply(np.eye(self.side, dtype=complex))
        check_unitary(m, self.tolerance)
        return Unitary._trusted(m)

    @property
    def mat(self) -> np.ndarray:
        return self.unitary.mat


def _pair_dim(layout: Layout, r1: str, r2: str, same_error: str, name: str) -> int:
    """The common dim of two distinct registers of equal dims."""
    if layout.index(r1) == layout.index(r2):
        raise ValueError(same_error)
    n = layout.dim(r1)
    if layout.dim(r2) != n:
        raise ValueError(f"{name} needs equal dims, got {n} and {layout.dim(r2)}")
    return n


@lru_cache(maxsize=64)
def _permutation(kind: str, n: int) -> Permutation:
    """The ``swap`` or ``csum`` permutation of two registers of dim ``n``,
    made once per (kind, n) and shared by every gate list that holds it;
    its index array is read-only."""
    if kind == "swap":
        # output |i, j> reads input |j, i>
        source = np.arange(n * n).reshape(n, n).T.reshape(-1)
    else:
        # output |i, j> reads input |i, j - i mod N>
        i, j = np.indices((n, n)).reshape(2, -1)
        source = i * n + (j - i) % n
    source.flags.writeable = False
    return Permutation(source, (n, n))


def swap_gate(layout: Layout, r1: str, r2: str) -> GateList:
    """Exchange the basis indices of two equal-dimension registers."""
    n = _pair_dim(layout, r1, r2, "cannot swap a register with itself", "swap")
    # _pair_dim made the checks GateList's constructor would make
    return GateList._trusted(layout, (((r1, r2), _permutation("swap", n)),))


def csum_gate(layout: Layout, ctrl: str, tgt: str) -> GateList:
    """Generalized controlled sum: |i>|j> -> |i>|j + i mod N| on (ctrl, tgt)."""
    n = _pair_dim(layout, ctrl, tgt, "control and target must differ", "csum")
    return GateList._trusted(layout, (((ctrl, tgt), _permutation("csum", n)),))


def select_gate(
    layout: Layout,
    ctrl: str,
    tgt: str,
    family: Select | Sequence[Unitary],
    adjoint: bool = False,
) -> GateList:
    """Controlled-select block sum_k |k><k|_ctrl x (U_k or U_k^dag)_tgt.

    ``family`` is a ``Select`` or a sequence of ``Unitary`` members; either
    was checked when built, so the block stack is not checked again. The
    registers and sides are checked here, as GateList's constructor would."""
    nc = layout.dim(ctrl)
    nt = layout.dim(tgt)
    if layout.index(ctrl) == layout.index(tgt):
        raise ValueError("control and target must differ")
    if len(family) != nc:
        raise ValueError(f"family size {len(family)} must equal control dim {nc}")
    # the blocks of a stack share its side, so a Select is tested once
    sides = family.dims[1:] if isinstance(family, Select) else [u.side for u in family]
    for k, side in enumerate(sides):
        if side != nt:
            raise ValueError(f"family member {k} has side {side}, target dim {nt}")
    select = (family if isinstance(family, Select)
              else Select._trusted(np.array([u.mat for u in family])))
    return GateList._trusted(layout, (((ctrl, tgt), select.dagger() if adjoint else select),))


def embed_on_registers(layout: Layout, regs: Sequence[str], u: Unitary) -> GateList:
    """Place a multi-register unitary (acting on ``regs`` in the given order)
    into the full layout, identity on the remaining registers."""
    return GateList(layout, ((tuple(regs), u),))


def _mapper_stack(amps: np.ndarray, js: np.ndarray) -> np.ndarray:
    """(B, n, n), unchecked: member b sends the unit vector ``amps[b]`` to
    e_{js[b]}. Each step is the elementwise or per-member operation of one
    mapper, so every member has the bits of its own stack of one."""
    b, n = amps.shape
    rows = np.arange(b)
    eye = np.eye(n, dtype=complex)
    overlap = amps[rows, js]
    theta = np.where(np.abs(overlap) > PHASE_FLOOR, np.angle(overlap), 0.0)
    v = amps - np.exp(1j * theta)[:, None] * eye[js]
    # np.vdot per row: a stacked reduction rounds differently
    vv = np.array([np.vdot(row, row).real for row in v])
    reflect = vv >= REFLECT_FLOOR
    outer = v[:, :, None] * v.conj()[:, None, :]
    h = eye - 2.0 * outer / np.where(reflect, vv, 1.0)[:, None, None]
    h[~reflect] = eye
    phase_fix = np.zeros((b, n, n), dtype=complex)
    phase_fix.reshape(b, -1)[:, ::n + 1] = 1
    phase_fix[rows, js, js] = np.exp(-1j * theta)
    return phase_fix @ h


def basis_mapper(psi: PureState, j: int) -> Unitary:
    """Unitary sending ``psi`` exactly to the computational basis vector e_j.

    Householder reflection through psi - e^{i theta} e_j, with theta the phase
    of <e_j|psi>, followed by a diagonal phase fix so the image carries no
    residual global phase: ``basis_mappers`` on a stack of one.
    """
    n = psi.dim
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range for dimension {n}")
    return Unitary(_mapper_stack(psi.amps[None], np.array([j]))[0])


def basis_mappers(alphabet: Alphabet) -> Select:
    """The basis mappers U_k sending state k of ``alphabet`` to e_k, built
    as one stack and checked by one ``check_unitary``; block k equals
    ``basis_mapper(alphabet.states[k], k).mat``."""
    amps = np.array([s.amps for s in alphabet.states])
    return Select(_mapper_stack(amps, np.arange(len(alphabet))))
