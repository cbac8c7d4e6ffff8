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
interaction in application order on one ``Layout``; gate lists compose with
``@``, and their register check is memoised per (layout, registers). One
kernel, ``apply_local``, applies a local gate to a (..., dims..., m) tensor
of m column vectors (a leading axis batches independent column sets): it
moves the gate's registers to the front, lets the gate act on the
(..., s, rest) view with its own ``apply`` (one s x s product, an index
gather, or one nt x nt product per control slice), and moves them back, so
no D x D matrix is formed. A batch member's products have the shapes they
would have alone, so its bits do not depend on the batch. Each kind's dense
matrix is built only on request (``.mat``), as is the dense interaction
(``GateList.mat``: the kernel applied to the identity, checked by
``Unitary``).

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

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.registers):
            if n == name:
                return i
        raise KeyError(f"no register named {name!r}")

    def dim(self, name: str) -> int:
        return self.registers[self.index(name)][1]

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
    error (a ``linalg.StackError``) names the first failing entry."""
    # huge entries overflow here into inf or NaN values, which fail the checks
    with np.errstate(over="ignore", invalid="ignore"):
        defect = linalg.hermiticity_defect(m)
        h = m / 2  # h + h^dag does not overflow where m is Hermitian
        w = np.linalg.eigvalsh(h + dagger(h))[..., 0]
        tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    reject(
        (defect > tolerances.herm, defect,
         "matrix is not Hermitian: max |h - h^dag| = {:.3e}"),
        (w < -tolerances.psd, w, "not PSD: min eigenvalue {:.3e}"),
        (np.abs(tr - 1.0) > TRACE_TOL, tr, f"trace {{}} is not 1 within {TRACE_TOL}"),
    )


def check_unitary(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless every (..., n, n) entry of ``m`` has
    max |U^dag U - I| within ``tolerances.unitary``; for a stack the error
    (a ``linalg.StackError``) names the first failing entry."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in check_density
        defect = np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))
    reject((defect > tolerances.unitary, defect,
            "not unitary: max |U^dag U - I| = {:.3e}"))


def _register_dims(side: int, dims) -> tuple:
    dims = (side,) if dims is None else tuple(int(d) for d in dims)
    if math.prod(dims) != side:
        raise ValueError(f"dims {dims} do not match side {side}")
    return dims


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-one operator, optionally with register dims.

    The public constructor validates its input (one eigendecomposition): use
    it for anything arriving from outside, the API, a DSL file or the CLI.
    States built from validated or solved ones are density matrices by
    construction and wrapped by the internal ``_trusted``, which checks only
    the register dims, and attaches a factor W W^dag = rho where one is
    known: ``PureState.density`` (its ket), ``product`` (the kron of its
    parts' factors: the CR input of ``cloning.make_problem`` and of
    ``dsl.lower``, whose input lines are each validated), the solved CTC state
    and ``sanitize`` output (the clamp's), ``random_density`` (its Ginibre
    draw) and spectator-channel outputs (their blocks). I/d, partial traces,
    the Gram-form output and ``deutsch_map`` output are trusted too, and
    factored on first use if ever. Only
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
        w = reduce(np.kron, [p.factor for p in parts] or [np.ones((1, 1), dtype=complex)])
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The gate on each column of a (..., side, m) array."""
        return self.mat @ x

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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The gate on each column of a (..., side, m) array: a gather."""
        return x[..., self.source, :]

    @cached_property
    def mat(self) -> np.ndarray:
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The gate on each column of a (..., side, m) array: one block
        product per control slice."""
        y = x.reshape(x.shape[:-2] + self.dims + x.shape[-1:])
        return (self.blocks @ y).reshape(x.shape)

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
        bad = np.argwhere(np.triu(dist <= 1e-8, k=1))
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
        orthogonal to the given ones (Gram-Schmidt against the span)."""
        states = list(states)
        if len(states) > dim:
            raise ValueError("more states than the dimension allows")
        basis = [s.amps for s in states]
        for cand in np.eye(dim, dtype=complex):
            if len(basis) == dim:
                break
            v = cand.copy()
            for b in basis:
                v = v - b * (np.vdot(b, v))
            n = np.linalg.norm(v)
            if n > 1e-6:
                basis.append(v / n)
                states.append(PureState(v / n))
        if len(states) != dim:
            raise ValueError("could not complete the alphabet to full dimension")
        return cls(tuple(states))


@lru_cache(maxsize=256)
def _gate_axes(layout: Layout, regs: tuple, ndim: int) -> tuple:
    """For an (..., dims..., m) tensor of ``ndim`` axes: the number of
    leading batch axes, the axis order that moves the registers ``regs``
    ahead of the other register axes, and its inverse. Cached, because long
    circuits apply the same few gates hundreds of times."""
    lead = ndim - len(layout.registers) - 1
    order = list(range(lead)) + [lead + layout.index(r) for r in regs]
    order += [a for a in range(lead, ndim) if a not in order]
    return lead, tuple(order), tuple(order.index(a) for a in range(ndim))


@lru_cache(maxsize=1024)
def _gate_dims(layout: Layout, regs: tuple) -> tuple:
    """The dims of the distinct registers ``regs`` of ``layout``. Cached,
    so composing or re-wrapping gate lists does not scan the layout again;
    a failure is not cached and raises on every call."""
    positions = [layout.index(r) for r in regs]
    if len(set(positions)) != len(positions):
        raise ValueError(f"registers {list(regs)} must be distinct")
    return tuple(layout.dims[p] for p in positions)


def apply_local(layout: Layout, gate, tensor: np.ndarray) -> np.ndarray:
    """Apply one local gate, a pair (register names, gate on those registers
    in that order), to a tensor of shape (..., dims..., m): move the named
    axes to the front of the register axes, let the gate act on the
    (..., side, rest) view, and move them back into their places. Leading
    axes are a batch; each member gets its own products."""
    regs, u = gate
    lead, order, inverse = _gate_axes(layout, regs, tensor.ndim)
    moved = tensor.transpose(order)
    out = u.apply(moved.reshape(moved.shape[:lead] + (u.side, -1)))
    return out.reshape(moved.shape).transpose(inverse)


@dataclass(frozen=True, eq=False)
class GateList:
    """An interaction as local gates on one layout, in application order.

    Each gate is a pair (register names, ``Unitary``, ``Permutation`` or
    ``Select`` on those registers); every other register sees the identity.
    U x I is unitary exactly when U is, so validating each small gate
    validates the whole interaction.
    """

    layout: Layout
    gates: tuple = ()

    def __post_init__(self):
        gates = tuple((tuple(regs), u) for regs, u in self.gates)
        for regs, u in gates:
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

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """The interaction applied to each column of a (..., D, m) array."""
        t = columns.reshape(columns.shape[:-2] + self.layout.dims + (-1,))
        for gate in self.gates:
            t = apply_local(self.layout, gate, t)
        return t.reshape(columns.shape)

    def __matmul__(self, other: "GateList") -> "GateList":
        """Matrix-order composition: ``a @ b`` applies b first."""
        if other.layout.registers != self.layout.registers:
            raise ValueError("cannot compose gate lists on different layouts")
        return GateList(self.layout, other.gates + self.gates)

    def dagger(self) -> "GateList":
        return GateList(
            self.layout, tuple((regs, u.dagger()) for regs, u in reversed(self.gates))
        )

    @cached_property
    def unitary(self) -> Unitary:
        """The dense D x D interaction, built only on request: the gates
        applied to the identity, checked by ``Unitary``."""
        return Unitary(self.apply(np.eye(self.side, dtype=complex)))

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


def swap_gate(layout: Layout, r1: str, r2: str) -> GateList:
    """Exchange the basis indices of two equal-dimension registers."""
    n = _pair_dim(layout, r1, r2, "cannot swap a register with itself", "swap")
    # output |i, j> reads input |j, i>
    source = np.arange(n * n).reshape(n, n).T.reshape(-1)
    return GateList(layout, (((r1, r2), Permutation(source, (n, n))),))


def csum_gate(layout: Layout, ctrl: str, tgt: str) -> GateList:
    """Generalized controlled sum: |i>|j> -> |i>|j + i mod N| on (ctrl, tgt)."""
    n = _pair_dim(layout, ctrl, tgt, "control and target must differ", "csum")
    # output |i, j> reads input |i, j - i mod N>
    i, j = np.indices((n, n)).reshape(2, -1)
    return GateList(layout, (((ctrl, tgt), Permutation(i * n + (j - i) % n, (n, n))),))


def select_gate(
    layout: Layout,
    ctrl: str,
    tgt: str,
    family: Select | Sequence[Unitary],
    adjoint: bool = False,
) -> GateList:
    """Controlled-select block sum_k |k><k|_ctrl x (U_k or U_k^dag)_tgt.

    ``family`` is a ``Select`` or a sequence of ``Unitary`` members; either
    was checked when built, so the block stack is not checked again."""
    nc = layout.dim(ctrl)
    nt = layout.dim(tgt)
    if layout.index(ctrl) == layout.index(tgt):
        raise ValueError("control and target must differ")
    if len(family) != nc:
        raise ValueError(f"family size {len(family)} must equal control dim {nc}")
    blocks = family.blocks if isinstance(family, Select) else [u.mat for u in family]
    for k, b in enumerate(blocks):
        if len(b) != nt:
            raise ValueError(f"family member {k} has side {len(b)}, target dim {nt}")
    select = family if isinstance(family, Select) else Select._trusted(np.array(blocks))
    return GateList(layout, (((ctrl, tgt), select.dagger() if adjoint else select),))


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
    theta = np.where(np.abs(overlap) > 1e-14, np.angle(overlap), 0.0)
    v = amps - np.exp(1j * theta)[:, None] * eye[js]
    # np.vdot per row: a stacked reduction rounds differently
    vv = np.array([np.vdot(row, row).real for row in v])
    reflect = vv >= 1e-24
    outer = v[:, :, None] * v.conj()[:, None, :]
    h = eye - 2.0 * outer / np.where(reflect, vv, 1.0)[:, None, None]
    h[~reflect] = eye
    phase_fix = np.repeat(eye[None], b, axis=0)
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
