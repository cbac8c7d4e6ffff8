"""Register layouts, validated state/unitary wrappers, and the qudit gates
used by the cloning circuits: SWAP, CSUM, controlled-select blocks, basis
mappers, and register embeddings.

Every gate is local: a tuple of register names plus a small ``Unitary`` on
those registers, validated when the gate is built. The gate constructors
return a ``GateList``, the local gates of an interaction in application
order on one ``Layout``; gate lists compose with ``@``. One kernel,
``apply_local``, applies a local gate to a (dims..., m) tensor of m column
vectors with one s x s matrix product between two transposes, so a gate of
side s costs O(D * m * s) on m columns of total dimension D and no D x D
matrix is formed.
The dense interaction is built only on request (``GateList.mat``): the
kernel applied to the identity, still checked by ``Unitary``.

Tensor convention: registers appear in declaration order, the CTC register
(when present) last, and a basis state |i0, i1, ...> has flat index
sum(i_k * prod(later dims)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import as_matrix, dagger, reject, tolerances

TRACE_TOL = 1e-10  # max |Tr rho - 1| accepted for a density matrix


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
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} is not 1 within 1e-10")
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
        # the norm tolerance admits a trace of 1 +- 2e-10, beyond TRACE_TOL;
        # renormalise only then, so a projector of valid trace keeps its bits
        tr = float(np.real(np.trace(p)))
        if abs(tr - 1.0) > TRACE_TOL:
            p = p / tr
        return DensityMatrix(p)


def check_density(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless every (..., n, n) entry of ``m`` is
    Hermitian, PSD and of unit trace within the tolerances; for a stack the
    error (a ``linalg.StackError``) names the first failing entry."""
    defect = linalg.hermiticity_defect(m)
    w = np.linalg.eigvalsh((m + dagger(m)) / 2)[..., 0]
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
    defect = np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))
    reject((defect > tolerances.unitary, defect,
            "not unitary: max |U^dag U - I| = {:.3e}"))


def _sanitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize, clamp small negative eigenvalues and renormalize each
    (..., n, n) entry with one eigendecomposition; an eigenvalue below
    ``-tolerances.psd`` still rejects."""
    m = (m + dagger(m)) / 2
    w, v = np.linalg.eigh(m)
    reject((w[..., 0] < -tolerances.psd, w[..., 0],
            "not PSD even before clamping: {:.3e}"))
    # np.maximum gives np.clip(w, 0, None)'s values without its wrapper cost
    w = np.maximum(w, 0.0)
    m = (v * w[..., None, :]) @ dagger(v)
    m = (m + dagger(m)) / 2
    return m / np.real(np.trace(m, axis1=-2, axis2=-1))[..., None, None]


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
    Results that are density matrices by construction from validated inputs
    (``sanitize`` output, the kron of two states, a reordering of their
    tensor factors, ``sampling.random_density``) are wrapped by the internal
    ``_trusted`` constructor, which checks only the register dims.
    ``check_density`` runs the same validation on an (..., n, n) stack at
    once.
    """

    mat: np.ndarray
    dims: tuple = None

    def __post_init__(self):
        m = as_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", _register_dims(m.shape[0], self.dims))
        check_density(m)

    @classmethod
    def _trusted(cls, mat: np.ndarray, dims=None) -> "DensityMatrix":
        """Wrap a complex (n, n) array that is a density matrix by
        construction, skipping the eigendecomposition."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", mat)
        object.__setattr__(rho, "dims", _register_dims(mat.shape[0], dims))
        return rho

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    def with_dims(self, dims: Sequence[int]) -> "DensityMatrix":
        return DensityMatrix._trusted(self.mat, dims)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def sanitize(cls, m, dims=None) -> "DensityMatrix":
        """Symmetrize, clamp small negative eigenvalues, renormalize.

        Guards solver output against numerical drift; anything beyond the PSD
        tolerance still rejects. The result is a density matrix by
        construction and is not checked again.
        """
        return cls._trusted(_sanitize(as_matrix(m)), dims)


@dataclass(frozen=True)
class Unitary:
    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        check_unitary(m)
        object.__setattr__(self, "mat", m)

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> "Unitary":
        return Unitary(self.mat.conj().T)

    def __matmul__(self, other: "Unitary") -> "Unitary":
        return Unitary(self.mat @ other.mat)


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
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                d = linalg.trace_distance(states[i].projector(), states[j].projector())
                if d <= 1e-8:
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


def apply_local(layout: Layout, gate, tensor: np.ndarray) -> np.ndarray:
    """Apply one local gate, a pair (register names, Unitary on those
    registers in that order), to a tensor of shape (dims..., m): move the
    named axes to the front, multiply by the gate's matrix, and move them
    back into their places."""
    regs, u = gate
    order = [layout.index(r) for r in regs]
    order += [a for a in range(tensor.ndim) if a not in order]
    moved = tensor.transpose(order)
    out = (u.mat @ moved.reshape(u.side, -1)).reshape(moved.shape)
    return out.transpose([order.index(a) for a in range(tensor.ndim)])


@dataclass(frozen=True, eq=False)
class GateList:
    """An interaction as local gates on one layout, in application order.

    Each gate is a pair (register names, Unitary on those registers); every
    other register sees the identity. U x I is unitary exactly when U is, so
    validating each small matrix validates the whole interaction.
    """

    layout: Layout
    gates: tuple = ()

    def __post_init__(self):
        gates = tuple((tuple(regs), u) for regs, u in self.gates)
        dims = self.layout.dims
        for regs, u in gates:
            positions = [self.layout.index(r) for r in regs]
            if len(set(positions)) != len(positions):
                raise ValueError(f"registers {list(regs)} must be distinct")
            side = math.prod(dims[p] for p in positions)
            if u.side != side:
                raise ValueError(
                    f"unitary side {u.side} does not match registers {list(regs)}"
                )
        object.__setattr__(self, "gates", gates)

    @property
    def side(self) -> int:
        return self.layout.total_dim

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """The interaction applied to each column of a (D, m) array."""
        t = columns.reshape(self.layout.dims + (-1,))
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


def _local_gate(layout: Layout, regs: Sequence[str], mat: np.ndarray) -> GateList:
    return GateList(layout, ((tuple(regs), Unitary(mat)),))


def swap_gate(layout: Layout, r1: str, r2: str) -> GateList:
    """Exchange the basis indices of two equal-dimension registers."""
    if layout.index(r1) == layout.index(r2):
        raise ValueError("cannot swap a register with itself")
    n = layout.dim(r1)
    if layout.dim(r2) != n:
        raise ValueError(f"swap needs equal dims, got {n} and {layout.dim(r2)}")
    # |i, j> -> |j, i>: exchange the two output indices of the identity
    perm = np.eye(n * n, dtype=complex).reshape(n, n, n * n).transpose(1, 0, 2)
    return _local_gate(layout, (r1, r2), perm.reshape(n * n, n * n))


def csum_gate(layout: Layout, ctrl: str, tgt: str) -> GateList:
    """Generalized controlled sum: |i>|j> -> |i>|j + i mod N| on (ctrl, tgt)."""
    if layout.index(ctrl) == layout.index(tgt):
        raise ValueError("control and target must differ")
    n = layout.dim(ctrl)
    if layout.dim(tgt) != n:
        raise ValueError(f"csum needs equal dims, got {n} and {layout.dim(tgt)}")
    i, j = np.indices((n, n)).reshape(2, -1)
    perm = np.zeros((n * n, n * n), dtype=complex)
    perm[i * n + (i + j) % n, i * n + j] = 1.0
    return _local_gate(layout, (ctrl, tgt), perm)


def select_gate(
    layout: Layout,
    ctrl: str,
    tgt: str,
    family: Sequence[Unitary],
    adjoint: bool = False,
) -> GateList:
    """Controlled-select block sum_k |k><k|_ctrl x (U_k or U_k^dag)_tgt."""
    nc = layout.dim(ctrl)
    nt = layout.dim(tgt)
    if layout.index(ctrl) == layout.index(tgt):
        raise ValueError("control and target must differ")
    if len(family) != nc:
        raise ValueError(f"family size {len(family)} must equal control dim {nc}")
    blocks = np.zeros((nc, nt, nc, nt), dtype=complex)
    for k, u in enumerate(family):
        if u.side != nt:
            raise ValueError(f"family member {k} has side {u.side}, target dim {nt}")
        blocks[k, :, k, :] = u.mat.conj().T if adjoint else u.mat
    return _local_gate(layout, (ctrl, tgt), blocks.reshape(nc * nt, nc * nt))


def embed_unitary(layout: Layout, reg: str, u: Unitary) -> GateList:
    """Place a single-register unitary into the full layout."""
    return GateList(layout, (((reg,), u),))


def embed_on_registers(layout: Layout, regs: Sequence[str], u: Unitary) -> GateList:
    """Place a multi-register unitary (acting on ``regs`` in the given order)
    into the full layout, identity on the remaining registers."""
    return GateList(layout, ((tuple(regs), u),))


def basis_mapper(psi: PureState, j: int) -> Unitary:
    """Unitary sending ``psi`` exactly to the computational basis vector e_j.

    Householder reflection through psi - e^{i theta} e_j, with theta the phase
    of <e_j|psi>, followed by a diagonal phase fix so the image carries no
    residual global phase.
    """
    n = psi.dim
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range for dimension {n}")
    overlap = psi.amps[j]
    theta = float(np.angle(overlap)) if abs(overlap) > 1e-14 else 0.0
    ej = np.zeros(n, dtype=complex)
    ej[j] = 1.0
    v = psi.amps - np.exp(1j * theta) * ej
    vv = float(np.real(np.vdot(v, v)))
    if vv < 1e-24:
        h = np.eye(n, dtype=complex)
    else:
        h = np.eye(n, dtype=complex) - 2.0 * np.outer(v, v.conj()) / vv
    phase_fix = np.eye(n, dtype=complex)
    phase_fix[j, j] = np.exp(-1j * theta)
    return Unitary(phase_fix @ h)
