"""Dense complex matrix primitives: Kronecker products, partial traces,
Hermitian eigendecomposition, PSD square roots and trace distances.

All operators are plain square ``numpy`` arrays of ``complex128``, stored
row-major. ``kron``, ``partial_trace``, ``hermiticity_defect`` and
``psd_sqrt`` are shape-generic: they act on the last two axes of an
(..., n, n) stack and broadcast over the leading ones, so one matrix and a
stack of them take the same code. Checks on a stack go through ``reject``,
which names the first failing entry. Tolerances live in ``tolerances``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np


@dataclass
class Tolerances:
    """Central tolerance registry; mutate the module-level instance to override."""

    herm: float = 1e-12        # max |h - h^dag| accepted as Hermitian
    psd: float = 1e-10         # eigenvalue floor; more negative means not PSD
    reconstruction: float = 1e-9
    unitary: float = 1e-10     # max |U^dag U - I| accepted as unitary


tolerances = Tolerances()


class StackError(ValueError):
    """A check failed. ``index`` is the flat position of the first failing
    entry of a stack, or None when a single matrix failed."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"stack entry {index}: {message}")
        self.message = message
        self.index = index


def reject(*checks) -> None:
    """Raise ``StackError`` for the first entry of a stack that fails a check.

    Each check is a triple (bad, values, message) of numpy arrays of one
    batch shape and a format string: ``bad`` marks the failing entries and
    ``message.format(value)`` describes one. An entry failing several checks
    is described by the first of them.
    """
    # a 0-d result (one matrix) is tested by truth value, much cheaper than
    # a reduction
    if not any(bad.any() if bad.ndim else bad for bad, _, _ in checks):
        return
    bads = [np.asarray(bad) for bad, _, _ in checks]
    first = int(np.flatnonzero(np.logical_or.reduce(bads))[0])
    index = None if bads[0].ndim == 0 else first
    for bad, (_, values, message) in zip(bads, checks):
        if bad.reshape(-1)[first]:
            value = float(np.reshape(values, -1)[first])
            raise StackError(message.format(value), index)


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_stack(m) -> np.ndarray:
    """A complex (..., n, n) array: one square matrix or a stack of them."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over leading axes.

    A broadcast multiply, the same products ``np.kron`` forms, so the bits
    match it; ``einsum`` would not.
    """
    a, b = as_stack(a), as_stack(b)
    n, m = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


def kron_all(*mats) -> np.ndarray:
    """Left-to-right Kronecker product of any number of square matrices."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = kron(out, as_matrix(m))
    return out


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> Tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"register dimensions must be positive, got {dims}")
    if m.shape[-1] != math.prod(dims):
        raise ValueError(
            f"matrix side {m.shape[-1]} does not match product of dims {dims}"
        )
    return dims


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every register not in ``keep``, preserving register order.

    ``dims`` lists the register dimensions in tensor order; ``keep`` is a set
    of register indices. An empty ``keep`` yields the 1x1 matrix [Tr(m)].
    ``m`` may be a stack (..., n, n); the leading axes are kept.
    """
    m = as_stack(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError(f"keep indices {keep} out of range for {n} registers")
    lead = m.shape[:-2]
    t = m.reshape(lead + dims + dims)
    traced = [i for i in range(n) if i not in keep]
    remaining = n
    for i in sorted(traced, reverse=True):
        b = len(lead) + i
        t = np.trace(t, axis1=b, axis2=b + remaining)
        remaining -= 1
    side = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (side, side))


def permute_registers(m, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: register i of the result is register perm[i] of m."""
    m = as_matrix(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    t = t.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(t.reshape(m.shape))


def hermiticity_defect(h):
    """max |h - h^dag| of each (..., n, n) entry."""
    h = as_stack(h)
    return np.abs(h - dagger(h)).max(axis=(-2, -1))


def hermitian_eig(h, tol: float | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix; eigenvalues ascending.

    Rejects inputs whose asymmetry exceeds the Hermiticity tolerance, reporting
    the measured defect.
    """
    h = as_matrix(h)
    tol = tolerances.herm if tol is None else tol
    defect = float(hermiticity_defect(h))
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {defect:.3e}")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return w, v


def psd_sqrt(h) -> np.ndarray:
    """Unique positive square root of each PSD Hermitian (..., n, n) entry.

    Eigenvalues within ``tolerances.psd`` of zero are clamped; anything more
    negative, or an asymmetry beyond ``tolerances.herm``, rejects the input.
    """
    h = as_stack(h)
    defect = hermiticity_defect(h)
    reject((defect > tolerances.herm, defect,
            "matrix is not Hermitian: max |h - h^dag| = {:.3e}"))
    return _psd_sqrt(h)


def _psd_sqrt(h: np.ndarray) -> np.ndarray:
    """``psd_sqrt`` of the Hermitian part, for input already known to be
    Hermitian (a validated state); the PSD check stays."""
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    reject((w[..., 0] < -tolerances.psd, w[..., 0],
            "matrix is not PSD: min eigenvalue {:.3e}"))
    # np.maximum gives np.clip(w, 0, None)'s values without its wrapper cost
    w = np.sqrt(np.maximum(w, 0.0))
    return (v * w[..., None, :]) @ dagger(v)


def trace_norm(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    w, _ = hermitian_eig(h)
    return float(np.sum(np.abs(w)))


def trace_distance(a, b) -> float:
    """Half the trace norm of a - b, for Hermitian a, b of equal side."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)
