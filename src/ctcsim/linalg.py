"""Dense complex matrix primitives: Kronecker products, partial traces,
PSD factors, and trace distances.

All operators are plain square ``numpy`` arrays of ``complex128``, stored
row-major. ``kron``, ``partial_trace``, ``permute_registers``,
``hermiticity_defect``, ``psd_factor``, ``unit_trace_hermitian``,
``trace_norm`` and ``trace_distance`` are
shape-generic: they act on the last two axes of an (..., n, n) stack and
broadcast over the leading ones, so one matrix and a stack of them take the
same code; ``kron``, ``unit_factor`` and ``reduced_factor`` do the same for
(..., n, r) factors. A state is clamped in one place, ``psd_factor``. Checks
on a stack go through ``reject``, which names the first failing entry;
``chunks`` splits a long stack to bound its memory; tolerances: ``tolerances``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np


@dataclass
class Tolerances:
    """Central tolerance registry; mutate the module-level instance to override."""

    herm: float = 1e-12        # max |h - h^dag| accepted as Hermitian
    # eigenvalue floor; more negative means not PSD. quantum.check_density
    # accepts by a Cholesky shifted by psd / 2 only while that is far above
    # the factorization's rounding (1e3 * n * eps), else by the spectrum
    psd: float = 1e-10
    unitary: float = 1e-10     # max |U^dag U - I| accepted as unitary
    eig_one_window: float = 1e-8  # singular values of S - I counted as null


tolerances = Tolerances()

# stacked callers (the sweeps, the no-signalling checks) process at most
# CHUNK_ENTRIES entries per matrix stack at once, so peak memory stays
# bounded for any count and size; the bits do not depend on the chunking
CHUNK_ENTRIES = 2**18


def chunks(count: int, side: int):
    """(lo, hi) ranges covering ``count`` stack members, one per chunk;
    ``side`` is the side of the largest matrix held per member."""
    size = max(1, CHUNK_ENTRIES // (side * side))
    for lo in range(0, count, size):
        yield lo, min(lo + size, count)


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
    is described by the first of them. An entry whose value is NaN fails
    too: NaN compares false with every bound.
    """
    bads = [bad | (values != values) for bad, values, _ in checks]  # NaN != NaN
    # a 0-d result (one matrix) is tested by truth value, much cheaper than
    # a reduction
    if not any(bad.any() if bad.ndim else bad for bad in bads):
        return
    bads = [np.asarray(bad) for bad in bads]
    first = int(np.flatnonzero(np.logical_or.reduce(bads))[0])
    index = None if bads[0].ndim == 0 else first
    for bad, (_, values, message) in zip(bads, checks):
        if bad.reshape(-1)[first]:
            value = float(np.reshape(values, -1)[first])
            raise StackError(message.format(value), index)


@contextmanager
def entries_from(offset: int):
    """Let a ``StackError`` raised on a chunk of a larger stack name the
    failing entry by its position in the whole stack."""
    try:
        yield
    except StackError as exc:
        if exc.index is None:
            raise
        raise StackError(exc.message, offset + exc.index) from None


@contextmanager
def single_entry():
    """Run stacked kernels on a stack of one: a failure reads as the message
    for one matrix, without the stack entry."""
    try:
        yield
    except StackError as exc:
        raise StackError(exc.message) from None


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
    """Kronecker product of the last two axes, broadcast over leading axes:
    of (..., n, n) states, or of (..., n, r) factors, a factor of the product.

    A broadcast multiply, the same products ``np.kron`` forms, so the bits
    match it; ``einsum`` would not.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    s = out.shape
    return out.reshape(s[:-4] + (s[-4] * s[-3], s[-2] * s[-1]))


def _check_dims(side: int, dims: Sequence[int]) -> Tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"register dimensions must be positive, got {dims}")
    if side != math.prod(dims):
        raise ValueError(f"matrix side {side} does not match product of dims {dims}")
    return dims


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every register not in ``keep``, preserving register order.

    ``dims`` lists the register dimensions in tensor order; ``keep`` is a set
    of register indices. An empty ``keep`` yields the 1x1 matrix [Tr(m)].
    ``m`` may be a stack (..., n, n); the leading axes are kept.
    """
    m = as_stack(m)
    dims = _check_dims(m.shape[-1], dims)
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


def reduced_factor(w, dims: Sequence[int], traced: Iterable[int]) -> np.ndarray:
    """A factor of Tr_traced(W W^dag) for each (..., n, r) factor W on
    registers ``dims``: W with the traced registers moved into its columns,
    at most as wide as tall. Exact, with no eigendecomposition; a traced
    index out of range rejects."""
    dims, lead = _check_dims(w.shape[-2], dims), list(range(w.ndim - 2))
    traced = sorted(set(int(t) for t in traced))
    for t in traced:
        if not 0 <= t < len(dims):
            raise ValueError(f"traced register {t} out of range for {len(dims)} registers")
    keep = [i for i in range(len(dims)) if i not in traced]
    t = w.reshape(w.shape[:-2] + dims + w.shape[-1:])
    t = t.transpose(lead + [len(lead) + i for i in keep + traced + [len(dims)]])
    side = math.prod(dims[i] for i in keep)
    t = t.reshape(w.shape[:-2] + (side, w.shape[-2] // side * w.shape[-1]))
    # narrowed to R^dag (W^dag = QR, W W^dag = R^dag R) when wider than tall
    return t if t.shape[-1] <= side else dagger(np.linalg.qr(dagger(t), mode="r"))


def permute_registers(m, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: register i of the result is register perm[i]
    of m. ``m`` may be a stack (..., n, n); the leading axes are kept."""
    m = as_stack(m)
    dims = _check_dims(m.shape[-1], dims)
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    lead = m.ndim - 2
    t = m.reshape(m.shape[:-2] + dims + dims)
    t = t.transpose(list(range(lead)) + [lead + p for p in perm]
                    + [lead + n + p for p in perm])
    return np.ascontiguousarray(t.reshape(m.shape))


def hermiticity_defect(h):
    """max |h - h^dag| of each (..., n, n) entry."""
    h = as_stack(h)
    return np.abs(h - dagger(h)).max(axis=(-2, -1))


def psd_factor(h: np.ndarray) -> np.ndarray:
    """A full-width factor W = v sqrt(w) with W W^dag = h of each (..., n, n)
    entry, from one eigendecomposition of its Hermitian part, for input
    already known to be Hermitian up to rounding (a validated state, a
    solve's candidate). Eigenvalues within ``tolerances.psd`` of zero are
    clamped; anything more negative rejects. The one clamp of the program."""
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    reject((w[..., 0] < -tolerances.psd, w[..., 0],
            "not PSD even before clamping: {:.3e}"))
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def unit_factor(w: np.ndarray) -> np.ndarray:
    """Each (..., n, r) factor over its Frobenius norm, summed along one
    flat axis so a stack member has the bits of its own stack of one."""
    flat = w.reshape(w.shape[:-2] + (-1,))
    return w / np.sqrt(np.sum(flat.real**2 + flat.imag**2, axis=-1))[..., None, None]


def unit_trace_hermitian(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of each (..., n, n) entry divided by its trace:
    removes the rounding from a matrix that is PSD by construction, with no
    eigendecomposition."""
    m = (m + dagger(m)) / 2
    return m / np.real(np.trace(m, axis1=-2, axis2=-1))[..., None, None]


def trace_norm(h):
    """Sum of absolute eigenvalues of each Hermitian (..., n, n) entry: a
    float for one matrix, an array for a stack. An asymmetry beyond
    ``tolerances.herm`` rejects the input."""
    h = as_stack(h)
    defect = hermiticity_defect(h)
    reject((defect > tolerances.herm, defect,
            "matrix is not Hermitian: max |h - h^dag| = {:.3e}"))
    # eigh, not eigvalsh: LAPACK's eigenvalue-only path rounds differently
    w, _ = np.linalg.eigh((h + dagger(h)) / 2)
    norm = np.sum(np.abs(w), axis=-1)
    return float(norm) if norm.ndim == 0 else norm


def trace_distance(a, b):
    """Half the trace norm of a - b, for Hermitian (..., n, n) a and b of
    equal side whose leading axes broadcast: a float for one pair, an array
    for a stack."""
    a = as_stack(a)
    b = as_stack(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)
