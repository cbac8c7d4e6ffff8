import numpy as np
import pytest

from ctcsim import linalg
from ctcsim.engine import build_superoperator
from ctcsim.quantum import (TRACE_TOL, Alphabet, Layout, Permutation, PureState, Select,
                            csum_gate)
from ctcsim.sampling import haar_unitary


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def eig_calls(monkeypatch):
    """(name, argument) of every numpy eigendecomposition and Cholesky
    factorization made from here on; clear it before the call under test."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "cholesky"):
        def recorded(m, *args, _name=name, _real=getattr(np.linalg, name), **kw):
            calls.append((_name, np.array(m)))
            return _real(m, *args, **kw)
        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """(compute_uv, argument) of every numpy SVD made from here on; clear it
    before the call under test."""
    calls, real = [], np.linalg.svd

    def recorded(m, *args, compute_uv=True, **kw):
        calls.append((compute_uv, np.array(m)))
        return real(m, *args, compute_uv=compute_uv, **kw)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


@pytest.fixture
def inv_calls(monkeypatch):
    """The argument of every numpy matrix inverse made from here on; clear
    it before the call under test."""
    calls, real = [], np.linalg.inv

    def recorded(m):
        calls.append(np.array(m))
        return real(m)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    return calls


def kron_all(*mats) -> np.ndarray:
    """Left-to-right Kronecker product of any number of square matrices."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = linalg.kron(out, linalg.as_matrix(m))
    return out


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix; eigenvalues ascending.

    Rejects inputs whose asymmetry exceeds the Hermiticity tolerance, reporting
    the measured defect.
    """
    h = linalg.as_matrix(h)
    defect = float(linalg.hermiticity_defect(h))
    if defect > linalg.tolerances.herm:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {defect:.3e}")
    return np.linalg.eigh((h + h.conj().T) / 2)


def apply_local(layout, gate, tensor: np.ndarray) -> np.ndarray:
    """Gate-by-gate oracle of ``GateList.apply``: apply one local gate, a
    pair (register names, gate on those registers in that order), to a
    tensor of shape (..., dims..., m) by moving the named axes to the front
    of the register axes, acting on the (..., side, rest) view (one product,
    an index gather, or one block product per control slice) and moving
    them back. Leading axes are a batch."""
    regs, u = gate
    lead = tensor.ndim - len(layout.registers) - 1
    order = list(range(lead)) + [lead + layout.index(r) for r in regs]
    order += [a for a in range(lead, tensor.ndim) if a not in order]
    moved = tensor.transpose(order)
    x = moved.reshape(moved.shape[:lead] + (u.side, -1))
    if isinstance(u, Permutation):
        out = x[..., u.source, :]
    elif isinstance(u, Select):
        out = (u.blocks @ x.reshape(x.shape[:-2] + u.dims + x.shape[-1:])).reshape(x.shape)
    else:
        out = u.mat @ x
    return out.reshape(moved.shape).transpose(np.argsort(order))


def apply_gate_by_gate(gates, columns: np.ndarray) -> np.ndarray:
    """The gates of a ``GateList`` applied one at a time with ``apply_local``
    to each column of a (..., D, m) array."""
    t = columns.reshape(columns.shape[:-2] + gates.layout.dims + (-1,))
    for gate in gates.gates:
        t = apply_local(gates.layout, gate, t)
    return t.reshape(columns.shape)


def eigvalsh_check_density(m) -> None:
    """Spectral oracle of ``quantum.check_density``: the least eigenvalue of
    every entry's h + h^dag (h = m / 2) from one ``eigvalsh`` of the stack,
    checked with its Hermiticity defect and its trace by one ``reject``. An
    entry failing the Hermiticity check is named by it, so its spectrum is
    not taken: the identity stands in for it."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = linalg.hermiticity_defect(m)
        h = m / 2
        herm = h + linalg.dagger(h)
        passed = (defect <= linalg.tolerances.herm)[..., None, None]
        w = np.linalg.eigvalsh(np.where(passed, herm, np.eye(m.shape[-1])))[..., 0]
        tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    linalg.reject(
        (defect > linalg.tolerances.herm, defect,
         "matrix is not Hermitian: max |h - h^dag| = {:.3e}"),
        (w < -linalg.tolerances.psd, w, "not PSD: min eigenvalue {:.3e}"),
        (np.abs(tr - 1.0) > TRACE_TOL, tr, f"trace {{}} is not 1 within {TRACE_TOL}"),
    )


def psd_sqrt(h) -> np.ndarray:
    """Unique positive square root of each PSD Hermitian (..., n, n) entry.

    Eigenvalues within ``tolerances.psd`` of zero are clamped; anything more
    negative, or an asymmetry beyond ``tolerances.herm``, rejects the input.
    """
    h = linalg.as_stack(h)
    defect = linalg.hermiticity_defect(h)
    linalg.reject((defect > linalg.tolerances.herm, defect,
                   "matrix is not Hermitian: max |h - h^dag| = {:.3e}"))
    w, v = np.linalg.eigh((h + linalg.dagger(h)) / 2)
    linalg.reject((w[..., 0] < -linalg.tolerances.psd, w[..., 0],
                   "matrix is not PSD: min eigenvalue {:.3e}"))
    return (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ linalg.dagger(v)


def classical_copy_circuit(n: int, ancilla_dim: int = 2):
    """CSUM from A onto B with an idle ancilla: copies computational basis
    states exactly, the allowed orthonormal-alphabet case of the baseline."""
    layout = Layout((("A", n), ("B", n), ("C", ancilla_dim)))
    return csum_gate(layout, "A", "B")


def random_pure(rng, dim: int) -> PureState:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


def random_hermitian(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_kraus_channel(rng, dim: int, n_kraus: int = 2):
    """Random trace-preserving channel as a list of Kraus operators.

    Built from the first block column of a Haar unitary on dim * n_kraus.
    """
    big = haar_unitary(rng, dim * n_kraus).mat
    return [big[k * dim:(k + 1) * dim, :dim] for k in range(n_kraus)]


def zero_plus_alphabet() -> Alphabet:
    return Alphabet((PureState.basis(2, 0), PureState.normalized([1, 1])))


def random_alphabet(rng, n: int) -> Alphabet:
    while True:
        try:
            return Alphabet(tuple(random_pure(rng, n) for _ in range(n)))
        except ValueError:
            continue  # rare near-coincident draw


def cesaro_fixed_point(problem, tol=1e-12, max_iter=100000):
    """Reference solver: iterate the averaged map rho -> (rho + M(rho)) / 2
    from I/d, which tends to the canonical fixed point P1(I/d) even where
    plain iteration cycles. Returns the iterate of least residual and that
    residual, stopping once it is at most ``tol``."""
    s, d = build_superoperator(problem), problem.ctc_dim
    rho = np.eye(d, dtype=complex) / d
    best, best_res = rho, np.inf
    for _ in range(max_iter):
        mapped = (s @ rho.reshape(-1)).reshape(d, d)
        res = linalg.trace_distance(mapped, rho)
        if res < best_res:
            best, best_res = rho, res
        if res <= tol:
            break
        rho = (rho + mapped) / 2
        rho = (rho + rho.conj().T) / 2
    return best, best_res


def svd_fixed_point(problem):
    """Reference solver for a problem with one fixed point: the last right
    singular vector of S - I, the null vector of a full SVD, scaled to unit
    trace."""
    s, d = build_superoperator(problem), problem.ctc_dim
    _, _, vh = np.linalg.svd(s - np.eye(d * d))
    v = vh[-1].conj().reshape(d, d)
    return v / np.trace(v)


def sandwich_fidelity(rho, sigma):
    """Dense oracle for the Uhlmann fidelity of two density matrices:
    Tr sqrt(rho^{1/2} sigma rho^{1/2}) from two eigendecompositions, with
    eigenvalues below 1e-13 (times the largest, at least 1) taken as zero
    and the result clamped to [0, 1]."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    sandwich = root @ sigma @ root
    w = np.linalg.eigvalsh((sandwich + sandwich.conj().T) / 2)
    w = np.where(w < 1e-13 * max(w[-1], 1.0), 0.0, w)
    return float(min(max(np.sqrt(w).sum(), 0.0), 1.0))
