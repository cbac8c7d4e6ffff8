import numpy as np
import pytest

from ctcsim import linalg
from ctcsim.engine import build_superoperator
from ctcsim.quantum import Alphabet, PureState
from ctcsim.sampling import random_pure


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def eig_calls(monkeypatch):
    """(name, argument) of every numpy eigendecomposition made from here on;
    clear it before the call under test."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
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
