"""Seeded random generators for sweeps and property tests.

All sampling routes through ``numpy.random.Generator`` (PCG64), so a fixed
seed reproduces the same trial sequence on any platform.

A Ginibre matrix is drawn as a block of real parts, then a block of
imaginary parts. ``ginibre_trials`` draws the matrices of many trials with
one call, in the order the single-matrix generators would draw them, and
``haar_from_ginibre`` and ``density_from_ginibre`` turn (..., n, n) stacks
of draws into Haar unitaries and density matrices; ``haar_unitary`` and
``random_density`` apply them to a one-trial ``ginibre_trials`` draw.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import dagger, unit_factor
from .quantum import DensityMatrix, Unitary


def ginibre_trials(
    rng: np.random.Generator, trials: int, sides: Sequence[int]
) -> list:
    """For each of ``trials`` trials, one complex Gaussian matrix of each side
    in ``sides``, in that order: a stack of shape (trials, n, n) per side.

    The generator fills values in sequence, so one call for every trial
    consumes the stream exactly as drawing matrix by matrix would.
    """
    x = rng.standard_normal((trials, sum(2 * n * n for n in sides)))
    stacks, pos = [], 0
    for n in sides:
        re = x[:, pos:pos + n * n].reshape(trials, n, n)
        im = x[:, pos + n * n:pos + 2 * n * n].reshape(trials, n, n)
        stacks.append(re + 1j * im)
        pos += 2 * n * n
    return stacks


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from (..., n, n) Ginibre draws: QR with the
    phases of R's diagonal moved onto Q."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def density_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Full-rank density matrices Z Z^dag / Tr(Z Z^dag) from (..., n, n)
    Ginibre draws."""
    m = z @ dagger(z)
    return m / np.real(np.trace(m, axis1=-2, axis2=-1))[..., None, None]


def haar_unitary(rng: np.random.Generator, dim: int) -> Unitary:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return Unitary(haar_from_ginibre(ginibre_trials(rng, 1, (dim,))[0][0]))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank random density matrix from a normalized Ginibre product; a
    density matrix by construction, so it takes the trusted path, carrying
    the factor Z / ||Z||_F (``linalg.unit_factor``) as the fixed-points
    sweep draws it."""
    z = ginibre_trials(rng, 1, (dim,))[0][0]
    return DensityMatrix._trusted(density_from_ginibre(z), factor=unit_factor(z))
