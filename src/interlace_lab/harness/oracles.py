"""Random-matrix eigenvalue oracles.

Direct dense matrix sampling plus a symmetric eigensolver; independent of
every kernel formula in this package, so these are true cross-checks.
"""
from __future__ import annotations

import numpy as np

from ..diffusion1d import CatalogError


def _gue_matrix(rng: np.random.Generator, n: int, count: int, scale: float) -> np.ndarray:
    H = np.zeros((count, n, n), complex)
    for i in range(n):
        H[:, i, i] = rng.normal(0.0, np.sqrt(scale), size=count)
        for j in range(i + 1, n):
            off = (rng.normal(size=count) + 1j * rng.normal(size=count)) * np.sqrt(scale / 2.0)
            H[:, i, j] = off
            H[:, j, i] = np.conj(off)
    return H


def gue_sample(rng: np.random.Generator, n: int, count: int, scale: float = 1.0) -> np.ndarray:
    """Eigenvalues of Hermitian matrices with N(0, scale) diagonal and
    complex off-diagonal entries of variance scale."""
    return np.linalg.eigvalsh(_gue_matrix(rng, n, count, scale))


def gue_corners_sample(rng: np.random.Generator, n: int, count: int, scale: float = 1.0) -> list:
    """Eigenvalues of the k x k top-left minors, k = 1..n, of one
    gue_sample matrix per draw: one (count, k) array per level.  Nested
    minors interlace, and the levels have the law at time `scale` of the
    Brownian Gelfand-Tsetlin pattern started from the origin."""
    H = _gue_matrix(rng, n, count, scale)
    return [np.linalg.eigvalsh(H[:, :k, :k]) for k in range(1, n + 1)]


def complex_wishart_sample(
    rng: np.random.Generator, n: int, k: int, count: int, entry_variance: float = 1.0
) -> np.ndarray:
    """Eigenvalues of A A* with A an n x k matrix of independent complex
    Gaussians, E|A_ij|^2 = entry_variance."""
    s = np.sqrt(entry_variance / 2.0)
    A = rng.normal(0.0, s, size=(count, n, k)) + 1j * rng.normal(0.0, s, size=(count, n, k))
    W = A @ np.conj(np.transpose(A, (0, 2, 1)))
    return np.linalg.eigvalsh(W).real


def jacobi_unitary_sample(
    rng: np.random.Generator, n: int, p: int, q: int, count: int
) -> np.ndarray:
    """Eigenvalues of the matrix beta-2 Jacobi ensemble: A(A + B)^{-1} with
    A ~ Wishart(n, p), B ~ Wishart(n, q); spectrum in [0, 1]."""
    sa = np.sqrt(0.5)
    A = rng.normal(0, sa, (count, n, p)) + 1j * rng.normal(0, sa, (count, n, p))
    B = rng.normal(0, sa, (count, n, q)) + 1j * rng.normal(0, sa, (count, n, q))
    WA = A @ np.conj(np.transpose(A, (0, 2, 1)))
    WB = B @ np.conj(np.transpose(B, (0, 2, 1)))
    # the generalized problem WA v = lam (WA + WB) v: with WA + WB = L L*,
    # lam are the eigenvalues of the Hermitian L^-1 WA L^-*
    L = np.linalg.cholesky(WA + WB)
    LiWA = np.linalg.solve(L, WA)
    return np.linalg.eigvalsh(np.linalg.solve(L, np.conj(np.transpose(LiWA, (0, 2, 1)))))


#: oracle kind -> (sampler, number of size parameters)
_ORACLES = {"gue": (gue_sample, 1), "wishart": (complex_wishart_sample, 2),
            "jue": (jacobi_unitary_sample, 3)}


def rmt_oracle(ensemble: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """String-addressable oracle: 'gue:n', 'wishart:n,k', 'jue:n,p,q' with
    positive integer sizes; any other id raises CatalogError.

    Returns sorted eigenvalue samples of shape (count, n).
    """
    if count > 1_000_000:
        raise ValueError("count capped at 1e6")
    kind, _, rest = ensemble.partition(":")
    sampler, k = _ORACLES.get(kind, (None, 0))
    try:
        args = [int(v) for v in rest.split(",")]
    except ValueError:
        args = []
    if sampler is None or len(args) != k or min(args) < 1:
        raise CatalogError(f"malformed oracle id {ensemble!r}: expected gue:n, wishart:n,k or jue:n,p,q")
    if args[0] > 6:
        raise ValueError("matrix size capped at 6")
    return sampler(rng, *args, count)
