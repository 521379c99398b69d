"""Random-matrix eigenvalue oracles.

Direct dense matrix sampling plus a Hermitian eigenvalue solve; independent
of every kernel formula in this package, so these are true cross-checks.
Matrices of size n <= 3 are solved in closed form (the quadratic for 2 x 2,
Smith's trigonometric solution of the characteristic cubic for 3 x 3) and
larger ones by LAPACK.  The closed forms agree with LAPACK to 1e-12 of the
largest |eigenvalue| in general, and to 1e-7 of it at a double or
near-double eigenvalue, where arccos is ill-conditioned.
"""
from __future__ import annotations

import numpy as np

from ..diffusion1d import CatalogError

#: matrices per block of the closed-form solve: bounds its temporaries
_BLOCK = 1 << 14


def _closed_form(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (count, n, n) Hermitian stack, n <= 3,
    read from the real diagonal and the upper triangle."""
    n = H.shape[-1]
    diag = [H[:, i, i].real for i in range(n)]
    if n == 1:
        return diag[0][:, None]
    if n == 2:
        m = 0.5 * (diag[0] + diag[1])
        h = np.hypot(0.5 * (diag[0] - diag[1]), np.abs(H[:, 0, 1]))
        return np.stack([m - h, m + h], axis=-1)
    # O. K. Smith, Comm. ACM 4(4):168 (1961): with q = tr/3 and
    # p^2 = tr((H - q)^2)/6, the eigenvalues are q + 2p cos(phi + 2 pi k/3)
    # where cos(3 phi) = det(H - q)/(2 p^3)
    b, c, e = H[:, 0, 1], H[:, 0, 2], H[:, 1, 2]
    q = (diag[0] + diag[1] + diag[2]) / 3.0
    a, d, f = diag[0] - q, diag[1] - q, diag[2] - q
    bb, cc, ee = b.real ** 2 + b.imag ** 2, c.real ** 2 + c.imag ** 2, e.real ** 2 + e.imag ** 2
    p = np.sqrt((a * a + d * d + f * f + 2.0 * (bb + cc + ee)) / 6.0)
    bec = b * e * np.conj(c)
    det = a * d * f + 2.0 * bec.real - a * ee - d * cc - f * bb
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, det / (2.0 * p ** 3), 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    k = np.array([0.0, 2.0, 4.0]) * (np.pi / 3.0)
    lam = q[:, None] + (2.0 * p)[:, None] * np.cos(phi[:, None] + k)
    return np.sort(lam, axis=-1)


def _eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (count, n, n) stack of Hermitian matrices:
    closed forms in blocks of _BLOCK matrices for n <= 3, LAPACK beyond."""
    if H.shape[-1] > 3:
        return np.linalg.eigvalsh(H)
    out = np.empty(H.shape[:-1])
    for s in range(0, H.shape[0], _BLOCK):
        out[s:s + _BLOCK] = _closed_form(H[s:s + _BLOCK])
    return out


def _gram(A: np.ndarray) -> np.ndarray:
    """A A* for a (count, n, k) complex stack."""
    return np.einsum("cik,cjk->cij", A, np.conj(A))


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
    return _eigvalsh(_gue_matrix(rng, n, count, scale))


def gue_corners_sample(rng: np.random.Generator, n: int, count: int, scale: float = 1.0) -> list:
    """Eigenvalues of the k x k top-left minors, k = 1..n, of one
    gue_sample matrix per draw: one (count, k) array per level.  Nested
    minors interlace, and the levels have the law at time `scale` of the
    Brownian Gelfand-Tsetlin pattern started from the origin."""
    H = _gue_matrix(rng, n, count, scale)
    return [_eigvalsh(H[:, :k, :k]) for k in range(1, n + 1)]


def complex_wishart_sample(
    rng: np.random.Generator, n: int, k: int, count: int, entry_variance: float = 1.0
) -> np.ndarray:
    """Eigenvalues of A A* with A an n x k matrix of independent complex
    Gaussians, E|A_ij|^2 = entry_variance."""
    s = np.sqrt(entry_variance / 2.0)
    A = rng.normal(0.0, s, size=(count, n, k)) + 1j * rng.normal(0.0, s, size=(count, n, k))
    return _eigvalsh(_gram(A))


def jacobi_unitary_sample(
    rng: np.random.Generator, n: int, p: int, q: int, count: int
) -> np.ndarray:
    """Eigenvalues of the matrix beta-2 Jacobi ensemble: A(A + B)^{-1} with
    A ~ Wishart(n, p), B ~ Wishart(n, q); spectrum in [0, 1]."""
    sa = np.sqrt(0.5)
    A = rng.normal(0, sa, (count, n, p)) + 1j * rng.normal(0, sa, (count, n, p))
    B = rng.normal(0, sa, (count, n, q)) + 1j * rng.normal(0, sa, (count, n, q))
    WA, WB = _gram(A), _gram(B)
    # the generalized problem WA v = lam (WA + WB) v: with WA + WB = L L*,
    # lam are the eigenvalues of the Hermitian L^-1 WA L^-*
    L = np.linalg.cholesky(WA + WB)
    LiWA = np.linalg.solve(L, WA)
    return _eigvalsh(np.linalg.solve(L, np.conj(np.transpose(LiWA, (0, 2, 1)))))


#: oracle kind -> (sampler, number of size parameters)
_ORACLES = {"gue": (gue_sample, 1), "wishart": (complex_wishart_sample, 2),
            "jue": (jacobi_unitary_sample, 3)}


def rmt_oracle(ensemble: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """String-addressable oracle: 'gue:n', 'wishart:n,k', 'jue:n,p,q' with
    positive integer sizes; any other id raises CatalogError.  A count
    outside 1..1e6 or a size above 6 raises ValueError before any draw.

    Returns sorted eigenvalue samples of shape (count, n).
    """
    if not 1 <= count <= 1_000_000:
        raise ValueError(f"count {count} outside 1..1e6")
    kind, _, rest = ensemble.partition(":")
    sampler, k = _ORACLES.get(kind, (None, 0))
    try:
        args = [int(v) for v in rest.split(",")]
    except ValueError:
        args = []
    if sampler is None or len(args) != k or min(args) < 1:
        raise CatalogError(f"malformed oracle id {ensemble!r}: expected gue:n, wishart:n,k or jue:n,p,q")
    if max(args) > 6:
        raise ValueError("matrix sizes capped at 6")
    return sampler(rng, *args, count)
