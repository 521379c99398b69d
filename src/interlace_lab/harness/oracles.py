"""Random-matrix eigenvalue oracles.

GUE and complex Wishart eigenvalues come from the beta = 2 matrix models of
Dumitriu & Edelman, "Matrix models for beta ensembles", J. Math. Phys. 43
(2002): a real symmetric tridiagonal matrix with the same spectrum as the
dense ensemble, drawn from O(n) normal and gamma variates.  GUE corners and
the Jacobi ensemble sample the dense matrices.  Every oracle is a matrix
model, independent of every kernel formula in this package, so these are
true cross-checks.  Matrices of size n <= 3 are solved in closed form (the
quadratic for 2 x 2, Smith's trigonometric solution of the characteristic
cubic for 3 x 3) and larger ones by LAPACK.  The closed forms agree with
LAPACK to 1e-12 of the largest |eigenvalue| in general, and to 1e-7 of it
at a double or near-double eigenvalue, where arccos is ill-conditioned.
"""
from __future__ import annotations

import numpy as np

from ..diffusion1d import CatalogError

#: matrices per block of the closed-form solve: bounds its temporaries
_BLOCK = 1 << 14


def _closed_form(diag: list, off2: list, triple=0.0) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices of size n = len(diag) <= 3,
    given the real diagonals, the squared moduli of the upper triangle
    ([|H01|^2] for n = 2, [|H01|^2, |H02|^2, |H12|^2] for n = 3) and, for
    n = 3, Re(H01 H12 conj(H02))."""
    n = len(diag)
    if n == 1:
        return diag[0][:, None]
    if n == 2:
        m = 0.5 * (diag[0] + diag[1])
        h = np.sqrt(0.25 * (diag[0] - diag[1]) ** 2 + off2[0])
        return np.stack([m - h, m + h], axis=-1)
    # O. K. Smith, Comm. ACM 4(4):168 (1961): with q = tr/3 and
    # p^2 = tr((H - q)^2)/6, the eigenvalues are q + 2p cos(phi + 2 pi k/3)
    # where cos(3 phi) = det(H - q)/(2 p^3)
    bb, cc, ee = off2
    q = (diag[0] + diag[1] + diag[2]) / 3.0
    a, d, f = diag[0] - q, diag[1] - q, diag[2] - q
    p = np.sqrt((a * a + d * d + f * f + 2.0 * (bb + cc + ee)) / 6.0)
    det = a * d * f + 2.0 * triple - a * ee - d * cc - f * bb
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, det / (2.0 * p ** 3), 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    k = np.array([0.0, 2.0, 4.0]) * (np.pi / 3.0)
    lam = q[:, None] + (2.0 * p)[:, None] * np.cos(phi[:, None] + k)
    return np.sort(lam, axis=-1)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def _eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (count, n, n) stack of Hermitian matrices:
    closed forms in blocks of _BLOCK matrices for n <= 3, LAPACK beyond."""
    n = H.shape[-1]
    if n > 3:
        return np.linalg.eigvalsh(H)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = np.empty(H.shape[:-1])
    for s in range(0, H.shape[0], _BLOCK):
        B = H[s:s + _BLOCK]
        triple = (B[:, 0, 1] * B[:, 1, 2] * np.conj(B[:, 0, 2])).real if n == 3 else 0.0
        out[s:s + _BLOCK] = _closed_form([B[:, i, i].real for i in range(n)],
                                         [_abs2(B[:, i, j]) for i, j in pairs], triple)
    return out


def _tridiagonal_eigvalsh(d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of real symmetric tridiagonal matrices with
    diagonals d (count, n) and squared off-diagonals e2 (count, n - 1):
    closed forms for n <= 3, LAPACK beyond, in blocks of _BLOCK matrices."""
    count, n = d.shape
    out = np.empty((count, n))
    for s in range(0, count, _BLOCK):
        db, eb = d[s:s + _BLOCK], e2[s:s + _BLOCK]
        if n > 3:
            T = np.zeros((len(db), n, n))
            i = np.arange(n)
            T[:, i, i] = db
            T[:, i[1:], i[:-1]] = np.sqrt(eb)  # eigvalsh reads the lower triangle
            out[s:s + _BLOCK] = np.linalg.eigvalsh(T)
        else:
            off2 = [eb[:, 0], 0.0, eb[:, 1]] if n == 3 else [eb[:, 0]] if n == 2 else []
            out[s:s + _BLOCK] = _closed_form([db[:, i] for i in range(n)], off2)
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
    complex off-diagonal entries of variance scale, drawn from the
    tridiagonal model (Dumitriu-Edelman, beta = 2): N(0, scale) diagonal
    and squared off-diagonal k = scale * Gamma(n - 1 - k), which is the
    squared norm of the dense matrix's column k below row k + 1."""
    d = rng.normal(0.0, np.sqrt(scale), size=(count, n))
    e2 = scale * rng.standard_gamma(np.arange(n - 1, 0, -1.0), size=(count, n - 1))
    return _tridiagonal_eigvalsh(d, e2)


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
    Gaussians, E|A_ij|^2 = entry_variance, drawn from the bidiagonal model
    (Dumitriu-Edelman, beta = 2): with r = min(n, k), v = entry_variance,
    the nonzero eigenvalues are those of B B^T for B lower bidiagonal, its
    squared diagonal a_i^2 = v Gamma(max(n, k) - i) and squared subdiagonal
    c_i^2 = v Gamma(r - 1 - i).  B B^T is tridiagonal, with diagonal
    a_i^2 + c_{i-1}^2 and squared off-diagonal a_i^2 c_i^2; for n > k the
    n - k further eigenvalues are exact zeros."""
    r = min(n, k)
    shapes = np.concatenate([max(n, k) - np.arange(r), r - 1.0 - np.arange(r - 1)])
    g = entry_variance * rng.standard_gamma(shapes, size=(count, 2 * r - 1))
    a2, c2 = g[:, :r], g[:, r:]
    d = a2.copy()
    d[:, 1:] += c2
    out = np.zeros((count, n))
    out[:, n - r:] = _tridiagonal_eigvalsh(d, a2[:, :-1] * c2)
    return out


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
