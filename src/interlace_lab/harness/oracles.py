"""Random-matrix eigenvalue oracles.

GUE and complex Wishart eigenvalues come from the beta = 2 matrix models of
Dumitriu & Edelman, "Matrix models for beta ensembles", J. Math. Phys. 43
(2002): a real symmetric tridiagonal matrix with the same spectrum as the
dense ensemble, drawn from O(n) normal and gamma variates.  The models and
their solver live in kmgroup (_gue_draw, _laguerre_draw), whose entrance
laws draw from them too.  The draws stream in blocks of _BLOCK matrices:
each block's variates are drawn, in the order of one whole-array draw, and
solved into the output, so a draw of any count holds its output and one
block's temporaries.  The Jacobi ensemble draws its dense matrices and
solves them in the same blocks, so a draw of at most _BLOCK matrices takes
the variates of one whole-array draw.  GUE corners draws each matrix
entry for every matrix at once, and builds and solves the dense matrices
in the same blocks.
Every oracle is a matrix model, independent of every kernel formula in
this package, so these are true cross-checks.  Matrices of size n <= 3
are solved in closed form (kmgroup._closed_form: the quadratic for 2 x 2,
Smith's trigonometric solution of the characteristic cubic for 3 x 3) and
larger ones by LAPACK.  The closed forms agree with LAPACK to 1e-12 of
the largest |eigenvalue| in general, and to 1e-7 of it at a double or
near-double eigenvalue, where arccos is ill-conditioned.
"""
from __future__ import annotations

import numpy as np

from ..diffusion1d import CatalogError
from ..kmgroup import _BLOCK, _closed_form, _gue_draw, _laguerre_draw


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


def _gram(A: np.ndarray) -> np.ndarray:
    """A A* for a (count, n, k) complex stack."""
    return np.einsum("cik,cjk->cij", A, np.conj(A))


def _gue_entries(rng: np.random.Generator, n: int, count: int, scale: float):
    """The upper triangle of `count` dense GUE matrices, each entry drawn
    for all matrices at once, in one order: row i's diagonal entry, then its
    complex entries (i, j), j > i.  Returns the n diagonal columns and the
    {(i, j): column} map of the off-diagonal ones."""
    diag, off = [], {}
    for i in range(n):
        diag.append(rng.normal(0.0, np.sqrt(scale), size=count))
        for j in range(i + 1, n):
            off[i, j] = (rng.normal(size=count) + 1j * rng.normal(size=count)) * np.sqrt(scale / 2.0)
    return diag, off


def _hermitian(diag, off, rows: slice) -> np.ndarray:
    """The dense Hermitian matrices of `rows` from _gue_entries' columns."""
    H = np.zeros((len(diag[0][rows]), len(diag), len(diag)), complex)
    for i, d in enumerate(diag):
        H[:, i, i] = d[rows]
    for (i, j), z in off.items():
        H[:, i, j] = z[rows]
        H[:, j, i] = np.conj(z[rows])
    return H


def _gue_matrix(rng: np.random.Generator, n: int, count: int, scale: float) -> np.ndarray:
    return _hermitian(*_gue_entries(rng, n, count, scale), slice(None))


def gue_sample(rng: np.random.Generator, n: int, count: int, scale: float = 1.0) -> np.ndarray:
    """Eigenvalues of Hermitian matrices with N(0, scale) diagonal and
    complex off-diagonal entries of variance scale, drawn from the
    tridiagonal model (kmgroup._gue_draw)."""
    return _gue_draw(rng, n, count, scale)


def gue_corners_sample(rng: np.random.Generator, n: int, count: int, scale: float = 1.0) -> list:
    """Eigenvalues of the k x k top-left minors, k = 1..n, of one
    gue_sample matrix per draw: one (count, k) array per level.  Nested
    minors interlace, and the levels have the law at time `scale` of the
    Brownian Gelfand-Tsetlin pattern started from the origin.  The entries
    are drawn for all matrices at once; the dense matrices are built and
    solved a block of _BLOCK at a time."""
    diag, off = _gue_entries(rng, n, count, scale)
    levels = [np.empty((count, k)) for k in range(1, n + 1)]
    for s in range(0, count, _BLOCK):
        H = _hermitian(diag, off, slice(s, s + _BLOCK))
        for k, level in enumerate(levels, 1):
            level[s:s + _BLOCK] = _eigvalsh(H[:, :k, :k])
    return levels


def complex_wishart_sample(
    rng: np.random.Generator, n: int, k: int, count: int, entry_variance: float = 1.0
) -> np.ndarray:
    """Eigenvalues of A A* with A an n x k matrix of independent complex
    Gaussians, E|A_ij|^2 = entry_variance: the min(n, k) nonzero ones
    from the bidiagonal model of shape max(n, k) (kmgroup._laguerre_draw),
    and for n > k the n - k further eigenvalues, which are exact zeros."""
    r = min(n, k)
    out = np.zeros((count, n))
    _laguerre_draw(rng, r, max(n, k), count, entry_variance, out=out[:, n - r:])
    return out


def jacobi_unitary_sample(
    rng: np.random.Generator, n: int, p: int, q: int, count: int
) -> np.ndarray:
    """Eigenvalues of the matrix beta-2 Jacobi ensemble: A(A + B)^{-1} with
    A ~ Wishart(n, p), B ~ Wishart(n, q); spectrum in [0, 1].  A and B are
    drawn, and solved, a block of _BLOCK matrices at a time."""
    sa = np.sqrt(0.5)
    out = np.empty((count, n))
    for s in range(0, count, _BLOCK):
        c = min(_BLOCK, count - s)
        A = rng.normal(0, sa, (c, n, p)) + 1j * rng.normal(0, sa, (c, n, p))
        B = rng.normal(0, sa, (c, n, q)) + 1j * rng.normal(0, sa, (c, n, q))
        WA, WB = _gram(A), _gram(B)
        # the generalized problem WA v = lam (WA + WB) v: with WA + WB = L L*,
        # lam are the eigenvalues of the Hermitian L^-1 WA L^-*
        L = np.linalg.cholesky(WA + WB)
        LiWA = np.linalg.solve(L, WA)
        out[s:s + c] = _eigvalsh(np.linalg.solve(L, np.conj(np.transpose(LiWA, (0, 2, 1)))))
    return out


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
