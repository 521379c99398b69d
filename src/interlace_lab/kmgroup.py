"""Karlin-McGregor determinant semigroups and their eigen-structure.

The n-particle killed-on-collision semigroup has Lebesgue transition density
det(p_t(x_i, y_j)) on the ordered chamber W^n.  Determinant-form functions
h(x) = det(h_i(x_j)) are its natural eigenfunctions: by the Andreief
identity the semigroup action reduces to one-dimensional integrals,

    (P_t^n h)(x) = det( int p_t(x_i, y) h_j(y) dy )_{i,j}.

This module provides the density, Doob h-transforms, the catalog of
closed-form eigenfunctions, spectral expansions for discrete-spectrum
families, eigenfunctions built by iterating interlacing integral kernels, entrance laws from degenerate starting points, and the
Taylor-expansion limit densities (biorthogonal/polynomial ensembles).

Every determinant in the package goes through det: sizes 1, 2 and 3 are
cofactor closed forms on entries that broadcast together, larger sizes are
LAPACK's np.linalg.det.

Each entrance law names the one-particle spec it enters and carries its own
squared-Vandermonde factor.  The sampled laws are the beta = 2 GUE and
Laguerre eigenvalue laws, drawn from the tridiagonal and bidiagonal matrix
models of Dumitriu & Edelman, "Matrix models for beta ensembles",
J. Math. Phys. 43 (2002).  The models and their eigenvalue solver live here;
harness.oracles draws its GUE and complex Wishart oracles from them, and
nothing here imports the harness.

Each entrance law's normalizing constant is a closed form (Mehta's and
Selberg's integrals, in math.lgamma), not a quadrature.  Every state-space
integral here (one-particle actions, degenerate-start limits, the
entrance-law consistency residual) takes its nodes from
diffusion1d.catalog.chamber_quad, which clips to the spec's interval and
integrates in the family's coordinates.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .diffusion1d import (
    CatalogError,
    DiffusionSpec,
    TransitionKernel,
    spectral_basis,
)
from .diffusion1d.catalog import _power, _record, chamber_quad, make_spec
from .quadrature import chebyshev_antiderivative, fd_derivative


def as_weyl(x, interval=(-np.inf, np.inf)) -> np.ndarray:
    """Validate a weakly increasing vector of strictly interior points."""
    x = np.asarray(x, float)
    l, r = interval
    if x.ndim != 1 or np.any(np.diff(x) < 0):
        raise ValueError("coordinates must form a weakly increasing vector")
    if np.any(x <= l) or np.any(x >= r):
        raise ValueError("coordinates must be strictly interior")
    return x


def det(entries):
    """Determinant of the n x n matrix whose (i, j) entry is entries[i][j].

    The entries are arrays (or scalars) that broadcast together, so a batch
    of matrices is n rows of n batch arrays, and the result has their
    broadcast shape.  For n = 1, 2 and 3 it is the cofactor expansion along
    the last column, in which each product broadcasts only its own factors:
    entries that vary along fewer axes than the last column's (twolevel's
    x' blocks against its y' column) form their 2 x 2 minors on the smaller
    axes.  It agrees with np.linalg.det to 1e-14 times prod ||row||_2, the
    Hadamard bound on |det|, at (near-)singular matrices too.  For n >= 4
    the entries are stacked and np.linalg.det is called.
    """
    n = len(entries)
    if n == 0 or any(len(row) != n for row in entries):
        raise ValueError(f"det needs n >= 1 rows of n entries each, got row lengths "
                         f"{[len(row) for row in entries]}")
    m = [[np.asarray(e, float) for e in row] for row in entries]
    if n == 1:
        return np.array(m[0][0])[()]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, k) = m
        return c * (d * h - e * g) - f * (a * h - b * g) + k * (a * e - b * d)
    flat = np.broadcast_arrays(*(e for row in m for e in row))
    return np.linalg.det(np.stack(flat, axis=-1).reshape(flat[0].shape + (n, n)))


def _row_det(rows):
    """det whose i-th row is rows[i], an array (..., n) along its last axis."""
    return det([[r[..., j] for j in range(len(rows))] for r in rows])


def _coordinates(n: int, x, owner: str = "") -> np.ndarray:
    """x as a float array whose last axis holds n coordinates, else a
    ValueError naming owner (by default a determinant of n components)."""
    x = np.asarray(x, float)
    if x.ndim == 0 or x.shape[-1] != n:
        got = "a scalar" if x.ndim == 0 else f"{x.shape[-1]} (shape {x.shape})"
        owner = owner or f"a determinant of {n} components"
        raise ValueError(f"{owner} needs {n} coordinates, got {got}")
    return x


def det_of_components(components: Sequence[Callable], x: np.ndarray) -> np.ndarray:
    """det(f_i(x_j)) batched over leading axes of x (..., n), where n is the
    number of components."""
    n = len(components)
    x = _coordinates(n, x)
    return _row_det([np.asarray(f(x), float) for f in components])


@dataclass(eq=False)
class Eigenfunction:
    """Determinant-form eigenfunction det(h_i(x_j)) with P_t^n h = e^{rate t} h."""

    n: int
    components: Sequence[Callable]
    rate: float
    name: str = ""

    def __call__(self, x):
        return det_of_components(self.components, x)


def km_density(kern: TransitionKernel, t: float, x, y):
    """det(p_t(x_i, y_j)); interior (killed) densities only, no atoms."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.shape[-1]
    if y.shape[-1] != n:
        raise ValueError(f"km_density needs as many y as x coordinates: x has shape {x.shape}, "
                         f"y has shape {y.shape}")
    return det([[kern.density(t, x[..., i], y[..., j]) for j in range(n)] for i in range(n)])


def h_transform_density(kern: TransitionKernel, h: Eigenfunction, t: float, x, y):
    """e^{-rate t} h(y)/h(x) det(p_t(x_i,y_j)); an honest Markov density."""
    x = np.asarray(x, float)
    hx = float(h(x))
    if not hx > 0.0:
        raise ValueError("h must be strictly positive at the starting point")
    return math.exp(-h.rate * t) * h(y) / hx * km_density(kern, t, x, y)


def semigroup_entries(kern: TransitionKernel, h: Eigenfunction, t: float, x):
    """Matrix g_ij = int p_t(x_i, y) h_j(y) dy of one-particle actions, over
    the kernel window widened for the polynomial tails of the components."""
    n = h.n
    x = _coordinates(n, x)
    ys, ws = chamber_quad(kern.spec, 1, *kern.window(t, x), 240, pad=(0.5, 0.9))
    ys = ys[:, 0]
    G = np.empty((n, n))
    hy = [np.asarray(h.components[j](ys), float) for j in range(n)]
    for i in range(n):
        py = kern.density(t, x[i], ys)
        for j in range(n):
            G[i, j] = np.dot(ws, py * hy[j])
    return G


def eigen_residual(kern: TransitionKernel, h: Eigenfunction, t: float, probes):
    """max over probes of |(P_t^n h)(x) - e^{rate t} h(x)| / |h(x)|."""
    probes = np.atleast_2d(np.asarray(probes, float))
    worst = 0.0
    for x in probes:
        lhs = float(det(semigroup_entries(kern, h, t, x)))
        hx = float(h(x))
        worst = max(worst, abs(lhs - math.exp(h.rate * t) * hx) / abs(hx))
    return worst


# ---------------------------------------------------------------------------
# eigenfunction catalog
# ---------------------------------------------------------------------------


def vandermonde(n: int) -> Eigenfunction:
    """The Vandermonde det(x_j^k), k < n, at rate 0: the bm catalog entry."""
    return eigenfunction_catalog(make_spec("bm"), n)


def eigenfunction_catalog(spec: DiffusionSpec, n: int) -> Eigenfunction:
    """Closed-form positive eigenfunction of the n-particle semigroup of spec.

    For a family with a spectral basis it is a positive multiple of the
    ground state det(phi_k(x_j)), k < n, with rate -(lambda_0 + ... +
    lambda_{n-1}).  Rates are stored (never inferred at runtime); A8 holds
    them against the spectra and, by eigen_residual, the semigroup.
    """
    rec = _record(spec)
    if rec.eigen is None:
        raise CatalogError(f"no eigenfunction catalog entry for family {spec.family!r}")
    comps, rate, name = rec.eigen(spec.params, n)
    return Eigenfunction(n=n, components=comps, rate=rate, name=name)


def spectral_km(spec: DiffusionSpec, n: int, t: float, x, y):
    """Karlin-McGregor density via the eigen-expansion over ordered index
    tuples: sum_k e^{-|lambda_k| t} phi_k(x) phi_k(y) prod m(y_i).

    x and y are (..., n) arrays; the result has their broadcast batch shape."""
    basis = spectral_basis(spec)
    K = basis.n_terms(t)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    phis_x = [basis.phi(k, x) for k in range(K)]
    phis_y = [basis.phi(k, y) for k in range(K)]
    acc = 0.0
    for tup in itertools.combinations(range(K), n):
        lam = sum(basis.eigenvalue(k) for k in tup)
        # rows phi_k(x_j) over the batch axes, so a batch of points gives one value each
        px = _row_det([phis_x[k] for k in tup])
        py = _row_det([phis_y[k] for k in tup])
        acc = acc + math.exp(-lam * t) * px * py
    return acc * np.prod(basis.m(y), axis=-1)


# ---------------------------------------------------------------------------
# eigenfunctions via iterated interlacing kernels
# ---------------------------------------------------------------------------


def _ones(x):
    return np.ones_like(np.asarray(x, float))


def _chain(steps, hi: float, name: str, sqrt_map: bool = False) -> Eigenfunction:
    """Iterate interlacing integral kernels over determinant components.

    Starting from the single component 1, each (weight, grow) step maps
    components g_i to G_i(x) = int_0^x weight(z) g_i(z) dz, a Chebyshev
    antiderivative on [0, hi]; growing steps prepend the constant component.
    """
    comps: list = [_ones]
    for weight, grow in steps:
        comps = [
            chebyshev_antiderivative(
                lambda z, g=g: np.asarray(weight(z), float) * np.asarray(g(z), float),
                hi, sqrt_map=sqrt_map,
            )
            for g in comps
        ]
        if grow:
            comps = [_ones] + comps
    return Eigenfunction(n=len(comps), components=comps, rate=0.0, name=name)


def bm_pattern_chain(n: int) -> Eigenfunction:
    """Brownian chain: unit weights; reproduces span{1, x, ..., x^{n-1}}."""
    return _chain([(_ones, True)] * (n - 1), 30.0, "bm-chain")


def halfline_pattern_chain(n_steps: int) -> Eigenfunction:
    """Half-line chain alternating flat/grow steps with unit weights,
    starting from one reflected particle."""
    return _chain([(_ones, k % 2 == 1) for k in range(n_steps)], 30.0, "halfline-chain")


def besq_pattern_chain(d: float, n_steps: int) -> Eigenfunction:
    """Squared-Bessel chain with weights alternating x^nu (flat steps, the
    scale density of the conjugate) and x^(-nu-1) (growing steps)."""
    nu = d / 2.0 - 1.0
    steps = [(_power(-nu - 1.0), True) if k % 2 else (_power(nu), False) for k in range(n_steps)]
    return _chain(steps, 40.0, "besq-chain", sqrt_map=True)


def wronskian(components: Sequence[Callable], x: float) -> float:
    """det(d^{i-1} f_j / dx^{i-1}) at a point, by finite differences."""
    n = len(components)
    M = np.empty((n, n))
    for j, f in enumerate(components):
        M[0, j] = float(f(x))
        for i in range(1, n):
            M[i, j] = float(fd_derivative(f, x, order=i))
    return float(det(M))


# ---------------------------------------------------------------------------
# beta = 2 matrix models
# ---------------------------------------------------------------------------

#: matrices per block of the draws and the closed-form solve: bounds their
#: temporaries
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
    del a, d, f  # each temporary is freed once spent: a block's peak stays small
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(p > 0.0, det / (2.0 * p ** 3), 0.0)
    del det
    np.arccos(np.clip(phi, -1.0, 1.0, out=phi), out=phi)
    phi /= 3.0
    lam = phi[:, None] + np.array([0.0, 2.0, 4.0]) * (np.pi / 3.0)
    del phi
    np.cos(lam, out=lam)
    lam *= (2.0 * p)[:, None]
    lam += q[:, None]
    # a min/max network orders the three roots in place: the values np.sort
    # would give
    l0, l1, l2 = lam.T
    lo, hi = np.minimum(l0, l1), np.maximum(l0, l1)
    np.minimum(lo, l2, out=l0)
    np.maximum(lo, np.minimum(hi, l2, out=l1), out=l1)
    np.maximum(hi, l2, out=l2)
    return lam


def _tridiagonal_eigvalsh(blocks: Callable, out: np.ndarray) -> np.ndarray:
    """Fill out (count, n) with the ascending eigenvalues of real symmetric
    tridiagonal matrices, _BLOCK at a time, and return it: blocks(s, e)
    gives the diagonals (e - s, n) and squared off-diagonals (e - s, n - 1)
    of matrices s..e-1, and is called for consecutive blocks in order.  A
    block's diagonals may be out[s:e] itself.  Closed forms for n <= 3,
    LAPACK beyond."""
    count, n = out.shape
    for s in range(0, count, _BLOCK):
        e = min(s + _BLOCK, count)
        db, eb = blocks(s, e)
        if n > 3:
            T = np.zeros((e - s, n, n))
            i = np.arange(n)
            T[:, i, i] = db
            T[:, i[1:], i[:-1]] = np.sqrt(eb)  # eigvalsh reads the lower triangle
            out[s:e] = np.linalg.eigvalsh(T)
        else:
            off2 = [eb[:, 0], 0.0, eb[:, 1]] if n == 3 else [eb[:, 0]] if n == 2 else []
            out[s:e] = _closed_form([db[:, i] for i in range(n)], off2)
    return out


def _squared_entries(rng: np.random.Generator, shapes, count: int, scale: float) -> np.ndarray:
    """(count, len(shapes)) draws scale * Gamma(k), one column per shape k:
    the squared moduli of the models' chi entries, chi_{2k}^2 / 2 ~ Gamma(k)."""
    g = rng.standard_gamma(shapes, size=(count, len(shapes)))
    g *= scale
    return g


def _gue_draw(rng: np.random.Generator, n: int, count: int, scale: float) -> np.ndarray:
    """(count, n) ascending eigenvalues of the n x n GUE with N(0, scale)
    diagonal and complex off-diagonal entries of variance scale, density
    proportional to Delta(y)^2 prod e^{-y_i^2 / 2 scale}: the tridiagonal
    model (Dumitriu-Edelman, beta = 2) with N(0, scale) diagonal and squared
    off-diagonal k = scale * Gamma(n - 1 - k), the squared norm of the dense
    matrix's column k below row k + 1."""
    # every normal first, then the gammas block by block; each block's
    # eigenvalues overwrite its spent diagonal
    d = rng.normal(0.0, np.sqrt(scale), size=(count, n))
    shapes = np.arange(n - 1, 0, -1.0)
    return _tridiagonal_eigvalsh(
        lambda s, e: (d[s:e], _squared_entries(rng, shapes, e - s, scale)), d)


def _laguerre_draw(rng: np.random.Generator, n: int, shape: float, count: int,
                   scale: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(count, n) ascending eigenvalues of the beta = 2 Laguerre ensemble,
    density proportional to Delta(a)^2 prod a_i^(shape - n) e^{-a_i / scale}
    on a > 0, for real shape > n - 1: those of B B^T for B lower bidiagonal
    (Dumitriu-Edelman), with squared diagonal a_i^2 = scale * Gamma(shape - i)
    and squared subdiagonal c_i^2 = scale * Gamma(n - 1 - i).  B B^T is
    tridiagonal: diagonal a_i^2 + c_{i-1}^2, squared off-diagonal a_i^2 c_i^2.
    An eigenvalue within the closed forms' rounding error of 0 can come out
    negative, so the result is clipped to a >= 0.  It is written into out,
    a (count, n) array or view, when one is given."""
    shapes = np.concatenate([shape - np.arange(n), n - 1.0 - np.arange(n - 1)])

    def block(s, e):
        g = _squared_entries(rng, shapes, e - s, scale)
        a2, c2 = g[:, :n], g[:, n:]
        off2 = a2[:, :-1] * c2
        a2[:, 1:] += c2  # now the diagonal, in place once off2 has read a_i^2
        return a2, off2

    lam = _tridiagonal_eigvalsh(block, np.empty((count, n)) if out is None else out)
    return np.maximum(lam, 0.0, out=lam)


# ---------------------------------------------------------------------------
# entrance laws
# ---------------------------------------------------------------------------


def _delta(z) -> np.ndarray:
    """Vandermonde product prod_{i<j} (z_j - z_i) over the last axis."""
    n = z.shape[-1]
    V = np.ones(z.shape[:-1])
    for i in range(n):
        for j in range(i + 1, n):
            V = V * (z[..., j] - z[..., i])
    return V


def _time(t) -> float:
    """t as a float, else a ValueError naming it unless positive and finite."""
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"the entrance-law time t must be positive and finite, got {t!r}")
    return t


@dataclass(eq=False)
class EntranceLawSpec:
    """Entrance law of n particles of `spec` from the origin: a density over
    W^n at time t, and for every law but bm_drift a sampler.

    `log_norm(t)` is the log of the unnormalized weight's integral over W^n,
    in closed form (Mehta's and Selberg's integrals, see entrance_law).
    `draw(rng, t, size)` returns size ascending draws from the beta = 2
    matrix models above, exact in law: gue is the GUE spectrum at scale t,
    besq:d the Laguerre ensemble of shape n + d/2 - 1 at scale 2t, and the
    half-line laws the square roots of the BESQ(3) and BESQ(1) laws.
    """

    family: str  # the law's id
    n: int
    spec: DiffusionSpec  # the one-particle motion the law enters
    unnormalized: Callable  # (t, y[..., n]) -> weight
    log_norm: Callable  # t -> log of unnormalized's integral over W^n
    window: Callable  # t -> (lo, hi) holding the law's mass
    draw: Optional[Callable] = None  # (rng, t, size) -> (size, n) ascending draws

    def density(self, t: float, y):
        """The law's density at y (..., n); a time t that is not positive
        and finite, or another coordinate count, raises ValueError."""
        t = _time(t)
        y = _coordinates(self.n, y, f"the {self.family!r} entrance law of {self.n} particles")
        return self.unnormalized(t, y) * math.exp(-self.log_norm(t))

    def sample(self, rng: np.random.Generator, t: float, size: int) -> np.ndarray:
        """(size, n) draws of the law at time t, ascending along each row; a
        time t that is not positive and finite, or a size that is not a
        non-negative integer, raises ValueError."""
        t = _time(t)
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 0:
            raise ValueError(f"the sample size must be a non-negative integer, got {size!r}")
        if self.draw is None:
            raise CatalogError(f"entrance law {self.family!r} has no sampler")
        return self.draw(rng, t, int(size))


def _gaussian_log_norm(n: int, log_const: float) -> Callable:
    """t -> (n/2) log 2 pi + (n^2/2) log t + log_const, the log W^n mass of a
    Gaussian law's weight: Mehta's integral for gue, Andreief's for bm_drift."""
    return lambda t: 0.5 * n * math.log(2.0 * math.pi) + 0.5 * n * n * math.log(t) + log_const


def _gaussian_window(n: int) -> Callable:
    def window(t):
        w = math.sqrt(t) * (2.0 * math.sqrt(n) + 6.5)
        return -w, w

    return window


ENTRANCE_LAW_IDS = ("gue", "besq:d", "halfline_nn", "halfline_n1n", "bm_drift")

#: the half-line laws are the images under y = sqrt(a) of squared-Bessel
#: laws: dimension 3 for BM absorbed at 0 (h = prod y Delta(y^2)), dimension 1
#: for BM reflected at 0 (h = Delta(y^2))
_HALFLINE_LAWS = {
    "halfline_nn": (3.0, "bm_halfline:abs"),
    "halfline_n1n": (1.0, "bm_halfline:refl"),
}


def entrance_law(family: str, n: int, extra=None) -> EntranceLawSpec:
    """Entrance law of n particles from the origin, by id:

        gue            n Brownian motions (bm)
        besq:d         squared Bessel, d > 0 (besq:d)
        halfline_nn    BM absorbed at 0 (bm_halfline:abs)
        halfline_n1n   BM reflected at 0 (bm_halfline:refl)
        bm_drift       BM with the n increasing drifts in `extra` (bm)

    A malformed id, a bad n or a misplaced drift vector raises CatalogError.
    """
    name, *fields = family.split(":")
    if name not in {f.split(":")[0] for f in ENTRANCE_LAW_IDS}:
        raise CatalogError(
            f"unknown entrance law {family!r}: expected one of {', '.join(ENTRANCE_LAW_IDS)}"
        )
    try:
        params = [float(v) for v in fields]
    except ValueError:
        params = None
    if params is None or len(params) != (name == "besq") or not all(
        math.isfinite(v) and v > 0 for v in params
    ):
        form = "besq:d with d > 0" if name == "besq" else name
        raise CatalogError(f"malformed entrance-law id {family!r}: expected {form}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise CatalogError(f"entrance law {family!r}: n must be a positive integer, got {n!r}")
    if name != "bm_drift" and extra is not None:
        raise CatalogError(f"entrance law {family!r} takes no drift vector")
    # log(prod_{j=1..n} j! / n!): Mehta's and Selberg's integrals over R^n
    # carry prod j!, and W^n holds 1/n! of their symmetric integrands
    log_j_factorials = sum(math.lgamma(j + 2.0) for j in range(n)) - math.lgamma(n + 1.0)
    if name == "gue":
        def w(t, y):
            y = np.asarray(y, float)
            return _delta(y) ** 2 * np.exp(-np.sum(y * y, axis=-1) / (2.0 * t))

        # Mehta: (2 pi)^(n/2) t^(n^2/2) prod_{j=1..n} j! over R^n
        return EntranceLawSpec(family, n, make_spec("bm"), w,
                               _gaussian_log_norm(n, log_j_factorials), _gaussian_window(n),
                               lambda rng, t, size: _gue_draw(rng, n, size, t))
    if name == "bm_drift":
        mus = np.asarray(extra if extra is not None else [], float)
        if mus.shape != (n,) or not (np.all(np.isfinite(mus)) and np.all(np.diff(mus) > 0)):
            raise CatalogError(
                f"entrance law 'bm_drift' needs {n} increasing finite drifts, got {extra!r}"
            )

        def w(t, y):
            y = np.atleast_2d(np.asarray(y, float))
            return det([[np.exp(-((y[..., i] - t * mu) ** 2) / (2.0 * t)) for mu in mus]
                        for i in range(n)]) * _delta(y)

        # Andreief: the W^n integral is det(int y^k g_t(y - t mu_j) dy), whose
        # rows are monic polynomials in t mu_j times sqrt(2 pi t), so it is
        # (2 pi t)^(n/2) Delta(t mu) = (2 pi)^(n/2) t^(n^2/2) Delta(mu).
        # The density is not V(y) prod g_t(y_i), so no matrix model draws it
        return EntranceLawSpec(family, n, make_spec("bm"), w,
                               _gaussian_log_norm(n, math.log(float(_delta(mus)))),
                               _gaussian_window(n))
    # V(a) prod a^nu e^{-a / 2t} in a = y (besq) or a = y^2 (half line): the
    # Laguerre ensemble of shape n + nu at scale 2t
    root = name in _HALFLINE_LAWS
    d, spec_id = _HALFLINE_LAWS[name] if root else (params[0], family)
    nu = d / 2.0 - 1.0
    power = 2.0 * nu + 1.0 if root else nu  # da = 2 y dy
    to_a = (lambda y: y * y) if root else (lambda y: y)

    def w(t, y):
        y = np.asarray(y, float)
        return (
            _delta(to_a(y)) ** 2
            * np.prod(np.maximum(y, 1e-300) ** power, axis=-1)
            * np.exp(-np.sum(to_a(y), axis=-1) / (2.0 * t))
        )

    # Selberg: (2t)^(n(n + nu)) prod_{j<n} (j+1)! G(j + nu + 1) over R_+^n in a,
    # and dy = da / 2 sqrt(a) per particle on the half line
    log_const = (log_j_factorials + sum(math.lgamma(j + nu + 1.0) for j in range(n))
                 - (n * math.log(2.0) if root else 0.0))
    log_norm = lambda t: n * (n + nu) * math.log(2.0 * t) + log_const

    def draw(rng, t, size):
        a = _laguerre_draw(rng, n, n + nu, size, 2.0 * t)
        return np.sqrt(a, out=a) if root else a

    window = _gaussian_window(n) if root else (lambda t: (0.0, 40.0 * t * (1.0 + n)))
    return EntranceLawSpec(family, n, make_spec(spec_id), w, log_norm, window, draw)


def entrance_consistency_residual(
    elaw: EntranceLawSpec,
    kern: TransitionKernel,
    h: Eigenfunction,
    s: float,
    t: float,
    probes,
    n_nodes: int = 48,
) -> float:
    """max over probes of |mu_s P_t^h (y) - mu_{s+t}(y)| (both normalized)."""
    probes = np.atleast_2d(np.asarray(probes, float))
    pts, wts = chamber_quad(elaw.spec, elaw.n, *elaw.window(s), n_nodes)
    mu_s = wts * elaw.density(s, pts)
    worst = 0.0
    for y in probes:
        vals = np.empty(pts.shape[0])
        for i, xrow in enumerate(pts):
            vals[i] = float(h_transform_density(kern, h, t, xrow, y))
        lhs = float(np.dot(mu_s, vals))
        rhs = elaw.density(s + t, y[None, :]).item()
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# Taylor-expansion limit densities (biorthogonal / polynomial ensembles)
# ---------------------------------------------------------------------------


def polynomial_ensemble_limit(kern: TransitionKernel, h: Eigenfunction, x: float, n: int, t: float):
    """Degenerate-start density det(h_i(y_j)) det(d^{i-1}/dx^{i-1} p_t(x,y_j)),
    normalized by chamber quadrature; returns a density callable on W^n."""

    def raw(y):
        y = np.atleast_2d(np.asarray(y, float))
        H = [np.asarray(h.components[i](y), float) for i in range(n)]
        D = [kern.density(t, x, y)] + [kern.dx_derivative(i, t, x, y) for i in range(1, n)]
        return _row_det(H) * _row_det(D)

    pts, wts = chamber_quad(kern.spec, n, *kern.window(t, x), 96, pad=(0.4, 0.9))
    Z = float(np.dot(wts, raw(pts)))
    if not Z > 0:
        raise ArithmeticError("degenerate-start density failed to normalize")

    def density(y):
        return raw(y) / Z

    return density
