"""Karlin-McGregor determinant semigroups and their eigen-structure.

The n-particle killed-on-collision semigroup has Lebesgue transition density
det(p_t(x_i, y_j)) on the ordered chamber W^n.  Determinant-form functions
h(x) = det(h_i(x_j)) are its natural eigenfunctions: by the Andreief
identity the semigroup action reduces to one-dimensional integrals,

    (P_t^n h)(x) = det( int p_t(x_i, y) h_j(y) dy )_{i,j}.

This module provides the density, Doob h-transforms, the catalog of
closed-form eigenfunctions, spectral expansions and ground states for
discrete-spectrum families, eigenfunctions built by iterating interlacing
integral kernels, entrance laws from degenerate starting points, and the
Taylor-expansion limit densities (biorthogonal/polynomial ensembles).

Every determinant in the package goes through det: sizes 1, 2 and 3 are
cofactor closed forms on entries that broadcast together, larger sizes are
LAPACK's np.linalg.det.

Each entrance law names the one-particle spec it enters and carries its own
squared-Vandermonde factor.  Every state-space integral here (one-particle
actions, entrance-law normalizations, degenerate-start limits) takes its
nodes from diffusion1d.catalog.chamber_quad, which clips to the spec's
interval and integrates in the family's coordinates.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from .diffusion1d import (
    CatalogError,
    DiffusionSpec,
    TransitionKernel,
    spectral_basis,
)
from .diffusion1d.catalog import FAMILIES, _power, chamber_quad, make_spec
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
    return Eigenfunction(n, [_power(j) for j in range(n)], 0.0, "vandermonde")


def eigenfunction_catalog(spec: DiffusionSpec, n: int) -> Eigenfunction:
    """Closed-form positive eigenfunction of the n-particle semigroup of spec.

    Rates are stored (never inferred at runtime) and validated against the
    semigroup by eigen_residual in the test-suite.
    """
    rec = FAMILIES.get(spec.family)
    if rec is None or rec.eigen is None:
        raise CatalogError(f"no eigenfunction catalog entry for family {spec.family!r}")
    comps, rate, name = rec.eigen(spec.params, n)
    return Eigenfunction(n=n, components=comps, rate=rate, name=name)


def ground_state(spec: DiffusionSpec, n: int) -> Eigenfunction:
    """det(phi_i(x_j)) over the n lowest eigenfunctions, sign-fixed positive.

    Rate is -(lambda_1 + ... + lambda_n) with the one-particle spectrum in
    ascending order.
    """
    basis = spectral_basis(spec)  # raises CatalogError without discrete spectrum
    rate = -sum(basis.eigenvalue(k) for k in range(n))
    comps = [lambda x, k=k: basis.phi(k, np.asarray(x, float)) for k in range(n)]
    h = Eigenfunction(n=n, components=comps, rate=rate, name="ground-state")
    l, r = spec.interval
    lo = l if np.isfinite(l) else spec.c - 2.0
    hi = r if np.isfinite(r) else spec.c + 2.0
    probe = lo + (hi - lo) * (np.arange(1, n + 1) / (n + 1.0))
    if float(h(probe)) < 0.0:
        first = comps[0]
        comps[0] = lambda x, f=first: -np.asarray(f(x), float)
    return h


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


@dataclass(eq=False)
class EntranceLawSpec:
    """Entrance law of n particles of `spec` from the origin: a density over
    W^n at time t.

    The normalizing constant is computed by quadrature over the law's
    chamber (its window at t, in spec's state space and coordinates) and
    cached per t.  Laws of the form V(a) prod g_t(a_i) in a = y (a = y^2 on
    the half line), with V the squared-Vandermonde factor, are sampled by
    rejection: `propose` draws sorted z from a Gaussian or gamma law q_t,
    accepted with probability (V / P)(z) E(z), where the polynomial P bounds
    V and E = P g_t / (q_t sup(P g_t / q_t)) <= 1.
    """

    family: str  # the law's id
    n: int
    spec: DiffusionSpec  # the one-particle motion the law enters
    unnormalized: Callable  # (t, y[..., n]) -> weight
    window: Callable  # t -> (lo, hi) holding the law's mass
    vandermonde2: Optional[Callable] = None  # z -> V(z)
    propose: Optional[Callable] = None  # (rng, t, m) -> (z, log E(z), log P(z))
    _norms: dict = field(default_factory=dict)

    def chamber(self, t: float, n_nodes: int = 80):
        """Quadrature nodes and weights over the law's chamber at time t."""
        return chamber_quad(self.spec, self.n, *self.window(t), n_nodes)

    def log_norm(self, t: float) -> float:
        key = round(float(t), 12)
        if key not in self._norms:
            pts, wts = self.chamber(t)
            self._norms[key] = math.log(float(np.dot(wts, self.unnormalized(t, pts))))
        return self._norms[key]

    def density(self, t: float, y):
        """The law's density at y (..., n); other coordinate counts raise ValueError."""
        y = _coordinates(self.n, y, f"the {self.family!r} entrance law of {self.n} particles")
        return self.unnormalized(t, y) * math.exp(-self.log_norm(t))

    def sample(self, rng: np.random.Generator, t: float, size: int) -> np.ndarray:
        if self.propose is None:
            raise CatalogError(f"entrance law {self.family!r} has no sampler")
        out = np.empty((size, self.n))
        got = 0
        while got < size:
            m = max(4 * (size - got), 256)
            z, log_e, log_p = self.propose(rng, t, m)
            u = rng.random(m)
            log_v = np.log(np.maximum(self.vandermonde2(z), 1e-300))
            keep = np.log(np.maximum(u, 1e-300)) < log_e + (log_v - log_p)
            acc = z[keep]
            take = min(size - got, acc.shape[0])
            out[got : got + take] = acc[:take]
            got += take
        return out


def _log_peak(p: float, delta: float) -> float:
    """log max_s s^p e^{-delta s} = p log(p / delta) - p (0 when p = 0)."""
    return p * math.log(p / delta) - p if p > 0 else 0.0


def _gaussian_proposal(n: int, p: float) -> Callable:
    """Sorted N(0, 1.6 t) draws, for g_t(y) = e^{-y^2 / 2t} and V = Delta(y)^2
    <= c (2 s)^p, s = sum y^2, p = n(n - 1) / 2.

    2^p c, the largest value of Delta(y)^2 on the unit sphere, is attained at
    the zeros of the Hermite polynomial H_n scaled to unit norm (Stieltjes);
    c = 1 for n = 2.
    """
    log_c = 0.0
    if n > 2:
        x = special.roots_hermite(n)[0]
        log_c = math.log(_delta(x / np.linalg.norm(x)) ** 2) - p * math.log(2.0)

    def propose(rng, t, m):
        scale = 1.6 * t
        z = rng.normal(0.0, math.sqrt(scale), size=(m, n))
        z.sort(axis=1)
        ssq = np.sum(z * z, axis=1)
        delta = 0.5 / t - 0.5 / scale
        log_p = p * np.log(np.maximum(2.0 * ssq, 1e-300))
        # (2 s)^p e^{-delta s} peaks where r = 2 s maximizes r^p e^{-delta r / 2}
        return z, log_p - delta * ssq - _log_peak(p, delta / 2.0), log_p + log_c

    return propose


def _gamma_proposal(n: int, shape: float, root: bool) -> Callable:
    """Sorted a ~ Gamma(shape, 3.2 t), for g_t(a) = a^(shape - 1) e^{-a / 2t}
    and V = Delta(a)^2 <= c s^p, s = sum a, p = n(n - 1); the draws are
    y = sqrt(a) when `root` (for shape 1/2, the folded Gaussian |N(0, 1.6 t)|).

    c, the largest value of Delta(a)^2 on the simplex a >= 0, sum a = 1, is
    attained at a_1 = 0 and a_2..a_n proportional to the zeros of the
    Laguerre polynomial L_{n-1}^{(1)} (Stieltjes); c = 1 for n = 2.
    """
    p = float(n * (n - 1))
    log_c = 0.0
    if n > 2:
        x = special.roots_genlaguerre(n - 1, 1.0)[0]
        log_c = math.log(_delta(np.concatenate([[0.0], x / x.sum()])) ** 2)

    def propose(rng, t, m):
        scale = 3.2 * t
        a = rng.gamma(shape, scale, size=(m, n))
        a.sort(axis=1)
        s = np.sum(a, axis=1)
        delta = 0.5 / t - 1.0 / scale
        log_p = p * np.log(np.maximum(s, 1e-300))
        return (np.sqrt(a) if root else a), log_p - delta * s - _log_peak(p, delta), log_p + log_c

    return propose


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
    if name == "gue":
        v2 = lambda y: _delta(y) ** 2

        def w(t, y):
            y = np.asarray(y, float)
            return v2(y) * np.exp(-np.sum(y * y, axis=-1) / (2.0 * t))

        return EntranceLawSpec(family, n, make_spec("bm"), w, _gaussian_window(n), v2,
                               _gaussian_proposal(n, 0.5 * n * (n - 1)))
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

        # the density is not V(y) prod g_t(y_i), so it has no rejection sampler
        return EntranceLawSpec(family, n, make_spec("bm"), w, _gaussian_window(n))
    # V(a) prod a^nu e^{-a / 2t} in a = y (besq) or a = y^2 (half line)
    root = name in _HALFLINE_LAWS
    d, spec_id = _HALFLINE_LAWS[name] if root else (params[0], family)
    nu = d / 2.0 - 1.0
    power = 2.0 * nu + 1.0 if root else nu  # da = 2 y dy
    to_a = (lambda y: y * y) if root else (lambda y: y)
    v2 = lambda y: _delta(to_a(y)) ** 2

    def w(t, y):
        y = np.asarray(y, float)
        return (
            v2(y)
            * np.prod(np.maximum(y, 1e-300) ** power, axis=-1)
            * np.exp(-np.sum(to_a(y), axis=-1) / (2.0 * t))
        )

    window = _gaussian_window(n) if root else (lambda t: (0.0, 40.0 * t * (1.0 + n)))
    return EntranceLawSpec(family, n, make_spec(spec_id), w, window, v2,
                           _gamma_proposal(n, nu + 1.0, root))


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
    pts, wts = elaw.chamber(s, n_nodes)
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
