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
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .diffusion1d import (
    CatalogError,
    DiffusionSpec,
    TransitionKernel,
    spectral_basis,
)
from .diffusion1d.catalog import FAMILIES, _power, gaussian_moments, quad_coords
from .quadrature import (
    chebyshev_antiderivative,
    fd_derivative,
    gl_nodes,
    ordered_nodes,
)


def as_weyl(x, interval=(-np.inf, np.inf)) -> np.ndarray:
    """Validate a weakly increasing vector of strictly interior points."""
    x = np.asarray(x, float)
    l, r = interval
    if x.ndim != 1 or np.any(np.diff(x) < 0):
        raise ValueError("coordinates must form a weakly increasing vector")
    if np.any(x <= l) or np.any(x >= r):
        raise ValueError("coordinates must be strictly interior")
    return x


def det_of_components(components: Sequence[Callable], x: np.ndarray) -> np.ndarray:
    """det(f_i(x_j)) batched over leading axes of x (..., n)."""
    x = np.asarray(x, float)
    n = x.shape[-1]
    rows = [np.asarray(components[i](x), float) for i in range(n)]
    M = np.stack(rows, axis=-2)
    return np.linalg.det(M)


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
        raise ValueError("dimension mismatch")
    M = np.stack(
        [np.stack([kern.density(t, x[..., i], y[..., j]) for j in range(n)], axis=-1)
         for i in range(n)],
        axis=-2,
    )
    return np.linalg.det(M)


def h_transform_density(kern: TransitionKernel, h: Eigenfunction, t: float, x, y):
    """e^{-rate t} h(y)/h(x) det(p_t(x_i,y_j)); an honest Markov density."""
    x = np.asarray(x, float)
    hx = float(h(x))
    if not hx > 0.0:
        raise ValueError("h must be strictly positive at the starting point")
    return math.exp(-h.rate * t) * h(y) / hx * km_density(kern, t, x, y)


def semigroup_entries(kern: TransitionKernel, h: Eigenfunction, t: float, x, n_quad=240):
    """Matrix g_ij = int p_t(x_i, y) h_j(y) dy of one-particle actions.

    Half-line kernels are integrated in u = sqrt(y) and geometric Brownian
    motion in u = log(y); both substitutions remove endpoint kinks so the
    Gauss-Legendre rule converges spectrally.
    """
    x = np.asarray(x, float)
    n = x.shape[-1]
    lo, hi = kern.window(t, x)
    coords = quad_coords(kern.spec)
    if coords == "log":
        # log coordinates; widen multiplicatively for the polynomial tails
        ulo, uhi = math.log(lo), math.log(hi)
        span = uhi - ulo
        us, ws = gl_nodes(ulo - 0.5 * span, uhi + 0.9 * span, n_quad)
        ys = np.exp(us)
        jac = ys
    else:
        # polynomial components amplify the density tail; widen the window
        span = hi - lo
        lo, hi = lo - 0.5 * span, hi + 0.9 * span
        l, r = kern.spec.interval
        lo = max(lo, l) if np.isfinite(l) else lo
        hi = min(hi, r) if np.isfinite(r) else hi
        if coords == "sqrt" and lo <= 1e-12:
            us, ws = gl_nodes(0.0, math.sqrt(hi), n_quad)
            ys = us * us
            jac = 2.0 * us
        else:
            ys, ws = gl_nodes(lo, hi, n_quad)
            jac = 1.0
    G = np.empty((n, n))
    hy = [np.asarray(h.components[j](ys), float) for j in range(n)]
    for i in range(n):
        py = kern.density(t, x[i], ys) * jac
        for j in range(n):
            G[i, j] = np.dot(ws, py * hy[j])
    return G


def eigen_residual(kern: TransitionKernel, h: Eigenfunction, t: float, probes, n_quad=240):
    """max over probes of |(P_t^n h)(x) - e^{rate t} h(x)| / |h(x)|."""
    probes = np.atleast_2d(np.asarray(probes, float))
    worst = 0.0
    for x in probes:
        lhs = float(np.linalg.det(semigroup_entries(kern, h, t, x, n_quad)))
        hx = float(h(x))
        worst = max(worst, abs(lhs - math.exp(h.rate * t) * hx) / abs(hx))
    return worst


# ---------------------------------------------------------------------------
# eigenfunction catalog
# ---------------------------------------------------------------------------


def vandermonde(n: int, rate: float = 0.0, name="vandermonde") -> Eigenfunction:
    return Eigenfunction(n=n, components=[_power(j) for j in range(n)], rate=rate, name=name)


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


def drifted_exponential_eigenfunction(spec: DiffusionSpec, drifts) -> Eigenfunction:
    """det(e^{mu_i x_j}) for Brownian motions with drift; rate from moment
    generating functions of the one-particle motion."""
    # Brownian families: Gaussian kernels whose mean is x + mu0 t
    gauss = gaussian_moments(spec)
    if gauss is None or gauss[2](1.0) != 1.0:
        raise CatalogError("exponential eigenfunctions are for Brownian families")
    mu0 = float(gauss[0](1.0, 0.0))
    drifts = np.asarray(drifts, float)
    comps = [lambda x, m=m: np.exp(m * np.asarray(x, float)) for m in drifts]
    rate = float(np.sum(drifts * mu0 + 0.5 * drifts**2))
    return Eigenfunction(n=len(drifts), components=comps, rate=rate, name="exp-det")


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


def spectral_km(spec: DiffusionSpec, n: int, t: float, x, y, tol: float = 1e-12):
    """Karlin-McGregor density via the eigen-expansion over ordered index
    tuples: sum_k e^{-|lambda_k| t} phi_k(x) phi_k(y) prod m(y_i)."""
    basis = spectral_basis(spec)
    K = basis.n_terms(t, tol)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    phis_x = [basis.phi(k, x) for k in range(K)]
    phis_y = [basis.phi(k, y) for k in range(K)]
    acc = 0.0
    for tup in itertools.combinations(range(K), n):
        lam = sum(basis.eigenvalue(k) for k in tup)
        px = np.linalg.det(np.stack([phis_x[k] for k in tup], axis=-2)[..., :, :]) if n > 1 else phis_x[tup[0]]
        py = np.linalg.det(np.stack([phis_y[k] for k in tup], axis=-2)[..., :, :]) if n > 1 else phis_y[tup[0]]
        acc = acc + math.exp(-lam * t) * px * py
    return acc * np.prod(basis.m(y), axis=-1)


# ---------------------------------------------------------------------------
# eigenfunctions via iterated interlacing kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One interlacing step: integrate current components against `weight`
    from `base`, growing the particle count by one when `grow` (a leading
    constant column is prepended); `mult` is an optional per-coordinate
    factor (the level's one-dimensional h-transform)."""

    weight: Callable
    grow: bool = True
    base: float = 0.0
    mult: Optional[Callable] = None
    hi: float = 30.0
    sqrt_map: bool = False


def build_eigenfunction_recursive(steps: Sequence[ChainStep], rate: float = 0.0,
                                  name: str = "chain") -> Eigenfunction:
    """Iterate interlacing integral kernels over determinant components.

    Starting from the single component 1, each step maps components g_i to
    G_i(x) = int_base^x weight(z) g_i(z) dz (numerically, by Chebyshev
    antiderivatives); growing steps prepend the constant component.
    """
    comps: list = [lambda x: np.ones_like(np.asarray(x, float))]
    for st in steps:
        new = []
        for g in comps:
            integrand = lambda z, gg=g: np.asarray(st.weight(z), float) * np.asarray(gg(z), float)
            G = chebyshev_antiderivative(
                integrand, st.base, st.hi, deg=160, sqrt_map=st.sqrt_map
            )
            new.append(G)
        if st.grow:
            new = [lambda x: np.ones_like(np.asarray(x, float))] + new
        if st.mult is not None:
            new = [lambda x, f=f: np.asarray(st.mult(x), float) * np.asarray(f(x), float) for f in new]
        comps = new
    return Eigenfunction(n=len(comps), components=comps, rate=rate, name=name)


def bm_pattern_chain(n: int, hi: float = 30.0) -> Eigenfunction:
    """Brownian chain: unit weights; reproduces span{1, x, ..., x^{n-1}}."""
    one = lambda x: np.ones_like(np.asarray(x, float))
    steps = [ChainStep(weight=one, grow=True, base=0.0, hi=hi) for _ in range(n - 1)]
    return build_eigenfunction_recursive(steps, rate=0.0, name="bm-chain")


def halfline_pattern_chain(n_steps: int, hi: float = 30.0) -> Eigenfunction:
    """Half-line chain alternating flat/grow steps with unit weights,
    starting from one reflected particle."""
    one = lambda x: np.ones_like(np.asarray(x, float))
    steps = [
        ChainStep(weight=one, grow=(k % 2 == 1), base=0.0, hi=hi)
        for k in range(n_steps)
    ]
    return build_eigenfunction_recursive(steps, rate=0.0, name="halfline-chain")


def besq_pattern_chain(d: float, n_steps: int, hi: float = 40.0) -> Eigenfunction:
    """Squared-Bessel chain with weights alternating x^nu (flat steps, the
    scale density of the conjugate) and x^(-nu-1) (growing steps)."""
    nu = d / 2.0 - 1.0
    steps = []
    for k in range(n_steps):
        if k % 2 == 0:
            steps.append(
                ChainStep(weight=_power(nu), grow=False, base=0.0, hi=hi, sqrt_map=True)
            )
        else:
            steps.append(
                ChainStep(weight=_power(-nu - 1.0), grow=True, base=0.0, hi=hi, sqrt_map=True)
            )
    return build_eigenfunction_recursive(steps, rate=0.0, name="besq-chain")


def wronskian(components: Sequence[Callable], x: float) -> float:
    """det(d^{i-1} f_j / dx^{i-1}) at a point, by finite differences."""
    n = len(components)
    M = np.empty((n, n))
    for j, f in enumerate(components):
        M[0, j] = float(f(x))
        for i in range(1, n):
            M[i, j] = float(fd_derivative(f, x, order=i))
    return float(np.linalg.det(M))


# ---------------------------------------------------------------------------
# entrance laws
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EntranceLawSpec:
    """Entrance law from a degenerate point: density over W^n at time t.

    The normalizing constant is always recomputed by chamber quadrature and
    cached per t.  `sample` draws by rejection from a Gaussian or gamma
    proposal with an explicit envelope bound.
    """

    family: str
    n: int
    unnormalized: Callable  # (t, y[..., n]) -> weight
    support: str  # "real" | "positive"
    proposal_scale: Callable  # t -> scale parameter of the proposal
    envelope_power: float  # V-type polynomial degree used in the bound
    _norms: dict = field(default_factory=dict)

    def log_norm(self, t: float, n_nodes: int = 80) -> float:
        key = (round(float(t), 12), n_nodes)
        if key not in self._norms:
            self._norms[key] = math.log(self._integral(t, n_nodes))
        return self._norms[key]

    def _integral(self, t: float, n_nodes: int) -> float:
        if self.support == "real":
            w = math.sqrt(t) * (2.0 * math.sqrt(self.n) + 6.5)
            pts, wts = ordered_nodes(self.n, -w, w, n_nodes)
            vals = self.unnormalized(t, pts)
            return float(np.dot(wts, vals))
        # positive support: integrate in u = sqrt(y) coordinates
        w = math.sqrt(max(40.0 * t * (1.0 + self.n), 1e-12))
        pts, wts = ordered_nodes(self.n, 0.0, w, n_nodes)
        ys = pts**2
        jac = np.prod(2.0 * pts, axis=-1)
        vals = self.unnormalized(t, ys) * jac
        return float(np.dot(wts, vals))

    def density(self, t: float, y):
        return self.unnormalized(t, y) * math.exp(-self.log_norm(t))

    def sample(self, rng: np.random.Generator, t: float, size: int) -> np.ndarray:
        out = np.empty((size, self.n))
        got = 0
        p = self.envelope_power
        while got < size:
            m = max(4 * (size - got), 256)
            if self.support == "real":
                scale = self.proposal_scale(t)
                z = rng.normal(0.0, math.sqrt(scale), size=(m, self.n))
                z.sort(axis=1)
                ssq = np.sum(z * z, axis=1)
                # envelope: (2 s)^p e^{-delta s} <= bound at s = p/delta
                delta = 0.5 / t - 0.5 / scale
                logbound = p * (math.log(2.0 * p / delta)) - p
                logratio = p * np.log(np.maximum(2.0 * ssq, 1e-300)) - delta * ssq - logbound
            else:
                shape, scale0 = self.proposal_scale(t)
                z = rng.gamma(shape, scale0, size=(m, self.n))
                z.sort(axis=1)
                ssum = np.sum(z, axis=1)
                delta = 0.5 / t - 1.0 / scale0
                logbound = p * (math.log(p / delta)) - p
                logratio = p * np.log(np.maximum(ssum, 1e-300)) - delta * ssum - logbound
            u = rng.random(m)
            keep = np.log(np.maximum(u, 1e-300)) < logratio + self._log_shape_ratio(t, z)
            acc = z[keep]
            take = min(size - got, acc.shape[0])
            out[got : got + take] = acc[:take]
            got += take
        return out

    def _log_shape_ratio(self, t, z):
        """log of (target V-part) / (envelope polynomial), always <= 0."""
        p = self.envelope_power
        if self.support == "real":
            V2 = _squared_vandermonde_like(self.family, z)
            ssq = np.sum(z * z, axis=1)
            return np.log(np.maximum(V2, 1e-300)) - p * np.log(np.maximum(2.0 * ssq, 1e-300))
        V2 = _squared_vandermonde_like(self.family, z)
        ssum = np.sum(z, axis=1)
        return np.log(np.maximum(V2, 1e-300)) - p * np.log(np.maximum(ssum, 1e-300))


def _squared_vandermonde_like(family: str, z: np.ndarray) -> np.ndarray:
    n = z.shape[-1]
    V = np.ones(z.shape[:-1])
    for i in range(n):
        for j in range(i + 1, n):
            V = V * (z[..., j] - z[..., i])
    if family == "gue" or family.startswith("besq"):
        return V * V
    if family == "halfline_nn":
        W = np.ones(z.shape[:-1])
        for i in range(n):
            for j in range(i + 1, n):
                W = W * (z[..., j] ** 2 - z[..., i] ** 2)
        return (W * np.prod(z, axis=-1)) ** 2
    if family == "halfline_n1n":
        W = np.ones(z.shape[:-1])
        for i in range(n):
            for j in range(i + 1, n):
                W = W * (z[..., j] ** 2 - z[..., i] ** 2)
        return W * W
    raise CatalogError(f"no V-factor for entrance family {family!r}")


def entrance_law(family: str, n: int, extra=None) -> EntranceLawSpec:
    """Entrance laws from the origin for the supported families.

    family: 'gue' | 'besq:d' | 'halfline_nn' | 'halfline_n1n' | 'bm_drift'
    (the latter takes the drift vector in `extra`).
    """
    if family == "gue":

        def w(t, y):
            y = np.asarray(y, float)
            return _squared_vandermonde_like("gue", y) * np.exp(
                -np.sum(y * y, axis=-1) / (2.0 * t)
            )

        return EntranceLawSpec(
            family="gue",
            n=n,
            unnormalized=w,
            support="real",
            proposal_scale=lambda t: 1.6 * t,
            envelope_power=0.5 * n * (n - 1),
        )
    if family.startswith("besq"):
        d = float(family.split(":")[1])
        nu = d / 2.0 - 1.0

        def w(t, y):
            y = np.asarray(y, float)
            return (
                _squared_vandermonde_like("gue", y)
                * np.prod(np.maximum(y, 1e-300) ** nu, axis=-1)
                * np.exp(-np.sum(y, axis=-1) / (2.0 * t))
            )

        return EntranceLawSpec(
            family=family,
            n=n,
            unnormalized=w,
            support="positive",
            proposal_scale=lambda t: (max(nu + 1.0, 0.5), 3.2 * t),
            envelope_power=float(n * (n - 1)),
        )
    if family in ("halfline_nn", "halfline_n1n"):

        def w(t, y, fam=family):
            y = np.asarray(y, float)
            return _squared_vandermonde_like(fam, y) * np.exp(
                -np.sum(y * y, axis=-1) / (2.0 * t)
            )

        power = n * (n - 1) + (n if family == "halfline_nn" else 0)
        return EntranceLawSpec(
            family=family,
            n=n,
            unnormalized=w,
            support="real",  # half-line handled by symmetrised proposal below
            proposal_scale=lambda t: 1.6 * t,
            envelope_power=float(power),
        )
    if family == "bm_drift":
        mus = np.asarray(extra, float)

        def w(t, y):
            y = np.atleast_2d(np.asarray(y, float))
            M = np.exp(
                -((y[..., :, None] - t * mus[None, :]) ** 2) / (2.0 * t)
            )
            dets = np.linalg.det(M)
            V = np.ones(y.shape[:-1])
            for i in range(n):
                for j in range(i + 1, n):
                    V = V * (y[..., j] - y[..., i])
            return dets * V

        return EntranceLawSpec(
            family="bm_drift",
            n=n,
            unnormalized=w,
            support="real",
            proposal_scale=lambda t: 1.6 * t,
            envelope_power=0.5 * n * (n - 1),
        )
    raise CatalogError(f"unknown entrance-law family {family!r}")


def halfline_entrance_sample(elaw: EntranceLawSpec, rng, t, size):
    """Rejection sampler on the positive half line for the |.|-symmetric
    half-line families (propose folded Gaussians)."""
    out = np.empty((size, elaw.n))
    got = 0
    p = elaw.envelope_power
    scale = 1.6 * t
    delta = 0.5 / t - 0.5 / scale
    logbound = p * math.log(2.0 * p / delta) - p
    while got < size:
        m = max(4 * (size - got), 256)
        z = np.abs(rng.normal(0.0, math.sqrt(scale), size=(m, elaw.n)))
        z.sort(axis=1)
        ssq = np.sum(z * z, axis=1)
        V2 = _squared_vandermonde_like(elaw.family, z)
        logratio = (
            np.log(np.maximum(V2, 1e-300)) - delta * ssq - logbound
        )
        u = rng.random(m)
        keep = np.log(np.maximum(u, 1e-300)) < logratio
        acc = z[keep]
        take = min(size - got, acc.shape[0])
        out[got : got + take] = acc[:take]
        got += take
    return out


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
    worst = 0.0
    if elaw.support == "real":
        w = math.sqrt(s) * (2.0 * math.sqrt(elaw.n) + 6.5)
        pts, wts = ordered_nodes(elaw.n, -w, w, n_nodes)
        jac = 1.0
    else:
        w = math.sqrt(40.0 * s * (1.0 + elaw.n))
        upts, wts = ordered_nodes(elaw.n, 0.0, w, n_nodes)
        pts = upts**2
        jac = np.prod(2.0 * upts, axis=-1)
    mu_s = elaw.density(s, pts) * jac
    for y in probes:
        vals = np.empty(pts.shape[0])
        for i, xrow in enumerate(pts):
            vals[i] = float(h_transform_density(kern, h, t, xrow, y))
        lhs = float(np.dot(wts, mu_s * vals))
        rhs = elaw.density(s + t, y[None, :]).item()
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# Taylor-expansion limit densities (biorthogonal / polynomial ensembles)
# ---------------------------------------------------------------------------


def polynomial_ensemble_limit(
    kern: TransitionKernel, h: Eigenfunction, x: float, n: int, t: float, n_nodes: int = 96
):
    """Degenerate-start density det(h_i(y_j)) det(d^{i-1}/dx^{i-1} p_t(x,y_j)),
    normalized by chamber quadrature; returns a density callable on W^n."""

    def raw(y):
        y = np.atleast_2d(np.asarray(y, float))
        H = np.stack([np.asarray(h.components[i](y), float) for i in range(n)], axis=-2)
        rows = []
        for i in range(n):
            if i == 0:
                rows.append(kern.density(t, x, y))
            else:
                rows.append(kern.dx_derivative(i, t, x, y))
        D = np.stack(rows, axis=-2)
        return np.linalg.det(H) * np.linalg.det(D)

    lo, hi = kern.window(t, x)
    span = hi - lo
    lo, hi = lo - 0.4 * span, hi + 0.9 * span
    l, r = kern.spec.interval
    lo = max(lo, l) if np.isfinite(l) else lo
    hi = min(hi, r) if np.isfinite(r) else hi
    if quad_coords(kern.spec) == "sqrt" and lo <= 1e-12:
        upts, wts = ordered_nodes(n, 0.0, math.sqrt(hi), n_nodes)
        pts = upts**2
        jacs = np.prod(2.0 * upts, axis=-1)
        Z = float(np.dot(wts, raw(pts) * jacs))
    else:
        pts, wts = ordered_nodes(n, lo, hi, n_nodes)
        Z = float(np.dot(wts, raw(pts)))
    if not Z > 0:
        raise ArithmeticError("degenerate-start density failed to normalize")

    def density(y):
        return raw(y) / Z

    return density
