"""Kernel catalog for the supported diffusion families.

Families and string ids (parameters after the colon):

    bm                       standard Brownian motion, a = 1/2
    bm_drift:mu              Brownian motion with drift
    ou                       Ornstein-Uhlenbeck, a = 1/2, b = -x
    ou_out                   outward OU (b = +x); arises as the dual of ou
    besq:d[:abs]             squared Bessel, a = 2x, b = d; ':abs' kills at 0
    lag:alpha                Laguerre a = 2x, b = alpha - 2x
    lag_dual:alpha           dual of lag (exit at 0)
    jac:beta,gamma           Jacobi a = 2x(1-x), b = 2(beta-(beta+gamma)x), beta, gamma > 0
    jac_dual:beta,gamma      dual of jac (exit at both ends)
    gbm:alpha                geometric BM a = x^2/2, b = alpha x
    bm_halfline:refl|abs     BM on [0, inf) reflected/absorbed at 0
    bm_interval:b0,b1        BM on [0, pi], b in {refl, abs} per endpoint

Closed forms: signed sums of Gaussian images of the start (_image_kernel:
one image for bm, bm_drift, ou and ou_out; mirror and 2 pi shifts for the
half line and all four interval kernels), lognormal, ncx2-type
squared-Bessel/Laguerre forms, whose Bessel factor e^{-z} I_nu(z) is
elementary at orders 1/2 and 3/2 and scipy's ive (two Hankel terms beyond
its range) at every other order, one evaluator per kernel (_ive_of_order).
Spectral series: the jac kernel (_jacobi_kernel, which alone states
phi_k' and m'); the sine/cosine bases of the interval, Hermite for ou and
generalized Laguerre for lag serve kmgroup's spectral_km series, which
tests hold the closed forms against, and A8's spectra.  lag and lag_dual
are time-changed squared Bessel kernels (BESQ(alpha), and BESQ(2 - alpha)
killed at 0); the dual of jac is an
h-transform of jac(beta+1, gamma+1).  Every window(t, x) misses at most
1e-12 of the kernel's mass.  CDFs and atoms without a closed form (killed
besq and so lag_dual's CDF, jac, jac_dual, absorbing interval ends) are
density_integral quadratures of the density, by _quadrature_cdf and
_harmonic_atom, and broadcast x against y like the closed forms.

Derivatives: the Gaussian-image kernels have Hermite closed forms of
every order, and lag and lag_dual take besq's through the time change.
besq, gbm, jac and jac_dual state closed first derivatives, from which
_from_first_derivatives, the one finite-difference rule, makes the rest.

Ids are exact: parameters are written as the shortest decimal that reads
back to the same float, so make_spec(spec.name) rebuilds spec.params bit for
bit, and a malformed id (a non-finite parameter included) raises
CatalogError naming the expected form.

FAMILIES holds one record per family, and every other module asks the
record, never the family name: its id grammar, spec builder, dual, kernel,
spectral basis, closed-form eigenfunction, edge ladder, Gaussian moments,
exact step and its draws, and quadrature coordinates.  Adding a family
means adding one record.  make_spec is the only source of a spec, and
_record(spec) the one lookup of its record, which raises CatalogError
naming a spec make_spec did not build.  A spec builder states a, b, a'
and one scale formula, the closed form of log s'; core.ScaleSpeed derives
log m, s' and m from it, conjugate(spec) is the record's dual member with
the swapped pair, and a spectral basis takes m from the spec.  The
duality, conjugate-density and symmetry residuals sit beside kernel().
Only edge_ladder reads the ladder; it also rejects an edge system whose
ends are not natural or entrance.

The quadrature coordinates serve every state-space integral, through
_in_coords: density_integral (one-dimensional integrals of a kernel's
density, at one node count, _DENSITY_NODES), chamber_quad (ordered
chambers) and fiber_quad (batched interlacing-fiber boxes, one row of
nodes per box).  All clip to the spec's interval and return states with
the Jacobian folded into the weights.  The reflected-system stepper
pushes exactly stepped 'sqrt' members in the same coordinates.

Only besq and lag have exact steps: besq draws dt chi'^2_d(x / dt), and lag
the time-changed, rescaled besq draw of its kernel.  reflectsde steps
every other family, lag_dual and killed besq included, by an Euler step.
Constant coefficients are built by _Const, whose value
constant_coefficients reads: the Brownian families have a = 1/2 and a
constant b, so their Euler step is x + b dt + sqrt(dt) xi with no
coefficient evaluated per step.

Every special function is read from sc, a _LazySpecial whose attribute
reads import scipy.special on first use: importing the catalog, or
stepping a system that evaluates no special function, loads no scipy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ..quadrature import fd_derivative, gl_nodes, ordered_nodes, stacked_box_nodes
from .core import (
    Boundary,
    CatalogError,
    DegenerateInputError,
    DiffusionSpec,
    DUAL_BOUNDARY,
    ScaleSpeed,
    TransitionKernel,
    TruncationError,
)


class _LazySpecial:
    """scipy.special, imported on the first attribute read (about 0.16 s),
    so a program that evaluates no special function never imports scipy.
    Each function read is kept as an attribute, so later reads are plain
    attribute lookups."""

    def __getattr__(self, name):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


sc = _LazySpecial()

_SQRT2PI = math.sqrt(2.0 * math.pi)
_WINDOW_SD = 8.0  # quadrature truncation, in standard deviations


def _npdf(z):
    return np.exp(-0.5 * z * z) / _SQRT2PI


def _gpdf(u, var):
    return np.exp(-0.5 * u * u / var) / np.sqrt(2.0 * math.pi * var)


def _Phi(z):
    return sc.ndtr(z)


def _zero_atom(t, x):
    return np.zeros_like(np.asarray(x, float))


def _hermite_e(n: int, z):
    """Probabilists' Hermite He_n by recurrence, vectorised in z."""
    z = np.asarray(z, float)
    if n == 0:
        return np.ones_like(z)
    hkm1, hk = np.ones_like(z), z.copy()
    for k in range(1, n):
        hkm1, hk = hk, z * hk - k * hkm1
    return hk


# ---------------------------------------------------------------------------
# spec construction
# ---------------------------------------------------------------------------


class _Const:
    """The coefficient x -> v everywhere; constant_coefficients reads v."""

    def __init__(self, v):
        self.value = v

    def __call__(self, x):
        return np.full_like(np.asarray(x, float), self.value)


@functools.lru_cache(maxsize=256)
def make_spec(spec_id: str) -> DiffusionSpec:
    """Build a catalog spec from its string id (e.g. 'besq:3', 'jac:1,1')."""
    fam, *fields = spec_id.split(":")
    rec = FAMILIES.get(fam)
    if rec is None:
        raise CatalogError(f"unknown family id: {spec_id!r}")
    try:
        params = rec.parse(fields)
    except ValueError:
        raise CatalogError(f"malformed id {spec_id!r}: expected {rec.form}") from None
    return rec.build(*params)


def _spec(fam, params, log_s_prime, log_m=None, **fields) -> DiffusionSpec:
    """A family's spec: its coefficients and its scale formula, the closed
    form of log s'(x) = -int_c^x b/a.  ScaleSpeed derives log m from it,
    unless the family states log m too, as jac does: at a finite end where
    s' and a are 0 or infinite, -log s' - log a is nan, and m has a limit."""
    scale = (ScaleSpeed.from_log_s_prime(log_s_prime, fields["a"]) if log_m is None
             else ScaleSpeed(log_s_prime, log_m))
    return DiffusionSpec(name=FAMILIES[fam].fmt(params), family=fam, params=params,
                         scale=scale, **fields)


_MODE_BOUNDARY = {"refl": Boundary.REGULAR_REFLECTING, "abs": Boundary.REGULAR_ABSORBING}


def _brownian_spec(fam, params, interval, bl, br, c):
    """Driftless Brownian motion a = 1/2 on interval, centred at c."""
    return _spec(
        fam,
        params,
        a=_Const(0.5),
        b=_Const(0.0),
        a_prime=_Const(0.0),
        interval=interval,
        behavior_l=bl,
        behavior_r=br,
        c=c,
        log_s_prime=_Const(0.0),
    )


def _bm_drift_spec(mu):
    if mu == 0.0:
        return make_spec("bm")
    return _spec(
        "bm_drift",
        (mu,),
        a=_Const(0.5),
        b=_Const(mu),
        a_prime=_Const(0.0),
        interval=(-np.inf, np.inf),
        behavior_l=Boundary.NATURAL,
        behavior_r=Boundary.NATURAL,
        c=0.0,
        log_s_prime=lambda x: -2.0 * mu * np.asarray(x, float),
    )


def _ou_spec(fam, sgn):
    """OU with drift b = sgn * x: ou (sgn = -1) and its dual ou_out (+1)."""
    return _spec(
        fam,
        (),
        a=_Const(0.5),
        b=lambda x: sgn * np.asarray(x, float),
        a_prime=_Const(0.0),
        interval=(-np.inf, np.inf),
        behavior_l=Boundary.NATURAL,
        behavior_r=Boundary.NATURAL,
        c=0.0,
        log_s_prime=lambda x: -sgn * np.asarray(x, float) ** 2,
    )


def _besq_spec(d, killed):
    if d <= 0.0:
        killed = True
    if killed and d >= 2.0:
        raise CatalogError("besq absorption at 0 requires d < 2")
    if d >= 2.0:
        bl = Boundary.ENTRANCE
    elif d > 0.0:
        bl = Boundary.REGULAR_ABSORBING if killed else Boundary.REGULAR_REFLECTING
    else:
        bl = Boundary.EXIT
    return _spec(
        "besq",
        (d, killed),
        a=lambda x: 2.0 * np.asarray(x, float),
        b=_Const(d),
        a_prime=_Const(2.0),
        interval=(0.0, np.inf),
        behavior_l=bl,
        behavior_r=Boundary.NATURAL,
        c=1.0,
        log_s_prime=lambda x: (-d / 2.0) * np.log(x),
    )


def _laguerre_spec(fam, alpha, dual):
    if alpha <= 0:
        raise CatalogError("lag requires alpha > 0")
    if not dual:
        bl = Boundary.ENTRANCE if alpha >= 2.0 else Boundary.REGULAR_REFLECTING
        b_fun = lambda x: alpha - 2.0 * np.asarray(x, float)
        log_sp = lambda x: (-alpha / 2.0) * np.log(x) + (np.asarray(x, float) - 1.0)
    else:
        bl = Boundary.EXIT if alpha >= 2.0 else Boundary.REGULAR_ABSORBING
        b_fun = lambda x: 2.0 - alpha + 2.0 * np.asarray(x, float)
        log_sp = lambda x: (alpha / 2.0) * np.log(x) - (np.asarray(x, float) - 1.0)
    return _spec(
        fam,
        (alpha,),
        a=lambda x: 2.0 * np.asarray(x, float),
        b=b_fun,
        a_prime=_Const(2.0),
        interval=(0.0, np.inf),
        behavior_l=bl,
        behavior_r=Boundary.NATURAL,
        c=1.0,
        log_s_prime=log_sp,
    )


def _jacobi_spec(fam, beta, gamma, dual):
    if beta <= 0 or gamma <= 0:
        # the jac spectral kernel and the jac_dual h-transform need both
        raise CatalogError(f"{fam} requires beta > 0 and gamma > 0, got {beta:g},{gamma:g}")
    bb, gg = (1.0 - beta, 1.0 - gamma) if dual else (beta, gamma)
    b_fun = lambda x: 2.0 * (bb - (bb + gg) * np.asarray(x, float))
    log_sp = lambda x: -bb * np.log(2.0 * np.asarray(x, float)) - gg * np.log(
        2.0 * (1.0 - np.asarray(x, float))
    )
    # m = 1/(s' a) = 2^(bb+gg-1) x^(bb-1) (1-x)^(gg-1), its limit at each end
    log_m = lambda x: (sc.xlogy(bb - 1.0, np.asarray(x, float))
                       + sc.xlogy(gg - 1.0, 1.0 - np.asarray(x, float)) + (bb + gg - 1.0) * math.log(2.0))

    def _end(par):
        end = Boundary.ENTRANCE if par >= 1.0 else Boundary.REGULAR_REFLECTING
        # the dual has the dual endpoints of the primal classes
        return DUAL_BOUNDARY[end] if dual else end

    return _spec(
        fam,
        (beta, gamma),
        a=lambda x: 2.0 * np.asarray(x, float) * (1.0 - np.asarray(x, float)),
        b=b_fun,
        a_prime=lambda x: 2.0 - 4.0 * np.asarray(x, float),
        interval=(0.0, 1.0),
        behavior_l=_end(beta),
        behavior_r=_end(gamma),
        c=0.5,
        log_s_prime=log_sp,
        log_m=log_m,
    )


def _gbm_spec(alpha):
    return _spec(
        "gbm",
        (alpha,),
        a=lambda x: 0.5 * np.asarray(x, float) ** 2,
        b=lambda x: alpha * np.asarray(x, float),
        a_prime=lambda x: np.asarray(x, float),
        interval=(0.0, np.inf),
        behavior_l=Boundary.NATURAL,
        behavior_r=Boundary.NATURAL,
        c=1.0,
        log_s_prime=lambda x: -2.0 * alpha * np.log(x),
    )


#: ids exercised by the CLI and the verification campaigns
CATALOG_IDS = [
    "bm",
    "bm_drift:0.5",
    "ou",
    "besq:0.5",
    "besq:1",
    "besq:2",
    "besq:2.5",
    "besq:3",
    "lag:2",
    "lag:3",
    "jac:1,1",
    "gbm:1",
    "bm_halfline:refl",
    "bm_halfline:abs",
    "bm_interval:refl,refl",
    "bm_interval:abs,abs",
]


def _record(spec: DiffusionSpec) -> "_Family":
    """The FAMILIES record of spec's family; CatalogError for a spec that
    make_spec did not build."""
    rec = FAMILIES.get(spec.family)
    if rec is None:
        raise CatalogError(f"spec {spec.name!r} is not in the catalog "
                           f"(family {spec.family!r}): build specs with make_spec")
    return rec


def conjugate(spec: DiffusionSpec) -> DiffusionSpec:
    """Siegmund dual: the record's closed-form dual member, coefficients
    (a, a' - b) and dual ends, with spec's scale and speed swapped exactly."""
    dual = make_spec(_record(spec).dual(spec.params))
    return replace(dual, scale=spec.scale.swapped())


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _kernel_by_name(name: str) -> TransitionKernel:
    spec = make_spec(name)
    return _record(spec).kernel(spec)


def kernel(spec: DiffusionSpec) -> TransitionKernel:
    """Transition kernel for a catalog spec (cached by canonical id)."""
    return _kernel_by_name(spec.name)


def duality_residual(spec: DiffusionSpec, t, x, y) -> float:
    """|P_t 1_[l,y](x) - \\hat P_t 1_[x,r](y)| for strictly interior x, y."""
    if not (spec.l < x < spec.r and spec.l < y < spec.r):
        raise DegenerateInputError("duality residual requires interior x, y")
    kern = kernel(spec)
    dual = kernel(conjugate(spec))
    lhs = float(kern.cdf(t, x, y))
    # \hat P_t 1_[x,r](y) = 1 - \hat F(t, y, x) ; interior x carries no atom
    rhs = 1.0 - float(dual.cdf(t, y, x))
    return abs(lhs - rhs)


def conjugate_density_residual(spec: DiffusionSpec, t, x, y) -> float:
    """Residual of \\hat p_t(x,y) = -d/dy P_t 1_[l,x](y).

    The derivative is taken by central differences with one Richardson step;
    step underflow against the boundary raises DegenerateInputError.
    """
    kern = kernel(spec)
    dual = kernel(conjugate(spec))
    h0 = max(1e-5, 1e-5 * abs(y))
    if min(y - spec.l, spec.r - y) < 4 * h0:
        raise DegenerateInputError("y too close to the boundary for the stencil")
    lhs = float(dual.density(t, x, y))
    rhs = -fd_derivative(lambda v: kern.cdf(t, v, x), np.asarray(y, float), order=1)
    return abs(lhs - float(rhs))


def symmetry_residual(spec: DiffusionSpec, t, x, y) -> float:
    """Residual of the speed-measure reversibility m(y) p_t(y,x) = m(x) p_t(x,y)."""
    m = spec.scale.m
    kern = kernel(spec)
    return float(abs(m(y) * kern.density(t, y, x) - m(x) * kern.density(t, x, y)))


def _harmonic_atom(spec, density, window, h=None):
    """Mass absorbed at an end, h(x) - int p_t(x, y) h(y) dy over
    window(t, x) (two floats, or each start's bounds broadcast over x) by
    density_integral, with h the scale-harmonic hitting probability of that
    end (None, i.e. h = 1, at a lone absorbing end: the mass deficit)."""

    def atom(t, x):
        mass = density_integral(spec, density, t, x, *window(t, x), h)
        return (1.0 if h is None else h(x)) - mass

    return atom


def _quadrature_cdf(spec, density, window, atom_l):
    """atom_l + int_lo^y p_t(x, z) dz by density_integral, lo the window's
    left end; broadcasts x against y."""

    def cdf(t, x, y):
        return atom_l(t, x) + density_integral(spec, density, t, x, window(t, x)[0], y)

    return cdf


def _image_kernel(spec, moments, images, atoms=lambda density, bounds: (_zero_atom, _zero_atom)):
    """Kernel sum_k w_k g_t(y - c_k) of Gaussian images of the start.

    moments = (mean(t, x), var(t), dmean_dx(t)) of the free motion, whose
    density is g_t(y - mean); images(t) lists (sign, offset, weight), the
    image with centre c = sign * mean + offset entering with weight w.
    atoms(density, bounds) -> (atom_l, atom_r), bounds(t, x) the window
    of each start, broadcast over x.  The CDF is measured from the
    interval's left end and adds atom_l; derivatives of every order are
    Hermite closed forms; the window is the free motion's _WINDOW_SD window
    clipped to the interval.  A single unit image (1, 0, 1) is evaluated
    as the free Gaussian itself, with no extra array pass or temporary.
    """
    mean, var, dmean_dx = moments
    l, r = spec.interval

    def image_sum(t, x, y, term, scale=None):
        """sum_k w_k term(u_k, sign_k) with u_k = (y - c_k) / scale (scale
        None: y - c_k), no temporary kept alive beside u_k."""
        y = np.asarray(y, float)
        acc = None
        for sg, off, w in images(t):
            u = y - (mean(t, x) if sg == 1.0 and off == 0.0 else sg * mean(t, x) + off)
            if scale is not None:
                u = u / scale
            v = term(u, sg)
            v = v if w == 1.0 else w * v
            acc = v if acc is None else acc + v
        return acc

    def density(t, x, y):
        v = var(t)
        return image_sum(t, x, y, lambda u, sg: _gpdf(u, v))

    def cdf(t, x, y):
        s = math.sqrt(var(t))
        F = image_sum(t, x, y, lambda z, sg: _Phi(z), s)
        if l == -np.inf:
            return F
        F = F - image_sum(t, x, l, lambda z, sg: _Phi(z), s)
        return F if atom_l is _zero_atom else atom_l(t, x) + F

    def hermite(order, s, z):
        return (-1.0 / s) ** order * _hermite_e(order, z) * _npdf(z) / s

    def dy(order, t, x, y):
        s = math.sqrt(var(t))
        return image_sum(t, x, y, lambda z, sg: hermite(order, s, z), s)

    def dx(order, t, x, y):
        # the centre moves by sign * dmean_dx per unit x
        s, dm = math.sqrt(var(t)), dmean_dx(t)
        return image_sum(t, x, y, lambda z, sg: (-sg * dm) ** order * hermite(order, s, z), s)

    def bounds(t, x):
        # each start's window, broadcast over x
        m = mean(t, x)
        pad = _WINDOW_SD * math.sqrt(var(t))
        return np.maximum(l, m - pad), np.minimum(r, m + pad)

    def window(t, x):
        lo, hi = bounds(t, x)
        return float(np.min(lo)), float(np.max(hi))

    atom_l, atom_r = atoms(density, bounds)
    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=cdf,
        atom_l=atom_l,
        atom_r=atom_r,
        window=window,
        dx_derivative=dx,
        dy_derivative=dy,
    )


def _gaussian_kernel(spec):
    return _image_kernel(spec, gaussian_moments(spec), lambda t: ((1.0, 0.0, 1.0),))


#: image sign of a reflecting / absorbing wall
_WALL_SIGN = {"refl": 1.0, "abs": -1.0}


def _walled_bm_kernel(spec):
    """BM between walls at 0 (bm_halfline) or at 0 and pi (bm_interval),
    each reflecting (s = +1) or absorbing (s = -1), by images of the start:
    the mirror x -> -x carries s0, and on [0, pi] the shift x -> x + 2 pi j
    (j reflections off each wall) carries (s0 s1)^|j|.  The atoms are the
    closed-form absorbed mass on the half line, and on the interval the
    scale-harmonic split of the mass missing from each start's window."""
    modes = spec.params
    s0, q = _WALL_SIGN[modes[0]], _WALL_SIGN[modes[0]] * _WALL_SIGN[modes[-1]]
    L = spec.r

    def images(t):
        # the shifts reach _WINDOW_SD standard deviations beyond the interval;
        # the half line (L = inf) has none
        J = 0 if len(modes) == 1 else max(2, int(math.ceil(_WINDOW_SD * math.sqrt(t) / (2.0 * L))) + 1)
        return [(sg, 2.0 * L * j if j else 0.0, q ** abs(j) * (1.0 if sg > 0 else s0))
                for j in range(-J, J + 1) for sg in (1.0, -1.0)]

    def atoms(density, bounds):
        if len(modes) == 1:
            if s0 > 0:
                return _zero_atom, _zero_atom
            return (lambda t, x: 2.0 * _Phi(-np.asarray(x, float) / math.sqrt(t))), _zero_atom
        # the hitting probability of each absorbing end: 1 when it is the only one
        hits = ((lambda u: (L - np.asarray(u, float)) / L, lambda u: np.asarray(u, float) / L)
                if modes == ("abs", "abs") else (None, None))
        return tuple(_harmonic_atom(spec, density, bounds, h) if m == "abs"
                     else _zero_atom for m, h in zip(modes, hits))

    return _image_kernel(spec, _brownian_gaussian(0.0), images, atoms)


def _from_first_derivatives(spec, dx1, dy1):
    """The derivative rule: dx/dy evaluators of every order from closed
    first derivatives.  Order 1 is dx1 / dy1; order o > 1 is the order-(o - 1)
    finite difference of the first derivative, at points clipped by
    spec.clip_interior.  Every kernel without all-order closed forms takes
    its higher orders here, and nowhere else."""

    def dx(o, t, x, y):
        if o == 1:
            return dx1(t, x, y)
        return fd_derivative(lambda u: dx1(t, spec.clip_interior(u), y), np.asarray(x, float), order=o - 1)

    def dy(o, t, x, y):
        if o == 1:
            return dy1(t, x, y)
        return fd_derivative(lambda v: dy1(t, x, spec.clip_interior(v)), np.asarray(y, float), order=o - 1)

    return dx, dy


# e^{-z} I_nu(z) for z >= 0, one evaluator per order, picked by _ive_of_order
# when a kernel is built.  Orders 1/2 and 3/2, which A1's and A4's besq:3
# and besq:-1 kernels evaluate, are elementary (DLMF 10.49.8); every other
# order is AMOS's ive up to its |z| limit (about 1.07e9, where it returns
# nan) and the first two terms of the Hankel expansion beyond it (DLMF
# 10.40.1; the next term is (4nu^2 - 1)(4nu^2 - 9) / (128 z^2) relative).
# Against scipy.special.ive the closed forms agree to 1e-13 relative for z
# in [1e-300, 1e9], and that difference is ive's own error: against
# 40-digit values they are within a few ulp.  At z = 0 each returns what
# ive returns.

# below _IVE_Z0 the 3/2 closed form's two terms cancel, losing about
# 3 eps / z^2, so ive evaluates it there
_IVE_Z0 = 1.0


def _ive_half(z):
    """e^{-z} I_{1/2}(z) = (1 - e^{-2z}) / sqrt(2 pi z)."""
    z = np.asarray(z, float)
    return np.divide(-np.expm1(-2.0 * z), np.sqrt(2.0 * math.pi * z),
                     out=np.zeros_like(z), where=z != 0.0)


def _ive_three_halves(z):
    """e^{-z} I_{3/2}(z) = ((1 + e^{-2z}) + expm1(-2z) / z) / sqrt(2 pi z),
    and ive below _IVE_Z0."""
    z = np.asarray(z, float)
    zc = np.maximum(z, _IVE_Z0)
    e = np.expm1(-2.0 * zc)
    out = np.asarray((2.0 + e + e / zc) / np.sqrt(2.0 * math.pi * zc))
    small = z < _IVE_Z0
    if small.any():
        out[small] = sc.ive(1.5, z[small])
    return out


def _ive_amos(nu):
    """ive(nu, .), with two Hankel terms where AMOS returns nan for large z."""
    c = (4.0 * nu * nu - 1.0) / 8.0

    def ive(z):
        out = sc.ive(nu, z)
        far = np.isnan(out) & (np.asarray(z) > 1.0)
        if far.any():
            zf = np.maximum(z, 1.0)
            out = np.where(far, (1.0 - c / zf) / np.sqrt(2.0 * math.pi * zf), out)
        return out

    return ive


_IVE_CLOSED = {0.5: _ive_half, 1.5: _ive_three_halves}


def _ive_of_order(nu):
    """The evaluator of z -> e^{-z} I_nu(z) for the order nu."""
    return _IVE_CLOSED.get(float(nu)) or _ive_amos(nu)


def _besq_core_density(t, x, y, nu, ive):
    """(1/2t)(y/x)^(nu/2) exp(-(sqrt x - sqrt y)^2 / 2t) ive(sqrt(xy)/t)."""
    z = np.sqrt(x * y) / t
    return ((1.0 / (2.0 * t)) * (y / x) ** (nu / 2.0)
            * np.exp(-0.5 * (np.sqrt(x) - np.sqrt(y)) ** 2 / t) * ive(z))


def _besq_kernel(spec, d, killed):
    nu = d / 2.0 - 1.0
    order = nu if not killed else -nu
    ive, ive_next = _ive_of_order(order), _ive_of_order(order + 1.0)

    def density(t, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if (killed or nu < 0.0) and (y == 0.0).any():
            # the core is inf * 0 or inf * nan at y = 0, so it is evaluated
            # only off 0; the limit there is e^{-x/2t} (x/2t)^order /
            # (2t Gamma(order + 1)) if killed, else inf
            x, y = np.broadcast_arrays(x, y)
            at0 = y == 0.0
            out = np.full(x.shape, np.inf)
            if killed:
                u = x[at0] / (2.0 * t)
                out[at0] = np.exp(-u) * u**order / (2.0 * t * sc.gamma(order + 1.0))
            out[~at0] = density(t, x[~at0], y[~at0])
            return out
        if not (x > 1e-300).all():
            # the core is (y/0)^(nu/2) at x = 0, so it is evaluated only off
            # 0; the limit there is 0 if killed, else the entrance law
            # gamma(d/2, scale 2t)
            x, y = np.broadcast_arrays(x, y)
            at0 = ~(x > 1e-300)
            out = np.zeros(x.shape)
            if not killed:
                y0 = y[at0]
                out[at0] = (y0 ** (d / 2.0 - 1.0) * np.exp(-y0 / (2.0 * t))
                            / ((2.0 * t) ** (d / 2.0) * sc.gamma(d / 2.0)))
            out[~at0] = density(t, x[~at0], y[~at0])
            return out
        return _besq_core_density(t, x, y, nu, ive)

    def window(t, x):
        # sqrt(y) is a Bessel radius |sqrt(x) e + B_t| <= sqrt(x) + |B_t| with
        # E|B_t| <= sqrt(dd t), dd = max(d, 2) >= d; |B_t| exceeds its mean by
        # z sqrt(t) with probability <= exp(-z^2 / 2) (Gaussian concentration)
        x = float(np.max(np.asarray(x, float)))
        return 0.0, (math.sqrt(x) + math.sqrt(t) * (math.sqrt(max(d, 2.0)) + _WINDOW_SD)) ** 2

    if killed:

        def atom_l(t, x):
            return sc.gammaincc(-nu, np.asarray(x, float) / (2.0 * t))

        cdf = _quadrature_cdf(spec, density, window, atom_l)

    else:
        atom_l = _zero_atom

        def cdf(t, x, y):
            # chi-square (x = 0) and noncentral chi-square laws of y / t,
            # each evaluated only where it applies; both are 0 below y = 0,
            # where the special functions give nan
            x, z = np.broadcast_arrays(np.asarray(x, float),
                                       np.maximum(np.asarray(y, float), 0.0) / t)
            at0 = x <= 1e-300
            out = np.empty(x.shape)
            out[at0] = sc.chdtr(d, z[at0])
            out[~at0] = sc.chndtr(z[~at0], d, x[~at0] / t)
            return out

    def ratio_next(z):
        return ive_next(z) / np.maximum(ive(z), 1e-300)

    # d log p = (mu -+ nu)/(2 x-or-y) - 1/(2t) + (dz) I_{mu+1}/I_mu with
    # mu = nu (conservative) or -nu (killed); the prefactor is (y/x)^{nu/2}
    # in both cases, so the power-law terms only cancel pairwise
    def dx1(t, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        p = density(t, x, y)
        xs = np.maximum(x, 1e-300)
        z = np.sqrt(xs * y) / t
        return p * (
            (order - nu) / (2.0 * xs)
            - 1.0 / (2.0 * t)
            + np.sqrt(y / xs) / (2.0 * t) * ratio_next(z)
        )

    def dy1(t, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        p = density(t, x, y)
        z = np.sqrt(np.maximum(x, 1e-300) * y) / t
        ys = np.maximum(y, 1e-300)
        return p * (
            (order + nu) / (2.0 * ys)
            - 1.0 / (2.0 * t)
            + np.sqrt(np.maximum(x, 0.0) / ys) / (2.0 * t) * ratio_next(z)
        )

    dx, dy = _from_first_derivatives(spec, dx1, dy1)
    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=cdf,
        atom_l=atom_l,
        atom_r=_zero_atom,
        window=window,
        dx_derivative=dx,
        dy_derivative=dy,
    )


def _lag_clock(t, sgn=1.0):
    """(e2, tau) = (e^{2 sgn t}, sgn (e^{2 sgn t} - 1) / 2): e2 X_t is a
    squared Bessel process at time tau, for X a Laguerre process (sgn = 1)
    or its dual (sgn = -1)."""
    e2 = math.exp(2.0 * sgn * t)
    return e2, 0.5 * sgn * (e2 - 1.0)


def _laguerre_kernel(spec, alpha, sgn):
    """Laguerre kernels by a squared-Bessel time change (_lag_clock): e^{2t} X_t
    of lag(alpha) is BESQ(alpha) at tau = (e^{2t} - 1)/2, and e^{-2t} X_t of
    its dual (drift 2 - alpha + 2x) is BESQ(2 - alpha), killed at 0, at
    tau = (1 - e^{-2t})/2.  So p_t(x, y) = e2 q_tau(x, e2 y), and the CDF,
    the atom at 0 and the window are the BESQ ones at tau, rescaled."""
    besq = _kernel_by_name(_id("besq", (alpha, False) if sgn > 0 else (2.0 - alpha, True)))

    def density(t, x, y):
        e2, tau = _lag_clock(t, sgn)
        return e2 * besq.density(tau, x, e2 * np.asarray(y, float))

    def cdf(t, x, y):
        e2, tau = _lag_clock(t, sgn)
        return besq.cdf(tau, x, e2 * np.asarray(y, float))

    def atom_l(t, x):
        return besq.atom_l(_lag_clock(t, sgn)[1], x)

    def dx(o, t, x, y):
        e2, tau = _lag_clock(t, sgn)
        return e2 * besq.dx_derivative(o, tau, x, e2 * np.asarray(y, float))

    def dy(o, t, x, y):
        e2, tau = _lag_clock(t, sgn)
        return e2 ** (o + 1) * besq.dy_derivative(o, tau, x, e2 * np.asarray(y, float))

    def window(t, x):
        e2, tau = _lag_clock(t, sgn)
        lo, hi = besq.window(tau, x)
        return lo / e2, hi / e2

    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=cdf,
        atom_l=atom_l,
        atom_r=_zero_atom,
        window=window,
        dx_derivative=dx,
        dy_derivative=dy,
    )


def _jacobi_dual_kernel(spec, beta, gamma):
    """Dual of jac(beta,gamma): h-transform of jac(beta+1,gamma+1) by
    hh(x) = x^beta (1-x)^gamma with rate -2(beta+gamma); exit at both ends."""
    up = _kernel_by_name(_id("jac", (beta + 1, gamma + 1)))
    rate = 2.0 * (beta + gamma)

    def hh(x):
        x = np.asarray(x, float)
        return np.maximum(x, 1e-300) ** beta * np.maximum(1.0 - x, 1e-300) ** gamma

    def density(t, x, y):
        return math.exp(-rate * t) * (hh(x) / hh(y)) * up.density(t, x, y)

    def dlog_hh(u):
        u = np.asarray(u, float)
        return beta / u - gamma / (1.0 - u)

    # the product rule on the h-transform
    def dx1(t, x, y):
        return math.exp(-rate * t) * (hh(x) / hh(y)) * (
            up.dx_derivative(1, t, x, y) + up.density(t, x, y) * dlog_hh(x))

    def dy1(t, x, y):
        return math.exp(-rate * t) * (hh(x) / hh(y)) * (
            up.dy_derivative(1, t, x, y) - up.density(t, x, y) * dlog_hh(y))

    dx, dy = _from_first_derivatives(spec, dx1, dy1)

    def window(t, x):
        return 0.0, 1.0

    # h_l is the scale-harmonic hitting probability of the left end
    def h_l(x):
        return 1.0 - sc.betainc(beta, gamma, np.asarray(x, float))

    atom_l = _harmonic_atom(spec, density, window, h_l)
    atom_r = _harmonic_atom(spec, density, window, lambda u: 1.0 - h_l(u))
    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=_quadrature_cdf(spec, density, window, atom_l),
        atom_l=atom_l,
        atom_r=atom_r,
        window=window,
        dx_derivative=dx,
        dy_derivative=dy,
    )


def _gbm_kernel(spec, alpha):
    drift = alpha - 0.5

    def density(t, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        s = math.sqrt(t)
        z = (np.log(y / x) - drift * t) / s
        return _npdf(z) / (np.maximum(y, 1e-300) * s)

    def cdf(t, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        s = math.sqrt(t)
        return _Phi((np.log(np.maximum(y, 1e-300) / x) - drift * t) / s)

    def dy1(t, x, y):
        y = np.asarray(y, float)
        s = math.sqrt(t)
        z = (np.log(y / np.asarray(x, float)) - drift * t) / s
        return density(t, x, y) * (-1.0 / y) * (1.0 + z / s)

    def dx1(t, x, y):
        x = np.asarray(x, float)
        s = math.sqrt(t)
        z = (np.log(np.asarray(y, float) / x) - drift * t) / s
        return density(t, x, y) * z / (s * x)

    dx, dy = _from_first_derivatives(spec, dx1, dy1)

    def window(t, x):
        x = np.asarray(x, float)
        s = math.sqrt(t)
        lo = float(np.min(x)) * math.exp(drift * t - _WINDOW_SD * s)
        hi = float(np.max(x)) * math.exp(drift * t + _WINDOW_SD * s)
        return lo, hi

    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=cdf,
        atom_l=_zero_atom,
        atom_r=_zero_atom,
        window=window,
        dx_derivative=dx,
        dy_derivative=dy,
    )


# ---------------------------------------------------------------------------
# spectral bases
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SpectralBasis:
    """Discrete spectrum data: L phi_k = -lambda_k phi_k, orthonormal in
    L^2(m dx); the kernel is sum_k e^{-lambda_k t} phi_k(x) phi_k(y) m(y).
    m is the spec's speed density."""

    spec: DiffusionSpec
    eigenvalue: Callable
    phi: Callable
    max_terms: int = 512
    grid: np.ndarray = None

    def __post_init__(self):
        if self.grid is None:
            l, r = self.spec.interval
            lo = l if np.isfinite(l) else self.spec.c - 8.0
            hi = r if np.isfinite(r) else self.spec.c + 8.0
            pad = 1e-9 * max(1.0, hi - lo)
            self.grid = np.linspace(lo + pad, hi - pad, 257)

    def m(self, x):
        return self.spec.scale.m(x)

    @functools.lru_cache(maxsize=2048)
    def _phi_max(self, k: int) -> float:
        return float(np.max(np.abs(self.phi(k, self.grid))))

    def n_terms(self, t: float) -> int:
        """Terms until the next one's bound falls below 1e-12 (at least 2)."""
        m_max = float(np.max(np.abs(self.m(self.grid))))
        for k in range(self.max_terms):
            bound = math.exp(-self.eigenvalue(k) * t) * self._phi_max(k) ** 2 * m_max
            if bound < 1e-12 and k >= 2:
                return k
        raise TruncationError(
            f"{self.spec.name}: series tail above 1e-12 after {self.max_terms} terms (t={t:g})"
        )


#: bm_interval end modes -> (f, frequency shift, eigenfunction name): the
#: k-th mode is f((k + shift) x), k >= 0, with eigenvalue (k + shift)^2 / 2
_INTERVAL_MODES = {
    ("abs", "abs"): (np.sin, 1.0, "sine-det"),
    ("refl", "refl"): (np.cos, 0.0, "cosine-det"),
    ("refl", "abs"): (np.cos, 0.5, "half-cosine-det"),
    ("abs", "refl"): (np.sin, 0.5, "half-sine-det"),
}


def _interval_basis(spec):
    f, shift, _ = _INTERVAL_MODES[spec.params]
    rt_pi = math.sqrt(math.pi)
    freq = lambda k: k + shift

    def phi(k, x):
        x = np.asarray(x, float)
        if freq(k) == 0.0:  # the constant mode of refl,refl
            return np.full_like(x, 1.0 / math.sqrt(2.0 * math.pi))
        return f(freq(k) * x) / rt_pi

    return SpectralBasis(spec=spec, eigenvalue=lambda k: 0.5 * freq(k) ** 2, phi=phi)


def _hermite_basis(spec):
    """phi_k = H_k(x) / sqrt(2 sqrt(pi) 2^k k!), with the norm in log-gamma
    so that no k below max_terms underflows or overflows."""

    @functools.lru_cache(maxsize=1024)
    def norm(k):
        log_h = math.log(2.0 * math.sqrt(math.pi)) + k * math.log(2.0) + math.lgamma(k + 1.0)
        return math.exp(-0.5 * log_h)

    def phi(k, x):
        return sc.eval_hermite(k, np.asarray(x, float)) * norm(k)

    return SpectralBasis(spec=spec, eigenvalue=lambda k: float(k), phi=phi, max_terms=200)


def _laguerre_basis(spec):
    """phi_k = L_k^(nu)(x) / sqrt(h_k e / 2), nu = alpha/2 - 1, with the
    closed-form norm h_k = int L_k^2 x^nu e^-x = Gamma(k + nu + 1) / k!
    (DLMF 18.3.1), in log-gamma so that no k below max_terms overflows."""
    alpha = spec.params[0]
    nu = alpha / 2.0 - 1.0

    @functools.lru_cache(maxsize=1024)
    def norm(k):
        log_h = sc.gammaln(k + nu + 1.0) - sc.gammaln(k + 1.0)
        return math.exp(-0.5 * (log_h + 1.0 - math.log(2.0)))

    def phi(k, x):
        return sc.eval_genlaguerre(k, nu, np.asarray(x, float)) * norm(k)

    return SpectralBasis(
        spec=spec,
        eigenvalue=lambda k: 2.0 * float(k),
        phi=phi,
        max_terms=300,
        grid=np.linspace(1e-6, 12.0 + 4.0 * alpha, 257),
    )


@functools.lru_cache(maxsize=4096)
def _jacobi_norm(a: float, b: float, k: int) -> float:
    """1 / sqrt(h_k) for the Jacobi polynomial P_k^(a,b), with the closed
    form (DLMF 18.3.1)

        h_k = int P_k^2 (1-u)^a (1+u)^b du
            = 2^(a+b+1) G(k+a+1) G(k+b+1) / ((2k+a+b+1) G(k+a+b+1) k!)

    in log-gamma.  At k = 0 the product (a+b+1) G(a+b+1) is G(a+b+2), which
    stays finite at a + b = -1, where the factors are 0 and infinity."""
    ab = a + b
    log_h = ((ab + 1.0) * math.log(2.0) + sc.gammaln(k + a + 1.0)
             + sc.gammaln(k + b + 1.0) - sc.gammaln(k + 1.0))
    if k == 0:
        log_h -= sc.gammaln(ab + 2.0)
    else:
        log_h -= math.log(2.0 * k + ab + 1.0) + sc.gammaln(k + ab + 1.0)
    return math.exp(-0.5 * log_h)


def _jacobi_basis(spec):
    """phi_k(x) = P_k^(a,b)(2x - 1) _jacobi_norm(a, b, k), a = gamma - 1,
    b = beta - 1: orthonormal at beta + gamma = 1 too."""
    beta, gamma = spec.params
    a_j, b_j = gamma - 1.0, beta - 1.0

    def phi(k, x):
        u = 2.0 * np.asarray(x, float) - 1.0
        return sc.eval_jacobi(k, a_j, b_j, u) * _jacobi_norm(a_j, b_j, k)

    return SpectralBasis(
        spec=spec,
        eigenvalue=lambda k: 2.0 * k * (k + beta + gamma - 1.0),
        phi=phi,
        max_terms=150,
        grid=np.linspace(1e-6, 1.0 - 1e-6, 257),
    )


def _jacobi_kernel(spec):
    """The jac kernel, the series sum_k e^{-lambda_k t} phi_k(x) phi_k(y) m(y)
    over its spectral basis, summed term by term to basis.n_terms(t): dx1
    differentiates phi_k(x), dy1 the product phi_k(y) m(y).  The higher
    orders are the catalog's derivative rule (_from_first_derivatives)."""
    basis = spectral_basis(spec)
    phi, m = basis.phi, basis.m
    beta, gamma = spec.params
    a_j, b_j = gamma - 1.0, beta - 1.0

    def dphi(k, x):
        if k == 0:
            return np.zeros_like(np.asarray(x, float))
        u = 2.0 * np.asarray(x, float) - 1.0
        return ((k + a_j + b_j + 1.0) * sc.eval_jacobi(k - 1, a_j + 1.0, b_j + 1.0, u)
                * _jacobi_norm(a_j, b_j, k))

    # m = 2^(beta+gamma-1) x^(beta-1) (1-x)^(gamma-1), so m' / 2^(beta+gamma-1)
    # is (beta-1) x^(beta-2) (1-x)^(gamma-1) - (gamma-1) x^(beta-1) (1-x)^(gamma-2);
    # a term with a zero factor is dropped, so m' is its limit at an end
    # whose exponent is 1 or at least 2, and infinite at any other.  The
    # generic m (b - a')/a reads 0/0 at an end, where a = 0
    terms = [(c, p, q) for c, p, q in ((beta - 1.0, beta - 2.0, gamma - 1.0),
                                       (1.0 - gamma, beta - 1.0, gamma - 2.0)) if c != 0.0]

    def m_prime(x):
        x = np.asarray(x, float)
        for end, par in ((0.0, beta), (1.0, gamma)):
            if (par < 2.0 and par != 1.0) and np.any(x == end):
                raise DegenerateInputError(
                    f"{spec.name}: m' is infinite at the end y = {end:g}, where the speed "
                    f"density goes as the power {par - 1.0:g} of the distance to it")
        return 2.0 ** (beta + gamma - 1.0) * sum(
            (c * x**p * (1.0 - x) ** q for c, p, q in terms), np.zeros_like(x))

    def series(t, term):
        return sum(term(k, math.exp(-basis.eigenvalue(k) * t)) for k in range(basis.n_terms(t)))

    def density(t, x, y):
        return series(t, lambda k, e: e * phi(k, x) * phi(k, y)) * m(y)

    def dx1(t, x, y):
        my = m(y)
        return series(t, lambda k, e: e * phi(k, y) * my * dphi(k, x))

    def dy1(t, x, y):
        my, mpy = m(y), m_prime(y)
        return series(t, lambda k, e: e * phi(k, x) * (phi(k, y) * mpy + dphi(k, y) * my))

    dx, dy = _from_first_derivatives(spec, dx1, dy1)
    window = lambda t, x: spec.interval
    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=_quadrature_cdf(spec, density, window, _zero_atom),
        atom_l=_zero_atom,
        atom_r=_zero_atom,
        window=window,
        dx_derivative=dx,
        dy_derivative=dy,
    )


@functools.lru_cache(maxsize=64)
def _spectral_basis_by_name(name: str) -> SpectralBasis:
    spec = make_spec(name)
    basis = FAMILIES[spec.family].basis
    if basis is None:
        raise CatalogError(f"no spectral basis for {name!r}")
    return basis(spec)


def spectral_basis(spec: DiffusionSpec) -> SpectralBasis:
    return _spectral_basis_by_name(spec.name)


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------


def _num(v) -> str:
    """Shortest repr that round-trips the float, without a trailing '.0'."""
    r = repr(float(v))
    return r[:-2] if r.endswith(".0") else r


def _mode(v: str) -> str:
    if v not in _MODE_BOUNDARY:
        raise ValueError(v)
    return v


def _finite(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(v)
    return x


def _ids(fam, names="", conv=_finite):
    """Id grammar 'fam' or 'fam:v1,...,vk' with k = len(names.split(',')):
    the form quoted in errors, the parser of the ':'-fields after the family
    name (ValueError when malformed or, by default, not a finite float) and
    the canonical formatter."""
    k = len(names.split(",")) if names else 0

    def parse(fields):
        if k == 0 and not fields:
            return ()
        if len(fields) != 1 or len(fields[0].split(",")) != k:
            raise ValueError(fields)
        return tuple(conv(v) for v in fields[0].split(","))

    def fmt(params):
        vals = [v if isinstance(v, str) else _num(v) for v in params]
        return ":".join([fam] + ([",".join(vals)] if vals else []))

    return dict(form=":".join([fam] + ([names] if names else [])), parse=parse, fmt=fmt)


_BESQ_IDS = _ids("besq", "d")


def _besq_parse(fields):
    if fields[1:] == ["abs"]:
        return _BESQ_IDS["parse"](fields[:1]) + (True,)
    return _BESQ_IDS["parse"](fields) + (False,)


def _besq_fmt(params):
    d, killed = params
    # killing is implied for d <= 0 and impossible for d >= 2
    return _BESQ_IDS["fmt"]((d,)) + (":abs" if killed and 0.0 < d < 2.0 else "")


def _power(p):
    return lambda x: np.asarray(x, float) ** p


def _vandermonde(n, rate):
    return [_power(j) for j in range(n)], rate, "vandermonde"


def _besq_eigen(params, n):
    d, killed = params
    if not killed:
        return _vandermonde(n, 0.0)
    nu_dual = -d / 2.0  # index of the conjugate squared Bessel
    return [_power(j + 1 + nu_dual) for j in range(n)], 0.0, "power-det"


def _halfline_eigen(params, n):
    if params[0] == "abs":
        return [_power(2 * j + 1) for j in range(n)], 0.0, "odd-powers"
    return [_power(2 * j) for j in range(n)], 0.0, "even-powers"


def _interval_eigen(params, n):
    """det(f((j + shift) x_i)), highest frequency first.  f((j + shift) x) is
    sin x, 1, cos(x/2) or sin(x/2), each positive on (0, pi), times a
    polynomial of degree j in cos x with a positive leading coefficient.  So
    the determinant is the product of those factors at each x_i times a
    positive multiple of prod_{i<j} (cos x_i - cos x_j), which is positive
    on the chamber because cos falls on (0, pi)."""
    f, shift, name = _INTERVAL_MODES[params]
    freqs = [j + shift for j in reversed(range(n))]
    comps = [lambda x, w=w: f(w * np.asarray(x, float)) for w in freqs]
    return comps, -0.5 * sum(w**2 for w in freqs), name


def _brownian_gaussian(mu):
    return (lambda t, x: np.asarray(x, float) + mu * t, lambda t: t, lambda t: 1.0)


def _ou_gaussian(sgn):
    """Drift b = sgn * x: mean x e^{sgn t}, variance (e^{2 sgn t} - 1) / (2 sgn)."""
    return (
        lambda t, x: np.asarray(x, float) * math.exp(sgn * t),
        lambda t: 0.5 * sgn * (math.exp(2.0 * sgn * t) - 1.0),
        lambda t: math.exp(sgn * t),
    )


def _besq_step(params):
    """(step(x, dt, gen), variates it draws per value by kind): step draws
    dt chi'^2_d(x / dt), the squared Bessel transition (Revuz and Yor, ch.
    XI); for 0 < d < 2 it is the law reflected at 0.  For d = 2 the draw is
    (Z1 + sqrt(x / dt))^2 + Z2^2: two normals cost less than numpy's
    noncentral sampler, which spends a shape-1/2 gamma there."""
    d = params[0]
    if d != 2.0:
        def step(x, dt, gen):
            return dt * gen.noncentral_chisquare(d, np.asarray(x, float) / dt)
        return step, {"noncentral_chisquare": 1}

    def step(x, dt, gen):
        nonc = np.asarray(x, float) / dt
        z = gen.standard_normal((2,) + nonc.shape)
        return dt * ((z[0] + np.sqrt(nonc)) ** 2 + z[1] ** 2)
    return step, {"normal": 2}


def _lag_step(params):
    """The Laguerre transition as _laguerre_kernel reads it: e^{2 dt} X_dt is
    BESQ(alpha) at tau = (e^{2 dt} - 1) / 2, so X_dt = e^{-2 dt} Y_tau with
    Y_tau the exact BESQ(alpha) step from x; it draws what that step draws."""
    besq_step, draws = _besq_step((params[0], False))

    def step(x, dt, gen):
        e2, tau = _lag_clock(dt)
        return besq_step(x, tau, gen) / e2
    return step, draws


_FLIP = {"refl": "abs", "abs": "refl"}


@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one diffusion family.

    ``params`` is always the tuple ``spec.params`` of a member; callables
    that return an id return its canonical form, so ``make_spec`` of it
    rebuilds the same parameters bit for bit.
    """

    form: str  # id grammar, quoted when an id is malformed
    parse: Callable  # ':'-fields after the family name -> params
    fmt: Callable  # params -> canonical id
    build: Callable  # *params -> DiffusionSpec
    dual: Callable  # params -> id of the Siegmund dual
    kernel: Callable  # spec -> TransitionKernel
    basis: Optional[Callable] = None  # spec -> SpectralBasis
    eigen: Optional[Callable] = None  # (params, n) -> (components, rate, name)
    ladder: Optional[Callable] = None  # (params, m) -> id of the member with drift b + m a'
    gaussian: Optional[Callable] = None  # params -> (mean(t, x), var(t), dmean_dx(t))
    # params -> (step, {kind: variates per value}); step(x, dt, gen) is an
    # exact draw of X_dt given X_0 = x
    step: Optional[Callable] = None
    coords: str = "linear"  # quadrature coordinates: "linear", "sqrt", "log" or "arcsine"


def _id(fam: str, params: tuple) -> str:
    return FAMILIES[fam].fmt(params)


FAMILIES: dict[str, _Family] = {
    "bm": _Family(
        **_ids("bm"),
        build=lambda: _brownian_spec(
            "bm", (), (-np.inf, np.inf), Boundary.NATURAL, Boundary.NATURAL, 0.0
        ),
        dual=lambda p: "bm",
        kernel=_gaussian_kernel,
        eigen=lambda p, n: _vandermonde(n, 0.0),
        ladder=lambda p, m: "bm",
        gaussian=lambda p: _brownian_gaussian(0.0),
    ),
    "bm_drift": _Family(
        **_ids("bm_drift", "mu"),
        build=_bm_drift_spec,
        dual=lambda p: _id("bm_drift", (-p[0],)),
        kernel=_gaussian_kernel,
        eigen=lambda p, n: _vandermonde(n, 0.0),
        ladder=lambda p, m: _id("bm_drift", p),
        gaussian=lambda p: _brownian_gaussian(p[0]),
    ),
    "ou": _Family(
        **_ids("ou"),
        build=lambda: _ou_spec("ou", -1.0),
        dual=lambda p: "ou_out",
        kernel=_gaussian_kernel,
        basis=_hermite_basis,
        eigen=lambda p, n: _vandermonde(n, -0.5 * n * (n - 1)),
        ladder=lambda p, m: "ou",
        gaussian=lambda p: _ou_gaussian(-1.0),
    ),
    "ou_out": _Family(
        **_ids("ou_out"),
        build=lambda: _ou_spec("ou_out", 1.0),
        dual=lambda p: "ou",
        kernel=_gaussian_kernel,
        gaussian=lambda p: _ou_gaussian(1.0),
    ),
    "besq": _Family(
        form="besq:d[:abs]",
        parse=_besq_parse,
        fmt=_besq_fmt,
        build=_besq_spec,
        # d -> 2 - d; inside (0, 2) reflection and killing swap
        dual=lambda p: _id("besq", (2.0 - p[0], not p[1])),
        kernel=lambda s: _besq_kernel(s, *s.params),
        eigen=_besq_eigen,
        ladder=lambda p, m: _id("besq", (p[0] + 2 * m, False)),
        step=_besq_step,
        coords="sqrt",
    ),
    "lag": _Family(
        **_ids("lag", "alpha"),
        build=lambda alpha: _laguerre_spec("lag", alpha, dual=False),
        dual=lambda p: _id("lag_dual", p),
        kernel=lambda s: _laguerre_kernel(s, *s.params, 1.0),
        basis=_laguerre_basis,
        eigen=lambda p, n: _vandermonde(n, -float(n * (n - 1))),
        ladder=lambda p, m: _id("lag", (p[0] + 2 * m,)),
        step=_lag_step,
        coords="sqrt",
    ),
    "lag_dual": _Family(
        **_ids("lag_dual", "alpha"),
        build=lambda alpha: _laguerre_spec("lag_dual", alpha, dual=True),
        dual=lambda p: _id("lag", p),
        kernel=lambda s: _laguerre_kernel(s, *s.params, -1.0),
        coords="sqrt",
    ),
    "jac": _Family(
        **_ids("jac", "beta,gamma"),
        build=lambda beta, gamma: _jacobi_spec("jac", beta, gamma, dual=False),
        dual=lambda p: _id("jac_dual", p),
        kernel=_jacobi_kernel,
        basis=_jacobi_basis,
        eigen=lambda p, n: _vandermonde(
            n, -sum(2.0 * k * (k + p[0] + p[1] - 1.0) for k in range(n))
        ),
        ladder=lambda p, m: _id("jac", (p[0] + m, p[1] + m)),
        coords="arcsine",
    ),
    "jac_dual": _Family(
        **_ids("jac_dual", "beta,gamma"),
        build=lambda beta, gamma: _jacobi_spec("jac_dual", beta, gamma, dual=True),
        dual=lambda p: _id("jac", p),
        kernel=lambda s: _jacobi_dual_kernel(s, *s.params),
        coords="arcsine",
    ),
    "gbm": _Family(
        **_ids("gbm", "alpha"),
        build=_gbm_spec,
        dual=lambda p: _id("gbm", (1.0 - p[0],)),
        kernel=lambda s: _gbm_kernel(s, *s.params),
        eigen=lambda p, n: _vandermonde(n, 0.5 * n * (n - 1) * ((n - 2) / 3.0 + p[0])),
        ladder=lambda p, m: _id("gbm", (p[0] + m,)),
        coords="log",
    ),
    "bm_halfline": _Family(
        **_ids("bm_halfline", "refl|abs", _mode),
        build=lambda mode: _brownian_spec(
            "bm_halfline", (mode,), (0.0, np.inf), _MODE_BOUNDARY[mode], Boundary.NATURAL, 1.0
        ),
        dual=lambda p: _id("bm_halfline", (_FLIP[p[0]],)),
        kernel=_walled_bm_kernel,
        eigen=_halfline_eigen,
    ),
    "bm_interval": _Family(
        **_ids("bm_interval", "refl|abs,refl|abs", _mode),
        build=lambda b0, b1: _brownian_spec(
            "bm_interval",
            (b0, b1),
            (0.0, math.pi),
            _MODE_BOUNDARY[b0],
            _MODE_BOUNDARY[b1],
            math.pi / 2.0,
        ),
        dual=lambda p: _id("bm_interval", (_FLIP[p[0]], _FLIP[p[1]])),
        kernel=_walled_bm_kernel,
        basis=_interval_basis,
        eigen=_interval_eigen,
    ),
}


def edge_ladder(base: DiffusionSpec, n: int) -> list:
    """Specs of the n particles of an edge system over base: particle k has
    drift b + (n-k) a', the family record's ladder member (particle n is
    base itself).  Raise ValueError unless every particle's ends are natural
    or entrance, base's first, and, for n > 1, base's family has a ladder."""
    def accept(sp):
        if not {sp.behavior_l, sp.behavior_r} <= {Boundary.NATURAL, Boundary.ENTRANCE}:
            raise ValueError(
                f"edge systems require natural/entrance boundaries; {sp.name} violates this")
        return sp

    accept(base)
    ladder = _record(base).ladder
    if n > 1 and ladder is None:
        raise ValueError(f"edge ladder undefined for family {base.family!r}")
    return [accept(make_spec(ladder(base.params, n - k))) if k < n else base
            for k in range(1, n + 1)]


def gaussian_moments(spec: DiffusionSpec):
    """(mean(t, x), var(t), dmean_dx(t)) of a Gaussian family's kernel, else None."""
    rec = _record(spec)
    return rec.gaussian(spec.params) if rec.gaussian else None


def _exact(spec: DiffusionSpec):
    """The family record's (step, draws) for spec, or None when spec's
    family has no sampler of its kernel or spec is killed at an end, since
    the draw has the law of the unkilled motion."""
    rec = _record(spec)
    killing = {Boundary.EXIT, Boundary.REGULAR_ABSORBING}
    if rec.step is None or killing & {spec.behavior_l, spec.behavior_r}:
        return None
    return rec.step(spec.params)


def exact_step(spec: DiffusionSpec):
    """step(x, dt, gen): an exact draw of X_dt given X_0 = x from the stream
    gen, or None when spec has no exact step (see _exact)."""
    exact = _exact(spec)
    return None if exact is None else exact[0]


def free_step_draws(spec: DiffusionSpec) -> dict:
    """Variates one particle of spec draws per free step, by kind: those of
    its exact step, else the one normal of an Euler step."""
    exact = _exact(spec)
    return {"normal": 1} if exact is None else exact[1]


def constant_coefficients(spec: DiffusionSpec):
    """(a, b) as floats when both of spec's coefficients are constant (the
    Brownian families bm, bm_drift, bm_halfline and bm_interval), else None."""
    if isinstance(spec.a, _Const) and isinstance(spec.b, _Const):
        return spec.a.value, spec.b.value
    return None


def quad_coords(spec: DiffusionSpec) -> str:
    """Coordinates that make quadrature of spec's densities converge:
    'sqrt' (u = sqrt(y)), 'log' (u = log(y)) and 'arcsine'
    (u = arcsin(sqrt(y)), opening both ends of (0, 1)) remove endpoint
    kinks.  'sqrt' and 'arcsine' are also the Lamperti coordinates of
    a = 2x and a = 2x(1 - x), in which the noise is unit."""
    return _record(spec).coords


# u = fwd(y), y = inv(u) and dy/du of the non-linear quadrature coordinates
_COORD_MAPS = {
    "sqrt": (np.sqrt, np.square, lambda u, y: 2.0 * u),
    "log": (np.log, np.exp, lambda u, y: y),
    "arcsine": (lambda y: np.arcsin(np.sqrt(y)), lambda u: np.sin(u) ** 2, lambda u, y: np.sin(2.0 * u)),
}


def _in_coords(spec: DiffusionSpec, nodes: Callable, lo, hi):
    """nodes(lo, hi) -> (points, weights) run on [lo, hi] clipped to
    spec.interval, in spec's quadrature coordinates; the returned points are
    states y and the weights carry the Jacobian dy/du."""
    l, r = spec.interval
    lo, hi = np.maximum(lo, l), np.minimum(hi, r)
    coords = quad_coords(spec)
    if coords == "linear":
        return nodes(lo, hi)
    fwd, inv, jac = _COORD_MAPS[coords]
    u, w = nodes(fwd(lo), fwd(hi))
    y = inv(u)
    return y, w * np.prod(jac(u, y), axis=-1)


#: Gauss-Legendre nodes of every density_integral (README gives the
#: convergence table behind the count)
_DENSITY_NODES = 128


def density_integral(spec: DiffusionSpec, density: Callable, t, x, lo, hi, weight=None):
    """int_lo^hi weight(z) p_t(x, z) dz over [lo, hi] clipped to spec's
    interval, by a _DENSITY_NODES-node Gauss-Legendre rule in spec's
    quadrature coordinates (see _in_coords).

    x, lo and hi broadcast against each other; the nodes z run along a new
    last axis, where weight(z) (default 1) is evaluated.  An empty interval
    (hi <= lo once clipped) gives 0, without evaluating the density there.
    """
    l, r = spec.interval
    x, lo, hi = np.broadcast_arrays(*(np.asarray(v, float) for v in (x, lo, hi)))
    lo, hi = np.maximum(lo, l), np.minimum(hi, r)
    keep = hi > lo

    def nodes(a, b):
        z, w = gl_nodes(a[..., None], b[..., None], _DENSITY_NODES)
        return z[..., None], w

    z, w = _in_coords(spec, nodes, lo, np.where(keep, hi, lo))
    z = z[..., 0]
    f = np.zeros(z.shape)
    f[keep] = density(t, x[keep][:, None], z[keep])
    if weight is not None:
        f = f * weight(z)
    return np.sum(w * f, axis=-1)


def chamber_quad(spec: DiffusionSpec, ndim: int, lo: float, hi: float, n: int, pad=None):
    """Nodes and weights over the ordered chamber lo < y_1 <= ... <= y_ndim < hi
    of spec's state space (see _in_coords).

    pad = (below, above) first widens the window by these fractions of its
    span, for integrands whose polynomial factors amplify the density's tails;
    a log-coordinate family's windows are multiplicative, so it widens in log y.
    """
    if pad is not None:
        below, above = pad
        if quad_coords(spec) == "log":
            ratio = hi / lo
            lo, hi = lo * ratio**-below, hi * ratio**above
        else:
            span = hi - lo
            lo, hi = lo - below * span, hi + above * span
    return _in_coords(spec, lambda a, b: ordered_nodes(ndim, a, b, n), lo, hi)


def fiber_quad(spec: DiffusionSpec, flo, fhi, n: int):
    """Tensor nodes over the N boxes prod_j [flo_j, fhi_j] (rows of (N, k)
    arrays) of spec's state space, one row per box: points (N, F, k) and
    weights (N, F), F = n**k, as quadrature.stacked_box_nodes but in spec's
    coordinates (see _in_coords)."""
    pts, w = _in_coords(spec, lambda a, b: stacked_box_nodes(a, b, n), flo, fhi)
    N = np.shape(flo)[0]
    return pts.reshape(N, -1, pts.shape[-1]), w.reshape(N, -1)
