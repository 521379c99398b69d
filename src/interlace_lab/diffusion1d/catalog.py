"""Kernel catalog for the supported diffusion families.

Families and string ids (parameters after the colon):

    bm                       standard Brownian motion, a = 1/2
    bm_drift:mu              Brownian motion with drift
    ou                       Ornstein-Uhlenbeck, a = 1/2, b = -x
    ou_out                   outward OU (b = +x); arises as the dual of ou
    besq:d[:abs]             squared Bessel, a = 2x, b = d; ':abs' kills at 0
    lag:alpha                Laguerre a = 2x, b = alpha - 2x
    lag_dual:alpha           dual of lag (exit at 0)
    jac:beta,gamma           Jacobi a = 2x(1-x), b = 2(beta-(beta+gamma)x)
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
Spectral series: the jac kernel; the sine/cosine bases of the interval,
Hermite for ou and generalized Laguerre for lag are kept for spectral_km
and ground states.  Duals of lag/jac are h-transforms of parameter-shifted
members of the same family.  Every window(t, x) misses at most 1e-12 of
the kernel's mass.  CDFs and atoms without a closed form (killed besq,
lag_dual, jac, jac_dual, absorbing interval ends) are core.density_integral
quadratures of the density, by _quadrature_cdf and _harmonic_atom, and
broadcast x against y like the closed forms.

Ids are exact: parameters are written as the shortest decimal that reads
back to the same float, so make_spec(spec.name) rebuilds spec.params bit for
bit, and a malformed id raises CatalogError naming the expected form.

FAMILIES holds one record per family, and every other module asks the
record, never the family name: its id grammar, spec builder, dual, kernel,
spectral basis, closed-form eigenfunction, edge ladder, Gaussian moments,
exact step and its draws, and quadrature coordinates.  Adding a family
means adding one record.  A spec builder states the coefficients a, b, a'
and one scale formula, the closed form of log s'; core.ScaleSpeed derives
log m, s' and m from it, the dual's scale is the swapped pair, and a
spectral basis takes m and m' from the spec.  Only edge_ladder reads the
ladder; it also rejects an edge system whose ends are not natural or
entrance.

The quadrature coordinates serve the two node builders for state-space
integrals: chamber_quad (ordered chambers) and fiber_quad (batched
interlacing-fiber boxes, one row of nodes per box).  Both clip to the
spec's interval and return states with the Jacobian folded into the
weights.  The reflected-system stepper pushes exactly stepped 'sqrt'
members in the same coordinates.

Only besq has an exact step, dt chi'^2_d(x / dt); reflectsde steps every
other family, and killed besq, by an Euler step.  Constant coefficients are
built by _Const, whose value constant_coefficients reads: the Brownian
families have a = 1/2 and a constant b, so their Euler step is
x + b dt + sqrt(dt) xi with no coefficient evaluated per step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import special as sc

from ..quadrature import fd_derivative, ordered_nodes, stacked_box_nodes
from .core import (
    Boundary,
    CatalogError,
    DiffusionSpec,
    DUAL_BOUNDARY,
    ScaleSpeed,
    TransitionKernel,
    TruncationError,
    density_integral,
    scale_speed,
)

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


def _spec(fam, params, log_s_prime, **fields) -> DiffusionSpec:
    """A family's spec: its coefficients and its one scale formula, the closed
    form of log s'(x) = -int_c^x b/a (ScaleSpeed derives the rest)."""
    return DiffusionSpec(name=FAMILIES[fam].fmt(params), family=fam, params=params,
                         scale=ScaleSpeed.from_log_s_prime(log_s_prime, fields["a"]), **fields)


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
    bb, gg = (1.0 - beta, 1.0 - gamma) if dual else (beta, gamma)
    b_fun = lambda x: 2.0 * (bb - (bb + gg) * np.asarray(x, float))
    log_sp = lambda x: -bb * np.log(2.0 * np.asarray(x, float)) - gg * np.log(
        2.0 * (1.0 - np.asarray(x, float))
    )

    def _end(par):
        if par >= 1.0:
            end = Boundary.ENTRANCE
        elif par > 0.0:
            end = Boundary.REGULAR_REFLECTING
        else:
            end = Boundary.EXIT
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


def catalog_conjugate(spec: DiffusionSpec) -> Optional[DiffusionSpec]:
    """Closed-form dual for catalog members, with swapped scale/speed."""
    rec = FAMILIES.get(spec.family)
    if rec is None:
        return None
    dual = make_spec(rec.dual(spec.params))
    return replace(dual, scale=scale_speed(spec).swapped())


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _kernel_by_name(name: str) -> TransitionKernel:
    return _build_kernel(make_spec(name))


def kernel(spec: DiffusionSpec) -> TransitionKernel:
    """Transition kernel for a catalog spec (cached by canonical id)."""
    return _kernel_by_name(spec.name)


def _build_kernel(spec: DiffusionSpec) -> TransitionKernel:
    rec = FAMILIES.get(spec.family)
    if rec is None:
        raise CatalogError(f"no kernel for family {spec.family!r}")
    return rec.kernel(spec)


def _harmonic_atom(density, window, n, h=None):
    """Mass absorbed at an end, h(x) - int p_t(x, y) h(y) dy over
    window(t, x) by an n-node density_integral, with h the scale-harmonic
    hitting probability of that end (None, i.e. h = 1, at a lone absorbing
    end: the mass deficit)."""

    def atom(t, x):
        lo, hi = window(t, x)
        mass = density_integral(density, t, x, lo, hi, n, h)
        return (1.0 if h is None else h(x)) - mass

    return atom


def _quadrature_cdf(spec, density, window, atom_l, n):
    """atom_l + int_lo^y p_t(x, z) dz by an n-node density_integral, with
    lo = max(window lo, l) and y clipped to [lo, r]; broadcasts x against y."""

    def cdf(t, x, y):
        lo = max(window(t, x)[0], spec.l)
        hi = np.clip(np.asarray(y, float), lo, spec.r)
        return atom_l(t, x) + density_integral(density, t, x, lo, hi, n)

    return cdf


def _image_kernel(spec, moments, images, atoms=lambda density: (_zero_atom, _zero_atom)):
    """Kernel sum_k w_k g_t(y - c_k) of Gaussian images of the start.

    moments = (mean(t, x), var(t), dmean_dx(t)) of the free motion, whose
    density is g_t(y - mean); images(t) lists (sign, offset, weight), the
    image with centre c = sign * mean + offset entering with weight w.
    atoms(density) -> (atom_l, atom_r).  The CDF is measured from the
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

    def window(t, x):
        m = mean(t, x)
        pad = _WINDOW_SD * math.sqrt(var(t))
        return max(l, float(np.min(m) - pad)), min(r, float(np.max(m) + pad))

    atom_l, atom_r = atoms(density)
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
    scale-harmonic split of the mass missing from [0, pi]."""
    modes = spec.params
    s0, q = _WALL_SIGN[modes[0]], _WALL_SIGN[modes[0]] * _WALL_SIGN[modes[-1]]
    L = spec.r

    def images(t):
        # the shifts reach _WINDOW_SD standard deviations beyond the interval;
        # the half line (L = inf) has none
        J = 0 if len(modes) == 1 else max(2, int(math.ceil(_WINDOW_SD * math.sqrt(t) / (2.0 * L))) + 1)
        return [(sg, 2.0 * L * j if j else 0.0, q ** abs(j) * (1.0 if sg > 0 else s0))
                for j in range(-J, J + 1) for sg in (1.0, -1.0)]

    def atoms(density):
        if len(modes) == 1:
            if s0 > 0:
                return _zero_atom, _zero_atom
            return (lambda t, x: 2.0 * _Phi(-np.asarray(x, float) / math.sqrt(t))), _zero_atom
        # the hitting probability of each absorbing end: 1 when it is the only one
        hits = ((lambda u: (L - np.asarray(u, float)) / L, lambda u: np.asarray(u, float) / L)
                if modes == ("abs", "abs") else (None, None))
        return tuple(_harmonic_atom(density, lambda t, x: (0.0, L), 200, h) if m == "abs"
                     else _zero_atom for m, h in zip(modes, hits))

    return _image_kernel(spec, _brownian_gaussian(0.0), images, atoms)


def _from_first_derivatives(dx1, dy1):
    """dx/dy evaluators from closed first derivatives; higher orders are
    finite differences of the first, kept off the origin."""

    def dx(o, t, x, y):
        if o == 1:
            return dx1(t, x, y)
        return fd_derivative(lambda u: dx1(t, np.maximum(u, 1e-12), y), np.asarray(x, float), order=o - 1)

    def dy(o, t, x, y):
        if o == 1:
            return dy1(t, x, y)
        return fd_derivative(lambda v: dy1(t, x, np.maximum(v, 1e-12)), np.asarray(y, float), order=o - 1)

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
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xs = np.maximum(x, 1e-300)
    z = np.sqrt(xs * y) / t
    val = (
        (1.0 / (2.0 * t))
        * (y / xs) ** (nu / 2.0)
        * np.exp(-0.5 * (np.sqrt(xs) - np.sqrt(y)) ** 2 / t)
        * ive(z)
    )
    return val


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
        main = _besq_core_density(t, x, y, nu, ive)
        if killed:
            return np.where(x > 1e-300, main, 0.0)
        # entrance limit from 0: gamma(d/2, scale 2t)
        lim = (
            y ** (d / 2.0 - 1.0)
            * np.exp(-y / (2.0 * t))
            / ((2.0 * t) ** (d / 2.0) * sc.gamma(d / 2.0))
        )
        return np.where(x > 1e-300, main, lim)

    def window(t, x):
        # sqrt(y) is a Bessel radius |sqrt(x) e + B_t| <= sqrt(x) + |B_t| with
        # E|B_t| <= sqrt(dd t), dd = max(d, 2) >= d; |B_t| exceeds its mean by
        # z sqrt(t) with probability <= exp(-z^2 / 2) (Gaussian concentration)
        x = float(np.max(np.asarray(x, float)))
        return 0.0, (math.sqrt(x) + math.sqrt(t) * (math.sqrt(max(d, 2.0)) + _WINDOW_SD)) ** 2

    if killed:

        def atom_l(t, x):
            return sc.gammaincc(-nu, np.asarray(x, float) / (2.0 * t))

        cdf = _quadrature_cdf(spec, density, window, atom_l, 220)

    else:
        atom_l = _zero_atom

        def cdf(t, x, y):
            x = np.asarray(x, float)
            # chi-square (x = 0) and noncentral chi-square laws of y / t;
            # both are 0 below y = 0, where the special functions give nan
            z = np.maximum(np.asarray(y, float), 0.0) / t
            return np.where(x <= 1e-300, sc.chdtr(d, z),
                            sc.chndtr(z, d, np.maximum(x, 1e-300) / t))

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

    dx, dy = _from_first_derivatives(dx1, dy1)
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


def _laguerre_kernel(spec, alpha):
    """Laguerre via squared-Bessel time change: e^{2t} X_t is BESQ(alpha) at
    tau = (e^{2t}-1)/2, so p_t(x,y) = e^{2t} q_tau(x, e^{2t} y)."""
    besq = _kernel_by_name(_id("besq", (alpha, False)))

    def density(t, x, y):
        e2, tau = math.exp(2.0 * t), 0.5 * (math.exp(2.0 * t) - 1.0)
        return e2 * besq.density(tau, x, e2 * np.asarray(y, float))

    def cdf(t, x, y):
        e2, tau = math.exp(2.0 * t), 0.5 * (math.exp(2.0 * t) - 1.0)
        return besq.cdf(tau, x, e2 * np.asarray(y, float))

    def dx(o, t, x, y):
        e2, tau = math.exp(2.0 * t), 0.5 * (math.exp(2.0 * t) - 1.0)
        return e2 * besq.dx_derivative(o, tau, x, e2 * np.asarray(y, float))

    def dy(o, t, x, y):
        e2, tau = math.exp(2.0 * t), 0.5 * (math.exp(2.0 * t) - 1.0)
        return e2 ** (o + 1) * besq.dy_derivative(o, tau, x, e2 * np.asarray(y, float))

    def window(t, x):
        e2, tau = math.exp(2.0 * t), 0.5 * (math.exp(2.0 * t) - 1.0)
        lo, hi = besq.window(tau, x)
        return lo / e2, hi / e2

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


def _laguerre_dual_kernel(spec, alpha):
    """Dual of lag(alpha): h-transform of lag(alpha+2) by hh(x) = x^{a/2}e^{-x}
    with rate -2, giving p(x,y) = e^{-2t} (hh(x)/hh(y)) p^{alpha+2}_t(x,y).
    p^{alpha+2} is the time-changed BESQ(alpha+2) density of _laguerre_kernel;
    evaluated in log space, e^{y-x} joins its Gaussian exponent, whose sum
    stays <= 0, so no factor overflows however far the window reaches."""
    nu = alpha / 2.0  # Bessel index of BESQ(alpha + 2)
    ive = _ive_of_order(nu)

    def density(t, x, y):
        e2, tau = math.exp(2.0 * t), 0.5 * (math.exp(2.0 * t) - 1.0)
        x = np.maximum(np.asarray(x, float), 1e-300)
        y = np.asarray(y, float)
        big = e2 * y
        log_p = (
            (nu / 2.0) * np.log(e2 * x / np.maximum(y, 1e-300))
            + (y - x)
            - 0.5 * (np.sqrt(x) - np.sqrt(big)) ** 2 / tau
        )
        return np.exp(log_p) / (2.0 * tau) * ive(np.sqrt(x * big) / tau)

    def window(t, x):
        x = float(np.max(np.asarray(x, float)))
        e2 = math.exp(2.0 * t)
        hi = 45.0 * max(e2 - 1.0, t) + 3.0 * e2 * (x + alpha + 2.0) + 10.0
        return 0.0, hi

    atom_l = _harmonic_atom(density, window, 360)
    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=_quadrature_cdf(spec, density, window, atom_l, 360),
        atom_l=atom_l,
        atom_r=_zero_atom,
        window=window,
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

    def window(t, x):
        return 0.0, 1.0

    # h_l is the scale-harmonic hitting probability of the left end
    def h_l(x):
        return 1.0 - sc.betainc(beta, gamma, np.asarray(x, float))

    atom_l = _harmonic_atom(density, window, 240, h_l)
    atom_r = _harmonic_atom(density, window, 240, lambda u: 1.0 - h_l(u))
    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=_quadrature_cdf(spec, density, window, atom_l, 240),
        atom_l=atom_l,
        atom_r=atom_r,
        window=window,
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

    dx, dy = _from_first_derivatives(dx1, dy1)

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

    m is the spec's speed density, and m' = m (b - a')/a, since
    (log m)' = -(log s')' - a'/a = (b - a')/a."""

    spec: DiffusionSpec
    eigenvalue: Callable
    phi: Callable
    phi_prime: Callable
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
        return scale_speed(self.spec).m(x)

    def m_prime(self, x):
        spec = self.spec
        return self.m(x) * (spec.b(x) - spec.a_prime(x)) / spec.a(x)

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


def _series_evaluators(basis: SpectralBasis):
    def density(t, x, y):
        K = basis.n_terms(t)
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        acc = 0.0
        for k in range(K):
            acc = acc + math.exp(-basis.eigenvalue(k) * t) * basis.phi(k, x) * basis.phi(k, y)
        return acc * basis.m(y)

    def dy(order, t, x, y):
        if order > 2:
            return fd_derivative(lambda v: density(t, x, v), np.asarray(y, float), order=order)
        K = basis.n_terms(t)
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        acc = 0.0
        for k in range(K):
            w = math.exp(-basis.eigenvalue(k) * t) * basis.phi(k, x)
            if order == 1:
                acc = acc + w * (basis.phi_prime(k, y) * basis.m(y) + basis.phi(k, y) * basis.m_prime(y))
            else:
                term = fd_derivative(
                    lambda v, kk=k: basis.phi_prime(kk, v) * basis.m(v) + basis.phi(kk, v) * basis.m_prime(v),
                    y,
                    order=1,
                )
                acc = acc + w * term
        return acc

    def dx(order, t, x, y):
        if order > 2:
            return fd_derivative(lambda u: density(t, u, y), np.asarray(x, float), order=order)
        K = basis.n_terms(t)
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        acc = 0.0
        for k in range(K):
            w = math.exp(-basis.eigenvalue(k) * t) * basis.phi(k, y) * basis.m(y)
            if order == 1:
                acc = acc + w * basis.phi_prime(k, x)
            else:
                acc = acc + w * fd_derivative(lambda u, kk=k: basis.phi_prime(kk, u), x, order=1)
        return acc

    return density, dx, dy


def _spectral_only_kernel(spec):
    basis = spectral_basis(spec)
    density, dx, dy = _series_evaluators(basis)
    window = lambda t, x: spec.interval
    return TransitionKernel(
        spec=spec,
        density=density,
        cdf=_quadrature_cdf(spec, density, window, _zero_atom, 200),
        atom_l=_zero_atom,
        atom_r=_zero_atom,
        window=window,
        dx_derivative=dx,
        dy_derivative=dy,
    )


#: bm_interval end modes -> (f, f', frequency shift, eigenfunction name): the
#: k-th mode is f((k + shift) x), k >= 0, with eigenvalue (k + shift)^2 / 2
_INTERVAL_MODES = {
    ("abs", "abs"): (np.sin, np.cos, 1.0, "sine-det"),
    ("refl", "refl"): (np.cos, lambda z: -np.sin(z), 0.0, "cosine-det"),
    ("refl", "abs"): (np.cos, lambda z: -np.sin(z), 0.5, "half-cosine-det"),
    ("abs", "refl"): (np.sin, np.cos, 0.5, "half-sine-det"),
}


def _interval_basis(spec):
    f, fp, shift, _ = _INTERVAL_MODES[spec.params]
    rt_pi = math.sqrt(math.pi)
    freq = lambda k: k + shift

    def phi(k, x):
        x = np.asarray(x, float)
        if freq(k) == 0.0:  # the constant mode of refl,refl
            return np.full_like(x, 1.0 / math.sqrt(2.0 * math.pi))
        return f(freq(k) * x) / rt_pi

    def phi_prime(k, x):
        return freq(k) * fp(freq(k) * np.asarray(x, float)) / rt_pi

    return SpectralBasis(
        spec=spec,
        eigenvalue=lambda k: 0.5 * freq(k) ** 2,
        phi=phi,
        phi_prime=phi_prime,
    )


def _hermite_basis(spec):
    @functools.lru_cache(maxsize=1024)
    def norm(k):
        return 1.0 / math.sqrt(2.0 * math.sqrt(math.pi) * 2.0**k * math.factorial(k))

    def phi(k, x):
        return sc.eval_hermite(k, np.asarray(x, float)) * norm(k)

    def phi_prime(k, x):
        if k == 0:
            return np.zeros_like(np.asarray(x, float))
        return 2.0 * k * sc.eval_hermite(k - 1, np.asarray(x, float)) * norm(k)

    return SpectralBasis(
        spec=spec,
        eigenvalue=lambda k: float(k),
        phi=phi,
        phi_prime=phi_prime,
        max_terms=200,
    )


def _laguerre_basis(spec):
    alpha = spec.params[0]
    nu = alpha / 2.0 - 1.0
    nodes, weights = sc.roots_genlaguerre(320, nu)

    @functools.lru_cache(maxsize=1024)
    def norm(k):
        vals = sc.eval_genlaguerre(k, nu, nodes)
        raw = float(np.dot(weights, vals * vals))  # int L_k^2 x^nu e^-x
        return 1.0 / math.sqrt(raw * (math.e / 2.0))

    def phi(k, x):
        return sc.eval_genlaguerre(k, nu, np.asarray(x, float)) * norm(k)

    def phi_prime(k, x):
        if k == 0:
            return np.zeros_like(np.asarray(x, float))
        return -sc.eval_genlaguerre(k - 1, nu + 1.0, np.asarray(x, float)) * norm(k)

    return SpectralBasis(
        spec=spec,
        eigenvalue=lambda k: 2.0 * float(k),
        phi=phi,
        phi_prime=phi_prime,
        max_terms=300,
        grid=np.linspace(1e-6, 12.0 + 4.0 * alpha, 257),
    )


def _jacobi_basis(spec):
    beta, gamma = spec.params
    a_j, b_j = gamma - 1.0, beta - 1.0
    nodes, weights = sc.roots_jacobi(160, a_j, b_j)

    @functools.lru_cache(maxsize=1024)
    def norm(k):
        vals = sc.eval_jacobi(k, a_j, b_j, nodes)
        raw = float(np.dot(weights, vals * vals))
        return 1.0 / math.sqrt(raw)

    def phi(k, x):
        u = 2.0 * np.asarray(x, float) - 1.0
        return sc.eval_jacobi(k, a_j, b_j, u) * norm(k)

    def phi_prime(k, x):
        if k == 0:
            return np.zeros_like(np.asarray(x, float))
        u = 2.0 * np.asarray(x, float) - 1.0
        return (k + a_j + b_j + 1.0) * sc.eval_jacobi(k - 1, a_j + 1.0, b_j + 1.0, u) * norm(k)

    return SpectralBasis(
        spec=spec,
        eigenvalue=lambda k: 2.0 * k * (k + beta + gamma - 1.0),
        phi=phi,
        phi_prime=phi_prime,
        max_terms=150,
        grid=np.linspace(1e-6, 1.0 - 1e-6, 257),
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


def _ids(fam, names="", conv=float):
    """Id grammar 'fam' or 'fam:v1,...,vk' with k = len(names.split(',')):
    the form quoted in errors, the parser of the ':'-fields after the family
    name (ValueError when malformed) and the canonical formatter."""
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
    f, _, shift, name = _INTERVAL_MODES[params]
    freqs = [j + shift for j in range(n)]
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
    coords: str = "linear"  # quadrature coordinates: "linear", "sqrt" or "log"


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
        kernel=lambda s: _laguerre_kernel(s, *s.params),
        basis=_laguerre_basis,
        eigen=lambda p, n: _vandermonde(n, -float(n * (n - 1))),
        ladder=lambda p, m: _id("lag", (p[0] + 2 * m,)),
        coords="sqrt",
    ),
    "lag_dual": _Family(
        **_ids("lag_dual", "alpha"),
        build=lambda alpha: _laguerre_spec("lag_dual", alpha, dual=True),
        dual=lambda p: _id("lag", p),
        kernel=lambda s: _laguerre_dual_kernel(s, *s.params),
        coords="sqrt",
    ),
    "jac": _Family(
        **_ids("jac", "beta,gamma"),
        build=lambda beta, gamma: _jacobi_spec("jac", beta, gamma, dual=False),
        dual=lambda p: _id("jac_dual", p),
        kernel=_spectral_only_kernel,
        basis=_jacobi_basis,
        eigen=lambda p, n: _vandermonde(
            n, -sum(2.0 * k * (k + p[0] + p[1] - 1.0) for k in range(n))
        ),
        ladder=lambda p, m: _id("jac", (p[0] + m, p[1] + m)),
    ),
    "jac_dual": _Family(
        **_ids("jac_dual", "beta,gamma"),
        build=lambda beta, gamma: _jacobi_spec("jac_dual", beta, gamma, dual=True),
        dual=lambda p: _id("jac", p),
        kernel=lambda s: _jacobi_dual_kernel(s, *s.params),
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
    ladder = getattr(FAMILIES.get(base.family), "ladder", None)
    if n > 1 and ladder is None:
        raise ValueError(f"edge ladder undefined for family {base.family!r}")
    return [accept(make_spec(ladder(base.params, n - k))) if k < n else base
            for k in range(1, n + 1)]


def gaussian_moments(spec: DiffusionSpec):
    """(mean(t, x), var(t), dmean_dx(t)) of a Gaussian family's kernel, else None."""
    rec = FAMILIES.get(spec.family)
    return rec.gaussian(spec.params) if rec is not None and rec.gaussian else None


def _exact(spec: DiffusionSpec):
    """The family record's (step, draws) for spec, or None when spec's
    family has no sampler of its kernel or spec is killed at an end, since
    the draw has the law of the unkilled motion."""
    rec = FAMILIES.get(spec.family)
    killing = {Boundary.EXIT, Boundary.REGULAR_ABSORBING}
    if rec is None or rec.step is None or killing & {spec.behavior_l, spec.behavior_r}:
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
    'sqrt' (u = sqrt(y)) and 'log' (u = log(y)) remove endpoint kinks.  'sqrt'
    is also the Lamperti coordinate of a = 2x, in which the noise is unit."""
    rec = FAMILIES.get(spec.family)
    return rec.coords if rec is not None else "linear"


# u = fwd(y), y = inv(u) and dy/du of the non-linear quadrature coordinates
_COORD_MAPS = {
    "sqrt": (np.sqrt, np.square, lambda u, y: 2.0 * u),
    "log": (np.log, np.exp, lambda u, y: y),
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
