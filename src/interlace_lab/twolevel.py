"""Two-level block-determinant kernels on interlacing spaces.

For a diffusion with kernel p and its dual p_hat, the two-level kernel on
configurations z = (x, y) -> z' = (x', y') is the determinant of the block
matrix

    [ A  B ]     A_ij = p_t(x_i, x'_j)
    [ C  D ]     B_ij = m_hat(y'_j) (F_t(x_i, y'_j) - ind(i, j))
                 C_ij = -(1/s'(y_i)) d/dy_i p_t(y_i, x'_j)
                 D_ij = p_hat_t(y_i, y'_j)

with F_t(x, y) = P_x(X_t <= y) including any boundary atom at l, and
m_hat = s' (scale density of the forward diffusion).  The indicator is
1(j >= i) on W^{n,n+1} and 1(j > i) on W^{n,n} and, by the same recipe,
on W^{n+1,n} (the two-sided-killing variant; tested only through its mass
and projection identities).

The module also provides the interlacing integral operators (unnormalized
and Markov-normalized), and quadrature residuals for the projection
(Dynkin) identity, the intertwining with killed determinant semigroups,
and the semigroup property.  Chamber and fiber nodes come from
diffusion1d.catalog.chamber_quad and fiber_quad (clipped to the spec's
interval, in the family's coordinates).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .diffusion1d import (
    Boundary,
    DiffusionSpec,
    TransitionKernel,
    conjugate,
    kernel,
    scale_speed,
)
from .diffusion1d.catalog import chamber_quad, fiber_quad
from .kmgroup import Eigenfunction, km_density


class Shape(enum.Enum):
    NNP1 = "n,n+1"  # x has one more particle than y
    NN = "n,n"      # equal counts, y below x
    NP1N = "n+1,n"  # y has one more particle than x


class BoundaryAssumptionError(ValueError):
    """The diffusion's boundary behaviour violates the shape's assumptions."""


_ALLOWED = {
    Shape.NNP1: (
        {Boundary.NATURAL, Boundary.ENTRANCE, Boundary.REGULAR_REFLECTING},
        {Boundary.NATURAL, Boundary.ENTRANCE, Boundary.REGULAR_REFLECTING},
    ),
    Shape.NN: (
        {Boundary.NATURAL, Boundary.EXIT, Boundary.REGULAR_ABSORBING},
        {Boundary.NATURAL, Boundary.ENTRANCE, Boundary.REGULAR_REFLECTING},
    ),
    Shape.NP1N: (
        {Boundary.NATURAL, Boundary.EXIT, Boundary.REGULAR_ABSORBING},
        {Boundary.NATURAL, Boundary.EXIT, Boundary.REGULAR_ABSORBING},
    ),
}


def check_shape_assumptions(spec: DiffusionSpec, shape: Shape) -> None:
    allow_l, allow_r = _ALLOWED[shape]
    if spec.behavior_l not in allow_l or spec.behavior_r not in allow_r:
        raise BoundaryAssumptionError(
            f"{spec.name}: boundary behaviours ({spec.behavior_l.value}, "
            f"{spec.behavior_r.value}) violate the {shape.value} assumptions"
        )


def counts(shape: Shape, n1: int) -> int:
    """Number of x particles given n1 = len(y)."""
    return {Shape.NNP1: n1 + 1, Shape.NN: n1, Shape.NP1N: n1 - 1}[shape]


def interlaces(x, y, shape: Shape, l=-np.inf, r=np.inf, tol=0.0) -> bool:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    lo, hi = fiber_bounds(x, shape, l, r)
    return bool(np.all(y >= lo - tol) and np.all(y <= hi + tol))


def fiber_bounds(x, shape: Shape, l=-np.inf, r=np.inf):
    """Per-coordinate bounds of the y-fiber over a fixed x level."""
    x = np.asarray(x, float)
    if shape is Shape.NNP1:
        return x[..., :-1], x[..., 1:]
    if shape is Shape.NN:
        lo = np.concatenate([np.full(x.shape[:-1] + (1,), l), x[..., :-1]], axis=-1)
        return lo, x
    lo = np.concatenate([np.full(x.shape[:-1] + (1,), l), x], axis=-1)
    hi = np.concatenate([x, np.full(x.shape[:-1] + (1,), r)], axis=-1)
    return lo, hi


def x_fiber_bounds(y, shape: Shape, l=-np.inf, r=np.inf):
    """Per-coordinate bounds of the x-fiber over a fixed y level."""
    y = np.asarray(y, float)
    if shape is Shape.NNP1:
        lo = np.concatenate([np.full(y.shape[:-1] + (1,), l), y], axis=-1)
        hi = np.concatenate([y, np.full(y.shape[:-1] + (1,), r)], axis=-1)
        return lo, hi
    if shape is Shape.NN:
        hi = np.concatenate([y[..., 1:], np.full(y.shape[:-1] + (1,), r)], axis=-1)
        return y, hi
    return y[..., :-1], y[..., 1:]


@dataclass(frozen=True)
class InterlacingConfig:
    shape: Shape
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, float)
        y = np.asarray(self.y, float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape[-1] != counts(self.shape, y.shape[-1]):
            raise ValueError("particle counts do not match the shape")
        if not interlaces(x, y, self.shape, tol=1e-12):
            raise ValueError("configuration violates the interlacing inequalities")


@dataclass(eq=False)
class TwoLevelSystem:
    """Kernel bundle for one diffusion/shape pair: the kernel of spec, the
    kernel of its conjugate, and m_hat = s' of spec, all derived from spec."""

    spec: DiffusionSpec
    shape: Shape
    kern: TransitionKernel = field(init=False)
    dual_kern: TransitionKernel = field(init=False)
    m_hat: Callable = field(init=False)

    def __post_init__(self):
        check_shape_assumptions(self.spec, self.shape)
        self.kern = kernel(self.spec)
        self.dual_kern = kernel(conjugate(self.spec))
        self.m_hat = scale_speed(self.spec).s_prime

    def indicator(self, n1: int, n2: int) -> np.ndarray:
        i = np.arange(1, n2 + 1)[:, None]
        j = np.arange(1, n1 + 1)[None, :]
        if self.shape is Shape.NNP1:
            return (j >= i).astype(float)
        return (j > i).astype(float)


def block_kernel(
    sys: TwoLevelSystem,
    t: float,
    z_from,
    z_to,
    perturb: Optional[str] = None,
):
    """q_t(z, z') for batches of configurations.

    z_from, z_to: (x, y) pairs; arrays may carry leading batch axes that
    broadcast against each other.  `perturb` deliberately miswires the
    kernel for negative-control campaigns ('indicator' or 'c_sign').
    """
    x, y = (np.asarray(a, float) for a in z_from)
    xp, yp = (np.asarray(a, float) for a in z_to)
    n2, n1 = x.shape[-1], y.shape[-1]
    ind = sys.indicator(n1, n2)
    if perturb == "indicator":
        ind = (np.arange(1, n1 + 1)[None, :] >= np.arange(1, n2 + 1)[:, None]).astype(float) \
            if sys.shape is not Shape.NNP1 else \
            (np.arange(1, n1 + 1)[None, :] > np.arange(1, n2 + 1)[:, None]).astype(float)
    c_sign = 1.0 if perturb == "c_sign" else -1.0

    batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1], xp.shape[:-1], yp.shape[:-1])
    m = n1 + n2
    M = np.empty(batch + (m, m))
    spy = np.asarray(sys.m_hat(y), float)
    mh = np.asarray(sys.m_hat(yp), float)
    for i in range(n2):
        for j in range(n2):
            M[..., i, j] = sys.kern.density(t, x[..., i], xp[..., j])
        for j in range(n1):
            M[..., i, n2 + j] = mh[..., j] * (
                sys.kern.cdf(t, x[..., i], yp[..., j]) - ind[i, j]
            )
    for i in range(n1):
        for j in range(n2):
            M[..., n2 + i, j] = c_sign * sys.kern.dx_derivative(
                1, t, y[..., i], xp[..., j]
            ) / spy[..., i]
        for j in range(n1):
            M[..., n2 + i, n2 + j] = sys.dual_kern.density(t, y[..., i], yp[..., j])
    return np.linalg.det(M)


def _image_nodes(sys: TwoLevelSystem, t: float, z, n_nodes: int):
    """Quadrature nodes over the image space W^{n1,n2} within the kernel
    window of the starting configuration: ordered x'-chamber, then the
    y'-fiber boxes over each x' node."""
    x, y = z
    lo, hi = sys.kern.window(t, np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]))
    xp, wx = chamber_quad(sys.spec, np.shape(x)[-1], lo, hi, n_nodes)
    yp, wy, outer = fiber_quad(sys.spec, *fiber_bounds(xp, sys.shape, lo, hi), n_nodes)
    w = wx[outer] * wy
    return xp[outer], yp, w


def submarkov_mass(sys: TwoLevelSystem, t: float, z, n_nodes: int = 32) -> float:
    """Total mass int q_t(z, z') dz' over the interlacing image space."""
    xp, yp, w = _image_nodes(sys, t, z, n_nodes)
    q = block_kernel(sys, t, z, (xp, yp))
    return float(np.dot(w, q))


def collapse_residual(sys: TwoLevelSystem, t: float, z, yp, n_nodes: int = 48) -> float:
    """|int_fiber q_t(z, (x', y')) dx' - det(p_hat_t(y_i, y'_j))|.

    Integrating out x' must collapse the block determinant onto the dual
    determinant; this is the identity behind the projection intertwining.
    """
    x, y = z
    yp = np.asarray(yp, float)
    lo, hi = sys.kern.window(t, np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]))
    xp, wx, _ = fiber_quad(sys.spec, *x_fiber_bounds(yp, sys.shape, lo, hi), n_nodes)
    q = block_kernel(sys, t, z, (xp, np.repeat(yp[None, :], xp.shape[0], axis=0)))
    lhs = float(np.dot(wx, q))
    return abs(lhs - float(km_density(sys.dual_kern, t, np.asarray(y, float), yp)))


# ---------------------------------------------------------------------------
# interlacing integral operators
# ---------------------------------------------------------------------------


def lambda_apply(
    spec: DiffusionSpec,
    shape: Shape,
    f: Callable,
    x,
    h_hat: Optional[Eigenfunction] = None,
    n_nodes: int = 48,
):
    """(Lambda f)(x) = int_fiber prod m_hat(y_i) f(x, y) dy, or the Markov
    normalized version when a positive dual eigenfunction is supplied.

    f maps (x (N, n2), y (N, n1)) -> (N,).  A divergent fiber integral
    (infinite fiber with non-integrable weight) raises ArithmeticError.
    """
    x = np.asarray(x, float)
    l, r = spec.interval
    mh_fun = scale_speed(spec).s_prime
    lo_w, hi_w = kernel(spec).window(1.0, x)

    def on_window(pad):
        lo, hi = fiber_bounds(x[None, :], shape, lo_w - pad, hi_w + pad)
        yp, wy, _ = fiber_quad(spec, lo, hi, n_nodes)
        weights = np.prod(np.asarray(mh_fun(yp), float), axis=-1)
        xrep = np.repeat(x[None, :], yp.shape[0], axis=0)
        if h_hat is None:
            return float(np.dot(wy, weights * f(xrep, yp))), 1.0
        hy = h_hat(yp)
        return (
            float(np.dot(wy, weights * hy * f(xrep, yp))),
            float(np.dot(wy, weights * hy)),
        )

    unbounded = (shape is not Shape.NNP1 and np.isinf(l)) or (
        shape is Shape.NP1N and np.isinf(r)
    )
    num, den = on_window(10.0)
    if unbounded:
        num2, den2 = on_window(25.0)
        scale = max(abs(num), abs(den), 1.0)
        if abs(num2 - num) + abs(den2 - den) > 1e-6 * scale:
            raise ArithmeticError("fiber integral diverged (infinite endpoint)")
        num, den = num2, den2
    if not (np.isfinite(num) and np.isfinite(den)) or (h_hat is not None and den <= 0):
        raise ArithmeticError("fiber integral diverged")
    return num / den if h_hat is not None else num


def lambda_mass(spec, shape, x, h_hat, n_nodes: int = 48) -> float:
    """h_{n2}(x): unnormalized Lambda applied to the dual eigenfunction."""
    return lambda_apply(
        spec, shape, lambda xr, yr: h_hat(yr), x, h_hat=None, n_nodes=n_nodes
    )


def sample_interlacing_fiber(
    rng: np.random.Generator,
    spec: DiffusionSpec,
    shape: Shape,
    x,
    h_hat: Optional[Eigenfunction] = None,
    size: int = 1,
    oversample: int = 8,
) -> np.ndarray:
    """Draw y from the normalized fiber density prop. to prod m_hat(y) h(y).

    Rejection from the uniform law on the fiber box, with 1.6 times the
    weight's largest value on the fiber's quadrature nodes as the envelope
    (the fiber is compact and the weight bounded for the starts used here).
    """
    x = np.asarray(x, float)
    l, r = spec.interval
    lo, hi = fiber_bounds(x, shape, l, r)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("fiber is unbounded; supply an explicit sampler")
    n1 = lo.shape[-1]
    mh_fun = scale_speed(spec).s_prime

    def weight(y):
        w = np.prod(np.asarray(mh_fun(y), float), axis=-1)
        if h_hat is not None:
            w = w * np.maximum(h_hat(y), 0.0)
        return w

    probe, _, _ = fiber_quad(spec, lo[None, :], hi[None, :], 24)
    bound = 1.6 * float(np.max(weight(probe))) + 1e-300
    out = np.empty((size, n1))
    got = 0
    while got < size:
        m = max(oversample * (size - got), 128)
        y = rng.uniform(lo, hi, size=(m, n1))
        y.sort(axis=1)
        keep = rng.random(m) * bound < weight(y)
        acc = y[keep]
        take = min(size - got, acc.shape[0])
        out[got : got + take] = acc[:take]
        got += take
    return out


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def dynkin_residual(
    sys: TwoLevelSystem, t: float, f: Callable, z, n_nodes: int = 32
) -> float:
    """|(P_hat^{n1} f)(y) - int q_t(z, dz') f(y')| for f on the y level."""
    x, y = z
    y = np.asarray(y, float)
    ypts, wy = chamber_quad(sys.spec, y.shape[-1], *sys.dual_kern.window(t, y), max(n_nodes, 48))
    lhs = float(np.dot(wy, km_density(sys.dual_kern, t, y, ypts) * f(ypts)))
    xp, yp, w = _image_nodes(sys, t, z, n_nodes)
    rhs = float(np.dot(w, block_kernel(sys, t, z, (xp, yp)) * f(yp)))
    return abs(lhs - rhs)


def q_h_mass(sys: TwoLevelSystem, h_hat: Eigenfunction, t: float, z, n_nodes: int = 32) -> float:
    """Total mass of the h-transformed two-level kernel (should be 1)."""
    x, y = z
    xp, yp, w = _image_nodes(sys, t, z, n_nodes)
    q = block_kernel(sys, t, z, (xp, yp))
    hy = float(h_hat(np.asarray(y, float)))
    return float(np.dot(w, q * h_hat(yp))) * math.exp(-h_hat.rate * t) / hy


def master_intertwining_residual(
    sys: TwoLevelSystem,
    h_hat: Eigenfunction,
    t: float,
    fs: Sequence[Callable],
    x,
    n_nodes: int = 24,
    fiber_nodes: int = 24,
    perturb: Optional[str] = None,
) -> list:
    """Residuals |(P^{n2,h} Lambda^h f)(x) - (Lambda^h Q^h f)(x)| for each f.

    h(x) = (Lambda Pi h_hat)(x) shares the dual eigenfunction's rate.  The
    left side is an ordered-chamber integral of the h-transformed killed
    determinant density against the normalized fiber average of f; the
    right side integrates the block kernel from every fiber point of x.
    """
    x = np.asarray(x, float)
    n2 = x.shape[-1]
    lam = h_hat.rate
    hx = lambda_mass(sys.spec, sys.shape, x, h_hat, n_nodes=max(48, fiber_nodes))
    xp, wx = chamber_quad(sys.spec, n2, *sys.kern.window(t, x), n_nodes)

    # normalized fiber integrals at each x' node, for every test function
    yf, wf, outer = fiber_quad(sys.spec, *fiber_bounds(xp, sys.shape), fiber_nodes)
    mh = np.prod(np.asarray(sys.m_hat(yf), float), axis=-1)
    hyf = h_hat(yf)
    xf = xp[outer]
    base = wf * mh * hyf
    hxp = np.zeros(xp.shape[0])
    np.add.at(hxp, outer, base)
    lhs_vals = []
    kmh = km_density(sys.kern, t, x, xp)
    fvals = [f(xf, yf) for f in fs]
    for fv in fvals:
        num = np.zeros(xp.shape[0])
        np.add.at(num, outer, base * fv)
        lam_f = num / np.maximum(hxp, 1e-300)
        lhs = math.exp(-lam * t) / hx * float(np.dot(wx, hxp * kmh * lam_f))
        lhs_vals.append(lhs)

    # right side: integrate q from each fiber point of x over the same
    # (x', y') nodes
    ylo, yhi = fiber_bounds(x[None, :], sys.shape)
    y0, w0, _ = fiber_quad(sys.spec, ylo, yhi, max(24, fiber_nodes))
    mh0 = np.prod(np.asarray(sys.m_hat(y0), float), axis=-1)
    wz = wx[outer] * wf
    inner = np.zeros((len(fs), y0.shape[0]))
    for i in range(y0.shape[0]):
        q = block_kernel(sys, t, (x, y0[i]), (xf, yf), perturb=perturb)
        for k in range(len(fs)):
            inner[k, i] = np.dot(wz, q * hyf * fvals[k])
    rhs_vals = []
    for k in range(len(fs)):
        rhs = math.exp(-lam * t) / hx * float(np.dot(w0, mh0 * inner[k]))
        rhs_vals.append(rhs)
    return [abs(a - b) for a, b in zip(lhs_vals, rhs_vals)]


def chapman_residual(
    sys: TwoLevelSystem, s: float, t: float, z, z2, n_nodes: int = 48
) -> float:
    """Relative residual of q_{s+t}(z, z2) = int q_s(z, w) q_t(w, z2) dw."""
    lhs = float(block_kernel(sys, s + t, z, z2))
    xp, yp, w = _image_nodes(sys, s + t, z, n_nodes)
    qs = block_kernel(sys, s, z, (xp, yp))
    qt = block_kernel(sys, t, (xp, yp), z2)
    rhs = float(np.dot(w, qs * qt))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def test_function_basis(center_x, center_y, width: float = 1.0):
    """Bounded, smooth, sign-varying probes: constants, coordinate sums,
    and a product Gaussian bump."""
    cx = np.asarray(center_x, float)
    cy = np.asarray(center_y, float)

    def f_one(xp, yp):
        return np.ones(np.asarray(xp).shape[:-1])

    def f_sum(xp, yp):
        return np.sum(xp, axis=-1) + np.sum(yp, axis=-1)

    def f_bump(xp, yp):
        dx = (np.asarray(xp, float) - cx) / width
        dy = (np.asarray(yp, float) - cy) / width
        return np.exp(-0.5 * np.sum(dx * dx, axis=-1) - 0.5 * np.sum(dy * dy, axis=-1))

    return [f_one, f_sum, f_bump]
