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

The interlacing rule lives here alone: x_i lies between y_{i-1+above} and
y_{i+above} (Shape.above), or a wall.  interlace_slices gives the stepper's
bounding columns, and interlace_bounds the bounds of both fibers, the
indicator 1(j >= i + above) and reflectsde's start check.

Each block depends on two of the four arguments, and block_kernel
evaluates it in one kernel call over the broadcast of only those two
(x[..., :, None] against x'[..., None, :], and so on), then hands views
of the blocks' entries to kmgroup.det, whose cofactor products broadcast
only the blocks they touch.  The image-space nodes carry that structure:
x' is laid out as (N, 1, n2) and y' as (N, F, n1), the F fiber nodes over
each of the N chamber nodes, with weights (N, F), so A and C are
evaluated once per x' node rather than once per (x', y') node.  The
intertwining residual builds the x rows [A | B] once and only the y rows
[C | D] for each starting fiber point.

The module also provides quadrature residuals for the projection
(Dynkin) identity, the intertwining with killed determinant semigroups,
and the semigroup property.  The intertwining's normaliser h = Lambda h_hat
is a sum over the fiber nodes of x that its right side already lays, not
a quadrature of its own.  Chamber and fiber nodes come from
diffusion1d.catalog.chamber_quad and fiber_quad (clipped to the spec's
interval, in the family's coordinates, one row of fiber nodes per box).
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
)
from .diffusion1d.catalog import chamber_quad, fiber_quad
from .kmgroup import Eigenfunction, det, km_density


class Shape(enum.Enum):
    NNP1 = "n,n+1"  # x has one more particle than y
    NN = "n,n"      # equal counts, y below x
    NP1N = "n+1,n"  # y has one more particle than x

    @property
    def above(self) -> int:
        """x's offset over y: x_i lies between y_{i-1+above} and y_{i+above}."""
        return int(self is not Shape.NNP1)


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


_EXTRA = {Shape.NNP1: 1, Shape.NN: 0, Shape.NP1N: -1}  # x particles less y particles


def counts(shape: Shape, n1: int) -> int:
    """Number of x particles given n1 = len(y)."""
    return n1 + _EXTRA[shape]


def interlace_slices(size: int, m: int, shift: int):
    """(particles, columns): the particles i of a level of `size` whose
    bounding column i + shift of the previous level (m columns) exists, and
    those columns, as slices; every other particle is bounded by a wall."""
    lo = min(max(-shift, 0), size)
    hi = max(min(m - shift, size), lo)
    return slice(lo, hi), slice(lo + shift, hi + shift)


def interlace_bounds(prev, size: int, above: int, l=-np.inf, r=np.inf):
    """(lower, upper) bounds of a level of `size` particles that interlaces
    with prev (..., m): particle i lies between columns i-1+above and
    i+above of prev, or the wall l or r where that column does not exist."""
    prev = np.asarray(prev, float)
    bounds = tuple(np.full(prev.shape[:-1] + (size,), wall, float) for wall in (l, r))
    for bound, shift in zip(bounds, (above - 1, above)):
        p, cols = interlace_slices(size, prev.shape[-1], shift)
        bound[..., p] = prev[..., cols]
    return bounds


def fiber_bounds(x, shape: Shape, l=-np.inf, r=np.inf):
    """Per-coordinate bounds of the y-fiber over a fixed x level: x sits
    `above` over y, so y sits 1 - above over x."""
    x = np.asarray(x, float)
    return interlace_bounds(x, x.shape[-1] - _EXTRA[shape], 1 - shape.above, l, r)


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
        self.m_hat = self.spec.scale.s_prime

    def indicator(self, n1: int, n2: int) -> np.ndarray:
        """1(j >= i + above): y_j at or above x_i's upper bounding column."""
        j = np.arange(n1, dtype=float)
        _, upper = interlace_bounds(j, n2, self.shape.above)
        return (j[None, :] >= upper[:, None]).astype(float)


def _x_rows(sys: TwoLevelSystem, t: float, x, xp, yp, perturb=None):
    """The blocks A and B of the x rows [A | B], A evaluated over the batch
    axes of x and x' only, B over those of x and y' only."""
    n2, n1 = x.shape[-1], yp.shape[-1]
    ind = sys.indicator(n1, n2)
    if perturb == "indicator":
        # the other shape's indicator: 1(j >= i) and 1(j > i) differ on j = i
        ind = np.abs(ind - np.eye(n2, n1))
    xi = x[..., :, None]
    mh = np.asarray(sys.m_hat(yp), float)[..., None, :]
    return (sys.kern.density(t, xi, xp[..., None, :]),
            mh * (sys.kern.cdf(t, xi, yp[..., None, :]) - ind))


def _y_rows(sys: TwoLevelSystem, t: float, y, xp, yp, perturb=None):
    """The blocks C and D of the y rows [C | D], C evaluated over the batch
    axes of y and x' only, D over those of y and y' only."""
    c_sign = 1.0 if perturb == "c_sign" else -1.0
    yi = y[..., :, None]
    spy = np.asarray(sys.m_hat(y), float)[..., :, None]
    return (c_sign * sys.kern.dx_derivative(1, t, yi, xp[..., None, :]) / spy,
            sys.dual_kern.density(t, yi, yp[..., None, :]))


def _det(a, b, c, d):
    """det [[a, b], [c, d]] over the broadcast batch axes of the blocks.

    kmgroup.det takes views of the blocks' entries, so no full matrix is
    built and each product broadcasts only the batch axes of its own
    blocks; the y' column of the 3 x 3 shapes is last, so its expansion
    forms the minors of A and C on the x' axes alone.
    """
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2], c.shape[:-2], d.shape[:-2])
    n2, n1 = a.shape[-1], d.shape[-1]
    rows = ([[a[..., i, j] for j in range(n2)] + [b[..., i, j] for j in range(n1)]
             for i in range(n2)]
            + [[c[..., i, j] for j in range(n2)] + [d[..., i, j] for j in range(n1)]
               for i in range(n1)])
    q = det(rows)
    # an empty level contributes no entries, so its batch axes come back here
    return q if np.shape(q) == batch else np.broadcast_to(q, batch).copy()


def _check_perturb(perturb):
    if perturb not in (None, "indicator", "c_sign"):
        raise ValueError(f"unknown perturb {perturb!r}: expected 'indicator' or 'c_sign'")


def block_kernel(
    sys: TwoLevelSystem,
    t: float,
    z_from,
    z_to,
    perturb: Optional[str] = None,
):
    """q_t(z, z') for batches of configurations.

    z_from, z_to: (x, y) pairs; arrays may carry leading batch axes that
    broadcast against each other.  Each block is evaluated over the batch
    axes of its own two arguments only, so a batch whose x' varies along
    fewer axes than its y' (as _image_nodes lays them out) evaluates A and
    C once per x' node.  `perturb` deliberately miswires the kernel for
    negative-control campaigns: 'indicator' takes the fiber indicator of
    the other shape, 'c_sign' flips the sign of the lower-left block.
    """
    _check_perturb(perturb)
    x, y = (np.asarray(a, float) for a in z_from)
    xp, yp = (np.asarray(a, float) for a in z_to)
    return _det(*_x_rows(sys, t, x, xp, yp, perturb), *_y_rows(sys, t, y, xp, yp, perturb))


def _window(sys: TwoLevelSystem, t: float, z):
    """The kernel window at time t around every coordinate of z = (x, y)."""
    x, y = z
    return sys.kern.window(t, np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]))


def _image_nodes(sys: TwoLevelSystem, z, window, n_nodes: int):
    """Quadrature nodes over the image space W^{n1,n2} within window =
    (lo, hi), for x of z's size: the ordered x'-chamber, then the y'-fiber
    box over each x' node.  Returns x' (N, 1, n2), y' (N, F, n1) and
    weights (N, F), so that block_kernel evaluates the blocks that do not
    depend on y' once per x' node."""
    lo, hi = window
    xp, wx = chamber_quad(sys.spec, np.shape(z[0])[-1], lo, hi, n_nodes)
    yp, wy = fiber_quad(sys.spec, *fiber_bounds(xp, sys.shape, lo, hi), n_nodes)
    return xp[:, None, :], yp, wx[:, None] * wy


def collapse_residual(sys: TwoLevelSystem, t: float, z, yp, n_nodes: int = 48) -> float:
    """|int_fiber q_t(z, (x', y')) dx' - det(p_hat_t(y_i, y'_j))|.

    Integrating out x' must collapse the block determinant onto the dual
    determinant; this is the identity behind the projection intertwining.
    """
    x, y = z
    yp = np.asarray(yp, float)
    xb = interlace_bounds(yp[None, :], np.shape(x)[-1], sys.shape.above, *_window(sys, t, z))
    (xp,), (wx,) = fiber_quad(sys.spec, *xb, n_nodes)
    q = block_kernel(sys, t, z, (xp, yp[None, :]))
    lhs = float(np.dot(wx, q))
    return abs(lhs - float(km_density(sys.dual_kern, t, np.asarray(y, float), yp)))


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def dynkin_residual(
    sys: TwoLevelSystem, t: float, f: Callable, z, n_nodes: int = 32
) -> float:
    """|(P_hat^{n1} f)(y) - int q_t(z, dz') f(y')| for f on the y level.

    f = 1 gives the mass q_t misses; f = h_hat, a dual eigenfunction of
    rate 0, gives h_hat(y) times the mass the h-transformed kernel misses."""
    x, y = z
    y = np.asarray(y, float)
    ypts, wy = chamber_quad(sys.spec, y.shape[-1], *sys.dual_kern.window(t, y), max(n_nodes, 48))
    lhs = float(np.dot(wy, km_density(sys.dual_kern, t, y, ypts) * f(ypts)))
    xp, yp, w = _image_nodes(sys, z, _window(sys, t, z), n_nodes)
    fy = f(yp.reshape(-1, yp.shape[-1])).reshape(w.shape)
    rhs = float(np.sum(w * block_kernel(sys, t, z, (xp, yp)) * fy))
    return abs(lhs - rhs)


def master_intertwining_residual(
    sys: TwoLevelSystem,
    h_hat: Eigenfunction,
    t: float,
    fs: Sequence[Callable],
    x,
    perturb: Optional[str] = None,
) -> list:
    """Residuals |(P^{n2,h} Lambda^h f)(x) - (Lambda^h Q^h f)(x)| for each f.

    h(x) = (Lambda Pi h_hat)(x) = int_fiber prod m_hat(y_i) h_hat(y) dy
    shares the dual eigenfunction's rate, and is summed over the fiber
    nodes of x that the right side starts from.  The left side is an
    ordered-chamber integral of the h-transformed killed determinant
    density against the normalized fiber average of f; the right side
    integrates the block kernel from every fiber point of x.  A fiber
    with an infinite end (or an end outside the family's coordinates)
    gives no finite h(x), and raises ArithmeticError naming the spec and
    the shape before any image-space node is laid.
    """
    _check_perturb(perturb)
    nodes = 24  # chamber nodes, and fiber nodes per dimension
    x = np.asarray(x, float)
    n2 = x.shape[-1]
    ylo, yhi = fiber_bounds(x[None, :], sys.shape)
    # an infinite end lays non-finite nodes; the check below reports it
    with np.errstate(all="ignore"):
        (y0,), (w0,) = fiber_quad(sys.spec, ylo, yhi, nodes)
        mh0 = np.prod(np.asarray(sys.m_hat(y0), float), axis=-1)
        hx = float(np.sum(w0 * mh0 * h_hat(y0)))
    if not (math.isfinite(hx) and hx > 0.0):
        raise ArithmeticError(f"{sys.spec.name} on {sys.shape.value}: h(x) = {hx!r} over the "
                              f"fiber of x = {x.tolist()} is not finite and positive")
    decay = math.exp(-h_hat.rate * t)
    xp, wx = chamber_quad(sys.spec, n2, *sys.kern.window(t, x), nodes)

    # normalized fiber integrals at each x' node, for every test function
    yf, wf = fiber_quad(sys.spec, *fiber_bounds(xp, sys.shape), nodes)
    hyf = h_hat(yf)
    base = wf * np.prod(np.asarray(sys.m_hat(yf), float), axis=-1) * hyf
    hxp = np.sum(base, axis=-1)
    xf = np.broadcast_to(xp[:, None, :], yf.shape[:-1] + (n2,)).reshape(-1, n2)
    fvals = np.stack([f(xf, yf.reshape(-1, yf.shape[-1])).reshape(wf.shape) for f in fs])
    lam_f = np.sum(base * fvals, axis=-1) / np.maximum(hxp, 1e-300)
    lhs = decay / hx * (lam_f @ (wx * hxp * km_density(sys.kern, t, x, xp)))

    # right side: integrate q from each fiber point of x over the same
    # (x', y') nodes; the x rows do not depend on that point
    xp = xp[:, None, :]
    ab = _x_rows(sys, t, x, xp, yf, perturb)
    g = (wx[:, None] * wf * hyf * fvals).reshape(len(fs), -1)
    inner = np.empty((len(fs), y0.shape[0]))
    for i in range(y0.shape[0]):
        q = _det(*ab, *_y_rows(sys, t, y0[i], xp, yf, perturb))
        inner[:, i] = g @ q.reshape(-1)
    rhs = decay / hx * (inner @ (w0 * mh0))
    return [float(r) for r in np.abs(lhs - rhs)]


def chapman_residual(
    sys: TwoLevelSystem, s: float, t: float, z, z2, n_nodes: int = 31
) -> float:
    """Relative residual of q_{s+t}(z, z2) = int q_s(z, w) q_t(w, z2) dw.

    The integral runs over the window where both factors live: the
    intersection of the time-s window around z and the time-t window
    around z2.  The second is the window of q_t(., z2) as a function of its
    start w only when the kernel's backward window is its forward one, as
    for the m-symmetric kernels (bm) this check is run on; outside that
    intersection one factor is below the window bound.  At s = t it is
    about 2/3 of the time-(s+t) window around z, so fewer nodes reach the
    same error: on A3's probes the worst residual is 8.1e-5 at the default
    31 nodes, and was 7.9e-3 at 32 and 2.1e-5 at 48 on the full window.
    """
    lhs = float(block_kernel(sys, s + t, z, z2))
    lo_s, hi_s = _window(sys, s, z)
    lo_t, hi_t = _window(sys, t, z2)
    lo = max(lo_s, lo_t)
    hi = max(min(hi_s, hi_t), lo)  # an empty intersection integrates nothing
    xp, yp, w = _image_nodes(sys, z, (lo, hi), n_nodes)
    qs = block_kernel(sys, s, z, (xp, yp))
    qt = block_kernel(sys, t, (xp, yp), z2)
    rhs = float(np.sum(w * qs * qt))
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
