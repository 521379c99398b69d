"""Determinantal transition densities for edge particle systems.

The k-th particle of the one-sided-collision ladder runs the generator with
drift b^{(k)} = b + (n-k) a', which requires a quadratic in x and b affine
(catalog.edge_ladder, which also rejects an end not natural or entrance).
Writing p^{(k)} for its transition density, define

    S^{(k),j}(x, x') = int_l^{x'} (x'-z)^{j-1}/(j-1)!  p^{(k)}(x, z) dz   (j >= 1)
                       d^{-j}/dx'^{-j} p^{(k)}(x, x')                     (j <= 0)

and the downward variant Sbar with -int_{x'}^r in place of int_l^{x'}.
Every family takes one rule: j <= 0 are the level kernel's density and
y-derivatives, j = 1 its CDF, and j >= 2 one density_integral over the
level kernel's window.  The rising edge has transition density
det(S^{(i),i-j}(x_i, x'_j)) and the falling edge det(Sbar^{(i),i-j});
integrating once more gives the extreme particle distributions

    P(max <= z) = det(S^{(i),i-j+1}(x0_i, z)),
    P(min >= z) = det(-Sbar^{(i),i-j+1}(x0_i, z)),

which are continuous up to a coincident start x0_1 = ... = x0_n and are
evaluated there directly.

Level k is the h-transform of the dual of level k+1 by the reciprocal dual
speed density, with eigenvalue c_{k,n} = 2(n-k-1) a_2 + b_1; the entries
obey S^{(i-1),j}(x,x') = -e^{-c_{i-1,n} t} d/dx S^{(i),j+1}(x,x'), which is
what makes the determinant satisfy the reflecting boundary conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion1d import Boundary, DiffusionSpec, TransitionKernel, density_integral, kernel
from .diffusion1d.catalog import edge_ladder
from .kmgroup import det
from .quadrature import fd_derivative


@dataclass(eq=False)
class EdgeOperatorTable:
    """Evaluators S^{(k),j} for k <= n, j in [-(n-1), n-1], with constants
    c_{k,n}.  Entries j <= 0 are the level kernel's density and
    y-derivatives, j = 1 its CDF, and j >= 2 a density_integral against
    (x'-z)^{j-1}/(j-1)! (see _quad_S)."""

    base: DiffusionSpec
    n: int
    t: float
    specs: list = field(init=False)
    kernels: list = field(init=False)
    c: list = field(init=False)

    def __post_init__(self):
        self.specs = edge_ladder(self.base, self.n)
        self.kernels = [kernel(sp) for sp in self.specs]
        # a is quadratic and b affine on every laddered family: read a2 and
        # b1 off a' = a1 + 2 a2 x and b = b0 + b1 x
        ap = np.asarray(self.base.a_prime(np.array([0.0, 1.0])), float)
        b = np.asarray(self.base.b(np.array([0.0, 1.0])), float)
        a2, b1 = 0.5 * (ap[1] - ap[0]), b[1] - b[0]
        self.c = [2.0 * (self.n - k - 1) * a2 + b1 for k in range(1, self.n + 1)]

    def _kern(self, k: int) -> TransitionKernel:
        return self.kernels[k - 1]

    def S(self, k: int, j: int, x: float, xp):
        """S^{(k),j}(x, x'), vectorised over x'."""
        xp = np.asarray(xp, float)
        if j == 0:
            return self._kern(k).density(self.t, x, xp)
        if j < 0:
            return self._kern(k).dy_derivative(-j, self.t, x, xp)
        if j == 1:
            return self._kern(k).cdf(self.t, x, xp)
        return self._quad_S(k, j, x, xp, lower=True)

    def S_bar(self, k: int, j: int, x: float, xp):
        xp = np.asarray(xp, float)
        if j <= 0:
            return self.S(k, j, x, xp)
        if j == 1:
            return self._kern(k).cdf(self.t, x, xp) - 1.0  # conservative levels
        return self._quad_S(k, j, x, xp, lower=False)

    def _quad_S(self, k, j, x, xp, lower):
        """S^{(k),j} (lower) or Sbar^{(k),j} for j >= 2: the integral of
        +-(x'-z)^{j-1}/(j-1)! p^{(k)}(x, z) over z in [lo, min(x', hi)] or
        [max(x', lo), hi], with (lo, hi) the level kernel's window, in the
        level family's quadrature coordinates.  The density is negligible
        outside the window, so the rule never spreads its nodes past it,
        however far x' lies."""
        kern = self._kern(k)
        lo, hi = kern.window(self.t, x)
        sign, fact = (1.0 if lower else -1.0), math.factorial(j - 1)
        weight = lambda z: sign * (xp[..., None] - z) ** (j - 1) / fact
        bounds = (lo, np.minimum(xp, hi)) if lower else (np.maximum(xp, lo), hi)
        return density_integral(kern.spec, kern.density, self.t, x, *bounds, weight)

    def recurrence_residual(self, i: int, j: int, x: float, xp) -> float:
        """Relative residual of S^{(i-1),j} = -e^{-c_{i-1} t} d/dx S^{(i),j+1}."""
        lhs = self.S(i - 1, j, x, xp)
        rhs = -math.exp(-self.c[i - 2] * self.t) * fd_derivative(
            lambda u: self.S(i, j + 1, float(u), xp), np.asarray(x, float), order=1
        )
        scale = np.maximum(np.abs(lhs), 1e-9)
        return float(np.max(np.abs(lhs - rhs) / scale))


def _start(table: EdgeOperatorTable, x0, side: str | None = None) -> np.ndarray:
    """x0 as a vector of table.n floats, else ValueError.  With a side, x0
    must also lie inside the base family's state interval or on an entrance
    end, weakly increasing for the right edge or weakly decreasing for the
    left."""
    x0 = np.asarray(x0, float)
    if x0.shape != (table.n,):
        raise ValueError(f"an edge table of {table.n} particles needs a start of "
                         f"{table.n} coordinates, got shape {x0.shape}")
    if side is None:
        return x0
    sp = table.base
    # the ends are natural or entrance (edge_ladder), and infinite ends natural
    above_l = x0 >= sp.l if sp.behavior_l is Boundary.ENTRANCE else x0 > sp.l
    below_r = x0 <= sp.r if sp.behavior_r is Boundary.ENTRANCE else x0 < sp.r
    if not np.all(above_l & below_r):
        raise ValueError(f"an edge start needs coordinates inside the state interval "
                         f"({sp.l:g}, {sp.r:g}) of {sp.name} or on an entrance end")
    order, sign = ("increasing", 1.0) if side == "right" else ("decreasing", -1.0)
    if np.any(sign * np.diff(x0) < 0):
        raise ValueError(f"the {side} edge needs a weakly {order} start")
    return x0


def edge_density(table: EdgeOperatorTable, x, xp, side: str = "right"):
    """det(S^{(i),i-j}(x_i, x'_j)) for the rising edge (increasing order),
    or the Sbar variant for the falling edge (decreasing order).  Only the
    shape of x is checked: neumann_residual's central difference steps
    x_i across the wall x_{i-1}, out of the ordered chamber."""
    x = _start(table, x)
    xp = np.atleast_2d(np.asarray(xp, float))
    n = table.n
    ev = table.S if side == "right" else table.S_bar
    out = det([[ev(i, i - j, float(x[i - 1]), xp[..., j - 1]) for j in range(1, n + 1)]
               for i in range(1, n + 1)])
    return out[0] if out.shape == (1,) else out


def edge_max_cdf(table: EdgeOperatorTable, x0, z):
    """P(rightmost particle <= z) from the weakly increasing start x0."""
    x0 = _start(table, x0, "right")
    z = np.asarray(z, float)
    n = table.n
    return det([[table.S(i, i - j + 1, float(x0[i - 1]), z) for j in range(1, n + 1)]
                for i in range(1, n + 1)])


def edge_min_survival(table: EdgeOperatorTable, x0, z):
    """P(leftmost particle >= z) from the weakly decreasing start x0."""
    x0 = _start(table, x0, "left")
    z = np.asarray(z, float)
    n = table.n
    return det([[-table.S_bar(i, i - j + 1, float(x0[i - 1]), z) for j in range(1, n + 1)]
                for i in range(1, n + 1)])


def edge_min_cdf(table: EdgeOperatorTable, x0, z):
    return 1.0 - edge_min_survival(table, x0, z)


def edge_max_cdf_degenerate(spec: DiffusionSpec, n: int, t: float, x: float, z):
    """P(max <= z) from the coincident start (x, ..., x)."""
    return edge_max_cdf(EdgeOperatorTable(spec, n, t), np.full(n, float(x)), z)


def edge_min_cdf_degenerate(spec: DiffusionSpec, n: int, t: float, x: float, z):
    """P(min <= z) from the coincident start (x, ..., x)."""
    return edge_min_cdf(EdgeOperatorTable(spec, n, t), np.full(n, float(x)), z)


def neumann_residual(table: EdgeOperatorTable, x, xp, i: int) -> float:
    """|d/dx_i det(S)| at x_i = x_{i-1}: the reflecting condition of the
    rising-edge generator."""
    x = np.asarray(x, float).copy()
    x[i] = x[i - 1]

    def f(u):
        xs = x.copy()
        xs[i] = u
        return edge_density(table, xs, np.asarray(xp, float))

    return float(abs(fd_derivative(f, float(x[i]), order=1)))
