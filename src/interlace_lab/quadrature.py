"""Quadrature and finite-difference plumbing shared across modules.

All multi-dimensional integrals in this package are iterated Gauss-Legendre
rules.  Ordered-chamber and interlacing-fiber builders return flattened
node/weight arrays so integrands can be evaluated in one vectorised call.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np


@functools.lru_cache(maxsize=128)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights for integration over [a, b]."""
    u, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (u + 1.0), half * w


def ordered_nodes(ndim: int, lo: float, hi: float, n: int = 32):
    """Nodes/weights for the ordered region lo < y_1 <= ... <= y_ndim < hi.

    Returns (points, weights) with points of shape (n**ndim, ndim); each
    coordinate level uses n Gauss-Legendre nodes on [previous coordinate, hi].
    """
    u, w = _leggauss(n)
    pts = np.zeros((1, 0))
    wts = np.ones(1)
    prev = np.full(1, float(lo))
    for _ in range(ndim):
        half = 0.5 * (hi - prev)
        mid = 0.5 * (hi + prev)
        ynew = mid[:, None] + half[:, None] * u[None, :]
        wnew = wts[:, None] * half[:, None] * w[None, :]
        pts = np.concatenate(
            [np.repeat(pts, n, axis=0), ynew.reshape(-1, 1)], axis=1
        )
        wts = wnew.reshape(-1)
        prev = pts[:, -1]
    return pts, wts


def stacked_box_nodes(los: np.ndarray, his: np.ndarray, n: int = 32):
    """Tensor-product nodes for a batch of boxes.

    los, his: arrays of shape (N, k) with per-box coordinate bounds.
    Returns points (N*n**k, k) and weights (N*n**k,), box by box.
    Degenerate coordinates (hi <= lo) get zero weight.
    """
    los = np.atleast_2d(np.asarray(los, float))
    his = np.atleast_2d(np.asarray(his, float))
    N, k = los.shape
    u, w = _leggauss(n)
    pts = np.zeros((N, 1, 0))
    wts = np.ones((N, 1))
    for j in range(k):
        half = 0.5 * (his[:, j] - los[:, j])
        mid = 0.5 * (his[:, j] + los[:, j])
        ynew = mid[:, None] + half[:, None] * u[None, :]          # (N, n)
        wnew = np.maximum(half, 0.0)[:, None] * w[None, :]        # (N, n)
        m = pts.shape[1]
        pts = np.concatenate(
            [
                np.repeat(pts, n, axis=1),
                np.tile(ynew[:, None, :], (1, m, 1)).reshape(N, m * n, 1),
            ],
            axis=2,
        )
        wts = (wts[:, :, None] * wnew[:, None, :]).reshape(N, m * n)
    M = pts.shape[1]
    return pts.reshape(N * M, k), wts.reshape(N * M)


def chebyshev_antiderivative(
    f: Callable,
    lo: float,
    hi: float,
    deg: int = 96,
    lbnd: float | None = None,
    sqrt_map: bool = False,
) -> Callable:
    """Antiderivative x -> int_lbnd^x f via a Chebyshev interpolant of f.

    sqrt_map=True integrates in u = sqrt(x - lo) coordinates, which removes
    integrable power singularities of f at lo (half-line speed densities).
    """
    from numpy.polynomial.chebyshev import Chebyshev

    if sqrt_map:
        span = np.sqrt(hi - lo)

        def g(u):
            return f(lo + u * u) * 2.0 * u

        ch = Chebyshev.interpolate(g, deg, domain=[0.0, span])
        F = ch.integ(lbnd=0.0)

        def anti(x):
            u = np.sqrt(np.maximum(np.asarray(x, float) - lo, 0.0))
            return F(u)

        return anti
    ch = Chebyshev.interpolate(f, deg, domain=[lo, hi])
    return ch.integ(lbnd=lo if lbnd is None else lbnd)


_CENTRAL = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}

_FD_BASE_H = {1: 1e-5, 2: 5e-4, 3: 2e-3, 4: 6e-3}


def _central(f, x, order, h):
    offs, coefs = _CENTRAL[order]
    acc = 0.0
    for o, c in zip(offs, coefs):
        acc = acc + c * f(x + o * h)
    return acc / h**order


def fd_derivative(f: Callable, x, order: int = 1, h=None):
    """Central finite difference of given order with one Richardson step.

    Default step h = max(h0, h0*|x|) with h0 pinned per order; order 1 uses
    h0 = 1e-5, balancing truncation against cancellation in double precision.
    """
    x = np.asarray(x, float)
    if h is None:
        h0 = _FD_BASE_H[order]
        h = np.maximum(h0, h0 * np.abs(x))
    h = np.asarray(h, float)
    d1 = _central(f, x, order, h)
    d2 = _central(f, x, order, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def logsumexp_weighted(logv: np.ndarray, w: np.ndarray) -> float:
    """log(sum_i w_i * exp(logv_i)) for positive weights, overflow-safe."""
    logv = np.asarray(logv, float)
    mask = np.isfinite(logv)
    if not mask.any():
        return -np.inf
    m = logv[mask].max()
    s = float(np.dot(w[mask], np.exp(logv[mask] - m)))
    if s <= 0.0:
        return -np.inf
    return m + np.log(s)
