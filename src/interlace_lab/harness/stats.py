"""KS statistics and CDFs: the one-sample KS statistic against an exact
CDF, the two-sample statistic, empirical CDFs on a grid, and a monotone
CDF interpolated from density values."""
from __future__ import annotations

import numpy as np


def ks_statistic_cdf(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Two-sided KS statistic given exact CDF values at the sorted samples."""
    n = len(cdf_values)
    i = np.arange(1, n + 1)
    return float(
        max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n))
    )


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic sup |F_a - F_b| of two finite, non-empty
    samples, exact.

    The statistic is searched only at the points of the smaller sample,
    which becomes a (the statistic is symmetric, and so is |x - y| in IEEE
    arithmetic).  Between two consecutive points of a, F_a is constant and
    F_b monotone, so the supremum is taken at a point a_i of a or just
    below it: at |#a <= a_i / len(a) - #b <= a_i / len(b)| or at
    |#a < a_i / len(a) - #b < a_i / len(b)|.  Both samples are sorted
    once, and the four counts are binary searches of a's points in a and
    in b.  Each candidate is 0 or the same count/len quotient as the
    search at some point of either sample, and rounding keeps each
    quotient and difference monotone in its count, so the result equals,
    bit for bit, that of a search at every point.  A NaN or an empty
    sample raises ValueError.
    """
    a = np.sort(np.asarray(a, float))
    b = np.sort(np.asarray(b, float))
    if not (len(a) and len(b)) or np.isnan(a[-1]) or np.isnan(b[-1]):  # sort puts NaN last
        raise ValueError("two_sample_ks needs two non-empty samples without NaN")
    if len(a) > len(b):
        a, b = b, a
    d_at = np.abs(np.searchsorted(a, a, side="right") / len(a)
                  - np.searchsorted(b, a, side="right") / len(b))
    d_below = np.abs(np.searchsorted(a, a, side="left") / len(a)
                     - np.searchsorted(b, a, side="left") / len(b))
    return float(max(np.max(d_at), np.max(d_below)))


def empirical_cdf_on_grid(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The empirical CDF of samples at each grid point; samples already in
    ascending order are not sorted again."""
    s = np.asarray(samples, float)
    if not np.all(s[1:] >= s[:-1]):
        s = np.sort(s)
    return np.searchsorted(s, grid, side="right") / len(s)


def _pchip(x, y):
    """Coefficients (c0, c1, c2, c3) of the PCHIP (Fritsch-Carlson) cubic
    c0 s^3 + c1 s^2 + c2 s + c3, s = z - x[i], on each [x[i], x[i+1]].

    The arithmetic is scipy's PchipInterpolator's, operation for
    operation, so values agree bit for bit without importing
    scipy.interpolate (a third of a second per process).
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])  # two points: the line through them
    if len(m) > 1:
        # interior: 0 at a flat segment or a change of slope sign, else
        # the weighted harmonic mean of the slopes on either side
        inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(inner, 1.0 / whmean, 0.0)
        # ends: the one-sided three-point estimate, kept shape-preserving
        for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            if np.sign(e) != np.sign(m0):
                e = 0.0
            elif np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
                e = 3.0 * m0
            d[end] = e
    t = (d[:-1] + d[1:] - 2 * m) / h
    return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]


def cdf_from_density_grid(grid: np.ndarray, density: np.ndarray):
    """Monotone CDF interpolant from density values on a grid (PCHIP of the
    trapezoid cumulative, normalized)."""
    grid = np.asarray(grid, float)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    total = cum[-1]
    if total <= 0:
        raise ValueError("density integrates to zero on the grid")
    cum = np.clip(cum / total, 0.0, 1.0)
    c0, c1, c2, c3 = _pchip(grid, cum)
    lo, hi = grid[0], grid[-1]

    def F(z):
        z = np.clip(np.asarray(z, float), lo, hi)
        i = np.clip(np.searchsorted(grid, z, side="right") - 1, 0, len(grid) - 2)
        s = z - grid[i]
        s2 = s * s
        # summed from the constant term up, as scipy's PPoly evaluates
        return np.clip(0.0 + c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s), 0.0, 1.0)

    return F
