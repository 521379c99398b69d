"""Statistical comparison utilities: KS distances and moment reports."""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class MCReport:
    """Monte-Carlo comparison summary; JSON round-trip stable."""

    sample_size: int
    ks_statistic: float
    ks_pvalue: float
    moment_errors: list
    runtime: float
    seed: Optional[int] = None
    label: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "MCReport":
        return cls(**json.loads(s))


def ks_statistic_cdf(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Two-sided KS statistic given exact CDF values at the sorted samples."""
    n = len(cdf_values)
    i = np.arange(1, n + 1)
    return float(
        max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n))
    )


def ks_pvalue(stat: float, n: int) -> float:
    from scipy.stats import kstwobign

    return float(kstwobign.sf(stat * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))))


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(np.asarray(a, float))
    b = np.sort(np.asarray(b, float))
    allv = np.concatenate([a, b])
    Fa = np.searchsorted(a, allv, side="right") / len(a)
    Fb = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.max(np.abs(Fa - Fb)))


def ks_compare(
    samples: np.ndarray,
    exact_cdf: Callable,
    seed: Optional[int] = None,
    label: str = "",
    n_moments: int = 4,
) -> MCReport:
    """Two-sided KS (statistic + asymptotic p-value) of samples against a
    monotone exact CDF, with first-moment errors against quadrature moments.
    """
    t0 = time.perf_counter()
    samples = np.sort(np.asarray(samples, float))
    n = len(samples)
    if n < 1000:
        raise ValueError("ks_compare requires at least 1000 samples")
    F = np.asarray(exact_cdf(samples), float)
    if np.any(np.diff(F) < -1e-12):
        raise ValueError("exact_cdf is not monotone")
    F = np.clip(F, 0.0, 1.0)
    stat = ks_statistic_cdf(samples, F)
    # quadrature moments of the exact law on a padded sample range
    pad = 0.5 * (samples[-1] - samples[0] + 1.0)
    grid = np.linspace(samples[0] - pad, samples[-1] + pad, 4001)
    Fg = np.clip(np.asarray(exact_cdf(grid), float), 0.0, 1.0)
    dF = np.diff(Fg)
    mids = 0.5 * (grid[1:] + grid[:-1])
    errs = []
    for k in range(1, n_moments + 1):
        exact_mk = float(np.sum(mids**k * dF))
        errs.append(abs(float(np.mean(samples**k)) - exact_mk))
    return MCReport(
        sample_size=n,
        ks_statistic=stat,
        ks_pvalue=ks_pvalue(stat, n),
        moment_errors=errs,
        runtime=time.perf_counter() - t0,
        seed=seed,
        label=label,
    )


def empirical_cdf_on_grid(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    s = np.sort(np.asarray(samples, float))
    return np.searchsorted(s, grid, side="right") / len(s)


def cdf_from_density_grid(grid: np.ndarray, density: np.ndarray):
    """Monotone CDF interpolant from density values on a grid (PCHIP of the
    trapezoid cumulative, normalized)."""
    from scipy.interpolate import PchipInterpolator

    cum = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    total = cum[-1]
    if total <= 0:
        raise ValueError("density integrates to zero on the grid")
    cum = np.clip(cum / total, 0.0, 1.0)
    interp = PchipInterpolator(grid, cum)
    lo, hi = grid[0], grid[-1]

    def F(z):
        z = np.asarray(z, float)
        return np.clip(interp(np.clip(z, lo, hi)), 0.0, 1.0)

    return F
