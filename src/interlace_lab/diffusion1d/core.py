"""One-dimensional diffusion calculus.

A diffusion is described by its generator coefficients a, b on an interval
(l, r):  a(x) f'' + b(x) f'.  The one scale datum of a family is
log s'(x) = -int_c^x b/a; ScaleSpeed derives log m = -log s' - log a from it,
so m * s' * a = 1, and s', m are their exponentials.  The Siegmund dual
(catalog.conjugate) has coefficients (a, a' - b); conjugation swaps scale and
speed densities exactly and maps boundary classes natural->natural,
entrance<->exit, regular reflecting<->regular absorbing.  This module
imports nothing from the catalog, the only source of a DiffusionSpec, which
also holds conjugation, the kernels and the duality residuals.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..quadrature import fd_derivative, gl_nodes, logsumexp_weighted


class CatalogError(KeyError):
    """Raised for families outside the supported kernel catalog."""


class TruncationError(ArithmeticError):
    """Raised when a spectral series cannot meet its tail tolerance."""


class DegenerateInputError(ValueError):
    """Raised when an evaluation point is too close to the boundary."""


class InconclusiveBoundaryError(ArithmeticError):
    """Boundary classification could not decide; carries both integrals."""

    def __init__(self, n_value, sigma_value):
        self.n_value = n_value
        self.sigma_value = sigma_value
        super().__init__(
            f"boundary classification inconclusive: N~{n_value:.3g}, "
            f"Sigma~{sigma_value:.3g}"
        )


class Boundary(enum.Enum):
    NATURAL = "natural"
    ENTRANCE = "entrance"
    EXIT = "exit"
    REGULAR_REFLECTING = "regular_reflecting"
    REGULAR_ABSORBING = "regular_absorbing"


class FellerClass(enum.Enum):
    NATURAL = "natural"
    ENTRANCE = "entrance"
    EXIT = "exit"
    REGULAR = "regular"


#: boundary image under conjugation
DUAL_BOUNDARY = {
    Boundary.NATURAL: Boundary.NATURAL,
    Boundary.ENTRANCE: Boundary.EXIT,
    Boundary.EXIT: Boundary.ENTRANCE,
    Boundary.REGULAR_REFLECTING: Boundary.REGULAR_ABSORBING,
    Boundary.REGULAR_ABSORBING: Boundary.REGULAR_REFLECTING,
}

DUAL_FELLER = {
    FellerClass.NATURAL: FellerClass.NATURAL,
    FellerClass.ENTRANCE: FellerClass.EXIT,
    FellerClass.EXIT: FellerClass.ENTRANCE,
    FellerClass.REGULAR: FellerClass.REGULAR,
}


@dataclass(frozen=True)
class ScaleSpeed:
    """Log scale density log s' and log speed density log m.

    from_log_s_prime derives log m = -log s' - log a, so m * s' * a = 1;
    s' and m are the exponentials of the two fields, whose log forms keep
    boundary classification free of overflow.  swapped() is the conjugate's
    pair: the two fields exchanged exactly.
    """

    log_s_prime: Callable
    log_m: Callable

    @classmethod
    def from_log_s_prime(cls, log_s_prime: Callable, a: Callable) -> "ScaleSpeed":
        return cls(log_s_prime, lambda x: -log_s_prime(x) - np.log(np.asarray(a(x), float)))

    def s_prime(self, x):
        return np.exp(self.log_s_prime(x))

    def m(self, x):
        return np.exp(self.log_m(x))

    def swapped(self) -> "ScaleSpeed":
        """Scale/speed of the conjugate: \\hat s' = m, \\hat m = s'."""
        return ScaleSpeed(log_s_prime=self.log_m, log_m=self.log_s_prime)


@dataclass(frozen=True, eq=False)
class DiffusionSpec:
    """Coefficients, state interval, and boundary behaviours of a diffusion."""

    name: str
    a: Callable
    b: Callable
    a_prime: Callable
    interval: tuple
    behavior_l: Boundary
    behavior_r: Boundary
    c: float
    family: str
    params: tuple
    scale: ScaleSpeed

    @property
    def l(self):
        return self.interval[0]

    @property
    def r(self):
        return self.interval[1]

    def clip_interior(self, x, pad=1e-12):
        lo = self.l if np.isinf(self.l) else self.l + pad
        hi = self.r if np.isinf(self.r) else self.r - pad
        return np.clip(x, lo, hi)


# ---------------------------------------------------------------------------
# Feller boundary classification
#
# At l (resp. r), with x0 interior and s, M antiderivatives of s', m:
#   N     = int (s(x0)-s(y)) m(y) dy,   Sigma = int (M(x0)-M(y)) s'(y) dy,
# integrated toward the endpoint (s and M are accumulated shell by shell).  entrance iff N<inf, Sigma=inf; exit iff
# N=inf, Sigma<inf; natural iff both infinite; regular iff both finite.
# ---------------------------------------------------------------------------

_SHELL_CAP = 1e8
_SHELL_GROWTH = 0.01
_MAX_SHELLS_FINITE = 240
_MAX_SHELLS_INFINITE = 120


def _shell_edges(endpoint: float, interior: float, k: int):
    """Geometric refinement x10 per step toward the endpoint."""
    if np.isinf(endpoint):
        sgn = 1.0 if endpoint > 0 else -1.0
        base = max(abs(interior), 1.0)
        return sgn * base * 10.0**k
    return endpoint + (interior - endpoint) * 10.0 ** (-k)


def _boundary_integral(log_outer, log_inner, endpoint, interior, max_shells):
    """Shell-summed int (F(x0)-F(y)) g(y) dy toward an endpoint.

    log_inner is the log-density being accumulated into the monotone factor
    F(x0)-F(y); log_outer the log-density it multiplies.  Works in log space
    so superexponential scale densities cannot overflow.  Returns
    (value_estimate, diverged: bool, decided: bool).
    """
    total = 0.0
    shells = []
    log_acc = -np.inf  # log of int_{edge_k}^{x0} inner
    prev_edge = interior
    for k in range(1, max_shells + 1):
        edge = _shell_edges(endpoint, interior, k)
        if edge == prev_edge:
            return total, False, True
        xs, ws = gl_nodes(min(edge, prev_edge), max(edge, prev_edge), 64)
        with np.errstate(all="ignore"):
            li = np.asarray(log_inner(xs), float)
            lo_ = np.asarray(log_outer(xs), float)
        log_shell_inner = logsumexp_weighted(li, ws)
        # bracket the monotone factor by its values at the shell edges
        log_f_far = np.logaddexp(log_acc, log_shell_inner)
        log_mass = logsumexp_weighted(lo_, ws)
        if np.isnan(log_mass) or np.isnan(log_f_far):
            return total, True, True
        contrib_hi = math.exp(min(log_f_far + log_mass, 700.0))
        contrib_lo = math.exp(max(min(log_acc + log_mass, 700.0), -745.0)) if np.isfinite(log_acc) else 0.0
        contrib = 0.5 * (contrib_hi + contrib_lo)
        total += contrib
        shells.append(contrib_hi)
        log_acc = log_f_far
        prev_edge = edge
        if total > _SHELL_CAP and contrib > _SHELL_GROWTH * total:
            return total, True, True
        if not np.isfinite(total) or not np.isfinite(contrib_hi):
            return total, True, True
        if len(shells) >= 3 and all(
            s < 1e-13 * max(total, 1e-300) for s in shells[-3:]
        ):
            return total, False, True
        # non-decaying shell contributions extrapolate past any cap
        if len(shells) >= 12:
            recent = shells[-8:]
            if recent[-1] > 1e-12 * max(total, 1.0) and all(
                recent[i + 1] >= 0.99 * recent[i] for i in range(len(recent) - 1)
            ):
                return total, True, True
    return total, False, False


def boundary_integrals(spec: DiffusionSpec, endpoint: str):
    """Return (N, Sigma) estimates and divergence flags at an endpoint."""
    ss = spec.scale
    e = spec.l if endpoint == "l" else spec.r
    interior = spec.c
    max_shells = _MAX_SHELLS_INFINITE if np.isinf(e) else _MAX_SHELLS_FINITE
    n_val, n_div, n_dec = _boundary_integral(
        ss.log_m, ss.log_s_prime, e, interior, max_shells
    )
    s_val, s_div, s_dec = _boundary_integral(
        ss.log_s_prime, ss.log_m, e, interior, max_shells
    )
    if not (n_dec and s_dec):
        raise InconclusiveBoundaryError(n_val, s_val)
    return (n_val, n_div), (s_val, s_div)


def classify_boundary(spec: DiffusionSpec, endpoint: str) -> FellerClass:
    """Feller class at endpoint 'l' or 'r' by shell-refined quadrature."""
    if endpoint not in ("l", "r"):
        raise ValueError("endpoint must be 'l' or 'r'")
    (n_val, n_div), (s_val, s_div) = boundary_integrals(spec, endpoint)
    if n_div and s_div:
        return FellerClass.NATURAL
    if n_div:
        return FellerClass.EXIT
    if s_div:
        return FellerClass.ENTRANCE
    return FellerClass.REGULAR


# ---------------------------------------------------------------------------
# Transition kernels
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransitionKernel:
    """Evaluators for p_t(x, y), boundary atoms, and spatial derivatives.

    density is the interior (killed) density with respect to Lebesgue dy;
    atoms carry the mass absorbed at exit / regular-absorbing endpoints.
    cdf(t, x, y) = P_x(X_t <= y) includes the atom at l.  dx differentiates
    the backward variable, dy the forward one.  Every evaluator broadcasts
    x against y; where a CDF or atom has no closed form it is a
    catalog.density_integral of the density, in the family's quadrature
    coordinates.
    """

    spec: DiffusionSpec
    density: Callable
    cdf: Callable
    atom_l: Callable
    atom_r: Callable
    window: Callable
    dx_derivative: Callable = None
    dy_derivative: Callable = None

    def __post_init__(self):
        if self.dx_derivative is None:
            self.dx_derivative = self._fd_dx
        if self.dy_derivative is None:
            self.dy_derivative = self._fd_dy

    def _fd_dx(self, order, t, x, y):
        spec = self.spec
        return fd_derivative(
            lambda u: self.density(t, spec.clip_interior(u, 1e-13), y), x, order=order
        )

    def _fd_dy(self, order, t, x, y):
        spec = self.spec
        return fd_derivative(
            lambda v: self.density(t, x, spec.clip_interior(v, 1e-13)), y, order=order
        )

