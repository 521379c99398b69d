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

from ..quadrature import gl_nodes, logsumexp_weighted


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


#: how far inside each finite end DiffusionSpec.clip_interior keeps a point
_INTERIOR_PAD = 1e-12


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

    def clip_interior(self, x):
        """x clipped to the interval, _INTERIOR_PAD inside each finite end."""
        lo = self.l if np.isinf(self.l) else self.l + _INTERIOR_PAD
        hi = self.r if np.isinf(self.r) else self.r - _INTERIOR_PAD
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
#: shells per gl_nodes call and per evaluation of log s' and log m
_SHELL_BLOCK = 16

#: Feller class from whether (N, Sigma) diverge
FELLER_BY_DIVERGENCE = {
    (True, True): FellerClass.NATURAL,
    (True, False): FellerClass.EXIT,
    (False, True): FellerClass.ENTRANCE,
    (False, False): FellerClass.REGULAR,
}


def _shell_edges(endpoint: float, interior: float, k: int):
    """Geometric refinement x10 per step toward the endpoint."""
    if np.isinf(endpoint):
        sgn = 1.0 if endpoint > 0 else -1.0
        base = max(abs(interior), 1.0)
        return sgn * base * 10.0**k
    return endpoint + (interior - endpoint) * 10.0 ** (-k)


class _ShellSum:
    """int (F(x0)-F(y)) g(y) dy toward an endpoint, summed shell by shell.

    add() takes one shell's log-integrals of the inner density f = F' (which
    accumulates into the monotone factor F(x0)-F(y)) and of the outer
    density g.  Working in log space, superexponential scale densities
    cannot overflow.  result stays None until a stop rule decides, then
    holds (value_estimate, diverged: bool).
    """

    def __init__(self):
        self.total = 0.0
        self.shells = []
        self.log_acc = -np.inf  # log of int_{edge_k}^{x0} inner
        self.result = None

    def add(self, log_shell_inner, log_mass):
        # bracket the monotone factor by its values at the shell edges
        log_f_far = np.logaddexp(self.log_acc, log_shell_inner)
        if np.isnan(log_mass) or np.isnan(log_f_far):
            self.result = (self.total, True)
            return
        contrib_hi = math.exp(min(log_f_far + log_mass, 700.0))
        contrib_lo = (math.exp(max(min(self.log_acc + log_mass, 700.0), -745.0))
                      if np.isfinite(self.log_acc) else 0.0)
        contrib = 0.5 * (contrib_hi + contrib_lo)
        self.log_acc = log_f_far
        self.total = total = self.total + contrib
        shells = self.shells
        shells.append(contrib_hi)
        if (total > _SHELL_CAP and contrib > _SHELL_GROWTH * total) or not (
                np.isfinite(total) and np.isfinite(contrib_hi)):
            self.result = (total, True)
        elif len(shells) >= 3 and all(s < 1e-13 * max(total, 1e-300) for s in shells[-3:]):
            self.result = (total, False)
        # non-decaying shell contributions extrapolate past any cap
        elif len(shells) >= 12 and shells[-1] > 1e-12 * max(total, 1.0) and all(
                b >= 0.99 * a for a, b in zip(shells[-8:], shells[-7:])):
            self.result = (total, True)


def boundary_integrals(spec: DiffusionSpec, endpoint: str):
    """Return (N, Sigma) estimates and divergence flags at endpoint 'l' or 'r'.

    Both integrals walk the same geometric shells toward the end, in blocks
    of _SHELL_BLOCK: one gl_nodes call per block, and log s', log m each
    evaluated once per block, whose per-shell log-integrals feed N and
    Sigma alike.  Each integral stops at its own shell by its own stop
    rules; an end where either is still undecided after the last shell
    raises InconclusiveBoundaryError carrying both partial values.
    """
    if endpoint not in ("l", "r"):
        raise ValueError("endpoint must be 'l' or 'r'")
    ss = spec.scale
    e = spec.l if endpoint == "l" else spec.r
    interior = spec.c
    max_shells = _MAX_SHELLS_INFINITE if np.isinf(e) else _MAX_SHELLS_FINITE
    n_sum, s_sum = _ShellSum(), _ShellSum()
    prev_edge = interior
    for k0 in range(1, max_shells + 1, _SHELL_BLOCK):
        edges = [_shell_edges(e, interior, k)
                 for k in range(k0, min(k0 + _SHELL_BLOCK, max_shells + 1))]
        near = np.array([prev_edge] + edges[:-1])[:, None]
        far = np.array(edges)[:, None]
        with np.errstate(all="ignore"):  # a block may run past an end's overflow
            xs, ws = gl_nodes(np.minimum(near, far), np.maximum(near, far), 64)
            log_sp = np.asarray(ss.log_s_prime(xs), float)
            log_m = np.asarray(ss.log_m(xs), float)
        for i, edge in enumerate(edges):
            if edge == prev_edge:  # the shells are finer than the end's float spacing
                for walk in (n_sum, s_sum):
                    if walk.result is None:
                        walk.result = (walk.total, False)
                return n_sum.result, s_sum.result
            lse_sp = logsumexp_weighted(log_sp[i], ws[i])
            lse_m = logsumexp_weighted(log_m[i], ws[i])
            # N accumulates s' and weighs it by m; Sigma the other way round
            for walk, inner, outer in ((n_sum, lse_sp, lse_m), (s_sum, lse_m, lse_sp)):
                if walk.result is None:
                    walk.add(inner, outer)
            if n_sum.result is not None and s_sum.result is not None:
                return n_sum.result, s_sum.result
            prev_edge = edge
    raise InconclusiveBoundaryError(n_sum.total, s_sum.total)


def classify_boundary(spec: DiffusionSpec, endpoint: str) -> FellerClass:
    """Feller class at endpoint 'l' or 'r' by shell-refined quadrature."""
    (_, n_div), (_, s_div) = boundary_integrals(spec, endpoint)
    return FELLER_BY_DIVERGENCE[n_div, s_div]


# ---------------------------------------------------------------------------
# Transition kernels
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransitionKernel:
    """Evaluators for p_t(x, y), boundary atoms, and spatial derivatives.

    density is the interior (killed) density with respect to Lebesgue dy;
    atoms carry the mass absorbed at exit / regular-absorbing endpoints.
    cdf(t, x, y) = P_x(X_t <= y) includes the atom at l.  dx_derivative(o,
    t, x, y) is the o-th derivative in the backward variable x and
    dy_derivative in the forward one y; both are required, and the catalog
    makes the orders no closed form covers by one rule
    (catalog._from_first_derivatives).  Every evaluator broadcasts x
    against y; where a CDF or atom has no closed form it is a
    catalog.density_integral of the density, in the family's quadrature
    coordinates.
    """

    spec: DiffusionSpec
    density: Callable
    cdf: Callable
    atom_l: Callable
    atom_r: Callable
    window: Callable
    dx_derivative: Callable
    dy_derivative: Callable
