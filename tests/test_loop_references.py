"""The array paths of A1 and of boundary classification against the
per-point and per-shell loops they replaced, bit for bit.

`_reference_shell_sum` is the shell-by-shell boundary walk as it stood
before the shells were evaluated in blocks, with one addition: it also
returns the name of the stop rule that ended it, so each case below can
assert which exit of the walk it covers.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from interlace_lab.diffusion1d import (
    CATALOG_IDS,
    InconclusiveBoundaryError,
    ScaleSpeed,
    boundary_integrals,
    conjugate,
    kernel,
    make_spec,
)
from interlace_lab.diffusion1d import core
from interlace_lab.harness import checks
from interlace_lab.quadrature import gl_nodes, logsumexp_weighted


def _reference_shell_sum(log_outer, log_inner, endpoint, interior, max_shells):
    total = 0.0
    shells = []
    log_acc = -np.inf
    prev_edge = interior
    for k in range(1, max_shells + 1):
        edge = core._shell_edges(endpoint, interior, k)
        if edge == prev_edge:
            return total, False, True, "equal-edges"
        xs, ws = gl_nodes(min(edge, prev_edge), max(edge, prev_edge), 64)
        with np.errstate(all="ignore"):
            li = np.asarray(log_inner(xs), float)
            lo_ = np.asarray(log_outer(xs), float)
        log_shell_inner = logsumexp_weighted(li, ws)
        log_f_far = np.logaddexp(log_acc, log_shell_inner)
        log_mass = logsumexp_weighted(lo_, ws)
        if np.isnan(log_mass) or np.isnan(log_f_far):
            return total, True, True, "nan"
        contrib_hi = math.exp(min(log_f_far + log_mass, 700.0))
        contrib_lo = math.exp(max(min(log_acc + log_mass, 700.0), -745.0)) if np.isfinite(log_acc) else 0.0
        contrib = 0.5 * (contrib_hi + contrib_lo)
        total += contrib
        shells.append(contrib_hi)
        log_acc = log_f_far
        prev_edge = edge
        if total > core._SHELL_CAP and contrib > core._SHELL_GROWTH * total:
            return total, True, True, "cap"
        if not np.isfinite(total) or not np.isfinite(contrib_hi):
            return total, True, True, "non-finite"
        if len(shells) >= 3 and all(
            s < 1e-13 * max(total, 1e-300) for s in shells[-3:]
        ):
            return total, False, True, "decay"
        if len(shells) >= 12:
            recent = shells[-8:]
            if recent[-1] > 1e-12 * max(total, 1.0) and all(
                recent[i + 1] >= 0.99 * recent[i] for i in range(len(recent) - 1)
            ):
                return total, True, True, "non-decay"
    return total, False, False, "undecided"


def _reference_integrals(spec, endpoint):
    """((N, diverged), (Sigma, diverged)) or the InconclusiveBoundaryError
    the per-shell walk gave, and the exits of N's and Sigma's walks."""
    ss = spec.scale
    e = spec.l if endpoint == "l" else spec.r
    max_shells = core._MAX_SHELLS_INFINITE if np.isinf(e) else core._MAX_SHELLS_FINITE
    n_val, n_div, n_dec, n_exit = _reference_shell_sum(ss.log_m, ss.log_s_prime, e, spec.c, max_shells)
    s_val, s_div, s_dec, s_exit = _reference_shell_sum(ss.log_s_prime, ss.log_m, e, spec.c, max_shells)
    if not (n_dec and s_dec):
        return InconclusiveBoundaryError(n_val, s_val), (n_exit, s_exit)
    return ((n_val, n_div), (s_val, s_div)), (n_exit, s_exit)


def _blocked_integrals(spec, endpoint):
    try:
        return boundary_integrals(spec, endpoint)
    except InconclusiveBoundaryError as err:
        return err


def _same(got, want):
    """Equal bit for bit (a NaN value too): the same (value, flag) pairs, or
    the same error carrying the same partial values."""
    if isinstance(want, InconclusiveBoundaryError):
        return (isinstance(got, InconclusiveBoundaryError)
                and float.hex(got.n_value) == float.hex(want.n_value)
                and float.hex(got.sigma_value) == float.hex(want.sigma_value))
    return (not isinstance(got, Exception)
            and [(float.hex(v), d) for v, d in got] == [(float.hex(v), d) for v, d in want])


def _catalog_ends():
    for sid in CATALOG_IDS:
        for dual in (False, True):
            for end in ("l", "r"):
                yield pytest.param(sid, dual, end, id=f"{'dual-' if dual else ''}{sid}-{end}")


@pytest.mark.parametrize("sid,dual,end", list(_catalog_ends()))
def test_boundary_integrals_match_the_per_shell_walk(sid, dual, end):
    spec = make_spec(sid)
    spec = conjugate(spec) if dual else spec
    want, _ = _reference_integrals(spec, end)
    assert _same(_blocked_integrals(spec, end), want)


def _replaced(**fields):
    return lambda: replace(make_spec("bm"), **fields)


def _alternating_log_m(x):
    # m ~ 1/x, so every decade adds the same mass, times e^-30 on every
    # other decade: N's shells neither decay nor grow
    x = np.abs(np.asarray(x, float))
    return -np.log(x) - 30.0 * (np.floor(np.log10(x)) % 2)


#: name -> (spec builder, end, the exits of N's and Sigma's walks); the
#: replace(...) specs reach exits that no catalog end reaches
EXIT_CASES = {
    "catalog-cap": (lambda: make_spec("bm"), "r", "cap", "cap"),
    "catalog-decay-non-decay": (lambda: make_spec("besq:3"), "l", "decay", "non-decay"),
    "catalog-equal-edges": (lambda: make_spec("jac:1,1"), "r", "equal-edges", "non-decay"),
    # a NaN interior point gives NaN shells and NaN weights at once
    "nan": (_replaced(c=np.nan), "r", "nan", "nan"),
    # the shell edges overflow to inf at the 9th shell, where log s' stays
    # finite (infinite weights: log-integral +inf) and log m is NaN (-inf)
    "non-finite": (_replaced(c=1e300, scale=ScaleSpeed(lambda x: np.full_like(x, -705.0),
                                                       lambda x: -705.0 + 0.0 * x)),
                   "r", "non-finite", "cap"),
    "undecided": (_replaced(scale=ScaleSpeed(lambda x: -2.0 * np.log(np.abs(x)), _alternating_log_m)),
                  "r", "undecided", "decay"),
}


# the NaN and overflow walks warn outside their errstate, the per-shell one too
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_every_exit_of_the_walk_matches_the_per_shell_walk(case):
    build, end, n_exit, s_exit = EXIT_CASES[case]
    spec = build()
    want, exits = _reference_integrals(spec, end)
    assert exits == (n_exit, s_exit)
    assert _same(_blocked_integrals(spec, end), want)


def test_the_cases_cover_every_exit():
    covered = {x for _, _, n_exit, s_exit in EXIT_CASES.values() for x in (n_exit, s_exit)}
    assert covered == {"equal-edges", "cap", "nan", "non-finite", "decay", "non-decay", "undecided"}


def _reference_duality_catalog():
    rows = []
    for sid, (xs, ys) in checks.DUALITY_GRID.items():
        spec = make_spec(sid)
        kern, dual = kernel(spec), kernel(conjugate(spec))
        worst = 0.0
        for t in checks.DUALITY_TIMES:
            for x in xs:
                for y in ys:
                    lhs = float(kern.cdf(t, float(x), float(y)))
                    rhs = 1.0 - float(dual.cdf(t, float(y), float(x)))
                    worst = max(worst, abs(lhs - rhs))
        tol = checks.DUALITY_TOL[sid]
        rows.append({"spec": sid, "max_residual": worst, "tolerance": tol, "pass": worst <= tol})
    return rows


def test_a1_rows_match_the_per_point_loop():
    assert checks.check_duality_catalog().rows == _reference_duality_catalog()
