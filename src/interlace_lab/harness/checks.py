"""Verification checks behind the campaigns and the acceptance suite.

Each check builds only its rows (dicts, one per case, each with a "pass"
entry) and is registered under its campaign name with `register`, which
times it and returns a CheckResult whose verdict is that every row
passed.  A check takes only the campaign settings its callers vary: a
simulation's paths and seed, and A4's negative control `perturb`.  All
else it uses (tolerance, step size, node counts, times, oracle draws,
refinement steps) is a constant beside it, so no run moves its bar.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
import numpy as np

from .. import kmgroup as km
from .. import twolevel as tl
from .. import reflectsde as rs
from .. import edgekernels as ek
from ..diffusion1d import (
    DUAL_FELLER,
    classify_boundary,
    conjugate,
    duality_residual,
    kernel,
    make_spec,
    spectral_basis,
)
from ..diffusion1d.catalog import edge_ladder, sc
from .oracles import complex_wishart_sample, gue_sample
from .stats import (
    empirical_cdf_on_grid,
    ks_statistic_cdf,
    two_sample_ks,
)


@dataclass
class CheckResult:
    name: str
    rows: list
    passed: bool
    summary: str
    runtime: float = 0.0

    @property
    def fieldnames(self):
        """Every row's keys, in the order first met: a row may add some."""
        return list(dict.fromkeys(k for r in self.rows for k in r)) if self.rows else ["value"]


#: campaign name -> check, in definition order (A1 ... A10)
ALL_CHECKS = {}


def register(name: str, summary: str):
    """Enter the decorated row builder in ALL_CHECKS under `name`.

    The registered check takes the builder's arguments (its signature is
    the builder's, through functools.wraps) and returns a CheckResult
    with the builder's rows, passed when every row's "pass" holds, and
    its perf_counter runtime.
    """
    def decorate(build):
        @functools.wraps(build)
        def run(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            rows = build(*args, **kwargs)
            return CheckResult(name, rows, all(row["pass"] for row in rows), summary,
                               time.perf_counter() - t0)

        ALL_CHECKS[name] = run
        return run

    return decorate


# -- A1 ---------------------------------------------------------------------

DUALITY_GRID = {
    "bm": (np.linspace(-1.5, 1.5, 5), np.linspace(-1.2, 1.8, 5)),
    "bm_halfline:refl": (np.linspace(0.3, 2.3, 5), np.linspace(0.4, 2.6, 5)),
    "ou": (np.linspace(-1.2, 1.2, 5), np.linspace(-1.0, 1.4, 5)),
    "besq:2.5": (np.linspace(0.5, 3.5, 5), np.linspace(0.6, 4.0, 5)),
    "besq:3": (np.linspace(0.5, 3.5, 5), np.linspace(0.6, 4.0, 5)),
}
DUALITY_TOL = {
    "bm": 1e-8,
    "bm_halfline:refl": 1e-8,
    "ou": 1e-6,
    "besq:2.5": 1e-6,
    "besq:3": 1e-6,
}
DUALITY_TIMES = (0.25, 0.6, 1.0)


@register("duality-catalog", "max residuals per pair vs tolerances")
def check_duality_catalog():
    rows = []
    for sid, (xs, ys) in DUALITY_GRID.items():
        spec = make_spec(sid)
        tol = DUALITY_TOL[sid]
        worst = 0.0
        for t in DUALITY_TIMES:
            for x in xs:
                for y in ys:
                    r = duality_residual(spec, t, float(x), float(y))
                    worst = max(worst, r)
        ok = worst <= tol
        rows.append({"spec": sid, "max_residual": worst, "tolerance": tol, "pass": ok})
    return rows


# -- A2 ---------------------------------------------------------------------

BOUNDARY_TABLE = [
    ("bm", "natural", "natural"),
    ("ou", "natural", "natural"),
    ("besq:0.5", "regular", "natural"),
    ("besq:1", "regular", "natural"),
    ("besq:2", "entrance", "natural"),
    ("besq:3", "entrance", "natural"),
    ("jac:1,1", "entrance", "entrance"),
    ("gbm:1", "natural", "natural"),
]


@register("boundary-table", "Feller classes + dual mapping")
def check_boundary_table():
    rows = []
    for sid, exp_l, exp_r in BOUNDARY_TABLE:
        spec = make_spec(sid)
        got_l, got_r = classify_boundary(spec, "l"), classify_boundary(spec, "r")
        ok = got_l.value == exp_l and got_r.value == exp_r
        dual = conjugate(spec)
        dl, dr = classify_boundary(dual, "l"), classify_boundary(dual, "r")
        ok &= dl == DUAL_FELLER[got_l] and dr == DUAL_FELLER[got_r]
        rows.append({
            "spec": sid, "class_l": got_l.value, "class_r": got_r.value,
            "dual_class_l": dl.value, "dual_class_r": dr.value, "pass": ok,
        })
    return rows


# -- A3 ---------------------------------------------------------------------

CHAPMAN_PROBES = [
    (([-1.0, 1.0], [0.0]), ([-0.8, 1.3], [0.4])),
    (([-1.0, 1.0], [0.0]), ([-1.5, 0.6], [-0.6])),
    (([-2.0, 0.5], [-0.5]), ([-1.0, 1.2], [0.2])),
    (([0.0, 2.0], [1.0]), ([0.3, 2.4], [1.4])),
    (([-0.5, 0.5], [0.0]), ([-0.2, 0.9], [0.1])),
]
CHAPMAN_TIMES = (0.5, 0.5)  # (s, t): q_{s+t} against q_s q_t
CHAPMAN_TOL = 1e-3


@register("chapman-bm", "semigroup residuals at probe pairs")
def check_chapman():
    sys = tl.TwoLevelSystem(make_spec("bm"), tl.Shape.NNP1)
    s, t = CHAPMAN_TIMES
    rows = []
    for (z, z2) in CHAPMAN_PROBES:
        za = (np.array(z[0]), np.array(z[1]))
        zb = (np.array(z2[0]), np.array(z2[1]))
        r = tl.chapman_residual(sys, s, t, za, zb)
        ok = r <= CHAPMAN_TOL
        rows.append({"z": str(z), "z2": str(z2), "rel_residual": r, "tolerance": CHAPMAN_TOL,
                     "pass": ok})
    return rows


# -- A4 ---------------------------------------------------------------------

MASTER_TOL = 1e-4  # also the pass bar of the CLI's intertwine-check


def master_cases():
    dyson = dict(
        label="dyson-1-2",
        sys=tl.TwoLevelSystem(make_spec("bm"), tl.Shape.NNP1),
        h_hat=km.vandermonde(1),
        x=np.array([-1.0, 1.0]),
        t=0.5,
        fs=tl.test_function_basis(np.array([-1.0, 1.0]), np.array([0.0])),
    )
    half = dict(
        label="halfline-W11",
        sys=tl.TwoLevelSystem(make_spec("bm_halfline:abs"), tl.Shape.NN),
        h_hat=km.vandermonde(1),
        x=np.array([1.2]),
        t=0.5,
        fs=tl.test_function_basis(np.array([1.2]), np.array([0.6]), width=0.8),
    )
    besq = dict(
        label="besq3-W12",
        sys=tl.TwoLevelSystem(make_spec("besq:3"), tl.Shape.NNP1),
        h_hat=km.eigenfunction_catalog(make_spec("besq:-1"), 1),
        x=np.array([1.0, 3.0]),
        t=0.5,
        fs=tl.test_function_basis(np.array([1.0, 3.0]), np.array([2.0])),
    )
    return [dyson, half, besq]


@register("master-intertwinings", "intertwining residuals")
def check_master_intertwinings(perturb=None):
    rows = []
    for case in master_cases():
        res = tl.master_intertwining_residual(
            case["sys"], case["h_hat"], case["t"], case["fs"], case["x"], perturb=perturb,
        )
        for fi, r in enumerate(res):
            ok = r <= MASTER_TOL
            rows.append({"case": case["label"], "test_function": fi,
                         "residual": r, "tolerance": MASTER_TOL, "pass": ok})
    return rows


# -- A5 ---------------------------------------------------------------------

LAW_TOL = 0.02  # sup distance of a simulated or oracle law from its CDF, A5-A7
WARREN_DT = 0.05


def bes3_cdf(z, x=1.0, t=1.0):
    s = math.sqrt(t)
    z = np.maximum(np.asarray(z, float), 0.0)
    gauss = np.exp(-((z + x) ** 2) / (2 * t)) - np.exp(-((z - x) ** 2) / (2 * t))
    return np.clip(
        sc.ndtr((z - x) / s) + sc.ndtr((z + x) / s) - 1.0
        + (t / x) * gauss / math.sqrt(2 * math.pi * t),
        0.0,
        1.0,
    )


def dyson_marginal_cdf(x0, t, idx):
    """Marginal CDF of coordinate idx of two Brownian motions started at
    x0 = (x1, x2), x1 < x2, and conditioned never to meet (the Vandermonde
    h-transform of their determinant density).  That density is symmetric
    under y1 <-> y2, so P(Y1 > u) and P(Y2 <= u) are the chances that both
    coordinates of the free pair, weighted by (y2 - y1) / (x2 - x1), lie
    above (below) u: products of one-dimensional Gaussian integrals,
    P(Y1 > u) = A1 A2 + sqrt(t) (A1 phi2 - A2 phi1) / (x2 - x1) with
    A_i = P(x_i + B_t > u) and phi_i the normal density at (u - x_i)/sqrt(t),
    and P(Y2 <= u) likewise with P(x_i + B_t <= u) and the sign flipped."""
    x1, x2 = (float(v) for v in x0)
    s = math.sqrt(t)

    def cdf(u):
        u = np.asarray(u, float)
        z1, z2 = (u - x1) / s, (u - x2) / s
        phi1 = np.exp(-0.5 * z1 * z1) / math.sqrt(2.0 * math.pi)
        phi2 = np.exp(-0.5 * z2 * z2) / math.sqrt(2.0 * math.pi)
        if idx == 0:
            a1, a2 = sc.ndtr(-z1), sc.ndtr(-z2)
            return 1.0 - (a1 * a2 + s * (a1 * phi2 - a2 * phi1) / (x2 - x1))
        b1, b2 = sc.ndtr(z1), sc.ndtr(z2)
        return b1 * b2 - s * (b1 * phi2 - b2 * phi1) / (x2 - x1)

    return cdf


def run_dyson_w12(paths, dt, seed):
    bm = make_spec("bm")
    y0 = np.random.default_rng(99).uniform(-1.0, 1.0, size=(paths, 1))
    pb = rs.simulate_two_level(
        bm, tl.Shape.NNP1, np.array([-1.0, 1.0]), y0, T=1.0, dt=dt,
        n_paths=paths, seed=seed, y_spec=bm,
    )
    return pb.terminal(1)


def run_bes3_w11(paths, dt, seed):
    spec = make_spec("bm_halfline:abs")
    ysp = make_spec("bm_halfline:refl")
    y0 = np.random.default_rng(123).uniform(0.0, 1.0, size=(paths, 1))
    pb = rs.simulate_two_level(
        spec, tl.Shape.NN, np.array([1.0]), y0, T=1.0, dt=dt,
        n_paths=paths, seed=seed, y_spec=ysp,
    )
    return pb.terminal(1)[:, 0]


@register("warren-dyson", "reflected systems vs exact laws")
def check_warren_dyson(paths=20000, seed=7):
    rows = []
    X = run_dyson_w12(paths=paths, dt=WARREN_DT, seed=seed)
    for idx in (0, 1):
        F = dyson_marginal_cdf([-1.0, 1.0], 1.0, idx)
        s = np.sort(X[:, idx])
        ks = ks_statistic_cdf(s, F(s))
        ok = ks <= LAW_TOL
        rows.append({"case": f"dyson-W12-X{idx+1}", "ks": ks, "tolerance": LAW_TOL,
                     "paths": paths, "dt": WARREN_DT, "pass": ok})
    xs = run_bes3_w11(paths=paths, dt=WARREN_DT, seed=seed + 35)
    s = np.sort(xs)
    ks = ks_statistic_cdf(s, bes3_cdf(s))
    ok = ks <= LAW_TOL
    rows.append({"case": "bes3-W11", "ks": ks, "tolerance": LAW_TOL,
                 "paths": paths, "dt": WARREN_DT, "pass": ok})
    return rows


# -- A6 ---------------------------------------------------------------------

ORACLE_COUNT = 200000  # eigenvalue draws per oracle sampler, here and in A7
# the gt2-besq levels step exactly and push in sqrt(x), so a coarse grid
# meets the tolerance: against the exact edge CDFs at 200k paths every row
# reads <= 0.0035 at dt = 0.025, a quarter of the tolerance or less, and
# the gt2-besq eig0 row rises to 0.0046 at 0.1
ENTRANCE_GT_DT = 0.025


def run_gt2(family: str, paths, dt, seed, init_seed=11):
    """GT(2) from the origin via the entrance law at t0 = 1e-3, run to T = 1."""
    elaw = km.entrance_law(family, 2)
    specs = edge_ladder(elaw.spec, 2)
    rng = np.random.default_rng(init_seed)
    x2 = elaw.sample(rng, 1e-3, paths)
    x1 = x2[:, 0] + rng.random(paths) * (x2[:, 1] - x2[:, 0])
    return rs.simulate_gt(specs, [x1[:, None], x2], T=1.0, dt=dt, n_paths=paths, seed=seed,
                          t0=1e-3)


@register("entrance-gt", "pattern levels vs matrix oracles")
def check_entrance_gt(paths=20000, seed=5):
    rows = []
    rng = np.random.default_rng(2024)
    cases = (
        ("dyson", lambda: run_gt2("gue", paths, ENTRANCE_GT_DT, seed),
         lambda: gue_sample(rng, 2, ORACLE_COUNT)),
        ("besq", lambda: run_gt2("besq:2", paths, ENTRANCE_GT_DT, seed + 10, init_seed=21),
         lambda: complex_wishart_sample(rng, 2, 2, ORACLE_COUNT, entry_variance=2.0)),
    )
    for name, simulate, draw in cases:
        pb = simulate()
        ev = draw()
        for idx in (0, 1):
            ks = two_sample_ks(pb.terminal(1)[:, idx], ev[:, idx])
            ok = ks <= LAW_TOL
            rows.append({"case": f"gt2-{name}-eig{idx}", "ks": ks, "tolerance": LAW_TOL,
                         "paths": paths, "dt": ENTRANCE_GT_DT,
                         "stopped": int(np.isfinite(pb.tau).sum()), "pass": ok})
        # one case's bundle and oracle at a time: free them before the next
        del pb, ev
    return rows


# -- A7 ---------------------------------------------------------------------


@register("edge-formulas", "edge CDFs vs oracles and sims")
def check_edge_formulas(paths=20000, seed=9):
    rows = []
    rng = np.random.default_rng(5150)
    # edge pushes are sampled from the bridge maximum of each step, exact in
    # law behind a Brownian leader, so a coarse grid meets the tolerance; the
    # three-particle run keeps twice the paths
    sim_budget = {2: (0.05, paths), 3: (0.05, 2 * paths)}
    for n in (2, 3):
        # each oracle column is sorted once: its quantiles and its empirical
        # CDF both read the sorted copy
        ev = np.sort(gue_sample(rng, n, ORACLE_COUNT)[:, -1])
        lo, hi = np.quantile(ev, [5e-4, 1 - 5e-4])
        zg = np.linspace(lo - 0.3, hi + 0.3, 61)
        F = ek.edge_max_cdf_degenerate(make_spec("bm"), n, 1.0, 0.0, zg)
        d_oracle = float(np.max(np.abs(F - empirical_cdf_on_grid(ev, zg))))
        dt_n, paths_n = sim_budget[n]
        pb = rs.simulate_edge(make_spec("bm"), n, "right", np.zeros(n), T=1.0, dt=dt_n,
                              n_paths=paths_n, seed=seed + n)
        mx = pb.terminal(0)[:, -1]
        d_sim = float(np.max(np.abs(F - empirical_cdf_on_grid(mx, zg))))
        ok = d_oracle <= LAW_TOL and d_sim <= LAW_TOL
        rows.append({"case": f"bm-max-n{n}", "sup_diff_oracle": d_oracle,
                     "sup_diff_sim": d_sim, "tolerance": LAW_TOL, "paths": paths_n,
                     "dt": dt_n, "pass": ok})
        # free this oracle and simulation before the next draw
        del ev, pb, mx
    evw = complex_wishart_sample(rng, 2, 2, ORACLE_COUNT, entry_variance=2.0)
    evw.sort(axis=0)
    zg = np.linspace(0.05, np.quantile(evw[:, 1], 1 - 5e-4) + 1.0, 61)
    Fmax = ek.edge_max_cdf_degenerate(make_spec("besq:2"), 2, 1.0, 0.0, zg)
    d_max = float(np.max(np.abs(Fmax - empirical_cdf_on_grid(evw[:, 1], zg))))
    zg2 = np.linspace(1e-3, np.quantile(evw[:, 0], 0.999) + 0.5, 61)
    Fmin = ek.edge_min_cdf_degenerate(make_spec("besq:2"), 2, 1.0, 0.0, zg2)
    d_min = float(np.max(np.abs(Fmin - empirical_cdf_on_grid(evw[:, 0], zg2))))
    ok = d_max <= LAW_TOL and d_min <= LAW_TOL
    # formulas against the oracle only: no simulation, so no grid
    rows.append({"case": "besq-extremes-n2", "sup_diff_oracle": max(d_max, d_min),
                 "sup_diff_sim": float("nan"), "tolerance": LAW_TOL, "paths": 0,
                 "dt": float("nan"), "pass": ok})
    return rows


# -- A8 ---------------------------------------------------------------------

EIGEN_TOL = 1e-6
RATIO_TOL = 1e-8  # bound on the spread of a ratio that must be constant


@register("eigen-structure", "eigenfunction structure checks")
def check_eigen_structure():
    rows = []
    cases = [
        ("bm", 2, 0.5, [[0.0, 1.0], [-1.0, 0.5]]),
        ("ou", 2, 0.5, [[0.0, 1.0], [-0.8, 0.4]]),
        ("bm_interval:abs,abs", 2, 0.3, [[1.0, 2.0], [0.7, 2.2]]),
        ("bm_interval:refl,refl", 2, 0.3, [[1.0, 2.0], [0.7, 2.2]]),
    ]
    for sid, n, t, probes in cases:
        spec = make_spec(sid)
        h = km.eigenfunction_catalog(spec, n)
        r = km.eigen_residual(kernel(spec), h, t, probes)
        ok = r <= EIGEN_TOL
        rows.append({"case": f"eigen-{sid}-n{n}", "value": r, "tolerance": EIGEN_TOL,
                     "pass": ok})

    # a catalog rate is the ground state's: minus the partial spectral sum,
    # and the semigroup's own rate at one probe
    ground_cases = [
        ("bm_interval:abs,abs", 3, [0.8, 1.6, 2.4]),
        ("ou", 3, [-0.9, 0.1, 1.2]),
        ("lag:3", 2, [0.6, 2.0]),
        ("jac:1,1", 2, [0.3, 0.7]),
    ]
    for sid, n, probe in ground_cases:
        spec = make_spec(sid)
        h = km.eigenfunction_catalog(spec, n)
        basis = spectral_basis(spec)
        spectrum = -sum(basis.eigenvalue(k) for k in range(n))
        r = km.eigen_residual(kernel(spec), h, 0.4, [probe])
        ok = h.rate == spectrum and r <= EIGEN_TOL
        rows.append({"case": f"ground-rate-{sid}-n{n}", "value": h.rate, "spectrum": spectrum,
                     "residual": r, "tolerance": 0.0, "pass": ok})

    # the OU ground state, the Hermite determinant, is a multiple of the
    # catalog's Vandermonde: constant ratio over probes
    hermite = spectral_basis(make_spec("ou"))
    probes = np.array([[-1.0, 0.2, 1.1], [-0.5, 0.1, 0.9], [0.0, 1.0, 2.0]])
    ground = km.det_of_components([lambda x, k=k: hermite.phi(k, x) for k in range(3)], probes)
    ratios = ground / km.eigenfunction_catalog(make_spec("ou"), 3)(probes)
    r = float(np.max(np.abs(ratios / ratios[0] - 1.0)))
    ok = r <= RATIO_TOL
    rows.append({"case": "ou-ground-vandermonde-ratio", "value": r,
                 "tolerance": RATIO_TOL, "pass": ok})

    # chain recursion reproduces the catalog's closed forms up to constants
    xs = np.array([[0.3, 1.7], [0.5, 2.5], [1.0, 4.0]])
    chain_cases = [
        ("bm-chain", km.bm_pattern_chain(2), "bm"),
        ("halfline-h12", km.halfline_pattern_chain(2), "bm_halfline:refl"),
        ("halfline-h22", km.halfline_pattern_chain(3), "bm_halfline:abs"),
        ("besq3-powers", km.besq_pattern_chain(3.0, 3), "besq:-1"),
    ]
    for label, built, sid in chain_cases:
        ratios = built(xs) / km.eigenfunction_catalog(make_spec(sid), built.n)(xs)
        r = float(np.max(np.abs(ratios / ratios[0] - 1.0)))
        ok = r <= RATIO_TOL
        rows.append({"case": f"chain-{label}", "value": r, "tolerance": RATIO_TOL, "pass": ok})

    # unit-weight chain has Wronskian identically one
    wr = km.wronskian(km.bm_pattern_chain(2).components, 1.3)
    wr_tol = 1e-6
    ok = abs(wr - 1.0) <= wr_tol
    rows.append({"case": "bm-chain-wronskian", "value": wr, "tolerance": wr_tol, "pass": ok})
    return rows


# -- A9 ---------------------------------------------------------------------

ENTRANCE_LEMMA_TOL = 1e-8


@register("entrance-lemma", "degenerate-start density identity")
def check_entrance_lemma():
    bm = kernel(make_spec("bm"))
    dens = km.polynomial_ensemble_limit(bm, km.vandermonde(2), 0.0, 2, 1.0)
    elaw = km.entrance_law("gue", 2)
    ys = np.array([[-1.0, 0.5], [0.2, 1.3], [-2.0, 2.0], [0.0, 0.7], [-0.4, 3.0]])
    diff = float(np.max(np.abs(dens(ys) - elaw.density(1.0, ys))))
    return [{"case": "bm-limit-vs-gue-law", "max_pointwise_diff": diff,
             "tolerance": ENTRANCE_LEMMA_TOL, "pass": diff <= ENTRANCE_LEMMA_TOL}]


# -- A10 --------------------------------------------------------------------

REFINEMENT_DTS = (4e-3, 2e-3, 1e-3)  # perfbench's gate pins the row names


@register("skorokhod", "map properties and dt-refinement")
def check_skorokhod(paths=20000, seed=3):
    rows = []
    # explicit one-sided formula on random walks: exact on the grid.  Each
    # walk is one column of a batch; the map acts along axis 0 only
    rng = np.random.default_rng(seed)
    z = np.cumsum(rng.normal(0, 0.3, size=(50, 60)), axis=1).T
    res = rs.skorokhod_map(z, lower=0.0)
    explicit = z + np.maximum.accumulate(np.maximum(-z, 0.0), axis=0)
    worst = float(np.max(np.abs(res.x - explicit)))
    ok = worst == 0.0
    rows.append({"case": "explicit-formula", "value": worst, "tolerance": 0.0, "pass": ok})

    # Lipschitz constant of the two-sided solution map
    zs, zas, epss = [], [], []
    for _ in range(200):
        z = np.cumsum(rng.normal(0, 0.3, size=80))
        pert = rng.normal(0, 1.0, size=80)
        eps = 10.0 ** rng.uniform(-4, -1)
        zs.append(z)
        zas.append(z + eps * pert / max(np.max(np.abs(pert)), 1e-12))
        epss.append(eps)
    ra = rs.skorokhod_map(np.stack(zas, axis=1), lower=-1.0, upper=1.0)
    rb = rs.skorokhod_map(np.stack(zs, axis=1), lower=-1.0, upper=1.0)
    cmax = float(np.max(np.max(np.abs(ra.x - rb.x), axis=0) / np.array(epss)))
    ok = cmax <= 4.0
    rows.append({"case": "lipschitz-bound", "value": cmax, "tolerance": 4.0, "pass": ok})

    # dt-refinement: KS of the reflected half-line system decreases within
    # Monte-Carlo noise as dt halves
    noise = 2.5 / math.sqrt(paths)
    ks_vals = []
    for i, dt in enumerate(REFINEMENT_DTS):
        xs = run_bes3_w11(paths=paths, dt=dt, seed=seed + 100 + i)
        s = np.sort(xs)
        ks_vals.append(ks_statistic_cdf(s, bes3_cdf(s)))
    mono = all(ks_vals[i + 1] <= ks_vals[i] + noise for i in range(len(ks_vals) - 1))
    for dt, ksv in zip(REFINEMENT_DTS, ks_vals):
        rows.append({"case": f"refinement-dt-{dt:g}", "value": ksv,
                     "tolerance": noise, "pass": mono})
    return rows

