"""Correctness gate held by the benchmark.

Every tolerance below is copied from the acceptance suite
(tests/test_acceptance.py and the defaults it pins), never read from the
program.  Monte Carlo tolerances are scaled by sqrt(acceptance paths /
workload paths); distances between a formula and an oracle keep their
acceptance value, because the oracle sample size does not change.

A check result is a list of rows (dicts).  `judge(name, rows, paths)`
returns one Op per expected case: the achieved error, the tolerance the
benchmark holds and whether the case passed.  A case the program did not
return counts as failed.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

ACCEPTANCE_PATHS = 20000
KS_TOL = 0.02
SUP_TOL = 0.02

A1_TOL = {
    "bm": 1e-8,
    "bm_halfline:refl": 1e-8,
    "ou": 1e-6,
    "besq:2.5": 1e-6,
    "besq:3": 1e-6,
}

# spec -> (class_l, class_r); the dual classes follow from the Feller
# duality natural<->natural, entrance<->exit, regular<->regular.
A2_TABLE = {
    "bm": ("natural", "natural"),
    "ou": ("natural", "natural"),
    "besq:0.5": ("regular", "natural"),
    "besq:1": ("regular", "natural"),
    "besq:2": ("entrance", "natural"),
    "besq:3": ("entrance", "natural"),
    "jac:1,1": ("entrance", "entrance"),
    "gbm:1": ("natural", "natural"),
}
A2_DUAL = {"natural": "natural", "entrance": "exit", "exit": "entrance", "regular": "regular"}

A3_TOL = 1e-3
A3_PROBES = 5
A4_TOL = 1e-4
A4_CASES = ("dyson-1-2", "halfline-W11", "besq3-W12")
A4_TEST_FUNCTIONS = 3

A8_TOL = 1e-6
A8_RATIO_TOL = 1e-8
A8_WRONSKIAN_TOL = 1e-6
# minus the sum of the first n eigenvalues of each catalog generator:
# bm on (0, pi) killed at both ends k^2/2, OU k, Laguerre(3) 2k, Jacobi(1,1) k(k+3)
A8_GROUND_RATES = {
    "bm_interval:abs,abs-n3": -7.0,
    "ou-n3": -3.0,
    "lag:3-n2": -2.0,
    "jac:1,1-n2": -4.0,
}
A8_EIGEN = ("bm-n2", "ou-n2", "bm_interval:abs,abs-n2", "bm_interval:refl,refl-n2")
A8_CHAINS = ("bm-chain", "halfline-h12", "halfline-h22", "besq3-powers")

A9_TOL = 1e-8
A10_LIPSCHITZ = 4.0
A10_DTS = (4e-3, 2e-3, 1e-3)
A10_NOISE = 2.5  # refinement slack is A10_NOISE / sqrt(paths)


@dataclass
class Op:
    case: str
    err: float
    tol: float
    ok: bool


def mc_tol(base: float, paths: int, acceptance_paths: int = ACCEPTANCE_PATHS) -> float:
    """Tolerance for a Monte Carlo distance at `paths` given its acceptance value."""
    return base * math.sqrt(acceptance_paths / paths)


def _num(v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        return float("nan")


def _le(err: float, tol: float) -> bool:
    # NaN compares False, so a missing or non-numeric error fails
    return err <= tol


def _by(rows, key):
    return {str(r.get(key)): r for r in rows}


def _missing(case, tol):
    return Op(case, float("nan"), tol, False)


def _bounded(rows_by_case, cases, key, tol):
    ops = []
    for case in cases:
        row = rows_by_case.get(case)
        if row is None:
            ops.append(_missing(case, tol))
            continue
        err = _num(row.get(key))
        ops.append(Op(case, err, tol, _le(err, tol)))
    return ops


def judge_duality_catalog(rows, paths=None):
    by = _by(rows, "spec")
    return [op for sid, tol in A1_TOL.items() for op in _bounded(by, [sid], "max_residual", tol)]


def judge_boundary_table(rows, paths=None):
    by = _by(rows, "spec")
    ops = []
    for sid, (cl, cr) in A2_TABLE.items():
        row = by.get(sid)
        if row is None:
            ops.append(_missing(sid, 0.0))
            continue
        want = (cl, cr, A2_DUAL[cl], A2_DUAL[cr])
        got = (row.get("class_l"), row.get("class_r"), row.get("dual_class_l"), row.get("dual_class_r"))
        mismatches = float(sum(a != b for a, b in zip(want, got)))
        ops.append(Op(sid, mismatches, 0.0, mismatches == 0.0))
    return ops


def judge_chapman(rows, paths=None):
    by = {f"probe{i}": r for i, r in enumerate(rows)}
    return _bounded(by, [f"probe{i}" for i in range(A3_PROBES)], "rel_residual", A3_TOL)


def judge_master_intertwinings(rows, paths=None):
    by = {f"{r.get('case')}.f{r.get('test_function')}": r for r in rows}
    cases = [f"{c}.f{k}" for c in A4_CASES for k in range(A4_TEST_FUNCTIONS)]
    return _bounded(by, cases, "residual", A4_TOL)


def judge_warren_dyson(rows, paths):
    tol = mc_tol(KS_TOL, paths)
    return _bounded(_by(rows, "case"), ["dyson-W12-X1", "dyson-W12-X2", "bes3-W11"], "ks", tol)


def judge_entrance_gt(rows, paths):
    tol = mc_tol(KS_TOL, paths)
    cases = ["gt2-dyson-eig0", "gt2-dyson-eig1", "gt2-besq-eig0", "gt2-besq-eig1"]
    return _bounded(_by(rows, "case"), cases, "ks", tol)


def judge_edge_formulas(rows, paths):
    # the n=3 run uses twice the paths of the n=2 run, at acceptance and here
    # alike, so both share the scaling
    by = _by(rows, "case")
    sim_tol = mc_tol(SUP_TOL, paths)
    ops = []
    for n in (2, 3):
        case = f"bm-max-n{n}"
        ops += [Op(o.case + ".oracle", o.err, o.tol, o.ok)
                for o in _bounded(by, [case], "sup_diff_oracle", SUP_TOL)]
        ops += [Op(o.case + ".sim", o.err, o.tol, o.ok)
                for o in _bounded(by, [case], "sup_diff_sim", sim_tol)]
    ops += [Op(o.case + ".oracle", o.err, o.tol, o.ok)
            for o in _bounded(by, ["besq-extremes-n2"], "sup_diff_oracle", SUP_TOL)]
    return ops


def judge_eigen_structure(rows, paths=None):
    by = _by(rows, "case")
    ops = _bounded(by, [f"eigen-{c}" for c in A8_EIGEN], "value", A8_TOL)
    for case, rate in A8_GROUND_RATES.items():
        row = by.get(f"ground-rate-{case}")
        if row is None:
            ops.append(_missing(f"ground-rate-{case}", 0.0))
            continue
        err = abs(_num(row.get("value")) - rate)
        ops.append(Op(f"ground-rate-{case}", err, 0.0, err == 0.0))
    ops += _bounded(by, ["ou-ground-vandermonde-ratio"] + [f"chain-{c}" for c in A8_CHAINS],
                    "value", A8_RATIO_TOL)
    row = by.get("bm-chain-wronskian")
    err = abs(_num(row.get("value")) - 1.0) if row is not None else float("nan")
    ops.append(Op("bm-chain-wronskian", err, A8_WRONSKIAN_TOL, _le(err, A8_WRONSKIAN_TOL)))
    return ops


def judge_entrance_lemma(rows, paths=None):
    return _bounded(_by(rows, "case"), ["bm-limit-vs-gue-law"], "max_pointwise_diff", A9_TOL)


def judge_skorokhod(rows, paths):
    by = _by(rows, "case")
    ops = _bounded(by, ["explicit-formula"], "value", 0.0)
    ops += _bounded(by, ["lipschitz-bound"], "value", A10_LIPSCHITZ)
    slack = A10_NOISE / math.sqrt(paths)
    cases = [f"refinement-dt-{dt:g}" for dt in A10_DTS]
    ks = [_num(by[c].get("value")) if c in by else float("nan") for c in cases]
    # the KS may rise by at most the Monte Carlo slack as dt halves; the
    # coarsest dt has nothing to rise over
    for i, case in enumerate(cases):
        tol = math.inf if i == 0 else ks[i - 1] + slack
        ops.append(Op(case, ks[i], tol, _le(ks[i], tol)))
    return ops


JUDGES = {
    "duality-catalog": judge_duality_catalog,
    "boundary-table": judge_boundary_table,
    "chapman-bm": judge_chapman,
    "master-intertwinings": judge_master_intertwinings,
    "warren-dyson": judge_warren_dyson,
    "entrance-gt": judge_entrance_gt,
    "edge-formulas": judge_edge_formulas,
    "eigen-structure": judge_eigen_structure,
    "entrance-lemma": judge_entrance_lemma,
    "skorokhod": judge_skorokhod,
}


def expected_cases(name: str, paths: int = ACCEPTANCE_PATHS) -> list:
    """Case names a check must return; used to count a raising check's ops."""
    return [op.case for op in JUDGES[name]([], paths)]


def judge(name: str, rows, paths: int = ACCEPTANCE_PATHS) -> list:
    return JUDGES[name](rows, paths)


def err_metric_names() -> list:
    """err.<check>.<case> for every case with a residual, KS or sup distance
    (A2 compares class labels, so it has none)."""
    return [metric_name(name, case) for name in JUDGES if name != "boundary-table"
            for case in expected_cases(name)]


def metric_name(check: str, case: str) -> str:
    """err.<check>.<case> with the characters a metric name allows."""
    return "err." + re.sub(r"[^A-Za-z0-9_.-]", "_", f"{check}.{case}")
