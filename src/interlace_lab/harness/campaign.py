"""Campaign orchestration: configs, budget caps, CSV output, exit status."""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from .checks import ALL_CHECKS, CheckResult
from .io import ensure_outdir, read_config, write_csv


class CampaignError(RuntimeError):
    pass


#: hard budget caps
MAX_PATHS = 1_000_000
MAX_NODES = 128


@dataclass
class CampaignConfig:
    name: str
    parameters: dict = field(default_factory=dict)
    paths: Optional[int] = None
    dt: Optional[float] = None
    nodes: Optional[int] = None
    tolerance: Optional[float] = None
    seed: Optional[int] = None
    threads: int = 1
    out: Optional[str] = None
    perturb: Optional[str] = None

    def __post_init__(self):
        if self.paths is not None and not (0 < self.paths <= MAX_PATHS):
            raise CampaignError(f"paths budget out of range: {self.paths}")
        if self.nodes is not None and not (0 < self.nodes <= MAX_NODES):
            raise CampaignError(f"node budget out of range: {self.nodes}")
        if self.tolerance is not None and self.tolerance <= 0:
            raise CampaignError("tolerance must be strictly positive")
        if self.dt is not None and self.dt <= 0:
            raise CampaignError("dt must be strictly positive")

    @classmethod
    def from_file(cls, path: str) -> "CampaignConfig":
        raw = read_config(path, "campaign")
        kw = {}
        kw["name"] = raw.pop("name")
        for key, cast in (("paths", int), ("dt", float), ("nodes", int),
                          ("tolerance", float), ("seed", int), ("threads", int)):
            if key in raw:
                kw[key] = cast(raw.pop(key))
        if "out" in raw:
            kw["out"] = raw.pop("out")
        if "perturb" in raw:
            kw["perturb"] = raw.pop("perturb")
        kw["parameters"] = raw
        return cls(**kw)


def _check_kwargs(cfg: CampaignConfig) -> dict:
    kw = {}
    name = cfg.name
    if cfg.paths is not None and name in ("warren-dyson", "entrance-gt", "edge-formulas", "skorokhod"):
        kw["paths"] = cfg.paths
    if cfg.dt is not None and name in ("warren-dyson", "entrance-gt"):
        kw["dt"] = cfg.dt
    if cfg.seed is not None and name in ("warren-dyson", "entrance-gt", "edge-formulas", "skorokhod"):
        kw["seed"] = cfg.seed
    if cfg.nodes is not None and name in ("chapman-bm",):
        kw["n_nodes"] = cfg.nodes
    if cfg.nodes is not None and name in ("master-intertwinings",):
        kw["n_nodes"] = cfg.nodes
    if cfg.tolerance is not None:
        tol_key = {
            "duality-catalog": None,
            "chapman-bm": "tol",
            "master-intertwinings": "tol",
            "warren-dyson": "ks_tol",
            "entrance-gt": "ks_tol",
            "edge-formulas": "tol",
            "eigen-structure": "tol",
            "entrance-lemma": "tol",
        }.get(name)
        if tol_key:
            kw[tol_key] = cfg.tolerance
    if cfg.perturb and name == "master-intertwinings":
        kw["perturb"] = cfg.perturb
    return kw


def run_campaign(cfg: CampaignConfig) -> CheckResult:
    """Execute one named campaign (or 'all'), write CSV + summary, and
    return the aggregate result; exit status is passed/failed."""
    t0 = time.perf_counter()
    outdir = ensure_outdir(cfg.out)
    if cfg.name == "all":
        names = list(ALL_CHECKS)
        results = []
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
                futs = {n: ex.submit(_run_one, n, cfg) for n in names}
                results = [futs[n].result() for n in names]
        else:
            results = [_run_one(n, cfg) for n in names]
        passed = all(r.passed for r in results)
        rows = [
            {"campaign": r.name, "passed": r.passed, "runtime": round(r.runtime, 3),
             "summary": r.summary}
            for r in results
        ]
        agg = CheckResult("all", rows, passed, f"{sum(r.passed for r in results)}/{len(results)} campaigns passed",
                          time.perf_counter() - t0)
        if outdir:
            for r in results:
                write_csv(os.path.join(outdir, f"{r.name}.csv"), r.fieldnames, r.rows)
            write_csv(os.path.join(outdir, "summary.csv"), agg.fieldnames, agg.rows)
        return agg
    res = _run_one(cfg.name, cfg)
    if outdir:
        write_csv(os.path.join(outdir, f"{res.name}.csv"), res.fieldnames, res.rows)
        _write_summary(os.path.join(outdir, "summary.csv"), res)
    return res


def _run_one(name: str, cfg: CampaignConfig) -> CheckResult:
    if name not in ALL_CHECKS:
        raise CampaignError(f"unknown campaign {name!r}; known: {sorted(ALL_CHECKS)}")
    try:
        return ALL_CHECKS[name](**_check_kwargs(cfg))
    except CampaignError:
        raise
    except Exception as exc:  # component failure propagates with context
        raise CampaignError(f"campaign {name!r} failed: {exc}") from exc


def _write_summary(path: str, res: CheckResult) -> None:
    write_csv(
        path,
        ["campaign", "passed", "runtime", "summary"],
        [{"campaign": res.name, "passed": res.passed,
          "runtime": round(res.runtime, 3), "summary": res.summary}],
    )
