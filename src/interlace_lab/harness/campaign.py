"""Campaign orchestration: configs, budget caps, CSV output, exit status."""
from __future__ import annotations

import inspect
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .checks import ALL_CHECKS, CheckResult
from .io import ensure_outdir, read_config, rows_block, write_csv


class CampaignError(RuntimeError):
    pass


#: hard budget caps
MAX_PATHS = 1_000_000
MAX_NODES = 128


#: config fields passed to checks, each with the check parameters it may
#: fill (the first one a check takes)
CHECK_PARAMS = {
    "paths": ("paths",),
    "dt": ("dt",),
    "nodes": ("n_nodes",),
    "tolerance": ("tol", "ks_tol"),
    "seed": ("seed",),
    "perturb": ("perturb",),
}


@dataclass
class CampaignConfig:
    """A campaign: a check name from ALL_CHECKS (or 'all') and settings.

    Every setting in CHECK_PARAMS that is not None must be taken by the
    check, or under 'all' by at least one check; run_campaign raises
    CampaignError otherwise.
    """

    name: str
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
        if raw:
            raise CampaignError(f"unknown campaign config keys in {path}: {sorted(raw)}")
        return cls(**kw)


def _check_kwargs(name: str, cfg: CampaignConfig):
    """Keyword arguments for check `name` from cfg, read off the check's
    signature, and the settings given in cfg that the check does not take."""
    params = inspect.signature(ALL_CHECKS[name]).parameters
    kw, unused = {}, set()
    for key, targets in CHECK_PARAMS.items():
        value = getattr(cfg, key)
        if value is None:
            continue
        target = next((t for t in targets if t in params), None)
        if target is None:
            unused.add(key)
        else:
            kw[target] = value
    return kw, unused


def run_campaign(cfg: CampaignConfig) -> CheckResult:
    """Execute one named campaign (or 'all'), write CSV + summary, and
    return the aggregate result; exit status is passed/failed."""
    t0 = time.perf_counter()
    if cfg.name != "all" and cfg.name not in ALL_CHECKS:
        raise CampaignError(f"unknown campaign {cfg.name!r}; known: {sorted(ALL_CHECKS)}")
    names = list(ALL_CHECKS) if cfg.name == "all" else [cfg.name]
    # under 'all' a setting goes to the checks that take it, and only a
    # setting that no check takes is an error
    kwargs, untaken = {}, set(CHECK_PARAMS)
    for n in names:
        kwargs[n], unused = _check_kwargs(n, cfg)
        untaken &= unused
    if untaken:
        raise CampaignError(f"no check in campaign {cfg.name!r} takes {', '.join(sorted(untaken))}")
    outdir = ensure_outdir(cfg.out)
    if cfg.name == "all":
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
                futs = {n: ex.submit(_run_one, n, kwargs[n]) for n in names}
                results = [futs[n].result() for n in names]
        else:
            results = [_run_one(n, kwargs[n]) for n in names]
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
                write_csv(os.path.join(outdir, f"{r.name}.csv"), r.fieldnames,
                          [rows_block(r.fieldnames, r.rows)])
            write_csv(os.path.join(outdir, "summary.csv"), agg.fieldnames,
                      [rows_block(agg.fieldnames, agg.rows)])
        return agg
    res = _run_one(cfg.name, kwargs[cfg.name])
    if outdir:
        write_csv(os.path.join(outdir, f"{res.name}.csv"), res.fieldnames,
                  [rows_block(res.fieldnames, res.rows)])
        _write_summary(os.path.join(outdir, "summary.csv"), res)
    return res


def _run_one(name: str, kwargs: dict) -> CheckResult:
    try:
        return ALL_CHECKS[name](**kwargs)
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
