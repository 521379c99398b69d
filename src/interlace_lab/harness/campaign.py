"""Campaign orchestration: configs, budget caps, CSV output, exit status."""
from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass
from typing import Optional

from .checks import ALL_CHECKS, CheckResult
from .io import ensure_outdir, read_config, rows_block, write_csv


class CampaignError(RuntimeError):
    pass


#: hard budget cap
MAX_PATHS = 1_000_000


#: the settings a campaign passes to its checks, each with the type its
#: config-file text is read as; a check takes a setting as its parameter
#: of the same name.  A check's tolerance, step size and node counts are
#: constants beside it, so no campaign can move them
SETTINGS = {"paths": int, "seed": int, "perturb": str}


@dataclass
class CampaignConfig:
    """A campaign: a check name from ALL_CHECKS (or 'all', the default) and
    settings.

    Every setting in SETTINGS that is not None must be taken by the check,
    or under 'all' by at least one check; run_campaign raises
    CampaignError otherwise.
    """

    name: str = "all"
    paths: Optional[int] = None
    seed: Optional[int] = None
    out: Optional[str] = None
    perturb: Optional[str] = None

    def __post_init__(self):
        if self.paths is not None and not (0 < self.paths <= MAX_PATHS):
            raise CampaignError(f"paths budget out of range: {self.paths}")
        if self.seed is not None and self.seed < 0:
            raise CampaignError(f"seed must be a non-negative integer, got {self.seed}")

    @classmethod
    def from_file(cls, path: str) -> "CampaignConfig":
        raw = read_config(path, "campaign")
        kw = {key: raw.pop(key) for key in ("name", "out") if key in raw}
        for key, cast in SETTINGS.items():
            if key in raw:
                try:
                    kw[key] = cast(raw.pop(key))
                except ValueError as e:  # only the int settings can fail
                    raise CampaignError(f"campaign {key} in {path}: {e}") from None
        if raw:
            raise CampaignError(f"unknown campaign config keys in {path}: {sorted(raw)}")
        return cls(**kw)


def _check_kwargs(name: str, cfg: CampaignConfig) -> dict:
    """The settings given in cfg that check `name` takes, read off its
    signature."""
    params = inspect.signature(ALL_CHECKS[name]).parameters
    return {key: getattr(cfg, key) for key in SETTINGS
            if getattr(cfg, key) is not None and key in params}


def run_campaign(cfg: CampaignConfig) -> CheckResult:
    """Run the named check, or every check under 'all'; with cfg.out, write
    each check's CSV and one summary.csv.  Returns the check's result, or
    under 'all' one summary row per check; exit status is passed/failed."""
    t0 = time.perf_counter()
    if cfg.name != "all" and cfg.name not in ALL_CHECKS:
        raise CampaignError(f"unknown campaign {cfg.name!r}; known: {sorted(ALL_CHECKS)}")
    names = list(ALL_CHECKS) if cfg.name == "all" else [cfg.name]
    # under 'all' a setting goes to the checks that take it, and only a
    # setting that no check takes is an error
    kwargs = {n: _check_kwargs(n, cfg) for n in names}
    given = {key for key in SETTINGS if getattr(cfg, key) is not None}
    untaken = given.difference(*kwargs.values())
    if untaken:
        raise CampaignError(f"no check in campaign {cfg.name!r} takes {', '.join(sorted(untaken))}")
    outdir = ensure_outdir(cfg.out)
    results = []
    for n in names:
        res = _run_one(n, kwargs[n])
        results.append(res)
        if outdir:
            _write_rows(os.path.join(outdir, f"{res.name}.csv"), res)
    summary = CheckResult(
        "all",
        [{"campaign": r.name, "passed": r.passed, "runtime": round(r.runtime, 3),
          "summary": r.summary} for r in results],
        all(r.passed for r in results),
        f"{sum(r.passed for r in results)}/{len(results)} campaigns passed",
        time.perf_counter() - t0,
    )
    if outdir:
        _write_rows(os.path.join(outdir, "summary.csv"), summary)
    return summary if cfg.name == "all" else results[0]


def _run_one(name: str, kwargs: dict) -> CheckResult:
    try:
        return ALL_CHECKS[name](**kwargs)
    except CampaignError:
        raise
    except Exception as exc:  # component failure propagates with context
        raise CampaignError(f"campaign {name!r} failed: {exc}") from exc


def _write_rows(path: str, res: CheckResult) -> None:
    write_csv(path, res.fieldnames, [rows_block(res.fieldnames, res.rows)])
