"""Verification harness: oracles, statistics, campaigns, CSV I/O."""
from .campaign import CampaignConfig, CampaignError, run_campaign
from .checks import ALL_CHECKS, CheckResult
from .io import CSV_SCHEMA, read_config, write_csv
from .oracles import (
    complex_wishart_sample,
    gue_corners_sample,
    gue_sample,
    jacobi_unitary_sample,
    rmt_oracle,
)
from .stats import (
    cdf_from_density_grid,
    empirical_cdf_on_grid,
    ks_statistic_cdf,
    two_sample_ks,
)

__all__ = [
    "ALL_CHECKS",
    "CSV_SCHEMA",
    "CampaignConfig",
    "CampaignError",
    "CheckResult",
    "cdf_from_density_grid",
    "complex_wishart_sample",
    "empirical_cdf_on_grid",
    "gue_corners_sample",
    "gue_sample",
    "jacobi_unitary_sample",
    "ks_statistic_cdf",
    "read_config",
    "rmt_oracle",
    "run_campaign",
    "two_sample_ks",
    "write_csv",
]
