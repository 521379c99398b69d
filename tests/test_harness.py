import io
import math
import os

import numpy as np
import pytest
from scipy.special import ndtr

from interlace_lab.harness import (
    CampaignConfig,
    CampaignError,
    MCReport,
    complex_wishart_sample,
    gue_sample,
    jacobi_unitary_sample,
    ks_compare,
    read_config,
    rmt_oracle,
    run_campaign,
    two_sample_ks,
    write_csv,
)


class TestOracles:
    def test_gue_one_is_standard_gaussian(self):
        rng = np.random.default_rng(1)
        ev = gue_sample(rng, 1, 20000)[:, 0]
        rep = ks_compare(ev, ndtr)
        assert rep.ks_statistic < 0.015

    def test_wishart_row_mean_eigenvalue(self):
        rng = np.random.default_rng(2)
        for k in (1, 3, 5):
            ev = complex_wishart_sample(rng, 1, k, 6000)[:, 0]
            assert ev.mean() == pytest.approx(k, abs=3 * math.sqrt(k / 6000))

    def test_jacobi_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(3)
        ev = jacobi_unitary_sample(rng, 2, 3, 4, 300)
        assert np.all(ev >= -1e-10) and np.all(ev <= 1.0 + 1e-10)

    def test_string_addressing_and_caps(self):
        rng = np.random.default_rng(4)
        assert rmt_oracle("gue:2", 100, rng).shape == (100, 2)
        assert rmt_oracle("wishart:2,3", 50, rng).shape == (50, 2)
        with pytest.raises(ValueError):
            rmt_oracle("gue:7", 10, rng)
        with pytest.raises(ValueError):
            rmt_oracle("gue:2", 2_000_000, rng)

    def test_eigenvalues_sorted(self):
        rng = np.random.default_rng(5)
        ev = gue_sample(rng, 3, 500)
        assert np.all(np.diff(ev, axis=1) >= 0)


class TestKSCompare:
    def test_self_consistency_pvalues(self):
        # inverse-transform samples from the target law: p-values spread
        # over (0, 1) rather than piling up at 0
        pvals = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            s = rng.normal(size=2000)
            pvals.append(ks_compare(s, ndtr).ks_pvalue)
        pvals = np.array(pvals)
        assert 0.3 < pvals.mean() < 0.7
        assert pvals.min() > 1e-4

    def test_shift_is_rejected(self):
        rng = np.random.default_rng(7)
        s = rng.normal(0.5, 1.0, size=10000)
        rep = ks_compare(s, ndtr)
        assert rep.ks_pvalue < 1e-3
        assert rep.ks_statistic > 0.1

    def test_disjoint_and_identical_supports(self):
        rng = np.random.default_rng(8)
        far = rng.normal(10.0, 1.0, size=2000)
        assert ks_compare(far, ndtr).ks_statistic > 0.999
        near = rng.normal(0.0, 1.0, size=100000)
        assert ks_compare(near, ndtr).ks_statistic < 0.005

    def test_moment_errors_reported(self):
        rng = np.random.default_rng(9)
        rep = ks_compare(rng.normal(size=50000), ndtr)
        assert len(rep.moment_errors) == 4
        assert rep.moment_errors[0] < 0.02
        assert rep.moment_errors[1] < 0.05

    def test_non_monotone_cdf_rejected(self):
        with pytest.raises(ValueError):
            ks_compare(np.random.default_rng(0).normal(size=2000), lambda z: -ndtr(z))

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            ks_compare(np.zeros(10), ndtr)

    def test_report_round_trip(self):
        rep = MCReport(sample_size=10, ks_statistic=0.1, ks_pvalue=0.5,
                       moment_errors=[0.1, 0.2], runtime=1.0, seed=3, label="x")
        back = MCReport.from_json(rep.to_json())
        assert back == rep

    def test_two_sample_ks(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=5000)
        b = rng.normal(size=5000)
        assert two_sample_ks(a, b) < 0.04
        # 3-sigma shift: sup|Phi(z) - Phi(z-3)| = Phi(1.5) - Phi(-1.5) ~ 0.866
        assert two_sample_ks(a, b + 3.0) > 0.85


class TestIO:
    def test_csv_schema_line(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_csv(p, ["a", "b"], [{"a": 1, "b": 2}])
        lines = p.read_text().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1] == "a,b"
        assert lines[2] == "1,2"

    def test_config_round_trip(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[campaign]\nname = chapman-bm\nnodes = 40\ntolerance = 1e-3\n")
        cfg = CampaignConfig.from_file(str(p))
        assert cfg.name == "chapman-bm"
        assert cfg.nodes == 40
        assert cfg.tolerance == pytest.approx(1e-3)

    def test_missing_section_raises(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[other]\nname = x\n")
        with pytest.raises(KeyError):
            read_config(str(p), "campaign")


class TestCampaigns:
    def test_budget_caps_enforced(self):
        with pytest.raises(CampaignError):
            CampaignConfig(name="warren-dyson", paths=2_000_000)
        with pytest.raises(CampaignError):
            CampaignConfig(name="chapman-bm", tolerance=-1.0)
        with pytest.raises(CampaignError):
            CampaignConfig(name="chapman-bm", nodes=4000)

    def test_unknown_campaign(self):
        with pytest.raises(CampaignError):
            run_campaign(CampaignConfig(name="no-such-campaign"))

    def test_setting_the_check_does_not_take_is_rejected(self):
        # edge-formulas picks its own step size: a dt would do nothing
        with pytest.raises(CampaignError, match="dt"):
            run_campaign(CampaignConfig(name="edge-formulas", dt=1e-3))

    def test_unknown_config_file_key_is_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[campaign]\nname = chapman-bm\nnode = 40\n")
        with pytest.raises(CampaignError, match="node"):
            CampaignConfig.from_file(str(p))

    def test_all_passes_each_setting_to_the_checks_that_take_it(self):
        from interlace_lab.harness.campaign import _check_kwargs

        cfg = CampaignConfig(name="all", dt=1e-3, tolerance=0.05)
        assert _check_kwargs("warren-dyson", cfg) == ({"dt": 1e-3, "ks_tol": 0.05}, set())
        assert _check_kwargs("chapman-bm", cfg) == ({"tol": 0.05}, {"dt"})
        assert _check_kwargs("skorokhod", cfg) == ({}, {"dt", "tolerance"})

    def test_fast_campaign_writes_outputs(self, tmp_path):
        cfg = CampaignConfig(name="boundary-table", out=str(tmp_path))
        res = run_campaign(cfg)
        assert res.passed
        assert (tmp_path / "boundary-table.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        head = (tmp_path / "boundary-table.csv").read_text().splitlines()[0]
        assert head == "#schema=1"

    def test_negative_control_fails_loudly(self):
        cfg = CampaignConfig(name="master-intertwinings", perturb="indicator", nodes=16)
        res = run_campaign(cfg)
        assert not res.passed

    def test_reproducible_across_thread_counts(self):
        r1 = run_campaign(CampaignConfig(name="chapman-bm", nodes=32))
        r2 = run_campaign(CampaignConfig(name="chapman-bm", nodes=32, threads=4))
        v1 = [row["rel_residual"] for row in r1.rows]
        v2 = [row["rel_residual"] for row in r2.rows]
        assert v1 == v2
