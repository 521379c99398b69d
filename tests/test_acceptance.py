"""Acceptance gate: one test per criterion, at full budget and pinned
tolerances, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""
import time

import numpy as np
import pytest

from interlace_lab.harness import checks


def _report(tag, result, budget_s):
    status = "PASS" if result.passed else "FAIL"
    worst = _worst(result)
    print(f"\n{tag} {result.name}: {status} ({worst}; runtime {result.runtime:.1f}s "
          f"< budget {budget_s:.0f}s)")
    for row in result.rows:
        if not row.get("pass", True):
            print(f"    FAILED ROW: {row}")
    assert result.passed, f"{tag} failed: {result.rows}"
    assert result.runtime < budget_s, f"{tag} exceeded its runtime budget"


def _worst(result):
    for key in ("max_residual", "rel_residual", "residual", "ks", "sup_diff_oracle",
                "max_pointwise_diff", "value"):
        vals = [row[key] for row in result.rows if key in row and _num(row[key])]
        if vals:
            return f"worst {key} = {max(vals):.3g}"
    return result.summary


def _num(v):
    return isinstance(v, (int, float)) and np.isfinite(v)


class TestAcceptance:
    def test_a1_duality_catalog(self):
        # closed-form pairs at 1e-8, Bessel/OU pairs at 1e-6, 5x5x3 grid
        _report("A1", checks.check_duality_catalog(), 10.0)

    def test_a2_boundary_table(self):
        _report("A2", checks.check_boundary_table(), 10.0)

    def test_a3_chapman_kolmogorov(self):
        _report("A3", checks.check_chapman(), 120.0)

    def test_a4_master_intertwinings(self):
        _report("A4", checks.check_master_intertwinings(), 300.0)

    def test_a5_reflected_systems_vs_exact_laws(self):
        _report("A5", checks.check_warren_dyson(paths=20000), 600.0)

    def test_a6_entrance_law_patterns(self):
        _report("A6", checks.check_entrance_gt(paths=20000), 900.0)

    def test_a7_edge_formulas(self):
        _report("A7", checks.check_edge_formulas(paths=20000), 900.0)

    def test_a8_eigen_structure(self):
        _report("A8", checks.check_eigen_structure(), 120.0)

    def test_a9_entrance_law_lemma(self):
        _report("A9", checks.check_entrance_lemma(), 30.0)

    def test_a10_skorokhod(self):
        _report("A10", checks.check_skorokhod(paths=20000), 600.0)
