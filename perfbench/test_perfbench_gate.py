"""Tests of the benchmark's own gate, calibration and metric list (not of interlace_lab).

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""
import json
import math
import os

import calib
import gate
import pytest
import run
from interlace_lab.harness import checks


def test_miswired_kernel_fails_the_gate():
    # negative control: a deliberately miswired block kernel must not pass
    rows = checks.check_master_intertwinings(perturb="indicator").rows
    ops = gate.judge("master-intertwinings", rows)
    assert len(ops) == len(gate.A4_CASES) * gate.A4_TEST_FUNCTIONS
    assert sum(not op.ok for op in ops) > 0


def test_missing_cases_count_as_failed():
    for name in gate.JUDGES:
        ops = gate.judge(name, [], 5000)
        assert ops and not any(op.ok for op in ops), name


def test_refinement_may_rise_only_by_the_slack():
    slack = gate.A10_NOISE / math.sqrt(5000)
    rows = [{"case": "explicit-formula", "value": 0.0},
            {"case": "lipschitz-bound", "value": 1.5},
            {"case": "refinement-dt-0.004", "value": 0.03},
            {"case": "refinement-dt-0.002", "value": 0.03 + 0.5 * slack},
            {"case": "refinement-dt-0.001", "value": 0.03 + 2.0 * slack}]
    ok = [op.ok for op in gate.judge("skorokhod", rows, 5000)]
    assert ok == [True, True, True, True, False]


def test_monte_carlo_tolerances_scale_with_paths():
    assert math.isclose(gate.mc_tol(gate.KS_TOL, 5000), 0.04)
    assert gate.mc_tol(gate.KS_TOL, gate.ACCEPTANCE_PATHS) == gate.KS_TOL


def test_calibration_rescales_cpu_time_by_the_loop_rate():
    rate = calib.REF_RATE
    assert calib.ref_seconds(2.0, (1.0, 10.0), (2.0, 10.0 + rate)) == pytest.approx(2.0)
    assert calib.ref_seconds(2.0, (1.0, 10.0), (3.0, 10.0 + rate)) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        calib.ref_seconds(1.0, (1.0, 5.0), (1.0, 5.0))
    cal = calib.Calibrator(min(os.sched_getaffinity(0)))
    try:
        before = cal.read()
        assert cal.read_after(before)[1] - before[1] >= calib.MIN_CHUNKS
    finally:
        cal.stop()


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [[m["name"], m["unit"], m["better"]] for m in spec["end_to_end"]] == \
        [list(m) for m in run.END_TO_END]
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == \
        [list(m) for m in run.per_layer_specs()]
    assert len(spec["per_layer"]) <= 128
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)
