"""interlace-lab benchmark: four workloads, timed from a fresh set-up.

    python3 perfbench/run.py --workload quad --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs src/interlace_lab).
With --trace 0 it times set-up in four fresh processes (median), then
starts one more that sets up and repeats each unit of the workload in
forked children until about --seconds have passed.  Times are CPU times
rescaled to a reference CPU speed by a loop that shares the CPU
(calib.py); body_ref_s sums each unit's fastest run.  With --trace 1 it
runs one untraced and one traced process and reports the per-layer
metrics and trace.overhead.  `--workload all` runs every workload and
prints a table.  The last stdout line is the JSON result; a provenance
record and the spans of a traced run go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 120

# (name, unit, better) as in BENCHMARK.json
END_TO_END = [("body_ref_s", "s", "lower"), ("setup_s", "s", "lower"), ("peak_rss_mb", "MiB", "lower")]


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, as in BENCHMARK.json."""
    return tracer.layer_metric_specs() + [(n, "1", "lower") for n in gate.err_metric_names()]


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _start(workload, seed, mode, tag, extra=(), cpu=None):
    scratch = os.path.join(OUT, f"{workload}-{tag}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    result_path = os.path.join(scratch, "result.json")
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
                             mode, result_path, scratch, *extra],
                            env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, preexec_fn=pin,
                            start_new_session=True)
    return proc, scratch


def _finish(proc, scratch):
    try:
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and every child it forked
            proc.wait()
            raise
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        with open(os.path.join(scratch, "result.json")) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _worker(workload, seed, mode, tag, extra=()):
    return _finish(*_start(workload, seed, mode, tag, extra))


def _setup_samples(workload, seed):
    """Set-up-only fresh processes, run in pairs with one pinned to each CPU."""
    lanes = worker.cpu_lanes()
    out = []
    while len(out) < SETUP_SAMPLES:
        started = [_start(workload, seed, "setup", f"setup{len(out)}-{cpu}", cpu=cpu)
                   for cpu in lanes]
        try:
            out += [_finish(*s) for s in started]
        finally:
            for proc, _ in started:  # a failed sibling still ends before we leave
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
    return out


def _commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _ops(results):
    ops = [op for r in results for op in r.get("ops", [])]
    return ops, sum(1 for op in ops if not op[3])


def run_workload(workload, seed, seconds, trace):
    t_start = time.perf_counter()
    setups = []
    if trace:
        plain = _worker(workload, seed, "run", "plain")
        traced = _worker(workload, seed, "trace", "traced")
        results = [plain, traced]
    else:
        setups = _setup_samples(workload, seed)
        # the serving worker repeats units until the run has used --seconds
        deadline = time.time() + seconds - (time.perf_counter() - t_start)
        served = _worker(workload, seed, "serve", "serve", extra=(repr(deadline),))
        results = [served]
    ops, failed = _ops(results)
    correct = failed == 0 and bool(ops)
    if trace:
        metrics = dict(traced["trace"]["metrics"])
        metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
        correct = correct and traced["trace"]["self_within_wall"]
        err_names = set(gate.err_metric_names())
        metrics.update(dict.fromkeys(err_names, 0.0))
        for case, err, tol, ok in traced["ops"]:
            check, _, rest = case.partition(".")
            name = gate.metric_name(check, rest)
            if name in err_names:
                # -1 marks a case the program did not return
                metrics[name] = err if math.isfinite(err) else -1.0
        units = {name: unit for name, unit, _ in per_layer_specs()}
    else:
        timed = served["units"].values()
        metrics = {
            # each unit's fastest run in reference seconds, summed over the units
            "body_ref_s": sum(min(r["ref_s"] for r in rs) for rs in timed),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in rs) for rs in timed),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "versions": results[0]["versions"], "commit": _commit(),
        "processes": len(results) + len(setups),
        "samples": ({"wall_s": [r["wall_s"] for r in results]} if trace
                    else {"setup_s": setups, "units": served["units"]}),
        "ops": ops,
        "metrics": metrics,
    }
    if trace:
        record["spans"] = traced["trace"]["spans"]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh)
    return {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "interlace_lab", "__init__.py")):
        print(f"no interlace_lab source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be non-negative")
    # byte-compile once up front so no worker's set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
                   check=True, stdout=subprocess.DEVNULL)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    if args.workload != "all":
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} ops={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:44s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
