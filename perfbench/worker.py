"""One fresh process of one workload: set-up, then the timed body or units.

    python3 perfbench/worker.py WORKLOAD SEED MODE RESULT_JSON SCRATCH_DIR [DEADLINE]

MODE is `setup` (set-up only), `run` (set-up, timed body, check),
`trace` (as `run`, with spans around every layer call) or `serve`
(set-up, then repeat every unit of the workload in forked children until
DEADLINE, a time.time() value).  The result goes to RESULT_JSON; run.py
starts this with PYTHONPATH pointing at src/ and BLAS threads pinned to 1.
"""
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback

MAX_REPEATS = 40  # per unit, so a unit of a few milliseconds does not fork without end


def main(argv):
    workload, seed, mode, result_path, scratch = argv[:5]
    seed = int(seed)
    import workloads

    setup, body, check = workloads.WORKLOADS[workload]
    if mode == "setup":
        result = _calibrated_setup(setup)
    else:
        t0 = time.perf_counter()
        setup()
        result = {"setup_wall_s": time.perf_counter() - t0}
    if mode == "serve":
        result.update(serve(workloads.UNITS[workload], check, seed, scratch, float(argv[5])))
    elif mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tr

            tracer = tr.Tracer(run_id=f"{workload}-seed{seed}-pid{os.getpid()}")
            tr.install(tracer)
        t0 = time.perf_counter()
        out = body(seed, scratch)
        wall_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.stop()
        ops = check(out, seed, scratch)
        result.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb,
                      ops=[[o.case, o.err, o.tol, o.ok] for o in ops])
        if tracer is not None:
            result["trace"] = _trace_report(tracer, wall_s)
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(result_path, "w") as fh:
        json.dump(result, fh, allow_nan=True)


def cpu_lanes():
    """Up to two CPUs of this process's affinity: one timed process on each."""
    return sorted(os.sched_getaffinity(0))[:2]


def _calibrated_setup(setup):
    """Set-up in this fresh process, timed in reference seconds (calib.py)."""
    import calib

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cal = calib.Calibrator(cpu)
    try:
        before, p0, t0 = cal.read(), time.process_time(), time.perf_counter()
        setup()
        cpu_s, wall_s = time.process_time() - p0, time.perf_counter() - t0
        after = cal.read_after(before)
    finally:
        cal.stop()
    return {"setup_s": calib.ref_seconds(cpu_s, before, after), "setup_wall_s": wall_s}


def serve(units, check, seed, scratch, deadline):
    """Time each unit in children forked from this set-up process.

    A child starts with the parent's imports but none of its body's caches,
    like a fresh process after set-up, and is forked at a cost of
    milliseconds.  Each CPU lane runs one child at a time, pinned to it
    next to a calibration loop (calib.py).  Every unit runs once; after
    that a free lane starts the unit with the fewest runs among those whose
    last run (or, before one has ended, the longest run so far) still fits
    before `deadline`.
    """
    import calib

    samples = {name: [] for name, _ in units}
    bodies = dict(units)
    first = [name for name, _ in units]
    running = {}  # pid -> (unit, cpu, calibrator, scratch path)
    free = cpu_lanes()
    ops = []

    def next_unit():
        if first:
            return first.pop(0)
        started = {n: len(samples[n]) + sum(r[0] == n for r in running.values()) for n in samples}
        longest = max((r["elapsed_s"] for rs in samples.values() for r in rs), default=0.0)
        fits = [n for n in samples if started[n] < MAX_REPEATS and time.time()
                + (samples[n][-1]["elapsed_s"] if samples[n] else longest) <= deadline]
        return min(fits, key=lambda n: started[n]) if fits else None

    try:
        while True:
            while free:
                name = next_unit()
                if name is None:
                    break
                cpu = free.pop(0)
                path = os.path.join(scratch, f"cpu{cpu}")
                os.makedirs(path, exist_ok=True)
                cal = calib.Calibrator(cpu)
                pid = os.fork()
                if pid == 0:
                    _child(bodies[name], check, seed, path, cpu, cal)
                running[pid] = (name, cpu, cal, path)
            if not running:
                return {"units": samples, "ops": ops}
            pid, status = os.wait()
            if pid not in running:
                raise RuntimeError(f"calibration loop {pid} ended with status {status}")
            name, cpu, cal, path = running.pop(pid)
            cal.stop()
            free.append(cpu)
            res = _child_result(path, status)
            ops += res.pop("ops")
            res["cpu"] = cpu
            samples[name].append(res)
    finally:
        for pid, (_, _, cal, _) in running.items():  # only on an error: end every child
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            cal.stop()


def _child_result(path, status):
    try:
        with open(os.path.join(path, "unit.json")) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        res = {"error": f"child exited with status {status} and no result"}
    shutil.rmtree(path, ignore_errors=True)
    if "error" in res:
        raise RuntimeError(res["error"])
    return res


def _child(body, check, seed, path, cpu, cal):
    code = 1
    try:
        import calib

        os.sched_setaffinity(0, {cpu})
        before, p0, t0 = cal.read(), time.process_time(), time.perf_counter()
        out = body(seed, path)
        cpu_s, wall_s = time.process_time() - p0, time.perf_counter() - t0
        after = cal.read_after(before)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = check(out, seed, path)
        res = {"ref_s": calib.ref_seconds(cpu_s, before, after), "cpu_s": cpu_s,
               "wall_s": wall_s, "elapsed_s": time.perf_counter() - t0,
               "peak_rss_mb": peak_rss_mb, "ops": [[o.case, o.err, o.tol, o.ok] for o in ops]}
        code = 0
    except BaseException:  # reported, never raised: a forked child must not return into serve()
        res = {"error": traceback.format_exc()}
    try:
        with open(os.path.join(path, "unit.json"), "w") as fh:
            json.dump(res, fh, allow_nan=True)
    finally:
        os._exit(code)


def _trace_report(tracer, wall_s):
    import tracer as tr

    metrics = tr.layer_metrics(tracer)
    # self times partition the root spans, which all lie inside the body
    self_sum = sum(tracer.self_times())
    floor = tr.noise_floor(tracer)
    sim_s = sum(metrics[f"reflectsde.{m}.s"] for m in tr.MODES.values())
    metrics["reflectsde.noise_floor_s"] = floor
    metrics["reflectsde.noise_share"] = floor / sim_s if sim_s > 0 else 0.0
    return {"metrics": metrics, "self_sum_s": self_sum,
            "self_within_wall": self_sum <= wall_s, "spans": tracer.records()}


if __name__ == "__main__":
    main(sys.argv[1:])
