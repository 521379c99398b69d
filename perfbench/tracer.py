"""Spans around the calls into each layer of interlace_lab, from outside it.

`install(tracer)` wraps public callables where they are looked up: every
module-level binding of the function inside interlace_lab is replaced
(this covers `from x import f` names and `alias.f` lookups alike), the
check table the campaign runner indexes, the `sample` method of entrance
laws, and the density/cdf/dx_derivative of each TransitionKernel that
`kernel()` hands out.

A span is (name, start, end, parent, run id) plus one work count; spans
stay in memory and are written out at the end.  A call into a group that
is already open (a density evaluated inside a numerical cdf) is not a new
span: the outer span already covers it, and counting it twice would
double the layer's time.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import gate

MODES = {"simulate_two_level": "two_level", "simulate_gt": "gt", "simulate_edge": "edge"}
KERNEL_METHODS = ("density", "cdf", "dx_derivative")
CHECK_NAMES = tuple(gate.JUDGES)


@dataclass
class Span:
    name: str
    group: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    count: object = 0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        # group -> open?; the "*" entry set by stop() passes every call through
        self._open: dict = {}

    def stop(self) -> None:
        """Record no further spans (the output check runs after this)."""
        self._open["*"] = True

    def wrap(self, group, name, fn, count=None):
        spans, stack, open_ = self.spans, self._stack, self._open
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_.get(group) or open_.get("*"):
                return fn(*args, **kwargs)
            span = Span(name, group, 0.0, 0.0, stack[-1] if stack else -1, run_id)
            stack.append(len(spans))
            spans.append(span)
            open_[group] = True
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_[group] = False
                stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def records(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "run_id": s.run_id, "count": s.count} for s in self.spans]


# -- work counts -------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _points(xi, yi):
    def count(args, kwargs, result):
        return int(np.broadcast(np.asarray(_arg(args, kwargs, xi, "x")),
                                np.asarray(_arg(args, kwargs, yi, "y"))).size)
    return count


def _configs(xi, yi):
    """Configurations in a batch of (..., n) arrays broadcast together."""
    def count(args, kwargs, result):
        x = np.asarray(_arg(args, kwargs, xi, "x"))
        y = np.asarray(_arg(args, kwargs, yi, "y"))
        return int(np.prod(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])))
    return count


def _block_configs(args, kwargs, result):
    return int(np.size(result))


def _nodes(args, kwargs, result):
    return int(len(result[0]))


def _arg_count(i, name):
    return lambda args, kwargs, result: int(_arg(args, kwargs, i, name))


def _edge_points(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 4, "z")))


def _bundle(args, kwargs, pb):
    n_paths = int(pb.tau.shape[0])
    steps = int(round((pb.grid[-1] - pb.grid[0]) / pb.dt))
    particles = int(sum(lvl.shape[-1] for lvl in pb.levels))
    return {"paths": n_paths, "steps": steps, "particles": particles,
            "contact_fraction": float(pb.contact_fraction),
            "stopped": int(np.count_nonzero(np.isfinite(pb.tau)))}


def _csv(args, kwargs, result):
    path, rows = _arg(args, kwargs, 0, "path_or_buf"), _arg(args, kwargs, 2, "rows")
    size = os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0
    return {"rows": len(rows) if hasattr(rows, "__len__") else 0, "bytes": size}


# -- installation ------------------------------------------------------------


def _modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "interlace_lab" or n.startswith("interlace_lab."))]


def _rebind(orig, wrapped):
    """Replace every module-level binding of `orig` inside interlace_lab."""
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every loaded interlace_lab module."""
    import interlace_lab.cli as cli
    import interlace_lab.diffusion1d as d1
    import interlace_lab.edgekernels as ek
    import interlace_lab.harness.checks as checks
    import interlace_lab.harness.io as hio
    import interlace_lab.harness.oracles as oracles
    import interlace_lab.harness.stats as stats
    import interlace_lab.kmgroup as km
    import interlace_lab.quadrature as quad
    import interlace_lab.reflectsde as rs
    import interlace_lab.twolevel as tl

    w = tracer.wrap
    kernel_counts = {"density": _points(1, 2), "cdf": _points(1, 2),
                     "dx_derivative": _points(2, 3)}
    orig_kernel = d1.kernel

    def kernel(spec):
        kern = orig_kernel(spec)
        if not getattr(kern, "_perfbench_traced", False):
            for m in KERNEL_METHODS:
                setattr(kern, m, w("diffusion1d.kernel", f"diffusion1d.{m}",
                                   getattr(kern, m), kernel_counts[m]))
            kern._perfbench_traced = True
        return kern

    _rebind(orig_kernel, kernel)
    sites = [
        (d1.duality_residual, "diffusion1d.duality_residual", "diffusion1d.duality_residual", None),
        (tl.block_kernel, "twolevel.block_kernel", "twolevel.block_kernel", _block_configs),
        (tl.chapman_residual, "twolevel.residual", "twolevel.chapman_residual", None),
        (tl.master_intertwining_residual, "twolevel.residual",
         "twolevel.master_intertwining_residual", None),
        (quad.gl_nodes, "quadrature", "quadrature.gl_nodes", _nodes),
        (quad.ordered_nodes, "quadrature", "quadrature.ordered_nodes", _nodes),
        (quad.stacked_box_nodes, "quadrature", "quadrature.stacked_box_nodes", _nodes),
        (km.km_density, "kmgroup.density", "kmgroup.km_density", _configs(2, 3)),
        (km.h_transform_density, "kmgroup.density", "kmgroup.h_transform_density",
         _configs(3, 4)),
        (ek.edge_max_cdf_degenerate, "edgekernels.cdf", "edgekernels.edge_max_cdf_degenerate",
         _edge_points),
        (ek.edge_min_cdf_degenerate, "edgekernels.cdf", "edgekernels.edge_min_cdf_degenerate",
         _edge_points),
        (oracles.gue_sample, "harness.oracles", "harness.oracles.gue_sample", _arg_count(2, "count")),
        (oracles.complex_wishart_sample, "harness.oracles", "harness.oracles.complex_wishart_sample",
         _arg_count(3, "count")),
        (stats.two_sample_ks, "harness.stats", "harness.stats.two_sample_ks", None),
        (stats.empirical_cdf_on_grid, "harness.stats", "harness.stats.empirical_cdf_on_grid", None),
        (stats.cdf_from_density_grid, "harness.stats", "harness.stats.cdf_from_density_grid", None),
        (hio.write_csv, "harness.io", "harness.io.write_csv", _csv),
        (cli.cmd_simulate, "cli", "cli.cmd_simulate", None),
    ]
    sites += [(getattr(rs, fn), "reflectsde", f"reflectsde.{mode}", _bundle)
              for fn, mode in MODES.items()]
    for orig, group, name, count in sites:
        _rebind(orig, w(group, name, orig, count))
    km.EntranceLawSpec.sample = w("kmgroup.entrance_sample", "kmgroup.entrance_sample",
                                  km.EntranceLawSpec.sample, _arg_count(3, "size"))
    for name, fn in list(checks.ALL_CHECKS.items()):
        wrapped = w("harness.check", f"harness.check.{name}", fn)
        checks.ALL_CHECKS[name] = wrapped
        _rebind(fn, wrapped)


# -- per-layer metrics -------------------------------------------------------


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, err diagnostics aside."""
    names = []
    for m in KERNEL_METHODS:
        names += [f"diffusion1d.{m}.{k}" for k in ("kernel_calls", "kernel_points", "kernel_s",
                                                    "points_per_s")]
    names += ["diffusion1d.duality_residual_s",
              "twolevel.block_kernel_calls", "twolevel.block_kernel_configs",
              "twolevel.block_kernel_self_s", "twolevel.residual_s",
              "quadrature.nodes", "quadrature.self_s",
              "kmgroup.entrance_sample_s", "kmgroup.entrance_samples",
              "kmgroup.density_points", "kmgroup.density_s"]
    for mode in MODES.values():
        names += [f"reflectsde.{mode}.{k}" for k in ("s", "particle_steps", "ns_per_particle_step",
                                                     "contact_fraction", "stopped_frac")]
    names += ["reflectsde.noise_floor_s", "reflectsde.noise_share",
              "edgekernels.cdf_s", "edgekernels.cdf_points",
              "harness.oracles.s", "harness.oracles.samples", "harness.stats.s",
              "harness.io.write_csv_s", "harness.io.rows", "harness.io.bytes",
              "harness.io.mb_per_s"]
    names += [f"harness.check.{c}.s" for c in CHECK_NAMES]
    names += ["cli.cmd_simulate.self_s", "cli.rows_built", "trace.overhead"]
    return names


def _unit(name):
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "points_per_s":
        return "1/s", "higher"
    if leaf == "mb_per_s":
        return "MB/s", "higher"
    if leaf == "ns_per_particle_step":
        return "ns", "lower"
    if leaf == "noise_share":
        # the share of simulation time that is bare noise; it rises as stepping gets leaner
        return "fraction", "higher"
    if leaf in ("contact_fraction", "stopped_frac", "overhead"):
        return "fraction", "lower"
    if leaf == "bytes":
        return "B", "lower"
    if leaf == "s" or leaf.endswith("_s"):
        return "s", "lower"
    return "count", "lower"


def layer_metric_specs() -> list:
    """(name, unit, better) for every name of layer_metric_names()."""
    return [(n,) + _unit(n) for n in layer_metric_names()]


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans
    self_t = tracer.self_times()
    dur = [s.end - s.start for s in spans]
    out = dict.fromkeys(layer_metric_names(), 0.0)

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    for m in KERNEL_METHODS:
        idx = pick(lambda s: s.name == f"diffusion1d.{m}")
        pts = sum(spans[i].count for i in idx)
        secs = sum(dur[i] for i in idx)
        out.update({f"diffusion1d.{m}.kernel_calls": len(idx), f"diffusion1d.{m}.kernel_points": pts,
                    f"diffusion1d.{m}.kernel_s": secs,
                    f"diffusion1d.{m}.points_per_s": _ratio(pts, secs)})
    out["diffusion1d.duality_residual_s"] = sum(
        dur[i] for i in pick(lambda s: s.group == "diffusion1d.duality_residual"))

    bk = pick(lambda s: s.group == "twolevel.block_kernel")
    out["twolevel.block_kernel_calls"] = len(bk)
    out["twolevel.block_kernel_configs"] = sum(spans[i].count for i in bk)
    out["twolevel.block_kernel_self_s"] = sum(self_t[i] for i in bk)
    out["twolevel.residual_s"] = sum(dur[i] for i in pick(lambda s: s.group == "twolevel.residual"))

    qn = pick(lambda s: s.group == "quadrature")
    out["quadrature.nodes"] = sum(spans[i].count for i in qn)
    out["quadrature.self_s"] = sum(self_t[i] for i in qn)

    es = pick(lambda s: s.group == "kmgroup.entrance_sample")
    out["kmgroup.entrance_sample_s"] = sum(dur[i] for i in es)
    out["kmgroup.entrance_samples"] = sum(spans[i].count for i in es)
    kd = pick(lambda s: s.group == "kmgroup.density")
    out["kmgroup.density_points"] = sum(spans[i].count for i in kd)
    out["kmgroup.density_s"] = sum(dur[i] for i in kd)

    for mode in MODES.values():
        idx = pick(lambda s: s.name == f"reflectsde.{mode}")
        # self time: an init callback's entrance-law sampling is its own span
        secs = sum(self_t[i] for i in idx)
        ps = [spans[i].count["paths"] * spans[i].count["steps"] * spans[i].count["particles"]
              for i in idx]
        paths = sum(spans[i].count["paths"] for i in idx)
        out.update({
            f"reflectsde.{mode}.s": secs,
            f"reflectsde.{mode}.particle_steps": sum(ps),
            f"reflectsde.{mode}.ns_per_particle_step": _ratio(secs * 1e9, sum(ps)),
            f"reflectsde.{mode}.contact_fraction": _ratio(
                sum(p * spans[i].count["contact_fraction"] for p, i in zip(ps, idx)), sum(ps)),
            f"reflectsde.{mode}.stopped_frac": _ratio(
                sum(spans[i].count["stopped"] for i in idx), paths),
        })

    ec = pick(lambda s: s.group == "edgekernels.cdf")
    out["edgekernels.cdf_s"] = sum(dur[i] for i in ec)
    out["edgekernels.cdf_points"] = sum(spans[i].count for i in ec)

    orc = pick(lambda s: s.group == "harness.oracles")
    out["harness.oracles.s"] = sum(dur[i] for i in orc)
    out["harness.oracles.samples"] = sum(spans[i].count for i in orc)
    out["harness.stats.s"] = sum(dur[i] for i in pick(lambda s: s.group == "harness.stats"))
    wc = pick(lambda s: s.group == "harness.io")
    secs = sum(dur[i] for i in wc)
    nbytes = sum(spans[i].count["bytes"] for i in wc)
    out.update({"harness.io.write_csv_s": secs,
                "harness.io.rows": sum(spans[i].count["rows"] for i in wc),
                "harness.io.bytes": nbytes,
                "harness.io.mb_per_s": _ratio(nbytes / 1e6, secs)})
    for c in CHECK_NAMES:
        out[f"harness.check.{c}.s"] = sum(dur[i] for i in pick(lambda s: s.name == f"harness.check.{c}"))

    cs = pick(lambda s: s.group == "cli")
    out["cli.cmd_simulate.self_s"] = sum(self_t[i] for i in cs)
    out["cli.rows_built"] = sum(spans[i].count["rows"] for i in wc if spans[i].parent in cs)
    return out


def noise_floor(tracer: Tracer) -> float:
    """Seconds to draw the simulations' normals alone, stream by stream.

    Each simulation draws, per step, one standard_normal(n_paths) from a
    Philox stream per particle; this replays that many draws (same call
    sizes, fresh streams) without the stepping around them.
    """
    total = 0.0
    for s in tracer.spans:
        if s.group != "reflectsde":
            continue
        c = s.count
        gens = [np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=0, spawn_key=(9, 0, i)))) for i in range(c["particles"])]
        t0 = time.perf_counter()
        for _ in range(c["steps"]):
            for g in gens:
                g.standard_normal(c["paths"])
        total += time.perf_counter() - t0
    return total
