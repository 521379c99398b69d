"""interlace-lab command line interface.

Subcommands: classify, duality-check, density, eigen-check, entrance-law,
intertwine-check, simulate, edge-cdf, campaign.  All numeric output is CSV
with a '#schema=1' comment line; --out writes files, otherwise stdout.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import kmgroup as km
from . import twolevel as tl
from . import reflectsde as rs
from . import edgekernels as ek
from .diffusion1d import (
    CATALOG_IDS,
    CatalogError,
    boundary_integrals,
    classify_boundary,
    conjugate,
    duality_residual,
    kernel,
    make_spec,
)
from .harness import (
    CampaignConfig,
    CampaignError,
    empirical_cdf_on_grid,
    read_config,
    rmt_oracle,
    run_campaign,
    write_csv,
)
from .harness.checks import MASTER_TOL
from .harness.io import ConfigError, ensure_outdir, rows_block


def _emit(args, name, fieldnames, rows):
    if args.out:
        ensure_outdir(args.out)
        path = os.path.join(args.out, f"{name}.csv")
        write_csv(path, fieldnames, [rows_block(fieldnames, rows)])
        print(path)
    else:
        write_csv(sys.stdout, fieldnames, [rows_block(fieldnames, rows)])


def _floats(s):
    return [float(v) for v in s.replace(",", " ").split()]


def cmd_classify(args):
    rows = []
    for sid in args.spec or CATALOG_IDS:
        spec = make_spec(sid)
        for end in ("l", "r") if args.endpoint == "both" else (args.endpoint,):
            (nv, nd), (sv, sd) = boundary_integrals(spec, end)
            rows.append({
                "spec": sid, "endpoint": end,
                "N": "inf" if nd else f"{nv:.6g}",
                "Sigma": "inf" if sd else f"{sv:.6g}",
                "class": classify_boundary(spec, end).value,
            })
    _emit(args, "classify", ["spec", "endpoint", "N", "Sigma", "class"], rows)


def cmd_duality_check(args):
    rows = []
    for sid in args.spec:
        spec = make_spec(sid)
        kern = kernel(spec)
        lo, hi = kern.window(max(args.times), spec.c)
        l, r = spec.interval
        lo = max(lo, l + 0.1 * (spec.c - l)) if np.isfinite(l) else lo / 2
        hi = min(hi, r - 0.1 * (r - spec.c)) if np.isfinite(r) else hi / 2
        grid = np.linspace(lo, hi, args.grid)
        for t in args.times:
            for x in grid:
                for y in grid:
                    rows.append({
                        "spec": sid, "t": t, "x": f"{x:.6g}", "y": f"{y:.6g}",
                        "residual": duality_residual(spec, t, float(x), float(y)),
                    })
    _emit(args, "duality", ["spec", "t", "x", "y", "residual"], rows)


def cmd_density(args):
    spec = make_spec(args.spec)
    kern = kernel(spec)
    try:
        x = km.as_weyl(_floats(args.x), spec.interval)
        y = km.as_weyl(_floats(args.y), spec.interval)
        val = float(km.km_density(kern, args.t, x, y))
    except ValueError as e:  # unordered, exterior or unequal-length coordinates
        raise CatalogError(f"density --x {args.x!r} --y {args.y!r}: {e}") from e
    rows = [{"spec": args.spec, "t": args.t, "x": args.x, "y": args.y,
             "kind": "killed-determinant", "value": val}]
    if args.h_transform:
        h = km.eigenfunction_catalog(spec, len(x))
        try:
            val = float(km.h_transform_density(kern, h, args.t, x, y))
        except ValueError as e:  # h vanishes at a coincident start
            raise CatalogError(f"density --h-transform --x {args.x!r}: {e}") from e
        rows.append({"spec": args.spec, "t": args.t, "x": args.x, "y": args.y,
                     "kind": "h-transform", "value": val})
    _emit(args, "density", ["spec", "t", "x", "y", "kind", "value"], rows)


def cmd_eigen_check(args):
    spec = make_spec(args.spec)
    h = km.eigenfunction_catalog(spec, args.n)
    probes = [_floats(p) for p in args.probes] if args.probes else _default_probes(spec, args.n)
    bad = [p for p in probes if len(p) != args.n]
    if bad:
        raise CatalogError(f"eigen-check --probes: each probe needs --n = {args.n} coordinates, "
                           f"got {len(bad[0])} in {' '.join(map(str, bad[0]))!r}")
    r = km.eigen_residual(kernel(spec), h, args.t, probes)
    rows = [{"spec": args.spec, "n": args.n, "t": args.t, "rate": h.rate, "residual": r}]
    _emit(args, "eigen", ["spec", "n", "t", "rate", "residual"], rows)


def _default_probes(spec, n):
    l, r = spec.interval
    lo = l if np.isfinite(l) else spec.c - 1.5
    hi = r if np.isfinite(r) else spec.c + 1.5
    pad = 0.15 * (hi - lo)
    base = np.linspace(lo + pad, hi - pad, n)
    return np.vstack([base, base * 0.8 + 0.2 * (lo + pad)])


def cmd_entrance_law(args):
    elaw = km.entrance_law(args.family, args.n)
    rows = []
    for p in args.points:
        try:
            y = km.as_weyl(_floats(p), elaw.spec.interval)
            val = elaw.density(args.t, y[None, :]).item()
        except ValueError as e:  # unordered, exterior or miscounted coordinates
            raise CatalogError(f"entrance-law --points {p!r}: {e}") from e
        rows.append({"family": args.family, "n": args.n, "t": args.t, "y": p, "density": val})
    _emit(args, "entrance", ["family", "n", "t", "y", "density"], rows)


#: the most particles, x and y together, that intertwine-check was measured
#: to run with: every 2- or 3-particle call on bm, bm_halfline:abs and besq:3
#: took under 0.6 s of wall time on a 2-CPU Xeon container.  The one
#: 4-particle shape, n,n at --n 2, took 3.8 s for bm and 100 s for
#: bm_halfline:abs (peak RSS 328 MiB)
INTERTWINE_MAX_PARTICLES = 3


def cmd_intertwine_check(args):
    spec = make_spec(args.spec)
    shape = tl.Shape(args.shape)
    n1 = args.n
    n2 = tl.counts(shape, n1)
    if n2 < 1:
        raise CatalogError(f"intertwine-check --shape {args.shape} needs --n >= 2 "
                           f"(x has n - 1 particles), got {n1}")
    if n1 + n2 > INTERTWINE_MAX_PARTICLES:
        raise CatalogError(f"intertwine-check --shape {args.shape} --n {n1} has {n1 + n2} particles, "
                           f"more than the {INTERTWINE_MAX_PARTICLES} it was measured to run with")
    try:
        sys_ = tl.TwoLevelSystem(spec, shape)
    except tl.BoundaryAssumptionError as e:
        raise CatalogError(f"intertwine-check: {e}") from e
    l, r = spec.interval
    lo = l if np.isfinite(l) else -1.5
    hi = r if np.isfinite(r) else 1.5
    x = np.linspace(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo), n2)
    ylo, yhi = tl.fiber_bounds(x, shape, l, r)
    y = 0.5 * (np.where(np.isfinite(ylo), ylo, x.min() - 0.5)
               + np.where(np.isfinite(yhi), yhi, x.max() + 0.5))
    fs = tl.test_function_basis(x, y)
    rows = []
    for fi, f in enumerate(fs):
        fy = lambda yp, ff=f: ff(np.zeros(yp.shape[:-1] + (n2,)), yp)
        r_d = tl.dynkin_residual(sys_, args.t, fy, (x, y))
        rows.append({"spec": args.spec, "shape": args.shape, "identity": "projection",
                     "test_function": fi, "residual": r_d,
                     "pass": r_d <= MASTER_TOL})
    if shape is not tl.Shape.NP1N:
        h_hat = km.eigenfunction_catalog(conjugate(spec), n1)
        try:
            res = tl.master_intertwining_residual(sys_, h_hat, args.t, fs, x)
        except ArithmeticError as e:  # h(x) is not finite over a fiber with an infinite end
            raise CatalogError(f"intertwine-check: {e}") from e
        for fi, rv in enumerate(res):
            rows.append({"spec": args.spec, "shape": args.shape, "identity": "master",
                         "test_function": fi, "residual": rv,
                         "pass": rv <= MASTER_TOL})
    _emit(args, "intertwine",
          ["spec", "shape", "identity", "test_function", "residual", "pass"], rows)


#: [simulate] keys read in every mode, and those read by one mode (gt also
#: reads init1 ... init<levels>)
SIMULATE_KEYS = ("family", "mode", "t", "dt", "paths", "seed", "output", "record_stride")
SIMULATE_MODE_KEYS = {
    "two-level": ("shape", "init_x", "init_y", "y_family"),
    "edge": ("n", "side", "init"),
    "gt": ("levels", "level_families"),
}


def cmd_simulate(args):
    cfg = read_config(args.config, "simulate")
    mode = cfg.get("mode", "two-level")
    if mode not in SIMULATE_MODE_KEYS:
        raise CampaignError(f"unknown simulate mode {mode!r} in {args.config}: "
                            f"expected one of {', '.join(SIMULATE_MODE_KEYS)}")
    known = set(SIMULATE_KEYS + SIMULATE_MODE_KEYS[mode])
    if mode == "gt":
        # the first missing init<k> stops the loop, so no list is ever
        # longer than the config file
        levels = _count(cfg, "levels", args.config)
        for k in range(1, levels + 1):
            known.add(f"init{k}")
            _required(cfg, f"init{k}", args.config)
    unread = sorted(set(cfg) - known)
    if unread:
        raise CampaignError(f"[simulate] keys not read in {mode} mode in {args.config}: {unread}")
    # --seed and --out given on the command line override the config file
    seed = args.seed if args.seed is not None else \
        (_count(cfg, "seed", args.config, least=0) if "seed" in cfg else 0)
    out = args.out if args.out is not None else cfg.get("output", ".")
    stride = _count(cfg, "record_stride", args.config) if "record_stride" in cfg else None
    try:
        pb = _simulate_bundle(cfg, mode, seed, stride, args.config)
    except ValueError as e:  # a time, step or start the simulators refuse
        raise CampaignError(f"[simulate] in {args.config}: {e}") from None
    ensure_outdir(out)
    path = os.path.join(out, "terminal.csv")
    write_csv(path, ["path_id", "time", "level", "index", "value", "tau"], _terminal_blocks(pb))
    print(path)
    if stride is not None:
        tpath = os.path.join(out, "trajectories.csv")
        write_csv(tpath, ["path_id", "time", "level", "index", "value"], _trajectory_blocks(pb))
        print(tpath)


def _simulate_bundle(cfg, mode, seed, stride, config):
    """Run the [simulate] section's simulator and return its PathBundle."""
    family = _required(cfg, "family", config)
    T = _float(cfg, "t", config, 1.0)
    dt = _float(cfg, "dt", config, 1e-3)
    paths = _count(cfg, "paths", config) if "paths" in cfg else 1000
    if mode == "edge":
        n = _count(cfg, "n", config)
        side = cfg.get("side", "right")
        x0 = np.array(_floats(cfg.get("init", " ".join(["0"] * n))))
        return rs.simulate_edge(make_spec(family), n, side, x0, T, dt, paths, seed,
                                record_stride=stride)
    if mode == "gt":
        N = _count(cfg, "levels", config)
        fams = cfg.get("level_families", ",".join([family] * N)).split(",")
        specs = [make_spec(f.strip()) for f in fams]
        x0 = [np.array(_floats(_required(cfg, f"init{k+1}", config))) for k in range(N)]
        return rs.simulate_gt(specs, x0, T, dt, paths, seed, record_stride=stride)
    try:
        shape = tl.Shape(cfg.get("shape", "n,n+1"))
    except ValueError:
        raise CampaignError(f"[simulate] shape {cfg['shape']!r} in {config}: expected one "
                            f"of {', '.join(s.value for s in tl.Shape)}") from None
    spec = make_spec(family)
    x0 = np.array(_floats(_required(cfg, "init_x", config)))
    y0 = np.array(_floats(_required(cfg, "init_y", config)))
    y_spec = make_spec(cfg["y_family"]) if "y_family" in cfg else None
    return rs.simulate_two_level(spec, shape, x0, y0, T, dt, paths, seed,
                                 y_spec=y_spec, record_stride=stride)


def _required(cfg, key, config):
    """[simulate] key's text, else a one-line error that names it."""
    if key not in cfg:
        raise CampaignError(f"[simulate] {key} missing from {config}")
    return cfg[key]


def _float(cfg, key, config, default):
    """[simulate] key read as a number (default when absent), else a
    one-line error that names it."""
    try:
        return float(cfg.get(key, default))
    except ValueError:
        raise CampaignError(f"[simulate] {key} in {config} must be a number, "
                            f"got {cfg[key]!r}") from None


def _count(cfg, key, config, least=1):
    """[simulate] key read as an integer of at least `least` (1, or 0 for
    the seed), else a one-line error that names it."""
    try:
        value = int(_required(cfg, key, config))
    except ValueError:
        value = least - 1
    if value < least:
        what = "positive" if least else "non-negative"
        raise CampaignError(f"[simulate] {key} in {config} must be a {what} integer, "
                            f"got {cfg[key]!r}")
    return value


def _per_path(texts, size):
    """One column cell per particle of a path-major level block: each
    path's text repeated over its `size` particles."""
    return [v for v in texts for _ in range(size)]


def _level_ids(n_paths, size):
    """The path_id and index text of an (n_paths, size) level block."""
    return _per_path(map(str, range(n_paths)), size), list(map(str, range(size))) * n_paths


def _terminal_blocks(pb):
    # a path never stopped has an empty tau cell
    tau = [repr(v) if f else "" for v, f in zip(pb.tau.tolist(), np.isfinite(pb.tau).tolist())]
    for lvl, name in enumerate(pb.level_names):
        term = pb.terminal(lvl)
        pid, idx = _level_ids(*term.shape)
        yield {"path_id": pid, "time": pb.grid[-1], "level": name, "index": idx,
               "value": term.ravel(), "tau": _per_path(tau, term.shape[1])}


def _trajectory_blocks(pb):
    # one block per (level, recorded time); the id columns serve every time.
    # A state equal bit for bit on every path, as the start always is, has
    # its texts made once: bits, not ==, since 0.0 and -0.0 print apart
    for name, arr in zip(pb.level_names, pb.levels):
        pid, idx = _level_ids(*arr.shape[1:])
        for tval, state in zip(pb.grid, arr):
            bits = state.view(np.uint64)
            value = list(map(repr, state[0].tolist())) * len(state) \
                if (bits == bits[:1]).all() else state.ravel()
            yield {"path_id": pid, "time": tval, "level": name, "index": idx,
                   "value": value}


def cmd_edge_cdf(args):
    spec = make_spec(args.spec)
    try:
        tbl = ek.EdgeOperatorTable(spec, args.n, args.t)
    except ValueError as e:  # a family with no ladder, or a wrong end
        raise CatalogError(f"edge-cdf --spec {args.spec!r}: {e}") from None
    z = np.linspace(args.zmin, args.zmax, args.znum)
    start = args.start or " ".join(["0"] * args.n)
    try:
        x0 = _floats(start)
        F = ek.edge_max_cdf(tbl, x0, z) if args.side == "right" else ek.edge_min_cdf(tbl, x0, z)
    except ValueError as e:  # a start that is not numbers, or of the wrong length, order or range
        raise CatalogError(f"edge-cdf --start {start!r}: {e}") from None
    rows = []
    oracle_F = None
    if args.oracle:
        rng = np.random.default_rng(args.seed or 0)
        try:
            samples = rmt_oracle(args.oracle, args.oracle_count, rng)
        except ValueError as e:  # the matrix size and sample count caps
            raise CatalogError(f"oracle {args.oracle!r}: {e}") from e
        if samples.shape[1] != args.n:
            raise CatalogError(f"oracle {args.oracle!r} samples {samples.shape[1]} eigenvalues, "
                               f"but --n is {args.n}")
        col = -1 if args.side == "right" else 0
        oracle_F = empirical_cdf_on_grid(samples[:, col], z)
    for i, zz in enumerate(z):
        row = {"z": zz, "cdf": float(F[i])}
        if oracle_F is not None:
            row["oracle_cdf"] = float(oracle_F[i])
            row["diff"] = float(abs(F[i] - oracle_F[i]))
        rows.append(row)
    fields = ["z", "cdf"] + (["oracle_cdf", "diff"] if oracle_F is not None else [])
    _emit(args, "edge_cdf", fields, rows)


def cmd_campaign(args):
    # flags given on the command line override the config file
    flags = {key: getattr(args, key) for key in ("name", "seed", "out")
             if getattr(args, key) is not None}
    if args.config:
        cfg = dataclasses.replace(CampaignConfig.from_file(args.config), **flags)
    else:
        cfg = CampaignConfig(**flags)
    res = run_campaign(cfg)
    print(f"campaign {res.name}: {'PASS' if res.passed else 'FAIL'} "
          f"({res.summary}; {res.runtime:.1f}s)")
    if not args.out:
        write_csv(sys.stdout, res.fieldnames, [rows_block(res.fieldnames, res.rows)])
    return 0 if res.passed else 1


def _number(cast, what, ok):
    """argparse type: the text read by cast (float or int), kept when ok
    holds for it; text cast cannot read fails like nan."""
    def parse(text):
        try:
            v = cast(text)
        except ValueError:
            v = float("nan")
        if not ok(v):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return v
    return parse


_positive = _number(float, "a positive number", lambda v: 0 < v < np.inf)
_positive_int = _number(int, "a positive integer", lambda v: v > 0)
_seed = _number(int, "a non-negative integer", lambda v: v >= 0)
_finite = _number(float, "a finite number", np.isfinite)


def _option(*names, **kw):
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*names, **kw)
    return p


def build_parser():
    """One subparser per command, each with only the options its command reads."""
    out = _option("--out", default=None, help="output directory (default: stdout)")
    seed = _option("--seed", type=_seed, default=None)

    p = argparse.ArgumentParser(prog="interlace-lab",
                                description="interlacing-diffusion numerics")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, *parents, **kw):
        return sub.add_parser(name, parents=[out, *parents], **kw)

    s = add("classify", help="Feller boundary classes")
    s.add_argument("--spec", action="append", help="catalog spec id (repeatable)")
    s.add_argument("--endpoint", choices=["l", "r", "both"], default="both")
    s.set_defaults(func=cmd_classify)

    s = add("duality-check", help="CDF duality residual grid")
    s.add_argument("--spec", action="append", required=True)
    s.add_argument("--times", type=_positive, nargs="+", default=[0.25, 1.0])
    s.add_argument("--grid", type=_positive_int, default=5)
    s.set_defaults(func=cmd_duality_check)

    s = add("density", help="determinant transition density")
    s.add_argument("--spec", required=True)
    s.add_argument("--t", type=_positive, required=True)
    s.add_argument("--x", required=True, help="space-separated coordinates")
    s.add_argument("--y", required=True)
    s.add_argument("--h-transform", action="store_true")
    s.set_defaults(func=cmd_density)

    s = add("eigen-check", help="eigenfunction residual")
    s.add_argument("--spec", required=True)
    s.add_argument("--n", type=_positive_int, required=True)
    s.add_argument("--t", type=_positive, default=0.5)
    s.add_argument("--probes", action="append")
    s.set_defaults(func=cmd_eigen_check)

    s = add("entrance-law", help="degenerate-start density values")
    s.add_argument("--family", required=True)
    s.add_argument("--n", type=_positive_int, required=True)
    s.add_argument("--t", type=_positive, default=1.0)
    s.add_argument("--points", action="append", required=True)
    s.set_defaults(func=cmd_entrance_law)

    s = add("intertwine-check", help="projection/master residuals")
    s.add_argument("--spec", required=True)
    s.add_argument("--shape", choices=["n,n+1", "n,n", "n+1,n"], default="n,n+1")
    s.add_argument("--n", type=_positive_int, default=1, help="particle count of the inner level")
    s.add_argument("--t", type=_positive, default=0.5)
    s.set_defaults(func=cmd_intertwine_check)

    s = add("simulate", seed, help="reflected-SDE simulation from a config file")
    s.add_argument("--config", required=True, help="config file with a [simulate] section")
    s.set_defaults(func=cmd_simulate)

    s = add("edge-cdf", seed, help="extreme-particle distribution")
    s.add_argument("--spec", required=True)
    s.add_argument("--n", type=_positive_int, required=True)
    s.add_argument("--t", type=_positive, default=1.0)
    s.add_argument("--side", choices=["left", "right"], default="right")
    s.add_argument("--start", default=None, help="space-separated start (default origin)")
    s.add_argument("--zmin", type=_finite, required=True)
    s.add_argument("--zmax", type=_finite, required=True)
    s.add_argument("--znum", type=_positive_int, default=41)
    s.add_argument("--oracle", default=None,
                   help="gue:n, wishart:n,k or jue:n,p,q, with n = --n")
    s.add_argument("--oracle-count", type=int, default=100000)
    s.set_defaults(func=cmd_edge_cdf)

    s = add("campaign", seed, help="run a verification campaign")
    s.add_argument("--name", default=None,
                   help="check name or 'all' (default: the config file's name, else all)")
    s.add_argument("--config", default=None, help="campaign config file; flags given override it")
    s.set_defaults(func=cmd_campaign)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ret = args.func(args)
        sys.stdout.flush()  # so a closed reader shows here, not at exit
    except (CampaignError, CatalogError, ConfigError) as e:
        # CatalogError is a KeyError, whose str() would quote the message
        print(f"{parser.prog}: error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop without a
        # traceback, and let the flush at exit write what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return int(ret) if ret else 0


if __name__ == "__main__":
    sys.exit(main())
