"""The four workloads: set-up, timed body and output check.

Set-up imports interlace_lab and makes one minimal call into each layer
the workload uses, so the body pays no import or lazy initialisation (the
first BESQ CDF imports scipy.stats, for example).  The minimal calls use
points and times the body does not, so they warm no per-point cache the
body relies on.  The body passes the program only input sizes and the
seed: step sizes and node counts stay the program's choice.

Module-level code here imports nothing heavy, so the worker can time the
package import itself.
"""
from __future__ import annotations

import contextlib
import csv
import os

import gate

SDE_PATHS = 5000
QUAD_CHECKS = ("duality-catalog", "boundary-table", "chapman-bm",
               "master-intertwinings", "eigen-structure", "entrance-lemma")
MASKED_CHECKS = ("warren-dyson", "entrance-gt", "skorokhod")
EDGE_CHECKS = ("edge-formulas",)

# the simulate config from the ROADMAP baseline: two-level bm n,n+1
CLI_PATHS = 20000
CLI_CONFIG = """[simulate]
family = bm
mode = two-level
shape = n,n+1
init_x = -1 1
init_y = 0
y_family = bm
t = 1.0
dt = 0.01
paths = {paths}
seed = {seed}
record_stride = 10
output = {out}
"""
CLI_RECORDED_TIMES = 11  # 100 steps recorded every 10, both ends included


def _setup_quad():
    import numpy as np
    from interlace_lab import kmgroup as km
    from interlace_lab import twolevel as tl
    from interlace_lab.diffusion1d import classify_boundary, kernel, make_spec
    from interlace_lab.harness import run_campaign  # noqa: F401  (checks, oracles, stats)
    from interlace_lab.quadrature import gl_nodes

    besq = kernel(make_spec("besq:3"))
    besq.density(0.3, 0.7, 0.9)
    besq.cdf(0.3, 0.7, 0.9)
    classify_boundary(make_spec("bm"), "l")
    sys_ = tl.TwoLevelSystem(make_spec("bm"), tl.Shape.NNP1)
    tl.block_kernel(sys_, 0.3, (np.array([-0.7, 0.7]), np.array([0.1])),
                    (np.array([-0.6, 0.8]), np.array([0.2])))
    gl_nodes(0.0, 1.0, 4)
    km.h_transform_density(kernel(make_spec("bm")), km.vandermonde(2), 0.3,
                           np.array([-0.7, 0.7]), np.array([[-0.6, 0.8]]))


def _setup_sde_masked():
    import numpy as np
    from interlace_lab import kmgroup as km
    from interlace_lab import reflectsde as rs
    from interlace_lab import twolevel as tl
    from interlace_lab.diffusion1d import kernel, make_spec
    from interlace_lab.harness import gue_sample, run_campaign, two_sample_ks  # noqa: F401

    bm = make_spec("bm")
    rs.simulate_two_level(bm, tl.Shape.NNP1, np.array([-1.0, 1.0]), np.array([0.0]),
                          T=0.01, dt=0.01, n_paths=2, seed=0, y_spec=bm)
    rs.simulate_gt([bm, bm], [np.array([0.0]), np.array([-1.0, 1.0])],
                   T=0.01, dt=0.01, n_paths=2, seed=0)
    rng = np.random.default_rng(0)
    km.entrance_law("gue", 2).sample(rng, 0.7, 2)
    kernel(make_spec("besq:4")).cdf(0.3, 0.7, 0.9)
    two_sample_ks(gue_sample(rng, 2, 2)[:, 0], np.zeros(2))


def _setup_sde_edge():
    import numpy as np
    from interlace_lab import edgekernels as ek
    from interlace_lab import reflectsde as rs
    from interlace_lab.diffusion1d import make_spec
    from interlace_lab.harness import complex_wishart_sample, empirical_cdf_on_grid, run_campaign  # noqa: F401

    bm = make_spec("bm")
    rs.simulate_edge(bm, 2, "right", np.zeros(2), T=0.01, dt=0.01, n_paths=2, seed=0)
    ek.edge_max_cdf_degenerate(bm, 2, 0.7, 0.0, np.array([0.5]))
    rng = np.random.default_rng(0)
    empirical_cdf_on_grid(complex_wishart_sample(rng, 2, 2, 2)[:, 0], np.zeros(1))


def _setup_cli_csv():
    import io

    import numpy as np
    from interlace_lab import cli
    from interlace_lab import reflectsde as rs
    from interlace_lab import twolevel as tl
    from interlace_lab.diffusion1d import make_spec
    from interlace_lab.harness import write_csv

    cli.build_parser()
    bm = make_spec("bm")
    rs.simulate_two_level(bm, tl.Shape.NNP1, np.array([-1.0, 1.0]), np.array([0.0]),
                          T=0.01, dt=0.01, n_paths=2, seed=0, y_spec=bm, record_stride=1)
    write_csv(io.StringIO(), ["a"], [{"a": 1.0}])


def _campaigns(names, paths=None):
    def body(seed, scratch):
        from interlace_lab.harness import CampaignConfig, CampaignError, run_campaign

        out = {}
        for name in names:
            cfg = CampaignConfig(name=name) if paths is None else \
                CampaignConfig(name=name, paths=paths, seed=seed)
            try:
                out[name] = run_campaign(cfg).rows
            except CampaignError as exc:
                out[name] = exc
        return out
    return body


def _judge_campaigns(paths):
    def check(result, seed, scratch):
        ops = []
        for name, rows in result.items():
            p = paths or gate.ACCEPTANCE_PATHS
            if isinstance(rows, Exception):
                ops += [gate.Op(f"{name}.{c}", float("nan"), 0.0, False)
                        for c in gate.expected_cases(name, p)]
                continue
            ops += [gate.Op(f"{name}.{o.case}", o.err, o.tol, o.ok) for o in gate.judge(name, rows, p)]
        return ops
    return check


def _cli_body(seed, scratch):
    from interlace_lab import cli

    cfg_path = os.path.join(scratch, "simulate.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(CLI_CONFIG.format(paths=CLI_PATHS, seed=seed, out=os.path.join(scratch, "out")))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):  # main prints the paths it wrote
        return cli.main(["simulate", "--config", cfg_path])


def _read_schema_csv(path):
    with open(path, newline="") as fh:
        schema = fh.readline().strip()
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return schema, header, rows


def _count_schema_csv(path):
    with open(path, newline="") as fh:
        schema = fh.readline().strip()
        fh.readline()  # header
        count = sum(1 for _ in fh)
    return schema, count


def _cli_check(code, seed, scratch):
    import numpy as np
    from interlace_lab import reflectsde as rs
    from interlace_lab import twolevel as tl
    from interlace_lab.diffusion1d import make_spec

    out = os.path.join(scratch, "out")
    particles = 3  # y: 1, x: 2
    ops = [gate.Op("exit-code", float(code), 0.0, code == 0)]

    schema, header, rows = _read_schema_csv(os.path.join(out, "terminal.csv"))
    want_rows = CLI_PATHS * particles
    ops.append(gate.Op("terminal-schema", float(schema != "#schema=1"), 0.0, schema == "#schema=1"))
    ops.append(gate.Op("terminal-rows", float(abs(len(rows) - want_rows)), 0.0, len(rows) == want_rows))

    tschema, tcount = _count_schema_csv(os.path.join(out, "trajectories.csv"))
    want_traj = want_rows * CLI_RECORDED_TIMES
    ops.append(gate.Op("trajectories-schema", float(tschema != "#schema=1"), 0.0, tschema == "#schema=1"))
    ops.append(gate.Op("trajectories-rows", float(abs(tcount - want_traj)), 0.0, tcount == want_traj))

    bm = make_spec("bm")
    pb = rs.simulate_two_level(bm, tl.Shape.NNP1, np.array([-1.0, 1.0]), np.array([0.0]),
                               1.0, 0.01, CLI_PATHS, seed, y_spec=bm)
    col = {name: i for i, name in enumerate(header)}
    mismatched = 0
    if len(rows) == want_rows and header[:6] == ["path_id", "time", "level", "index", "value", "tau"]:
        got = {name: np.full((CLI_PATHS, pb.terminal(lvl).shape[1]), np.nan)
               for lvl, name in enumerate(pb.level_names)}
        tau = np.full(CLI_PATHS, np.inf)
        for r in rows:
            pid = int(r[col["path_id"]])
            got[r[col["level"]]][pid, int(r[col["index"]])] = float(r[col["value"]])
            if r[col["tau"]]:
                tau[pid] = float(r[col["tau"]])
        for lvl, name in enumerate(pb.level_names):
            mismatched += int(np.count_nonzero(got[name] != pb.terminal(lvl)))
        mismatched += int(np.count_nonzero(tau != pb.tau))
    else:
        mismatched = want_rows
    ops.append(gate.Op("terminal-bitwise", float(mismatched), 0.0, mismatched == 0))
    return ops


WORKLOADS = {
    "quad": (_setup_quad, _campaigns(QUAD_CHECKS), _judge_campaigns(None)),
    "sde-masked": (_setup_sde_masked, _campaigns(MASKED_CHECKS, SDE_PATHS), _judge_campaigns(SDE_PATHS)),
    "sde-edge": (_setup_sde_edge, _campaigns(EDGE_CHECKS, SDE_PATHS), _judge_campaigns(SDE_PATHS)),
    "cli-csv": (_setup_cli_csv, _cli_body, _cli_check),
}

# The timed units of each workload, as (name, body): the body above split
# into its campaigns, so each can be repeated and timed on its own.
UNITS = {
    "quad": [(name, _campaigns((name,))) for name in QUAD_CHECKS],
    "sde-masked": [(name, _campaigns((name,), SDE_PATHS)) for name in MASKED_CHECKS],
    "sde-edge": [(name, _campaigns((name,), SDE_PATHS)) for name in EDGE_CHECKS],
    "cli-csv": [("simulate", _cli_body)],
}
