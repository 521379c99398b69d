"""Every CSV the program writes is byte for byte what one csv.DictWriter
row per cell writes.  The dict-row writer below is the reference: the
'#schema=1' line, the header, CRLF row ends, the stdlib's quoting and its
str() text of each value."""
import csv
import io
import math

import numpy as np
import pytest

from interlace_lab import cli
from interlace_lab import reflectsde as rs
from interlace_lab.harness import campaign, write_csv
from interlace_lab.harness.io import ROWS_PER_WRITE, rows_block


def reference_csv(fieldnames, rows):
    buf = io.StringIO(newline="")
    buf.write("#schema=1\n")
    w = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def read_bytes(path):
    with open(path, newline="") as fh:
        return fh.read()


def reference_terminal(pb):
    rows = []
    for lvl, name in enumerate(pb.level_names):
        term = pb.terminal(lvl)
        for pid in range(term.shape[0]):
            for idx in range(term.shape[1]):
                rows.append({"path_id": pid, "time": pb.grid[-1], "level": name,
                             "index": idx, "value": term[pid, idx],
                             "tau": pb.tau[pid] if np.isfinite(pb.tau[pid]) else ""})
    return reference_csv(["path_id", "time", "level", "index", "value", "tau"], rows)


def reference_trajectories(pb):
    rows = []
    for lvl, name in enumerate(pb.level_names):
        arr = pb.levels[lvl]
        for ti, tval in enumerate(pb.grid):
            for pid in range(arr.shape[1]):
                for idx in range(arr.shape[2]):
                    rows.append({"path_id": pid, "time": tval, "level": name,
                                 "index": idx, "value": arr[ti, pid, idx]})
    return reference_csv(["path_id", "time", "level", "index", "value"], rows)


def capture(monkeypatch, module, name):
    """Wrap module.name so each call's return value is kept."""
    seen = []
    orig = getattr(module, name)

    def wrapped(*args, **kwargs):
        seen.append(orig(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, wrapped)
    return seen


TWO_LEVEL_STOPPED = ("family = bm\nmode = two-level\nshape = n,n+1\n"
                     "init_x = -0.05 0.0 0.05\ninit_y = -0.02 0.02\ny_family = bm\n"
                     "t = 0.5\ndt = 1e-3\npaths = 40\nseed = 2\n")
GT = "family = bm\nmode = gt\nlevels = 3\ninit1 = 0\ninit2 = -1 1\ninit3 = -2 0 2\n" \
     "t = 0.2\ndt = 0.01\npaths = 15\nseed = 5\n"
EDGE = "family = besq:2\nmode = edge\nn = 2\nside = right\ninit = 0 0\n" \
       "t = 0.2\ndt = 0.01\npaths = 10\nseed = 1\n"


class TestSimulateBytes:
    @pytest.mark.parametrize("simulator, body", [
        ("simulate_two_level", TWO_LEVEL_STOPPED),
        ("simulate_gt", GT),
        ("simulate_edge", EDGE),
    ], ids=["two-level-stopped", "gt", "edge"])
    @pytest.mark.parametrize("stride", [None, 7], ids=["terminal-only", "stride"])
    def test_files_match_dict_rows(self, tmp_path, monkeypatch, simulator, body, stride):
        out = tmp_path / "out"
        cfg = tmp_path / "sim.cfg"
        extra = "" if stride is None else f"record_stride = {stride}\n"
        cfg.write_text(f"[simulate]\n{body}{extra}output = {out}\n")
        bundles = capture(monkeypatch, rs, simulator)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        pb, = bundles
        if simulator == "simulate_two_level":
            assert 0 < np.isfinite(pb.tau).sum() < len(pb.tau)  # some tau cells filled
        assert read_bytes(out / "terminal.csv") == reference_terminal(pb)
        if stride is None:
            assert not (out / "trajectories.csv").exists()
        else:
            assert len(pb.grid) > 2
            assert read_bytes(out / "trajectories.csv") == reference_trajectories(pb)

    def test_states_equal_on_every_path_match_dict_rows(self, tmp_path):
        # equal states are written from one path's texts: only bit-equal
        # ones, since 0.0 and -0.0 compare equal but print apart
        arr = np.array([
            [[-1.0, 0.5]] * 3,
            [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]],
            [[np.nan, np.inf]] * 3,
            [[0.1, 0.2], [0.3, 0.4], [0.1, 0.2]],
        ])
        pb = rs.PathBundle(grid=np.array([0.0, 0.1, 0.2, 0.3]), levels=[arr],
                           tau=np.full(3, np.inf), seed=0, dt=0.1, level_names=["x"])
        path = tmp_path / "trajectories.csv"
        write_csv(path, ["path_id", "time", "level", "index", "value"], cli._trajectory_blocks(pb))
        assert read_bytes(path) == reference_trajectories(pb)


class TestDictRowBytes:
    @pytest.mark.parametrize("argv, name", [
        (["density", "--spec", "ou", "--t", "0.7", "--x", "-1 0 2.5", "--y", "0 1e-5 3"], "density"),
        (["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1", "--zmax", "3", "--znum", "7",
          "--oracle", "gue:2", "--oracle-count", "2000", "--seed", "3"], "edge_cdf"),
    ], ids=["density", "edge-cdf"])
    def test_emit_matches_dict_rows(self, tmp_path, monkeypatch, capsys, argv, name):
        calls = []
        orig = cli._emit

        def emit(args, name, fieldnames, rows):
            calls.append((fieldnames, rows))
            orig(args, name, fieldnames, rows)

        monkeypatch.setattr(cli, "_emit", emit)
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert cli.main(argv) == 0
        (to_file, to_stdout) = [reference_csv(fieldnames, rows) for fieldnames, rows in calls]
        assert read_bytes(tmp_path / f"{name}.csv") == to_file
        assert capsys.readouterr().out.endswith(to_stdout)

    def test_campaign_files_match_dict_rows(self, tmp_path, monkeypatch):
        results = capture(monkeypatch, campaign, "_run_one")
        assert cli.main(["campaign", "--name", "boundary-table", "--out", str(tmp_path)]) == 0
        res, = results
        assert read_bytes(tmp_path / "boundary-table.csv") == reference_csv(res.fieldnames, res.rows)
        summary = {"campaign": res.name, "passed": res.passed,
                   "runtime": round(res.runtime, 3), "summary": res.summary}
        assert read_bytes(tmp_path / "summary.csv") == reference_csv(list(summary), [summary])


class TestWriteCsv:
    FLOATS = [-0.0, 1e-05, 1e16, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1 / 3, 123456789.0]
    FIELDS = ["f", "i", "b", "s", "none"]
    TEXT = ["plain", "a,b", 'say "hi"', "", "line\nbreak", " pad ", "x", "y", "'", "z"]

    def rows(self):
        return [{"f": f, "i": i - 5, "b": i % 2 == 0, "s": s, "none": None}
                for i, (f, s) in enumerate(zip(self.FLOATS, self.TEXT))]

    def written(self, blocks, fieldnames=None):
        buf = io.StringIO(newline="")
        write_csv(buf, fieldnames or self.FIELDS, blocks)
        return buf.getvalue()

    def test_column_block_matches_dict_rows(self):
        n = len(self.FLOATS)
        block = {"f": np.array(self.FLOATS), "i": np.arange(n) - 5,
                 "b": np.arange(n) % 2 == 0, "s": self.TEXT, "none": None}
        assert self.written([block]) == reference_csv(self.FIELDS, self.rows())

    def test_numpy_scalars_match_dict_rows(self):
        rows = [{"f": np.float64(f), "i": np.int64(7), "b": np.bool_(True), "s": "q,\"", "none": None}
                for f in self.FLOATS]
        assert self.written([rows_block(self.FIELDS, rows)]) == reference_csv(self.FIELDS, rows)
        assert self.written(rows) == reference_csv(self.FIELDS, rows)  # one-row blocks

    def test_scalars_repeat_over_the_block(self):
        block = {"f": 2.5, "i": [1, 2, 3], "b": False, "s": "a,b", "none": None}
        rows = [{"f": 2.5, "i": i, "b": False, "s": "a,b"} for i in (1, 2, 3)]
        assert self.written([block]) == reference_csv(self.FIELDS, rows)

    def test_missing_and_extra_keys(self):
        rows = [{"f": 1.5, "extra": "dropped"}, {"s": "only s"}, {}]
        assert self.written([rows_block(self.FIELDS, rows)]) == reference_csv(self.FIELDS, rows)

    def test_empty_and_single_column(self):
        assert self.written([rows_block(self.FIELDS, [])]) == reference_csv(self.FIELDS, [])
        rows = [{"s": ""}, {"s": None}, {"s": "v"}]
        assert self.written([rows_block(["s"], rows)], ["s"]) == reference_csv(["s"], rows)

    def test_blocks_stream_in_order(self):
        blocks = ({"f": np.array([float(k), k + 0.5]), "i": k} for k in range(3))
        rows = [{"f": float(k) + h, "i": k} for k in range(3) for h in (0.0, 0.5)]
        assert self.written(blocks) == reference_csv(self.FIELDS, rows)

    def test_blocks_longer_than_a_write_slice(self):
        # slice boundaries fall inside each block: at, one past and one short of them
        rows, blocks = [], []
        for n in (ROWS_PER_WRITE, ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 7):
            k = np.arange(n)
            f = k / 7.0 - 3.0
            s = [self.TEXT[j % len(self.TEXT)] for j in range(n)]
            blocks.append({"f": f, "i": k, "b": k % 3 == 0, "s": s, "none": None})
            rows += [{"f": f[j], "i": j, "b": j % 3 == 0, "s": s[j]} for j in range(n)]
        assert self.written(blocks) == reference_csv(self.FIELDS, rows)

    def test_header_fields_that_need_quoting(self):
        fields = ["plain", "a,b", 'say "hi"', "line\nbreak", "cr\rhere", " pad "]
        rows = [{f: f"{f}{j}" for f in fields} for j in range(3)]
        assert self.written([rows_block(fields, rows)], fields) == reference_csv(fields, rows)

    def test_one_field_empty_and_none_cells(self):
        blocks = [{"s": ["", None, "v", "a,b", ""]}, {"s": None}, {"s": ""}, {},
                  {"s": np.array([1, 0])}, {"s": ["x", "y"]}]
        rows = [{"s": v} for v in ["", None, "v", "a,b", "", None, "", "", 1, 0, "x", "y"]]
        assert self.written(blocks, ["s"]) == reference_csv(["s"], rows)
        assert self.written([{"": None}], [""]) == reference_csv([""], [{"": None}])

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            self.written([{"f": [1.0, 2.0], "i": [1]}])
