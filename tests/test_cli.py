import os
import tracemalloc

import numpy as np
import pytest

from interlace_lab.cli import main
from interlace_lab.harness import checks


def read_rows(path):
    import csv
    import io

    with open(path) as fh:
        raw = fh.read().splitlines()
    assert raw[0] == "#schema=1"
    return list(csv.DictReader(io.StringIO("\n".join(raw[1:]))))


class TestCLI:
    def test_classify(self, tmp_path):
        assert main(["classify", "--spec", "besq:3", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "classify.csv")
        assert rows[0]["class"] == "entrance"
        assert rows[1]["class"] == "natural"

    def test_duality_check(self, tmp_path):
        assert main(["duality-check", "--spec", "bm", "--times", "0.5",
                     "--grid", "3", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "duality.csv")
        assert len(rows) == 9
        assert all(float(r["residual"]) < 1e-8 for r in rows)

    def test_classify_computes_each_ends_integrals_once(self, tmp_path, monkeypatch):
        import interlace_lab.cli as cli
        from interlace_lab.diffusion1d import core

        calls = []
        once = core.boundary_integrals

        def counted(spec, end):
            calls.append((spec.name, end))
            return once(spec, end)

        monkeypatch.setattr(cli, "boundary_integrals", counted)
        monkeypatch.setattr(core, "boundary_integrals", counted)
        assert main(["classify", "--spec", "besq:3", "--spec", "jac:1,1", "--out", str(tmp_path)]) == 0
        assert calls == [("besq:3", "l"), ("besq:3", "r"), ("jac:1,1", "l"), ("jac:1,1", "r")]
        assert [r["class"] for r in read_rows(tmp_path / "classify.csv")] == [
            "entrance", "natural", "entrance", "entrance"]

    def test_duality_check_makes_one_call_per_time(self, tmp_path, monkeypatch):
        import interlace_lab.cli as cli

        calls = []
        grid_call = cli.duality_residual

        def counted(spec, t, x, y):
            calls.append((spec.name, t, np.broadcast(x, y).shape))
            return grid_call(spec, t, x, y)

        monkeypatch.setattr(cli, "duality_residual", counted)
        assert main(["duality-check", "--spec", "ou", "--times", "0.25", "1.0",
                     "--grid", "5", "--out", str(tmp_path)]) == 0
        assert calls == [("ou", 0.25, (5, 5)), ("ou", 1.0, (5, 5))]
        rows = read_rows(tmp_path / "duality.csv")
        assert len(rows) == 50 and all(float(r["residual"]) < 1e-6 for r in rows)

    def test_density_value(self, tmp_path):
        assert main(["density", "--spec", "bm", "--t", "1", "--x", "0 1",
                     "--y", "0 1", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "density.csv")
        assert float(rows[0]["value"]) == pytest.approx(0.10060511, abs=1e-6)

    def test_density_h_transform_on_the_killed_interval(self, tmp_path):
        # h = 2 sin x1 sin x2 (cos x1 - cos x2), rate -(1 + 4)/2
        assert main(["density", "--spec", "bm_interval:abs,abs", "--t", "0.5", "--x", "0.5 1",
                     "--y", "0.3 1.5", "--h-transform", "--out", str(tmp_path)]) == 0
        killed, htr = (float(r["value"]) for r in read_rows(tmp_path / "density.csv"))
        h = lambda a, b: np.sin(a) * np.sin(b) * (np.cos(a) - np.cos(b))
        assert killed > 0.0
        assert htr == pytest.approx(np.exp(1.25) * h(0.3, 1.5) / h(0.5, 1.0) * killed, rel=1e-12)

    def test_eigen_check(self, tmp_path):
        assert main(["eigen-check", "--spec", "lag:3", "--n", "2",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "eigen.csv")
        assert float(rows[0]["residual"]) < 1e-8
        assert float(rows[0]["rate"]) == -2.0

    def test_entrance_law(self, tmp_path):
        assert main(["entrance-law", "--family", "gue", "--n", "2",
                     "--points", "-1 0.5", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "entrance.csv")
        assert float(rows[0]["density"]) > 0

    def test_intertwine_check(self, tmp_path):
        assert main(["intertwine-check", "--spec", "bm", "--shape", "n,n+1",
                     "--n", "1", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "intertwine.csv")
        assert all(r["pass"] == "True" for r in rows)

    def test_edge_cdf_with_oracle(self, tmp_path):
        assert main(["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1",
                     "--zmax", "3", "--znum", "5", "--oracle", "gue:2",
                     "--oracle-count", "20000", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "edge_cdf.csv")
        assert all(float(r["diff"]) < 0.02 for r in rows)

    @pytest.mark.parametrize("spec", ["jac:1,1", "jac:2,3"])
    def test_edge_cdf_at_the_ends_of_a_jacobi_interval(self, tmp_path, spec):
        # n = 3 evaluates the level kernels' y-derivatives at the ends
        for n in ("2", "3"):
            out = tmp_path / n
            assert main(["edge-cdf", "--spec", spec, "--n", n, "--zmin", "0", "--zmax", "1",
                         "--znum", "3", "--out", str(out)]) == 0
            cdf = [float(r["cdf"]) for r in read_rows(out / "edge_cdf.csv")]
            assert cdf[0] == 0.0 and abs(cdf[2] - 1.0) <= 1e-9, n

    def test_simulate_two_level(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "simout"
        cfg.write_text(
            "[simulate]\nfamily = bm\nmode = two-level\nshape = n,n+1\n"
            "init_x = -1 1\ninit_y = 0\ny_family = bm\nt = 0.2\ndt = 0.01\n"
            f"paths = 20\nseed = 4\nrecord_stride = 10\noutput = {out}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = read_rows(out / "terminal.csv")
        assert len(rows) == 20 * 3  # one y and two x particles per path
        assert (out / "trajectories.csv").exists()

    def test_simulate_edge_mode(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "edgeout"
        cfg.write_text(
            "[simulate]\nfamily = besq:2\nmode = edge\nn = 2\nside = right\n"
            f"init = 0 0\nt = 0.2\ndt = 0.01\npaths = 10\nseed = 1\noutput = {out}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = read_rows(out / "terminal.csv")
        vals = {}
        for r in rows:
            vals.setdefault(int(r["path_id"]), []).append(float(r["value"]))
        for pid, vv in vals.items():
            assert vv[0] <= vv[1] + 1e-12

    def test_campaign_exit_status(self, tmp_path):
        assert main(["campaign", "--name", "boundary-table", "--out", str(tmp_path)]) == 0

    def test_campaign_without_out_prints_its_csv(self, capsys):
        assert main(["campaign", "--name", "boundary-table"]) == 0
        import csv

        status, schema, *table = capsys.readouterr().out.splitlines()
        assert status.startswith("campaign boundary-table: PASS")
        assert schema == "#schema=1"
        rows = list(csv.DictReader(table))
        assert [r["spec"] for r in rows] == [sid for sid, *_ in checks.BOUNDARY_TABLE]
        assert all(r["pass"] == "True" for r in rows)

    def test_campaign_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[campaign]\nname = chapman-bm\n")
        assert main(["campaign", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "chapman-bm.csv").exists()

    @pytest.mark.parametrize("key, value", [("tolerance", "1"), ("dt", "0.1"), ("nodes", "8")])
    def test_campaign_config_cannot_set_a_check_constant(self, tmp_path, capsys, key, value):
        # a check's bar, step size and node counts are fixed beside it
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[campaign]\nname = chapman-bm\n{key} = {value}\n")
        assert main(["campaign", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"unknown campaign config keys in {cfg}: ['{key}']" in err

    def test_campaign_flags_override_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[campaign]\nname = boundary-table\n")
        out = tmp_path / "out"
        assert main(["campaign", "--config", str(cfg), "--name", "chapman-bm",
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["chapman-bm.csv", "summary.csv"]
        capsys.readouterr()
        # boundary-table takes no seed, so a seed given on the command line is an error
        assert main(["campaign", "--config", str(cfg), "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "takes seed" in err

    def test_campaign_name_may_come_from_the_command_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[campaign]\npaths = 2000\n")
        out = tmp_path / "out"
        assert main(["campaign", "--config", str(cfg), "--name", "skorokhod",
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["skorokhod.csv", "summary.csv"]
        assert "paths" not in capsys.readouterr().err

    def test_config_files_without_their_section_are_one_line_errors(self, tmp_path, capsys):
        headless = tmp_path / "headless.cfg"
        headless.write_text("name = chapman-bm\n")
        other = tmp_path / "other.cfg"
        other.write_text("[simulate]\nfamily = bm\n")
        for argv, named in [
            (["campaign", "--config", str(headless)], "section header"),
            (["simulate", "--config", str(headless)], "section header"),
            (["campaign", "--config", str(other)], "missing [campaign] section"),
            (["campaign", "--config", str(tmp_path / "absent.cfg")], "cannot read"),
        ]:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and named in err, argv

    def test_simulate_flags_override_the_config_file(self, tmp_path):
        body = ("[simulate]\nfamily = bm\ninit_x = -1 1\ninit_y = 0\n"
                "t = 0.1\ndt = 0.05\npaths = 2\n")
        ref = tmp_path / "ref.cfg"
        ref.write_text(body + f"seed = 9\noutput = {tmp_path / 'ref'}\n")
        assert main(["simulate", "--config", str(ref)]) == 0
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(body + f"seed = 1\noutput = {tmp_path / 'fileout'}\n")
        flagout = tmp_path / "flagout"
        assert main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(flagout)]) == 0
        assert not (tmp_path / "fileout").exists()
        assert (flagout / "terminal.csv").read_bytes() == \
            (tmp_path / "ref" / "terminal.csv").read_bytes()

    def test_campaign_config_rejects_an_unknown_perturbation(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[campaign]\nname = master-intertwinings\nperturb = indicatr\n")
        assert main(["campaign", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'indicatr'" in err and "'c_sign'" in err

    @pytest.mark.parametrize(
        "argv",
        [["campaign", "--name", "no-such-campaign"],
         ["campaign", "--name", "boundary-table", "--seed", "3"],
         ["classify", "--spec", "besq"],
         ["entrance-law", "--family", "besq", "--n", "2", "--points", "1 2"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1", "--zmax", "1",
          "--oracle", "gue", "--oracle-count", "10"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1", "--zmax", "1",
          "--oracle", "gue:3", "--oracle-count", "10"],
         ["edge-cdf", "--spec", "bm", "--n", "7", "--zmin", "0", "--zmax", "1",
          "--oracle", "gue:7"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1", "--zmax", "1",
          "--oracle", "gue:2", "--oracle-count", "0"],
         ["density", "--spec", "bm", "--t", "0.5", "--x", "0 1", "--y", "0 1 2"],
         ["eigen-check", "--spec", "bm_interval:abs,abs", "--n", "3",
          "--probes", "0.5 1.0 1.5 2.0"],
         ["eigen-check", "--spec", "bm_interval:abs,abs", "--n", "3", "--probes", "0.5 1.5"],
         ["entrance-law", "--family", "gue", "--n", "2", "--points", "1 2 3"],
         ["entrance-law", "--family", "besq:2", "--n", "3", "--points", "1 2"],
         ["entrance-law", "--family", "gue", "--n", "2", "--points", "2 1"],
         ["entrance-law", "--family", "besq:2", "--n", "2", "--points", "0 1"],
         ["edge-cdf", "--spec", "bm", "--n", "3", "--zmin", "-1", "--zmax", "1",
          "--start", "0 1"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1", "--zmax", "1",
          "--start", "0 1 2"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1", "--zmax", "1",
          "--start", "1 0"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "-1", "--zmax", "1",
          "--side", "left", "--start", "0 1"],
         ["edge-cdf", "--spec", "besq:2", "--n", "2", "--zmin", "0", "--zmax", "2",
          "--start", "-1 0"],
         ["edge-cdf", "--spec", "besq:2", "--n", "2", "--zmin", "0", "--zmax", "2",
          "--side", "left", "--start", "0 -1"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "0", "--zmax", "2",
          "--start", "0 inf"],
         ["edge-cdf", "--spec", "bm_halfline:refl", "--n", "2", "--zmin", "0", "--zmax", "1"],
         ["edge-cdf", "--spec", "ou_out", "--n", "2", "--zmin", "0", "--zmax", "1"],
         ["edge-cdf", "--spec", "besq:1", "--n", "2", "--zmin", "0", "--zmax", "1"],
         ["edge-cdf", "--spec", "nosuch", "--n", "2", "--zmin", "0", "--zmax", "1"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "0", "--zmax", "1",
          "--oracle", "foo:2"],
         ["eigen-check", "--spec", "nosuch", "--n", "2"],
         ["intertwine-check", "--spec", "bm", "--n", "1", "--shape", "n+1,n"],
         ["intertwine-check", "--spec", "besq:3", "--shape", "n,n"],
         ["intertwine-check", "--spec", "bm", "--shape", "n,n"],
         ["intertwine-check", "--spec", "bm", "--shape", "n+1,n"],
         ["classify", "--spec", "gbm:nan"],
         ["density", "--spec", "besq:nan", "--t", "1", "--x", "1", "--y", "1"],
         ["density", "--spec", "jac:0,1", "--t", "0.5", "--x", "0.3", "--y", "0.45"],
         ["edge-cdf", "--spec", "gbm:1", "--n", "2", "--zmin", "0.5", "--zmax", "1"],
         ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "0", "--zmax", "1", "--start", "0 x"],
         ["intertwine-check", "--spec", "ou_out", "--shape", "n,n"],
         ["intertwine-check", "--spec", "bm", "--shape", "n,n+1", "--n", "2"],
         ["intertwine-check", "--spec", "bm", "--shape", "n+1,n", "--n", "3"],
         ["intertwine-check", "--spec", "bm_halfline:abs", "--shape", "n,n", "--n", "2"],
         ["density", "--spec", "bm", "--t", "0.5", "--x", "0.5 0.5", "--y", "0.3 1.5",
          "--h-transform"]],
    )
    def test_errors_are_one_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("interlace-lab: error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["--seed", "5", "--out", "{tmp}", "campaign", "--name", "boundary-table"],
         ["classify", "--threads", "7", "--config", "nothere.cfg"],
         ["density", "--spec", "bm", "--t", "1", "--x", "0", "--y", "0", "--seed", "1"],
         ["simulate", "--threads", "2", "--config", "nothere.cfg"],
         ["simulate", "--out", "{tmp}"]],
    )
    def test_options_a_command_does_not_read_are_errors(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize(
        "body, named",
        [("family = bm\ninit_x = -1 1\ninit_y = 0\npath = 50\n", "'path'"),
         ("family = bm\nmode = edge\nn = 2\nshape = n,n\ny_family = bm\n", "'shape', 'y_family'"),
         ("family = bm\nmode = gt\nlevels = 2\ninit1 = 0\ninit2 = -1 1\ninit3 = 0\n", "'init3'"),
         ("family = bm\nmode = two_level\ninit_x = -1 1\ninit_y = 0\n", "'two_level'")],
    )
    def test_simulate_rejects_keys_its_mode_does_not_read(self, tmp_path, capsys, body, named):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"[simulate]\n{body}t = 0.1\ndt = 0.05\npaths = 2\noutput = {tmp_path}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not (tmp_path / "terminal.csv").exists()

    def test_simulate_rejects_an_unknown_shape(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[simulate]\nfamily = bm\nshape = n,m\ninit_x = -1 1\ninit_y = 0\n"
                       f"t = 0.1\ndt = 0.05\npaths = 2\noutput = {tmp_path}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'n,m'" in err and "n,n+1" in err
        assert not (tmp_path / "terminal.csv").exists()

    def test_edge_cdf_starts_on_the_closed_interval(self, capsys):
        # besq's entrance boundary 0 is a valid coincident start
        argv = ["edge-cdf", "--spec", "besq:2", "--n", "2", "--zmin", "0", "--zmax", "2",
                "--znum", "3", "--start", "0 0"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[:2] == ["#schema=1", "z,cdf"] and len(rows) == 5

    # each command ends with the option that takes the time
    @pytest.mark.parametrize("command", [
        ["density", "--spec", "bm", "--x", "0", "--y", "0", "--t"],
        ["eigen-check", "--spec", "bm", "--n", "2", "--t"],
        ["entrance-law", "--family", "gue", "--n", "2", "--points", "0 1", "--t"],
        ["intertwine-check", "--spec", "bm", "--t"],
        ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "0", "--zmax", "1", "--t"],
        ["duality-check", "--spec", "bm", "--times"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf", "abc"])
    def test_times_must_be_positive(self, capsys, command, t):
        with pytest.raises(SystemExit) as exc:
            main(command + [t])
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert errors == [f"interlace-lab {command[0]}: error: argument {command[-1]}: "
                          f"expected a positive number, got {t!r}"]

    @pytest.mark.parametrize("command", [
        ["duality-check", "--spec", "bm", "--grid"],
        ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "0", "--zmax", "1", "--znum"],
        ["eigen-check", "--spec", "bm", "--n"],
        ["entrance-law", "--family", "gue", "--points", "0 1", "--n"],
        ["intertwine-check", "--spec", "bm", "--n"],
        ["edge-cdf", "--spec", "bm", "--zmin", "0", "--zmax", "1", "--n"],
    ], ids=lambda argv: f"{argv[0]}-n" if argv[-1] == "--n" else argv[0])
    @pytest.mark.parametrize("count", ["0", "-2", "1.5", "abc"])
    def test_counts_must_be_positive(self, capsys, command, count):
        with pytest.raises(SystemExit) as exc:
            main(command + [count])
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert errors == [f"interlace-lab {command[0]}: error: argument {command[-1]}: "
                          f"expected a positive integer, got {count!r}"]

    @pytest.mark.parametrize("command", [
        ["edge-cdf", "--spec", "bm", "--n", "2", "--zmin", "0", "--zmax", "1",
         "--oracle", "gue:2", "--seed"],
        ["campaign", "--name", "warren-dyson", "--seed"],
        ["simulate", "--config", "nothere.cfg", "--seed"],
    ], ids=lambda argv: argv[0])
    def test_seed_must_be_non_negative(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["-1"])
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert errors == [f"interlace-lab {command[0]}: error: argument --seed: "
                          "expected a non-negative integer, got '-1'"]

    @pytest.mark.parametrize("option, value", [("--zmin", "nan"), ("--zmin", "inf"),
                                               ("--zmax", "inf")])
    def test_edge_cdf_grid_ends_must_be_finite(self, capsys, option, value):
        ends = {"--zmin": "0", "--zmax": "1", option: value}
        with pytest.raises(SystemExit) as exc:
            main(["edge-cdf", "--spec", "bm", "--n", "2"]
                 + [text for item in ends.items() for text in item])
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert errors == [f"interlace-lab edge-cdf: error: argument {option}: "
                          f"expected a finite number, got {value!r}"]

    @pytest.mark.parametrize("value", ["-3", "x"])
    def test_simulate_rejects_a_bad_seed_by_name(self, tmp_path, capsys, value):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "out"
        cfg.write_text("[simulate]\nfamily = bm\ninit_x = -1 1\ninit_y = 0\nt = 0.1\n"
                       f"dt = 0.05\npaths = 2\nseed = {value}\noutput = {out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[simulate] seed in {cfg} must be a non-negative integer, got '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("body, named", [
        ("init_x = -1 1\ninit_y = 0\nt = -1\n", "end time t = -1"),
        ("init_x = -1 1\ninit_y = 0\nt = 0\n", "end time t = 0"),
        ("init_x = -1 1\ninit_y = 0\nt = inf\n", "end time t must be finite, got inf"),
        ("init_x = -1 1\ninit_y = 0\ndt = 0\n", "dt must be positive"),
        ("init_x = -1 1\ninit_y = 5\n", "does not interlace"),
        ("mode = gt\nlevels = 2\ninit1 = 0\ninit2 = -1 1\nt = -1\n", "end time t = -1"),
        ("mode = gt\nlevels = 2\ninit1 = 0\ninit2 = -1 1\ndt = 0\n", "dt must be positive"),
        ("mode = gt\nlevels = 2\ninit1 = 0\ninit2 = -1 1\nt = inf\n",
         "end time t must be finite, got inf"),
        ("mode = gt\nlevels = 2\ninit1 = 2\ninit2 = -1 1\n", "does not interlace"),
        ("mode = edge\nn = 2\ninit = 0 1\nt = -1\n", "end time t = -1"),
        ("mode = edge\nn = 2\ninit = 0 1\nt = inf\n", "end time t must be finite, got inf"),
        ("mode = edge\nn = 2\ninit = 0 1\ndt = -0.1\n", "dt must be positive"),
        ("mode = edge\nn = 2\ninit = 0 1 2\n", "needs 2 start coordinates, got 3"),
    ], ids=["two-level-t", "two-level-t0", "two-level-t-inf", "two-level-dt", "two-level-start",
            "gt-t", "gt-dt", "gt-t-inf", "gt-start", "edge-t", "edge-t-inf", "edge-dt",
            "edge-init"])
    def test_simulate_rejects_a_bad_time_step_or_start(self, tmp_path, capsys, body, named):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"[simulate]\nfamily = bm\n{body}paths = 2\noutput = {out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("interlace-lab: error: [simulate] in ")
        assert err.count("\n") == 1 and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("mode, key", [("two-level", "t"), ("two-level", "dt"),
                                           ("edge", "t"), ("gt", "dt")])
    def test_simulate_rejects_a_time_or_step_that_is_not_a_number_by_name(self, tmp_path,
                                                                          capsys, mode, key):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "out"
        starts = {"two-level": "init_x = -1 1\ninit_y = 0\n", "edge": "n = 2\ninit = 0 1\n",
                  "gt": "levels = 2\ninit1 = 0\ninit2 = -1 1\n"}[mode]
        times = {"t": "0.1", "dt": "0.05", key: "abc"}
        cfg.write_text(f"[simulate]\nfamily = bm\nmode = {mode}\n{starts}"
                       + "".join(f"{k} = {v}\n" for k, v in times.items())
                       + f"paths = 2\noutput = {out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[simulate] {key} in {cfg} must be a number, got 'abc'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("paths", "0"), ("paths", "-3"), ("paths", "many"), ("record_stride", "0"),
    ])
    def test_simulate_rejects_a_bad_count_by_name(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "out"
        counts = {"paths": "2", "record_stride": "1", key: value}
        cfg.write_text("[simulate]\nfamily = bm\ninit_x = -1 1\ninit_y = 0\nt = 0.1\n"
                       "dt = 0.05\n" + "".join(f"{k} = {v}\n" for k, v in counts.items())
                       + f"output = {out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[simulate] {key} in {cfg} must be a positive integer, got '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("body, named", [
        ("init_x = -1 1\ninit_y = 0\n", "family missing from"),
        ("family = bm\ninit_y = 0\n", "init_x missing from"),
        ("family = bm\ninit_x = -1 1\n", "init_y missing from"),
        ("family = bm\nmode = edge\ninit = 0 1\n", "n missing from"),
        ("family = bm\nmode = gt\ninit1 = 0\n", "levels missing from"),
        ("family = bm\nmode = gt\nlevels = 2\ninit1 = 0\n", "init2 missing from"),
        ("family = bm\nmode = gt\nlevels = two\n",
         "levels in {cfg} must be a positive integer, got 'two'"),
        ("family = bm\nmode = gt\nlevels = 0\n",
         "levels in {cfg} must be a positive integer, got '0'"),
    ], ids=["family", "init_x", "init_y", "n", "levels", "init2", "levels-two", "levels-0"])
    def test_simulate_names_a_missing_or_bad_key(self, tmp_path, capsys, body, named):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"[simulate]\n{body}t = 0.1\ndt = 0.05\npaths = 2\noutput = {out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("interlace-lab: error: [simulate] ") and err.count("\n") == 1
        assert named.format(cfg=cfg) in err and str(cfg) in err, err
        assert not out.exists()

    def test_simulate_names_a_missing_level_before_building_per_level_lists(self, tmp_path,
                                                                            capsys):
        # a million levels with only init1: the error costs no memory per level
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[simulate]\nfamily = bm\nmode = gt\nlevels = 1000000\ninit1 = 0\n"
                       f"t = 0.1\ndt = 0.05\npaths = 2\noutput = {tmp_path / 'out'}\n")
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "init2 missing from" in err
        assert peak < 2**20


def test_simulate_imports_no_scipy_module(tmp_path):
    # scipy.special costs about 0.16 s to import, and a bm simulation in any
    # mode evaluates no special function, so no scipy module is loaded
    import subprocess
    import sys

    bodies = {"two-level": "shape = n,n+1\ninit_x = -1 1\ninit_y = 0\ny_family = bm\n",
              "edge": "n = 2\nside = right\ninit = -1 1\n",
              "gt": "levels = 2\ninit1 = 0\ninit2 = -1 1\n"}
    configs = []
    for mode, body in bodies.items():
        configs.append(str(tmp_path / f"{mode}.cfg"))
        with open(configs[-1], "w") as fh:
            fh.write(f"[simulate]\nfamily = bm\nmode = {mode}\n{body}t = 0.1\ndt = 0.05\npaths = 4\n"
                     f"record_stride = 1\noutput = {tmp_path / mode}\n")
    code = ("import contextlib, io, sys\n"
            "from interlace_lab import cli\n"
            "cli.build_parser()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for cfg in {configs!r}:\n"
            "        assert cli.main(['simulate', '--config', cfg]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.strip() == "[]"
    for mode in bodies:
        assert (tmp_path / mode / "trajectories.csv").exists()


def test_closed_stdout_ends_without_a_traceback():
    # a reader that stops early (`| head -c 1`) closes the pipe; here it is
    # closed before the command writes, so every write meets it
    import subprocess
    import sys

    r, w = os.pipe()
    os.close(r)
    try:
        out = subprocess.run([sys.executable, "-m", "interlace_lab.cli", "campaign",
                              "--name", "boundary-table"], stdout=w, stderr=subprocess.PIPE,
                             text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    finally:
        os.close(w)
    assert out.returncode == 1
    assert out.stderr == ""
