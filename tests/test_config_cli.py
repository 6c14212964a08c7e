import argparse
import collections
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import traceback
from pathlib import Path

import pytest

from thermotomo import cli, formats
from thermotomo.cli import build_parser, main
from thermotomo.config import _GROUPS, _SCALAR_KEYS, RunConfig, parse_config_text
from thermotomo.errors import ConfigurationError
from thermotomo.formats import read_grid, read_trace
from thermotomo.rays import check_visibility

ROOT = Path(__file__).parents[1]

TINY = """
# small configuration for the shapes of files, exit codes and messages; at
# T = 1.2 it is not visible (raytrace covers 44 of 48 samples) and roundtrip
# ends at a relative L2 error near 0.98
grid.nx = 161
grid.ny = 161
grid.h = 0.0275
grid.ox = -2.2
grid.oy = -2.2

layer.1.radius = 0.5
layer.1.speed = 0.5

omega.xmin = -1.0
omega.xmax = 1.0
omega.ymin = -1.0
omega.ymax = 1.0

kset.kind = disk
kset.cx = 0.0
kset.cy = 0.0
kset.radius = 0.2

phantom.kind = gaussian_bump
phantom.1.cx = 0.02
phantom.1.cy = -0.03
phantom.1.sigma = 0.05

time.T = 1.2
recon.m_max = 3
recon.tol_rel = 0.0
rays.n_pos = 6
rays.n_dir = 8
seed = 7
"""


def _edited(text, **edits):
    """text with each edited key's line removed and ``key = value`` appended
    for each value that is not None: an edit replaces a key's line, adds the
    key, or with None drops it."""
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in edits]
    return "".join(f"{line}\n" for line in kept) + "".join(
        f"{key} = {value}\n" for key, value in edits.items() if value is not None)


def _square_kset(half):
    """The edits that make a disk kset the square [-half, half]^2."""
    return {"kset.kind": "rectangle", "kset.cx": None, "kset.cy": None, "kset.radius": None,
            "kset.xmin": -half, "kset.xmax": half, "kset.ymin": -half, "kset.ymax": half}


def _child_env(**extra):
    """This process's environment with src/ first on PYTHONPATH, and extra."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])), **extra}


def write_cfg(tmp_path, text=TINY, **overrides):
    lines = [text]
    for key, value in overrides.items():
        lines.append(f"{key.replace('_', '.')} = {value}\n")
    path = tmp_path / "run.cfg"
    path.write_text("".join(lines))
    return str(path)


class TestConfigParsing:
    def test_parse_round_trip(self):
        values = parse_config_text(TINY)
        assert values["grid.nx"] == 161
        assert values["layer.1.speed"] == 0.5
        assert values["time.T"] == 1.2

    def test_unknown_key_rejected(self):
        # the removed solver options must not parse silently, nor a numbered key
        # with a leading zero or a field of another group
        for line in ("grid.nz = 4\n", "solver.sponge = on\n", "solver.box_margin = 1.0\n",
                     "phantom.01.cx = 0.5\n", "layer.01.speed = 0.9\n", "layer.1.sigma = 1\n",
                     "phantom.1.speed = 1\n", "kset.1.cx = 1\n"):
            with pytest.raises(ConfigurationError, match="unknown key"):
                parse_config_text(line)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config_text("grid.nx = 4\ngrid.nx = 5\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_config_text("grid.nx = lots\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            RunConfig.from_text("grid.nx = 9\n")

    def test_non_contiguous_numbering_rejected(self):
        text = TINY.replace("layer.1.radius", "layer.2.radius").replace(
            "layer.1.speed", "layer.2.speed")
        with pytest.raises(ConfigurationError, match="numbered"):
            RunConfig.from_text(text)

    def test_builders(self, tmp_path):
        cfg = RunConfig.from_file(write_cfg(tmp_path))
        g = cfg.build_grid()
        m = cfg.build_medium(g)
        omega = cfg.build_omega(g)
        kset = cfg.build_kset(g)
        phantom = cfg.build_phantom(g, kset)
        rcfg = cfg.recon_config(m, omega, kset)
        assert m.c_max == 1.0
        assert rcfg.m_max == 3
        assert phantom.data.max() > 0.9

    def test_comments_and_blank_lines_ignored(self):
        values = parse_config_text("# hello\n\nseed = 3   # trailing\n")
        assert values == {"seed": 3}

    def test_rectangle_kset(self, tmp_path):
        cfg = RunConfig.from_text(_edited(TINY, **_square_kset(0.15)))
        g = cfg.build_grid()
        kset = cfg.build_kset(g)
        assert kset.kind == "rectangle"

    def test_rectangle_kset_missing_bounds_rejected(self):
        cfg = RunConfig.from_text(_edited(TINY, **{**_square_kset(0.15), "kset.xmax": None}))
        with pytest.raises(ConfigurationError, match="missing kset.xmax for a rectangle kset"):
            cfg.build_kset(cfg.build_grid())


class TestCli:
    def test_missing_config_file_exits_2(self, capsys):
        assert main(["energy", "--config", "/nonexistent/run.cfg"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(TINY.encode() + b"# \xff\n")
        assert main(["energy", "--config", str(path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["forward", "reconstruct", "roundtrip", "raytrace",
                                     "knorm", "energy"])
    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys, cmd):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([cmd, "--config", write_cfg(tmp_path), "--output-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(taken) in err

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate", "--config", "x"]) == 2

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        # medium.mollify_width and solver.cfl are removed keys
        for line in ("grid.nz = 4", "medium.mollify_width = 0.5", "solver.cfl = 0.4"):
            path.write_text(TINY + line + "\n")
            assert main(["energy", "--config", str(path)]) == 2
            assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["recon.tol_rel = -1", "recon.tol_rel = nan",
                                      "recon.harmonic_tol = 1e-20", "kset.radius = nan",
                                      "time.T = inf", "layer.1.speed = inf",
                                      "omega.xmin = nan", "phantom.1.sigma = nan",
                                      "phantom.1.cx = nan", "layer.1.speed = 1e300",
                                      "grid.h = -0.04", "phantom.1.sigma = 1e-300",
                                      "layer.1.speed = 1e-300"])
    def test_bad_value_exits_2(self, tmp_path, capsys, line):
        key, value = line.split(" = ")
        path = tmp_path / "bad.cfg"
        path.write_text(_edited(TINY, **{key: value}))
        assert main(["energy", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "duplicate" not in err

    @pytest.mark.parametrize("key, cmd", [("grid.nx", "forward"), ("grid.ny", "roundtrip"),
                                          ("rays.n_pos", "raytrace"), ("rays.n_dir", "raytrace")])
    def test_count_too_large_to_index_exits_2(self, tmp_path, capsys, key, cmd):
        # numpy cannot index that many float64 values, and says so with a ValueError
        path = tmp_path / "bad.cfg"
        path.write_text(_edited(TINY, **{key: 99999999999999999999}))
        assert main([cmd, "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "out of memory" not in err

    def test_knorm_negative_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY.replace("seed = 7", "seed = -1"))
        assert main(["knorm", "--config", str(path), "--output-dir", str(tmp_path),
                     "--power-iters", "5"]) == 2
        assert capsys.readouterr().err == "error: seed must be a whole number of at least 0, got -1\n"

    def test_subcommand_flags(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {flag for a in sp._actions for flag in a.option_strings}
                 for name, sp in sub.choices.items()}
        common = {"-h", "--help", "--config", "--output-dir"}
        term_pgms = {"--term-pgms", "--no-term-pgms"}
        assert flags == {"forward": common, "reconstruct": common | {"--trace"} | term_pgms,
                         "roundtrip": common | term_pgms, "raytrace": common,
                         "knorm": common | {"--power-iters"}, "energy": common}

    @pytest.mark.parametrize("cmd, text, err", [
        ("raytrace", TINY + "rays.min_weight = 1\n", "min_weight below 1"),
        ("raytrace", TINY + "rays.min_weight = 2.5\n", "min_weight below 1"),
        ("energy", TINY + "kset.xmin = -0.1\n", "kset.xmin is not read by a disk kset"),
        ("energy", TINY.replace("kset.kind = disk", "kset.kind = rectangle"),
         "kset.cx is not read by a rectangle kset")],
        ids=["min_weight-1", "min_weight-2.5", "disk-xmin", "rectangle-cx"])
    def test_key_that_would_mean_nothing_exits_2(self, tmp_path, capsys, cmd, text, err):
        # min_weight >= 1 would truncate every branch, and a kset key that the
        # kind does not read would be ignored
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main([cmd, "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        assert err in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-1e-10", "0", "nan", "1e-300"])
    def test_harmonic_tol_must_be_positive_and_finite(self, tmp_path, capsys, value):
        # rejected with the config, before the forward solve writes its trace
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, TINY + f"recon.harmonic_tol = {value}\n", output_dir=str(out))
        assert main(["roundtrip", "--config", cfg]) == 2
        assert "harmonic_tol must be finite and at least" in capsys.readouterr().err
        assert not (out / "trace.taws").exists()

    @pytest.mark.parametrize("trace", ["/nonexistent.taws", "a directory"])
    def test_unreadable_trace_exits_2(self, tmp_path, capsys, trace):
        trace = str(tmp_path) if trace == "a directory" else trace
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["reconstruct", "--config", cfg, "--trace", trace]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and trace in err

    def test_trace_with_an_infinite_dt_exits_2_when_read(self, tmp_path, capsys):
        # one detector, two samples, and a header dt of inf
        header = formats._TRACE_HEADER.pack(formats.TRACE_MAGIC, formats.FORMAT_VERSION,
                                            2, 1, float("inf"))
        trace = tmp_path / "inf.taws"
        trace.write_bytes(header + bytes(4 * 8))
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        assert main(["reconstruct", "--config", cfg, "--trace", str(trace)]) == 2
        assert "trace dt must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_commands_load_no_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        script = textwrap.dedent("""
            import sys
            from thermotomo.cli import build_parser, main
            for cmd in ("forward", "reconstruct", "roundtrip", "raytrace", "energy"):
                assert main([cmd, "--config", sys.argv[1]]) == 0, cmd
            assert main(["knorm", "--config", sys.argv[1], "--power-iters", "5"]) == 0
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
        """)
        done = subprocess.run([sys.executable, "-c", script, cfg], env=_child_env(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_cli_import_loads_no_process_pool(self):
        script = textwrap.dedent("""
            import sys
            import thermotomo.cli
            loaded = sorted(m for m in sys.modules
                            if m == "concurrent.futures.process" or m.split(".")[0] == "multiprocessing")
            assert not loaded, loaded
        """)
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_every_name_the_benchmark_wraps_resolves(self):
        # bench/op.py wraps names by getattr, cli.trace_branches and the lazily
        # imported rays.ProcessPoolExecutor among them; a missing one would
        # fail only when the benchmark runs
        script = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[2])
            import op
            from spans import Recorder
            from thermotomo import cli, rays
            op.instrument(Recorder(), sys.argv[1])
            for attr in op.SETUP_ENDS:
                assert hasattr(getattr(cli, attr), "__wrapped__"), attr
            if sys.argv[1] == "1":
                assert cli.trace_branches.__wrapped__ is rays.trace_branches
                assert rays.ProcessPoolExecutor.__wrapped__.__name__ == "ProcessPoolExecutor"
        """)
        for mode in ("0", "1", "setup"):
            done = subprocess.run([sys.executable, "-c", script, mode, str(ROOT / "bench")],
                                  env=_child_env(), capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, (mode, done.stderr)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_raytrace_non_finite_time_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY.replace("time.T = 1.2", f"time.T = {value}"))
        assert main(["raytrace", "--config", str(path)]) == 2
        assert "observation time T" in capsys.readouterr().err

    def test_raytrace_speed_with_an_infinite_square_exits_2(self, tmp_path, capsys):
        # rejected with the medium, not by the ray tracer's incidence check (exit 3)
        path = tmp_path / "bad.cfg"
        path.write_text(TINY.replace("layer.1.speed = 0.5", "layer.1.speed = 1e300"))
        assert main(["raytrace", "--config", str(path)]) == 2
        assert "must its square" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["raytrace", "energy"])
    def test_nan_layer_radius_exits_2(self, tmp_path, capsys, cmd):
        # a NaN disk used to drop out of the raster while its interface stayed: exit 0
        path = tmp_path / "bad.cfg"
        path.write_text(TINY + "layer.2.radius = nan\nlayer.2.speed = 0.7\n")
        assert main([cmd, "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        assert "disk radii must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e308", "-1e308"])
    @pytest.mark.parametrize("key", ["omega.xmin", "omega.xmax", "omega.ymin", "omega.ymax",
                                     "kset.xmin"])
    def test_bound_whose_node_index_overflows_exits_2(self, tmp_path, capsys, key, value):
        # (1e308 - origin) / h overflows to inf, and int() of it raised OverflowError
        path = tmp_path / "bad.cfg"
        path.write_text(_edited(TINY, **{**_square_kset(0.15), key: value}))
        assert main(["energy", "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "map to finite node indices" in err and "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["energy", "knorm", "reconstruct", "roundtrip"])
    def test_kset_near_an_interface_exits_2_and_writes_nothing(self, tmp_path, capsys, cmd):
        # kset.radius 0.47 comes within 2h of the interface at 0.5: every command
        # that builds the reconstruction problem rejects it before any file
        # (roundtrip used to write its trace first, energy to exit 0)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, TINY.replace("kset.radius = 0.2", "kset.radius = 0.47"),
                        output_dir=str(out))
        assert main([cmd, "--config", cfg]) == 2
        assert "kset comes within 2h of the interface" in capsys.readouterr().err
        assert not out.exists()

    def test_reconstruct_rejects_a_trace_on_another_time_grid(self, tmp_path, capsys):
        # a faster layer gives the same T a smaller dt and more steps; the
        # series used to write term 0's image and fail at term 1
        fast = tmp_path / "fast"
        cfg = write_cfg(tmp_path, TINY.replace("layer.1.speed = 0.5", "layer.1.speed = 1.5"),
                        output_dir=str(fast))
        assert main(["forward", "--config", cfg]) == 0
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, output_dir=str(out))
        assert main(["reconstruct", "--config", cfg, "--trace", str(fast / "trace.taws")]) == 2
        assert "trace is sampled at dt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, edits, code, err", [
        ("reconstruct", {}, 2, "cannot read"),     # no --trace, and none in the directory
        ("roundtrip", {"kset.radius": 0.47}, 2, "within 2h of the interface"),
        ("knorm", {"kset.radius": 0.47}, 2, "within 2h of the interface"),
        ("energy", {"kset.radius": 0.47}, 2, "within 2h of the interface"),
        ("forward", {"phantom.1.sigma": 0.1}, 2, "escapes the support region"),
        ("raytrace", {"rays.min_weight": 1.5}, 2, "min_weight below 1"),
        ("energy", {}, 0, ""),                     # energy writes no file
    ], ids=["reconstruct-no-trace", "roundtrip-near-interface", "knorm-near-interface",
            "energy-near-interface", "forward-bump-escapes-kset", "raytrace-min-weight",
            "energy-exits-0"])
    def test_a_run_that_writes_no_file_creates_no_directory(self, tmp_path, capsys,
                                                            cmd, edits, code, err):
        # the first file written creates the output directory, so a run
        # rejected before it writes, or one with nothing to write, leaves none
        out = tmp_path / "out"
        text = _edited(TINY, **edits)
        assert main([cmd, "--config", write_cfg(tmp_path, text, output_dir=str(out))]) == code
        assert err in capsys.readouterr().err
        assert not out.exists()

    def test_empty_output_dir_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, output_dir="")
        assert main(["forward", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: output path '' is not a directory\n"

    @pytest.mark.parametrize("cmd", ["forward", "reconstruct", "roundtrip", "raytrace",
                                     "knorm", "energy"])
    def test_output_path_below_a_file_exits_2(self, tmp_path, capsys, cmd):
        # the nearest existing ancestor of the output path is a file, so no
        # directory can be made there: rejected before any solve, not at the
        # first write
        out = tmp_path / "afile" / "sub"
        (tmp_path / "afile").write_text("")
        assert main([cmd, "--config", write_cfg(tmp_path, output_dir=str(out))]) == 2
        assert capsys.readouterr().err == f"error: output path {str(out)!r} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]

    @pytest.mark.parametrize("name", ["example1.cfg", "example2_skull.cfg"])
    def test_run_and_reconstruction_share_one_time_grid(self, name):
        # forward's trace and the series' check read T from the same RunConfig.T
        cfg = RunConfig.from_file(ROOT / "configs" / name)
        g = cfg.build_grid()
        m = cfg.build_medium(g)
        rcfg = cfg.recon_config(m, cfg.build_omega(g), cfg.build_kset(g))
        assert cfg.solver_config(m) == rcfg.solver_config()

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        # e.g. a long time.T asks forward for a trace of hundreds of GiB
        def too_big(args):
            raise MemoryError("Unable to allocate 413. GiB for an array")
        monkeypatch.setattr(cli, "cmd_forward", too_big)
        assert main(["forward", "--config", "unused.cfg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "413. GiB" in err

    def test_roundtrip_writes_reports(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["roundtrip", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "series:" in out
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert report[0] == "term,update_norm,err_hd,err_l2"
        assert len(report) == 4      # header + 3 terms
        rec = read_grid(tmp_path / "out" / "recon.tawg")
        assert rec.grid.nx == 161
        assert (tmp_path / "out" / "trace.taws").exists()
        assert (tmp_path / "out" / "recon.pgm").exists()
        for term in range(3):
            assert (tmp_path / "out" / f"recon_term_{term:02d}.pgm").exists()

    def test_constant_reconstruction_writes_pgm(self, tmp_path):
        # at T = 0.2 no wave reaches the detectors: the trace and every term are zero
        text = (ROOT / "configs" / "example1.cfg").read_text()
        path = tmp_path / "short.cfg"
        path.write_text(text.replace("time.T = 4.0", "time.T = 0.2"))
        out = tmp_path / "out"
        assert main(["roundtrip", "--config", str(path), "--output-dir", str(out)]) == 0
        assert not read_trace(out / "trace.taws").values.any()
        assert (out / "recon.pgm").exists() and (out / "recon_term_00.pgm").exists()

    def test_forward_then_reconstruct(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["forward", "--config", cfg]) == 0
        trace = read_trace(tmp_path / "out" / "trace.taws")
        assert trace.values.shape[1] > 0
        assert main(["reconstruct", "--config", cfg]) == 0
        assert (tmp_path / "out" / "report.csv").exists()

    def test_forward_of_a_phantom_that_rounds_to_zero(self, tmp_path):
        # a bump far narrower than h is zero at every node, and so is the wave
        text = TINY.replace("phantom.1.sigma = 0.05", "phantom.1.sigma = 0.0001")
        cfg = write_cfg(tmp_path, text, output_dir=str(tmp_path / "out"))
        assert main(["forward", "--config", cfg]) == 0
        for name in ("phantom.pgm", "field_T.pgm"):
            assert (tmp_path / "out" / name).read_bytes().endswith(bytes(2 * 161 * 161))

    def test_energy_prints_ratio(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["energy", "--config", cfg]) == 0
        out = capsys.readouterr().out
        ratio = float(out.strip().split("=")[1])
        assert 0.0 < ratio < 1.5

    def test_knorm_prints_contraction(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["knorm", "--config", cfg, "--power-iters", "5"]) == 0
        out = capsys.readouterr().out
        mu = float(out.strip().split("=")[1])
        assert 0.0 < mu < 1.0
        assert (tmp_path / "out" / "knorm.csv").exists()

    def test_raytrace_writes_visibility(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["raytrace", "--config", cfg]) == 0
        vis = (tmp_path / "out" / "visibility.csv").read_text().splitlines()
        assert vis[0] == "x,y,dx,dy,covered"
        assert len(vis) == 1 + 6 * 8
        # T = 1.2 is too short for the steep launches: some samples uncovered,
        # and the stdout tally must match the CSV flags
        n_covered = sum(int(r.rsplit(",", 1)[1]) for r in vis[1:])
        assert 0 < n_covered < 48
        out = capsys.readouterr().out
        assert f"({n_covered}/48 samples)" in out
        assert (tmp_path / "out" / "branches_0.txt").exists()

    def test_raytrace_flags_are_the_uncovered_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["raytrace", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "visibility.csv").read_text().splitlines()[1:]
        flagged = {tuple(r.split(",")[:4]) for r in rows if r.endswith(",0")}
        run = RunConfig.from_file(cfg)
        g = run.build_grid()
        _, uncovered = check_visibility(run.build_kset(g), run.build_medium(g),
                                        run.build_omega(g), run.values["time.T"],
                                        run.ray_sampling())
        assert uncovered
        assert flagged == {tuple(f"{v:.12g}" for v in (*x, *d)) for x, d in uncovered}

    def test_deterministic_outputs(self, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        cfg = write_cfg(tmp_path)
        assert main(["roundtrip", "--config", cfg, "--output-dir", str(out1)]) == 0
        assert main(["roundtrip", "--config", cfg, "--output-dir", str(out2)]) == 0
        for name in ("report.csv", "recon.tawg", "trace.taws", "recon.pgm"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- output files: every one written whole by one function, with open()'s mode --


def _run_every_command(tmp_path):
    """Each subcommand on TINY, into its own output directory: their paths."""
    cfg, trace, outs = write_cfg(tmp_path), str(tmp_path / "forward" / "trace.taws"), []
    for cmd, *flags in (["forward"], ["reconstruct", "--trace", trace], ["roundtrip"],
                        ["raytrace"], ["knorm", "--power-iters", "5"], ["energy"]):
        outs.append(tmp_path / cmd)
        assert main([cmd, "--config", cfg, "--output-dir", str(outs[-1]), *flags]) == 0
    return [out for out in outs if out.exists()]      # energy writes no file


def test_every_output_is_written_atomically(tmp_path, monkeypatch):
    written, atomic_write = [], formats._atomic_write

    def recorded(path, payload):
        written.append(os.path.abspath(path))
        atomic_write(path, payload)

    monkeypatch.setattr(formats, "_atomic_write", recorded)
    files = [str(p) for out in _run_every_command(tmp_path) for p in out.iterdir()]
    assert written and sorted(written) == sorted(files)


def test_every_output_gets_the_mode_of_open(tmp_path):
    old = os.umask(0o022)
    try:
        outs = _run_every_command(tmp_path)
    finally:
        os.umask(old)
    modes = {f"{out.name}/{p.name}": p.stat().st_mode & 0o777
             for out in outs for p in out.iterdir()}
    assert modes and all(mode == 0o644 for mode in modes.values()), modes


# -- input sweep: every int and float key at edge values exits 0 or 2 --------------

SWEEP_VALUES = {float: ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300"),
                int: ("0", "-1", "-5", "2")}
SWEEP_KEYS = {**_SCALAR_KEYS, **{f"{group}.1.{f}": float
                                 for group, fields in _GROUPS.items() for f in fields}}
SWEEP = [(key, value) for key, caster in SWEEP_KEYS.items()
         for value in SWEEP_VALUES.get(caster, ())]


def _fork_main(argv, log_path):
    """Start ``main(argv)`` in a forked child that prints to log_path; its pid."""
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            with open(log_path, "w") as log:
                os.dup2(log.fileno(), 1)
                os.dup2(log.fileno(), 2)
                sys.stdout = sys.stderr = log
                try:
                    code = main(argv)
                except BaseException:
                    traceback.print_exc()
                log.flush()
        finally:
            os._exit(code if isinstance(code, int) else 70)    # never back into pytest
    return pid


def _reap(pid, log_path):
    """A forked ``main``'s exit code and what it printed, once it has ended."""
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), Path(log_path).read_text()


def test_sweep_keys_are_config_keys():
    # a mangled numbered key would exit 2 as unknown and sweep nothing
    for key in SWEEP_KEYS:
        parse_config_text(f"{key} = 1\n")
    assert {"layer.1.speed", "phantom.1.sigma"} <= {key for key, _ in SWEEP}


@pytest.mark.parametrize("cmd", ["forward", "raytrace", "energy", "roundtrip"])
def test_input_sweep_exits_0_or_2(tmp_path, cmd):
    # the value replaces its key's line in TINY, or is added.  Two children run
    # at once, each with its own config file, output directory and log, and
    # they are reaped in the order they started
    running, failures = collections.deque(), []

    def reap():
        key, value, pid, log = running.popleft()
        code, printed = _reap(pid, log)
        if code not in (0, 2) or "Traceback" in printed:
            failures.append(f"{key} = {value}: exit {code}\n{printed}")

    try:
        for n, (key, value) in enumerate(SWEEP):
            if len(running) == 2:
                reap()
            slot = tmp_path / str(n % 2)    # the slot of the child just reaped
            slot.mkdir(exist_ok=True)
            path, log = slot / "sweep.cfg", slot / "log.txt"
            path.write_text(_edited(TINY, **{key: value}))
            argv = [cmd, "--config", str(path), "--output-dir", str(slot / "out")]
            running.append((key, value, _fork_main(argv, log), log))
    finally:
        while running:
            reap()
    assert not failures, "\n".join(failures)


# -- rerun table: the CLI runs on the example configs, in two fresh interpreters --

# (output directory, command, example config, key edits, flags, expected
# stdout); the rows run in order, so a reconstruct reads the roundtrip's trace
RERUNS = [
    ("raytrace-example1", "raytrace", "example1", {}, (), None),
    ("raytrace-skull", "raytrace", "example2_skull", {}, (), None),
    # a source disk of radius 0.4 reaches past the full-visibility radius
    # (c_brain / c_shell) * 0.5 = 0.25, so the sweep skips launches that the
    # ray parameter traps
    ("raytrace-skull-r0.4", "raytrace", "example2_skull", {"kset.radius": 0.4}, (), None),
    ("raytrace-square", "raytrace", "example1", _square_kset(0.2), (), None),
    # at T = 1 many samples of this disk find no exit on (x, d), so the
    # sweep's second pass grows their (x, -d) launches
    ("raytrace-off-centre", "raytrace", "example1",
     {"kset.cx": 0.6, "kset.radius": 0.3, "time.T": 1.0}, (),
     "visibility: NOT covered (6676/8192 samples)\n"),
    ("roundtrip-example1", "roundtrip", "example1", {}, (), None),
    ("reconstruct-example1", "reconstruct", "example1", {},
     ("--trace", "roundtrip-example1/trace.taws"), None),
    # the only run through the rectangle branch of the phantom's support
    # check: half-width 0.2 leaves bump 1 less than 3 sigma of room, and 0.3
    # comes within 2h of the interface at 0.5
    ("roundtrip-square", "roundtrip", "example1", _square_kset(0.25), ("--no-term-pgms",), None),
    ("roundtrip-skull", "roundtrip", "example2_skull", {}, ("--no-term-pgms",), None),
    ("reconstruct-skull", "reconstruct", "example2_skull", {},
     ("--trace", "roundtrip-skull/trace.taws", "--no-term-pgms"), None),
    ("forward-example1", "forward", "example1", {}, (), None),
    ("forward-skull", "forward", "example2_skull", {}, (), None),
    ("energy-example1", "energy", "example1", {}, (), None),
    ("knorm-example1", "knorm", "example1", {}, ("--power-iters", "5"), None),
]

# the files each command writes, besides a series' term PGMs
WRITES = {"forward": ("trace.taws", "phantom.tawg", "phantom.pgm", "field_T.pgm"),
          "reconstruct": ("recon.tawg", "recon.pgm", "report.csv"),
          "roundtrip": ("trace.taws", "recon.tawg", "recon.pgm", "report.csv"),
          "raytrace": ("visibility.csv", *(f"branches_{k}.txt" for k in range(4))),
          "knorm": ("knorm.csv",), "energy": ()}

_RUN_TABLE = """
import contextlib, io, json, sys
from thermotomo.cli import main
printed = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, name
    printed[name] = out.getvalue()
print(json.dumps(printed))
"""


def test_rerun_table_writes_the_same_bytes(tmp_path):
    # the table runs in two interpreters started together, with PYTHONHASHSEED
    # 0 and 1, where a RuntimeWarning (a floating-point overflow in a solve or
    # in the sweep) is an error; each row writes into its own directory, named
    # relative to the interpreter's own working directory
    runs = []
    for name, cmd, example, edits, flags, _ in RERUNS:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(_edited((ROOT / "configs" / f"{example}.cfg").read_text(), **edits))
        runs.append((name, [cmd, "--config", str(cfg), "--output-dir", name, *flags]))
    roots, children, printed = [tmp_path / "hashseed0", tmp_path / "hashseed1"], [], []
    try:
        for seed, root in enumerate(roots):
            root.mkdir()
            children.append(subprocess.Popen(
                [sys.executable, "-W", "error::RuntimeWarning", "-c", _RUN_TABLE,
                 json.dumps(runs)], cwd=root, env=_child_env(PYTHONHASHSEED=str(seed)),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        for child in children:
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            printed.append(json.loads(out))
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert printed[0] == printed[1]
    for name, *_, stdout in RERUNS:
        assert stdout is None or printed[0][name] == stdout, name
    files = [{p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}
             for root in roots]
    assert files[0].keys() == files[1].keys()
    assert [p for p in files[0] if files[0][p] != files[1][p]] == []
    for name, cmd, *_ in RERUNS:
        for written in WRITES[cmd]:
            assert files[0][f"{name}/{written}"], f"{name}/{written} is empty"
    # every sample within the full-visibility radius 0.25 of the centre is covered
    for name in ("raytrace-example1", "raytrace-skull", "raytrace-skull-r0.4"):
        rows = csv.DictReader(io.StringIO(files[0][f"{name}/visibility.csv"].decode()))
        inner = [r["covered"] for r in rows if math.hypot(float(r["x"]), float(r["y"])) < 0.25]
        assert inner and set(inner) == {"1"}, name
