"""Tests of the benchmark itself: tiny workloads end to end, the metric names, the checks.

Run from the root of the repository::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from thermotomo.formats import read_grid, write_grid  # noqa: E402
from workloads import WORKLOADS, SeriesEx1, TimerevBatch, VisibilitySkull  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_reports_exactly_the_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = run.declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_are_the_implemented_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "series_ex1", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def one_op(wl, out):
    os.makedirs(out)
    op = run.spawn(wl.argv(0, str(out)), "0", str(out))
    assert not op["failures"], op
    assert wl.check(0, str(out), op["record"]) == []
    return op["record"]


def test_series_checks_catch_a_changed_image_and_a_rising_error(tmp_path):
    wl = SeriesEx1(5, "tiny", str(tmp_path))
    record = one_op(wl, tmp_path / "op")
    recon = tmp_path / "op" / "recon.tawg"
    field = read_grid(recon)
    field.data[field.data.shape[0] // 2, field.data.shape[1] // 2] += 1e-12
    write_grid(recon, field)
    assert any("differs" in f for f in wl.check(1, str(tmp_path / "op"), record))

    report = tmp_path / "op" / "report.csv"
    lines = report.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = "0.9"
    report.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    failures = SeriesEx1(5, "tiny", str(tmp_path)).check(0, str(tmp_path / "op"), record)
    assert any("rose" in f for f in failures)


def test_timerev_checks_catch_a_nan_and_support_outside_kset(tmp_path):
    wl = TimerevBatch(5, "tiny", str(tmp_path))
    record = one_op(wl, tmp_path / "op")
    recon = tmp_path / "op" / "recon.tawg"
    good = read_grid(recon)

    bad = good.copy()
    i, j = np.argwhere(wl.kset.mask)[0]
    bad.data[i, j] = np.nan
    write_grid(recon, bad)
    assert wl.check(0, str(tmp_path / "op"), record) == ["image has non-finite values"]

    bad = good.copy()
    bad.data[0, 0] = 1.0
    write_grid(recon, bad)
    assert "image is nonzero outside kset" in wl.check(0, str(tmp_path / "op"), record)


def flip(csv_path, pick):
    """Toggle the covered flag of the first data row for which ``pick(x, y)`` holds."""
    lines = csv_path.read_text().splitlines()
    for k, line in enumerate(lines[1:], start=1):
        x, y, dx, dy, covered = line.split(",")
        if pick(float(x), float(y)):
            lines[k] = ",".join([x, y, dx, dy, "0" if covered == "1" else "1"])
            csv_path.write_text("\n".join(lines) + "\n")
            return (x, y, dx, dy)
    raise AssertionError("no row to flip")


def test_visibility_checks_catch_one_flipped_flag(tmp_path):
    wl = VisibilitySkull(5, "tiny", str(tmp_path))
    record = one_op(wl, tmp_path / "op")
    failures, _ = wl.finish()
    assert failures == []
    csv_path = tmp_path / "op" / "visibility.csv"
    pristine = csv_path.read_text()

    # a later run that disagrees with the first, inside the full-visibility radius
    flip(csv_path, lambda x, y: np.hypot(x, y) < VisibilitySkull.FULL_VISIBILITY)
    failures = wl.check(1, str(tmp_path / "op"), record)
    assert any("|x| <" in f for f in failures)
    assert any("differ" in f for f in failures)

    # a first run with one wrong flag anywhere, caught by the serial recomputation
    csv_path.write_text(pristine)
    flip(csv_path, lambda x, y: np.hypot(x, y) >= VisibilitySkull.FULL_VISIBILITY)
    wl = VisibilitySkull(5, "tiny", str(tmp_path))
    assert wl.check(0, str(tmp_path / "op"), record) == []
    wl.n_oracle = wl.n_samples
    failures, _ = wl.finish()
    assert len(failures) == 1 and "serial trace_branches" in failures[0]
