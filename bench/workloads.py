"""The benchmark's three workloads: seeded inputs, CLI arguments and output checks.

A workload writes its inputs (config files, and for ``timerev_batch`` the
traces) from the seed before any timing starts.  Each operation is one
thermotomo CLI process; ``check`` reads that operation's output files and
returns a list of failures, and ``finish`` runs the checks that need every
operation.  Checks run outside the timed regions.

The geometries copy ``configs/example1.cfg`` and ``configs/example2_skull.cfg``
so that the benchmark's inputs do not change when those examples do.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np

from thermotomo.config import RunConfig
from thermotomo.formats import read_grid, write_trace
from thermotomo.grid_field import ScalarField, WaveState, l2_norm, make_phantom
from thermotomo.rays import sample_directions, sample_positions, trace_branches
from thermotomo.wave_solver import forward

# (nx, origin, T) of the example1 box: the box pads omega = [-1, 1]^2 by c_max*T.
# "tiny" halves T so the box and the step count shrink; it exists for the
# benchmark's own tests.
EX1_BOX = {"full": (256, -5.1, 4.0), "tiny": (156, -3.1, 2.0)}

EX1_TEXT = """\
grid.nx = {nx}
grid.ny = {nx}
grid.h = 0.04
grid.ox = {o}
grid.oy = {o}
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
time.T = {T}
recon.m_max = {m_max}
recon.tol_rel = 1e-4
recon.harmonic_tol = 1e-12
seed = {seed}
"""

EX2_TEXT = """\
grid.nx = 384
grid.ny = 384
grid.h = 0.0386
grid.ox = -7.4
grid.oy = -7.4
layer.1.radius = 0.8
layer.1.speed = 2.0
layer.2.radius = 0.5
layer.2.speed = 1.0
omega.xmin = -1.0
omega.xmax = 1.0
omega.ymin = -1.0
omega.ymax = 1.0
kset.kind = disk
kset.cx = {cx!r}
kset.cy = {cy!r}
kset.radius = {radius}
time.T = 3.2
rays.n_pos = {n_pos}
rays.n_dir = {n_dir}
seed = {seed}
"""

EX1_KSET_RADIUS = 0.2

# Per-layer metrics that ``finish`` measures; a workload that does not
# exercise the layer reports 0.
FINISH_DEFAULTS = dict.fromkeys(
    ("recon.rel_l2", "rays.covered_frac", "rays.trace_branches.us_per_call",
     "rays.trace_branches.nodes_per_call", "rays.trace_branches.first_exit_frac"), 0.0)


def _bump_lines(bumps) -> str:
    lines = ["phantom.kind = sum_of_bumps"]
    for k, ((cx, cy), sigma) in enumerate(bumps, start=1):
        lines += [f"phantom.{k}.cx = {cx!r}", f"phantom.{k}.cy = {cy!r}",
                  f"phantom.{k}.sigma = {sigma!r}"]
    return "\n".join(lines) + "\n"


def _in_disk(rng, radius: float) -> tuple[float, float]:
    r = radius * math.sqrt(rng.random())
    th = 2.0 * math.pi * rng.random()
    return r * math.cos(th), r * math.sin(th)


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _span(record: dict, name: str) -> dict:
    return next(s for s in record["spans"] if s["name"] == name)


class SeriesEx1:
    """CLI ``roundtrip`` on the example1 geometry with seeded bump centres."""

    name = "series_ex1"
    # Each example1 bump sits within 0.014 of its 3-sigma support limit, so
    # centres move by at most h/8; wider jitter moves the term at which the
    # target is first met between 2 and 4 and the metric with it.
    JITTER = 0.005
    BUMPS = (((0.02, -0.03), 0.05), ((-0.07, 0.05), 0.035))
    TARGET_L2 = {"full": 0.03, "tiny": 0.2}
    M_MAX = {"full": 8, "tiny": 3}

    def __init__(self, seed: int, size: str, work: str):
        rng = np.random.default_rng(seed)
        bumps = []
        for (cx, cy), sigma in self.BUMPS:
            while True:
                dx, dy = _in_disk(rng, self.JITTER)
                centre = (cx + dx, cy + dy)
                if EX1_KSET_RADIUS - math.hypot(*centre) >= 3.0 * sigma:
                    break
            bumps.append((centre, sigma))
        nx, o, T = EX1_BOX[size]
        text = EX1_TEXT.format(nx=nx, o=o, T=T, m_max=self.M_MAX[size], seed=seed)
        self.config = _write(os.path.join(work, "series.cfg"), text + _bump_lines(bumps))
        self.target = self.TARGET_L2[size]
        self.first_recon = None

    def argv(self, i: int, out: str) -> list[str]:
        return ["roundtrip", "--config", self.config, "--output-dir", out]

    def _errors(self, out: str) -> list[float]:
        with open(os.path.join(out, "report.csv"), newline="") as fh:
            return [float(row["err_l2"]) for row in csv.DictReader(fh)]

    def check(self, i: int, out: str, record: dict) -> list[str]:
        errs = self._errors(out)
        self.final_l2 = errs[-1]
        failures = [f"rel_l2 rose from {a:.6g} to {b:.6g} at term {k + 1}"
                    for k, (a, b) in enumerate(zip(errs, errs[1:])) if b > a]
        if not any(e <= self.target for e in errs):
            failures.append(f"rel_l2 never reached {self.target} (last {errs[-1]:.6g})")
        with open(os.path.join(out, "recon.tawg"), "rb") as fh:
            recon = fh.read()
        if self.first_recon is None:
            self.first_recon = recon
        elif recon != self.first_recon:
            failures.append("recon.tawg differs from the first run of the same seed")
        return failures

    def stage(self, out: str, record: dict) -> tuple[float, float]:
        """Series start to the first term whose rel_l2 meets the target."""
        k = next(k for k, e in enumerate(self._errors(out)) if e <= self.target)
        return _span(record, "recon.neumann_series")["start"], record["marks"][k]["t"]

    def report(self, results: list[float]) -> dict:
        return {"time_to_l2_s": (float(np.median(results)), "s"),
                "rel_l2": (self.final_l2, "ratio")}

    def finish(self) -> tuple[list[str], dict]:
        return [], {**FINISH_DEFAULTS, "recon.rel_l2": self.final_l2}


class TimerevBatch:
    """CLI ``reconstruct --trace`` with one term: classical time reversal of seeded phantoms."""

    name = "timerev_batch"
    BATCH = {"full": 6, "tiny": 2}
    # Largest image rel_l2 at the commit that added the benchmark: 0.196 over
    # seeds 0-29 (full) and 0.413 over seeds 0-49 (tiny); the limits leave
    # about a quarter on top.
    REL_L2_MAX = {"full": 0.25, "tiny": 0.5}

    def __init__(self, seed: int, size: str, work: str):
        nx, o, T = EX1_BOX[size]
        text = EX1_TEXT.format(nx=nx, o=o, T=T, m_max=1, seed=seed)
        self.config = _write(os.path.join(work, "timerev.cfg"), text)
        cfg = RunConfig.from_text(text)
        grid = cfg.build_grid()
        medium = cfg.build_medium(grid)
        omega = cfg.build_omega(grid)
        self.kset = cfg.build_kset(grid)
        scfg = cfg.solver_config(medium)
        rng = np.random.default_rng(seed)
        self.phantoms, self.traces = [], []
        for k in range(self.BATCH[size]):
            bumps = []
            for _ in range(int(rng.integers(1, 3))):
                sigma = float(rng.uniform(0.03, 0.05))
                bumps.append((_in_disk(rng, EX1_KSET_RADIUS - 3.0 * sigma - 0.005), sigma))
            phantom = make_phantom("sum_of_bumps", {"bumps": bumps}, grid, self.kset)
            trace = forward(WaveState(phantom, ScalarField.zeros(grid)), medium, omega, T, scfg)
            path = os.path.join(work, f"trace_{k}.taws")
            write_trace(path, trace)
            self.phantoms.append(phantom)
            self.traces.append(path)
        self.rel_l2_max = self.REL_L2_MAX[size]
        self.rel_l2 = []

    def argv(self, i: int, out: str) -> list[str]:
        return ["reconstruct", "--config", self.config,
                "--trace", self.traces[i % len(self.traces)], "--output-dir", out]

    def check(self, i: int, out: str, record: dict) -> list[str]:
        image = read_grid(os.path.join(out, "recon.tawg"))
        if not np.all(np.isfinite(image.data)):
            return ["image has non-finite values"]
        failures = []
        if np.any(image.data[~self.kset.mask] != 0.0):
            failures.append("image is nonzero outside kset")
        truth = self.phantoms[i % len(self.phantoms)]
        err = l2_norm(image - truth, self.kset) / l2_norm(truth, self.kset)
        self.rel_l2.append(err)
        if not err <= self.rel_l2_max:
            failures.append(f"image rel_l2 {err:.6g} above {self.rel_l2_max}")
        return failures

    def stage(self, out: str, record: dict) -> tuple[float, float]:
        """One image: trace read to files written."""
        return _span(record, "formats.read")["start"], _span(record, "cli.main")["end"]

    def report(self, results: list[float]) -> dict:
        return {"images_per_s": (1.0 / float(np.median(results)), "1/s"),
                "rel_l2": (float(np.median(self.rel_l2)), "ratio")}

    def finish(self) -> tuple[list[str], dict]:
        return [], {**FINISH_DEFAULTS, "recon.rel_l2": float(np.median(self.rel_l2))}


class VisibilitySkull:
    """CLI ``raytrace`` on the example2 skull with a source disk beyond full visibility."""

    name = "visibility_skull"
    KSET_RADIUS = 0.4
    JITTER = 0.02            # kset centre, about h/2
    FULL_VISIBILITY = 0.25   # (c_brain / c_shell) * brain radius
    # 24 x 96 = 2304 samples is above the 2048 at which check_visibility
    # uses its process pool, so the pool path is the one measured.
    SAMPLING = {"full": (24, 96), "tiny": (6, 16)}
    ORACLE = {"full": 48, "tiny": 8}

    def __init__(self, seed: int, size: str, work: str):
        self.rng = np.random.default_rng(seed)
        cx, cy = _in_disk(self.rng, self.JITTER)
        n_pos, n_dir = self.SAMPLING[size]
        text = EX2_TEXT.format(cx=cx, cy=cy, radius=self.KSET_RADIUS,
                               n_pos=n_pos, n_dir=n_dir, seed=seed)
        self.config = _write(os.path.join(work, "visibility.cfg"), text)
        self.n_samples = n_pos * n_dir
        self.n_oracle = self.ORACLE[size]
        self.first_flags = None

    def argv(self, i: int, out: str) -> list[str]:
        return ["raytrace", "--config", self.config, "--output-dir", out]

    @staticmethod
    def read_flags(out: str) -> dict:
        with open(os.path.join(out, "visibility.csv"), newline="") as fh:
            return {(r["x"], r["y"], r["dx"], r["dy"]): r["covered"] == "1"
                    for r in csv.DictReader(fh)}

    def check(self, i: int, out: str, record: dict) -> list[str]:
        flags = self.read_flags(out)
        failures = []
        if len(flags) != self.n_samples:
            failures.append(f"{len(flags)} samples written, expected {self.n_samples}")
        hidden = [k for k, cov in flags.items()
                  if not cov and math.hypot(float(k[0]), float(k[1])) < self.FULL_VISIBILITY]
        if hidden:
            failures.append(f"{len(hidden)} samples with |x| < {self.FULL_VISIBILITY} uncovered")
        if self.first_flags is None:
            self.first_flags = flags
        elif flags != self.first_flags:
            failures.append("covered flags differ from the first run of the same seed")
        return failures

    def stage(self, out: str, record: dict) -> tuple[float, float]:
        """One check_visibility sweep."""
        s = _span(record, "rays.check_visibility")
        return s["start"], s["end"]

    def report(self, results: list[float]) -> dict:
        covered = sum(self.first_flags.values()) / len(self.first_flags)
        return {"samples_per_s": (self.n_samples / float(np.median(results)), "1/s"),
                "covered_frac": (covered, "ratio")}

    def finish(self) -> tuple[list[str], dict]:
        """Recompute a seeded subsample serially with trace_branches and compare."""
        cfg = RunConfig.from_file(self.config)
        grid = cfg.build_grid()
        medium = cfg.build_medium(grid)
        omega = cfg.build_omega(grid)
        kset = cfg.build_kset(grid)
        sampling = cfg.ray_sampling()
        positions = sample_positions(kset, sampling["n_pos"])
        directions = sample_directions(sampling["n_dir"])
        picks = self.rng.choice(len(positions) * len(directions), self.n_oracle, replace=False)
        failures, seconds, nodes, useful = [], 0.0, 0, []
        for p in sorted(int(p) for p in picks):
            x, d = positions[p // len(directions)], directions[p % len(directions)]
            t0 = time.perf_counter()
            graph = trace_branches(x, d, medium, omega, cfg.values["time.T"], sampling["caps"])
            seconds += time.perf_counter() - t0
            nodes += len(graph.nodes)
            first_exit = next((n.node_id for n in graph.nodes if n.kind == "exit"), None)
            useful.append(1.0 if first_exit is None else (first_exit + 1) / len(graph.nodes))
            key = tuple(f"{v:.12g}" for v in (*x, *d))
            if self.first_flags.get(key) != graph.has_clean_exit():
                failures.append(f"sample {key} covered={self.first_flags.get(key)}, "
                                f"serial trace_branches says {graph.has_clean_exit()}")
        covered = sum(self.first_flags.values()) / len(self.first_flags)
        return failures, {
            **FINISH_DEFAULTS,
            "rays.covered_frac": covered,
            "rays.trace_branches.us_per_call": 1e6 * seconds / self.n_oracle,
            "rays.trace_branches.nodes_per_call": nodes / self.n_oracle,
            "rays.trace_branches.first_exit_frac": float(np.mean(useful)),
        }


WORKLOADS = {w.name: w for w in (SeriesEx1, TimerevBatch, VisibilitySkull)}
