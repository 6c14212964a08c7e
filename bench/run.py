"""Benchmark of thermotomo's three user pipelines.

Usage, from the root of a checkout::

    python3 bench/run.py --workload series_ex1 --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and bench/README.md):

* ``series_ex1``: CLI ``roundtrip`` on the example1 geometry.
* ``timerev_batch``: CLI ``reconstruct --trace`` with one term on a batch of
  seeded phantoms whose traces are made during set-up.
* ``visibility_skull``: CLI ``raytrace`` on the example2 skull medium.

Every operation is one fresh CLI process (``bench/op.py``).  Operations run
one after another (a closed loop with one client) until the next one would
end after ``--seconds``; at least two run.  Each output is checked outside
the timed regions.  ``--trace 0`` reports the end-to-end metrics, medians
over the operations.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics, medians over the traced ones,
with ``trace.overhead_s`` the difference of the two medians of wall time.
The last line of standard output is one JSON object; the exit code is 1 when
a check failed and 2 when the checkout holds no thermotomo sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median

from op import SETUP_ENDS
from spans import ancestors, self_times

# Pinned before numpy loads, here and in every operation process: the only
# parallel work measured is the visibility pool, at two workers.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "THERMOTOMO_THREADS": "2"}
os.environ.update(PINNED_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_OPS = 2
# Set-up is measured at least this often per run: in every operation and,
# when fewer operations fit in the run, in processes stopped after set-up.
SETUP_SAMPLES = 9
OP_TIMEOUT_S = 120


def _kill_group(pgid: int):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(argv: list[str], mode: str, out: str) -> dict:
    """One fresh process running a CLI command under ``op.py``; waits for it and its workers."""
    record_path = os.path.join(out, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "op.py"), record_path, mode, "--", *argv]
    with open(os.path.join(out, "stdout.txt"), "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        # A blocking wait returns at exit; wait(timeout=) polls every 50 ms.
        watchdog = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t_spawn
    op = {"wall_s": wall, "exit_code": code, "failures": []}
    if code != 0:
        op["failures"].append(f"exit code {code}")
        return op
    with open(record_path) as fh:
        op["record"] = json.load(fh)
    starts = [s["start"] for s in op["record"]["spans"] if s["name"] in SETUP_ENDS.values()]
    op["setup_s"] = min(starts) - t_spawn
    return op


def run_op(wl, i: int, traced: bool, work: str) -> dict:
    """One operation: its process, its checks and its metrics."""
    out = os.path.join(work, f"op{i:04d}")
    os.makedirs(out)
    op = {"index": i, "traced": traced}
    try:
        op.update(spawn(wl.argv(i, out), "1" if traced else "0", out))
        if "record" in op:
            record = op["record"]
            op["failures"] = wl.check(i, out, record)
            op["stage"] = wl.stage(out, record)
            op["result_s"] = op["stage"][1] - op["stage"][0]
            op["peak_rss_mb"] = (record["rss_kib"] + record["rss_children_kib"]) / 1024.0
    except Exception as exc:  # a broken output fails this operation, not the run
        op.setdefault("failures", []).append(f"unreadable output: {exc!r}")
        op.pop("record", None)
    shutil.rmtree(out)
    return op


def run_ops(wl, seconds: float, trace: bool, work: str) -> list[dict]:
    ops = []
    t_start = time.monotonic()
    while len(ops) < MIN_OPS or (
            time.monotonic() - t_start + median(op["wall_s"] for op in ops) <= seconds):
        ops.append(run_op(wl, len(ops), trace and len(ops) % 2 == 1, work))
    return ops


def setup_probes(wl, n: int, work: str) -> list[float]:
    """Set-up times of ``n`` processes stopped at their first solver, reader or tracer call."""
    times = []
    for k in range(n):
        out = os.path.join(work, f"setup{k:02d}")
        os.makedirs(out)
        probe = spawn(wl.argv(0, out), "setup", out)
        shutil.rmtree(out)
        if probe["failures"]:
            raise RuntimeError(f"set-up probe failed: {probe['failures']}")
        times.append(probe["setup_s"])
    return times


def end_to_end(ops: list[dict], probes: list[float]) -> dict:
    m = {name: median(op[name] for op in ops) for name in ("wall_s", "peak_rss_mb", "result_s")}
    m["setup_s"] = median([op["setup_s"] for op in ops] + probes)
    return m


def layer_metrics(op: dict) -> dict:
    """Per-layer counts and times of one traced operation."""
    spans = op["record"]["spans"]
    own = self_times(spans)
    m = {}

    def named(name):
        return [(k, s) for k, s in enumerate(spans) if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for _, s in named(name))

    def total(name, key):
        return sum(s["counts"].get(key, 0) for _, s in named(name))

    for solver in ("wave_solver.forward", "wave_solver.solve_backward"):
        steps = total(solver, "node_steps")
        m[f"{solver}.calls"] = len(named(solver))
        m[f"{solver}.busy_s"] = busy(solver)
        m[f"{solver}.node_steps"] = steps
        m[f"{solver}.ns_per_node_step"] = 1e9 * busy(solver) / steps if steps else 0.0
        m[f"{solver}.bytes_per_node_step"] = max(
            (s["counts"]["bytes_per_node_step"] for _, s in named(solver)), default=0)
    harmonic = named("grid_field.harmonic_extension")
    m["grid_field.harmonic_extension.calls"] = len(harmonic)
    m["grid_field.harmonic_extension.busy_s"] = busy("grid_field.harmonic_extension")
    m["grid_field.harmonic_extension.first_call_s"] = (
        harmonic[0][1]["end"] - harmonic[0][1]["start"] if harmonic else 0.0)
    m["grid_field.project_HD.calls"] = len(named("grid_field.project_HD"))
    m["grid_field.project_HD.self_s"] = sum(own[k] for k, _ in named("grid_field.project_HD"))
    terms = len(op["record"]["marks"])
    m["recon.neumann_series.terms"] = terms
    m["recon.neumann_series.self_s"] = sum(own[k] for k, _ in named("recon.neumann_series"))
    in_series = sum(1 for k, s in enumerate(spans)
                    if s["name"] in ("wave_solver.forward", "wave_solver.solve_backward")
                    and "recon.neumann_series" in ancestors(spans, k))
    m["recon.solves_per_term"] = in_series / terms if terms else 0.0
    visibility = named("rays.check_visibility")
    m["rays.check_visibility.busy_s"] = busy("rays.check_visibility")
    m["rays.check_visibility.samples"] = total("rays.check_visibility", "samples")
    m["rays.check_visibility.workers"] = max(
        (s["counts"]["workers"] for _, s in named("rays.pool")), default=1 if visibility else 0)
    for layer in ("formats.write", "formats.read"):
        m[f"{layer}.calls"] = len(named(layer))
        m[f"{layer}.bytes"] = total(layer, "bytes")
        m[f"{layer}.busy_s"] = busy(layer)
    m["config.load.busy_s"] = busy("config.load")
    m["medium.build_medium.busy_s"] = busy("medium.build_medium")
    m["cli.import_s"] = op["record"]["import_s"]
    m["cli.self_s"] = sum(own[k] for k, _ in named("cli.main"))
    return m


def shares(op: dict) -> tuple[dict, dict]:
    """Self time per layer as a share of the operation's wall time and of its timed stage."""
    spans = op["record"]["spans"]
    own = self_times(spans)
    t0, t1 = op["stage"]
    of_wall, of_stage = {}, {}
    for k, s in enumerate(spans):
        of_wall[s["name"]] = of_wall.get(s["name"], 0.0) + own[k] / op["wall_s"]
        if s["name"] != "cli.main" and s["start"] >= t0 and s["end"] <= t1:
            of_stage[s["name"]] = of_stage.get(s["name"], 0.0) + own[k] / (t1 - t0)
    of_wall["cli.import"] = op["record"]["import_s"] / op["wall_s"]
    of_wall["(interpreter start, exit)"] = 1.0 - sum(of_wall.values())
    of_stage["(glue inside the stage)"] = 1.0 - sum(of_stage.values())
    return of_wall, of_stage


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        **{k: os.environ.get(k) for k in ("THERMOTOMO_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("series_ex1", "timerev_batch", "visibility_skull"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thermotomo", "__init__.py")):
        print(f"no thermotomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    work = os.path.join(OUT, "work", f"{args.workload}-{args.size}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[args.workload](args.seed, args.size, work)
    ops = run_ops(wl, args.seconds, bool(args.trace), work)
    extra = {}
    if not all(op["failures"] for op in ops):
        try:
            failures, extra = wl.finish()
        except Exception as exc:  # a broken output fails the run, which still reports
            failures = [f"whole-run check raised {exc!r}"]
        ops[0]["failures"] += failures
    failed = sum(1 for op in ops if op["failures"])
    for op in ops:
        for f in op["failures"]:
            print(f"FAILED op {op['index']}: {f}")

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print("environment " + json.dumps(env))
    print(f"operations: {len(ops)} attempted, {failed} failed "
          f"(failed_frac {failed / len(ops):.4f} ratio)")
    metrics = {}
    untraced = [op for op in ops if not op["traced"] and not op["failures"]]
    traced = [op for op in ops if op["traced"] and not op["failures"]]
    if untraced and (traced or not args.trace):
        if args.trace:
            per_op = [layer_metrics(op) for op in traced]
            metrics = {k: median(m[k] for m in per_op) for k in per_op[0]}
            metrics.update(extra)
            metrics["trace.overhead_s"] = (median(op["wall_s"] for op in traced)
                                           - median(op["wall_s"] for op in untraced))
            wall_share, stage_share = zip(*(shares(op) for op in traced))
            for title, rows in (("op wall", wall_share), ("timed stage", stage_share)):
                print(f"share of {title} per layer (self time, median of {len(rows)} ops):")
                for name in sorted(rows[0], key=lambda n: -rows[0][n]):
                    print(f"  {name:34s} {100 * median(r.get(name, 0.0) for r in rows):6.2f} %")
        else:
            probes = setup_probes(wl, max(0, SETUP_SAMPLES - len(untraced)), work)
            metrics = end_to_end(untraced, probes)
            for name, (value, unit) in wl.report([op["result_s"] for op in untraced]).items():
                print(f"  {name:34s} {value:.6g} {unit}")
    units = declared("per_layer" if args.trace else "end_to_end")
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as fh:
        json.dump({"seed": args.seed, "environment": env, "result": result,
                   "ops": [{k: v for k, v in op.items() if k != "record"} for op in ops],
                   "spans": {op["index"]: op["record"]["spans"] for op in ops
                             if op["traced"] and "record" in op}}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
