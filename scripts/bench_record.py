"""Record the benchmark's end-to-end metrics over several seeds in one BENCH file.

Usage, from the root of a checkout::

    python3 scripts/bench_record.py --pr N --seeds 5 --seconds 10

For every workload of ``BENCHMARK.json`` and every seed 1..N it runs
``python3 bench/run.py --workload W --seed S --seconds X --trace 0`` as a
subprocess and parses the last line of its standard output, one JSON object.
It writes ``BENCH_<pr>.json``: per workload, the median, q25, q75 and run
count of each end-to-end metric over the seeds (each run's value is already
the median of its operations), and the operations attempted and failed; with
nproc, the numpy and scipy versions, the git revision and its dirty flag, and
whether bytecode writing was off for the runs (``PYTHONDONTWRITEBYTECODE``).
It exits 1, after writing the file, when a workload lacks a metric or an
operation failed.  Standard library only; nothing from ``bench/`` is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args) -> str | None:
    """git's output in this checkout, or None outside a git work tree."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and count of one metric's run values."""
    q25, median, q75 = (statistics.quantiles(values, n=4, method="inclusive")
                        if len(values) > 1 else values * 3)
    return {"median": median, "q25": q25, "q75": q75, "runs": len(values),
            "values": values}


def run_once(workload: str, seed: int, seconds: float, size: str) -> dict:
    """The result object that one ``bench/run.py`` run prints last."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode} without a result:\n"
                         f"{done.stdout}{done.stderr}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    p.add_argument("--seeds", type=int, default=5, help="seeds 1..N per workload")
    p.add_argument("--seconds", type=float, default=10.0, help="length of each run")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", default=None, help="output path (default <root>/BENCH_<pr>.json)")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [m["name"] for m in declared["end_to_end"]]
    env = environment()     # before the runs, whose outputs are untracked
    workloads, missing = {}, []
    for wl in (w["name"] for w in declared["workloads"]):
        results = [run_once(wl, seed, args.seconds, args.size)
                   for seed in range(1, args.seeds + 1)]
        metrics = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if values:
                metrics[name] = summary(values)
            else:
                missing.append(f"{wl}.{name}")
        workloads[wl] = {"attempted": sum(r["attempted"] for r in results),
                         "failed": sum(r["failed"] for r in results), "metrics": metrics}
        print(f"{wl}: " + ", ".join(f"{n} {m['median']:.4g}" for n, m in metrics.items()))
    record = {"pr": args.pr, "seeds": list(range(1, args.seeds + 1)),
              "seconds": args.seconds, "size": args.size, "environment": env,
              "units": {m["name"]: m["unit"] for m in declared["end_to_end"]},
              "workloads": workloads}
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    failed = sum(w["failed"] for w in workloads.values())
    if missing or failed:
        print(f"incomplete: missing {missing}, {failed} failed operations", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
