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

``--against DIR`` compares this checkout with another one, say of the parent
commit::

    python3 scripts/bench_record.py --pr N --seeds 10 --seconds 12 --against ../parent

Seed by seed, it runs DIR's own ``bench/run.py`` (in DIR) next to this
checkout's, this checkout first on the first seed and second on the next
(A,B then B,A, and so on).  Each workload then also holds ``against``, DIR's
runs in the same layout as this checkout's, and ``pairs``: per metric, on how
many of the seeds this checkout's value is better (lower or higher, as
``BENCHMARK.json`` declares), out of the seeds where both sides have it.
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


def _git(root: str, *args) -> str | None:
    """git's output in the checkout at root, or None outside a git work tree."""
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def revision(root: str) -> dict:
    """The git revision of the checkout at root and whether its tracked files differ from it."""
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"git_revision": _git(root, "rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status)}


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        **revision(ROOT),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and count of one metric's run values."""
    q25, median, q75 = (statistics.quantiles(values, n=4, method="inclusive")
                        if len(values) > 1 else values * 3)
    return {"median": median, "q25": q25, "q75": q75, "runs": len(values),
            "values": values}


def run_once(workload: str, seed: int, seconds: float, size: str, root: str = ROOT) -> dict:
    """The result object that one run of root's ``bench/run.py`` prints last."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {done.returncode} without a "
                         f"result:\n{done.stdout}{done.stderr}")


def side(results: list[dict], names: list[str], missing: list[str], label: str) -> dict:
    """One checkout's runs of one workload: operations and each metric's summary;
    a metric no run reports is added to ``missing`` under ``label``."""
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if values:
            metrics[name] = summary(values)
        else:
            missing.append(f"{label}.{name}")
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": metrics}


def pairs_won(ours: list[dict], theirs: list[dict], better: dict) -> dict:
    """Per metric, on how many seeds our value beats theirs (``better`` maps each
    metric to lower or higher), out of the seeds on which both runs report it."""
    pairs = {}
    for name, direction in better.items():
        both = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                for a, b in zip(ours, theirs) if name in a["metrics"] and name in b["metrics"]]
        sign = 1.0 if direction == "lower" else -1.0
        pairs[name] = {"won": sum(sign * (b - a) > 0 for a, b in both), "pairs": len(both)}
    return pairs


def describe(entry: dict, name: str) -> str:
    """One metric's median, with the other checkout's and the pairs won when it has one."""
    text = f"{name} {entry['metrics'][name]['median']:.4g}"
    if name in entry.get("against", {}).get("metrics", {}):
        pairs = entry["pairs"][name]
        text += (f" vs {entry['against']['metrics'][name]['median']:.4g}"
                 f" (won {pairs['won']}/{pairs['pairs']})")
    return text


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    p.add_argument("--seeds", type=int, default=5, help="seeds 1..N per workload")
    p.add_argument("--seconds", type=float, default=10.0, help="length of each run")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", default=None, help="output path (default <root>/BENCH_<pr>.json)")
    p.add_argument("--against", default=None, metavar="DIR",
                   help="another checkout whose bench/run.py runs alternately with this one's")
    args = p.parse_args(argv)
    if args.against and not os.path.isfile(os.path.join(args.against, "bench", "run.py")):
        p.error(f"--against {args.against} holds no bench/run.py")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [m["name"] for m in declared["end_to_end"]]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    env = environment()     # before the runs, whose outputs are untracked
    against = ({"path": os.path.abspath(args.against), **revision(args.against)}
               if args.against else None)
    workloads, missing = {}, []
    for wl in (w["name"] for w in declared["workloads"]):
        ours, theirs = [], []
        for i, seed in enumerate(seeds):
            order = [(ROOT, ours)] + ([(args.against, theirs)] if args.against else [])
            for root, results in (order if i % 2 == 0 else order[::-1]):
                results.append(run_once(wl, seed, args.seconds, args.size, root))
        entry = workloads[wl] = side(ours, names, missing, wl)
        if args.against:
            entry["against"] = side(theirs, names, missing, f"{wl}.against")
            entry["pairs"] = pairs_won(ours, theirs, better)
        print(f"{wl}: " + ", ".join(describe(entry, name) for name in entry["metrics"]))
    record = {"pr": args.pr, "seeds": seeds,
              "seconds": args.seconds, "size": args.size, "environment": env,
              "against": against,
              "units": {m["name"]: m["unit"] for m in declared["end_to_end"]},
              "workloads": workloads}
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    failed = sum(w["failed"] + w.get("against", {}).get("failed", 0) for w in workloads.values())
    if missing or failed:
        print(f"incomplete: missing {missing}, {failed} failed operations", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
