"""Run one thermotomo CLI command as a fresh process, with spans around its layers.

Usage::

    python3 bench/op.py RECORD.json MODE -- <thermotomo CLI arguments>

MODE 0 wraps only the calls that bound set-up and the timed stage (the
first solver, reader or tracer call, and each series term).  MODE 1 also
wraps every layer the per-layer metrics name.  MODE setup stops the command
at its first solver, reader or tracer call, so that set-up can be measured
more often than the whole command runs.  At exit the process writes
RECORD.json with the import time, the spans, the series-term marks and the
peak RSS of itself and of its pool workers, then exits with the CLI's code.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder  # noqa: E402


# The calls that end set-up: a solver, the trace reader or the ray tracer.
SETUP_ENDS = {"forward": "wave_solver.forward", "read_trace": "formats.read",
              "neumann_series": "recon.neumann_series",
              "check_visibility": "rays.check_visibility"}


class SetupDone(Exception):
    """Raised by the first call after set-up in MODE setup."""


def _end_setup(*args, **kwargs):
    raise SetupDone


def _forward_counts(a, result):
    g = a["f"].grid
    return {"node_steps": g.nx * g.ny * a["cfg"].n_steps,
            # prev, curr and next levels plus c^2, per node (computed, not measured)
            "bytes_per_node_step": 3 * a["f"].u.data.itemsize + a["m"].c_sq.itemsize}


def _backward_counts(a, result):
    p = a["omega"].params
    interior = (p["i1"] - p["i0"] - 1) * (p["j1"] - p["j0"] - 1)
    return {"node_steps": interior * a["boundary"].n_steps,
            "bytes_per_node_step": 3 * a["cauchy_at_T"].u.data.itemsize + a["m"].c_sq.itemsize}


def _file_counts(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _visibility_counts(a, result):
    sampling = a["sampling"]
    return {"samples": sampling["n_pos"] * sampling["n_dir"], "uncovered": len(result[1])}


def _mark_terms(rec: Recorder, owner):
    """Mark each finished series term before the CLI's own on_term runs."""
    fn = owner.neumann_series

    @functools.wraps(fn)
    def neumann_series(*args, on_term=None, **kwargs):
        def marked(stats, f):
            rec.mark(term=stats.term, err_l2=stats.err_l2)
            if on_term is not None:
                on_term(stats, f)
        return fn(*args, on_term=marked, **kwargs)

    owner.neumann_series = neumann_series


def instrument(rec: Recorder, mode: str):
    from thermotomo import cli, config, grid_field, rays, recon

    traced = mode == "1"
    if mode == "setup":
        for attr in SETUP_ENDS:
            setattr(cli, attr, _end_setup)
    else:
        _mark_terms(rec, cli)
    counts = {"forward": _forward_counts, "read_trace": _file_counts,
              "check_visibility": _visibility_counts}
    for attr, name in SETUP_ENDS.items():
        rec.wrap(cli, attr, name, counts.get(attr) if traced else None)
    if not traced:
        return
    rec.wrap(recon, "forward", "wave_solver.forward", _forward_counts)
    rec.wrap(recon, "solve_backward", "wave_solver.solve_backward", _backward_counts)
    rec.wrap(recon, "harmonic_extension", "grid_field.harmonic_extension")
    rec.wrap(grid_field, "harmonic_extension", "grid_field.harmonic_extension")
    rec.wrap(recon, "project_HD", "grid_field.project_HD")
    for writer in ("write_trace", "write_grid", "emit_pgm"):
        rec.wrap(cli, writer, "formats.write", _file_counts)
    rec.wrap(config.RunConfig, "from_file", "config.load")
    rec.wrap(config, "build_medium", "medium.build_medium")
    rec.wrap(cli, "trace_branches", "rays.trace_branches")
    rec.wrap(rays, "ProcessPoolExecutor", "rays.pool",
             lambda a, pool: {"workers": a["max_workers"]})


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("0", "1", "setup"):
        print(__doc__, file=sys.stderr)
        return 2
    record_path, mode, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.monotonic()
    from thermotomo import cli
    import_s = time.monotonic() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"thermotomo was imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    rec = Recorder()
    instrument(rec, mode)
    try:
        code = rec.call("cli.main", cli.main, (cli_args,), {})
    except SetupDone:
        code = 0
    record = {
        "import_s": import_s,
        "exit_code": code,
        "spans": rec.spans,
        "marks": rec.marks,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
