"""Command-line entry points tying the pipeline together.

Subcommands: forward, reconstruct, raytrace, knorm, energy, roundtrip.
Exit codes: 0 success, 2 configuration, file-format or file-system error (an
output path that is a file, or a run too large for memory, included), 3
numerical failure.  Given one config file and
seed, repeated runs produce identical output bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import RunConfig
from .errors import ConfigurationError, FormatError, NumericalError
from .formats import emit_pgm, read_trace, write_csv, write_grid, write_text, write_trace
from .grid_field import ScalarField, WaveState
from .rays import check_visibility, sample_directions, sample_positions, trace_branches
from .recon import energy_decay_ratio, estimate_contraction, neumann_series
from .wave_solver import forward

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load(args):
    cfg = RunConfig.from_file(args.config)
    grid = cfg.build_grid()
    medium = cfg.build_medium(grid)
    omega = cfg.build_omega(grid)
    kset = cfg.build_kset(grid)
    out_dir = args.output_dir or cfg.get("output.dir", "out")
    os.makedirs(out_dir, exist_ok=True)
    return cfg, grid, medium, omega, kset, out_dir


def _progress(args, label):
    if not args.verbose:
        return None
    def on_step(k, total):
        if k % 200 == 0 or k == total:
            print(f"{label}: step {k}/{total}", file=sys.stderr)
    return on_step


def cmd_forward(args) -> int:
    cfg, grid, medium, omega, kset, out = _load(args)
    phantom = cfg.build_phantom(grid, kset)
    scfg = cfg.solver_config(medium)
    trace, final = forward(WaveState(phantom, ScalarField.zeros(grid)), medium, omega,
                           cfg.values["time.T"], scfg, return_final=True,
                           on_step=_progress(args, "forward"))
    write_trace(os.path.join(out, "trace.taws"), trace)
    write_grid(os.path.join(out, "phantom.tawg"), phantom)
    emit_pgm(phantom, os.path.join(out, "phantom.pgm"))
    emit_pgm(final.u, os.path.join(out, "field_T.pgm"))
    print(f"wrote {out}/trace.taws ({trace.values.shape[0]} x {trace.values.shape[1]} samples)")
    return EXIT_OK


def _run_series(args, truth=None):
    cfg, grid, medium, omega, kset, out = _load(args)
    rcfg = cfg.recon_config(medium, omega, kset)   # a rejected problem writes nothing
    if truth == "phantom":
        truth_field = cfg.build_phantom(grid, kset)
        trace = forward(WaveState(truth_field, ScalarField.zeros(grid)), medium, omega,
                        rcfg.T, rcfg.solver_config(), on_step=_progress(args, "forward"))
        write_trace(os.path.join(out, "trace.taws"), trace)
    else:
        truth_field = None
        trace_path = args.trace or os.path.join(out, "trace.taws")
        trace = read_trace(trace_path)

    pgm_lo_hi = None

    def on_term(stats, f):
        nonlocal pgm_lo_hi
        if args.term_pgms:  # every term on the first term's range
            pgm_lo_hi = emit_pgm(f, os.path.join(out, f"recon_term_{stats.term:02d}.pgm"),
                                 pgm_lo_hi)
        if args.verbose:
            msg = f"term {stats.term}: update {stats.update_norm:.3e}"
            if stats.err_hd is not None:
                msg += f" err_hd {stats.err_hd:.3e}"
            print(msg, file=sys.stderr)

    recon, report = neumann_series(trace, rcfg, truth=truth_field, on_term=on_term)
    write_csv(os.path.join(out, "report.csv"),
              [("term", "update_norm", "err_hd", "err_l2"),
               *((t.term, *("" if v is None else f"{v:.12e}"
                            for v in (t.update_norm, t.err_hd, t.err_l2)))
                 for t in report.iterates)])
    write_grid(os.path.join(out, "recon.tawg"), recon)
    emit_pgm(recon, os.path.join(out, "recon.pgm"))
    terms = len(report.iterates)
    line = f"series: {terms} terms, converged={report.converged}"
    if report.mu_hat is not None:
        line += f", update ratio {report.mu_hat:.4f}"
    if truth_field is not None:
        line += f", final relative L2 error {report.iterates[-1].err_l2:.4f}"
    if report.non_contraction_warning:
        line += " [warning: update norms grew for 3 consecutive terms]"
    print(line)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    return _run_series(args, truth=None)


def cmd_roundtrip(args) -> int:
    return _run_series(args, truth="phantom")


def cmd_raytrace(args) -> int:
    cfg, grid, medium, omega, kset, out = _load(args)
    T = cfg.values["time.T"]
    sampling = cfg.ray_sampling()
    visible, uncovered = check_visibility(kset, medium, omega, T, sampling)
    positions = sample_positions(kset, sampling["n_pos"])
    directions = sample_directions(sampling["n_dir"])
    xs, ds = positions.tolist(), directions.tolist()
    x_text = [[f"{v:.12g}" for v in x] for x in xs]
    d_text = [[f"{v:.12g}" for v in d] for d in ds]
    lost = set(uncovered)
    write_csv(os.path.join(out, "visibility.csv"),
              [("x", "y", "dx", "dy", "covered"),
               *([*xt, *dt, int((tuple(x), tuple(d)) not in lost)]
                 for x, xt in zip(xs, x_text) for d, dt in zip(ds, d_text))])
    n_graphs = min(4, len(positions))
    for k in range(n_graphs):
        g = trace_branches(positions[k], directions[0], medium, omega, T, sampling["caps"])
        write_text(os.path.join(out, f"branches_{k}.txt"), g.to_text())
    total = len(positions) * len(directions)
    print(f"visibility: {'all covered' if visible else 'NOT covered'} "
          f"({total - len(uncovered)}/{total} samples)")
    return EXIT_OK


def cmd_knorm(args) -> int:
    cfg, grid, medium, omega, kset, out = _load(args)
    rcfg = cfg.recon_config(medium, omega, kset)
    seed = {"seed": cfg.values["seed"]} if "seed" in cfg.values else {}
    mu = estimate_contraction(rcfg, n_power_iters=args.power_iters, **seed)
    write_csv(os.path.join(out, "knorm.csv"),
              [("n_power_iters", "mu_hat"), (args.power_iters, f"{mu:.12e}")])
    print(f"mu_hat = {mu:.6f}")
    return EXIT_OK


def cmd_energy(args) -> int:
    cfg, grid, medium, omega, kset, out = _load(args)
    rcfg = cfg.recon_config(medium, omega, kset)
    phantom = cfg.build_phantom(grid, kset)
    ratio = energy_decay_ratio(phantom, rcfg)
    print(f"energy decay ratio = {ratio:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thermotomo",
                                description="time-reversal tomography pipeline")
    p.add_argument("--verbose", action="store_true", help="progress to stderr")
    sub = p.add_subparsers(dest="command", required=True)
    term_pgms = ("--term-pgms", {"action": argparse.BooleanOptionalAction, "default": True,
                                 "help": "write one PGM per series term"})
    for name, fn, text, *flags in (
            ("forward", cmd_forward, "phantom -> boundary trace + images"),
            ("reconstruct", cmd_reconstruct, "trace -> series reconstruction",
             ("--trace", {"default": None, "help": "input trace (default <out>/trace.taws)"}),
             term_pgms),
            ("roundtrip", cmd_roundtrip, "forward then reconstruct against the phantom",
             term_pgms),
            ("raytrace", cmd_raytrace, "branch graphs + visibility report"),
            ("knorm", cmd_knorm, "power-iteration contraction estimate",
             ("--power-iters", {"type": int, "default": 8})),
            ("energy", cmd_energy, "energy decay ratio of the phantom")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="run configuration file")
        sp.add_argument("--output-dir", default=None, help="override output.dir")
        for flag, options in flags:
            sp.add_argument(flag, **options)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigurationError, FormatError, OSError) as exc:
        # OSError: a file-system refusal, such as an output directory that is a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a grid, step count or trace too large for this machine is a config problem
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
