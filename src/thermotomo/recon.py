"""Time-reversal pseudo-inverse, error operator, and Neumann-series reconstruction.

The pseudo-inverse drives a backward solve with the measured trace as
Dirichlet data and Cauchy data at t = T given by the harmonic extension of
the final trace snapshot (zero velocity).  Projecting onto the source region
and iterating in residual-update form evaluates the partial sums of the
geometric series; each term costs one forward and one backward solve.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .grid_field import (
    DEFAULT_HARMONIC_TOL,
    Region,
    ScalarField,
    WaveState,
    energy,
    harmonic_extension,
    hd_norm,
    l2_norm,
    project_HD,
)
from .medium import Medium
from .wave_solver import BoundaryTrace, SolverConfig, forward, solve_backward

SEED_SMOOTH_SIGMA = 3.0  # in units of h; keeps power-iteration seeds in the resolved band


@dataclass
class ReconConfig:
    """Geometry and stopping parameters of a reconstruction run."""

    omega: Region
    kset: Region
    T: float
    m_max: int = 8
    tol_rel: float = 1e-4
    harmonic_tol: float = DEFAULT_HARMONIC_TOL

    def __post_init__(self):
        self.omega.box  # raises unless omega is a rectangle
        if self.omega.grid != self.kset.grid:
            raise ConfigurationError("omega and kset live on different grids")
        if not self.T > 0:
            raise ConfigurationError(f"final time must be positive, got {self.T}")
        if self.m_max < 1:
            raise ConfigurationError(f"m_max must be at least 1, got {self.m_max}")
        if not self.tol_rel >= 0:
            raise ConfigurationError(f"tol_rel must be non-negative, got {self.tol_rel}")
        # no float64 residual certifies a tolerance below machine epsilon
        if not np.finfo(float).eps <= self.harmonic_tol < math.inf:
            raise ConfigurationError(f"harmonic_tol must be finite and at least "
                                     f"{np.finfo(float).eps:.3g}, got {self.harmonic_tol}")
        if (self.kset.mask & ~self.omega.interior_mask).any():
            raise ConfigurationError("kset must lie strictly inside omega")

    def validate_against(self, m: Medium):
        """kset must keep at least 2h clearance from every interface circle."""
        if m.grid != self.omega.grid:
            raise ConfigurationError("medium and reconstruction geometry use different grids")
        h = m.grid.h
        ii, jj = np.nonzero(self.kset.mask)
        rr = np.hypot(m.grid.xs[ii], m.grid.ys[jj])
        for iface in m.interfaces:
            if np.min(np.abs(rr - iface.radius)) < 2.0 * h:
                raise ConfigurationError(
                    f"kset comes within 2h of the interface at radius {iface.radius}")

    def solver_config(self, m: Medium) -> SolverConfig:
        return SolverConfig.for_time(m, self.T)


@dataclass
class TermStats:
    """One series term: update norm plus, when truth is known, relative errors."""

    term: int
    update_norm: float
    err_hd: float | None = None     # Dirichlet-norm error over kset / truth norm
    err_l2: float | None = None     # L2 error over kset / truth norm


@dataclass
class ReconReport:
    """Per-term diagnostics of a series run."""

    iterates: list[TermStats] = field(default_factory=list)
    mu_hat: float | None = None
    converged: bool = False
    non_contraction_warning: bool = False

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["term", "update_norm", "err_hd", "err_l2"])
            for t in self.iterates:
                w.writerow([t.term, f"{t.update_norm:.12e}",
                            "" if t.err_hd is None else f"{t.err_hd:.12e}",
                            "" if t.err_l2 is None else f"{t.err_l2:.12e}"])


def time_reverse(h: BoundaryTrace, m: Medium, cfg: ReconConfig) -> WaveState:
    """Pseudo-inverse of the measurement: backward solve from [phi, 0] at t = T,
    where phi is the harmonic extension of the final trace snapshot."""
    if abs(h.T - cfg.T) > 1e-9 * max(cfg.T, 1.0):
        raise ConfigurationError(
            f"trace covers T = {h.T:.6g}, reconstruction expects {cfg.T:.6g}")
    phi = harmonic_extension(h.values[-1], cfg.omega, cfg.harmonic_tol)
    cauchy = WaveState(phi, ScalarField.zeros(m.grid))
    return solve_backward(h, cauchy, m, cfg.omega)


def project_onto_kset(s: ScalarField, cfg: ReconConfig) -> ScalarField:
    """Restrict to the source region and remove the harmonic part of its trace."""
    return project_HD(s, cfg.kset, cfg.harmonic_tol)


def pseudo_inverse_step(h: BoundaryTrace, m: Medium, cfg: ReconConfig) -> ScalarField:
    """One application of the projected pseudo-inverse: Pi_K A_1 h."""
    return project_onto_kset(time_reverse(h, m, cfg).u, cfg)


def apply_error_operator(f1: ScalarField, m: Medium, cfg: ReconConfig) -> ScalarField:
    """Error operator K: f - Pi_K A_1 Lambda_1 f, supported in kset with zero trace."""
    cfg.validate_against(m)
    scfg = cfg.solver_config(m)
    trace = forward(WaveState(f1, ScalarField.zeros(m.grid)), m, cfg.omega, cfg.T, scfg)
    rec = pseudo_inverse_step(trace, m, cfg)
    out = project_onto_kset(f1, cfg) - rec
    out.data[~cfg.kset.mask] = 0.0
    return out


def _non_contraction(update_norms: list[float]) -> bool:
    """True when the update norm grew on 3 consecutive terms."""
    growing = 0
    for a, b in zip(update_norms, update_norms[1:]):
        growing = growing + 1 if b > a else 0
        if growing >= 3:
            return True
    return False


def neumann_series(h: BoundaryTrace, m: Medium, cfg: ReconConfig,
                   truth: ScalarField | None = None,
                   on_term=None) -> tuple[ScalarField, ReconReport]:
    """Series reconstruction in residual-update form.

    Iterates f_{k+1} = f_k + Pi_K A_1 (h - Lambda_1 f_k), which evaluates the
    partial sums of the geometric series.  Stops at m_max terms or when the
    relative Dirichlet-norm update drops below tol_rel.  When the truth field
    is supplied, per-term Dirichlet and L2 errors over kset are reported.
    """
    cfg.validate_against(m)
    scfg = cfg.solver_config(m)
    report = ReconReport()
    if truth is not None:
        truth_hd = max(hd_norm(truth, cfg.kset), 1e-300)
        truth_l2 = max(l2_norm(truth, cfg.kset), 1e-300)

    def record(term, update_norm, f):
        stats = TermStats(term=term, update_norm=update_norm)
        if truth is not None:
            diff = f - truth
            stats.err_hd = hd_norm(diff, cfg.kset) / truth_hd
            stats.err_l2 = l2_norm(diff, cfg.kset) / truth_l2
        report.iterates.append(stats)
        if on_term is not None:
            on_term(stats, f)

    f = pseudo_inverse_step(h, m, cfg)
    record(0, hd_norm(f, cfg.kset), f)
    if report.iterates[0].update_norm == 0.0:
        report.converged = True
        report.mu_hat = 0.0
        return f, report

    for k in range(1, cfg.m_max):
        residual = h - forward(WaveState(f, ScalarField.zeros(m.grid)),
                               m, cfg.omega, cfg.T, scfg)
        update = pseudo_inverse_step(residual, m, cfg)
        f = f + update
        f.data[~cfg.kset.mask] = 0.0
        norm_update = hd_norm(update, cfg.kset)
        record(k, norm_update, f)
        base = hd_norm(f, cfg.kset)
        if base > 0 and norm_update / base < cfg.tol_rel:
            report.converged = True
            break

    norms = [t.update_norm for t in report.iterates]
    ratios = [b / a for a, b in zip(norms, norms[1:]) if a > 0 and b > 0]
    if ratios:
        report.mu_hat = float(np.exp(np.mean(np.log(ratios))))
    report.non_contraction_warning = _non_contraction(norms)
    return f, report


def _random_zero_trace_field(cfg: ReconConfig, seed: int) -> ScalarField:
    """Smoothed white noise on kset, projected to zero boundary trace.

    Raw per-node noise carries grid-scale modes whose discrete group velocity
    is near zero; those measure the stencil rather than the medium, so the
    seed is band-limited before projection.
    """
    g = cfg.kset.grid
    rng = np.random.default_rng(seed)
    data = np.zeros(g.shape)
    data[cfg.kset.mask] = rng.standard_normal(int(cfg.kset.mask.sum()))
    from scipy.ndimage import gaussian_filter  # so runs without a Gaussian load no scipy
    data = gaussian_filter(data, sigma=SEED_SMOOTH_SIGMA)
    data[~cfg.kset.mask] = 0.0
    return project_HD(ScalarField(g, data), cfg.kset, cfg.harmonic_tol)


def estimate_contraction(m: Medium, cfg: ReconConfig, n_power_iters: int,
                         seed: int = 0, *, return_field: bool = False):
    """Power-iteration estimate of the error-operator norm in the Dirichlet norm.

    Returns the final ratio ||K f|| / ||f|| after n_power_iters applications
    starting from a seeded random zero-trace field.  With ``return_field``
    also returns the final normalized iterate (the least-damped direction,
    useful as a worst-case source for energy diagnostics).
    """
    if n_power_iters < 5:
        raise ConfigurationError(f"need at least 5 power iterations, got {n_power_iters}")
    cfg.validate_against(m)
    f = _random_zero_trace_field(cfg, seed)
    norm = hd_norm(f, cfg.kset)
    if norm == 0.0:
        raise DegenerateInputError("random seed produced a zero-norm field")
    for _ in range(n_power_iters):
        f = apply_error_operator(f * (1.0 / norm), m, cfg)
        norm = hd_norm(f, cfg.kset)
        if norm == 0.0:
            return (0.0, f) if return_field else 0.0
    return (float(norm), f * (1.0 / norm)) if return_field else float(norm)


def energy_decay_ratio(f1: ScalarField, m: Medium, cfg: ReconConfig) -> float:
    """E_Omega at t = T over E_Omega at t = 0 for thermoacoustic data [f1, 0]."""
    if (np.abs(f1.data) > 0).any() and ((np.abs(f1.data) > 0) & ~cfg.kset.mask).any():
        raise ConfigurationError("initial source must be supported in kset")
    state = WaveState(f1, ScalarField.zeros(m.grid))
    e0 = energy(state, cfg.omega, m)
    if e0 == 0.0:
        raise DegenerateInputError("initial data carries no energy")
    _, final = forward(state, m, cfg.omega, cfg.T, cfg.solver_config(m), return_final=True)
    return energy(final, cfg.omega, m) / e0
