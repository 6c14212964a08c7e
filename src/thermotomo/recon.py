"""Time-reversal pseudo-inverse, error operator, and Neumann-series reconstruction.

The pseudo-inverse A_1 drives a backward solve with the measured trace h as
Dirichlet data and Cauchy data [phi, 0] at t = T, phi the harmonic extension
of h(T) on omega.  phi is a static solution of the linear scheme, harmonic at
the nodes of kset, which lie inside omega's interior, so Pi_K phi = 0: the
series projects the solve from rest with data h - h(T) and never factors omega.
Iterating in residual-update form evaluates the partial sums of the geometric
series; each term costs one forward and one backward solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .grid_field import (
    DEFAULT_HARMONIC_TOL,
    Region,
    ScalarField,
    WaveState,
    _check_harmonic_tol,
    _count,
    _one_grid,
    energy,
    harmonic_extension,
    hd_norm,
    l2_norm,
    project_HD,
)
from .medium import Medium
from .wave_solver import (BoundaryTrace, SolverConfig, _check_final_time, _check_trace_on,
                          forward, solve_backward)

SEED_SMOOTH_SIGMA = 3.0  # in units of h; keeps power-iteration seeds in the resolved band


@dataclass(frozen=True)
class ReconConfig:
    """The paper's problem (c, omega, K, T) and the series' stops, checked together once."""

    medium: Medium
    omega: Region
    kset: Region
    T: float
    m_max: int = 8
    tol_rel: float = 1e-4
    harmonic_tol: float = DEFAULT_HARMONIC_TOL

    def __post_init__(self):
        self.omega.box  # raises unless omega is a rectangle
        g = _one_grid(self.medium, self.omega, self.kset)
        _check_final_time(self.T)
        object.__setattr__(self, "m_max", _count(self.m_max, "m_max"))
        if not self.tol_rel >= 0:
            raise ConfigurationError(f"tol_rel must be non-negative, got {self.tol_rel}")
        _check_harmonic_tol(self.harmonic_tol)
        if (self.kset.mask & ~self.omega.interior_mask).any():
            raise ConfigurationError("kset must lie strictly inside omega")
        # kset keeps at least 2h clearance from every interface circle
        rr = np.hypot(*g.meshgrid())[self.kset.mask]
        for iface in self.medium.interfaces:
            if np.min(np.abs(rr - iface.radius)) < 2.0 * g.h:
                raise ConfigurationError(
                    f"kset comes within 2h of the interface at radius {iface.radius}")

    def solver_config(self) -> SolverConfig:
        return SolverConfig.for_time(self.medium, self.T)


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


def _check_trace(h: BoundaryTrace, cfg: ReconConfig):
    """The trace must sit on omega's detectors and cover cfg's T on cfg's solver time grid."""
    _check_trace_on(h, cfg.omega)
    _check_final_time(cfg.T, h.T, "trace")
    if h.n_steps != (scfg := cfg.solver_config()).n_steps:
        raise ConfigurationError(f"trace is sampled at dt = {h.dt:.6g} over {h.n_steps} steps, "
                                 f"the solver config at dt = {scfg.dt:.6g} over {scfg.n_steps}")


def time_reverse(h: BoundaryTrace, cfg: ReconConfig) -> WaveState:
    """Pseudo-inverse of the measurement: backward solve from [phi, 0] at t = T,
    where phi is the harmonic extension of the final trace snapshot."""
    _check_trace(h, cfg)
    phi = harmonic_extension(h.values[-1], cfg.omega, cfg.harmonic_tol)
    return solve_backward(h, WaveState(phi, ScalarField.zeros(phi.grid)), cfg.medium, cfg.omega)


def pseudo_inverse_step(h: BoundaryTrace, cfg: ReconConfig) -> ScalarField:
    """Pi_K A_1 h, one projected pseudo-inverse: Pi_K of the solve from rest with data h - h(T),
    as A_1's harmonic phi is static and Pi_K phi = 0 for kset inside omega's interior."""
    _check_trace(h, cfg)
    rest = BoundaryTrace(h.points, h.dt, h.values - h.values[-1])
    state = solve_backward(rest, WaveState.zeros(cfg.medium.grid), cfg.medium, cfg.omega)
    return project_HD(state.u, cfg.kset, cfg.harmonic_tol)


def apply_error_operator(f1: ScalarField, cfg: ReconConfig) -> ScalarField:
    """Error operator K: f - Pi_K A_1 Lambda_1 f, supported in kset with zero trace; Pi_K A_1
    starts from rest, exact as kset lies inside omega's interior (see pseudo_inverse_step)."""
    m, scfg = cfg.medium, cfg.solver_config()
    trace = forward(WaveState(f1, ScalarField.zeros(m.grid)), m, cfg.omega, cfg.T, scfg)
    rec = pseudo_inverse_step(trace, cfg)
    return project_HD(f1, cfg.kset, cfg.harmonic_tol) - rec


def _non_contraction(update_norms: list[float]) -> bool:
    """True when the update norm grew on 3 consecutive terms."""
    growing = 0
    for a, b in zip(update_norms, update_norms[1:]):
        growing = growing + 1 if b > a else 0
        if growing >= 3:
            return True
    return False


def neumann_series(h: BoundaryTrace, cfg: ReconConfig, truth: ScalarField | None = None,
                   on_term=None) -> tuple[ScalarField, ReconReport]:
    """Series reconstruction in residual-update form.

    Iterates f_{k+1} = f_k + Pi_K A_1 (h - Lambda_1 f_k), which evaluates the
    partial sums of the geometric series.  Stops at m_max terms or when the
    relative Dirichlet-norm update drops below tol_rel.  When the truth field
    is supplied, per-term Dirichlet and L2 errors over kset are reported.
    """
    m, scfg = cfg.medium, cfg.solver_config()
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

    f = pseudo_inverse_step(h, cfg)
    record(0, hd_norm(f, cfg.kset), f)
    if report.iterates[0].update_norm == 0.0:
        report.converged = True
        report.mu_hat = 0.0
        return f, report

    for k in range(1, cfg.m_max):
        residual = BoundaryTrace(h.points, h.dt, h.values - forward(
            WaveState(f, ScalarField.zeros(m.grid)), m, cfg.omega, cfg.T, scfg).values)
        update = pseudo_inverse_step(residual, cfg)
        f = f + update
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


def _gaussian(data: np.ndarray, sigma: float) -> np.ndarray:
    """scipy.ndimage.gaussian_filter(data, sigma), bit for bit, in numpy.

    Axis 0, then axis 1, is reflected at its ends and summed in scipy's order.
    """
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for _ in range(2):
        n = len(data)
        x = np.pad(data, ((r, r), (0, 0)), mode="symmetric")
        data = x[r:r + n] * w[r]
        for j in range(r, 0, -1):
            data += (x[r - j:r - j + n] + x[r + j:r + j + n]) * w[r - j]
        data = data.T
    return data


def _random_zero_trace_field(cfg: ReconConfig, seed: int) -> ScalarField:
    """Smoothed white noise on kset, projected to zero boundary trace.

    Raw per-node noise carries grid-scale modes whose discrete group velocity
    is near zero; those measure the stencil rather than the medium, so the
    seed is smoothed by a Gaussian of SEED_SMOOTH_SIGMA nodes before projection.
    """
    g = cfg.kset.grid
    rng = np.random.default_rng(seed)
    data = np.zeros(g.shape)
    data[cfg.kset.mask] = rng.standard_normal(int(cfg.kset.mask.sum()))
    data = _gaussian(data, SEED_SMOOTH_SIGMA)
    return project_HD(ScalarField(g, data), cfg.kset, cfg.harmonic_tol)


def estimate_contraction(cfg: ReconConfig, n_power_iters: int, seed: int = 0):
    """Power-iteration estimate of the error-operator norm in the Dirichlet norm.

    Returns the final ratio ||K f|| / ||f|| after n_power_iters applications
    starting from a seeded random zero-trace field.
    """
    n_power_iters, seed = _count(n_power_iters, "n_power_iters", 5), _count(seed, "seed", 0)
    f = _random_zero_trace_field(cfg, seed)
    norm = hd_norm(f, cfg.kset)
    if norm == 0.0:
        raise DegenerateInputError("random seed produced a zero-norm field")
    for _ in range(n_power_iters):
        f = apply_error_operator(f * (1.0 / norm), cfg)
        norm = hd_norm(f, cfg.kset)
        if norm == 0.0:
            return 0.0
    return float(norm)


def energy_decay_ratio(f1: ScalarField, cfg: ReconConfig) -> float:
    """E_Omega at t = T over E_Omega at t = 0 for thermoacoustic data [f1, 0]."""
    _one_grid(f1, cfg.kset)
    if ((f1.data != 0) & ~cfg.kset.mask).any():
        raise ConfigurationError("initial source must be supported in kset")
    state = WaveState(f1, ScalarField.zeros(f1.grid))
    e0 = energy(state, cfg.omega, cfg.medium)
    if e0 == 0.0:
        raise DegenerateInputError("initial data carries no energy")
    _, final = forward(state, cfg.medium, cfg.omega, cfg.T, cfg.solver_config(), return_final=True)
    return energy(final, cfg.omega, cfg.medium) / e0
