"""The two rules every computation shares: one grid and one final time.

Each public entry point that combines grid objects is fed one object on
another grid, and each solve a final time that is not positive and finite or
that its config or trace does not cover; every one raises the rule's one
ConfigurationError before it indexes or steps anything.  A solver config or a
trace is built only with a time step that is positive and finite.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from thermotomo.errors import ConfigurationError
from thermotomo.grid_field import (
    Grid,
    Region,
    ScalarField,
    WaveState,
    dirichlet_energy,
    energy,
    hd_norm,
    l2_norm,
    make_phantom,
    project_HD,
)
from thermotomo.medium import uniform_medium
from thermotomo.recon import (
    ReconConfig,
    apply_error_operator,
    energy_decay_ratio,
    neumann_series,
    time_reverse,
)
from thermotomo.wave_solver import BoundaryTrace, SolverConfig, evolve, forward, solve_backward

T = 0.5
GRIDS = {
    "base": Grid(65, 65, 0.05, (-1.6, -1.6)),
    "half_spacing": Grid(65, 65, 0.025, (-0.8, -0.8)),    # same shape, half the spacing
    "33x33": Grid(33, 33, 0.05, (-0.8, -0.8)),
}
GRID_ERROR = "inputs live on different grids"
TIME_ERROR = "final time must be positive and finite"


def _objects(g: Grid) -> SimpleNamespace:
    """One of each grid object on g, from the same physical geometry."""
    m = uniform_medium(g)
    omega = Region.rectangle_from_physical(g, -0.5, 0.5, -0.5, 0.5)
    kset = Region.disk(g, (0.0, 0.0), 0.2)
    s = make_phantom("gaussian_bump", {"center": (0.0, 0.0), "sigma": 0.05}, g, kset)
    w = WaveState(s, ScalarField.zeros(g))
    scfg = SolverConfig.for_time(m, T)
    trace = BoundaryTrace(omega.boundary_coords, scfg.dt,
                          np.zeros((scfg.n_steps + 1, omega.boundary_nodes[0].size)))
    return SimpleNamespace(g=g, m=m, omega=omega, kset=kset, s=s, w=w, scfg=scfg,
                           trace=trace, rcfg=ReconConfig(m, omega, kset, T))


OBJECTS = {name: _objects(g) for name, g in GRIDS.items()}

# each row combines the base objects b with one object o on another grid
GRID_ROWS = {
    "field_add": lambda b, o: b.s + o.s,
    "field_sub": lambda b, o: b.s - o.s,
    "wave_state": lambda b, o: WaveState(b.s, o.s),
    "boundary_values": lambda b, o: b.omega.boundary_values(o.s),
    "dirichlet_energy": lambda b, o: dirichlet_energy(o.s, b.kset),
    "hd_norm": lambda b, o: hd_norm(b.s, o.kset),
    "l2_norm": lambda b, o: l2_norm(b.s, o.kset),
    "energy_state": lambda b, o: energy(o.w, b.omega, b.m),
    "energy_region": lambda b, o: energy(b.w, o.omega, b.m),
    "project_HD": lambda b, o: project_HD(o.s, b.kset),
    "make_phantom": lambda b, o: make_phantom(
        "gaussian_bump", {"center": (0.0, 0.0), "sigma": 0.05}, o.g, b.kset),
    "evolve_state": lambda b, o: evolve(o.w, b.m, T, b.scfg),
    "evolve_pin_zero": lambda b, o: evolve(b.w, b.m, T, b.scfg, pin_zero=o.omega),
    "forward_state": lambda b, o: forward(o.w, b.m, b.omega, T, b.scfg),
    "forward_region": lambda b, o: forward(b.w, b.m, o.omega, T, b.scfg),
    "solve_backward_state": lambda b, o: solve_backward(b.trace, o.w, b.m, b.omega),
    "solve_backward_region": lambda b, o: solve_backward(b.trace, b.w, b.m, o.omega),
    "recon_config": lambda b, o: ReconConfig(b.m, b.omega, o.kset, T),
    "recon_config_medium": lambda b, o: ReconConfig(o.m, b.omega, b.kset, T),
    "apply_error_operator": lambda b, o: apply_error_operator(o.s, b.rcfg),
    "neumann_series_truth": lambda b, o: neumann_series(b.trace, b.rcfg, truth=o.s),
    "energy_decay_ratio_source": lambda b, o: energy_decay_ratio(o.s, b.rcfg),
}


@pytest.mark.parametrize("other", ["half_spacing", "33x33"])
@pytest.mark.parametrize("row", GRID_ROWS)
def test_objects_on_another_grid_are_rejected(row, other):
    with pytest.raises(ConfigurationError, match=GRID_ERROR):
        GRID_ROWS[row](OBJECTS["base"], OBJECTS[other])


def _time_reverse_at(t):
    """time_reverse under a reconstruction config whose T was set to t after
    it was checked."""
    def run(b):
        rcfg = ReconConfig(b.m, b.omega, b.kset, T)
        object.__setattr__(rcfg, "T", t)
        return time_reverse(b.trace, rcfg)
    return run


# each row hands a solve a final time its config or trace cannot cover
TIME_ROWS = {
    "evolve_nan": (lambda b: evolve(b.w, b.m, math.nan, b.scfg), TIME_ERROR),
    "evolve_inf": (lambda b: evolve(b.w, b.m, math.inf, b.scfg), TIME_ERROR),
    "evolve_other_T": (lambda b: evolve(b.w, b.m, 2 * T, b.scfg), "config covers T = 0.5"),
    "forward_nan": (lambda b: forward(b.w, b.m, b.omega, math.nan, b.scfg), TIME_ERROR),
    "forward_inf": (lambda b: forward(b.w, b.m, b.omega, math.inf, b.scfg), TIME_ERROR),
    "forward_other_T": (lambda b: forward(b.w, b.m, b.omega, 2 * T, b.scfg),
                        "config covers T = 0.5"),
    "time_reverse_nan": (_time_reverse_at(math.nan), TIME_ERROR),
    "time_reverse_inf": (_time_reverse_at(math.inf), TIME_ERROR),
    "time_reverse_other_T": (lambda b: time_reverse(
        b.trace, ReconConfig(b.m, b.omega, b.kset, 2 * T)), "trace covers T = 0.5"),
    "recon_config_inf": (lambda b: ReconConfig(b.m, b.omega, b.kset, math.inf), TIME_ERROR),
}


@pytest.mark.parametrize("row", TIME_ROWS)
def test_final_times_a_solve_cannot_cover_are_rejected(row):
    call, message = TIME_ROWS[row]
    with pytest.raises(ConfigurationError, match=message):
        call(OBJECTS["base"])


# each object that holds a time step, built with one it cannot step by
DT_ROWS = {
    "solver_config": (lambda dt: SolverConfig(dt=dt, n_steps=1), "dt must be positive and finite"),
    "boundary_trace": (lambda dt: BoundaryTrace(np.zeros((1, 2)), dt, np.zeros((2, 1))),
                       "trace dt must be positive and finite"),
}


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -0.1])
@pytest.mark.parametrize("row", DT_ROWS)
def test_time_steps_that_are_not_positive_and_finite_are_rejected(row, dt):
    build, message = DT_ROWS[row]
    with pytest.raises(ConfigurationError, match=message):
        build(dt)
