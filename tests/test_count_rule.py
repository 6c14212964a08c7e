"""The one count rule: every step, term, iteration, sample, seed, node-index and
grid-size count is a whole number of at least its least value.

Each entry point that takes a count is fed a non-integral float above its
least value, NaN, True and the integer just below its least value; every one
raises the rule's one ConfigurationError, word for word, before it computes
anything.  A numpy integer is a whole number, and gives the same bytes as the
equal int.
"""

import math

import numpy as np
import pytest

from thermotomo.errors import ConfigurationError
from thermotomo.grid_field import Grid, Region, ScalarField, WaveState, make_phantom
from thermotomo.medium import build_medium
from thermotomo.rays import check_visibility, sample_directions, sample_positions, trace_branches
from thermotomo.recon import ReconConfig, estimate_contraction
from thermotomo.wave_solver import SolverConfig, evolve, forward

T = 0.5
G = Grid(65, 65, 0.05, (-1.6, -1.6))
M = build_medium([(0.4, 0.5)], G)
OMEGA = Region.rectangle_from_physical(G, -0.5, 0.5, -0.5, 0.5)
KSET = Region.disk(G, (0.0, 0.0), 0.2)
SCFG = SolverConfig.for_time(M, T)
RCFG = ReconConfig(OMEGA, KSET, T)
W = WaveState(make_phantom("gaussian_bump", {"center": (0.0, 0.0), "sigma": 0.05}, G, KSET),
              ScalarField.zeros(G))

# each row: (the count's name, its least value, a call that takes the count v)
COUNT_ROWS = {
    "grid_nx": ("grid nx", 3, lambda v: Grid(v, 10, 0.1)),
    "grid_ny": ("grid ny", 3, lambda v: Grid(10, v, 0.1)),
    "rectangle_i0": ("rectangle node index", 0, lambda v: Region.rectangle(G, v, 40, 10, 40)),
    "rectangle_i1": ("rectangle node index", 0, lambda v: Region.rectangle(G, 10, v, 10, 40)),
    "rectangle_j0": ("rectangle node index", 0, lambda v: Region.rectangle(G, 10, 40, v, 40)),
    "rectangle_j1": ("rectangle node index", 0, lambda v: Region.rectangle(G, 10, 40, 10, v)),
    "solver_n_steps": ("n_steps", 1, lambda v: SolverConfig(0.01, v)),
    "evolve_sample_every": ("sample_every", 1, lambda v: evolve(
        W, M, T, SCFG, on_sample=lambda k, state: None, sample_every=v)),
    "recon_m_max": ("m_max", 1, lambda v: ReconConfig(OMEGA, KSET, T, m_max=v)),
    "contraction_n_power_iters": ("n_power_iters", 5,
                                  lambda v: estimate_contraction(M, RCFG, v)),
    "contraction_seed": ("seed", 0, lambda v: estimate_contraction(M, RCFG, 5, seed=v)),
    "trace_max_depth": ("max_depth", 1, lambda v: trace_branches(
        (0.1, 0.0), (1.0, 0.0), M, OMEGA, T, {"max_depth": v})),
    "visibility_max_depth": ("max_depth", 1, lambda v: check_visibility(
        KSET, M, OMEGA, T, {"n_pos": 2, "n_dir": 2, "caps": {"max_depth": v}})),
    "sample_positions": ("n_pos", 1, lambda v: sample_positions(KSET, v)),
    "sample_directions": ("n_dir", 1, lambda v: sample_directions(v)),
    "visibility_n_pos": ("n_pos", 1, lambda v: check_visibility(
        KSET, M, OMEGA, T, {"n_pos": v, "n_dir": 2})),
    "visibility_n_dir": ("n_dir", 1, lambda v: check_visibility(
        KSET, M, OMEGA, T, {"n_pos": 2, "n_dir": v})),
}

# each input, as a function of the least value
INPUTS = {
    "float": lambda least: least + 1.5,
    "nan": lambda least: math.nan,
    "true": lambda least: True,
    "below_least": lambda least: least - 1,
}


@pytest.mark.parametrize("value", INPUTS)
@pytest.mark.parametrize("row", COUNT_ROWS)
def test_a_count_that_is_not_a_whole_number_of_at_least_its_least_is_rejected(row, value):
    name, least, call = COUNT_ROWS[row]
    v = INPUTS[value](least)
    with pytest.raises(ConfigurationError) as exc:
        call(v)
    assert str(exc.value) == f"{name} must be a whole number of at least {least}, got {v!r}"


def test_numpy_integer_sample_count_gives_the_int_bytes():
    assert (sample_positions(KSET, np.int64(5)).tobytes()
            == sample_positions(KSET, 5).tobytes())
    assert sample_directions(np.int64(5)).tobytes() == sample_directions(5).tobytes()


def test_numpy_integer_step_count_gives_the_int_bytes():
    cfg = SolverConfig(SCFG.dt, np.int64(SCFG.n_steps))
    assert type(cfg.n_steps) is int and cfg == SCFG
    got, want = (forward(W, M, OMEGA, T, c) for c in (cfg, SCFG))
    assert got.values.tobytes() == want.values.tobytes()


def test_numpy_integer_grid_size_is_stored_as_int():
    g = Grid(np.int64(65), np.int32(65), 0.05, (-1.6, -1.6))
    assert (type(g.nx), type(g.ny)) == (int, int) and g == G
