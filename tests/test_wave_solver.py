import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermotomo import wave_solver
from thermotomo.config import RunConfig
from thermotomo.errors import (
    CompatibilityError,
    ConfigurationError,
    InstabilityError,
)
from thermotomo.grid_field import (
    Grid,
    Region,
    ScalarField,
    WaveState,
    energy,
    l2_norm,
    make_phantom,
)
from thermotomo.medium import build_medium, uniform_medium
from thermotomo.wave_solver import (
    BoundaryTrace,
    SolverConfig,
    cfl_dt,
    evolve,
    exterior_neumann,
    forward,
    solve_backward,
)

from conftest import centered_bump, example1_setup, random_field


class TestCflDt:
    def test_formula(self):
        g = Grid(11, 11, 0.01)
        m = uniform_medium(g)
        assert cfl_dt(m, 0.4) == pytest.approx(0.004 / math.sqrt(2), rel=1e-14)

    def test_halves_when_speed_doubles(self):
        g = Grid(11, 11, 0.01)
        assert cfl_dt(uniform_medium(g, 2.0), 0.4) == pytest.approx(
            cfl_dt(uniform_medium(g, 1.0), 0.4) / 2, rel=1e-14)

    def test_zero_cfl_rejected(self):
        g = Grid(11, 11, 0.01)
        with pytest.raises(ConfigurationError):
            cfl_dt(uniform_medium(g), 0.0)

    @pytest.mark.parametrize("speed, T", [(1e150, 1.0), (1.0, 1e300), (1e150, 1e300)])
    def test_step_count_past_the_index_range_rejected(self, speed, T):
        m = uniform_medium(Grid(11, 11, 0.01), speed)
        with pytest.raises(ConfigurationError, match="more than can be indexed"):
            SolverConfig.for_time(m, T)


def _leapfrog(prev, curr, m, dt, n):
    """n steps of the solver's time loop from (prev, curr): the last two levels."""
    schedule = [(range(n), wave_solver._whole(m.c_sq))]
    return wave_solver._march((prev.data, curr.data), m.c_sq, m.grid.h, dt, schedule, "step")[0]


class TestStep:
    def test_zero_stays_zero(self, small_grid, small_medium):
        z = ScalarField.zeros(small_grid)
        _, out = _leapfrog(z, z, small_medium, cfl_dt(small_medium, 0.4), 1)
        assert np.all(out == 0.0)

    def test_constant_preserved_inside(self, small_grid, small_medium):
        kappa = 2.5
        c = ScalarField(small_grid, np.full(small_grid.shape, kappa))
        _, out = _leapfrog(c, c, small_medium, cfl_dt(small_medium, 0.4), 1)
        assert np.allclose(out[1:-1, 1:-1], kappa)
        assert np.all(out[0, :] == 0.0)

    def test_single_step_reversibility(self, small_grid, small_medium):
        dt = cfl_dt(small_medium, 0.4)
        a, b = random_field(small_grid, 1), random_field(small_grid, 2)
        a.data[0, :] = a.data[-1, :] = a.data[:, 0] = a.data[:, -1] = 0.0
        b.data[0, :] = b.data[-1, :] = b.data[:, 0] = b.data[:, -1] = 0.0
        _, c = _leapfrog(a, b, small_medium, dt, 1)
        _, back = _leapfrog(ScalarField(small_grid, c), b, small_medium, dt, 1)
        assert np.allclose(back, a.data, atol=1e-13)

    def test_hundred_step_reversibility(self, small_grid):
        m = build_medium([(0.4, 0.5)], small_grid)
        dt = cfl_dt(m, 0.4)
        kc = Region.disk(small_grid, (0.0, 0.0), 0.3)
        f = centered_bump(small_grid, kc, sigma=0.06)
        first = _leapfrog(f, f, m, dt, 1)[1]                 # u^1 from (u^{-1}, u^0) = (f, f)
        u99, u100 = _leapfrog(f, f, m, dt, 100)
        b, a = _leapfrog(ScalarField(small_grid, u100), ScalarField(small_grid, u99),
                         m, dt, 99)                          # (u^1, u^0)
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(b - first)) <= 1e-10 * scale
        assert np.max(np.abs(a - f.data)) <= 1e-10 * scale

    def test_cfl_violation_rejected(self, small_grid, small_medium, small_rect):
        bad = SolverConfig(dt=1.01 * small_grid.h / math.sqrt(2), n_steps=4)
        z = WaveState.zeros(small_grid)
        with pytest.raises(ConfigurationError, match="stability bound"):
            evolve(z, small_medium, bad.T, bad)
        with pytest.raises(ConfigurationError, match="stability bound"):
            forward(z, small_medium, small_rect, bad.T, bad)


class TestForward:
    def test_zero_data_zero_trace(self):
        g, m, omega, kset = example1_setup()
        cfg = SolverConfig.for_time(m, 1.2)
        tr = forward(WaveState.zeros(g), m, omega, 1.2, cfg)
        assert np.all(tr.values == 0.0)

    def test_initial_row_vanishes_for_interior_support(self):
        g, m, omega, kset = example1_setup()
        f = centered_bump(g, kset)
        cfg = SolverConfig.for_time(m, 1.2)
        tr = forward(WaveState(f, ScalarField.zeros(g)), m, omega, 1.2, cfg)
        assert np.all(tr.values[0] == 0.0)

    def test_onset_time_of_flight(self):
        # Kirchhoff oracle: first arrival = (distance - support radius) / c
        T = 0.6
        g = Grid(321, 321, 2.6 / 320, origin=(-1.3, -1.3))
        m = uniform_medium(g)
        omega = Region.rectangle_from_physical(g, -0.5, 0.5, -0.5, 0.5)
        kset = Region.disk(g, (0.0, 0.0), 0.1)
        f = centered_bump(g, kset, sigma=1.5 * g.h)
        cfg = SolverConfig.for_time(m, T)
        tr = forward(WaveState(f, ScalarField.zeros(g)), m, omega, T, cfg)
        dist = np.hypot(tr.points[:, 0], tr.points[:, 1])
        k = int(np.argmin(dist))
        col = np.abs(tr.values[:, k])
        threshold = 1e-3 * np.max(np.abs(tr.values))
        onset = float(np.argmax(col > threshold)) * tr.dt
        support_radius = 0.1  # phantom truncation radius inside kset
        assert abs(onset - (dist[k] - support_radius)) <= 3 * g.h

    def test_energy_balance_while_contained(self):
        # nothing reaches the box edge: total energy conserved to 1e-3
        g = Grid(201, 201, 2.0 / 200, origin=(-1.0, -1.0))
        m = build_medium([(0.3, 0.5)], g)
        box = Region.rectangle(g, 1, 199, 1, 199)
        kc = Region.disk(g, (0.0, 0.0), 0.5)
        f = WaveState(centered_bump(g, kc, sigma=15 * g.h), ScalarField.zeros(g))
        T = 0.35    # support radius 0.5 + c*T < 1
        cfg = SolverConfig.for_time(m, T)
        e0 = energy(f, box, m)
        drift = []
        evolve(f, m, T, cfg,
               on_sample=lambda k, st: drift.append(abs(energy(st, box, m) - e0) / e0),
               sample_every=10)
        assert max(drift) <= 1e-3

    def test_linearity_of_trace(self):
        g, m, omega, kset = example1_setup()
        cfg = SolverConfig.for_time(m, 1.2)
        fa = centered_bump(g, kset, sigma=0.05, center=(0.05, 0.0))
        fb = centered_bump(g, kset, sigma=0.04, center=(-0.05, 0.02))
        za = WaveState(fa, ScalarField.zeros(g))
        zb = WaveState(fb, ScalarField.zeros(g))
        zc = WaveState(2.0 * fa - 0.5 * fb, ScalarField.zeros(g))
        ta = forward(za, m, omega, 1.2, cfg)
        tb = forward(zb, m, omega, 1.2, cfg)
        tc = forward(zc, m, omega, 1.2, cfg)
        ref = 2.0 * ta.values - 0.5 * tb.values
        assert np.allclose(tc.values, ref, atol=1e-12 * np.max(np.abs(ta.values)))

    def test_support_outside_omega_rejected(self):
        g, m, omega, kset = example1_setup()
        f = ScalarField.zeros(g)
        f.data[3, 3] = 1.0   # outside the rectangle
        cfg = SolverConfig.for_time(m, 1.2)
        with pytest.raises(ConfigurationError):
            forward(WaveState(f, ScalarField.zeros(g)), m, omega, 1.2, cfg)

    def test_insufficient_margin_rejected(self):
        g, m, omega, kset = example1_setup()   # margin 1.3
        cfg = SolverConfig.for_time(m, 3.0)
        with pytest.raises(ConfigurationError):
            forward(WaveState(centered_bump(g, kset), ScalarField.zeros(g)),
                    m, omega, 3.0, cfg)

    @pytest.mark.parametrize("nodes, ok", [(28, False), (29, True)])
    def test_margin_bound_is_half_the_outer_speed_times_T(self, nodes, ok):
        # a fast disk inside Ω: c_max = 2 but c_out = 1, so T = 1 needs a margin
        # of 0.5 + 16h = 28.5h; 28 nodes are just below it, 29 just above
        h = 0.04
        g = Grid(51 + 2 * nodes, 51 + 2 * nodes, h, origin=(-1.0 - nodes * h,) * 2)
        m = build_medium([(0.5, 2.0)], g)
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        assert omega.params["i0"] == nodes and m.c_max == 2.0
        f = WaveState(centered_bump(g, Region.disk(g, (0.0, 0.0), 0.2)), ScalarField.zeros(g))
        cfg = SolverConfig.for_time(m, 1.0)
        if ok:
            forward(f, m, omega, 1.0, cfg)
        else:
            with pytest.raises(ConfigurationError, match="c_out"):
                forward(f, m, omega, 1.0, cfg)

    def test_nan_input_raises_instability_with_step(self):
        g, m, omega, kset = example1_setup()
        f = centered_bump(g, kset)
        f.data[g.nx // 2, g.ny // 2] = np.nan
        cfg = SolverConfig.for_time(m, 1.2)
        with pytest.raises(InstabilityError, match="step"):
            forward(WaveState(f, ScalarField.zeros(g)), m, omega, 1.2, cfg)

    def test_evolve_sample_every_below_one_rejected(self):
        g, m, omega, kset = example1_setup()
        cfg = SolverConfig.for_time(m, 1.2)
        with pytest.raises(ConfigurationError, match="sample_every"):
            evolve(WaveState.zeros(g), m, 1.2, cfg, on_sample=lambda k, st: None,
                   sample_every=0)

    def test_evolve_holds_the_outer_ring_at_zero(self):
        # data on the outermost ring is replaced by the Dirichlet zero
        g, m, omega, kset = example1_setup(N=61)
        cfg = SolverConfig.for_time(m, 0.3)
        u = random_field(g, 3)
        inner = u.copy()
        inner.data[[0, -1], :] = inner.data[:, [0, -1]] = 0.0
        a = evolve(WaveState(u, ScalarField.zeros(g)), m, 0.3, cfg)
        b = evolve(WaveState(inner, ScalarField.zeros(g)), m, 0.3, cfg)
        assert _states_equal(a, b)


def _ten_detector_trace(m, omega):
    """A zero trace on the first 10 of omega's boundary nodes, over T = 1.2."""
    cfg = SolverConfig.for_time(m, 1.2)
    return BoundaryTrace(omega.boundary_coords[:10], cfg.dt, np.zeros((cfg.n_steps + 1, 10)))


class TestSolveBackward:
    def test_zero_everything(self):
        g, m, omega, kset = example1_setup()
        cfg = SolverConfig.for_time(m, 1.2)
        n = cfg.n_steps
        tr = BoundaryTrace(points=omega.boundary_coords, dt=cfg.dt,
                           values=np.zeros((n + 1, omega.boundary_nodes[0].size)))
        out = solve_backward(tr, WaveState.zeros(g), m, omega)
        assert np.all(out.u.data == 0.0) and np.all(out.ut.data == 0.0)

    def test_exact_cauchy_roundtrip(self):
        # full Cauchy data at T reverses the forward solve on omega exactly
        g, m, omega, kset = example1_setup()
        f1 = centered_bump(g, kset)
        cfg = SolverConfig.for_time(m, 1.2)
        tr, fin = forward(WaveState(f1, ScalarField.zeros(g)), m, omega, 1.2, cfg,
                          return_final=True)
        back = solve_backward(tr, fin, m, omega)
        rel = l2_norm(back.u - f1, omega) / l2_norm(f1, omega)
        assert rel <= 0.02          # discretization bound; observed at round-off
        assert rel <= 1e-10
        assert np.max(np.abs(back.ut.data[omega.interior_mask])) <= 1e-10

    def test_dirichlet_energy_conservation(self):
        g = Grid(200, 200, 1.0 / 199, origin=(0.0, 0.0))
        m = uniform_medium(g)
        omega = Region.rectangle(g, 1, 198, 1, 198)
        kc = Region.disk(g, (0.5, 0.5), 0.35)
        f1 = centered_bump(g, kc, sigma=15 * g.h, center=(0.5, 0.5))
        state = WaveState(f1, ScalarField.zeros(g))
        T = 1.2   # several wall reflections inside the pinned rectangle
        cfg = SolverConfig.for_time(m, T)
        tr = BoundaryTrace(points=omega.boundary_coords, dt=cfg.dt,
                           values=np.zeros((cfg.n_steps + 1,
                                            omega.boundary_nodes[0].size)))
        out = solve_backward(tr, state, m, omega)
        e_T = energy(state, omega, m)
        e_0 = energy(out, omega, m)
        assert abs(e_0 - e_T) / e_T <= 1e-3

    def test_incompatible_cauchy_rejected(self):
        g, m, omega, kset = example1_setup()
        f1 = centered_bump(g, kset)
        cfg = SolverConfig.for_time(m, 1.2)
        tr, fin = forward(WaveState(f1, ScalarField.zeros(g)), m, omega, 1.2, cfg,
                          return_final=True)
        bi, bj = omega.boundary_nodes
        fin.u.data[bi[0], bj[0]] += 1e-6
        with pytest.raises(CompatibilityError):
            solve_backward(tr, fin, m, omega)

    def test_one_sample_trace_rejected(self):
        g, m, omega, kset = example1_setup()
        tr = BoundaryTrace(points=omega.boundary_coords, dt=SolverConfig.for_time(m, 1.2).dt,
                           values=np.zeros((1, omega.boundary_nodes[0].size)))
        with pytest.raises(ConfigurationError, match="two time samples"):
            solve_backward(tr, WaveState.zeros(g), m, omega)

    def test_trace_of_another_detector_count_rejected(self):
        # 10 detectors against the rectangle's boundary nodes used to end in
        # np.allclose's broadcast ValueError
        g, m, omega, kset = example1_setup()
        with pytest.raises(ConfigurationError, match="trace detectors do not match"):
            solve_backward(_ten_detector_trace(m, omega), WaveState.zeros(g), m, omega)

    def test_refinement_improves_backward_reconstruction(self):
        # data from a 4x reference grid; halving h must shrink the error >= 1.5x
        T = 0.5

        def build(N, L=3.2):
            g = Grid(N, N, L / (N - 1), origin=(-L / 2, -L / 2))
            return g, build_medium([(0.5, 0.5)], g)

        gc, mc = build(81)
        gf, mf = build(161)
        gr, mr = build(321)
        omc = Region.rectangle_from_physical(gc, -1.0, 1.0, -1.0, 1.0)
        i0, i1, j0, j1 = (omc.params[k] for k in ("i0", "i1", "j0", "j1"))
        omf = Region.rectangle(gf, 2 * i0, 2 * i1, 2 * j0, 2 * j1)
        omr = Region.rectangle(gr, 4 * i0, 4 * i1, 4 * j0, 4 * j1)
        n_c = 45
        dt_c = T / n_c
        cfg_r = SolverConfig(dt=dt_c / 4, n_steps=4 * n_c)

        def phantom(g):
            ks = Region.disk(g, (0.0, 0.0), 0.2)
            return make_phantom("gaussian_bump",
                                {"center": (0.03, -0.02), "sigma": 0.05}, g, ks), ks

        f_r, _ = phantom(gr)
        tr_r, fin_r = forward(WaveState(f_r, ScalarField.zeros(gr)), mr, omr, T,
                              cfg_r, return_final=True)
        ref_idx = {(int(i), int(j)): k
                   for k, (i, j) in enumerate(zip(*omr.boundary_nodes))}

        def backsolve_error(g, m, om, stride):
            bi, bj = om.boundary_nodes
            cols = [ref_idx[(int(i) * stride, int(j) * stride)]
                    for i, j in zip(bi, bj)]
            vals = tr_r.values[::stride, cols]
            tr = BoundaryTrace(points=om.boundary_coords, dt=dt_c * stride / 4,
                               values=vals)
            cauchy = WaveState(
                ScalarField(g, fin_r.u.data[::stride, ::stride].copy()),
                ScalarField(g, fin_r.ut.data[::stride, ::stride].copy()))
            back = solve_backward(tr, cauchy, m, om)
            truth, ks = phantom(g)
            return l2_norm(back.u - truth, ks) / l2_norm(truth, ks)

        e_coarse = backsolve_error(gc, mc, omc, 4)
        e_fine = backsolve_error(gf, mf, omf, 2)
        assert e_coarse / e_fine >= 1.5


def _pulse_box(margin, h=0.04):
    """Ω = [-1, 1]^2 padded by ``margin`` nodes of spacing h."""
    n = 51 + 2 * margin
    return Region.rectangle_from_physical(Grid(n, n, h, origin=(-1.0 - margin * h,) * 2),
                                          -1.0, 1.0, -1.0, 1.0)


def _pulse_trace(margin, T=3.39):
    """The trace over T of a 0.3-wide pulse at the origin, and its Ω = _pulse_box(margin)."""
    omega = _pulse_box(margin)
    g, m = omega.grid, uniform_medium(omega.grid)
    f = WaveState(centered_bump(g, Region.disk(g, (0.0, 0.0), 0.6), sigma=0.15),
                  ScalarField.zeros(g))
    return forward(f, m, omega, T, SolverConfig.for_time(m, T)), omega


class TestExterior:
    def test_zero_trace_zero_neumann(self):
        g, m, omega, kset = example1_setup()
        cfg = SolverConfig.for_time(m, 1.2)
        tr = BoundaryTrace(points=omega.boundary_coords, dt=cfg.dt,
                           values=np.zeros((cfg.n_steps + 1,
                                            omega.boundary_nodes[0].size)))
        out = exterior_neumann(tr, omega)
        assert np.all(out.values == 0.0)

    def test_one_sample_trace_rejected(self):
        g, m, omega, kset = example1_setup()
        tr = BoundaryTrace(points=omega.boundary_coords, dt=SolverConfig.for_time(m, 1.2).dt,
                           values=np.zeros((1, omega.boundary_nodes[0].size)))
        with pytest.raises(ConfigurationError, match="two time samples"):
            exterior_neumann(tr, omega)


    def test_trace_of_another_detector_count_rejected(self):
        g, m, omega, kset = example1_setup()
        with pytest.raises(ConfigurationError, match="trace detectors do not match"):
            exterior_neumann(_ten_detector_trace(m, omega), omega)

    def test_margin_below_half_T_rejected(self):
        # a 10-node margin lets the ring's echo into the Neumann data (2.75 times
        # their peak without the check), so it is rejected; T/2 + 16h needs 59
        tr, omega = _pulse_trace(60)
        wide = exterior_neumann(tr, omega).values
        assert np.abs(wide).max() > 0
        assert np.array_equal(wide, exterior_neumann(tr, _pulse_box(70)).values)
        with pytest.raises(ConfigurationError, match="margin"):
            exterior_neumann(tr, _pulse_box(10))


class TestBoundaryTrace:
    def test_nonfinite_rejected(self):
        pts = np.array([[0.0, 0.0]])
        with pytest.raises(ConfigurationError):
            BoundaryTrace(points=pts, dt=0.1, values=np.array([[np.inf], [0.0]]))


# -- reference stepper --------------------------------------------------------
# The leapfrog kernel and the four time loops exactly as first written, with
# grid-sized temporaries.  The in-place solver must match them bit for bit.


def _ref_leap_into(out, prev, curr, c_sq, h, dt):
    lam = (dt * dt) / (h * h)
    out[1:-1, 1:-1] = (
        2.0 * curr[1:-1, 1:-1] - prev[1:-1, 1:-1]
        + lam * c_sq[1:-1, 1:-1] * (
            curr[2:, 1:-1] + curr[:-2, 1:-1] + curr[1:-1, 2:] + curr[1:-1, :-2]
            - 4.0 * curr[1:-1, 1:-1])
    )


def _ref_taylor_second_level(u0, ut0, c_sq, h, dt):
    u1 = np.zeros_like(u0)
    lam = 0.5 * dt * dt / (h * h)
    u1[1:-1, 1:-1] = (
        u0[1:-1, 1:-1] + dt * ut0[1:-1, 1:-1]
        + lam * c_sq[1:-1, 1:-1] * (
            u0[2:, 1:-1] + u0[:-2, 1:-1] + u0[1:-1, 2:] + u0[1:-1, :-2]
            - 4.0 * u0[1:-1, 1:-1])
    )
    return u1


def _ref_consistent_ut(u_last, u_prev, c_sq, h, dt):
    ut = (u_last - u_prev) / dt
    ut[1:-1, 1:-1] += 0.5 * dt * c_sq[1:-1, 1:-1] * (
        u_last[2:, 1:-1] + u_last[:-2, 1:-1] + u_last[1:-1, 2:] + u_last[1:-1, :-2]
        - 4.0 * u_last[1:-1, 1:-1]) / (h * h)
    return ut


def _ref_evolve(f, m, cfg, pin_zero=None, on_sample=None, sample_every=1):
    g, dt = m.grid, cfg.dt
    pins = pin_zero.boundary_nodes if pin_zero is not None else None

    def sample(k, curr, prev):
        if on_sample is not None and k % sample_every == 0:
            ut = _ref_consistent_ut(curr, prev, m.c_sq, g.h, dt)
            on_sample(k, WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut)))

    prev = f.u.data.copy()
    if pins is not None:
        prev[pins] = 0.0
    curr = _ref_taylor_second_level(prev, f.ut.data, m.c_sq, g.h, dt)
    if pins is not None:
        curr[pins] = 0.0
    sample(1, curr, prev)
    nxt = np.zeros_like(prev)
    for k in range(2, cfg.n_steps + 1):
        _ref_leap_into(nxt, prev, curr, m.c_sq, g.h, dt)
        if pins is not None:
            nxt[pins] = 0.0
        if not np.all(np.isfinite(nxt)):
            raise InstabilityError(f"non-finite values appeared at step {k}")
        prev, curr, nxt = curr, nxt, prev
        sample(k, curr, prev)
    ut = _ref_consistent_ut(curr, prev, m.c_sq, g.h, dt)
    return WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut))


def _ref_forward(f, m, omega, cfg):
    g, dt = m.grid, cfg.dt
    bi, bj = omega.boundary_nodes
    values = np.empty((cfg.n_steps + 1, bi.size))

    prev = f.u.data.copy()
    values[0] = prev[bi, bj]
    curr = _ref_taylor_second_level(prev, f.ut.data, m.c_sq, g.h, dt)
    values[1] = curr[bi, bj]

    nxt = np.zeros_like(prev)
    for k in range(2, cfg.n_steps + 1):
        _ref_leap_into(nxt, prev, curr, m.c_sq, g.h, dt)
        if not np.all(np.isfinite(nxt)):
            raise InstabilityError(f"non-finite values appeared at step {k}")
        prev, curr, nxt = curr, nxt, prev
        values[k] = curr[bi, bj]

    ut = _ref_consistent_ut(curr, prev, m.c_sq, g.h, dt)
    return values, WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut))


def _ref_solve_backward(boundary, cauchy_at_T, m, omega):
    g, dt = m.grid, boundary.dt
    n = boundary.n_steps
    bi, bj = omega.boundary_nodes
    i0, i1 = omega.params["i0"], omega.params["i1"]
    j0, j1 = omega.params["j0"], omega.params["j1"]
    win = (slice(i0, i1 + 1), slice(j0, j1 + 1))
    win_in = (slice(i0 + 1, i1), slice(j0 + 1, j1))
    lam = (dt * dt) / (g.h * g.h)
    c_sq_in = m.c_sq[win_in]

    curr = np.zeros(g.shape)
    curr[win] = cauchy_at_T.u.data[win]
    curr[bi, bj] = boundary.values[n]
    prev = np.zeros(g.shape)
    u0, ut0 = cauchy_at_T.u.data, cauchy_at_T.ut.data
    prev[win_in] = (
        u0[win_in] - dt * ut0[win_in]
        + 0.5 * lam * c_sq_in * (
            u0[i0 + 2:i1 + 1, j0 + 1:j1] + u0[i0:i1 - 1, j0 + 1:j1]
            + u0[i0 + 1:i1, j0 + 2:j1 + 1] + u0[i0 + 1:i1, j0:j1 - 1]
            - 4.0 * u0[win_in])
    )
    prev[bi, bj] = boundary.values[n - 1]

    nxt = np.zeros(g.shape)
    for k in range(n - 2, -1, -1):
        nxt[win_in] = (
            2.0 * prev[win_in] - curr[win_in]
            + lam * c_sq_in * (
                prev[i0 + 2:i1 + 1, j0 + 1:j1] + prev[i0:i1 - 1, j0 + 1:j1]
                + prev[i0 + 1:i1, j0 + 2:j1 + 1] + prev[i0 + 1:i1, j0:j1 - 1]
                - 4.0 * prev[win_in])
        )
        nxt[bi, bj] = boundary.values[k]
        if not np.all(np.isfinite(nxt[win])):
            raise InstabilityError(f"non-finite values appeared at backward step {k}")
        curr, prev, nxt = prev, nxt, curr

    v0 = np.zeros(g.shape)
    v0[win] = prev[win]
    vt0 = np.zeros(g.shape)
    # the seed's inverse in reversed time, whose last level is 0, is -v_t(0)
    vt0[win] = -_ref_consistent_ut(prev[win], curr[win], m.c_sq[win], g.h, dt)
    return WaveState(ScalarField(g, v0), ScalarField(g, vt0))


def _ref_exterior_neumann(boundary, omega):
    g = omega.grid
    dt = boundary.dt
    bi, bj = omega.boundary_nodes
    i0, i1 = omega.params["i0"], omega.params["i1"]
    j0, j1 = omega.params["j0"], omega.params["j1"]
    n1i, n1j = bi.copy(), bj.copy()
    n1i[bi == i0] -= 1
    n1i[bi == i1] += 1
    side = (bi != i0) & (bi != i1)
    n1j[side & (bj == j0)] -= 1
    n1j[side & (bj == j1)] += 1
    corner = ((bi == i0) | (bi == i1)) & ((bj == j0) | (bj == j1))
    ci, cj = bi[corner], bj[corner]
    n2i, n2j = ci.copy(), cj.copy()
    n2j[cj == j0] -= 1
    n2j[cj == j1] += 1
    n_steps = boundary.n_steps
    normal = np.zeros((n_steps + 1, bi.size))
    ones = np.ones(g.shape)
    interior_win = (slice(i0 + 1, i1), slice(j0 + 1, j1))

    def record(level, arr):
        q = (arr[n1i, n1j] - arr[bi, bj]) / g.h
        q[corner] = 0.5 * (q[corner] + (arr[n2i, n2j] - arr[ci, cj]) / g.h)
        normal[level] = q

    prev = np.zeros(g.shape)
    prev[bi, bj] = boundary.values[0]
    prev[interior_win] = 0.0
    record(0, prev)
    curr = _ref_taylor_second_level(prev, np.zeros(g.shape), ones, g.h, dt)
    curr[bi, bj] = boundary.values[1]
    curr[interior_win] = 0.0
    record(1, curr)

    nxt = np.zeros(g.shape)
    for k in range(2, n_steps + 1):
        _ref_leap_into(nxt, prev, curr, ones, g.h, dt)
        nxt[bi, bj] = boundary.values[k]
        nxt[interior_win] = 0.0
        if not np.all(np.isfinite(nxt)):
            raise InstabilityError(f"non-finite values appeared at exterior step {k}")
        prev, curr, nxt = curr, nxt, prev
        record(k, curr)
    return normal


def _states_equal(a, b):
    return np.array_equal(a.u.data, b.u.data) and np.array_equal(a.ut.data, b.ut.data)


def _peak_gap(got, ref):
    """Largest gap between two traces over the reference's peak; the gap itself if that is 0."""
    gap, peak = np.max(np.abs(got - ref)), np.max(np.abs(ref))
    return gap / peak if peak else gap


def _cone_case(name):
    """(grid, medium, omega, data, T) that put the light cone in different places."""
    T = 1.2
    if name == "nx_ne_ny":
        # x margin 27h, just above T/2 + 16h: the trace window spans the box in x only
        g = Grid(107, 121, 4.6 / 120, origin=(-1.0 - 27 * 4.6 / 120, -2.3))
        m = build_medium([(0.5, 0.5)], g)
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        kset, T = Region.disk(g, (0.0, 0.0), 0.2), 0.8
    elif name == "wide_margin":                               # margin 2.5 > T
        g, m, omega, kset = example1_setup(N=161, L=7.0)
        T = 0.8
    else:
        g, m, omega, kset = example1_setup(N=121, L=4.6)
    u, ut = centered_bump(g, kset, center=(0.03, -0.02)), 0.5 * centered_bump(g, kset, sigma=0.04)
    if name == "corner":
        kset = Region.disk(g, (0.8, -0.8), 0.15)
        u, ut = centered_bump(g, kset, sigma=0.04, center=(0.8, -0.8)), ScalarField.zeros(g)
    elif name == "ut_only":
        u = ScalarField.zeros(g)
    elif name == "zero":
        u, ut = ScalarField.zeros(g), ScalarField.zeros(g)
    elif name == "neg_zero":
        u, ut = ScalarField(g, np.where(u.data != 0.0, u.data, -0.0)), ScalarField.zeros(g)
    return g, m, omega, WaveState(u, ut), T


CONE_CASES = ["corner", "wide_margin", "nx_ne_ny", "ut_only", "zero", "neg_zero"]


class TestReferenceStepper:
    """Every solve equals the reference stepper bit for bit on a two-speed disk,
    and forward and evolve also on the light-cone cases of ``_cone_case``."""

    @pytest.fixture(scope="class")
    def setup(self):
        g, m, omega, kset = example1_setup(N=121, L=4.6)
        f = WaveState(centered_bump(g, kset, center=(0.03, -0.02)),
                      0.5 * centered_bump(g, kset, sigma=0.04))
        return g, m, omega, f

    def test_forward(self, setup):
        g, m, omega, f = setup
        cfg = SolverConfig.for_time(m, 1.2)
        tr, fin = forward(f, m, omega, 1.2, cfg, return_final=True)
        values, ref_fin = _ref_forward(f, m, omega, cfg)
        assert np.array_equal(tr.values, values)
        assert _states_equal(fin, ref_fin)
        assert forward(f, m, omega, 1.2, cfg).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("case", CONE_CASES)
    def test_forward_band_cases(self, case):
        # bytes, not values: a -0.0 left outside the cone would change the trace file
        g, m, omega, f, T = _cone_case(case)
        cfg = SolverConfig.for_time(m, T)
        values, ref_fin = _ref_forward(f, m, omega, cfg)
        tr, fin = forward(f, m, omega, T, cfg, return_final=True)
        assert tr.values.tobytes() == values.tobytes()
        assert _states_equal(fin, ref_fin)
        # a trace alone steps the physical cones, held to TestWindow's rule
        assert _peak_gap(forward(f, m, omega, T, cfg).values, values) <= 1e-13
        assert _states_equal(evolve(f, m, T, cfg), _ref_evolve(f, m, cfg))

    @pytest.mark.parametrize("pinned", [False, True])
    def test_evolve(self, setup, pinned):
        g, m, omega, f = setup
        cfg = SolverConfig.for_time(m, 1.2)
        pin_zero = omega if pinned else None
        got, ref = [], []
        out = evolve(f, m, 1.2, cfg, pin_zero=pin_zero, sample_every=7,
                     on_sample=lambda k, st: got.append((k, st)))
        ref_out = _ref_evolve(f, m, cfg, pin_zero=pin_zero, sample_every=7,
                              on_sample=lambda k, st: ref.append((k, st)))
        assert _states_equal(out, ref_out)
        assert [k for k, _ in got] == [k for k, _ in ref]
        assert all(_states_equal(a, b) for (_, a), (_, b) in zip(got, ref))

    def test_solve_backward(self, setup):
        g, m, omega, f = setup
        cfg = SolverConfig.for_time(m, 1.2)
        tr, fin = forward(f, m, omega, 1.2, cfg, return_final=True)
        out = solve_backward(tr, fin, m, omega)
        assert _states_equal(out, _ref_solve_backward(tr, fin, m, omega))

    def test_exterior_neumann(self, setup):
        g, m, omega, f = setup
        cfg = SolverConfig.for_time(m, 1.2)
        tr = forward(f, m, omega, 1.2, cfg)
        out = exterior_neumann(tr, omega)
        assert np.array_equal(out.values, _ref_exterior_neumann(tr, omega))

    @staticmethod
    def _short_trace(g, m, omega, n_steps, seed):
        # random trace values: every ring node is pinned to a nonzero value
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n_steps + 1, omega.boundary_nodes[0].size))
        return BoundaryTrace(omega.boundary_coords, cfl_dt(m, 0.4), values)

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_short_solve_backward(self, setup, n_steps):
        g, m, omega, _ = setup
        tr = self._short_trace(g, m, omega, n_steps, 6)
        u, ut = random_field(g, 7), random_field(g, 8)
        u.data[omega.boundary_nodes] = tr.values[-1]
        cauchy = WaveState(u, ut)
        out = solve_backward(tr, cauchy, m, omega)
        assert _states_equal(out, _ref_solve_backward(tr, cauchy, m, omega))
        # one step leaves no step to march: the seeded levels, pinned ring included
        assert np.array_equal(out.u.data[omega.boundary_nodes], tr.values[0])

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_short_evolve_pinned(self, setup, n_steps):
        g, m, omega, _ = setup
        cfg = SolverConfig(dt=cfl_dt(m, 0.4), n_steps=n_steps)
        f = WaveState(random_field(g, 9), random_field(g, 10))
        f.u.data[[0, -1], :] = f.u.data[:, [0, -1]] = 0.0     # the box's ring is zero
        got, ref = [], []
        out = evolve(f, m, cfg.T, cfg, pin_zero=omega,
                     on_sample=lambda k, st: got.append((k, st)))
        ref_out = _ref_evolve(f, m, cfg, pin_zero=omega,
                              on_sample=lambda k, st: ref.append((k, st)))
        assert _states_equal(out, ref_out)
        assert [k for k, _ in got] == [k for k, _ in ref] == list(range(1, n_steps + 1))
        assert all(_states_equal(a, b) for (_, a), (_, b) in zip(got, ref))

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_short_exterior_neumann(self, setup, n_steps):
        g, m, omega, _ = setup
        tr = self._short_trace(g, m, omega, n_steps, 11)
        out = exterior_neumann(tr, omega)
        assert np.array_equal(out.values, _ref_exterior_neumann(tr, omega))


def _config_case(name):
    cfg = RunConfig.from_file(Path(__file__).parents[1] / "configs" / name)
    g = cfg.build_grid()
    m, omega, kset = cfg.build_medium(g), cfg.build_omega(g), cfg.build_kset(g)
    return g, m, omega, cfg.build_phantom(g, kset), cfg.values["time.T"]


class TestWindow:
    """A trace-only forward steps, in phases, the box of Ω and of the overlap of
    the source's and Ω's physical cones, within Ω ± ceil(c_out T/2h) + 16 nodes;
    the whole box, stepped by ``_ref_forward``, stays its oracle to 1e-13 of the
    trace's peak."""

    @staticmethod
    def _gap(g, m, omega, u, T, cfg=None):
        f = WaveState(u, ScalarField.zeros(g))
        cfg = cfg or SolverConfig.for_time(m, T)
        ref, _ = _ref_forward(f, m, omega, cfg)
        return _peak_gap(forward(f, m, omega, T, cfg).values, ref)

    @pytest.mark.parametrize("name", ["example1.cfg", "example2_skull.cfg"])
    def test_example_phantoms(self, name):
        assert self._gap(*_config_case(name)) <= 1e-13

    @staticmethod
    def _corner_spike(g, omega):
        # the source nearest the box edge, with every frequency the grid carries
        u = ScalarField.zeros(g)
        u.data[omega.params["i0"] + 1, omega.params["j0"] + 1] = 1.0
        return u

    @pytest.mark.parametrize("name", ["example1.cfg", "example2_skull.cfg"])
    def test_spike_on_the_innermost_corner_node(self, name):
        g, m, omega, _, T = _config_case(name)
        assert self._gap(g, m, omega, self._corner_spike(g, omega), T) <= 1e-13

    @pytest.mark.parametrize("name", ["example1.cfg", "example2_skull.cfg"])
    def test_source_on_the_edge_of_kset_off_centre(self, name):
        # the bump is cut off where it meets kset's rim, below and right of its centre
        g, m, omega, _, T = _config_case(name)
        kset = Region.disk(g, (0.0, 0.0), 0.2)
        u = centered_bump(g, kset, sigma=0.02, center=(0.1, -0.08))
        xx, yy = g.meshgrid()
        assert (u.data[np.hypot(xx, yy) > 0.2 - g.h] != 0.0).any()
        assert u.data[g.nearest_node(0.0, 0.0)] == 0.0
        assert self._gap(g, m, omega, u, T) <= 1e-13

    @pytest.mark.parametrize("name", ["example1.cfg", "example2_skull.cfg"])
    def test_source_inside_the_slow_layer(self, name):
        # off kset, inside the innermost disk (c = 0.5 in example1; c = 1 inside
        # example2's c = 2 shell): the source cone grows at c_max regardless
        g, m, omega, _, T = _config_case(name)
        u = centered_bump(g, Region.disk(g, (0.28, 0.2), 0.12), sigma=0.04, center=(0.28, 0.2))
        assert m.c_field[u.data != 0.0].max() < m.c_max
        assert self._gap(g, m, omega, u, T) <= 1e-13

    @pytest.mark.parametrize("name", ["example1.cfg", "example2_skull.cfg"])
    def test_spike_at_the_centre_of_kset(self, name):
        # one node: the narrowest source cone, with every frequency the grid carries
        g, m, omega, _, T = _config_case(name)
        u = ScalarField.zeros(g)
        u.data[g.nearest_node(0.0, 0.0)] = 1.0
        assert self._gap(g, m, omega, u, T) <= 1e-13

    @pytest.mark.parametrize("n_steps", [1, 2, 5, 17])
    def test_fewer_steps_than_phases(self, n_steps):
        # n = 1 leaves no step to schedule
        g, m, omega, kset = example1_setup(N=121, L=4.6)
        cfg = SolverConfig(dt=cfl_dt(m, 0.4), n_steps=n_steps)
        assert self._gap(g, m, omega, centered_bump(g, kset), cfg.T, cfg) <= 1e-13
        f = WaveState(centered_bump(g, kset), 0.5 * centered_bump(g, kset, sigma=0.04))
        values, ref_fin = _ref_forward(f, m, omega, cfg)
        tr, fin = forward(f, m, omega, cfg.T, cfg, return_final=True)
        assert tr.values.tobytes() == values.tobytes()
        assert _states_equal(fin, ref_fin)

    @pytest.mark.parametrize("name", ["example1.cfg", "example2_skull.cfg"])
    def test_step_at_0_9_of_the_stability_bound(self, name):
        # for_time steps at 0.4 of the bound; every solve accepts a dt up to it
        g, m, omega, u, T = _config_case(name)
        dt = cfl_dt(m, 0.9)
        cfg = SolverConfig(dt=dt, n_steps=int(T / dt))
        assert self._gap(g, m, omega, u, cfg.T, cfg) <= 1e-13
        f = WaveState(u, ScalarField.zeros(g))
        assert _states_equal(evolve(f, m, cfg.T, cfg), _ref_evolve(f, m, cfg))

    @pytest.mark.parametrize("layers", [[(1.2, 2.0), (0.5, 1.0)], [(4.5, 1.5), (0.5, 0.5)]])
    def test_fast_layer_outside_the_rectangle(self, layers):
        # c_out = c_max: a fast shell across ∂Ω, and one holding the whole window
        # (a window sized by the background speed 1 misses the second by ~1e-4)
        g = Grid(176, 176, 0.08, origin=(-7.0, -7.0))         # margin 6 = c_max*T
        m = build_medium(layers, g)
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        assert float(m.c_field[~omega.interior_mask].max()) == m.c_max
        assert self._gap(g, m, omega, self._corner_spike(g, omega), 4.0) <= 1e-13


class TestAllocation:
    def test_forward_steps_allocate_under_one_grid_array(self):
        # the time loop reuses its buffers: from step 2 on, the traced peak
        # grows by less than one grid-sized array (temporaries would cost ~4)
        g = Grid(256, 256, 4.0 / 255, origin=(-2.0, -2.0))
        m = build_medium([(0.5, 0.5)], g)
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        f = WaveState(centered_bump(g, Region.disk(g, (0.0, 0.0), 0.2)),
                      ScalarField.zeros(g))
        T = 0.3
        cfg = SolverConfig.for_time(m, T)
        seen = {}

        def on_step(k, n):
            if k == 2:
                tracemalloc.reset_peak()
                seen["base"] = tracemalloc.get_traced_memory()[0]
            elif k == n:
                seen["growth"] = tracemalloc.get_traced_memory()[1] - seen["base"]

        tracemalloc.start()
        try:
            forward(f, m, omega, T, cfg, on_step=on_step)
        finally:
            tracemalloc.stop()
        assert cfg.n_steps > 10
        assert seen["growth"] < g.nx * g.ny * 8

    def test_solves_leave_no_reference_cycle(self):
        # buffers held by a cycle would outlive each solve until the collector
        # runs, and pile up over a series' solves
        g, m, omega, kset = example1_setup(N=121, L=4.6)
        f = WaveState(centered_bump(g, kset), ScalarField.zeros(g))
        cfg = SolverConfig.for_time(m, 1.2)
        gc.collect()
        gc.disable()
        try:
            tr, fin = forward(f, m, omega, 1.2, cfg, return_final=True)
            forward(f, m, omega, 1.2, cfg)
            evolve(f, m, 1.2, cfg, pin_zero=omega, on_sample=lambda k, st: None)
            solve_backward(tr, fin, m, omega)
            exterior_neumann(tr, omega)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLightCone:
    def test_forward_steps_only_the_light_cone(self, monkeypatch):
        # example1: a 256^2 box around a 50x50 rectangle, 354 steps; the full
        # box would step (nx-2) rows of ny nodes at each of the 353 leapfrog steps
        g, m, omega, kset = example1_setup(N=256, L=10.2)
        f = WaveState(centered_bump(g, kset), ScalarField.zeros(g))
        cfg = SolverConfig.for_time(m, 4.0)
        assert cfg.n_steps == 354
        nodes, leap = [], wave_solver._leap

        def counting(out, prev, curr, w, scratch):
            # out runs from node (1, 1) to (rows-2, ny-2): (rows - 2) * ny - 2 nodes
            nodes.append(out.size + 2)
            leap(out, prev, curr, w, scratch)

        monkeypatch.setattr(wave_solver, "_leap", counting)
        full = (g.nx - 2) * g.ny * (cfg.n_steps - 1)
        forward(f, m, omega, 4.0, cfg)
        assert len(nodes) == cfg.n_steps - 1
        assert sum(nodes) <= 0.30 * full          # both cones, in 2-D boxes
        nodes.clear()
        forward(f, m, omega, 4.0, cfg, return_final=True)
        assert len(nodes) == cfg.n_steps - 1
        assert sum(nodes) <= 0.81 * full          # the discrete cone: the final state is exact


def _ref_first_failure(prev, curr, c_sq, h, dt, steps, where):
    """The per-step check of the reference loop: its InstabilityError text, or None."""
    prev, curr, nxt = prev.copy(), curr.copy(), np.zeros_like(prev)
    for k in steps:
        _ref_leap_into(nxt, prev, curr, c_sq, h, dt)
        if not np.all(np.isfinite(nxt)):
            return f"non-finite values appeared at {where} {k}"
        prev, curr, nxt = curr, nxt, prev
    return None


class TestReplay:
    """A run is checked once, on its last level; a failed run is replayed to name
    the step at which the reference loop, checking every step, stops."""

    @staticmethod
    def _unstable(n=21, ratio=1.5):
        # dt at 1.5 times the stability bound: the checkerboard mode grows ~7x a step
        g = Grid(n, n, 0.05, origin=(-0.5, -0.5))
        m = build_medium([(0.3, 0.7)], g)
        dt = ratio * g.h / (m.c_max * math.sqrt(2.0))
        prev, curr = random_field(g, 4).data, random_field(g, 5).data
        prev[[0, -1], :] = prev[:, [0, -1]] = curr[[0, -1], :] = curr[:, [0, -1]] = 0.0
        return g, m, dt, prev, curr

    def test_march_names_the_failing_step(self):
        g, m, dt, prev, curr = self._unstable()
        steps = range(2, 600)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _ref_first_failure(prev, curr, m.c_sq, g.h, dt, steps, "step")
            assert want is not None and not want.endswith(" 599")
            schedule = [(steps, wave_solver._whole(prev))]
            with pytest.raises(InstabilityError) as err:
                wave_solver._march((prev, curr), m.c_sq, g.h, dt, schedule, "step")
        assert str(err.value) == want

    def test_pinned_backward_solve_names_the_failing_step(self):
        # a trace at the float64 limit at one mid-run step: the pinned ring is
        # finite, and the step after it overflows next to the ring's corners,
        # so the replay must pin the trace as the first pass did
        g, m, omega, kset = example1_setup(N=121, L=4.6)
        n = SolverConfig.for_time(m, 1.2).n_steps
        values = np.zeros((n + 1, omega.boundary_nodes[0].size))
        values[n // 2] = 1.7e308
        tr = BoundaryTrace(omega.boundary_coords, SolverConfig.for_time(m, 1.2).dt, values)
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for solve in (solve_backward, _ref_solve_backward):
                with pytest.raises(InstabilityError) as err:
                    solve(tr, WaveState.zeros(g), m, omega)
                errors.append(str(err.value))
        assert errors == [f"non-finite values appeared at backward step {n // 2 - 1}"] * 2

    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_march_boxes_names_the_failing_step_of_a_middle_run(self, place):
        g, m, dt, prev, curr = self._unstable()
        with np.errstate(over="ignore", invalid="ignore"):
            want = _ref_first_failure(prev, curr, m.c_sq, g.h, dt, range(2, 600), "step")
            k = int(want.split()[-1])
            # the failing step opens, sits inside or closes the middle of three runs
            lo, hi = {"first": (k, k + 9), "middle": (k - 5, k + 5), "last": (k - 9, k + 1)}[place]
            box = (0, g.nx - 1, 0, g.ny - 1)
            schedule = [(range(2, lo), box), (range(lo, hi), box), (range(hi, hi + 30), box)]
            seen = []

            def record_at(r0, c0, ny):
                return lambda step, curr, prev: seen.append(step)

            with pytest.raises(InstabilityError) as err:
                wave_solver._march((prev, curr), m.c_sq, g.h, dt, schedule, "step",
                                   record_at=record_at)
        assert str(err.value) == want
        # both runs were recorded whole before the check of the second; the
        # replay records nothing and the third run never starts
        assert seen == list(range(2, hi))

    def test_replay_starts_from_the_seeded_levels_it_only_read(self):
        g, m, dt, prev, curr = self._unstable()
        seeded = prev.copy(), curr.copy()
        box = wave_solver._whole(prev)
        schedule = [(range(2, 20), box), (range(20, 600), box)]
        with np.errstate(over="ignore", invalid="ignore"):
            want = _ref_first_failure(prev, curr, m.c_sq, g.h, dt, range(2, 600), "step")
            assert int(want.split()[-1]) >= 20          # the second run fails
            with pytest.raises(InstabilityError, match=f"^{want}$"):
                wave_solver._march((prev, curr), m.c_sq, g.h, dt, schedule, "step")
        assert np.array_equal(prev, seeded[0]) and np.array_equal(curr, seeded[1])


class TestPaste:
    """A box copies its source where they overlap; its ring stays zero but on the
    sides it shares with the source's ring."""

    @staticmethod
    def _paste(dst_at, shape, src, src_at=(0, 0)):
        dst = np.full(shape, 7.0)
        wave_solver._paste(dst, dst_at, src, src_at)
        return dst

    def test_a_box_keeps_the_side_it_shares_with_its_source(self):
        src = np.arange(1.0, 43.0).reshape(6, 7)
        # rows 0..3 share the source's top ring row; columns 2..5 lie inside it
        want = np.zeros((4, 4))
        want[:-1, 1:-1] = src[:3, 3:5]
        assert np.array_equal(self._paste((0, 2), (4, 4), src), want)
        # the whole array shares every side: a copy, ring and all
        assert np.array_equal(self._paste((0, 0), src.shape, src), src)

    def test_a_ring_inside_the_source_is_zero_even_over_nan(self):
        src = np.full((8, 8), np.nan)
        src[2:6, 2:6] = 1.0
        # dst's ring is the source's NaN band at rows and columns 1 and 6
        dst = self._paste((1, 1), (6, 6), src)
        want = np.zeros((6, 6))
        want[1:-1, 1:-1] = 1.0
        assert np.array_equal(dst, want)

    def test_disjoint_boxes_paste_zeros(self):
        src = np.ones((5, 5))
        assert np.array_equal(self._paste((9, 2), (4, 4), src), np.zeros((4, 4)))
        assert np.array_equal(self._paste((0, 0), (4, 4), src, (3, 5)), np.zeros((4, 4)))


class TestSolverIdentities:
    """Random small rectangles, one layer and T: the backward solve inverts the
    forward one, and the light-cone trace is the whole box's."""

    @given(size=st.tuples(st.integers(8, 20), st.integers(8, 20)),
           at=st.tuples(st.floats(0.25, 0.75), st.floats(0.25, 0.75)),
           layer=st.tuples(st.floats(0.1, 0.6), st.floats(0.5, 0.9) | st.floats(1.1, 2.0)),
           T=st.floats(0.1, 0.8))
    @settings(max_examples=20, deadline=None)
    def test_backward_inverts_forward_and_cones_match_the_box(self, size, at, layer, T):
        h, (lx, ly) = 0.05, size
        # the margin rule at the faster of the two speeds, which bounds c_out
        pad = math.ceil(max(1.0, layer[1]) * T / (2 * h)) + 17
        # Omega is [pad, pad + lx] x [pad, pad + ly]; the layer's centre, the
        # origin, sits at the fraction ``at`` of it
        ox, oy = (-(pad + f * n) * h for f, n in zip(at, size))
        g = Grid(lx + 1 + 2 * pad, ly + 1 + 2 * pad, h, origin=(ox, oy))
        m = build_medium([layer], g)
        omega = Region.rectangle(g, pad, pad + lx, pad, pad + ly)
        centre = g.node_position(pad + lx // 2, pad + ly // 2)
        kset = Region.disk(g, centre, 0.35 * h * min(lx, ly))
        f = WaveState(centered_bump(g, kset, sigma=0.08 * h * min(lx, ly), center=centre),
                      0.5 * centered_bump(g, kset, sigma=0.06 * h * min(lx, ly), center=centre))
        cfg = SolverConfig.for_time(m, T)
        tr, fin = forward(f, m, omega, T, cfg, return_final=True)
        assert _peak_gap(forward(f, m, omega, T, cfg).values, tr.values) <= 1e-13
        back = solve_backward(tr, fin, m, omega)
        inside, scale = omega.mask, np.max(np.abs(f.u.data))
        assert np.max(np.abs(back.u.data - f.u.data)[inside]) <= 1e-10 * scale
        assert np.max(np.abs(back.ut.data - f.ut.data)[omega.interior_mask]) <= 1e-10 * scale
