import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from thermotomo import recon
from thermotomo.config import RunConfig
from thermotomo.errors import ConfigurationError, DegenerateInputError
from thermotomo.grid_field import (
    Grid,
    Region,
    ScalarField,
    WaveState,
    energy,
    harmonic_extension,
    hd_norm,
    l2_norm,
    make_phantom,
    project_HD,
)
from thermotomo.medium import build_medium, uniform_medium
from thermotomo.recon import (
    SEED_SMOOTH_SIGMA,
    ReconConfig,
    _gaussian,
    _non_contraction,
    _random_zero_trace_field,
    apply_error_operator,
    energy_decay_ratio,
    estimate_contraction,
    neumann_series,
    pseudo_inverse_step,
    time_reverse,
)
from thermotomo.wave_solver import BoundaryTrace, forward, solve_backward

from conftest import centered_bump, example1_setup


def visible_case(N=201, L=9.2, T=3.5, m_max=6):
    g, m, omega, kset = example1_setup(N=N, L=L)
    cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=T, m_max=m_max, tol_rel=0.0,
                      harmonic_tol=1e-12)
    return g, m, cfg


def measure(g, m, cfg, f1):
    return forward(WaveState(f1, ScalarField.zeros(g)), m, cfg.omega, cfg.T,
                   cfg.solver_config())


class TestReconConfig:
    def test_kset_must_sit_inside_omega(self):
        g, m, omega, _ = example1_setup()
        big = Region.disk(g, (0.0, 0.0), 1.5)
        with pytest.raises(ConfigurationError):
            ReconConfig(medium=m, omega=omega, kset=big, T=1.0)

    def test_tol_rel_must_be_non_negative(self):
        g, m, omega, kset = example1_setup()
        assert ReconConfig(medium=m, omega=omega, kset=kset, T=1.0, tol_rel=0.0).tol_rel == 0.0
        for bad in (-1.0, math.nan):
            with pytest.raises(ConfigurationError, match="tol_rel"):
                ReconConfig(medium=m, omega=omega, kset=kset, T=1.0, tol_rel=bad)

    def test_kset_needs_interface_clearance(self):
        g, m, omega, _ = example1_setup()
        hugging = Region.disk(g, (0.0, 0.0), 0.5 - 1.5 * g.h)
        with pytest.raises(ConfigurationError):
            ReconConfig(medium=m, omega=omega, kset=hugging, T=1.0)

    @pytest.mark.parametrize("radius_gap, band", [(2.1, (1.5, 2.0)), (2.9, (2.0, 3.0))])
    def test_interface_clearance_is_exactly_2h(self, radius_gap, band):
        # a kset node 1.5h-2h from the interface is rejected, one 2h-3h away accepted
        g, m, omega, _ = example1_setup()
        kset = Region.disk(g, (0.0, 0.0), 0.5 - radius_gap * g.h)
        ii, jj = np.nonzero(kset.mask)
        clearance = np.min(np.abs(np.hypot(g.xs[ii], g.ys[jj]) - 0.5)) / g.h
        assert band[0] <= clearance < band[1]
        if clearance < 2.0:
            with pytest.raises(ConfigurationError, match="within 2h"):
                ReconConfig(medium=m, omega=omega, kset=kset, T=1.0)
        else:
            ReconConfig(medium=m, omega=omega, kset=kset, T=1.0)

    def test_frozen(self):
        # the checked problem cannot be changed after construction
        g, m, omega, kset = example1_setup()
        cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.T = 2.0


def trace_on_steps(cfg, n):
    """A zero trace on omega that covers cfg.T in n steps."""
    return BoundaryTrace(points=cfg.omega.boundary_coords, dt=cfg.T / n,
                         values=np.zeros((n + 1, cfg.omega.boundary_nodes[0].size)))


@pytest.mark.parametrize("step", [time_reverse, pseudo_inverse_step])
@pytest.mark.parametrize("extra", [-1, 1])
def test_trace_on_another_time_grid_rejected(step, extra):
    # the trace covers T but not on the solver config's steps
    g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
    n = cfg.solver_config().n_steps
    step(trace_on_steps(cfg, n), cfg)
    with pytest.raises(ConfigurationError, match=f"over {n + extra} steps, the solver config"):
        step(trace_on_steps(cfg, n + extra), cfg)


class TestTimeReverse:
    def test_zero_trace_gives_zero(self):
        g, m, cfg = visible_case()
        n = cfg.solver_config().n_steps
        tr = BoundaryTrace(points=cfg.omega.boundary_coords,
                           dt=cfg.solver_config().dt,
                           values=np.zeros((n + 1, cfg.omega.boundary_nodes[0].size)))
        out = time_reverse(tr, cfg)
        assert np.all(out.u.data == 0.0) and np.all(out.ut.data == 0.0)

    def test_uses_harmonic_cauchy_data(self):
        # time_reverse must coincide with a backward solve seeded by [phi, 0]
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        f1 = centered_bump(g, cfg.kset)
        tr = measure(g, m, cfg, f1)
        out = time_reverse(tr, cfg)
        phi = harmonic_extension(tr.values[-1], cfg.omega, cfg.harmonic_tol)
        # the harmonic residual meets the configured tolerance
        d = phi.data
        stencil = (d[2:, 1:-1] + d[:-2, 1:-1] + d[1:-1, 2:] + d[1:-1, :-2]
                   - 4 * d[1:-1, 1:-1])[cfg.omega.interior_mask[1:-1, 1:-1]]
        assert np.max(np.abs(stencil)) <= cfg.harmonic_tol * max(
            1.0, np.max(np.abs(tr.values[-1])))
        ref = solve_backward(tr, WaveState(phi, ScalarField.zeros(g)), m, cfg.omega)
        assert np.allclose(out.u.data, ref.u.data, atol=1e-14)
        assert np.allclose(out.ut.data, ref.ut.data, atol=1e-14)

    def test_harmonic_data_minimizes_energy(self):
        # among Cauchy pairs [phi + delta, 0] with zero-trace delta, the
        # harmonic extension has minimal energy
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        f1 = centered_bump(g, cfg.kset)
        tr = measure(g, m, cfg, f1)
        phi = harmonic_extension(tr.values[-1], cfg.omega, 1e-12)
        e_phi = energy(WaveState(phi, ScalarField.zeros(g)), cfg.omega, m)
        rng = np.random.default_rng(3)
        for _ in range(10):
            delta = np.zeros(g.shape)
            delta[cfg.omega.interior_mask] = rng.standard_normal(
                int(cfg.omega.interior_mask.sum()))
            cand = WaveState(ScalarField(g, phi.data + delta), ScalarField.zeros(g))
            assert energy(cand, cfg.omega, m) >= e_phi - 1e-9 * e_phi


class TestPseudoInverseStep:
    def test_zero_trace(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        scfg = cfg.solver_config()
        tr = BoundaryTrace(points=cfg.omega.boundary_coords, dt=scfg.dt,
                           values=np.zeros((scfg.n_steps + 1,
                                            cfg.omega.boundary_nodes[0].size)))
        out = pseudo_inverse_step(tr, cfg)
        assert np.all(out.data == 0.0)

    def test_zero_trace_on_kset_boundary(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        f1 = centered_bump(g, cfg.kset)
        out = pseudo_inverse_step(measure(g, m, cfg, f1), cfg)
        assert np.all(out.data[cfg.kset.boundary_nodes] == 0.0)
        assert np.all(out.data[~cfg.kset.mask] == 0.0)

    def test_additive_in_the_trace(self):
        # the composed map trace -> projected first term is linear
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        h1 = measure(g, m, cfg, centered_bump(g, cfg.kset, sigma=0.05, center=(0.04, 0.0)))
        h2 = measure(g, m, cfg, centered_bump(g, cfg.kset, sigma=0.04, center=(-0.03, 0.05)))
        lhs = pseudo_inverse_step(h1 + h2, cfg)
        rhs = pseudo_inverse_step(h1, cfg) + pseudo_inverse_step(h2, cfg)
        scale = max(hd_norm(rhs, cfg.kset), 1e-300)
        assert hd_norm(lhs - rhs, cfg.kset) / scale <= 1e-10

    def test_first_term_recovers_most_of_f(self):
        # uniform speed, T far beyond the escape time: the first series term
        # already lands within 50 percent; the converged series is the oracle
        g = Grid(201, 201, 7.2 / 200, origin=(-3.6, -3.6))
        m = uniform_medium(g)
        omega = Region.rectangle_from_physical(g, -0.5, 0.5, -0.5, 0.5)
        kset = Region.disk(g, (0.0, 0.0), 0.15)
        cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=3.0, m_max=8, tol_rel=0.0,
                          harmonic_tol=1e-12)
        f1 = centered_bump(g, kset, sigma=0.04)
        tr = measure(g, m, cfg, f1)
        first = pseudo_inverse_step(tr, cfg)
        rel_first = hd_norm(first - f1, kset) / hd_norm(f1, kset)
        assert rel_first < 0.5
        _, rep = neumann_series(tr, cfg, truth=f1)
        assert rep.iterates[-1].err_hd < rel_first


def assert_matches_composition(h, cfg):
    # the paper's composition Pi_K A_1 h, A_1 = time_reverse seeded by [phi, 0]
    want = project_HD(time_reverse(h, cfg).u, cfg.kset, cfg.harmonic_tol)
    got = pseudo_inverse_step(h, cfg)
    assert hd_norm(want, cfg.kset) > 0
    assert hd_norm(got - want, cfg.kset) <= 1e-12 * hd_norm(want, cfg.kset)


def example_run(name):
    """The grid, medium, recon config and phantom of configs/<name>.cfg."""
    run = RunConfig.from_file(Path(__file__).parents[1] / "configs" / f"{name}.cfg")
    g = run.build_grid()
    m, kset = run.build_medium(g), run.build_kset(g)
    return g, m, run.recon_config(m, run.build_omega(g), kset), run.build_phantom(g, kset)


class TestFromRest:
    """pseudo_inverse_step solves from rest with data h - h(T): phi is a static
    solution of the leapfrog and harmonic at kset's nodes, which lie inside
    omega's interior, so its projection is zero and omega is never factored."""

    # 1-3 bumps (offset as a fraction of the room their 3-sigma clearance
    # leaves, angle, sigma, amplitude) inside example1_setup's kset
    @given(bumps=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(0.035, 0.06),
                  st.floats(0.25, 1.0) | st.floats(-1.0, -0.25)),
        min_size=1, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_matches_the_harmonic_composition(self, bumps):
        g, m, omega, kset = example1_setup()
        cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=1.2)
        data, room = np.zeros(g.shape), kset.params["radius"]
        for offset, angle, sigma, amplitude in bumps:
            r = offset * (room - 3 * sigma)
            centre = (r * math.cos(angle), r * math.sin(angle))
            data += amplitude * centered_bump(g, kset, sigma, centre).data
        assert_matches_composition(measure(g, m, cfg, ScalarField(g, data)), cfg)

    @pytest.mark.parametrize("name", ["example1", "example2_skull"])
    def test_matches_the_harmonic_composition_on_the_examples(self, name):
        g, m, cfg, f1 = example_run(name)
        assert_matches_composition(measure(g, m, cfg, f1), cfg)

    def test_series_never_factors_omega(self):
        # the example1 series projects on kset, whose system is factored, but
        # never extends harmonically on omega
        g, m, cfg, f1 = example_run("example1")
        _, rep = neumann_series(measure(g, m, cfg, f1), cfg)
        assert len(rep.iterates) > 1
        assert cfg.kset._harmonic_system is not None
        assert cfg.omega._harmonic_system is None


class TestErrorOperator:
    def test_zero_input(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        out = apply_error_operator(ScalarField.zeros(g), cfg)
        assert np.all(out.data == 0.0)

    def test_contracts_on_visible_config(self):
        g, m, cfg = visible_case()
        f1 = project_HD(centered_bump(g, cfg.kset), cfg.kset, cfg.harmonic_tol)
        kf = apply_error_operator(f1, cfg)
        assert hd_norm(kf, cfg.kset) < hd_norm(f1, cfg.kset)

    def test_linearity(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        a = project_HD(centered_bump(g, cfg.kset, sigma=0.05, center=(0.05, 0.0)),
                       cfg.kset, 1e-12)
        b = project_HD(centered_bump(g, cfg.kset, sigma=0.04, center=(-0.04, 0.03)),
                       cfg.kset, 1e-12)
        lhs = apply_error_operator(2.0 * a - 3.0 * b, cfg)
        rhs = 2.0 * apply_error_operator(a, cfg) - 3.0 * apply_error_operator(b, cfg)
        scale = max(hd_norm(lhs, cfg.kset), 1e-300)
        assert hd_norm(lhs - rhs, cfg.kset) / scale <= 1e-9


class TestNeumannSeries:
    def test_zero_trace_converges_immediately(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        scfg = cfg.solver_config()
        tr = BoundaryTrace(points=cfg.omega.boundary_coords, dt=scfg.dt,
                           values=np.zeros((scfg.n_steps + 1,
                                            cfg.omega.boundary_nodes[0].size)))
        rec, rep = neumann_series(tr, cfg)
        assert np.all(rec.data == 0.0)
        assert rep.converged and len(rep.iterates) == 1
        assert rep.mu_hat == 0.0

    def test_error_decreases_monotonically(self):
        g, m, cfg = visible_case()
        f1 = centered_bump(g, cfg.kset)
        rec, rep = neumann_series(measure(g, m, cfg, f1), cfg, truth=f1)
        errs = [t.err_hd for t in rep.iterates]
        assert all(b <= a * (1 + 1e-3) for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]

    def test_partial_sum_identity(self):
        # residual-update iterates equal the partial sums of explicit K powers
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2, m_max=4)
        f1 = centered_bump(g, cfg.kset)
        h = measure(g, m, cfg, f1)
        series_terms = []
        neumann_series(h, cfg, on_term=lambda stats, f: series_terms.append(f.copy()))
        power = pseudo_inverse_step(h, cfg)   # K^0 b
        partial = power.copy()
        explicit = [partial.copy()]
        for _ in range(len(series_terms) - 1):
            power = apply_error_operator(power, cfg)
            partial = partial + power
            explicit.append(partial.copy())
        for k in (1, 2, 3):
            scale = max(hd_norm(series_terms[k], cfg.kset), 1e-300)
            diff = hd_norm(series_terms[k] - explicit[k], cfg.kset)
            assert diff / scale <= 1e-8
        # project_HD leaves every iterate zero outside kset; the series adds nothing there
        for f in series_terms:
            assert not f.data[~cfg.kset.mask].any()

    def test_non_contraction_detector(self):
        assert _non_contraction([1.0, 1.1, 1.2, 1.3])
        assert not _non_contraction([1.0, 0.9, 1.1, 0.8, 1.2])
        assert not _non_contraction([1.0, 0.5, 0.25])

    def test_visible_run_reports_no_warning(self):
        g, m, cfg = visible_case()
        f1 = centered_bump(g, cfg.kset)
        _, rep = neumann_series(measure(g, m, cfg, f1), cfg)
        assert not rep.non_contraction_warning

    def test_geometric_envelope(self):
        g, m, cfg = visible_case()
        mu = estimate_contraction(cfg, n_power_iters=8, seed=1)
        f1 = centered_bump(g, cfg.kset)
        _, rep = neumann_series(measure(g, m, cfg, f1), cfg, truth=f1)
        errs = [t.err_hd for t in rep.iterates]
        c0 = max(errs[k] / mu ** k for k in (1, 2, 3))
        assert all(errs[k] <= 2.0 * c0 * mu ** k for k in range(1, len(errs)))


class TestSkullModel:
    def test_series_converges_through_two_interfaces(self):
        # brain disk (c = 1) inside a fast shell (c = 2): rays leaving the
        # shell always transmit, so a small central source region is visible
        T, L, N = 2.5, 12.4, 311          # margin c_max*T = 5 beyond the square
        g = Grid(N, N, L / (N - 1), origin=(-L / 2, -L / 2))
        m = build_medium([(0.8, 2.0), (0.5, 1.0)], g)
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        kset = Region.disk(g, (0.0, 0.0), 0.2)
        cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=T, m_max=5, tol_rel=0.0,
                          harmonic_tol=1e-12)
        f1 = centered_bump(g, kset, sigma=0.05, center=(0.03, -0.02))
        tr = measure(g, m, cfg, f1)
        assert energy_decay_ratio(f1, cfg) < 0.5
        _, rep = neumann_series(tr, cfg, truth=f1)
        errs = [t.err_hd for t in rep.iterates]
        assert all(b <= a * (1 + 1e-3) for a, b in zip(errs, errs[1:]))
        assert rep.iterates[-1].err_l2 < 0.02


class TestContractionEstimate:
    def test_visible_config_below_one(self):
        g, m, cfg = visible_case()
        mu = estimate_contraction(cfg, n_power_iters=6, seed=1)
        assert 0.0 < mu < 1.0

    def test_uniform_fast_escape(self):
        # c = 1 and T beyond twice the diameter: the resolved band escapes
        # completely; the surrogate floor comes from grid-scale modes
        g = Grid(201, 201, 7.2 / 200, origin=(-3.6, -3.6))
        m = uniform_medium(g)
        omega = Region.rectangle_from_physical(g, -0.5, 0.5, -0.5, 0.5)
        kset = Region.disk(g, (0.0, 0.0), 0.15)
        cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=3.0, harmonic_tol=1e-12)
        mu = estimate_contraction(cfg, n_power_iters=6, seed=3)
        assert mu < 0.65

    def test_deterministic_given_seed(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        a = estimate_contraction(cfg, n_power_iters=5, seed=9)
        b = estimate_contraction(cfg, n_power_iters=5, seed=9)
        assert a == b

    def test_ratio_invariant_under_scaling(self):
        # K is linear, so the measured ratio is homogeneous of degree zero
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        f1 = project_HD(centered_bump(g, cfg.kset), cfg.kset, 1e-12)
        r1 = hd_norm(apply_error_operator(f1, cfg), cfg.kset) / hd_norm(f1, cfg.kset)
        f2 = 37.5 * f1
        r2 = hd_norm(apply_error_operator(f2, cfg), cfg.kset) / hd_norm(f2, cfg.kset)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_too_few_iterations_rejected(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        with pytest.raises(ConfigurationError):
            estimate_contraction(cfg, n_power_iters=4)

    @pytest.mark.parametrize("sigma", [SEED_SMOOTH_SIGMA, 0.7])
    @pytest.mark.parametrize("shape", [(256, 256), (384, 384), (40, 60), (3, 3)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_seed_gaussian_matches_scipy_bit_for_bit(self, shape, sigma):
        # half the nodes zeroed, as outside kset; 3x3 is narrower than the
        # kernel radius (12 at SEED_SMOOTH_SIGMA), so the reflection repeats
        rng = np.random.default_rng(shape[0] + shape[1])
        data = rng.standard_normal(shape)
        data[rng.random(shape) < 0.5] = 0.0
        assert np.array_equal(_gaussian(data, sigma), gaussian_filter(data, sigma))


class TestEnergyDecay:
    def test_visible_below_one(self):
        g, m, cfg = visible_case()
        f1 = centered_bump(g, cfg.kset)
        assert energy_decay_ratio(f1, cfg) < 1.0

    def test_uniform_fast_escape_tiny(self):
        g = Grid(201, 201, 7.2 / 200, origin=(-3.6, -3.6))
        m = uniform_medium(g)
        omega = Region.rectangle_from_physical(g, -0.5, 0.5, -0.5, 0.5)
        kset = Region.disk(g, (0.0, 0.0), 0.15)
        cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=3.0, harmonic_tol=1e-12)
        f1 = centered_bump(g, kset, sigma=0.04)
        assert energy_decay_ratio(f1, cfg) < 0.05

    def test_trapped_ring_retains_energy(self):
        # sources hugging the slow disk emit mostly beyond the critical angle;
        # a kset radius of 0.478 keeps the 2h interface clearance ReconConfig requires
        N, L, T = 512, 4.1, 1.0
        g = Grid(N, N, L / (N - 1), origin=(-L / 2, -L / 2))
        m = build_medium([(0.5, 0.5)], g)
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        kset = Region.disk(g, (0.0, 0.0), 0.478)
        cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=T, harmonic_tol=1e-12)
        r0, nb, sig = 0.445, 8, 0.010
        bumps = [((r0 * np.cos(2 * np.pi * k / nb), r0 * np.sin(2 * np.pi * k / nb)), sig)
                 for k in range(nb)]
        ph = make_phantom("sum_of_bumps", {"bumps": bumps}, g, kset)
        assert energy_decay_ratio(ph, cfg) > 0.5

    def test_zero_energy_rejected(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        with pytest.raises(DegenerateInputError):
            energy_decay_ratio(ScalarField.zeros(g), cfg)

    def test_support_outside_kset_rejected(self):
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        f = ScalarField.zeros(g)
        f.data[g.nearest_node(0.7, 0.0)] = 1.0
        with pytest.raises(ConfigurationError):
            energy_decay_ratio(f, cfg)

    def test_nan_outside_kset_rejected(self):
        # a NaN inside omega but outside kset passed the support check
        # (|NaN| > 0 is false) and failed in the solve as an InstabilityError
        g, m, cfg = visible_case(N=161, L=4.6, T=1.2)
        f = ScalarField.zeros(g)
        f.data[g.nearest_node(0.7, 0.0)] = math.nan
        with pytest.raises(ConfigurationError, match="supported in kset"):
            energy_decay_ratio(f, cfg)

    def test_diagnostics_consistency(self, monkeypatch):
        # the contraction estimate obeys mu_hat <= sqrt(max edr) + 0.1 when the
        # power iterate itself is among the tested sources
        g, m, cfg = visible_case()
        iterates = []

        def keep(f, cfg):
            iterates.append(apply_error_operator(f, cfg))
            return iterates[-1]

        monkeypatch.setattr(recon, "apply_error_operator", keep)
        mu = estimate_contraction(cfg, n_power_iters=8, seed=1)
        field = iterates[-1] * (1.0 / mu)           # the last iterate, normalized
        tested = [centered_bump(g, cfg.kset),
                  centered_bump(g, cfg.kset, sigma=0.04, center=(0.05, -0.05)),
                  field]
        edrs = [energy_decay_ratio(f, cfg) for f in tested]
        assert mu <= np.sqrt(max(edrs)) + 0.1


class TestEnergyEstimate:
    """The paper's estimate ||K f||_D <= sqrt(E_Omega(T) / E(0)) ||f||_D on the
    example configs, for the phantom projected to zero trace, for the smoothed
    noise that seeds ``knorm``, and for that seed after ``powers`` normalized
    applications of K, where the two sides nearly meet."""

    @pytest.mark.parametrize("name, seed, powers, ratio, bound", [
        ("example1", None, 0, 0.1790, 0.3575),
        ("example1", 0, 0, 0.1597, 0.3059),
        ("example1", 1, 0, 0.1748, 0.3260),
        ("example2_skull", None, 0, 0.0986, 0.2844),
        ("example1", 42, 20, 0.9623, 0.9760),
    ], ids=["example1_phantom", "example1_seed0", "example1_seed1", "example2_phantom",
            "example1_power20"])
    def test_error_operator_obeys_the_energy_bound(self, name, seed, powers, ratio, bound):
        run = RunConfig.from_file(Path(__file__).parents[1] / "configs" / f"{name}.cfg")
        g = run.build_grid()
        m, kset = run.build_medium(g), run.build_kset(g)
        cfg = run.recon_config(m, run.build_omega(g), kset)
        if seed is None:
            f = project_HD(run.build_phantom(g, kset), kset, cfg.harmonic_tol)
        else:
            f = _random_zero_trace_field(cfg, seed)
        for _ in range(powers):
            f = apply_error_operator(f * (1.0 / hd_norm(f, kset)), cfg)
        k_ratio = hd_norm(apply_error_operator(f, cfg), kset) / hd_norm(f, kset)
        energy_bound = math.sqrt(energy_decay_ratio(f, cfg))
        assert k_ratio <= energy_bound
        assert (k_ratio, energy_bound) == (pytest.approx(ratio, abs=1e-3),
                                           pytest.approx(bound, abs=1e-3))

    # smoothed noise on kset, or 1-3 bumps (offset as a fraction of the room
    # their 3-sigma clearance leaves, angle, sigma, amplitude) inside it
    @given(field=st.one_of(
        st.tuples(st.just("noise"), st.integers(0, 2 ** 32 - 1), st.floats(1.0, 4.0)),
        st.tuples(st.just("bumps"), st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(0.035, 0.06),
                      st.floats(0.25, 1.0) | st.floats(-1.0, -0.25)),
            min_size=1, max_size=3))))
    @settings(max_examples=20, deadline=None)
    def test_energy_bound_holds_where_the_source_is_visible(self, field):
        # visible_case (T = 3.5) leaves the bound slack; on example1_setup's
        # defaults (T = 1.2) sampled bump sums exceed it by up to 1.9e-3
        g, m, cfg = visible_case()
        kset, data = cfg.kset, np.zeros(g.shape)
        if field[0] == "noise":
            _, seed, sigma = field
            data[kset.mask] = np.random.default_rng(seed).standard_normal(int(kset.mask.sum()))
            data = _gaussian(data, sigma)
        else:
            room = kset.params["radius"]
            for offset, angle, sigma, amplitude in field[1]:
                r = offset * (room - 3 * sigma)
                centre = (r * math.cos(angle), r * math.sin(angle))
                data += amplitude * centered_bump(g, kset, sigma, centre).data
        f = project_HD(ScalarField(g, data), kset, cfg.harmonic_tol)
        k_ratio = hd_norm(apply_error_operator(f, cfg), kset) / hd_norm(f, kset)
        assert k_ratio <= math.sqrt(energy_decay_ratio(f, cfg))
