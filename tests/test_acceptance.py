"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np
from scipy.ndimage import distance_transform_edt

from thermotomo.grid_field import (
    Grid,
    Region,
    ScalarField,
    WaveState,
    dirichlet_energy,
    energy,
    harmonic_extension,
    hd_norm,
    make_phantom,
    project_HD,
)
from thermotomo.medium import InterfaceDescriptor, build_medium, critical_angle, uniform_medium
from thermotomo.rays import (
    amplitude_coeffs,
    check_visibility,
    energy_split,
    normal_phase_derivatives,
    snell_transmit,
)
from thermotomo.recon import ReconConfig, energy_decay_ratio, estimate_contraction
from thermotomo.wave_solver import (
    SolverConfig,
    cfl_dt,
    evolve,
    exterior_neumann,
    forward,
    _march,
    _seed,
    _whole,
)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def example1(N, L=10.2, T=4.0, m_max=8):
    g = Grid(N, N, L / (N - 1), origin=(-L / 2, -L / 2))
    m = build_medium([(0.5, 0.5)], g)
    omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
    kset = Region.disk(g, (0.0, 0.0), 0.2)
    cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=T, m_max=m_max, tol_rel=0.0,
                      harmonic_tol=1e-12)
    return g, m, omega, kset, cfg


def test_criterion_1_interface_formula_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_checked = 0
    while n_checked < 1000:
        c_in = rng.uniform(0.3, 3.0)
        c_out = rng.uniform(0.3, 3.0)
        if abs(c_in - c_out) < 1e-3:
            continue
        alpha = rng.uniform(1e-3, math.pi / 2 - 1e-3)
        if c_in < c_out and alpha >= math.asin(c_in / c_out) - 1e-6:
            continue   # admissible means a transmitted branch exists
        a, b = normal_phase_derivatives(alpha, c_in, c_out)
        b_r, b_t = amplitude_coeffs(a, b)
        worst = max(worst, abs(b_t - b_r - 1.0))
        worst = max(worst, abs(b_r ** 2 + energy_split(a, b) - 1.0))
        d = np.array([math.sin(alpha), -math.cos(alpha)])
        out = snell_transmit(d, np.array([0.0, 1.0]), c_in, c_out)
        sin_b = abs(float(out[0]))
        worst = max(worst, abs(math.sin(alpha) / c_in - sin_b / c_out))
        if c_in < c_out:
            a0 = critical_angle(InterfaceDescriptor(1.0, c_in, c_out))
            worst = max(worst, abs(math.sin(a0) * c_out - c_in))
        n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"interface formulas on 1000 samples, max defect {worst:.2e}, "
                   f"runtime {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_fd_vs_optics_energy_split():
    t0 = time.perf_counter()
    N, L, R = 512, 9.0, 3.0
    g = Grid(N, N, L / (N - 1), origin=(-L / 2, -L / 2))
    m = build_medium([(R, 2.0)], g)
    sig, plateau, taper_end, T = 0.04, 0.5, 0.9, 0.95
    x0 = -R - 5 * sig - 0.05
    xx, yy = g.meshgrid()
    w = np.clip((taper_end - np.abs(yy)) / (taper_end - plateau), 0.0, 1.0)
    w = 0.5 - 0.5 * np.cos(np.pi * w)
    ax = np.exp(-0.5 * ((xx - x0) / sig) ** 2)
    u0 = ax * w
    ut0 = (xx - x0) / sig ** 2 * ax * w     # right-moving pulse at unit speed
    cut = np.abs(xx - x0) > 5 * sig
    u0[cut] = 0.0
    ut0[cut] = 0.0
    box = Region.rectangle(g, 2, N - 3, 2, N - 3)
    state = WaveState(ScalarField(g, u0), ScalarField(g, ut0))
    e0 = energy(state, box, m)
    fin = evolve(state, m, T, SolverConfig.for_time(m, T))
    frac = energy(fin, Region.disk(g, (0.0, 0.0), R - 0.1), m) / e0
    target = 8.0 / 9.0
    rel_err = abs(frac - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 0.08 and elapsed < 120
    _report(2, ok, f"measured transmitted fraction {frac:.4f} vs 8/9, "
                   f"relative error {rel_err:.3f} (tol 0.08), runtime {elapsed:.0f}s")
    assert rel_err <= 0.08
    assert elapsed < 120


def test_criterion_3_contraction_and_energy_decay():
    t0 = time.perf_counter()
    g, m, omega, kset, cfg = example1(256)
    mu = estimate_contraction(cfg, n_power_iters=8, seed=42)
    rng = np.random.default_rng(7)
    edrs = []
    for _ in range(5):
        bumps = []
        for _ in range(int(rng.integers(1, 4))):
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0, 0.05)
            sig = rng.uniform(0.03, 0.046)
            center = (rad * np.cos(ang), rad * np.sin(ang))
            if np.hypot(*center) + 3 * sig < 0.19:
                bumps.append((center, sig))
        if not bumps:
            bumps = [((0.0, 0.0), 0.04)]
        ph = make_phantom("sum_of_bumps", {"bumps": bumps}, g, kset)
        edrs.append(energy_decay_ratio(ph, cfg))
    elapsed = time.perf_counter() - t0
    ok = mu < 1.0 and all(e < 1.0 for e in edrs) and elapsed < 600
    _report(3, ok, f"mu_hat {mu:.4f} < 1; energy decay ratios "
                   f"{[f'{e:.3f}' for e in edrs]} all < 1, runtime {elapsed:.0f}s")
    assert mu < 1.0
    assert all(e < 1.0 for e in edrs)
    assert elapsed < 600


_ROUNDTRIP_CFG = """
grid.nx = {n}
grid.ny = {n}
grid.h = {h}
grid.ox = -5.1
grid.oy = -5.1
layer.1.radius = 0.5
layer.1.speed = 0.5
omega.xmin = -1.0
omega.xmax = 1.0
omega.ymin = -1.0
omega.ymax = 1.0
kset.kind = disk
kset.cx = 0.0
kset.cy = 0.0
kset.radius = 0.2
phantom.kind = gaussian_bump
phantom.1.cx = 0.02
phantom.1.cy = -0.03
phantom.1.sigma = 0.05
time.T = 4.0
recon.m_max = 8
recon.tol_rel = 0.0
recon.harmonic_tol = 1e-12
seed = 42
"""


def _cli_roundtrip(tmp_path, n, h):
    from thermotomo.cli import main

    cfg_path = tmp_path / f"rt{n}.cfg"
    out_dir = tmp_path / f"out{n}"
    cfg_path.write_text(_ROUNDTRIP_CFG.format(n=n, h=h))
    assert main(["roundtrip", "--config", str(cfg_path), "--no-term-pgms",
                 "--output-dir", str(out_dir)]) == 0
    rows = (out_dir / "report.csv").read_text().splitlines()[1:]
    errs_hd = [float(r.split(",")[2]) for r in rows]
    final_rel_l2 = float(rows[-1].split(",")[3])
    return errs_hd, final_rel_l2


def test_criterion_4_series_convergence_and_refinement(tmp_path):
    t0 = time.perf_counter()
    errs_coarse, rel_coarse = _cli_roundtrip(tmp_path, 256, 0.04)
    assert len(errs_coarse) == 8
    monotone = all(b <= a * (1 + 1e-3) for a, b in zip(errs_coarse, errs_coarse[1:]))
    errs_fine, rel_fine = _cli_roundtrip(tmp_path, 511, 0.02)   # exactly halved h
    ratio = rel_coarse / rel_fine
    elapsed = time.perf_counter() - t0
    ok = monotone and rel_coarse < 0.10 and ratio >= 1.5 and elapsed < 1800
    _report(4, ok, f"8-term roundtrip: monotone={monotone}, final relative L2 "
                   f"{rel_coarse:.4f} (tol 0.10), halved-h ratio {ratio:.1f} "
                   f"(need >= 1.5), runtime {elapsed:.0f}s")
    assert monotone
    assert rel_coarse < 0.10
    assert ratio >= 1.5
    assert elapsed < 1800


def test_criterion_5_trapping_contrast():
    t0 = time.perf_counter()
    # trapped: ring of sources hugging the slow disk, T too short; a kset
    # radius of 0.478 keeps the 2h interface clearance ReconConfig requires
    N, L, T = 512, 4.1, 1.0
    g = Grid(N, N, L / (N - 1), origin=(-L / 2, -L / 2))
    m = build_medium([(0.5, 0.5)], g)
    omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
    kset = Region.disk(g, (0.0, 0.0), 0.478)
    cfg = ReconConfig(medium=m, omega=omega, kset=kset, T=T, harmonic_tol=1e-12)
    nb = 8
    sig_t = 1.25 * g.h
    bumps = [((0.445 * np.cos(2 * np.pi * k / nb), 0.445 * np.sin(2 * np.pi * k / nb)),
              sig_t) for k in range(nb)]
    trapped_phantom = make_phantom("sum_of_bumps", {"bumps": bumps}, g, kset)
    edr_trapped = energy_decay_ratio(trapped_phantom, cfg)
    visible, uncovered = check_visibility(kset, m, omega, T,
                                          {"n_pos": 32, "n_dir": 64})

    # visible reference: same ring structure inside the visible source region,
    # matched at the same sigma/h
    g2, m2, omega2, kset2, cfg2 = example1(511)
    sig_v = 1.25 * g2.h
    bumps2 = [((0.12 * np.cos(2 * np.pi * k / nb), 0.12 * np.sin(2 * np.pi * k / nb)),
               sig_v) for k in range(nb)]
    visible_phantom = make_phantom("sum_of_bumps", {"bumps": bumps2}, g2, kset2)
    edr_visible = energy_decay_ratio(visible_phantom, cfg2)
    contrast = edr_trapped / edr_visible
    elapsed = time.perf_counter() - t0
    ok = (not visible) and len(uncovered) > 0 and contrast >= 2.0
    _report(5, ok, f"uncovered samples {len(uncovered)}/{32 * 64}; trapped ratio "
                   f"{edr_trapped:.3f} vs visible {edr_visible:.3f} "
                   f"(contrast {contrast:.1f}x, need >= 2), runtime {elapsed:.0f}s")
    assert not visible and len(uncovered) > 0
    assert contrast >= 2.0


def test_criterion_6_exterior_cauchy_data():
    t0 = time.perf_counter()
    N, L, T = 256, 7.2, 2.5
    g = Grid(N, N, L / (N - 1), origin=(-L / 2, -L / 2))
    m = build_medium([(0.5, 0.5)], g)
    omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
    kset = Region.disk(g, (0.0, 0.0), 0.2)
    ph = make_phantom("gaussian_bump", {"center": (0.02, 0.01), "sigma": 0.05}, g, kset)
    scfg = SolverConfig.for_time(m, T)
    trace = forward(WaveState(ph, ScalarField.zeros(g)), m, omega, T, scfg)

    # oracle: one-sided quotient of the forward field, via the offset rectangle
    i0, i1, j0, j1 = (omega.params[k] for k in ("i0", "i1", "j0", "j1"))
    om_big = Region.rectangle(g, i0 - 1, i1 + 1, j0 - 1, j1 + 1)
    tr_big = forward(WaveState(ph, ScalarField.zeros(g)), m, om_big, T, scfg)
    big_idx = {(int(i), int(j)): k
               for k, (i, j) in enumerate(zip(*om_big.boundary_nodes))}
    bi, bj = omega.boundary_nodes
    direct = np.zeros_like(trace.values)
    for k, (i, j) in enumerate(zip(bi, bj)):
        i, j = int(i), int(j)
        neighbors = []
        if i == i0:
            neighbors.append((i - 1, j))
        if i == i1:
            neighbors.append((i + 1, j))
        if j == j0:
            neighbors.append((i, j - 1))
        if j == j1:
            neighbors.append((i, j + 1))
        q = sum((tr_big.values[:, big_idx[nb]] - trace.values[:, k]) / g.h
                for nb in neighbors)
        direct[:, k] = q / len(neighbors)

    measured = exterior_neumann(trace, omega)
    rel = np.linalg.norm(measured.values - direct) / np.linalg.norm(direct)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and elapsed < 300
    _report(6, ok, f"exterior Neumann vs direct quotient, relative L2 {rel:.2e} "
                   f"(tol 0.05), runtime {elapsed:.0f}s")
    assert rel <= 0.05
    assert elapsed < 300


def test_criterion_7_dirichlet_principle_suite():
    t0 = time.perf_counter()
    tol = 1e-10
    g = Grid(65, 65, 2.0 / 64, origin=(-1.0, -1.0))
    regions = [Region.rectangle(g, 8, 56, 8, 56), Region.disk(g, (0.0, 0.0), 0.45)]
    rng = np.random.default_rng(99)
    worst_pyth = 0.0
    worst_increase = 0.0
    worst_idem = 0.0
    max_principle_ok = True
    for k in range(200):
        r = regions[k % 2]
        s = ScalarField(g, rng.standard_normal(g.shape))
        p = project_HD(s, r, tol)
        phi = harmonic_extension(r.boundary_values(s), r, tol)
        lhs = dirichlet_energy(s, r)
        rhs = dirichlet_energy(p, r) + dirichlet_energy(phi, r)
        worst_pyth = max(worst_pyth, abs(lhs - rhs) / lhs)
        worst_increase = max(worst_increase,
                             hd_norm(p, r) - hd_norm(s, r))
        p2 = project_HD(p, r, tol)
        worst_idem = max(worst_idem, float(np.max(np.abs(p2.data - p.data))))
        gvals = r.boundary_values(s)
        slack = tol * r.interior_mask.sum()   # residual-to-solution amplification
        inner = phi.data[r.interior_mask]
        if inner.min() < gvals.min() - slack or inner.max() > gvals.max() + slack:
            max_principle_ok = False
    elapsed = time.perf_counter() - t0
    ok = (worst_pyth <= 10 * tol and worst_increase <= 0.0 + 1e-12
          and worst_idem <= 1e-8 and max_principle_ok and elapsed < 60)
    _report(7, ok, f"200 fields: pythagoras defect {worst_pyth:.2e} (tol {10 * tol:.0e}), "
                   f"norm increase {worst_increase:.2e}, idempotence {worst_idem:.2e}, "
                   f"max principle {max_principle_ok}, runtime {elapsed:.0f}s")
    assert worst_pyth <= 10 * tol
    assert worst_increase <= 1e-12
    assert worst_idem <= 1e-8
    assert max_principle_ok
    assert elapsed < 60


def test_criterion_8_solver_hygiene():
    t0 = time.perf_counter()
    # (a) energy drift on a closed box at default CFL
    g = Grid(200, 200, 1.0 / 199, origin=(0.0, 0.0))
    m = uniform_medium(g)
    box = Region.rectangle(g, 1, 198, 1, 198)
    kc = Region.disk(g, (0.5, 0.5), 0.35)
    f = make_phantom("gaussian_bump", {"center": (0.5, 0.5), "sigma": 22 * g.h}, g, kc)
    state = WaveState(f, ScalarField.zeros(g))
    T_drift = 2.8
    cfg = SolverConfig.for_time(m, T_drift)
    e0 = energy(state, box, m)
    drift = []
    evolve(state, m, T_drift, cfg, pin_zero=box,
           on_sample=lambda k, st: drift.append(abs(energy(st, box, m) - e0) / e0),
           sample_every=10)
    max_drift = max(drift)

    # (b) forward/backward reversibility over 100 steps
    m2 = build_medium([(0.35, 0.5)], Grid(128, 128, 2.0 / 127, origin=(-1.0, -1.0)))
    g2 = m2.grid
    kc2 = Region.disk(g2, (0.0, 0.0), 0.3)
    f2 = make_phantom("gaussian_bump", {"center": (0.0, 0.0), "sigma": 0.06}, g2, kc2)
    dt2 = cfl_dt(m2, 0.4)

    def leap(prev, curr, n):    # n steps of the time loop on the whole box
        return _march((prev, curr), m2.c_sq, g2.h, dt2, [(range(n), _whole(f2.data))], "step")[0]

    first = leap(f2.data, f2.data, 1)[1]
    u99, u100 = leap(f2.data, f2.data, 100)
    b, a = leap(u100, u99, 99)      # (u^1, u^0)
    scale = np.max(np.abs(f2.data))
    rev_err = max(np.max(np.abs(b - first)), np.max(np.abs(a - f2.data))) / scale

    # (c) finite-speed support bound, checked every 10th step
    m3 = build_medium([(0.2, 0.5)], Grid(480, 480, 2.0 / 479, origin=(-1.0, -1.0)))
    g3 = m3.grid
    kc3 = Region.disk(g3, (0.0, 0.0), 0.1)
    f3 = make_phantom("gaussian_bump", {"center": (0.0, 0.0), "sigma": 0.025}, g3, kc3)
    support = f3.data != 0.0
    dist = distance_transform_edt(~support, sampling=g3.h)
    dt3 = cfl_dt(m3, 0.4)
    peak = np.max(np.abs(f3.data))
    worst_tail = 0.0

    def tail(k, curr, _prev):
        nonlocal worst_tail
        if k % 10 == 0:
            far = dist > m3.c_max * (k * dt3) + 5 * g3.h
            worst_tail = max(worst_tail, float(np.max(np.abs(curr[far]))) / peak)

    # one run on the whole box, so the tail beyond the cone is computed
    levels = range(401)
    seeded = _seed(f3.data, np.zeros(g3.shape), m3.c_sq, g3.h, dt3, levels, record=tail)
    _march(seeded, m3.c_sq, g3.h, dt3, [(levels[2:], _whole(f3.data))], "step",
           record_at=lambda *_: tail)

    elapsed = time.perf_counter() - t0
    ok = max_drift <= 1e-3 and rev_err <= 1e-10 and worst_tail <= 1e-12 and elapsed < 120
    _report(8, ok, f"energy drift {max_drift:.2e} (tol 1e-3), reversibility "
                   f"{rev_err:.2e} (tol 1e-10), beyond-cone tail {worst_tail:.2e} "
                   f"(tol 1e-12), runtime {elapsed:.0f}s")
    assert max_drift <= 1e-3
    assert rev_err <= 1e-10
    assert worst_tail <= 1e-12
    assert elapsed < 120
