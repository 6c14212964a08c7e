import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg as spla

from thermotomo.config import RunConfig
from thermotomo.errors import ConfigurationError, ConvergenceError
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
from thermotomo.medium import uniform_medium
from thermotomo.wave_solver import _lap_sum

from conftest import random_field


class TestGridAndRegion:
    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            Grid(2, 5, 0.1)
        with pytest.raises(ConfigurationError):
            Grid(5, 5, 0.0)
        for h, origin in ((math.nan, (0.0, 0.0)), (math.inf, (0.0, 0.0)),
                          (0.1, (math.nan, 0.0)), (0.1, (0.0, math.inf))):
            with pytest.raises(ConfigurationError):
                Grid(5, 5, h, origin)

    def test_node_positions(self):
        g = Grid(5, 7, 0.5, origin=(1.0, -2.0))
        assert g.node_position(0, 0) == (1.0, -2.0)
        assert g.node_position(2, 3) == (2.0, -0.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e308, -1e308])
    def test_nearest_node_of_a_point_without_a_finite_index(self, small_grid, x):
        # int(round(...)) raised ValueError for NaN and OverflowError otherwise
        with pytest.raises(ConfigurationError, match="map to finite node indices"):
            small_grid.nearest_node(x, 0.0)
        with pytest.raises(ConfigurationError, match="map to finite node indices"):
            small_grid.nearest_node(0.0, x)
        assert small_grid.nearest_node(1e300, -1e300) == (64, 0)    # far but finite: clamped

    def test_rectangle_region_sets(self, small_grid):
        r = Region.rectangle(small_grid, 10, 20, 12, 22)
        assert not (r.interior_mask & r.boundary_mask).any()
        # perimeter walk covers each boundary node exactly once
        assert r.boundary_nodes[0].size == 4 * 10
        assert r.interior_mask.sum() == 9 * 9

    @pytest.mark.parametrize("grid, box", [(Grid(7, 7, 0.1), (1, 5, 1, 5)),
                                           (Grid(9, 7, 0.1), (1, 6, 2, 5))],
                             ids=["interior_3x3", "nx_ne_ny"])
    def test_rectangle_walk_matches_the_loop_walk(self, grid, box):
        # oracle: the counterclockwise walk as four loops, starting at (i0, j0)
        i0, i1, j0, j1 = box
        bi, bj = [], []
        for i in range(i0, i1 + 1):
            bi.append(i); bj.append(j0)
        for j in range(j0 + 1, j1 + 1):
            bi.append(i1); bj.append(j)
        for i in range(i1 - 1, i0 - 1, -1):
            bi.append(i); bj.append(j1)
        for j in range(j1 - 1, j0, -1):
            bi.append(i0); bj.append(j)
        got = Region.rectangle(grid, *box).boundary_nodes
        for have, want in zip(got, (bi, bj)):
            assert have.dtype == np.int64 and have.tolist() == want

    def test_disk_region_neighbors_stay_inside(self, small_grid):
        r = Region.disk(small_grid, (0.0, 0.0), 0.5)
        ii, jj = np.nonzero(r.interior_mask)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert r.mask[ii + di, jj + dj].all()

    def test_box_is_the_rectangle_and_rejects_a_disk(self, small_grid, small_disk):
        assert Region.rectangle(small_grid, 10, 20, 12, 22).box == (10, 20, 12, 22)
        with pytest.raises(ConfigurationError, match="rectangle"):
            small_disk.box

    @given(nx=st.integers(5, 60), ny=st.integers(5, 60),
           h=st.floats(1e-6, 1e3), ox=st.floats(-1e3, 1e3), oy=st.floats(-1e3, 1e3),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounds_are_the_grid_coordinates_of_the_box(self, nx, ny, h, ox, oy, data):
        g = Grid(nx, ny, h, origin=(ox, oy))
        i0 = data.draw(st.integers(1, nx - 4))
        i1 = data.draw(st.integers(i0 + 2, nx - 2))
        j0 = data.draw(st.integers(1, ny - 4))
        j1 = data.draw(st.integers(j0 + 2, ny - 2))
        got = Region.rectangle(g, i0, i1, j0, j1).bounds
        want = (g.xs[i0], g.xs[i1], g.ys[j0], g.ys[j1])
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_bounds_of_a_disk_raise_the_box_error(self, small_disk):
        with pytest.raises(ConfigurationError, match="must be a grid-aligned rectangle, not a disk"):
            small_disk.bounds

    def test_region_must_stay_off_grid_ring(self, small_grid):
        with pytest.raises(ConfigurationError):
            Region.rectangle(small_grid, 0, 20, 5, 20)
        with pytest.raises(ConfigurationError):
            Region.disk(small_grid, (0.0, 0.0), 1.0)


def _laplacian(s):
    """The solver's 5-point Laplacian on the interior nodes of s."""
    return _lap_sum(s.data) / (s.grid.h * s.grid.h)


class TestWaveOperator:
    def test_constant_field_maps_to_zero(self, small_grid):
        s = ScalarField(small_grid, np.full(small_grid.shape, 3.7))
        assert np.all(_laplacian(s) == 0.0)

    def test_affine_field_maps_to_zero_interior(self, small_grid):
        s = ScalarField.from_function(small_grid, lambda x, y: x)
        assert np.allclose(_laplacian(s), 0.0, atol=1e-12)

    def test_quadratic_is_exact(self, small_grid):
        # 5-point stencil on x^2 + y^2: ((x+h)^2 + (x-h)^2 - 2x^2)/h^2 = 2 per axis
        s = ScalarField.from_function(small_grid, lambda x, y: x ** 2 + y ** 2)
        out = _laplacian(s)
        assert out.shape == (small_grid.nx - 2, small_grid.ny - 2)
        assert np.allclose(out, 4.0, atol=1e-10)

    def test_linearity(self, small_grid):
        a, b = random_field(small_grid, 1), random_field(small_grid, 2)
        lhs = _laplacian(2.0 * a - 0.5 * b)
        rhs = 2.0 * _laplacian(a) - 0.5 * _laplacian(b)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestEnergies:
    def test_zero_field(self, small_rect, small_grid):
        assert dirichlet_energy(ScalarField.zeros(small_grid), small_rect) == 0.0

    def test_linear_ramp_unit_square(self):
        # |grad x|^2 integrates to 1 over the unit square, up to O(h) edge counting
        g = Grid(61, 61, 1.0 / 50, origin=(-0.1, -0.1))
        r = Region.rectangle(g, 5, 55, 5, 55)
        s = ScalarField.from_function(g, lambda x, y: x)
        e = dirichlet_energy(s, r)
        assert abs(e - 1.0) <= 3 * g.h

    def test_quadratic_scaling(self, small_rect, small_grid):
        s = random_field(small_grid, 3)
        e1 = dirichlet_energy(s, small_rect)
        e2 = dirichlet_energy(3.0 * s, small_rect)
        assert e2 == pytest.approx(9.0 * e1, rel=1e-13)

    def test_bounding_box_sum_is_the_whole_grid_sum(self, small_rect, small_disk):
        # the whole-grid edge sum dirichlet_energy used to compute, bit for bit
        def whole_grid(s, r):
            m, d = r.mask, s.data
            dx = (d[1:, :] - d[:-1, :])[m[:-1, :] & m[1:, :]]
            dy = (d[:, 1:] - d[:, :-1])[m[:, :-1] & m[:, 1:]]
            return float(np.dot(dx, dx) + np.dot(dy, dy))

        for name, r in [*_example_regions(), ("small_rect", small_rect),
                        ("small_disk", small_disk)]:
            s = random_field(r.grid, 7)
            assert dirichlet_energy(s, r) == whole_grid(s, r), name

    def test_velocity_part_with_speed_two(self, small_grid, small_rect):
        m2 = uniform_medium(small_grid, 2.0)
        gdata = random_field(small_grid, 4).data
        w = WaveState(ScalarField.zeros(small_grid), ScalarField(small_grid, gdata))
        expected = 0.25 * np.sum(gdata[small_rect.mask] ** 2) * small_grid.h ** 2
        assert energy(w, small_rect, m2) == pytest.approx(expected, rel=1e-13)

    def test_zero_state(self, small_grid, small_rect, small_medium):
        assert energy(WaveState.zeros(small_grid), small_rect, small_medium) == 0.0

    def test_additivity_of_node_sums(self, small_grid, small_medium):
        # split a rectangle into left/right halves: the velocity part decomposes
        # exactly over nodes; the edge sum decomposes up to the cut edges
        r = Region.rectangle(small_grid, 10, 50, 10, 50)
        r1 = Region.rectangle(small_grid, 10, 30, 10, 50)
        r2 = Region.rectangle(small_grid, 31, 50, 10, 50)
        assert not (r1.mask & r2.mask).any()
        assert ((r1.mask | r2.mask) == r.mask).all()
        w = WaveState(random_field(small_grid, 5), random_field(small_grid, 6))
        e, e1, e2 = (energy(w, q, small_medium) for q in (r, r1, r2))
        d = w.u.data
        cut = np.sum((d[31, 10:51] - d[30, 10:51]) ** 2)
        assert e == pytest.approx(e1 + e2 + cut, rel=1e-12)
        wv = WaveState(ScalarField.zeros(small_grid), w.ut)
        ev, ev1, ev2 = (energy(wv, q, small_medium) for q in (r, r1, r2))
        assert ev == pytest.approx(ev1 + ev2, rel=1e-13)


class TestHarmonicExtension:
    def test_constant_boundary(self, small_disk):
        g = np.full(small_disk.boundary_nodes[0].size, 7.0)
        phi = harmonic_extension(g, small_disk, 1e-12)
        assert np.allclose(phi.data[small_disk.mask], 7.0, atol=1e-9)
        assert np.all(phi.data[~small_disk.mask] == 0.0)

    def test_affine_boundary(self, small_grid, small_rect):
        s = ScalarField.from_function(small_grid, lambda x, y: 2 * x - y)
        phi = harmonic_extension(small_rect.boundary_values(s), small_rect, 1e-12)
        assert np.allclose(phi.data[small_rect.mask], s.data[small_rect.mask], atol=1e-8)

    def test_saddle_is_discretely_harmonic(self, small_grid, small_rect):
        s = ScalarField.from_function(small_grid, lambda x, y: x ** 2 - y ** 2)
        # oracle: the 5-point stencil sum of x^2 - y^2 vanishes identically
        d = s.data
        stencil = d[2:, 1:-1] + d[:-2, 1:-1] + d[1:-1, 2:] + d[1:-1, :-2] - 4 * d[1:-1, 1:-1]
        assert np.allclose(stencil, 0.0, atol=1e-12)
        phi = harmonic_extension(small_rect.boundary_values(s), small_rect, 1e-12)
        # residual tolerance amplifies through the inverse; allow a documented factor
        assert np.allclose(phi.data[small_rect.mask], s.data[small_rect.mask], atol=1e-7)

    def test_maximum_principle(self, small_grid, small_disk):
        rng = np.random.default_rng(11)
        g = rng.uniform(-2.0, 5.0, small_disk.boundary_nodes[0].size)
        phi = harmonic_extension(g, small_disk, 1e-11)
        slack = 1e-11 * small_disk.interior_mask.sum()
        inner = phi.data[small_disk.interior_mask]
        assert inner.min() >= g.min() - slack
        assert inner.max() <= g.max() + slack

    def test_iteration_cap_raises(self, small_rect):
        # machine epsilon, the least tolerance accepted, is below this solve's residual
        g = np.linspace(0.0, 1.0, small_rect.boundary_nodes[0].size)
        with pytest.raises(ConvergenceError):
            harmonic_extension(g, small_rect, np.finfo(float).eps)

    def test_linearity_in_boundary_values(self, small_disk):
        rng = np.random.default_rng(21)
        n = small_disk.boundary_nodes[0].size
        g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
        lhs = harmonic_extension(2.0 * g1 - 0.7 * g2, small_disk, 1e-12)
        rhs = (2.0 * harmonic_extension(g1, small_disk, 1e-12)
               - 0.7 * harmonic_extension(g2, small_disk, 1e-12))
        assert np.allclose(lhs.data, rhs.data, atol=1e-9)


def _ref_harmonic_extension(boundary_values, r, tol):
    """The sparse COO -> CSR -> splu assembly and solve, kept as the oracle."""
    nx, ny = r.grid.shape
    idx = -np.ones(r.grid.shape, dtype=np.int64)
    ii, jj = np.nonzero(r.interior_mask)
    n = ii.size
    idx[ii, jj] = np.arange(n)
    bidx = -np.ones(r.grid.shape, dtype=np.int64)
    bi, bj = r.boundary_nodes
    bidx[bi, bj] = np.arange(bi.size)
    rows, cols, vals = [], [], []
    brows, bcols = [], []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        nint = idx[ni, nj]
        nbnd = bidx[ni, nj]
        in_int = nint >= 0
        in_bnd = nbnd >= 0
        if not np.all(in_int | in_bnd):
            raise ConfigurationError("interior node has a neighbor outside the region closure")
        rows.append(np.arange(n)[in_int]); cols.append(nint[in_int])
        vals.append(-np.ones(in_int.sum()))
        brows.append(np.arange(n)[in_bnd]); bcols.append(nbnd[in_bnd])
    a = sp.coo_matrix(
        (np.concatenate(vals + [4.0 * np.ones(n)]),
         (np.concatenate(rows + [np.arange(n)]), np.concatenate(cols + [np.arange(n)]))),
        shape=(n, n)).tocsr()
    # boundary coupling: rhs = B @ boundary_values
    b = sp.coo_matrix(
        (np.ones(sum(len(r) for r in brows)),
         (np.concatenate(brows), np.concatenate(bcols))),
        shape=(n, bi.size)).tocsr()
    lu = spla.splu(a.tocsc())
    g = np.asarray(boundary_values, dtype=np.float64)
    rhs = b @ g
    target = tol * max(1.0, float(np.max(np.abs(g))))
    x = lu.solve(rhs)
    resid = float(np.max(np.abs(rhs - a @ x)))
    if resid > target:
        raise ConvergenceError(f"harmonic solve residual exceeds {target:.3e}", residual=resid)
    out = np.zeros(r.grid.shape)
    out[ii, jj] = x
    out[bi, bj] = g
    return ScalarField(r.grid, out)


def _example_regions():
    for name in ("example1.cfg", "example2_skull.cfg"):
        cfg = RunConfig.from_file(Path(__file__).parents[1] / "configs" / name)
        g = cfg.build_grid()
        yield f"{name}:omega", cfg.build_omega(g)
        yield f"{name}:kset", cfg.build_kset(g)


class TestBlockRowSolve:
    """The block-row LU against the sparse LU it replaced."""

    def test_matches_sparse_lu(self, small_rect, small_disk):
        regions = [*_example_regions(), ("small_rect", small_rect), ("small_disk", small_disk)]
        rng = np.random.default_rng(2024)
        for name, r in regions:
            for _ in range(20):
                g = rng.standard_normal(r.boundary_nodes[0].size) * rng.uniform(0.1, 10.0)
                got = harmonic_extension(g, r, 1e-12).data
                want = _ref_harmonic_extension(g, r, 1e-12).data
                gap = float(np.max(np.abs(got - want)))
                assert gap <= 1e-13 * max(1.0, float(np.max(np.abs(g)))), (name, gap)

    def test_two_runs_in_one_row_rejected(self, small_grid):
        # two 3x3 squares side by side: row 5 holds interior nodes at j = 5 and j = 9
        interior = np.zeros(small_grid.shape, dtype=bool)
        interior[5, 5] = interior[5, 9] = True
        ring = np.zeros(small_grid.shape, dtype=bool)
        ring[4:7, 4:7] = ring[4:7, 8:11] = True
        ring &= ~interior
        r = Region(small_grid, "two squares", interior, np.nonzero(ring), {})
        with pytest.raises(ConfigurationError, match="one run per row"):
            harmonic_extension(np.ones(int(ring.sum())), r)

    def test_rows_with_a_gap_rejected(self, small_grid):
        # the same squares stacked in one column: row 7 holds no interior node
        interior = np.zeros(small_grid.shape, dtype=bool)
        interior[5, 5] = interior[9, 5] = True
        ring = np.zeros(small_grid.shape, dtype=bool)
        ring[4:7, 4:7] = ring[8:11, 4:7] = True
        ring &= ~interior
        r = Region(small_grid, "two squares", interior, np.nonzero(ring), {})
        with pytest.raises(ConfigurationError, match="consecutive rows"):
            harmonic_extension(np.ones(int(ring.sum())), r)

    # a positive tolerance below machine epsilon is one no float64 residual certifies
    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.inf, np.nan, 1e-20, 1e-30])
    def test_tolerance_must_be_positive_and_finite(self, small_rect, tol):
        g = np.ones(small_rect.boundary_nodes[0].size)
        with pytest.raises(ConfigurationError, match="harmonic_tol must be finite and at least"):
            harmonic_extension(g, small_rect, tol)
        # project_HD hands its tolerance to the same check, before any solve
        with pytest.raises(ConfigurationError, match="harmonic_tol must be finite and at least"):
            project_HD(random_field(small_rect.grid, 4), small_rect, tol)


class TestProjection:
    def test_zero_trace_field_unchanged(self, small_grid, small_rect):
        s = random_field(small_grid, 7)
        s.data[~small_rect.interior_mask] = 0.0
        p = project_HD(s, small_rect, 1e-12)
        assert np.allclose(p.data, s.data, atol=1e-10)

    def test_kills_harmonic_fields(self, small_grid, small_rect):
        s = ScalarField.from_function(small_grid, lambda x, y: x ** 2 - y ** 2)
        p = project_HD(s, small_rect, 1e-12)
        assert np.max(np.abs(p.data)) < 1e-7

    def test_zero_boundary_trace(self, small_grid, small_disk):
        p = project_HD(random_field(small_grid, 8), small_disk, 1e-10)
        assert np.all(p.data[small_disk.boundary_nodes] == 0.0)
        assert np.all(p.data[~small_disk.mask] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_non_increase(self, small_grid, small_disk, seed):
        s = random_field(small_grid, 100 + seed)
        p = project_HD(s, small_disk, 1e-10)
        assert hd_norm(p, small_disk) <= hd_norm(s, small_disk) * (1 + 1e-12)

    def test_pythagorean_identity(self, small_grid, small_rect):
        tol = 1e-10
        s = random_field(small_grid, 9)
        p = project_HD(s, small_rect, tol)
        phi = harmonic_extension(small_rect.boundary_values(s), small_rect, tol)
        lhs = dirichlet_energy(s, small_rect)
        rhs = dirichlet_energy(p, small_rect) + dirichlet_energy(phi, small_rect)
        assert abs(lhs - rhs) <= 10 * tol * lhs

    def test_pythagorean_identity_at_round_off(self, small_grid, small_rect):
        # boundary values ~1e-5 against the residual scale max(1, |g|): a solve
        # stopped at tol leaves a defect ~1e-12, the direct solve one ~1e-16
        tol = 1e-10
        s = ScalarField.from_function(small_grid, lambda x, y: np.exp(-20 * (x * x + y * y)))
        p = project_HD(s, small_rect, tol)
        phi = harmonic_extension(small_rect.boundary_values(s), small_rect, tol)
        lhs = dirichlet_energy(s, small_rect)
        rhs = dirichlet_energy(p, small_rect) + dirichlet_energy(phi, small_rect)
        assert abs(lhs - rhs) <= 1e-13 * lhs

    def test_idempotence(self, small_grid, small_disk):
        s = random_field(small_grid, 10)
        p1 = project_HD(s, small_disk, 1e-12)
        p2 = project_HD(p1, small_disk, 1e-12)
        assert np.allclose(p2.data, p1.data, atol=1e-10)


PROPERTY_GRID = Grid(41, 41, 2.0 / 40, origin=(-1.0, -1.0))


@st.composite
def regions(draw):
    """A random rectangle or disk of PROPERTY_GRID, clear of its outer ring."""
    g = PROPERTY_GRID
    if draw(st.booleans()):
        i0, j0 = draw(st.integers(1, g.nx - 4)), draw(st.integers(1, g.ny - 4))
        return Region.rectangle(g, i0, draw(st.integers(i0 + 2, g.nx - 2)),
                                j0, draw(st.integers(j0 + 2, g.ny - 2)))
    radius = draw(st.floats(3 * g.h, 0.8))
    room = 0.9 - radius
    return Region.disk(g, (draw(st.floats(-room, room)), draw(st.floats(-room, room))), radius)


class TestProjectionProperties:
    """The projection identities at round-off on random regions and fields."""

    @given(regions(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_identities(self, r, seed):
        s = random_field(PROPERTY_GRID, seed)
        p = project_HD(s, r, 1e-10)
        phi = harmonic_extension(r.boundary_values(s), r, 1e-10)
        e_s, e_p = dirichlet_energy(s, r), dirichlet_energy(p, r)
        # Pythagoras: the zero-trace part is Dirichlet-orthogonal to the harmonic part
        assert abs(e_s - e_p - dirichlet_energy(phi, r)) <= 1e-13 * e_s
        assert hd_norm(p, r) <= hd_norm(s, r) * (1 + 1e-15)
        again = project_HD(p, r, 1e-10)
        assert np.max(np.abs(again.data - p.data)) <= 1e-14 * np.max(np.abs(p.data))


class TestPhantom:
    def test_empty_bump_list(self, small_grid, small_disk):
        f = make_phantom("sum_of_bumps", {"bumps": []}, small_grid, small_disk)
        assert np.all(f.data == 0.0)

    def test_peak_at_nearest_node(self, small_grid, small_disk):
        f = make_phantom("gaussian_bump", {"center": (0.11, -0.07), "sigma": 0.05},
                         small_grid, small_disk)
        i, j = np.unravel_index(np.argmax(f.data), f.data.shape)
        assert (i, j) == small_grid.nearest_node(0.11, -0.07)
        # peak is 1 at the exact center; the nearest node sits at most h/sqrt(2) away
        floor = np.exp(-0.5 * (small_grid.h / np.sqrt(2) / 0.05) ** 2) - 0.01
        assert floor <= f.data[i, j] <= 1.0

    def test_disjoint_bumps_superpose(self, small_grid, small_disk):
        b1 = {"center": (-0.2, 0.0), "sigma": 0.03}
        b2 = {"center": (0.2, 0.1), "sigma": 0.03}
        f1 = make_phantom("gaussian_bump", b1, small_grid, small_disk)
        f2 = make_phantom("gaussian_bump", b2, small_grid, small_disk)
        both = make_phantom("sum_of_bumps",
                            {"bumps": [(b1["center"], 0.03), (b2["center"], 0.03)]},
                            small_grid, small_disk)
        assert np.allclose(both.data, f1.data + f2.data, atol=1e-14)

    def test_support_containment(self, small_grid, small_disk):
        f = make_phantom("gaussian_bump", {"center": (0.3, 0.0), "sigma": 0.04},
                         small_grid, small_disk)
        assert np.all(f.data[~small_disk.mask] == 0.0)
        assert np.all(f.data >= 0.0)

    def test_escaping_bump_rejected(self, small_grid, small_disk):
        with pytest.raises(ConfigurationError):
            make_phantom("gaussian_bump", {"center": (0.4, 0.0), "sigma": 0.05},
                         small_grid, small_disk)

    def test_unknown_kind_rejected(self, small_grid, small_disk):
        with pytest.raises(ConfigurationError):
            make_phantom("ring", {}, small_grid, small_disk)

    def test_sigma_with_an_overflowing_exponent_rejected(self, small_grid, small_disk):
        # (clearance / sigma)^2 overflows a float
        with pytest.raises(ConfigurationError, match="exponent"):
            make_phantom("gaussian_bump", {"center": (0.0, 0.0), "sigma": 1e-300},
                         small_grid, small_disk)
