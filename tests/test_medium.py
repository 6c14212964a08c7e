import math

import numpy as np
import pytest

from thermotomo.errors import ConfigurationError, DomainError
from thermotomo.grid_field import Grid
from thermotomo.medium import (
    InterfaceDescriptor,
    build_medium,
    critical_angle,
    interface_gamma,
    speed_at,
    uniform_medium,
)


@pytest.fixture
def grid():
    return Grid(101, 101, 2.4 / 100, origin=(-1.2, -1.2))


class TestBuildMedium:
    def test_empty_spec_is_unit_speed(self, grid):
        m = build_medium([], grid)
        assert np.all(m.c_field == 1.0)
        assert m.interfaces == ()

    def test_example_one_profile(self, grid):
        m = build_medium([(0.5, 0.5)], grid)
        assert speed_at(m, (0.0, 0.0)) == 0.5
        assert speed_at(m, (0.8, 0.0)) == 1.0
        assert len(m.interfaces) == 1
        iface = m.interfaces[0]
        assert (iface.c_int, iface.c_ext) == (0.5, 1.0)

    def test_example_two_skull_profile(self, grid):
        m = build_medium([(0.9, 2.0), (0.5, 1.5)], grid)
        assert speed_at(m, (0.0, 0.0)) == 1.5       # brain
        assert speed_at(m, (0.7, 0.0)) == 2.0       # skull annulus
        assert speed_at(m, (1.0, 0.0)) == 1.0       # outside
        inner, outer = m.interfaces[1], m.interfaces[0]
        assert (inner.c_int, inner.c_ext) == (1.5, 2.0)
        assert (outer.c_int, outer.c_ext) == (2.0, 1.0)

    def test_non_nested_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            build_medium([(0.4, 2.0), (0.6, 1.5)], grid)

    def test_equal_speeds_across_interface_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            build_medium([(0.5, 1.0)], grid)
        with pytest.raises(ConfigurationError):
            build_medium([(0.8, 2.0), (0.4, 2.0)], grid)

    def test_disk_must_fit_grid(self, grid):
        with pytest.raises(ConfigurationError):
            build_medium([(1.5, 0.5)], grid)

    def test_mollification_stays_in_speed_range(self, grid):
        m = build_medium([(0.5, 0.5)], grid, mollify_width=2.0)
        assert m.c_field.min() >= 0.5 - 1e-12
        assert m.c_field.max() <= 1.0 + 1e-12
        sharp = build_medium([(0.5, 0.5)], grid)
        assert not np.array_equal(m.c_field, sharp.c_field)

    @pytest.mark.parametrize("width", [-0.1, math.nan, math.inf])
    def test_bad_mollify_width_rejected(self, grid, width):
        with pytest.raises(ConfigurationError, match="mollify_width"):
            build_medium([(0.5, 0.5)], grid, mollify_width=width)

    @pytest.mark.parametrize("speed", [0.0, -1.0, math.nan, math.inf])
    def test_uniform_medium_needs_a_finite_positive_speed(self, grid, speed):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            uniform_medium(grid, speed)


class TestSpeedAt:
    def test_out_of_bounds(self, grid):
        m = uniform_medium(grid)
        with pytest.raises(DomainError):
            speed_at(m, (5.0, 0.0))

    def test_cache_agrees_away_from_interfaces(self, grid):
        m = build_medium([(0.9, 2.0), (0.5, 1.5)], grid)
        xx, yy = grid.meshgrid()
        rr = np.hypot(xx, yy)
        far = np.ones(grid.shape, dtype=bool)
        for iface in m.interfaces:
            far &= np.abs(rr - iface.radius) > grid.h
        ii, jj = np.nonzero(far)
        for i, j in zip(ii[::37], jj[::37]):
            assert m.c_field[i, j] == speed_at(m, (grid.xs[i], grid.ys[j]))

    def test_constant_per_annulus(self, grid):
        m = build_medium([(0.9, 2.0), (0.5, 1.5)], grid)
        radii = [0.55, 0.65, 0.75, 0.85]
        speeds = {speed_at(m, (r, 0.0)) for r in radii}
        assert speeds == {2.0}


class TestInterfaceQuantities:
    def test_critical_angle_half(self):
        iface = InterfaceDescriptor(radius=0.5, c_int=0.5, c_ext=1.0)
        assert critical_angle(iface) == pytest.approx(math.pi / 6, abs=1e-15)

    def test_critical_angle_tends_to_right_angle(self):
        eps = 1e-9
        iface = InterfaceDescriptor(radius=0.5, c_int=1.0 - eps, c_ext=1.0)
        assert critical_angle(iface) > math.pi / 2 - 1e-4

    def test_no_critical_angle_when_inside_faster(self):
        iface = InterfaceDescriptor(radius=0.5, c_int=2.0, c_ext=1.0)
        assert critical_angle(iface) is None

    def test_sine_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c_int = rng.uniform(0.2, 1.0)
            c_ext = c_int + rng.uniform(0.05, 2.0)
            iface = InterfaceDescriptor(radius=1.0, c_int=c_int, c_ext=c_ext)
            a0 = critical_angle(iface)
            assert abs(math.sin(a0) * c_ext - c_int) <= 1e-12

    def test_gamma(self):
        assert interface_gamma(InterfaceDescriptor(1.0, 0.5, 1.0)) == 0.5
        assert interface_gamma(InterfaceDescriptor(1.0, 1.0, 2.0)) == 0.5
        with pytest.raises(ConfigurationError):
            InterfaceDescriptor(1.0, 1.0, 1.0)
