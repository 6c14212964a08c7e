import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermotomo.errors import ConfigurationError, DomainError
from thermotomo.grid_field import Grid
from thermotomo.medium import (
    InterfaceDescriptor,
    Medium,
    build_medium,
    critical_angle,
    interface_gamma,
    speed_at,
    speeds_at,
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

    @pytest.mark.parametrize("speed", [1e300, 1e-300])
    def test_speed_whose_square_overflows_or_underflows_rejected(self, grid, speed):
        # squared unchecked, 1e300 gave c_sq = inf and 1e-300 gave c_sq = 0
        for spec in ([(0.5, speed)], [(0.9, 2.0), (0.5, speed)]):
            with pytest.raises(ConfigurationError, match="square"):
                build_medium(spec, grid)

    def test_extreme_speeds_with_a_finite_square_accepted(self, grid):
        m = build_medium([(0.5, 1e150), (0.3, 1e-150)], grid)
        assert np.isfinite(m.c_sq).all() and m.c_sq.min() > 0

    @pytest.mark.parametrize("speed", [0.0, -1.0, math.nan, math.inf, 1e300, 1e-300])
    def test_uniform_medium_needs_a_finite_positive_speed(self, grid, speed):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            uniform_medium(grid, speed)


# (layers, background, what the error says); a layer set goes through Medium and
# build_medium, a background with no layers through Medium and uniform_medium
INVALID_MEDIA = {
    "nan radius in layer 2": ([(0.9, 2.0), (math.nan, 1.5)], 1.0, "radii must be positive"),
    "non-nested radii": ([(0.3, 2.0), (0.5, 3.0)], 1.0, "strictly nested"),
    **{f"speed {c}": ([(0.9, 2.0), (0.5, c)], 1.0, "positive and finite")
       for c in (0.0, -1.0, math.nan, 1e300, 1e-300)},
    "equal adjacent speeds": ([(0.8, 2.0), (0.4, 2.0)], 1.0, "equal speeds"),
    "outermost disk past the grid": ([(1.5, 0.5)], 1.0, "does not fit inside the grid"),
    "nan background": ([], math.nan, "positive and finite"),
}


@pytest.mark.parametrize("layers,background,message", INVALID_MEDIA.values(),
                         ids=INVALID_MEDIA.keys())
def test_every_constructor_rejects_an_invalid_medium_alike(grid, layers, background, message):
    # the checks live in Medium, so no constructor lets a bad table through
    # (a NaN radius, or a NaN speed that made c_max NaN, used to pass)
    builders = [lambda: Medium(grid, tuple(layers), background)]
    if background == 1.0:
        builders.append(lambda: build_medium(layers, grid))
    if not layers:
        builders.append(lambda: uniform_medium(grid, background))
    texts = set()
    for build in builders:
        with pytest.raises(ConfigurationError, match=message) as err:
            build()
        texts.add(str(err.value))
    assert len(builders) == 2 and len(texts) == 1


class TestSpeedAt:
    def test_out_of_bounds(self, grid):
        m = uniform_medium(grid)
        with pytest.raises(DomainError):
            speed_at(m, (5.0, 0.0))

    def test_cache_agrees_away_from_interfaces(self, grid):
        xx, yy = grid.meshgrid()
        rr = np.hypot(xx, yy)
        # a uniform medium's speed holds at every node, not only inside the disks
        for m, stride in ((build_medium([(0.9, 2.0), (0.5, 1.5)], grid), 37),
                          (uniform_medium(grid, 2.0), 1)):
            far = np.ones(grid.shape, dtype=bool)
            for iface in m.interfaces:
                far &= np.abs(rr - iface.radius) > grid.h
            ii, jj = np.nonzero(far)
            for i, j in zip(ii[::stride], jj[::stride]):
                assert m.c_field[i, j] == speed_at(m, (grid.xs[i], grid.ys[j]))

    def test_node_on_the_circle_by_one_formula_only(self):
        # math.hypot(-0.7, -0.2) is this radius and np.hypot one ulp less: the
        # raster, by np.hypot, puts the node inside the disk, and so does speed_at
        g = Grid(101, 101, 0.02, origin=(-1, -1))
        m = build_medium([(0.7280109889280518, 0.5)], g)
        i, j = g.nearest_node(-0.7, -0.2)
        assert (i, j) == (15, 40)
        assert m.c_field[i, j] == speed_at(m, (g.xs[i], g.ys[j])) == 0.5

    @given(nx=st.integers(5, 40), ny=st.integers(5, 40), h=st.floats(1e-3, 10.0),
           fx=st.floats(0.2, 0.8), fy=st.floats(0.2, 0.8), data=st.data(),
           hypot=st.sampled_from([np.hypot, math.hypot]))
    @settings(max_examples=200, deadline=None)
    def test_raster_is_the_point_lookup_at_every_node(self, nx, ny, h, fx, fy, data, hypot):
        # a layer whose circle passes through a node near the centre, by either
        # radius formula
        g = Grid(nx, ny, h, origin=(-fx * (nx - 1) * h, -fy * (ny - 1) * h))
        xmin, xmax, ymin, ymax = g.bounds
        k = int(0.6 * min(-xmin, xmax, -ymin, ymax) / h)
        i = data.draw(st.integers(-k, k)) + round(fx * (nx - 1))
        j = data.draw(st.integers(-k, k)) + round(fy * (ny - 1))
        radius = float(hypot(g.xs[i], g.ys[j]))
        assume(0 < radius < min(-xmin, xmax, -ymin, ymax))
        m = build_medium([(radius, 0.5)], g)
        xx, yy = g.meshgrid()
        nodes = np.column_stack((xx.ravel(), yy.ravel()))
        assert np.array_equal(m.c_field, speeds_at(m, nodes).reshape(g.shape))

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
