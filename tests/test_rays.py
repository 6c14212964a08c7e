import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermotomo import rays
from thermotomo.config import RunConfig
from thermotomo.errors import (
    ConfigurationError,
    CriticalAngleError,
    DegenerateInputError,
    DomainError,
    TangencyError,
)
from thermotomo.grid_field import Grid, Region
from thermotomo.medium import BACKGROUND_SPEED, build_medium, speed_at, uniform_medium
from thermotomo.rays import (
    amplitude_coeffs,
    check_visibility,
    energy_split,
    normal_phase_derivatives,
    reflect,
    sample_directions,
    sample_positions,
    snell_transmit,
    trace_branches,
)

from conftest import example1_setup

angles = st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6)
speeds = st.floats(min_value=0.2, max_value=3.0)


@pytest.fixture
def setup():
    g = Grid(161, 161, 4.6 / 160, origin=(-2.3, -2.3))
    m = build_medium([(0.5, 0.5)], g)
    omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
    kset = Region.disk(g, (0.0, 0.0), 0.2)
    return g, m, omega, kset


class TestReflect:
    def test_normal_incidence(self):
        n = np.array([0.0, 1.0])
        out = reflect(-n, n)
        assert np.allclose(out, n)

    def test_forty_five_degrees(self):
        d = np.array([math.sqrt(2) / 2, -math.sqrt(2) / 2])
        out = reflect(d, np.array([0.0, 1.0]))
        assert np.allclose(out, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-15)

    @given(angles, st.floats(min_value=0, max_value=2 * math.pi))
    def test_involution(self, a, phi):
        n = np.array([math.cos(phi), math.sin(phi)])
        t = np.array([-n[1], n[0]])
        d = -math.cos(a) * n + math.sin(a) * t
        assert np.allclose(reflect(reflect(d, n), n), d, atol=1e-14)

    def test_tangential_rejected(self):
        with pytest.raises(TangencyError):
            reflect(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestSnell:
    def test_normal_incidence_keeps_direction(self):
        d = np.array([0.0, -1.0])
        out = snell_transmit(d, np.array([0.0, 1.0]), 1.0, 2.0)
        assert np.allclose(out, d, atol=1e-15)

    def test_sine_doubles_for_double_speed(self):
        sin_a = 0.25
        d = np.array([sin_a, -math.sqrt(1 - sin_a ** 2)])
        out = snell_transmit(d, np.array([0.0, 1.0]), 1.0, 2.0)
        assert out is not None
        assert out[0] == pytest.approx(0.5, abs=1e-14)      # sin(beta)
        assert out[1] < 0                                    # continues downward

    def test_total_internal_reflection(self):
        a = math.radians(40.0)                               # critical is 30 degrees
        d = np.array([math.sin(a), -math.cos(a)])
        assert snell_transmit(d, np.array([0.0, 1.0]), 1.0, 2.0) is None

    def test_exact_critical_angle_raises(self):
        a = math.asin(0.5)
        d = np.array([math.sin(a), -math.cos(a)])
        with pytest.raises(CriticalAngleError):
            snell_transmit(d, np.array([0.0, 1.0]), 1.0, 2.0)

    @given(angles, speeds, speeds)
    @settings(max_examples=200)
    def test_tangential_slowness_preserved(self, a, c_in, c_out):
        d = np.array([math.sin(a), -math.cos(a)])
        n = np.array([0.0, 1.0])
        if c_in < c_out:
            a0 = math.asin(c_in / c_out)
            if a >= a0 - 1e-9:
                return
        out = snell_transmit(d, n, c_in, c_out)
        assert out is not None
        sin_b = abs(out[0])
        assert abs(math.sin(a) / c_in - sin_b / c_out) <= 1e-12


class TestAmplitudes:
    def test_matched_sides_no_reflection(self):
        b_r, b_t = amplitude_coeffs(1.3, 1.3)
        assert b_r == 0.0 and b_t == 1.0

    def test_half_ratio_values(self):
        b_r, b_t = amplitude_coeffs(1.0, 0.5)
        assert b_r == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert b_t == pytest.approx(4.0 / 3.0, abs=1e-15)
        # transmitted amplitude above 1 is expected; energy is not amplitude

    @given(st.floats(min_value=0.01, max_value=10),
           st.floats(min_value=0.0, max_value=10))
    def test_difference_identity(self, a, b):
        b_r, b_t = amplitude_coeffs(a, b)
        assert abs(b_t - b_r - 1.0) <= 1e-12


class TestEnergySplit:
    def test_matched(self):
        assert energy_split(2.0, 2.0) == 1.0

    def test_half_ratio(self):
        assert energy_split(1.0, 0.5) == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_blocked_when_no_transmission(self):
        assert energy_split(1.0, 0.0) == 0.0

    def test_upper_bound_by_speed_ratio(self):
        # transmitted fraction stays below 4*gamma/(1+gamma)^2 when b <= gamma*a
        for a in np.linspace(0.1, 5.0, 15):
            for gamma in np.linspace(0.05, 0.95, 15):
                for s in np.linspace(0.0, 1.0, 7):
                    b = gamma * a * s
                    assert energy_split(a, b) <= 4 * gamma / (1 + gamma) ** 2 + 1e-12

    @given(st.floats(min_value=0.01, max_value=10),
           st.floats(min_value=0.0, max_value=10))
    def test_conservation_with_reflection(self, a, b):
        b_r, _ = amplitude_coeffs(a, b)
        assert abs(b_r ** 2 + energy_split(a, b) - 1.0) <= 1e-12

    def test_normal_derivatives_tight_bound(self):
        # for c_in < c_out the transmitted normal derivative obeys b <= gamma*a
        rng = np.random.default_rng(2)
        for _ in range(300):
            c_in = rng.uniform(0.2, 1.5)
            c_out = c_in * rng.uniform(1.05, 3.0)
            gamma = c_in / c_out
            a0 = math.asin(gamma)
            alpha = rng.uniform(0.0, a0 * 0.999)
            a, b = normal_phase_derivatives(alpha, c_in, c_out)
            assert b <= gamma * a + 1e-12


def _same(fn, ref, *args):
    """fn and its scalar reference give the same bits, or raise the same error."""
    try:
        want = ref(*args)
    except Exception as exc:  # noqa: BLE001 -- the error itself is compared
        with pytest.raises(type(exc)):
            fn(*args)
        return
    got = fn(*args)
    if want is None or isinstance(want, float):
        assert got == want and type(got) is type(want)
    elif isinstance(want, tuple):
        assert [v.hex() for v in got] == [v.hex() for v in want]
    else:
        assert got.tobytes() == want.tobytes()


class TestLawsMatchScalarReference:
    """The array-backed laws give the per-ray scalar formulas' results bit for bit."""

    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), speeds, speeds)
    @settings(max_examples=300)
    def test_reflect_and_snell(self, phi, psi, c_in, c_out):
        d = np.array([math.cos(phi), math.sin(phi)])
        n = np.array([math.cos(psi), math.sin(psi)])
        _same(reflect, _ref_reflect, d, n)
        _same(snell_transmit, _ref_snell_transmit, d, n, c_in, c_out)

    @given(st.floats(0, math.pi / 2), speeds, speeds)
    @settings(max_examples=300)
    def test_phase_derivatives_and_split(self, alpha, c_in, c_out):
        _same(normal_phase_derivatives, _ref_normal_phase_derivatives, alpha, c_in, c_out)
        a, b = _ref_normal_phase_derivatives(alpha, c_in, c_out)
        _same(energy_split, _ref_energy_split, a, b)

    def test_edge_cases(self):
        n = np.array([0.0, 1.0])
        for args in (([1.0, 0.0], n), ([0.0, -1.0], n), ([0.0, 1.0], n)):
            _same(reflect, _ref_reflect, *args)
            _same(snell_transmit, _ref_snell_transmit, *args, 1.0, 2.0)
        _same(snell_transmit, _ref_snell_transmit, [0.6, -0.8], n, 0.0, 1.0)
        for a, b in ((0.0, 1.0), (1.0, -1e-300), (1.0, 0.0), (2.0, 2.0)):
            _same(energy_split, _ref_energy_split, a, b)


class TestTraceBranches:
    def test_uniform_medium_straight_exit(self, setup):
        g, _, omega, _ = setup
        m = uniform_medium(g)
        graph = trace_branches((0.1, 0.0), (1.0, 0.0), m, omega, 4.0)
        kinds = [n.kind for n in graph.nodes]
        assert kinds.count("launch") == 2
        assert kinds.count("exit") == 2
        exits = graph.exits()
        # chord oracle: +x exits at the right edge, -x at the left edge
        x_right = max(n.x[0] for n in exits)
        x_left = min(n.x[0] for n in exits)
        rect_x1 = g.xs[omega.params["i1"]]
        rect_x0 = g.xs[omega.params["i0"]]
        assert x_right == pytest.approx(rect_x1, abs=1e-9)
        assert x_left == pytest.approx(rect_x0, abs=1e-9)
        times = sorted(n.t for n in exits)
        assert times[0] == pytest.approx(rect_x1 - 0.1, abs=1e-9)
        assert times[1] == pytest.approx(0.1 - rect_x0, abs=1e-9)

    def test_radial_ray_transmits_and_exits(self, setup):
        g, m, omega, _ = setup
        graph = trace_branches((0.05, 0.0), (1.0, 0.0), m, omega, 4.0,
                               {"max_depth": 8, "min_weight": 1e-3})
        exits = graph.exits()
        assert exits
        # chord arithmetic for the +x launch: (0.5-0.05)/0.5 inside, then
        # (omega_edge - 0.5)/1 outside
        rect_x1 = g.xs[omega.params["i1"]]
        t_direct = (0.5 - 0.05) / 0.5 + (rect_x1 - 0.5) / 1.0
        assert min(abs(n.t - t_direct) for n in exits) < 1e-9
        # normal incidence recorded on the transmit event
        hits = [n for n in graph.nodes if n.kind == "transmit"]
        assert min(h.angle for h in hits) < 1e-9

    def test_trapped_ray_never_exits(self, setup):
        g, m, omega, _ = setup
        # sin(alpha) = 0.9 > c0 = 0.5: every bounce totally internally reflects
        graph = trace_branches((0.45, 0.0), (0.0, 1.0), m, omega, 1.0,
                               {"max_depth": 40, "min_weight": 1e-9})
        assert not graph.exits()
        kinds = {n.kind for n in graph.leaves()}
        assert kinds <= {"expiry", "truncation"}
        # weights never decay on pure internal reflection
        for n in graph.nodes:
            if n.kind == "reflect":
                assert n.weight == pytest.approx(1.0, abs=1e-12)

    def test_weight_conservation_at_splits(self, setup):
        g, m, omega, _ = setup
        graph = trace_branches((0.1, 0.07), (0.6, 0.8), m, omega, 3.0,
                               {"max_depth": 6, "min_weight": 1e-6})
        for n in graph.nodes:
            children = graph.children(n.node_id)
            split = [c for c in children if c.kind in ("reflect", "transmit")]
            if split:
                assert sum(c.weight for c in split) == pytest.approx(n.weight, abs=1e-12)

    def test_critical_incidence_flagged(self, setup):
        g, m, omega, _ = setup
        # angular momentum 0.25 = c0 * R0 puts the hit exactly at the critical angle
        graph = trace_branches((0.25, 0.0), (0.0, 1.0), m, omega, 2.0)
        kinds = [n.kind for n in graph.nodes]
        assert "tangent_undetermined" in kinds

    def test_subnormal_direction_component(self, setup):
        # the y side's hit time (side - y)/5e-324 overflows to inf: no hit, no warning
        g, m, omega, _ = setup
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = trace_branches((0.1, 0.2), (1.0, 5e-324), m, omega, 4.0)
        assert graph.exits()

    def test_zero_time_expires(self, setup):
        g, m, omega, _ = setup
        graph = trace_branches((0.1, 0.0), (1.0, 0.0), m, omega, 0.0)
        assert {n.kind for n in graph.leaves()} == {"expiry"}

    def test_inputs_checked_before_zero_time(self, setup):
        g, m, omega, kset = setup
        for x0, region in (((1.5, 0.0), omega), ((0.5, 0.0), omega), ((0.1, 0.0), kset)):
            with pytest.raises(ConfigurationError):
                trace_branches(x0, (1.0, 0.0), m, region, 0.0)

    def test_negative_time_rejected(self, setup):
        g, m, omega, kset = setup
        with pytest.raises(ConfigurationError, match="nonnegative"):
            trace_branches((0.1, 0.0), (1.0, 0.0), m, omega, -1.0)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            check_visibility(kset, m, omega, -1.0, {"n_pos": 2, "n_dir": 2})

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, setup, T):
        g, m, omega, kset = setup
        with pytest.raises(ConfigurationError, match="nonnegative and finite"):
            trace_branches((0.1, 0.0), (1.0, 0.0), m, omega, T)
        with pytest.raises(ConfigurationError, match="nonnegative and finite"):
            check_visibility(kset, m, omega, T, {"n_pos": 2, "n_dir": 2})

    def test_text_serialization_round_shape(self, setup):
        g, m, omega, _ = setup
        graph = trace_branches((0.1, 0.0), (1.0, 0.0), m, omega, 2.0)
        text = graph.to_text()
        assert text.startswith("#")
        assert len(text.strip().splitlines()) == len(graph.nodes) + 1


class TestVisibility:
    def test_example_one_visible(self, setup):
        g, m, omega, kset = setup
        visible, uncovered = check_visibility(kset, m, omega, 4.0,
                                              {"n_pos": 12, "n_dir": 24})
        assert visible and not uncovered

    def test_example_two_visible(self):
        g = Grid(161, 161, 4.6 / 160, origin=(-2.3, -2.3))
        m = build_medium([(0.8, 2.0), (0.5, 1.0)], g)
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        # rho < (c0/c1) R0 = 0.25
        kset = Region.disk(g, (0.0, 0.0), 0.2)
        visible, uncovered = check_visibility(kset, m, omega, 6.0,
                                              {"n_pos": 12, "n_dir": 24})
        assert visible and not uncovered

    def test_zero_time_all_uncovered(self, setup):
        g, m, omega, kset = setup
        visible, uncovered = check_visibility(kset, m, omega, 0.0,
                                              {"n_pos": 4, "n_dir": 4})
        assert not visible
        assert len(uncovered) == 16

    def test_monotone_in_time(self, setup):
        g, m, omega, kset = setup
        sampling = {"n_pos": 8, "n_dir": 12}
        _, unc_short = check_visibility(kset, m, omega, 1.0, dict(sampling))
        _, unc_long = check_visibility(kset, m, omega, 2.5, dict(sampling))
        assert set(unc_long) <= set(unc_short)

    def test_sampling_helpers(self, setup):
        g, _, _, kset = setup
        pts = sample_positions(kset, 64)
        assert pts.shape == (64, 2)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) < 0.2)
        dirs = sample_directions(16)
        assert np.allclose(np.hypot(dirs[:, 0], dirs[:, 1]), 1.0)

    def test_rectangle_kset_visible(self, setup):
        g, _, omega, _ = setup
        m = uniform_medium(g)
        kset = Region.rectangle_from_physical(g, -0.15, 0.15, -0.15, 0.15)
        pts = sample_positions(kset, 9)
        assert np.all(np.abs(pts) <= 0.15 + 1e-12)
        visible, uncovered = check_visibility(kset, m, omega, 3.0,
                                              {"n_pos": 9, "n_dir": 8})
        assert visible and not uncovered

    def test_bad_sampling_keys_rejected(self, setup):
        g, m, omega, kset = setup
        with pytest.raises(ConfigurationError):
            check_visibility(kset, m, omega, 1.0, {"n_positions": 4})
        for w in (math.nan, math.inf, 0.0, 1.0, 2.5):
            with pytest.raises(ConfigurationError, match="caps must be positive and finite"):
                check_visibility(kset, m, omega, 1.0,
                                 {"n_pos": 2, "n_dir": 2, "caps": {"min_weight": w}})


# -- reference: the per-ray scalar tracer, kept verbatim as the oracle ------------------
#
# The scalar interface laws, geometry helpers and speed lookup below are the
# per-ray code the generation-batched kernel replaced, copied unchanged, so
# the oracle shares no float arithmetic with the code under test.  One change:
# a ray carries its layer speed, looked up at the launch point and then c_in
# for a reflected branch and c_out for a transmitted one, because a hit point
# lies on its circle only to rounding, so looking the speed up there gives
# either side's.


def _ref_speed_at(m, x):
    px, py = float(x[0]), float(x[1])
    if not m.grid.contains_point(px, py):
        raise DomainError(f"point {x} lies outside the grid")
    r = math.hypot(px, py)
    for radius, speed in reversed(m.layers):  # innermost first
        if r < radius:
            return speed
    return BACKGROUND_SPEED


def _ref_reflect(d, n):
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    dn = float(d @ n)
    if abs(dn) < math.sin(rays.TANGENCY_TOL):
        raise TangencyError("incident direction is tangential to the surface")
    return d - 2.0 * dn * n


def _ref_snell_transmit(d, n, c_in, c_out):
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if c_in <= 0 or c_out <= 0:
        raise ConfigurationError("speeds must be positive")
    dn = float(d @ n)
    if dn > 0:
        n = -n
        dn = -dn
    cos_a = min(-dn, 1.0)
    if cos_a < math.sin(rays.TANGENCY_TOL):
        raise TangencyError("incident direction is tangential to the surface")
    tang = d - dn * n
    sin_a = float(np.hypot(*tang))
    alpha = math.asin(min(sin_a, 1.0))
    if c_in < c_out:
        alpha0 = math.asin(c_in / c_out)
        if abs(alpha - alpha0) < rays.CRITICAL_TOL:
            raise CriticalAngleError("incidence within tolerance of the critical angle")
        if alpha > alpha0:
            return None
    sin_b = sin_a * c_out / c_in
    cos_b = math.sqrt(max(0.0, 1.0 - sin_b * sin_b))
    if sin_a == 0.0:
        return -n * cos_b
    t_hat = tang / sin_a
    return sin_b * t_hat - cos_b * n


def _ref_normal_phase_derivatives(alpha, c_in, c_out):
    s = math.sin(alpha) / c_in
    a = math.sqrt(max(0.0, c_in ** -2 - s * s))
    b_sq = c_out ** -2 - s * s
    b = math.sqrt(b_sq) if b_sq > 0 else 0.0
    return a, b


def _ref_energy_split(a, b):
    if a <= 0:
        raise DegenerateInputError(f"incident normal derivative must be positive, got {a}")
    if b < 0:
        raise DegenerateInputError(f"transmitted normal derivative must be nonnegative, got {b}")
    if b == 0.0:
        return 0.0
    return 4.0 * a * b / (a + b) ** 2


def _ref_circle_hit(x, d, radius):
    b = float(x @ d)
    c = float(x @ x) - radius * radius
    disc = b * b - c
    if disc <= 0:
        return None
    sq = math.sqrt(disc)
    for t in (-b - sq, -b + sq):
        if t > rays._POSITION_EPS * max(1.0, radius):
            return t
    return None


def _ref_rect_exit(x, d, rect):
    xmin, xmax, ymin, ymax = rect
    ts = []
    if d[0] > 0:
        ts.append((xmax - x[0]) / d[0])
    elif d[0] < 0:
        ts.append((xmin - x[0]) / d[0])
    if d[1] > 0:
        ts.append((ymax - x[1]) / d[1])
    elif d[1] < 0:
        ts.append((ymin - x[1]) / d[1])
    return min(t for t in ts if t > rays._POSITION_EPS)


def _ref_rect_normal(x, rect):
    xmin, xmax, ymin, ymax = rect
    dists = [abs(x[0] - xmin), abs(x[0] - xmax), abs(x[1] - ymin), abs(x[1] - ymax)]
    k = int(np.argmin(dists))
    return np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)][k])


@dataclass
class Ray:
    x: np.ndarray
    d: np.ndarray
    speed: float
    t: float = 0.0
    weight: float = 1.0
    depth: int = 0
    skip: float | None = None      # the radius of a circle left on its outer side

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=np.float64)
        n = float(np.hypot(*self.d))
        if n == 0.0:
            raise ConfigurationError("ray direction must be nonzero")
        self.d = self.d / n
        if not 0.0 <= self.weight <= 1.0 or self.t < 0:
            raise ConfigurationError("ray weight must lie in [0,1] and time be nonnegative")


def _ref_trace_branches(x0, d0, m, omega, T, caps=None):
    RayBranchGraph = rays.RayBranchGraph
    caps = dict(caps or {})
    max_depth = int(caps.pop("max_depth", 12))
    min_weight = float(caps.pop("min_weight", 1e-4))
    if caps:
        raise ConfigurationError(f"unknown caps: {sorted(caps)}")
    if max_depth < 1 or min_weight <= 0:
        raise ConfigurationError("caps must be positive")
    if T <= 0:
        # zero observation time: both launches expire immediately
        graph = RayBranchGraph()
        for sgn in (1.0, -1.0):
            root = Ray(x0, sgn * np.asarray(d0, dtype=float), _ref_speed_at(m, x0))
            nid = graph.add(None, "launch", root.x, 0.0, 1.0, 0, direction=root.d)
            graph.add(nid, "expiry", root.x, 0.0, 1.0, 0)
        return graph
    rect = rays._omega_rect(omega)
    x0 = np.asarray(x0, dtype=np.float64)
    radii = [iface.radius for iface in m.interfaces]
    if any(abs(np.hypot(*x0) - r) < 10 * rays._POSITION_EPS for r in radii):
        raise ConfigurationError("launch point must not lie on an interface circle")
    if not (rect[0] < x0[0] < rect[1] and rect[2] < x0[1] < rect[3]):
        raise ConfigurationError("launch point must lie inside the measurement rectangle")

    graph = RayBranchGraph()
    stack = []
    for sgn in (1.0, -1.0):
        root = Ray(x0.copy(), sgn * np.asarray(d0, dtype=float), _ref_speed_at(m, x0))
        nid = graph.add(None, "launch", root.x, 0.0, 1.0, 0, direction=root.d)
        stack.append((nid, root))

    while stack:
        parent, ray = stack.pop()
        c_here = ray.speed
        hits = [(_ref_circle_hit(ray.x, ray.d, r), r) for r in radii if r != ray.skip]
        hits = [(t, r) for t, r in hits if t is not None]
        t_circle, r_hit = min(hits, default=(math.inf, None))
        t_rect = _ref_rect_exit(ray.x, ray.d, rect)
        t_event = min(t_circle, t_rect)
        t_arrive = ray.t + t_event / c_here

        if t_arrive >= T:
            pos = ray.x + ray.d * (T - ray.t) * c_here
            graph.add(parent, "expiry", pos, T, ray.weight, ray.depth)
            continue

        pos = ray.x + ray.d * t_event
        if t_rect < t_circle:
            n_out = _ref_rect_normal(pos, rect)
            if abs(float(ray.d @ n_out)) < math.sin(rays.TANGENCY_TOL):
                graph.add(parent, "tangent_undetermined", pos, t_arrive, ray.weight, ray.depth)
            else:
                graph.add(parent, "exit", pos, t_arrive, ray.weight, ray.depth,
                          direction=ray.d)
            continue

        # transversal circle hit
        r_unit = pos / float(np.hypot(*pos))
        going_out = float(ray.d @ r_unit) > 0
        iface = next(i for i in m.interfaces if i.radius == r_hit)
        c_in, c_out = (iface.c_int, iface.c_ext) if going_out else (iface.c_ext, iface.c_int)
        surface_n = r_unit if going_out else -r_unit
        cos_a = min(abs(float(ray.d @ r_unit)), 1.0)
        alpha = math.acos(cos_a)
        if (math.pi / 2 - alpha) < rays.TANGENCY_TOL:
            graph.add(parent, "tangent_undetermined", pos, t_arrive, ray.weight,
                      ray.depth, angle=alpha)
            continue
        if c_in < c_out:
            alpha0 = math.asin(c_in / c_out)
            if abs(alpha - alpha0) < rays.CRITICAL_TOL:
                graph.add(parent, "tangent_undetermined", pos, t_arrive, ray.weight,
                          ray.depth, angle=alpha)
                continue
        a, b = _ref_normal_phase_derivatives(alpha, c_in, c_out)
        transmitted = _ref_snell_transmit(ray.d, surface_n, c_in, c_out)
        frac_t = _ref_energy_split(a, b) if transmitted is not None else 0.0
        depth = ray.depth + 1

        def extend(nid, child_ray):
            if child_ray.weight < min_weight:
                graph.nodes[nid].kind = "truncation"
            elif depth >= max_depth:
                graph.nodes[nid].kind = "truncation"
            else:
                stack.append((nid, child_ray))

        d_refl = _ref_reflect(ray.d, surface_n)
        w_refl = ray.weight * (1.0 - frac_t)
        nid = graph.add(parent, "reflect", pos, t_arrive, w_refl, depth,
                        angle=alpha, direction=d_refl)
        extend(nid, Ray(pos.copy(), d_refl, c_in, t_arrive, w_refl, depth,
                        None if going_out else r_hit))
        if transmitted is not None:
            w_tr = ray.weight * frac_t
            nid = graph.add(parent, "transmit", pos, t_arrive, w_tr, depth,
                            angle=alpha, direction=transmitted)
            extend(nid, Ray(pos.copy(), transmitted, c_out, t_arrive, w_tr, depth,
                            r_hit if going_out else None))

    return graph


def _node_bits(n):
    return (n.kind, n.parent, n.x.tobytes(), n.t, n.weight, n.depth, n.angle,
            None if n.direction is None else n.direction.tobytes())


@functools.cache
def _example(name):
    """(medium, omega, T) of a committed example config."""
    cfg = RunConfig.from_file(Path(__file__).parents[1] / "configs" / f"{name}.cfg")
    g = cfg.build_grid()
    return cfg.build_medium(g), cfg.build_omega(g), cfg.values["time.T"]


def _geometries():
    """(medium, omega, kset, T) for the example1 disk, the example2 skull and the
    slow disk of acceptance criterion 5."""
    _, m1, omega1, kset1 = example1_setup()
    m2, omega2, T2 = _example("example2_skull")
    _, m5, omega5, kset5 = example1_setup(N=512, L=4.1, kr=0.483)
    return {"example1": (m1, omega1, kset1, 4.0),
            "skull": (m2, omega2, Region.disk(omega2.grid, (0.0, 0.0), 0.4), T2),
            "slow_disk": (m5, omega5, kset5, 1.0)}


class TestReferenceTracer:
    """trace_branches and check_visibility agree with the full-tree reference loop."""

    @pytest.fixture(scope="class")
    def geometries(self):
        return _geometries()

    @pytest.mark.parametrize("name", ["example1", "skull", "slow_disk"])
    @pytest.mark.parametrize("caps", [None, {"max_depth": 3, "min_weight": 0.05}])
    def test_sampled_graphs_match(self, geometries, name, caps):
        m, omega, kset, T = geometries[name]
        for x in sample_positions(kset, 6):
            for d in sample_directions(8):
                for t in (T, 0.0):
                    got = trace_branches(x, d, m, omega, t, caps).to_text()
                    assert got == _ref_trace_branches(x, d, m, omega, t, caps).to_text()

    @pytest.mark.parametrize("x0,d0,caps,kind", [
        ((0.25, 0.0), (0.0, 1.0), None, "tangent_undetermined"),        # critical angle
        ((0.0, None), (1.0, 1e-11), None, "tangent_undetermined"),      # grazing exit
        ((0.45, 0.0), (0.0, 1.0), {"max_depth": 3}, "truncation"),      # trapped
    ])
    def test_special_leaves_match(self, geometries, x0, d0, caps, kind):
        m, omega, _, _ = geometries["example1"]
        if x0[1] is None:   # just below the top side, so the ray leaves it at 1e-11 rad
            x0 = (x0[0], rays._omega_rect(omega)[3] - 1e-12)
        got = trace_branches(x0, d0, m, omega, 4.0, caps)
        assert kind in {n.kind for n in got.leaves()}
        assert got.to_text() == _ref_trace_branches(x0, d0, m, omega, 4.0, caps).to_text()

    def test_uncovered_set_matches(self, geometries):
        m, omega, kset, T = geometries["skull"]
        sampling = {"n_pos": 6, "n_dir": 16, "caps": {"max_depth": 12, "min_weight": 1e-4}}
        samples = [(tuple(x), tuple(d)) for x in sample_positions(kset, 6)
                   for d in sample_directions(16)]
        expected = [s for s in samples
                    if not _ref_trace_branches(*s, m, omega, T, sampling["caps"]).has_clean_exit()]
        assert 0 < len(expected) < len(samples)
        visible, uncovered = check_visibility(kset, m, omega, T, sampling)
        assert not visible
        assert uncovered == expected

    @pytest.mark.parametrize("name", ["skull", "example1"])
    def test_sampled_nodes_match(self, geometries, name):
        m, omega, kset, T = geometries[name]
        for x in sample_positions(kset, 6):
            for d in sample_directions(16):
                got = trace_branches(x, d, m, omega, T).nodes
                want = _ref_trace_branches(x, d, m, omega, T).nodes
                assert [_node_bits(n) for n in got] == [_node_bits(n) for n in want]

    @pytest.mark.parametrize("name,radius,n_dir", [("skull", 0.4, 96), ("example1", 0.45, 96)])
    def test_uncovered_set_matches_at_bench_size(self, geometries, name, radius, n_dir):
        m, omega, _, T = geometries[name]
        kset = Region.disk(omega.grid, (0.0, 0.0), radius)
        samples = [(tuple(x), tuple(d)) for x in sample_positions(kset, 24)
                   for d in sample_directions(n_dir)]
        expected = [s for s in samples
                    if not _ref_trace_branches(*s, m, omega, T).has_clean_exit()]
        assert 0 < len(expected) < len(samples)
        assert check_visibility(kset, m, omega, T, {"n_pos": 24, "n_dir": n_dir}) == (
            False, expected)

    def test_law_error_raises_from_the_batch(self, geometries):
        # A ray from (x0, 0) along +y meets the slow disk (radius 0.5, speeds
        # 0.5 | 1) at the critical angle when x0 = 0.25.  The kernel flags the
        # hit as undetermined from acos of the radial component, snell_transmit
        # raises from asin of the tangential one; just past the 1e-12 window
        # the two can disagree, and then the law's error must propagate.
        m, omega, _, _ = geometries["example1"]
        edge = 0.5e-12 * math.cos(math.pi / 6)     # x0 offset worth CRITICAL_TOL
        raising = []
        for x0 in (0.25 + sgn * edge + j * 2.0 ** -54 for sgn in (1, -1) for j in range(-60, 60)):
            try:
                want = _ref_trace_branches((x0, 0.0), (0.0, 1.0), m, omega, 4.0).to_text()
            except CriticalAngleError:
                raising.append(x0)
                with pytest.raises(CriticalAngleError):
                    trace_branches((x0, 0.0), (0.0, 1.0), m, omega, 4.0)
            else:
                assert trace_branches((x0, 0.0), (0.0, 1.0), m, omega, 4.0).to_text() == want
        assert raising
        # batched with a sample whose rays exit, the raising rays are not dropped
        s = rays._scene(m, omega, 4.0, None)
        x = np.array([(0.6, 0.0), (0.6, 0.0), (raising[0], 0.0), (raising[0], 0.0)])
        d = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
        with pytest.raises(CriticalAngleError):
            list(rays._grow(s, x, d, np.array([0, 0, 1, 1]), np.zeros(2, dtype=bool)))

    def test_undetermined_sample_uncovered(self, geometries):
        m, omega, _, _ = geometries["example1"]
        # one sample at (0.25, 0) heading along +-y: both launches meet the
        # slow disk exactly at the critical angle and end undetermined
        rad = 0.05
        kset = Region.disk(omega.grid, (0.25 - rad * 0.5 ** 0.25 * 0.98, 0.0), rad)
        (x,), (d,) = sample_positions(kset, 1), sample_directions(1)
        graph = _ref_trace_branches(x, d, m, omega, 4.0)
        assert {n.kind for n in graph.leaves()} == {"tangent_undetermined"}
        assert check_visibility(kset, m, omega, 4.0, {"n_pos": 1, "n_dir": 1}) == (
            False, [(tuple(x), tuple(d))])


class TestLayerSpeed:
    """A branch moves at the speed of the layer it is in, also after it leaves an
    interface, whose hit points lie on the circle only to rounding."""

    def test_radial_reflections_in_the_skull(self):
        m, omega, T = _example("example2_skull")
        # launch 0 runs along -x from the origin: brain (c = 1) to r = 0.5,
        # shell (c = 2) to r = 0.8
        graph = trace_branches((0.0, 0.0), (-1.0, 0.0), m, omega, T)

        def branch(parent, kind):
            (node,) = [n for n in graph.children(parent.node_id) if n.kind == kind]
            return node

        def after(node, x, t):
            children = graph.children(node.node_id)
            assert children
            for n in children:
                assert n.x == pytest.approx(x, abs=1e-12) and n.t == pytest.approx(t, abs=1e-12)

        launch = graph.nodes[0]
        brain = branch(launch, "reflect")
        assert brain.x == pytest.approx((-0.5, 0.0), abs=1e-12) and brain.t == pytest.approx(0.5)
        after(brain, (0.5, 0.0), 1.5)           # back across the brain at c = 1
        shell = branch(branch(launch, "transmit"), "reflect")
        assert shell.x == pytest.approx((-0.8, 0.0), abs=1e-12) and shell.t == pytest.approx(0.65)
        after(shell, (-0.5, 0.0), 0.8)          # back across the shell at c = 2

    def test_grazing_reflection_does_not_creep_along_the_circle(self):
        # this ray grazes the brain circle (r = 0.5) from outside near t = 2.248;
        # its hit point rounds to just inside the circle, where a second root
        # lies about 1e-8 on and the branch used to creep on in micro-chords
        m, omega, T = _example("example2_skull")
        graph = trace_branches((0.5, 0.5), (1.0, 0.0), m, omega, T)
        radii = [i.radius for i in m.interfaces]
        grazes = [n for n in graph.nodes if n.kind == "reflect"
                  and abs(n.t - 2.248) < 1e-3 and abs(math.hypot(*n.x) - 0.5) < 1e-9]
        assert grazes
        for n in graph.nodes:
            if n.parent is None:
                continue
            p = graph.nodes[n.parent]
            on_one_circle = any(abs(math.hypot(*n.x) - r) < 1e-6
                                and abs(math.hypot(*p.x) - r) < 1e-6 for r in radii)
            assert not (on_one_circle and np.hypot(*(n.x - p.x)) < 1e-6), (p, n)
        ref = _ref_trace_branches((0.5, 0.5), (1.0, 0.0), m, omega, T)
        assert [_node_bits(n) for n in graph.nodes] == [_node_bits(n) for n in ref.nodes]

    @pytest.mark.parametrize("name", ["example1", "example2_skull"])
    @given(x=st.floats(-0.95, 0.95), y=st.floats(-0.95, 0.95),
           phi=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_segments_move_at_the_layer_speed(self, name, x, y, phi):
        m, omega, T = _example(name)
        assume(all(abs(math.hypot(x, y) - i.radius) > 1e-6 for i in m.interfaces))
        graph = trace_branches((x, y), (math.cos(phi), math.sin(phi)), m, omega, T)
        for n in graph.nodes:
            if n.parent is None:
                continue
            p = graph.nodes[n.parent]
            mid = tuple(((n.x + p.x) / 2).tolist())
            if any(abs(math.hypot(*mid) - i.radius) < 1e-12 for i in m.interfaces):
                continue    # grazes a circle: to rounding, its midpoint names no layer
            dist = float(np.hypot(*(n.x - p.x)))
            assert dist / (n.t - p.t) == pytest.approx(speed_at(m, mid), abs=1e-9)
