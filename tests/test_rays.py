import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermotomo import cli, rays
from thermotomo.config import RunConfig
from thermotomo.errors import (
    ConfigurationError,
    CriticalAngleError,
    DegenerateInputError,
    DomainError,
    TangencyError,
)
from thermotomo.grid_field import Grid, Region
from thermotomo.medium import (
    BACKGROUND_SPEED,
    InterfaceDescriptor,
    Medium,
    build_medium,
    speed_at,
    speeds_at,
    uniform_medium,
)
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


# (law of two inputs, a valid pair, the error, what it says): a speed law takes
# (c_in, c_out), a split law the normal derivatives (a, b)
_LAWS = {
    "InterfaceDescriptor": (lambda u, v: InterfaceDescriptor(0.5, u, v), (0.5, 1.0),
                            ConfigurationError, "positive and finite"),
    "snell_transmit": (lambda u, v: snell_transmit((0.6, -0.8), (0.0, 1.0), u, v), (0.5, 1.0),
                       ConfigurationError, "positive and finite"),
    "normal_phase_derivatives": (lambda u, v: normal_phase_derivatives(0.3, u, v), (0.5, 1.0),
                                 ConfigurationError, "positive and finite"),
    "amplitude_coeffs": (amplitude_coeffs, (1.0, 0.5), DegenerateInputError, "normal derivative"),
    "energy_split": (energy_split, (1.0, 0.5), DegenerateInputError, "normal derivative"),
}
_BAD_LAW_INPUTS = [(law, side, bad) for law in list(_LAWS)[:3] for side in (0, 1)
                   for bad in (math.nan, math.inf, 0.0, -1.0)]
_BAD_LAW_INPUTS += [(law, side, math.nan) for law in list(_LAWS)[3:] for side in (0, 1)]


@pytest.mark.parametrize("law,side,bad", _BAD_LAW_INPUTS)
def test_laws_reject_a_bad_input_on_either_side(law, side, bad):
    # NaN used to slip through every law: a NaN speed gave NaN directions or
    # (0, 0) derivatives, a NaN derivative NaN amplitudes; a zero c_out raised
    # ZeroDivisionError in normal_phase_derivatives
    fn, valid, error, message = _LAWS[law]
    args = list(valid)
    args[side] = bad
    with pytest.raises(error, match=message):
        fn(*args)


# (call, what it says): a non-finite direction, a normal (or a snell_transmit
# direction) off unit length, or an incidence angle outside [0, pi/2]
_BAD_GEOMETRY = {
    "reflect_nan_d": (lambda: reflect((math.nan, math.nan), (0.0, 1.0)), "direction"),
    "reflect_inf_d": (lambda: reflect((math.inf, -1.0), (0.0, 1.0)), "direction"),
    "reflect_nan_n": (lambda: reflect((0.6, -0.8), (math.nan, 1.0)), "normal"),
    "reflect_long_n": (lambda: reflect((0.6, -0.8), (0.0, 2.0)), "normal"),
    "snell_nan_d": (lambda: snell_transmit((math.nan, -0.8), (0.0, 1.0), 1.0, 0.5), "direction"),
    "snell_long_d": (lambda: snell_transmit((1.2, -1.6), (0.0, 1.0), 1.0, 0.5), "direction"),
    "snell_long_n": (lambda: snell_transmit((0.6, -0.8), (0.0, 2.0), 1.0, 0.5), "normal"),
    "snell_short_n": (lambda: snell_transmit((0.6, -0.8), (0.0, 1.0 - 1e-6), 1.0, 0.5),
                      "normal"),
    "phase_nan_alpha": (lambda: normal_phase_derivatives(math.nan, 0.5, 1.0), "angle"),
    "phase_negative_alpha": (lambda: normal_phase_derivatives(-0.1, 0.5, 1.0), "angle"),
    "phase_alpha_past_right_angle": (lambda: normal_phase_derivatives(2.0, 0.5, 1.0), "angle"),
}


@pytest.mark.parametrize("row", _BAD_GEOMETRY)
def test_laws_reject_bad_directions_normals_and_angles(row):
    # each used to answer silently: reflect gave NaN, a non-unit normal a wrong
    # direction, and normal_phase_derivatives (0, 0) for a NaN angle
    call, message = _BAD_GEOMETRY[row]
    with pytest.raises(DegenerateInputError, match=message):
        call()


def test_laws_accept_unit_vectors_within_tolerance():
    n = (0.0, 1.0 + 5e-10)
    assert np.allclose(reflect((0.6, -0.8), n), (0.6, 0.8))
    assert np.allclose(snell_transmit((0.6, -0.8), n, 1.0, 0.5), (0.3, -math.sqrt(1 - 0.09)))
    assert normal_phase_derivatives(math.pi / 2, 0.5, 1.0)[1] == 0.0


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


_UFUNC_DOMAINS = {
    np.arccos: st.floats(0.0, 1.0),
    np.arcsin: st.floats(0.0, 1.0),
    np.sin: st.floats(0.0, math.pi / 2),
    np.square: st.floats(0.0, exclude_min=True, allow_infinity=False),
}


class TestBatchInvariantUfuncs:
    """The kernel's elementary functions give each element the same bits alone, as a
    Python float and in a 1-element array, in the whole batch, at an offset and in a
    strided view; the kernel and the scalar oracle rely on it."""

    @pytest.mark.parametrize("fn", list(_UFUNC_DOMAINS), ids=lambda fn: fn.__name__)
    @given(data=st.data())
    @settings(max_examples=200)
    def test_each_element_has_the_same_bits_in_any_batch(self, fn, data):
        x = np.array(data.draw(st.lists(_UFUNC_DOMAINS[fn], min_size=1, max_size=80)))
        k = data.draw(st.integers(0, len(x) - 1))

        def bits(v):
            return np.asarray(v, dtype=np.float64).view(np.uint64).tolist()

        with np.errstate(over="ignore", under="ignore"):
            whole = bits(fn(x))
            assert bits([fn(v) for v in x.tolist()]) == whole
            assert bits([fn(x[i:i + 1])[0] for i in range(len(x))]) == whole
            assert bits(fn(x[k:])) == whole[k:]
            assert bits(fn(x[::2])) == whole[::2]


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

    def test_uniform_medium_rays_move_at_its_speed(self):
        # at speed 2 a ray from the origin leaves the square [-1, 1]^2 at t = 0.5;
        # rays that read speed 1 outside every disk stopped at x = 0.75 at T
        g = Grid(81, 81, 0.05, origin=(-2.0, -2.0))
        omega = Region.rectangle_from_physical(g, -1.0, 1.0, -1.0, 1.0)
        graph = trace_branches((0.0, 0.0), (1.0, 0.0), uniform_medium(g, 2.0), omega, 0.75)
        assert [n.kind for n in graph.nodes].count("exit") == 2
        for n in graph.exits():
            assert abs(n.x[0]) == pytest.approx(1.0, abs=1e-12)
            assert n.t == pytest.approx(0.5, abs=1e-12)

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

    @given(c_in=st.floats(0.3, 3.0), ulps=st.integers(-4, 4).filter(bool),
           phi=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_weights_stay_in_0_1_at_a_nearly_matched_interface(self, c_in, ulps, phi):
        # 4ab/(a+b)^2 rounds up to 1 + 4.4e-16 when a and b are nearly equal;
        # capped at 1, it gives no transmit weight above 1 and no negative reflect
        c_out = c_in
        for _ in range(abs(ulps)):
            c_out = math.nextafter(c_out, math.copysign(math.inf, ulps))
        g, _, omega, _ = example1_setup()
        m = Medium(g, ((0.5, c_in),), c_out)
        graph = trace_branches((0.1, 0.05), (math.cos(phi), math.sin(phi)), m, omega, 3.0,
                               {"max_depth": 6, "min_weight": 1e-6})
        assert all(0.0 <= n.weight <= 1.0 for n in graph.nodes)

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

    def test_incidence_grazing_to_working_precision(self):
        # the line y = 0.5 touches the slow disk (r = 0.5) at (0, 0.5); the
        # -x launch hits it 7.5e-9 rad from grazing: outside TANGENCY_TOL, yet
        # sin(alpha) rounds to 1, so the incident normal derivative is 0
        m, omega, T = _example("example1")
        graph = trace_branches((0.27513471138669365, 0.5), (1.0, 0.0), m, omega, T)
        (hit,) = [n for n in graph.nodes if n.angle is not None]
        assert hit.kind == "tangent_undetermined"
        assert rays.TANGENCY_TOL < math.pi / 2 - hit.angle < 2.0 ** -26
        ref = _ref_trace_branches((0.27513471138669365, 0.5), (1.0, 0.0), m, omega, T)
        assert [_node_bits(n) for n in graph.nodes] == [_node_bits(n) for n in ref.nodes]

    def test_zero_time_expires(self, setup):
        # the launches are nodes 0 and 1 at every T; each expires where it starts
        g, m, omega, _ = setup
        graph = trace_branches((0.1, 0.0), (1.0, 0.0), m, omega, 0.0)
        assert [(n.kind, n.parent) for n in graph.nodes] == [
            ("launch", None), ("launch", None), ("expiry", 1), ("expiry", 0)]
        for n in graph.nodes[2:]:
            assert n.x.tolist() == [0.1, 0.0] and n.t == 0.0 and n.weight == 1.0

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_rejected(self, setup, bad):
        # such a direction used to give two expiry leaves at (nan, nan)
        g, m, omega, _ = setup
        for d0 in ((bad, 0.0), (0.0, bad), (bad, bad), (bad, -bad)):
            with pytest.raises(ConfigurationError, match="finite and nonzero"):
                trace_branches((0.1, 0.0), d0, m, omega, 4.0)

    @pytest.mark.parametrize("x0, d0", [((0.1, 0.0, 0.0), (1.0, 0.0)),
                                         ((0.1, 0.0), (1.0, 0.0, 0.0)),
                                         (((0.1, 0.0), (0.0, 0.1)), (1.0, 0.0)),
                                         ((0.1, 0.0), ((1.0, 0.0), (0.0, 1.0))),
                                         (0.1, (1.0, 0.0))])
    def test_launch_that_is_not_one_2_vector_rejected(self, setup, x0, d0):
        # these used to raise numpy's "cannot reshape" ValueError or an IndexError
        g, m, omega, _ = setup
        with pytest.raises(ConfigurationError, match="one 2-vector point and direction"):
            trace_branches(x0, d0, m, omega, 4.0)

    @pytest.mark.parametrize("x0, d0", [([[0.1, 0.0], [0.2]], (1.0, 0.0)),
                                         ([(0.1,), 0.0], (1.0, 0.0)),
                                         ((0.1, 0.0), [1.0, [0.0]]),
                                         (("0.1", "0.0"), (1.0, 0.0)),
                                         ((0.1, 0.0), (None, 1.0))])
    def test_ragged_or_non_numeric_launch_rejected(self, setup, x0, d0):
        # a ragged point used to raise numpy's "inhomogeneous shape" ValueError
        g, m, omega, _ = setup
        with pytest.raises(ConfigurationError, match="one 2-vector point and direction"):
            trace_branches(x0, d0, m, omega, 4.0)

    def test_numpy_launch_traces_as_floats(self, setup):
        g, m, omega, _ = setup
        want = trace_branches((0.1, 0.0), (1.0, 0.0), m, omega, 2.0).to_text()
        got = trace_branches(np.array([0.1, 0.0]), [np.float32(1.0), np.int64(0)],
                             m, omega, 2.0).to_text()
        assert got == want

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

    @pytest.mark.parametrize("n", [1, 7, 64, 101])
    def test_rectangle_lattice_is_x_major(self, setup, n):
        g, _, _, _ = setup
        kset = Region.rectangle_from_physical(g, -0.3, 0.2, -0.15, 0.25)
        side = math.ceil(math.sqrt(n))
        (i0, i1, j0, j1), q = kset.box, 0.25 * g.h
        xs = np.linspace(g.xs[i0] + q, g.xs[i1] - q, side)
        ys = np.linspace(g.ys[j0] + q, g.ys[j1] - q, side)
        want = np.array([(x, y) for x in xs for y in ys][:n])
        got = sample_positions(kset, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_bad_sampling_keys_rejected(self, setup):
        g, m, omega, kset = setup
        with pytest.raises(ConfigurationError):
            check_visibility(kset, m, omega, 1.0, {"n_positions": 4})
        for w in (math.nan, math.inf, 0.0, 1.0, 2.5):
            with pytest.raises(ConfigurationError, match="caps must be positive and finite"):
                check_visibility(kset, m, omega, 1.0,
                                 {"n_pos": 2, "n_dir": 2, "caps": {"min_weight": w}})


    @pytest.mark.parametrize("w", ["0.5", True, False, None, [0.5]])
    def test_min_weight_must_be_a_number(self, setup, w):
        # a str used to run through float(); the message names min_weight, not max_depth
        g, m, omega, kset = setup
        with pytest.raises(ConfigurationError) as err:
            check_visibility(kset, m, omega, 1.0,
                             {"n_pos": 2, "n_dir": 2, "caps": {"min_weight": w}})
        assert str(err.value) == f"caps must be positive and finite, min_weight below 1, got {w!r}"

    def test_numpy_min_weight_passes(self, setup):
        g, m, omega, kset = setup
        runs = [check_visibility(kset, m, omega, 1.0,
                                 {"n_pos": 2, "n_dir": 2, "caps": {"min_weight": w}})
                for w in (0.5, np.float64(0.5), np.float32(0.5))]
        assert runs[1] == runs[0] and runs[2] == runs[0]


# -- reference: the per-ray scalar tracer, kept verbatim as the oracle ------------------
#
# The scalar interface laws, geometry helpers and speed lookup below are the
# per-ray code the generation-batched kernel replaced, copied unchanged but for
# the incidence angle's arcsin and arccos, sin and the square (a + b) * (a + b),
# which it takes from numpy as the kernel does: numpy's loops give an element
# the same bits alone and in a batch (TestBatchInvariantUfuncs), so the oracle
# shares no other float arithmetic with the code under test.  Other changes:
# a ray carries its layer speed, looked up at the launch point and then c_in
# for a reflected branch and c_out for a transmitted one, because a hit point
# lies on its circle only to rounding, so looking the speed up there gives
# either side's; a ray does not search the circle it left on its outer side;
# and a hit whose incident normal derivative rounds to 0 is undetermined.


def _ref_speed_at(m, x):
    px, py = float(x[0]), float(x[1])
    if not m.grid.contains_point(px, py):
        raise DomainError(f"point {x} lies outside the grid")
    r = math.hypot(px, py)
    for radius, speed in reversed(m.layers):  # innermost first
        if r < radius:
            return speed
    return m.background


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
    alpha = np.arcsin(min(sin_a, 1.0))
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
    s = np.sin(alpha) / c_in
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
    return min(4.0 * a * b / ((a + b) * (a + b)), 1.0)


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


def _ref_trace_branches(x0, d0, m, omega, T, caps=None, first_exit=False):
    """The full branch forest, or with ``first_exit`` the forest up to its first
    exit leaf in depth-first order, which decides ``has_clean_exit``."""
    RayBranchGraph = rays.RayBranchGraph
    caps = dict(caps or {})
    max_depth = int(caps.pop("max_depth", 12))
    min_weight = float(caps.pop("min_weight", 1e-4))
    if caps:
        raise ConfigurationError(f"unknown caps: {sorted(caps)}")
    if max_depth < 1 or min_weight <= 0:
        raise ConfigurationError("caps must be positive")
    rect = omega.bounds
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
                if first_exit:
                    return graph
            continue

        # transversal circle hit
        r_unit = pos / float(np.hypot(*pos))
        going_out = float(ray.d @ r_unit) > 0
        iface = next(i for i in m.interfaces if i.radius == r_hit)
        c_in, c_out = (iface.c_int, iface.c_ext) if going_out else (iface.c_ext, iface.c_int)
        surface_n = r_unit if going_out else -r_unit
        cos_a = min(abs(float(ray.d @ r_unit)), 1.0)
        alpha = np.arccos(cos_a)
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
        if a <= 0:      # grazing to working precision
            graph.add(parent, "tangent_undetermined", pos, t_arrive, ray.weight,
                      ray.depth, angle=alpha)
            continue
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
    """(medium, omega, kset, T) for the example1 disk, the example2 skull, the
    slow disk of acceptance criterion 5 and example1's box at uniform speed 2."""
    g1, m1, omega1, kset1 = example1_setup()
    m2, omega2, T2 = _example("example2_skull")
    _, m5, omega5, kset5 = example1_setup(N=512, L=4.1, kr=0.483)
    return {"example1": (m1, omega1, kset1, 4.0),
            "skull": (m2, omega2, Region.disk(omega2.grid, (0.0, 0.0), 0.4), T2),
            "slow_disk": (m5, omega5, kset5, 1.0),
            "uniform_fast": (uniform_medium(g1, 2.0), omega1, kset1, 4.0)}


class TestReferenceTracer:
    """trace_branches and check_visibility agree with the full-tree reference loop."""

    @pytest.fixture(scope="class")
    def geometries(self):
        return _geometries()

    @pytest.mark.parametrize("name", ["example1", "skull", "slow_disk", "uniform_fast"])
    @pytest.mark.parametrize("caps", [None, {"max_depth": 3, "min_weight": 0.05}])
    def test_sampled_graphs_match(self, geometries, name, caps):
        # one sample at a time, and every position of a direction in one sweep
        m, omega, kset, T = geometries[name]
        positions = sample_positions(kset, 6)
        for d in sample_directions(8):
            for t in (T, 0.0):
                want = [_ref_trace_branches(x, d, m, omega, t, caps).to_text() for x in positions]
                assert [trace_branches(x, d, m, omega, t, caps).to_text()
                        for x in positions] == want
                assert [g.to_text() for g in
                        rays._branch_graphs(positions, d, m, omega, t, caps)] == want

    @pytest.mark.parametrize("x0,d0,caps,kind", [
        ((0.25, 0.0), (0.0, 1.0), None, "tangent_undetermined"),        # critical angle
        ((0.0, None), (1.0, 1e-11), None, "tangent_undetermined"),      # grazing exit
        ((0.45, 0.0), (0.0, 1.0), {"max_depth": 3}, "truncation"),      # trapped
    ])
    def test_special_leaves_match(self, geometries, x0, d0, caps, kind):
        m, omega, _, _ = geometries["example1"]
        if x0[1] is None:   # just below the top side, so the ray leaves it at 1e-11 rad
            x0 = (x0[0], omega.bounds[3] - 1e-12)
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
                    if not _ref_trace_branches(*s, m, omega, T, first_exit=True).has_clean_exit()]
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
        # Batched with a sample covered by a ray advanced ahead of the others,
        # a raising ray of an uncovered sample still raises: only a covered
        # sample's rays are dropped.  In a slow shell (c = 0.5 to r = 0.8)
        # around a disk of c = 0.6, a chord at distance p = 0.25 / 0.6 is held
        # in the shell by total reflection at r = 0.8 and meets r = 0.5 at the
        # critical angle; sample 1 launches on it outward, so its raising hit
        # comes after that reflection.  Sample 0 leaves the shell along +x, and
        # its transmitted ray, the one ray that left the outermost circle on its
        # outer side, is advanced alone in round 2 and exits.
        m = build_medium([(0.8, 0.5), (0.5, 0.6)], omega.grid)
        s = rays._scene(m, omega, 4.0, None)
        edge = 1e-12 * 0.5 * math.cos(math.asin(0.5 / 0.6))   # p offset worth CRITICAL_TOL
        raising = []
        for p in (0.25 / 0.6 + sgn * edge + j * 2.0 ** -54 for sgn in (1, -1) for j in range(-24, 24)):
            covered, rounds = np.zeros(2, dtype=bool), []
            x, d = np.array([(0.65, 0.0), (p, 0.5)]), np.array([(1.0, 0.0), (0.0, 1.0)])
            try:
                for ev, launch, _ in rays._grow(s, x, d, speeds_at(m, x), covered):
                    covered[launch[ev.kind == rays._EXIT]] = True
                    rounds.append((len(ev.ray), covered.tolist()))
            except CriticalAngleError:
                raising.append(p)
                assert rounds[:2] == [(3, [False, False]), (1, [True, False])]
                assert covered.tolist() == [True, False]
                with pytest.raises(CriticalAngleError):
                    _ref_trace_branches((p, 0.5), (0.0, 1.0), m, omega, 4.0)
        assert raising

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


def _assert_flags_match(radii, speeds, centre, radius, T, max_depth, min_weight,
                        n_pos, n_dir):
    """check_visibility's flags on example1's box with these layers, kset disk,
    T, caps and sampling are the reference's (examples where the reference
    raises a law error are rejected)."""
    radii = sorted(radii, reverse=True)
    assume(all(r1 - r2 > 0.02 for r1, r2 in zip(radii, radii[1:])))
    layers = list(zip(radii, speeds))
    assume(all(c1 != c2 for c1, c2 in zip([BACKGROUND_SPEED] + speeds, speeds)))
    g, _, omega, _ = example1_setup()
    m = build_medium(layers, g)
    kset = Region.disk(g, centre, radius)
    caps = {"max_depth": max_depth, "min_weight": min_weight}
    samples = [(tuple(x), tuple(d)) for x in sample_positions(kset, n_pos)
               for d in sample_directions(n_dir)]
    try:
        expected = [s for s in samples
                    if not _ref_trace_branches(*s, m, omega, T, caps).has_clean_exit()]
    except (TangencyError, CriticalAngleError, DegenerateInputError):
        assume(False)
    sampling = {"n_pos": n_pos, "n_dir": n_dir, "caps": caps}
    assert check_visibility(kset, m, omega, T, sampling) == (not expected, expected)


class TestSweepOrder:
    """check_visibility grows the (x, d) launches, then the (x, -d) launches of
    the samples still uncovered, each pass advancing the rays closest to an
    exit first; which samples it finds covered does not depend on that order."""

    # rows the bench-size skull sweep gives ``_advance``, 3 rounds of 1,450; with
    # both launches of every sample in one pass it gave 8,700, tracing its 1,708
    # trapped launches too 17,554, and whole generations, with covered samples
    # dropped only between them, 29,154
    SKULL_ROWS = 4_350

    def test_rows_advanced_at_bench_size(self, monkeypatch):
        m, omega, T = _example("example2_skull")
        kset = Region.disk(omega.grid, (0.0, 0.0), 0.4)
        rows, launched, advance = [], [], rays._advance

        def counting(s, x, d, c, t, w, depth, skip):
            rows.append(len(x))
            first = depth == 0
            launched.append(int(first.sum()))
            assert not rays._confined(s, x[first], d[first], c[first]).any()
            return advance(s, x, d, c, t, w, depth, skip)

        monkeypatch.setattr(rays, "_advance", counting)
        visible, uncovered = check_visibility(kset, m, omega, T, {"n_pos": 24, "n_dir": 96})
        assert not visible and len(uncovered) == 854
        # both launches of every uncovered sample are trapped, and each covered
        # sample's (x, d) tree has an exit, so its (x, -d) launch is never advanced
        assert sum(launched) == 24 * 96 - 854
        assert sum(rows) <= self.SKULL_ROWS

    # calls and rows raytrace's four branch graphs give ``_advance`` on that
    # skull, grown in one sweep; one graph at a time, each in whole
    # generations, the same 501 rows took 37 calls
    GRAPH_CALLS, GRAPH_ROWS = 16, 501

    def test_graph_calls_at_bench_size(self, monkeypatch, tmp_path):
        text = (Path(__file__).parents[1] / "configs" / "example2_skull.cfg").read_text()
        for old, new in (("kset.radius = 0.2", "kset.radius = 0.4"),
                         ("rays.n_pos = 48", "rays.n_pos = 24")):
            assert old in text
            text = text.replace(old, new)
        (cfg := tmp_path / "skull.cfg").write_text(text)
        rows, advance, sweep = [], rays._advance, cli.check_visibility

        def counting(s, x, *rest):
            rows.append(len(x))
            return advance(s, x, *rest)

        def sweep_then_forget(*args):
            flags = sweep(*args)
            rows.clear()        # the sweep's rows are pinned above
            return flags

        monkeypatch.setattr(rays, "_advance", counting)
        monkeypatch.setattr(cli, "check_visibility", sweep_then_forget)
        assert cli.main(["raytrace", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
        assert len(rows) <= self.GRAPH_CALLS and sum(rows) == self.GRAPH_ROWS

    @staticmethod
    def _launches_advanced(monkeypatch, x0):
        """check_visibility's flags for the one sample (x0, (0, 1)) in the example1
        medium at T = 0.5, and per ``_advance`` call its row count and the y
        components of the launches among its rows."""
        g, m, omega, kset = example1_setup()
        x, d = np.array([x0]), np.array([(0.0, 1.0)])
        monkeypatch.setattr(rays, "sample_positions", lambda kset, n: x)
        monkeypatch.setattr(rays, "sample_directions", lambda n: d)
        calls, advance = [], rays._advance

        def recording(s, x, d, c, t, w, depth, skip):
            calls.append((len(x), d[depth == 0, 1].tolist()))
            return advance(s, x, d, c, t, w, depth, skip)

        monkeypatch.setattr(rays, "_advance", recording)
        return check_visibility(kset, m, omega, 0.5, {"n_pos": 1, "n_dir": 1}), calls

    def test_minus_d_launch_waits_for_the_plus_d_tree(self, monkeypatch):
        # from (0, -0.9) the +y launch meets the slow disk at t = 0.4 and both
        # its branches expire by T = 0.5; the -y launch exits at y = -1 at t = 0.1
        flags, calls = self._launches_advanced(monkeypatch, (0.0, -0.9))
        assert flags == (True, [])
        # the +d launch, its reflected and its transmitted branch, then the -d launch
        assert calls == [(1, [1.0]), (1, []), (1, []), (1, [-1.0])]

    def test_minus_d_launch_of_a_covered_sample_is_never_advanced(self, monkeypatch):
        # from (0, 0.9) the +y launch exits at y = 1 at t = 0.1
        flags, calls = self._launches_advanced(monkeypatch, (0.0, 0.9))
        assert flags == (True, [])
        assert calls == [(1, [1.0])]

    def test_a_rays_reflect_comes_before_its_transmit(self):
        # one round's events are leaves, reflects, then transmits; a ray's
        # own events keep the order trace_branches numbers them in
        m, omega, T = _example("example2_skull")
        s = rays._scene(m, omega, T, {"min_weight": 1e-12})
        # from the origin every ray meets the brain circle along its normal and
        # splits; from (0.3, 0.1) many meet it past the critical angle and only
        # reflect; from (0.9, 0.0), in the water, some exit first
        x, d, c = rays._launch(s, [(0.0, 0.0), (0.3, 0.1), (0.9, 0.0)], sample_directions(12))
        n = len(x)
        ev = rays._advance(s, x, d, c, np.zeros(n), np.ones(n), np.zeros(n, dtype=int),
                           np.full(n, -1))
        kinds = {r: [] for r in range(n)}
        for r, k in zip(ev.ray.tolist(), ev.kind.tolist()):
            kinds[r].append(rays._KINDS[k])
        patterns = {tuple(v) if v[0] in ("reflect", "transmit") else ("leaf",)
                    for v in kinds.values()}
        assert patterns == {("leaf",), ("reflect",), ("reflect", "transmit")}

    def test_launch_speeds_looked_up_once(self, monkeypatch):
        # one lookup per sample position serves every launch from it, in the
        # trap check and in the first round alike
        m, omega, T = _example("example2_skull")
        kset = Region.disk(omega.grid, (0.0, 0.0), 0.4)
        rows, lookup = [], rays.speeds_at

        def counting(medium, points):
            rows.append(len(points))
            return lookup(medium, points)

        monkeypatch.setattr(rays, "speeds_at", counting)
        check_visibility(kset, m, omega, T, {"n_pos": 24, "n_dir": 96})
        assert rows == [24]

    @given(radii=st.lists(st.floats(0.15, 1.2), min_size=1, max_size=3),
           speeds=st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
           centre=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           radius=st.floats(0.1, 0.45), T=st.floats(0.5, 3.0),
           max_depth=st.integers(2, 12), min_weight=st.floats(1e-4, 0.1),
           n_pos=st.integers(1, 4), n_dir=st.integers(1, 6))
    # speeds one ulp apart across r = 0.75: a split's transmitted fraction
    # rounds above 1, and without the cap the reference's reflect weight is
    # below 0, which its Ray rejects
    @example(radii=[1.0, 0.75], speeds=[3.0, 2.9999999999999996, 1.0], centre=(0.0, 0.0),
             radius=0.25, T=1.0, max_depth=2, min_weight=0.0625, n_pos=1, n_dir=1)
    @settings(max_examples=60, deadline=None)
    def test_flags_match_the_reference(self, radii, speeds, centre, radius, T,
                                       max_depth, min_weight, n_pos, n_dir):
        # 1-3 concentric interfaces whose speeds step up or down, a kset disk
        # inside omega, and any T and caps: the flags are the reference's
        _assert_flags_match(radii, speeds, centre, radius, T, max_depth, min_weight,
                            n_pos, n_dir)


class TestTrappedLaunches:
    """check_visibility does not trace a launch whose ray parameter
    q = |x × d| / c keeps it inside a circle within the rectangle."""

    # in the skull's brain (c = 1) a launch along the tangent at distance p from
    # the centre has q = p, and the shell (c = 2) reflects it for good when
    # 2p > 0.5, which the rule takes past its margin: p > 0.25 * (1 + 1e-9)
    @pytest.mark.parametrize("p,trapped", [
        (0.1, False), (0.25, False), (0.25 * (1 + 0.5e-9), False),
        (0.25 * (1 + 2e-9), True), (0.3, True), (0.49, True),
        (0.6, False), (0.9, False)])            # in the shell and in the water
    def test_tangent_launch_in_the_skull(self, p, trapped):
        m, omega, T = _example("example2_skull")
        s = rays._scene(m, omega, T, None)
        th = np.linspace(0.0, 2 * math.pi, 7)[:, None]
        x = p * np.hstack((np.cos(th), np.sin(th)))
        d = np.hstack((-np.sin(th), np.cos(th)))
        x, d = np.vstack((x, x)), np.vstack((d, -d))
        assert rays._confined(s, x, d, speeds_at(m, x)).tolist() == [trapped] * 14

    def test_circle_not_inside_the_rectangle_never_traps(self):
        m, omega, T = _example("example2_skull")
        s = rays._scene(m, omega, T, None)
        x, d, c = np.array([(0.3, 0.0)]), np.array([(0.0, 1.0)]), np.array([1.0])
        # the brain circle (r = 0.5) touches these sides, and the shell's is outside them
        assert not rays._confined(s._replace(sides=np.array([-0.5, 0.5, -0.5, 0.5])), x, d, c)[0]
        assert rays._confined(s._replace(sides=np.array([-0.51, 0.51, -0.51, 0.51])), x, d, c)[0]

    @given(radii=st.lists(st.floats(0.15, 1.5), min_size=1, max_size=3),
           speeds=st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3),
           centre=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           radius=st.floats(0.1, 0.45), T=st.floats(0.5, 6.0),
           max_depth=st.integers(1, 12), min_weight=st.floats(1e-4, 0.5),
           n_pos=st.integers(1, 3), n_dir=st.integers(1, 4))
    # a slow disk (r = 1.2) reaching past the rectangle: launches that it would
    # trap if it lay inside the rectangle exit the rectangle first
    @example(radii=[1.2], speeds=[0.5, 2.0, 0.7], centre=(0.5, 0.0), radius=0.4, T=6.0,
             max_depth=12, min_weight=1e-4, n_pos=3, n_dir=4)
    @settings(max_examples=100, deadline=None)
    def test_flags_match_the_reference(self, radii, speeds, centre, radius, T,
                                       max_depth, min_weight, n_pos, n_dir):
        # speeds 0.05-20 step up or down across 1-3 interfaces, some of them
        # beyond the rectangle (sides near +-1), and T up to 6: the flags are
        # the full trace's, trapped launches or not
        _assert_flags_match(radii, speeds, centre, radius, T, max_depth, min_weight,
                            n_pos, n_dir)

    def test_trapped_launch_raises_no_law_error(self, monkeypatch):
        # The slow-shell chord of test_law_error_raises_from_the_batch: in a
        # shell of c = 0.5 from r = 0.5 to 0.8 around a disk of c = 0.6, the
        # chord at p = 0.25 / 0.6 has q = p / 0.5 > 0.8 / 1, so the r = 0.8
        # circle holds it, and its hit on r = 0.5 at the critical angle raises
        # in a full trace.  The sweep traces neither launch: the sample is
        # uncovered and nothing is raised.
        g, _, omega, kset = example1_setup()
        m = build_medium([(0.8, 0.5), (0.5, 0.6)], g)
        s = rays._scene(m, omega, 4.0, None)
        edge = 1e-12 * 0.5 * math.cos(math.asin(0.5 / 0.6))   # p offset worth CRITICAL_TOL
        raising = []
        for p in (0.25 / 0.6 + sgn * edge + j * 2.0 ** -54 for sgn in (1, -1) for j in range(-24, 24)):
            try:
                trace_branches((p, 0.5), (0.0, 1.0), m, omega, 4.0)
            except CriticalAngleError:
                raising.append(p)
            else:
                continue
            x, d = np.array([(p, 0.5)]), np.array([(0.0, 1.0)])
            assert rays._confined(s, *rays._launch(s, x, d)).all()
            monkeypatch.setattr(rays, "sample_positions", lambda kset, n: x)
            monkeypatch.setattr(rays, "sample_directions", lambda n: d)
            assert check_visibility(kset, m, omega, 4.0, {"n_pos": 1, "n_dir": 1}) == (
                False, [((p, 0.5), (0.0, 1.0))])
        assert raising


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
