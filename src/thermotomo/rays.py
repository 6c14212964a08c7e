"""Geometric optics over nested concentric-disk media.

Rays are straight segments traversed at the local layer speed.  At every
transversal circle hit the ray splits into a reflected branch and, below the
critical angle, a transmitted branch.  Each ray carries its speed: looked up
at the launch point, then c_in for a reflected branch and c_out for a
transmitted one (a hit point lies on its circle only to rounding, so no
lookup there can tell the sides apart).  Branch energy weights follow the
high-frequency split 4ab/(a+b)^2 with a, b the normal phase derivatives of
the incident and transmitted phases (tau = 1 normalization; the split is
homogeneous of degree zero, so the normalization drops out).  Hits within
tolerance of tangency or of the critical angle are recorded as
"tangent-undetermined" leaves rather than silently dropped.

A point carries a visible singularity when one of the branch trees grown
from (x, d) and (x, -d) has a transversal exit through the measurement
rectangle before time T.  One array kernel, ``_advance``, moves a whole
generation of rays (struct-of-arrays rows) to their next events.
``check_visibility`` launches every sample's two rays at once and advances
them generation by generation, dropping a sample once it has an exit;
``trace_branches`` grows one sample's full forest the same way and numbers
its events depth first.  The kernel makes the float calls of tracing each
ray alone, so both give bit for bit what a per-ray trace gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    CriticalAngleError,
    DegenerateInputError,
    TangencyError,
)
from .grid_field import Region
from .medium import InterfaceDescriptor, Medium, critical_angle, speeds_at


def __getattr__(name):
    # unused here: the benchmark's traced mode (bench/op.py) wraps
    # rays.ProcessPoolExecutor; importing it on first access keeps
    # multiprocessing out of every other process
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


TANGENCY_TOL = 1e-9       # radians from grazing incidence
CRITICAL_TOL = 1e-12      # radians from the critical angle
_POSITION_EPS = 1e-12

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# the caps of one trace and the sampling of a visibility check, with their defaults
CAPS_DEFAULTS = {"max_depth": 12, "min_weight": 1e-4}
SAMPLING_DEFAULTS = {"n_pos": 64, "n_dir": 128}


@dataclass
class BranchNode:
    """One event of a branch tree.

    ``kind`` is one of launch, reflect, transmit, exit, expiry, truncation,
    tangent_undetermined.  Interface events carry the incidence angle from
    the normal; leaves carry the terminal position and time.
    """

    node_id: int
    parent: int | None
    kind: str
    x: np.ndarray
    t: float
    weight: float
    depth: int
    angle: float | None = None
    direction: np.ndarray | None = None

    LEAF_KINDS = ("exit", "expiry", "truncation", "tangent_undetermined")

    @property
    def is_leaf(self) -> bool:
        return self.kind in self.LEAF_KINDS


@dataclass
class RayBranchGraph:
    """Directed forest of branch events grown from both launch signs."""

    nodes: list[BranchNode] = field(default_factory=list)

    def add(self, parent: int | None, kind: str, x, t, weight, depth,
            angle=None, direction=None) -> int:
        nid = len(self.nodes)
        self.nodes.append(BranchNode(nid, parent, kind, np.asarray(x, dtype=float),
                                     float(t), float(weight), int(depth), angle,
                                     None if direction is None else np.asarray(direction, dtype=float)))
        return nid

    def leaves(self) -> list[BranchNode]:
        return [n for n in self.nodes if n.is_leaf]

    def exits(self) -> list[BranchNode]:
        return [n for n in self.nodes if n.kind == "exit"]

    def has_clean_exit(self) -> bool:
        """An exit leaf with no tangent-undetermined ancestor (those are always
        leaves here, so any exit qualifies)."""
        return bool(self.exits())

    def children(self, node_id: int) -> list[BranchNode]:
        return [n for n in self.nodes if n.parent == node_id]

    def to_text(self) -> str:
        lines = ["# kind x y t angle weight parent"]
        for n in self.nodes:
            ang = "nan" if n.angle is None else f"{n.angle:.12g}"
            par = "-1" if n.parent is None else str(n.parent)
            lines.append(
                f"{n.kind} {n.x[0]:.12g} {n.x[1]:.12g} {n.t:.12g} {ang} {n.weight:.12g} {par}")
        return "\n".join(lines) + "\n"


# -- local interface laws ---------------------------------------------------------
#
# Each law acts on rows: (n, 2) directions and normals, (n,) angles and speeds.
# The float calls are those of the scalar formulas, so a row's result does not
# depend on the batch it is in: ``np.vecdot`` is BLAS ddot bit for bit (a
# hand-written x0*y0 + x1*y1 is not, under FMA), and acos, asin, sin and ``**``
# come from Python (numpy's SIMD loops differ from them in the last bit).


def _math(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=len(x))


def _critical(c_in: float, c_out: float) -> float:
    """``critical_angle`` of a crossing from the c_in side, inf when there is none."""
    return critical_angle(InterfaceDescriptor(math.nan, c_in, c_out)) if c_in < c_out else math.inf


def _positive(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) elementwise, as Python's max has it (0.0 for -0.0 and NaN)."""
    return np.where(x > 0, x, 0.0)


def _reflect(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    dn = np.vecdot(d, n)
    if (np.abs(dn) < math.sin(TANGENCY_TOL)).any():
        raise TangencyError("incident direction is tangential to the surface")
    return d - (2.0 * dn)[:, None] * n


def _snell(d: np.ndarray, n: np.ndarray, c_in: np.ndarray, c_out: np.ndarray,
           alpha0: np.ndarray):
    """Transmitted directions, and a mask that is False on full internal reflection
    (incidence past the critical angle ``alpha0``, inf where there is none)."""
    dn = np.vecdot(d, n)
    n = np.where((dn > 0)[:, None], -n, n)
    dn = np.where(dn > 0, -dn, dn)
    if (np.minimum(-dn, 1.0) < math.sin(TANGENCY_TOL)).any():
        raise TangencyError("incident direction is tangential to the surface")
    tang = d - dn[:, None] * n
    sin_a = np.hypot(tang[:, 0], tang[:, 1])
    alpha = _math(math.asin, np.minimum(sin_a, 1.0))
    if (np.abs(alpha - alpha0) < CRITICAL_TOL).any():
        raise CriticalAngleError("incidence within tolerance of the critical angle")
    sin_b = sin_a * c_out / c_in
    cos_b = np.sqrt(_positive(1.0 - sin_b * sin_b))[:, None]
    t_hat = tang / np.where(sin_a == 0.0, 1.0, sin_a)[:, None]
    out = np.where((sin_a == 0.0)[:, None], -n * cos_b, sin_b[:, None] * t_hat - cos_b * n)
    return out, ~(alpha > alpha0)


def _phase_derivatives(alpha: np.ndarray, c_in: np.ndarray, inv_sq_in: np.ndarray,
                       inv_sq_out: np.ndarray):
    """(a, b) from the incidence angles, c_in, and c_in^-2 and c_out^-2 (Python's ``**``)."""
    s = _math(math.sin, alpha) / c_in
    a = np.sqrt(_positive(inv_sq_in - s * s))
    b = np.sqrt(_positive(inv_sq_out - s * s))
    return a, b


def _energy_split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if (a <= 0).any():
        raise DegenerateInputError(
            f"incident normal derivative must be positive, got {a[a <= 0][0]}")
    if (b < 0).any():
        raise DegenerateInputError(
            f"transmitted normal derivative must be nonnegative, got {b[b < 0][0]}")
    frac = 4.0 * a * b / _math(lambda v: v ** 2, a + b)
    return np.where(b == 0.0, 0.0, frac)


def _one(v) -> np.ndarray:
    """A scalar or a 2-vector as a batch of one."""
    return np.array([v], dtype=np.float64)


def reflect(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Mirror reflection d - 2(d.n)n; rejects tangential incidence."""
    return _reflect(_one(d), _one(n))[0]


def snell_transmit(d: np.ndarray, n: np.ndarray, c_in: float, c_out: float):
    """Transmitted unit direction across the interface, or None on full internal
    reflection.

    The tangential slowness sin(alpha)/c_in is preserved.  Incidence exactly
    at the critical angle (within CRITICAL_TOL) raises, matching the excluded
    tangent-transmission case.
    """
    if c_in <= 0 or c_out <= 0:
        raise ConfigurationError("speeds must be positive")
    out, through = _snell(_one(d), _one(n), _one(c_in), _one(c_out),
                          _one(_critical(c_in, c_out)))
    return out[0] if through[0] else None


def normal_phase_derivatives(alpha: float, c_in: float, c_out: float) -> tuple[float, float]:
    """(a, b): normal derivatives of the incident and transmitted phases at tau = 1.

    With tangential slowness s = sin(alpha)/c_in these are
    a = sqrt(1/c_in^2 - s^2) and b = sqrt(1/c_out^2 - s^2); b is 0 at and
    beyond the critical angle (no transmitted phase).
    """
    a, b = _phase_derivatives(_one(alpha), _one(c_in), _one(float(c_in) ** -2),
                              _one(float(c_out) ** -2))
    return float(a[0]), float(b[0])


def amplitude_coeffs(a: float, b: float) -> tuple[float, float]:
    """Leading reflection/transmission amplitudes (b_R0, b_T0) = ((a-b)/(a+b), 2a/(a+b)).

    They satisfy b_T0 - b_R0 = 1; b_T0 exceeds 1 when b < a, which is fine
    because energy is not proportional to amplitude.
    """
    if a <= 0:
        raise DegenerateInputError(f"incident normal derivative must be positive, got {a}")
    if b < 0:
        raise DegenerateInputError(f"transmitted normal derivative must be nonnegative, got {b}")
    return (a - b) / (a + b), 2.0 * a / (a + b)


def energy_split(a: float, b: float) -> float:
    """High-frequency transmitted energy fraction 4ab/(a+b)^2 (0 when b = 0)."""
    return float(_energy_split(_one(a), _one(b))[0])


# -- tracing ---------------------------------------------------------------------

_KINDS = ("expiry", "exit", "tangent_undetermined", "reflect", "transmit", "truncation")
_EXPIRY, _EXIT, _UNDETERMINED, _REFLECT, _TRANSMIT, _TRUNCATION = range(len(_KINDS))


class _Scene(NamedTuple):
    """What every ray of one trace shares.  Interfaces are sorted by ascending
    radius, so a tie goes inward.  For interface k and a crossing j (0 outward,
    1 inward), ``speeds[k, j]`` is (c_in, c_out), ``inv_sq[k, j]`` is
    (c_in^-2, c_out^-2) and ``critical[k, j]`` the critical angle, inf if there
    is none."""

    medium: Medium
    sides: np.ndarray       # xmin, xmax, ymin, ymax
    radius: np.ndarray
    speeds: np.ndarray
    inv_sq: np.ndarray
    critical: np.ndarray
    T: float
    max_depth: int
    min_weight: float


class _Events(NamedTuple):
    """One generation's events as columns, ordered by ray, a reflect before its transmit.

    ``ray`` indexes the generation's rays; ``angle`` and the rows of
    ``direction`` are NaN where the event has none; ``speed`` is the layer
    speed a branch leaves the event with and ``skip`` the interface it leaves
    on the outer side (-1 for none); ``live`` marks the reflect and transmit
    events whose branch continues as a ray.
    """

    ray: np.ndarray
    kind: np.ndarray
    x: np.ndarray
    t: np.ndarray
    weight: np.ndarray
    depth: np.ndarray
    speed: np.ndarray
    skip: np.ndarray
    angle: np.ndarray
    direction: np.ndarray
    live: np.ndarray

    def nodes(self):
        """The ``RayBranchGraph.add`` arguments after ``parent``, one tuple per event."""
        angle = [None if math.isnan(a) else a for a in self.angle.tolist()]
        direction = [None if math.isnan(v[0]) else v for v in self.direction]
        return zip([_KINDS[k] for k in self.kind.tolist()], self.x, self.t.tolist(),
                   self.weight.tolist(), self.depth.tolist(), angle, direction)


def _omega_rect(omega: Region) -> tuple[float, float, float, float]:
    g, (i0, i1, j0, j1) = omega.grid, omega.box
    return (g.xs[i0], g.xs[i1], g.ys[j0], g.ys[j1])


def _filled(given: dict | None, defaults: dict, what: str) -> dict:
    """``given`` over ``defaults``; a key with no default is rejected."""
    if unknown := sorted(set(given or {}) - set(defaults)):
        raise ConfigurationError(f"unknown {what}: {unknown}")
    return {**defaults, **(given or {})}


def _scene(m: Medium, omega: Region, T: float, caps: dict | None) -> _Scene:
    """Check the inputs every sample shares and gather them."""
    caps = _filled(caps, CAPS_DEFAULTS, "caps")
    max_depth, min_weight = int(caps["max_depth"]), float(caps["min_weight"])
    # a weight is at most 1, so min_weight >= 1 would truncate every branch
    if max_depth < 1 or not 0 < min_weight < 1:
        raise ConfigurationError(f"caps must be positive and finite, min_weight below 1: {caps}")
    if not 0 <= T < math.inf:
        raise ConfigurationError(f"observation time T must be nonnegative and finite, got {T}")
    ifaces = m.interfaces[::-1]
    speeds = [[(i.c_int, i.c_ext), (i.c_ext, i.c_int)] for i in ifaces]
    inv_sq = [[(c_in ** -2, c_out ** -2) for c_in, c_out in ks] for ks in speeds]
    critical = [[_critical(c_in, c_out) for c_in, c_out in ks] for ks in speeds]
    return _Scene(m, np.array(_omega_rect(omega)), np.array([i.radius for i in ifaces]),
                  np.array(speeds).reshape(-1, 2, 2), np.array(inv_sq).reshape(-1, 2, 2),
                  np.array(critical).reshape(-1, 2), float(T), max_depth, min_weight)


def _launch(s: _Scene, positions, directions) -> tuple[np.ndarray, np.ndarray]:
    """Rays (x, d) and (x, -d) for every position x and direction d, in that order."""
    x0 = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    d0 = np.asarray(directions, dtype=np.float64).reshape(-1, 1, 2) * np.array([[1.0], [-1.0]])
    r0 = np.hypot(x0[:, 0], x0[:, 1])
    if (np.abs(r0[:, None] - s.radius) < 10 * _POSITION_EPS).any():
        raise ConfigurationError("launch point must not lie on an interface circle")
    xmin, xmax, ymin, ymax = s.sides
    if not ((xmin < x0[:, 0]) & (x0[:, 0] < xmax) & (ymin < x0[:, 1]) & (x0[:, 1] < ymax)).all():
        raise ConfigurationError("launch point must lie inside the measurement rectangle")
    norm = np.hypot(d0[..., 0], d0[..., 1])
    if (norm == 0.0).any():
        raise ConfigurationError("ray direction must be nonzero")
    d = (d0 / norm[..., None]).reshape(-1, 2)
    return np.repeat(x0, len(d), axis=0), np.tile(d, (len(x0), 1))


def _advance(s: _Scene, x, d, c, t, w, depth, skip) -> _Events:
    """Every ray's events where it next meets an interface, the rectangle or time T.

    Rays are rows: (n, 2) positions and unit directions, (n,) layer speeds,
    times, weights, depths and the interface each ray left on its outer side
    (-1 for none).  A ray ends in one leaf (expiry, exit, or
    tangent-undetermined at grazing or critical incidence) or splits into a
    reflect and, below the critical angle, a transmit event; the reflected
    branch keeps c_in and the transmitted one takes c_out.  A branch below
    ``min_weight`` or at ``max_depth`` is a truncation leaf.  A ray leaving a
    circle outward cannot meet it again, so that circle is not searched: a
    grazing hit point that rounds to just inside it would otherwise give a
    spurious second root about 1e-8 further on.
    """
    b, xx = np.vecdot(x, d), np.vecdot(x, x)
    t_circle, hit = np.full(len(t), np.inf), np.zeros(len(t), dtype=int)
    for k, r in enumerate(s.radius.tolist()):
        disc = b * b - (xx - r * r)
        sq = np.sqrt(_positive(disc))
        near, far, eps = -b - sq, -b + sq, _POSITION_EPS * max(1.0, r)
        t_k = np.where(near > eps, near, np.where(far > eps, far, np.inf))
        t_k[~(disc > 0) | (skip == k)] = np.inf
        closer = t_k < t_circle
        t_circle[closer], hit[closer] = t_k[closer], k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_side = (np.where(d > 0, s.sides[1::2], s.sides[0::2]) - x) / d
    t_rect = np.where((d != 0) & (t_side > _POSITION_EPS), t_side, np.inf).min(axis=1)
    t_event = np.minimum(t_circle, t_rect)
    t_arrive = t + t_event / c

    expire = t_arrive >= s.T
    pos = x + d * np.where(expire, 0.0, t_event)[:, None]
    pos[expire] = x[expire] + d[expire] * (s.T - t[expire])[:, None] * c[expire, None]
    kind = np.full(len(t), _EXPIRY)
    t_ev = np.where(expire, s.T, t_arrive)
    angle = np.full(len(t), np.nan)
    direction = np.full(x.shape, np.nan)

    ir = np.flatnonzero(~expire & (t_rect < t_circle))
    axis = np.argmin(np.abs(pos[ir][:, [0, 0, 1, 1]] - s.sides), axis=1) // 2
    grazing = np.abs(d[ir, axis]) < math.sin(TANGENCY_TOL)
    kind[ir] = np.where(grazing, _UNDETERMINED, _EXIT)
    direction[ir[~grazing]] = d[ir[~grazing]]

    # transversal circle hits
    ic = np.flatnonzero(~expire & ~(t_rect < t_circle))
    p, dc, k = pos[ic], d[ic], hit[ic]
    r_unit = p / np.hypot(p[:, 0], p[:, 1])[:, None]
    dr = np.vecdot(dc, r_unit)
    inward = np.where(dr > 0, 0, 1)
    c_in, c_out = s.speeds[k, inward].T
    inv_sq_in, inv_sq_out = s.inv_sq[k, inward].T
    alpha0 = s.critical[k, inward]
    normal = np.where(inward[:, None], -r_unit, r_unit)
    alpha = _math(math.acos, np.minimum(np.abs(dr), 1.0))
    angle[ic] = alpha
    blocked = ((math.pi / 2 - alpha) < TANGENCY_TOL) | (np.abs(alpha - alpha0) < CRITICAL_TOL)
    kind[ic[blocked]] = _UNDETERMINED
    split, ic = ~blocked, ic[~blocked]
    a, b = _phase_derivatives(alpha[split], c_in[split], inv_sq_in[split], inv_sq_out[split])
    d_t, through = _snell(dc[split], normal[split], c_in[split], c_out[split], alpha0[split])
    frac = np.zeros(len(ic))
    frac[through] = _energy_split(a[through], b[through])
    d_r = _reflect(dc[split], normal[split])

    leaf = np.ones(len(t), dtype=bool)
    leaf[ic] = False
    il, it = np.flatnonzero(leaf), ic[through]
    ray = np.concatenate((il, ic, it))
    order = np.argsort(np.concatenate((2 * il, 2 * ic, 2 * it + 1)))
    ray = ray[order]
    kind = np.concatenate((kind[il], np.full(len(ic), _REFLECT),
                           np.full(len(it), _TRANSMIT)))[order]
    weight = np.concatenate((w[il], w[ic] * (1.0 - frac), w[it] * frac[through]))[order]
    depth = np.concatenate((depth[il], depth[ic] + 1, depth[it] + 1))[order]
    speed = np.concatenate((c[il], c_in[split], c_out[split][through]))[order]
    # a reflection from outside and a transmission outward leave on the outer side
    outer = np.where(inward[split] == 1, k[split], -1), np.where(inward[split] == 0, k[split], -1)
    skip = np.concatenate((np.full(len(il), -1), outer[0], outer[1][through]))[order]
    direction = np.concatenate((direction[il], d_r, d_t[through]))[order]
    live = kind >= _REFLECT
    kind[live & ((weight < s.min_weight) | (depth >= s.max_depth))] = _TRUNCATION
    return _Events(ray, kind, pos[ray], t_ev[ray], weight, depth, speed, skip, angle[ray],
                   direction, live & (kind != _TRUNCATION))


def _grow(s: _Scene, x: np.ndarray, d: np.ndarray, owner: np.ndarray, done: np.ndarray):
    """Advance the rays launched at (x, d) generation by generation.

    Yields each generation's events with the ``owner`` of each event's ray
    (launch i belongs to ``owner[i]``).  A caller that sets ``done[o]``
    between generations drops owner o's remaining rays.
    """
    n = len(x)
    c, t, w, depth = speeds_at(s.medium, x), np.zeros(n), np.ones(n), np.zeros(n, dtype=int)
    skip = np.full(n, -1)
    while len(t):
        ev = _advance(s, x, d, c, t, w, depth, skip)
        owner = owner[ev.ray]
        yield ev, owner
        keep = ev.live & ~done[owner]
        x, c, t, w = ev.x[keep], ev.speed[keep], ev.t[keep], ev.weight[keep]
        depth, skip, owner = ev.depth[keep], ev.skip[keep], owner[keep]
        d = ev.direction[keep] / np.hypot(ev.direction[keep, 0], ev.direction[keep, 1])[:, None]
        del ev      # the caller drops its reference too, for a lower peak memory


def trace_branches(x0, d0, m: Medium, omega: Region, T: float,
                   caps: dict | None = None) -> RayBranchGraph:
    """Grow the branch forest from (x0, +d0) and (x0, -d0) until time T >= 0.

    caps: ``max_depth`` (interface events per path) and ``min_weight`` (branches
    below it become truncation leaves), each defaulting to ``CAPS_DEFAULTS``.
    The forest grows one generation at a time; its events are then numbered
    depth first: the launches are 0 and 1, rays are taken last in, first out,
    and one ray's events are numbered consecutively.
    """
    s = _scene(m, omega, T, caps)
    x, d = _launch(s, [x0], [d0])
    graph = RayBranchGraph()
    for k in range(2):
        graph.add(None, "launch", x[k], 0.0, 1.0, 0, direction=d[k])
        if T == 0:      # zero observation time: each launch expires at once
            graph.add(2 * k, "expiry", x[k], 0.0, 1.0, 0)
    if T == 0:
        return graph
    events: list[list] = [[], []]   # per ray: (node arguments, child ray or None)
    first = 0                       # the current generation's first ray
    for ev, _ in _grow(s, x, d, np.zeros(2, dtype=int), np.zeros(1, dtype=bool)):
        nxt = len(events)
        for ray, node, live in zip(ev.ray.tolist(), ev.nodes(), ev.live.tolist()):
            events[first + ray].append((node, len(events) if live else None))
            if live:
                events.append([])
        first = nxt
    stack = [(0, 0), (1, 1)]        # (parent node, ray)
    while stack:
        parent, ray = stack.pop()
        for node, child in events[ray]:
            nid = graph.add(parent, *node)
            if child is not None:
                stack.append((nid, child))
    return graph


# -- visibility ------------------------------------------------------------------


def sample_positions(kset: Region, n_pos: int) -> np.ndarray:
    """Deterministic sample of kset: a rim-biased golden-angle spiral for disks,
    an inset lattice for rectangles."""
    if n_pos < 1:
        raise ConfigurationError("need at least one position sample")
    if kset.kind == "disk":
        cx, cy = kset.params["center"]
        rad = kset.params["radius"]
        k = np.arange(n_pos)
        r = rad * ((k + 0.5) / n_pos) ** 0.25 * 0.98
        th = k * GOLDEN_ANGLE
        return np.column_stack((cx + r * np.cos(th), cy + r * np.sin(th)))
    g, (i0, i1, j0, j1) = kset.grid, kset.box
    side = max(1, int(math.ceil(math.sqrt(n_pos))))
    xs = np.linspace(g.xs[i0] + 0.25 * g.h, g.xs[i1] - 0.25 * g.h, side)
    ys = np.linspace(g.ys[j0] + 0.25 * g.h, g.ys[j1] - 0.25 * g.h, side)
    pts = np.array([(x, y) for x in xs for y in ys])
    return pts[:n_pos]


def sample_directions(n_dir: int) -> np.ndarray:
    """n_dir unit directions over the half circle (both signs are launched)."""
    if n_dir < 1:
        raise ConfigurationError("need at least one direction sample")
    th = math.pi * (np.arange(n_dir) + 0.5) / n_dir
    return np.column_stack((np.cos(th), np.sin(th)))


def check_visibility(kset: Region, m: Medium, omega: Region, T: float,
                     sampling: dict | None = None) -> tuple[bool, list]:
    """Sample kset positions and directions; each sample must have a branch
    exiting the rectangle transversally before T.

    All samples' rays advance together, one generation per call of the
    kernel that ``trace_branches`` uses, and a sample's rays are dropped after
    the generation in which one of them exits.  Returns (all_covered,
    uncovered_samples); tangent-undetermined samples count as uncovered.
    """
    sampling = _filled(sampling, {**SAMPLING_DEFAULTS, "caps": None}, "sampling keys")
    n_pos, n_dir = int(sampling["n_pos"]), int(sampling["n_dir"])
    s = _scene(m, omega, T, sampling["caps"])
    positions = sample_positions(kset, n_pos)
    directions = sample_directions(n_dir)
    x, d = _launch(s, positions, directions)
    covered = np.zeros(len(positions) * len(directions), dtype=bool)
    for ev, sample in _grow(s, x, d, np.arange(len(x)) // 2, covered):
        covered[sample[ev.kind == _EXIT]] = True
        del ev, sample      # freed before the next generation is advanced
    xs, ds = positions.tolist(), directions.tolist()
    uncovered = [(tuple(xs[k // n_dir]), tuple(ds[k % n_dir]))
                 for k in np.flatnonzero(~covered).tolist()]
    return (len(uncovered) == 0), uncovered
