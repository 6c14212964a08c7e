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
tolerance of tangency or of the critical angle, or whose incident normal
derivative rounds to 0, are recorded as "tangent-undetermined" leaves rather
than silently dropped.

A point carries a visible singularity when one of the branch trees grown
from (x, d) and (x, -d) has a transversal exit through the measurement
rectangle before time T.  One array kernel, ``_advance``, moves rays
(struct-of-arrays rows) to their next events; its float operations give a
row the same bits in any batch (see the interface laws), so a ray gets the
same events in any batch.
One sweep, ``_grow``, advances first the rays closest to an exit, those that
last left the farthest-out interface on its outer side.  ``_branch_graphs``
grows the full forests of many samples in it, ``trace_branches`` that of one,
and numbers each forest's events depth first, as a per-ray trace does.
``check_visibility`` grows every sample's (x, d) launch at once, then the
(x, -d) launch of every sample whose (x, d) tree has no exit, dropping a
sample's rays, waiting ones included, once it has an exit.  A sample is
covered when its forest holds an exit, and an uncovered sample's whole forest
is traced, so the flags do not depend on that order; it only decides how much
work is skipped.  It skips every launch that the ray parameter
q = |x × d| / c proves trapped: every reflection and transmission keeps q, so
a launch inside a circle of radius R within the rectangle, with q·c_ext > R
for the circle's outer speed c_ext, is totally reflected there for good.  A
sample's two launches share q and c, so both are trapped or neither is.
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
from .grid_field import _MAX_LENGTH, Region, _count
from .medium import Medium, _check_speed, _critical_angle, speeds_at


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
_REAL = (int, float, np.integer, np.floating)   # a real scalar, Python's or numpy's

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
# A row's result does not depend on the batch it is in: ``np.vecdot`` is BLAS
# ddot bit for bit (a hand-written x0*y0 + x1*y1 is not, under FMA), and numpy's
# arccos, arcsin, sin and square give an element the same bits alone, in a
# whole batch, at an offset or in a strided view.


def _crossing(c_in: float, c_out: float) -> tuple[float, float, float, float, float]:
    """(c_in, c_out, c_in^-2, c_out^-2, critical angle, inf if none) of a crossing
    from the c_in side, after ``_check_speed`` on both; equal speeds pass straight."""
    c_in, c_out = float(c_in), float(c_out)
    _check_speed(c_in)
    _check_speed(c_out)
    alpha0 = _critical_angle(c_in, c_out)
    return c_in, c_out, c_in ** -2, c_out ** -2, math.inf if alpha0 is None else alpha0


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
    alpha = np.arcsin(np.minimum(sin_a, 1.0))
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
    s = np.sin(alpha) / c_in
    a = np.sqrt(_positive(inv_sq_in - s * s))
    b = np.sqrt(_positive(inv_sq_out - s * s))
    return a, b


def _check_derivatives(a: np.ndarray, b: np.ndarray):
    """Reject an incident normal derivative a <= 0 or a transmitted one b < 0, NaN included."""
    if (bad := ~(a > 0)).any():
        raise DegenerateInputError(f"incident normal derivative must be positive, got {a[bad][0]}")
    if (bad := ~(b >= 0)).any():
        raise DegenerateInputError(
            f"transmitted normal derivative must be nonnegative, got {b[bad][0]}")


def _energy_split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _check_derivatives(a, b)
    frac = 4.0 * a * b / np.square(a + b)
    return np.where(b == 0.0, 0.0, np.minimum(frac, 1.0))


def _one(v) -> np.ndarray:
    """A scalar or a 2-vector as a batch of one."""
    return np.array([v], dtype=np.float64)


def _vector(v, name: str, unit: bool = True) -> np.ndarray:
    """A law's direction or normal as a batch of one: finite, and of length 1 within
    1e-9 if ``unit`` (NaN fails both)."""
    v = _one(v)
    if not np.isfinite(v).all() or unit and not abs(math.hypot(*v[0].tolist()) - 1.0) <= 1e-9:
        raise DegenerateInputError(
            f"{name} must be a finite{' unit' if unit else ''} vector, got {v[0].tolist()}")
    return v


def reflect(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Mirror reflection d - 2(d.n)n of a finite d in a unit normal n; rejects tangency."""
    return _reflect(_vector(d, "direction", unit=False), _vector(n, "normal"))[0]


def snell_transmit(d: np.ndarray, n: np.ndarray, c_in: float, c_out: float):
    """Transmitted unit direction of the unit direction d across the interface of
    unit normal n, or None on full internal reflection.

    The tangential slowness sin(alpha)/c_in is preserved.  Incidence exactly
    at the critical angle (within CRITICAL_TOL) raises, matching the excluded
    tangent-transmission case.
    """
    c_in, c_out, _, _, alpha0 = _crossing(c_in, c_out)
    out, through = _snell(_vector(d, "direction"), _vector(n, "normal"), _one(c_in),
                          _one(c_out), _one(alpha0))
    return out[0] if through[0] else None


def normal_phase_derivatives(alpha: float, c_in: float, c_out: float) -> tuple[float, float]:
    """(a, b): normal derivatives of the incident and transmitted phases at tau = 1.

    With tangential slowness s = sin(alpha)/c_in these are
    a = sqrt(1/c_in^2 - s^2) and b = sqrt(1/c_out^2 - s^2); b is 0 at and
    beyond the critical angle (no transmitted phase).  alpha must lie in [0, pi/2].
    """
    if not 0 <= alpha <= math.pi / 2:
        raise DegenerateInputError(f"incidence angle must lie in [0, pi/2], got {alpha}")
    c_in, _, inv_sq_in, inv_sq_out, _ = _crossing(c_in, c_out)
    a, b = _phase_derivatives(_one(alpha), _one(c_in), _one(inv_sq_in), _one(inv_sq_out))
    return float(a[0]), float(b[0])


def amplitude_coeffs(a: float, b: float) -> tuple[float, float]:
    """Leading reflection/transmission amplitudes (b_R0, b_T0) = ((a-b)/(a+b), 2a/(a+b)).

    They satisfy b_T0 - b_R0 = 1; b_T0 exceeds 1 when b < a, which is fine
    because energy is not proportional to amplitude.
    """
    _check_derivatives(_one(a), _one(b))
    return (a - b) / (a + b), 2.0 * a / (a + b)


def energy_split(a: float, b: float) -> float:
    """High-frequency transmitted energy fraction 4ab/(a+b)^2 (0 when b = 0)."""
    return float(_energy_split(_one(a), _one(b))[0])


# -- tracing ---------------------------------------------------------------------

_KINDS = ("expiry", "exit", "tangent_undetermined", "reflect", "transmit", "truncation")
_EXPIRY, _EXIT, _UNDETERMINED, _REFLECT, _TRANSMIT, _TRUNCATION = range(len(_KINDS))


class _Scene(NamedTuple):
    """What every ray of one trace shares.  Interfaces are sorted by ascending
    radius, so a tie goes inward.  ``laws[k, j]`` is the ``_crossing`` row of
    interface k crossed outward (j = 0) or inward (j = 1)."""

    medium: Medium
    sides: np.ndarray       # xmin, xmax, ymin, ymax
    radius: np.ndarray
    laws: np.ndarray
    T: float
    max_depth: int
    min_weight: float


class _Events(NamedTuple):
    """One round's events as columns: leaves, reflects, then transmits, each in ray order.

    ``ray`` indexes the round's rays; ``angle`` and the rows of
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


def _filled(given: dict | None, defaults: dict, what: str) -> dict:
    """``given`` over ``defaults``; a key with no default is rejected."""
    if unknown := sorted(set(given or {}) - set(defaults)):
        raise ConfigurationError(f"unknown {what}: {unknown}")
    return {**defaults, **(given or {})}


def _scene(m: Medium, omega: Region, T: float, caps: dict | None) -> _Scene:
    """Check the inputs every sample shares and gather them."""
    caps = _filled(caps, CAPS_DEFAULTS, "caps")
    max_depth, min_weight = _count(caps["max_depth"], "max_depth"), caps["min_weight"]
    # a weight is at most 1, so min_weight >= 1 would truncate every branch; a bool fails too
    if not (isinstance(min_weight, _REAL) and 0 < min_weight < 1):
        raise ConfigurationError(
            f"caps must be positive and finite, min_weight below 1, got {min_weight!r}")
    if not 0 <= T < math.inf:
        raise ConfigurationError(f"observation time T must be nonnegative and finite, got {T}")
    ifaces = m.interfaces[::-1]
    laws = [[_crossing(i.c_int, i.c_ext), _crossing(i.c_ext, i.c_int)] for i in ifaces]
    return _Scene(m, np.array(omega.bounds), np.array([i.radius for i in ifaces]),
                  np.array(laws).reshape(-1, 2, 5), float(T), max_depth, float(min_weight))


def _launch(s: _Scene, positions, directions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rays (x, d, c) and (x, -d, c), c the speed at x, for each x and d, in that order."""
    x0 = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    d0 = np.asarray(directions, dtype=np.float64).reshape(-1, 1, 2) * np.array([[1.0], [-1.0]])
    r0 = np.hypot(x0[:, 0], x0[:, 1])
    if (np.abs(r0[:, None] - s.radius) < 10 * _POSITION_EPS).any():
        raise ConfigurationError("launch point must not lie on an interface circle")
    xmin, xmax, ymin, ymax = s.sides
    if not ((xmin < x0[:, 0]) & (x0[:, 0] < xmax) & (ymin < x0[:, 1]) & (x0[:, 1] < ymax)).all():
        raise ConfigurationError("launch point must lie inside the measurement rectangle")
    norm = np.hypot(d0[..., 0], d0[..., 1])
    if not (np.isfinite(d0).all() and (norm > 0.0).all()):
        raise ConfigurationError("ray direction must be finite and nonzero")
    d = (d0 / norm[..., None]).reshape(-1, 2)
    return (np.repeat(x0, len(d), axis=0), np.tile(d, (len(x0), 1)),
            np.repeat(speeds_at(s.medium, x0), len(d)))


def _confined(s: _Scene, x: np.ndarray, d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Which launches (x, d) at speed c the ray-parameter rule of the module docstring traps."""
    q = np.abs(x[:, 0] * d[:, 1] - x[:, 1] * d[:, 0]) / c
    xmin, xmax, ymin, ymax = s.sides
    inside = (s.radius < min(-xmin, xmax, -ymin, ymax)) & (np.hypot(*x.T)[:, None] < s.radius)
    # q drifts by ulps per event, far below the 1e-9 margin, so a traced branch
    # ends at that circle in total reflection or undetermined, never in an exit
    return (inside & (q[:, None] * s.laws[:, 0, 1] > s.radius * (1 + 1e-9))).any(axis=1)


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
    c_in, c_out, inv_sq_in, inv_sq_out, alpha0 = s.laws[k, inward].T
    normal = np.where(inward[:, None], -r_unit, r_unit)
    alpha = np.arccos(np.minimum(np.abs(dr), 1.0))
    angle[ic] = alpha
    a, b = _phase_derivatives(alpha, c_in, inv_sq_in, inv_sq_out)
    blocked = (((math.pi / 2 - alpha) < TANGENCY_TOL) | (np.abs(alpha - alpha0) < CRITICAL_TOL)
               | ~(a > 0))
    kind[ic[blocked]] = _UNDETERMINED
    split, ic = ~blocked, ic[~blocked]
    a, b = a[split], b[split]
    d_t, through = _snell(dc[split], normal[split], c_in[split], c_out[split], alpha0[split])
    frac = np.zeros(len(ic))
    frac[through] = _energy_split(a[through], b[through])
    d_r = _reflect(dc[split], normal[split])

    leaf = np.ones(len(t), dtype=bool)
    leaf[ic] = False
    il, it = np.flatnonzero(leaf), ic[through]
    ray = np.concatenate((il, ic, it))
    kind = np.concatenate((kind[il], np.full(len(ic), _REFLECT), np.full(len(it), _TRANSMIT)))
    weight = np.concatenate((w[il], w[ic] * (1.0 - frac), w[it] * frac[through]))
    depth = np.concatenate((depth[il], depth[ic] + 1, depth[it] + 1))
    speed = np.concatenate((c[il], c_in[split], c_out[split][through]))
    # a reflection from outside and a transmission outward leave on the outer side
    outer = np.where(inward[split] == 1, k[split], -1), np.where(inward[split] == 0, k[split], -1)
    skip = np.concatenate((np.full(len(il), -1), outer[0], outer[1][through]))
    direction = np.concatenate((direction[il], d_r, d_t[through]))
    live = kind >= _REFLECT
    kind[live & ((weight < s.min_weight) | (depth >= s.max_depth))] = _TRUNCATION
    return _Events(ray, kind, pos[ray], t_ev[ray], weight, depth, speed, skip, angle[ray],
                   direction, live & (kind != _TRUNCATION))


def _grow(s: _Scene, x: np.ndarray, d: np.ndarray, c: np.ndarray, done: np.ndarray):
    """Advance the rays launched at (x, d) at speed c round by round until none is left.

    Launch i is ray i; each new ray takes the next number, in event order.
    Each round advances the rays with the largest ``skip``, which last left the
    farthest-out interface on its outer side (every ray, when none has), and
    yields its events with each event's launch and ray number.  A caller that
    sets ``done[i]`` between rounds drops launch i's rays, waiting ones
    included.  A ray gets the same events in any round, so the order only
    decides how many rays a drop spares; a law error is raised only from a ray
    that is advanced, and no ray of a done launch is.
    """
    n = count = len(x)                      # count: the rays numbered so far
    rays = [x, d, c, np.zeros(n), np.ones(n), np.zeros(n, dtype=int), np.full(n, -1),
            np.arange(n), np.arange(n)]     # x, d, c, t, w, depth, skip, launch, number
    while len(rays[0]):
        now = rays[6] == rays[6].max()
        x, d, c, t, w, depth, skip, launch, number = (a[now] for a in rays)
        ev = _advance(s, x, d, c, t, w, depth, skip)
        launch = launch[ev.ray]
        yield ev, launch, number[ev.ray]
        keep = ev.live & ~done[launch]
        d = ev.direction[keep] / np.hypot(ev.direction[keep, 0], ev.direction[keep, 1])[:, None]
        born = (ev.x[keep], d, ev.speed[keep], ev.t[keep], ev.weight[keep], ev.depth[keep],
                ev.skip[keep], launch[keep], np.arange(count, count + len(d)))
        count += len(d)
        rest = ~now & ~done[rays[7]]
        rays = [np.concatenate((a[rest], b)) for a, b in zip(rays, born)]
        del ev      # the caller drops its reference too, for a lower peak memory


def _branch_graphs(positions, d0, m: Medium, omega: Region, T: float,
                   caps: dict | None = None) -> list[RayBranchGraph]:
    """``trace_branches`` of (x, d0) for each x of ``positions``, grown in one ``_grow``."""
    s = _scene(m, omega, T, caps)
    x, d, c = _launch(s, positions, [d0])
    events: list[list] = [[] for _ in x]    # per ray number: (node arguments, child ray or None)
    for ev, _, number in _grow(s, x, d, c, np.zeros(len(x), dtype=bool)):
        for ray, node, live in zip(number.tolist(), ev.nodes(), ev.live.tolist()):
            events[ray].append((node, len(events) if live else None))
            if live:
                events.append([])
    graphs = [RayBranchGraph() for _ in range(len(x) // 2)]
    for ray in range(len(x)):               # graph k grows from launches 2k and 2k + 1
        graphs[ray // 2].add(None, "launch", x[ray], 0.0, 1.0, 0, direction=d[ray])
    for k, graph in enumerate(graphs):
        stack = [(0, 2 * k), (1, 2 * k + 1)]    # (parent node, ray)
        while stack:
            parent, ray = stack.pop()
            for node, child in events[ray]:
                nid = graph.add(parent, *node)
                if child is not None:
                    stack.append((nid, child))
    return graphs


def trace_branches(x0, d0, m: Medium, omega: Region, T: float,
                   caps: dict | None = None) -> RayBranchGraph:
    """Grow the branch forest from (x0, +d0) and (x0, -d0) until time T >= 0.

    caps: ``max_depth`` (interface events per path) and ``min_weight`` (branches
    below it become truncation leaves), each defaulting to ``CAPS_DEFAULTS``.
    The forest grows in ``_grow``'s rounds; its events are then numbered
    depth first: the launches are 0 and 1, rays are taken last in, first out,
    and one ray's events are numbered consecutively.
    """
    launch = [np.array(v, dtype=object) for v in (x0, d0)]   # a ragged v is an array of lists
    if any(a.shape != (2,) or not all(isinstance(e, _REAL) for e in a) for a in launch):
        raise ConfigurationError(f"a trace launches from one 2-vector point and direction, "
                                 f"got {x0!r} and {d0!r}")
    return _branch_graphs([x0], d0, m, omega, T, caps)[0]


# -- visibility ------------------------------------------------------------------


def sample_positions(kset: Region, n_pos: int) -> np.ndarray:
    """Deterministic sample of kset: a rim-biased golden-angle spiral for disks,
    an inset lattice for rectangles."""
    if (n_pos := _count(n_pos, "n_pos")) > _MAX_LENGTH:
        raise ConfigurationError(f"n_pos must be at most {_MAX_LENGTH}, got {n_pos}")
    if kset.kind == "disk":
        cx, cy = kset.params["center"]
        rad = kset.params["radius"]
        k = np.arange(n_pos)
        r = rad * ((k + 0.5) / n_pos) ** 0.25 * 0.98
        th = k * GOLDEN_ANGLE
        return np.column_stack((cx + r * np.cos(th), cy + r * np.sin(th)))
    (xmin, xmax, ymin, ymax), h = kset.bounds, kset.grid.h
    side = max(1, int(math.ceil(math.sqrt(n_pos))))
    xs = np.linspace(xmin + 0.25 * h, xmax - 0.25 * h, side)
    ys = np.linspace(ymin + 0.25 * h, ymax - 0.25 * h, side)
    return np.column_stack((np.repeat(xs, side), np.tile(ys, side)))[:n_pos]


def sample_directions(n_dir: int) -> np.ndarray:
    """n_dir unit directions over the half circle (both signs are launched)."""
    if (n_dir := _count(n_dir, "n_dir")) > _MAX_LENGTH:
        raise ConfigurationError(f"n_dir must be at most {_MAX_LENGTH}, got {n_dir}")
    th = math.pi * (np.arange(n_dir) + 0.5) / n_dir
    return np.column_stack((np.cos(th), np.sin(th)))


def check_visibility(kset: Region, m: Medium, omega: Region, T: float,
                     sampling: dict | None = None) -> tuple[bool, list]:
    """Sample kset positions and directions; each sample must have a branch
    exiting the rectangle transversally before T.

    All samples' rays go through the sweep that ``trace_branches`` uses, in
    two passes: the (x, d) launches, then the (x, -d) launches of the samples
    the first pass left uncovered.  Each round of a pass advances the live
    rays that last left the farthest-out interface on its outer side (all
    rays, when none has), and a sample's rays, waiting ones included, are
    dropped in the round in which one of them exits.  The order cannot change
    the result: a ray's events do not depend on its round or pass, a covered
    sample stays covered, and no ray of an uncovered sample is dropped, and a
    launch the ray parameter traps (see the module docstring) is never
    advanced, as no branch of it can exit.  A law error is raised only from a
    ray the sweep advances: never from the rays a covered sample drops, from
    the (x, -d) launch of a sample whose (x, d) tree exits, or from a trapped
    launch.  Returns (all_covered, uncovered_samples); tangent-undetermined
    samples count as uncovered.
    """
    sampling = _filled(sampling, {**SAMPLING_DEFAULTS, "caps": None}, "sampling keys")
    s = _scene(m, omega, T, sampling["caps"])
    positions = sample_positions(kset, sampling["n_pos"])
    directions = sample_directions(sampling["n_dir"])
    x, d, c = _launch(s, positions, directions)
    free = ~_confined(s, x, d, c)
    covered = np.zeros(len(positions) * len(directions), dtype=bool)
    for sign in (0, 1):     # the (x, d) launches, then (x, -d) where those found no exit
        go = np.flatnonzero(free[sign::2] & ~covered) * 2 + sign
        hit = np.zeros(len(go), dtype=bool)     # per launch of the pass, one per sample
        for ev, launch, _ in _grow(s, x[go], d[go], c[go], hit):
            hit[launch[ev.kind == _EXIT]] = True
            del ev, launch      # freed before the next round is advanced
        covered[go[hit] // 2] = True
    xs, ds = list(map(tuple, positions.tolist())), list(map(tuple, directions.tolist()))
    k_pos, k_dir = np.divmod(np.flatnonzero(~covered), len(ds))
    uncovered = [(xs[i], ds[j]) for i, j in zip(k_pos.tolist(), k_dir.tolist())]
    return (len(uncovered) == 0), uncovered
