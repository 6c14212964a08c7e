"""Geometric optics over nested concentric-disk media.

Rays are straight segments traversed at the local layer speed.  At every
transversal circle hit the ray splits into a reflected branch and, below the
critical angle, a transmitted branch; branch energy weights follow the
high-frequency split 4ab/(a+b)^2 with a, b the normal phase derivatives of
the incident and transmitted phases (tau = 1 normalization; the split is
homogeneous of degree zero, so the normalization drops out).  Hits within
tolerance of tangency or of the critical angle are recorded as
"tangent-undetermined" leaves rather than silently dropped.

A point carries a visible singularity when one of the branch trees grown
from (x, d) and (x, -d) has a transversal exit through the measurement
rectangle before time T.  One depth-first event stream serves both uses:
``trace_branches`` records all of it, and ``check_visibility`` walks the
samples serially and stops each at its first exit.
"""

from __future__ import annotations

import math
# unused: the benchmark's traced mode (bench/op.py) wraps rays.ProcessPoolExecutor
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    CriticalAngleError,
    DegenerateInputError,
    TangencyError,
)
from .grid_field import Region
from .medium import Medium, speed_at

TANGENCY_TOL = 1e-9       # radians from grazing incidence
CRITICAL_TOL = 1e-12      # radians from the critical angle
_POSITION_EPS = 1e-12

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass
class Ray:
    """Position, unit direction, elapsed time, accumulated energy weight, branch depth."""

    x: np.ndarray
    d: np.ndarray
    t: float = 0.0
    weight: float = 1.0
    depth: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=np.float64)
        n = float(np.hypot(*self.d))
        if n == 0.0:
            raise ConfigurationError("ray direction must be nonzero")
        self.d = self.d / n
        if not 0.0 <= self.weight <= 1.0 or self.t < 0:
            raise ConfigurationError("ray weight must lie in [0,1] and time be nonnegative")


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


# -- local interface laws -------------------------------------------------------


def reflect(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Mirror reflection d - 2(d.n)n; rejects tangential incidence."""
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    dn = float(d @ n)
    if abs(dn) < math.sin(TANGENCY_TOL):
        raise TangencyError("incident direction is tangential to the surface")
    return d - 2.0 * dn * n


def snell_transmit(d: np.ndarray, n: np.ndarray, c_in: float, c_out: float):
    """Transmitted unit direction across the interface, or None on full internal
    reflection.

    The tangential slowness sin(alpha)/c_in is preserved.  Incidence exactly
    at the critical angle (within CRITICAL_TOL) raises, matching the excluded
    tangent-transmission case.
    """
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if c_in <= 0 or c_out <= 0:
        raise ConfigurationError("speeds must be positive")
    dn = float(d @ n)
    if dn > 0:
        n = -n
        dn = -dn
    cos_a = min(-dn, 1.0)
    if cos_a < math.sin(TANGENCY_TOL):
        raise TangencyError("incident direction is tangential to the surface")
    tang = d - dn * n
    sin_a = float(np.hypot(*tang))
    alpha = math.asin(min(sin_a, 1.0))
    if c_in < c_out:
        alpha0 = math.asin(c_in / c_out)
        if abs(alpha - alpha0) < CRITICAL_TOL:
            raise CriticalAngleError("incidence within tolerance of the critical angle")
        if alpha > alpha0:
            return None
    sin_b = sin_a * c_out / c_in
    cos_b = math.sqrt(max(0.0, 1.0 - sin_b * sin_b))
    if sin_a == 0.0:
        return -n * cos_b
    t_hat = tang / sin_a
    return sin_b * t_hat - cos_b * n


def normal_phase_derivatives(alpha: float, c_in: float, c_out: float) -> tuple[float, float]:
    """(a, b): normal derivatives of the incident and transmitted phases at tau = 1.

    With tangential slowness s = sin(alpha)/c_in these are
    a = sqrt(1/c_in^2 - s^2) and b = sqrt(1/c_out^2 - s^2); b is 0 at and
    beyond the critical angle (no transmitted phase).
    """
    s = math.sin(alpha) / c_in
    a = math.sqrt(max(0.0, c_in ** -2 - s * s))
    b_sq = c_out ** -2 - s * s
    b = math.sqrt(b_sq) if b_sq > 0 else 0.0
    return a, b


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
    if a <= 0:
        raise DegenerateInputError(f"incident normal derivative must be positive, got {a}")
    if b < 0:
        raise DegenerateInputError(f"transmitted normal derivative must be nonnegative, got {b}")
    if b == 0.0:
        return 0.0
    return 4.0 * a * b / (a + b) ** 2


# -- tracing ---------------------------------------------------------------------


def _circle_hit(x: np.ndarray, d: np.ndarray, radius: float) -> float | None:
    """Smallest arclength t > eps with |x + t d| = radius, or None."""
    b = float(x @ d)
    c = float(x @ x) - radius * radius
    disc = b * b - c
    if disc <= 0:
        return None
    sq = math.sqrt(disc)
    for t in (-b - sq, -b + sq):
        if t > _POSITION_EPS * max(1.0, radius):
            return t
    return None


def _rect_exit(x: np.ndarray, d: np.ndarray, rect: tuple[float, float, float, float]) -> float:
    """Arclength to the first crossing of the rectangle boundary from inside."""
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
    return min(t for t in ts if t > _POSITION_EPS)


def _rect_normal(x: np.ndarray, rect: tuple[float, float, float, float]) -> np.ndarray:
    xmin, xmax, ymin, ymax = rect
    dists = [abs(x[0] - xmin), abs(x[0] - xmax), abs(x[1] - ymin), abs(x[1] - ymax)]
    k = int(np.argmin(dists))
    return np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)][k])


def _omega_rect(omega: Region) -> tuple[float, float, float, float]:
    if omega.kind != "rectangle":
        raise ConfigurationError("measurement region must be a rectangle")
    g = omega.grid
    return (g.xs[omega.params["i0"]], g.xs[omega.params["i1"]],
            g.ys[omega.params["j0"]], g.ys[omega.params["j1"]])


def _advance(ray: Ray, m: Medium, radii: list, rect, T: float,
             max_depth: int, min_weight: float) -> list[tuple]:
    """The events where ``ray`` next meets an interface, the rectangle or time T.

    Each event is (kind, x, t, weight, depth, angle, direction, child): child
    is the ray continuing from a reflect or transmit event, None on a leaf.
    A branch below ``min_weight`` or at ``max_depth`` is a truncation leaf.
    """
    c_here = speed_at(m, ray.x)
    hits = [(_circle_hit(ray.x, ray.d, r), r) for r in radii]
    hits = [(t, r) for t, r in hits if t is not None]
    t_circle, r_hit = min(hits, default=(math.inf, None))
    t_rect = _rect_exit(ray.x, ray.d, rect)
    t_event = min(t_circle, t_rect)
    t_arrive = ray.t + t_event / c_here

    if t_arrive >= T:
        pos = ray.x + ray.d * (T - ray.t) * c_here
        return [("expiry", pos, T, ray.weight, ray.depth, None, None, None)]

    pos = ray.x + ray.d * t_event
    if t_rect < t_circle:
        n_out = _rect_normal(pos, rect)
        if abs(float(ray.d @ n_out)) < math.sin(TANGENCY_TOL):
            return [("tangent_undetermined", pos, t_arrive, ray.weight, ray.depth,
                     None, None, None)]
        return [("exit", pos, t_arrive, ray.weight, ray.depth, None, ray.d, None)]

    # transversal circle hit
    r_unit = pos / float(np.hypot(*pos))
    going_out = float(ray.d @ r_unit) > 0
    iface = next(i for i in m.interfaces if i.radius == r_hit)
    c_in, c_out = (iface.c_int, iface.c_ext) if going_out else (iface.c_ext, iface.c_int)
    surface_n = r_unit if going_out else -r_unit
    cos_a = min(abs(float(ray.d @ r_unit)), 1.0)
    alpha = math.acos(cos_a)
    grazing = (math.pi / 2 - alpha) < TANGENCY_TOL
    if grazing or (c_in < c_out and abs(alpha - math.asin(c_in / c_out)) < CRITICAL_TOL):
        return [("tangent_undetermined", pos, t_arrive, ray.weight, ray.depth,
                 alpha, None, None)]
    a, b = normal_phase_derivatives(alpha, c_in, c_out)
    transmitted = snell_transmit(ray.d, surface_n, c_in, c_out)
    frac_t = energy_split(a, b) if transmitted is not None else 0.0
    depth = ray.depth + 1

    branches = (("reflect", reflect(ray.d, surface_n), ray.weight * (1.0 - frac_t)),
                ("transmit", transmitted, ray.weight * frac_t))
    events = []
    for kind, d_new, w_new in branches:
        if d_new is None:
            continue
        child = None
        if w_new < min_weight or depth >= max_depth:
            kind = "truncation"
        else:
            child = Ray(pos.copy(), d_new, t_arrive, w_new, depth)
        events.append((kind, pos, t_arrive, w_new, depth, alpha, d_new, child))
    return events


def _branch_events(x0, d0, m: Medium, omega: Region, T: float, caps: dict | None):
    """Yield the branch events grown from (x0, +d0) and (x0, -d0), depth first.

    Each event is the argument tuple of ``RayBranchGraph.add``: (parent, kind,
    x, t, weight, depth, angle, direction), with ``parent`` the index of an
    earlier event.  The inputs are checked before the first event.
    """
    caps = dict(caps or {})
    max_depth = int(caps.pop("max_depth", 12))
    min_weight = float(caps.pop("min_weight", 1e-4))
    if caps:
        raise ConfigurationError(f"unknown caps: {sorted(caps)}")
    if max_depth < 1 or min_weight <= 0:
        raise ConfigurationError("caps must be positive")
    if not T >= 0:
        raise ConfigurationError(f"observation time T must be nonnegative, got {T}")
    rect = _omega_rect(omega)
    x0 = np.asarray(x0, dtype=np.float64)
    radii = [iface.radius for iface in m.interfaces]
    if any(abs(np.hypot(*x0) - r) < 10 * _POSITION_EPS for r in radii):
        raise ConfigurationError("launch point must not lie on an interface circle")
    if not (rect[0] < x0[0] < rect[1] and rect[2] < x0[1] < rect[3]):
        raise ConfigurationError("launch point must lie inside the measurement rectangle")

    roots = [Ray(x0.copy(), sgn * np.asarray(d0, dtype=float)) for sgn in (1.0, -1.0)]
    if T == 0:
        # zero observation time: each launch expires at once
        for k, root in enumerate(roots):
            yield None, "launch", root.x, 0.0, 1.0, 0, None, root.d
            yield 2 * k, "expiry", root.x, 0.0, 1.0, 0, None, None
        return

    stack: list[tuple[int, Ray]] = []
    for k, root in enumerate(roots):
        yield None, "launch", root.x, 0.0, 1.0, 0, None, root.d
        stack.append((k, root))
    n_events = len(roots)
    while stack:
        parent, ray = stack.pop()
        for *event, child in _advance(ray, m, radii, rect, T, max_depth, min_weight):
            yield parent, *event
            if child is not None:
                stack.append((n_events, child))
            n_events += 1


def trace_branches(x0, d0, m: Medium, omega: Region, T: float,
                   caps: dict | None = None) -> RayBranchGraph:
    """Grow the branch forest from (x0, +d0) and (x0, -d0) until time T >= 0.

    caps: ``max_depth`` (interface events per path, default 12) and
    ``min_weight`` (branches below it become truncation leaves, default 1e-4).
    """
    graph = RayBranchGraph()
    for event in _branch_events(x0, d0, m, omega, T, caps):
        graph.add(*event)
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
    g = kset.grid
    i0, i1 = kset.params["i0"], kset.params["i1"]
    j0, j1 = kset.params["j0"], kset.params["j1"]
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

    Samples are traced one after another, each only until its first exit
    event, in the order ``trace_branches`` records them.  Returns
    (all_covered, uncovered_samples); tangent-undetermined samples count as
    uncovered.
    """
    sampling = dict(sampling or {})
    n_pos = int(sampling.pop("n_pos", 64))
    n_dir = int(sampling.pop("n_dir", 128))
    caps = sampling.pop("caps", None)
    if sampling:
        raise ConfigurationError(f"unknown sampling keys: {sorted(sampling)}")
    positions = sample_positions(kset, n_pos)
    directions = sample_directions(n_dir)
    uncovered = [(tuple(x), tuple(d)) for x in positions for d in directions
                 if not any(event[1] == "exit"
                            for event in _branch_events(x, d, m, omega, T, caps))]
    return (len(uncovered) == 0), uncovered
