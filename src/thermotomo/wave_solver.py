"""Time-domain solver for (d_tt - c^2 Lap) u = 0 and the boundary operators built on it.

The stepper is the classic leapfrog scheme on the 5-point Laplacian with
homogeneous Dirichlet data on the outermost ring of the computational box.
``forward`` requires the box to pad the measurement rectangle by at least
c_out*T/2 + 16h, c_out the largest nodal speed outside the rectangle's
interior: a wave reflected by the ring crosses the margin twice, which takes
longer than T, and the 16 nodes cover the scheme's dispersive precursor.  The
trace, and the state at T on the closed rectangle, are then the unbounded
medium's to round-off, so a trace-only ``forward`` steps nothing past the
rectangle plus ceil(c_out*T/2h) + 16 nodes.  Every solve seeds its first two
levels in ``_seed``, which pins level 0 and builds level 1 by the Taylor step
(with -u_t for the backward solve), and steps the rest in the one time loop
``_march``, over a schedule of runs (steps, box).  Each run copies its two
levels into contiguous arrays cut to its box, where three preallocated
levels rotate and the kernel ``_leap`` writes each new level in place with
one scratch array and weights (dt/h)^2 c^2 computed once per run, so a step
allocates nothing.  The kernel's flat views of the three levels are built
once per run, and its operation order is the textbook one, bit for bit;
each solve adds only its schedule, the nodes it pins and what it records
(pins and records index the flat levels).  ``evolve``, ``solve_backward``
and the exterior solve run once, on a box that is their whole array, ring
included.  A run checks finiteness once, on its last level: a non-finite
value never leaves an unpinned node.  A failed solve is replayed from its
seeded levels, which the loop only reads, with the pins and a check per
step, so ``InstabilityError`` names the first non-finite step; the hooks
(``forward``'s ``on_step``, ``evolve``'s ``on_sample``) may have seen the
failed run's levels before it is raised.

The padded box is mostly empty, so ``forward`` steps light cones in both axes
(``_phases``): steps 2..n fall into 16 runs, each on one box holding Ω's box
and the cone of the source's nonzero nodes at the run's last step t, cut,
for a trace alone, to Ω's backward cone at its first.  A trace-only
``forward`` steps the physical cones, within c_max*t + 24h of the source and
c_out*(T - t) + 24h of Ω's box.  Past the first lies only the scheme's
dispersive precursor, and nothing past the second reaches Ω by T, so the
trace is the whole box's to about 1e-15 of its peak (the tests hold it to
1e-13), not bit for bit.  A ``forward`` that returns the final state reads
every node, so it steps the whole box's discrete cone: the scheme moves data
one node per step, the box's ring stays outside it, and the nodes left out
are exact zeros, so its outputs are the whole box's bit for bit.  The box is
copied once per run because a 2-D window stepped in place in a larger array
needs strided views, which numpy steps 3 to 6 times slower per node than one
contiguous flat range.

Time-derivative convention: the solver hands back
``u_t(T) = (u^N - u^{N-1})/dt + (dt/2) c^2 Lap u^N``,
which is the exact algebraic inverse, ``_consistent_ut``, of the Taylor seed used
to start a two-level scheme from Cauchy data; negated over reversed levels, it is
``solve_backward``'s v_t(0).  A backward solve fed the full discrete Cauchy data
therefore retraces the forward recurrence exactly (to round-off), and the
reconstruction identities built on these solves hold discretely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityError, ConfigurationError, InstabilityError
from .grid_field import Region, ScalarField, WaveState, _count, _one_grid
from .medium import Medium

_CFL = 0.4          # the fraction of the stability bound ``SolverConfig.for_time`` steps at
_SLACK = 16     # nodes of box margin past c_out*T/2, for the dispersive precursor
_CONE_SLACK = 24    # nodes a trace-only box keeps past each physical cone, for the same
_PHASES = 16        # runs of steps, one box each, in a forward


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters: step size and step count.  Every solve checks
    dt against the stability bound h / (c_max sqrt(2)); ``for_time`` takes 0.4 of it."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "n_steps", _count(self.n_steps, "n_steps"))

    @property
    def T(self) -> float:
        return self.dt * self.n_steps

    @classmethod
    def for_time(cls, m: Medium, T: float) -> "SolverConfig":
        """Largest dt of at most 0.4 times the stability bound that divides T
        into an integer number of steps."""
        _check_final_time(T)
        dt_max = cfl_dt(m, _CFL)
        steps = T / dt_max if dt_max > 0 else math.inf
        if not steps <= np.iinfo(np.intp).max:         # also nan
            raise ConfigurationError(
                f"T = {T:.6g} takes {steps:.6g} steps of the stable dt, more than can be indexed")
        n = max(1, int(math.ceil(steps - 1e-12)))
        return cls(dt=T / n, n_steps=n)


@dataclass(eq=False)
class BoundaryTrace:
    """Time series of u on ordered detector nodes: shape (n_steps+1, n_det).

    ``points`` holds the detector coordinates; sampling is uniform with step
    ``dt`` starting at t = 0.
    """

    points: np.ndarray
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ConfigurationError("trace points must be an (n_det, 2) array")
        if self.values.ndim != 2 or self.values.shape[1] != self.points.shape[0]:
            raise ConfigurationError(
                f"trace values {self.values.shape} do not match {self.points.shape[0]} detectors")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"trace dt must be positive and finite, got {self.dt}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("trace values must be finite")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def T(self) -> float:
        return self.dt * self.n_steps


def cfl_dt(m: Medium, cfl: float) -> float:
    """Stable leapfrog step: cfl * h / (c_max * sqrt(2))."""
    if not 0 < cfl < 1:
        raise ConfigurationError(f"CFL number must lie in (0,1), got {cfl}")
    return cfl * m.grid.h / (m.c_max * math.sqrt(2.0))


def _check_final_time(T: float, covered: float | None = None, what: str = "solver config"):
    """Reject a T that is not positive and finite, and a ``what`` (config or trace)
    whose ``covered`` T is more than 1e-9 max(T, 1) from it; NaN fails both."""
    if not 0 < T < math.inf:
        raise ConfigurationError(f"final time must be positive and finite, got {T}")
    if covered is not None and not abs(covered - T) <= 1e-9 * max(T, 1.0):
        raise ConfigurationError(f"{what} covers T = {covered:.6g}, requested {T:.6g}")


def _check_cfl(dt: float, h: float, c_max: float):
    """Reject a dt above the scheme's stability bound h / (c_max sqrt(2))."""
    limit = h / (c_max * math.sqrt(2.0))
    if dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt {dt:.6g} violates the stability bound {limit:.6g} for speed {c_max:.6g}")


def _weights(c_sq, h, dt, out):
    """(dt/h)^2 c^2 over ``_leap``'s flat node range, zero on its side ring nodes,
    written into ``out``, a C-ordered array shaped like c_sq."""
    w = np.multiply((dt * dt) / (h * h), c_sq, out=out)
    w[:, 0] = w[:, -1] = 0.0
    return w.reshape(-1)[c_sq.shape[1] + 1:-c_sq.shape[1] - 1]


def _lap_sum(u):
    """Undivided 5-point Laplacian N + S + E + W - 4u on the interior nodes of u."""
    return u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]


def _leap(out, prev, curr, w, scratch):
    """Allocation-free leapfrog kernel: out = 2 c - prev + w (N + S + E + W - 4 c).

    ``curr`` holds flat views of the current level: its node range from node
    (1, 1) to (nx-2, ny-2) of a C-ordered grid, and that range shifted to the
    neighbours at i+1, i-1, j+1 and j-1.  ``out`` and ``prev`` are the range
    in the other two levels, the range of ``w`` and ``scratch``.  It spans the
    interior rows, so its side ring nodes get 2 c - prev (w is zero there)
    and a zero ring stays zero.  The textbook operation order is kept, so
    results are bit-identical to it.  The ufuncs take their output
    positionally, which skips keyword parsing in each of the nine calls.
    """
    c, n, s, e, west = curr
    add, mul, sub = np.add, np.multiply, np.subtract
    add(n, s, out)
    add(out, e, out)
    add(out, west, out)
    sub(out, mul(c, 4.0, scratch), out)
    mul(out, w, out)
    mul(c, 2.0, scratch)
    sub(scratch, prev, scratch)
    add(scratch, out, out)


def _run(levels, w, scratch, steps, pin, record, where=None):
    """Step the three rotating buffers ``levels`` = (prev, curr, nxt), one level
    per index in ``steps``, with ``_leap`` on views built once; with ``where``,
    check each new level and raise at the first non-finite one.  Returns the
    last two levels."""
    ny = levels[0].shape[1]
    a, b = ny + 1, levels[0].size - ny - 1
    views = [(f[a:b], f[a + ny:b + ny], f[a - ny:b - ny], f[a + 1:b + 1], f[a - 1:b - 1])
             for f in (x.reshape(-1) for x in levels)]
    rotation = itertools.cycle([(levels[(i + 2) % 3], views[(i + 2) % 3][0], views[i][0],
                                 views[(i + 1) % 3]) for i in range(3)])
    prev, curr = levels[:2]
    for k, (nxt, out, p, c) in zip(steps, rotation):
        _leap(out, p, c, w, scratch)
        if pin is not None:
            pin(k, nxt)
        if where is not None and not np.isfinite(nxt[1:-1]).all():
            raise InstabilityError(f"non-finite values appeared at {where} {k}")
        prev, curr = curr, nxt
        if record is not None:
            record(k, curr, prev)
    return prev, curr


def _seed(u0, ut0, c_sq, h, dt, levels, pin=None, record=None):
    """Levels ``levels[0]``, a copy u of u0 on a zero outer ring, and ``levels[1]``,
    u + dt ut0 + dt^2/2 c^2 Lap u on that ring: both pinned, the second recorded."""
    prev = u0.copy()
    prev[[0, -1], :] = prev[:, [0, -1]] = 0.0
    if pin is not None:
        pin(levels[0], prev)
    curr = np.zeros_like(prev)
    curr[1:-1, 1:-1] = (prev[1:-1, 1:-1] + dt * ut0[1:-1, 1:-1]
                        + 0.5 * dt * dt / (h * h) * c_sq[1:-1, 1:-1] * _lap_sum(prev))
    if pin is not None:
        pin(levels[1], curr)
    if record is not None:
        record(levels[1], curr, prev)
    return prev, curr


def _phases(levels, box, n, slack, src_speed, dst_speed=None):
    """``forward``'s schedule: steps 2..n cut into up to ``_PHASES`` runs
    (steps, box), each box (r0, r1, c0, c1) of the levels' arrays, ring included.

    By step k1 the data have moved at most ``src_speed`` * k1 nodes (speeds in
    nodes per step) from the nonzero nodes of ``levels`` (levels 0 and 1);
    from step k0 only nodes within ``dst_speed`` * (n - k0) of ``box`` =
    (i0, i1, j0, j1), Ω's box, can still reach Ω by step n (no ``dst_speed``:
    every node is read).  A run over k0..k1 steps Ω's box and one ring united
    with the overlap of the two cones, each grown by ``slack`` nodes, clipped
    to the arrays.
    """
    nz = (levels[0] != 0.0) | (levels[1] != 0.0)
    src = [np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))]
    ks = [2 + (n - 1) * p // _PHASES for p in range(_PHASES + 1)]
    schedule = []
    for k0, k1 in zip(ks, ks[1:]):
        if k0 == k1:
            continue
        s = math.ceil(src_speed * (k1 - 1)) + slack
        d = math.inf if dst_speed is None else math.ceil(dst_speed * (n - k0)) + slack
        out = []
        for (lo, hi), nodes, size in zip((box[:2], box[2:]), src, nz.shape):
            a, b = lo - 1, hi + 1
            if nodes.size:
                a, b = min(a, max(nodes[0] - s, lo - d)), max(b, min(nodes[-1] + s, hi + d))
            out += [max(a, 0), min(b, size - 1)]
        schedule.append((range(k0, k1), tuple(out)))
    return schedule


def _paste(dst, dst_at, src, src_at):
    """Zero ``dst`` and copy ``src`` into it where they overlap, leaving ``dst``'s
    ring zero except on the sides it shares with ``src``'s ring; ``*_at`` are
    the arrays' origins in one frame."""
    dst.fill(0.0)
    lo = [max(d + (d != s), s) for d, s in zip(dst_at, src_at)]
    hi = [min(d + m - (d + m != s + k), s + k)
          for d, m, s, k in zip(dst_at, dst.shape, src_at, src.shape)]
    if lo[0] < hi[0] and lo[1] < hi[1]:
        dst[lo[0] - dst_at[0]:hi[0] - dst_at[0], lo[1] - dst_at[1]:hi[1] - dst_at[1]] = \
            src[lo[0] - src_at[0]:hi[0] - src_at[0], lo[1] - src_at[1]:hi[1] - src_at[1]]


def _whole(a):
    """The box (r0, r1, c0, c1) of all of array ``a``, ring included."""
    return 0, a.shape[0] - 1, 0, a.shape[1] - 1


def _march(levels, c_sq, h, dt, schedule, where, pin=None, record_at=None):
    """The one leapfrog time loop: from the seeded levels (prev, curr), C-ordered
    on ``c_sq``'s nodes, one level per index in each (steps, box) of
    ``schedule``, on contiguous copies of the levels cut to the box (r0, r1,
    c0, c1) of their arrays, ring included.  Nodes new to a box start at zero,
    and its ring stays zero but on the sides it shares with the arrays' ring.
    The buffers (three levels, ``w``, scratch) are sized once, to the largest
    box.  ``pin(k, nxt)`` edits each new level in place (a one-box schedule
    hands it arrays shaped like ``levels``); ``record_at(r0, c0, ny)`` gives the
    ``record(k, curr, prev)`` that sees each new level of a run whose arrays
    start at node (r0, c0) and have ny columns.  Returns the last two levels
    and their arrays' origin (r0, c0).

    A run is checked once, on its last level: a non-finite value stays
    non-finite at every node the kernel writes and no pin holds, since x + y
    is non-finite whenever x is.  On a failure the whole schedule is replayed
    from ``levels``, which the loop only reads, with a check per step, the
    pins and no record; every earlier run ended finite and its pastes dropped
    only finite values, so ``InstabilityError`` names the first non-finite
    step.  The hooks may already have seen the failed run's levels.
    """
    boxes = [(r1 - r0 + 1, c1 - c0 + 1) for _, (r0, r1, c0, c1) in schedule]
    flat = np.empty((5, max((a * b for a, b in boxes), default=0)))    # 3 levels, w, scratch

    def sweep(replay):
        (prev, curr), at, slots = levels, (0, 0), (0, 1, 2)     # buffers of prev, curr, spare
        for (steps, (r0, r1, c0, c1)), shape in zip(schedule, boxes):
            size = shape[0] * shape[1]
            # the spare buffer takes curr, then curr's buffer takes prev
            slots = slots[1:] + slots[:1]
            p, c, nxt = (flat[i, :size].reshape(shape) for i in slots)
            _paste(c, (r0, c0), curr, at)
            _paste(p, (r0, c0), prev, at)
            nxt.fill(0.0)
            w = _weights(c_sq[r0:r1 + 1, c0:c1 + 1], h, dt, flat[3, :size].reshape(shape))
            record = None if replay or record_at is None else record_at(r0, c0, shape[1])
            prev, curr = _run((p, c, nxt), w, flat[4, :w.size], steps, pin, record,
                              where if replay else None)
            if steps and not replay and not np.isfinite(curr[1:-1]).all():
                return None
            m, at = len(steps) % 3, (r0, c0)
            slots = slots[m:] + slots[:m]           # _run rotates its levels once a step
        return (prev, curr), at

    return sweep(False) or sweep(True)      # a failed sweep stops; its replay raises


def _consistent_ut(u_last, u_prev, c_sq, h, dt):
    """Time derivative matching the Taylor seed: (u^N - u^{N-1})/dt + dt/2 c^2 Lap u^N."""
    ut = (u_last - u_prev) / dt
    ut[1:-1, 1:-1] += 0.5 * dt * c_sq[1:-1, 1:-1] * _lap_sum(u_last) / (h * h)
    return ut


def _support_inside(f: WaveState, omega: Region):
    nz = (f.u.data != 0.0) | (f.ut.data != 0.0)
    if not nz.any():
        return
    if (nz & ~omega.interior_mask).any():
        raise ConfigurationError(
            "initial data must be supported strictly inside the measurement rectangle")


def _check_box_margin(omega: Region, c_out: float, T: float) -> int:
    """Check that the box pads the rectangle by c_out*T/2 + _SLACK*h; return the
    nodes r = ceil(c_out*T/2h) + _SLACK around it past which a trace-only solve
    steps nothing."""
    (i0, i1, j0, j1), g = omega.box, omega.grid
    margin = g.h * min(i0, g.nx - 1 - i1, j0, g.ny - 1 - j1)
    need = 0.5 * c_out * T + _SLACK * g.h
    if margin + 1e-9 < need:
        raise ConfigurationError(
            f"computational box margin {margin:.4g} is below the required {need:.4g} "
            f"(c_out*T/2 + {_SLACK}h, c_out = {c_out:.4g} outside the rectangle's interior)")
    return math.ceil(0.5 * c_out * T / g.h) + _SLACK


def _check_trace_on(boundary: BoundaryTrace, omega: Region):
    nodes = omega.boundary_coords
    if boundary.points.shape != nodes.shape or not (
            np.abs(boundary.points - nodes) <= 1e-9 * omega.grid.h).all():
        raise ConfigurationError("trace detectors do not match the rectangle boundary nodes")
    if boundary.n_steps < 1:
        raise ConfigurationError("a solve needs a trace of at least two time samples")


def evolve(f: WaveState, m: Medium, T: float, cfg: SolverConfig, *,
           pin_zero: Region | None = None, on_sample=None,
           sample_every: int = 1) -> WaveState:
    """Free evolution of Cauchy data over [0, T] without boundary recording.

    ``pin_zero`` holds a region's boundary nodes at zero every level, turning
    that region into a closed Dirichlet box.  ``on_sample(k, state)`` is
    called every ``sample_every`` steps with the state at step k (velocity by
    the consistent two-level formula), also for the steps of a run that ends
    in ``InstabilityError``.  Returns the state at t = T.
    """
    _one_grid(f, m, pin_zero)
    _check_final_time(T, cfg.T)
    sample_every = _count(sample_every, "sample_every")
    g, dt = m.grid, cfg.dt
    _check_cfl(dt, g.h, m.c_max)

    def pin(k, arr):
        arr[pin_zero.boundary_nodes] = 0.0

    def sample(k, curr, prev):
        if k % sample_every == 0:
            ut = _consistent_ut(curr, prev, m.c_sq, g.h, dt)
            on_sample(k, WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut)))

    pin = None if pin_zero is None else pin
    sample = None if on_sample is None else sample
    levels = range(cfg.n_steps + 1)
    seeded = _seed(f.u.data, f.ut.data, m.c_sq, g.h, dt, levels, pin, sample)
    (prev, curr), _ = _march(seeded, m.c_sq, g.h, dt, [(levels[2:], _whole(m.c_sq))], "step",
                             pin, lambda *_: sample)
    ut = _consistent_ut(curr, prev, m.c_sq, g.h, dt)
    return WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut))


def forward(f: WaveState, m: Medium, omega: Region, T: float, cfg: SolverConfig,
            *, return_final: bool = False, on_step=None):
    """Evolve Cauchy data f and record u on the rectangle boundary over [0, T].

    Returns the boundary trace; with ``return_final`` also the state at t = T
    (velocity via the consistent two-level formula).  ``on_step(k, n_steps)``
    is called after each step when given, also for the steps of a run that
    ends in ``InstabilityError``.

    The box must pad the rectangle by c_out*T/2 + 16h (see the module notes):
    the trace and the final state on the closed rectangle then equal the
    unbounded medium's; outside it, the final state holds the ring's echoes.
    One stepper runs the steps in 16 phases, each on a box of light cones.  A
    trace alone steps where the source's and the rectangle's physical cones
    overlap and equals the whole box's trace to round-off.  With
    ``return_final`` every node is read, so the boxes hold the source's
    discrete cone in the whole box, and trace and state are the whole box's
    bit for bit.
    """
    i0, i1, j0, j1 = omega.box
    _one_grid(f, m, omega)
    _check_final_time(T, cfg.T)
    g, h, dt, n = m.grid, m.grid.h, cfg.dt, cfg.n_steps
    _check_cfl(dt, h, m.c_max)
    _support_inside(f, omega)
    c_out = float(m.c_field[~omega.interior_mask].max())
    r, (bi, bj) = _check_box_margin(omega, c_out, T), omega.boundary_nodes
    values = np.empty((n + 1, bi.size))
    values[0] = f.u.data[bi, bj]

    def record_at(a, b, ny):    # the hook for levels whose arrays start at node (a, b)
        at = (bi - a) * ny + bj - b

        def record(k, curr, _prev):
            curr.take(at, out=values[k])
            if on_step is not None:
                on_step(k, n)
        return record

    if return_final:    # every node is read: the whole box, its cone one node a step
        r, cones = g.nx + g.ny, (0, 1.0)
    else:               # Ω ± r, the source's cone at c_max and Ω's backward cone at c_out
        cones = (_CONE_SLACK, m.c_max * dt / h, c_out * dt / h)
    a, b = max(i0 - r, 0), max(j0 - r, 0)
    win = np.s_[a:i1 + r + 1, b:j1 + r + 1]
    c_sq = m.c_sq[win]
    levels = _seed(f.u.data[win], f.ut.data[win], c_sq, h, dt, range(2),
                   record=record_at(a, b, c_sq.shape[1]))
    schedule = _phases(levels, (i0 - a, i1 - a, j0 - b, j1 - b), n, *cones)
    (prev, curr), at = _march(levels, c_sq, h, dt, schedule, "step",
                              record_at=lambda r0, c0, ny: record_at(a + r0, b + c0, ny))

    trace = BoundaryTrace(points=omega.boundary_coords, dt=dt, values=values)
    if not return_final:
        return trace
    u, u_prev = np.empty(g.shape), np.empty(g.shape)
    _paste(u, (-a, -b), curr, at)
    _paste(u_prev, (-a, -b), prev, at)
    ut = _consistent_ut(u, u_prev, m.c_sq, h, dt)
    return trace, WaveState(ScalarField(g, u), ScalarField(g, ut))


def solve_backward(boundary: BoundaryTrace, cauchy_at_T: WaveState, m: Medium,
                   omega: Region) -> WaveState:
    """Solve the mixed problem on [0,T] x omega backwards from t = T.

    Interior nodes follow the leapfrog recurrence; rectangle-boundary nodes
    are pinned to the recorded trace at every level.  Returns [v(0), v_t(0)].
    """
    i0, i1, j0, j1 = omega.box
    _one_grid(cauchy_at_T, m, omega)
    _check_trace_on(boundary, omega)
    g, dt = m.grid, boundary.dt
    _check_cfl(dt, g.h, m.c_max)

    n = boundary.n_steps
    bi, bj = omega.boundary_nodes
    scale = max(1.0, float(np.max(np.abs(boundary.values))))
    mismatch = float(np.max(np.abs(cauchy_at_T.u.data[bi, bj] - boundary.values[n])))
    if mismatch > 1e-9 * scale:
        raise CompatibilityError(
            f"Cauchy data disagrees with the trace at t = T by {mismatch:.3e} "
            f"(tolerance {1e-9 * scale:.3e})")

    # step window-sized arrays, whose outer ring is the pinned rectangle boundary
    win = (slice(i0, i1 + 1), slice(j0, j1 + 1))
    c_sq = m.c_sq[win]
    at = (bi - i0) * c_sq.shape[1] + bj - j0       # flat indices in the window

    def pin(k, arr):
        arr.put(at, boundary.values[k])

    # levels n down to 0; a Taylor step with -u_t seeds level n - 1
    levels = range(n, -1, -1)
    seeded = _seed(cauchy_at_T.u.data[win], -cauchy_at_T.ut.data[win], c_sq, g.h, dt, levels, pin)
    (v1, v0), _ = _march(seeded, c_sq, g.h, dt, [(levels[2:], _whole(c_sq))], "backward step", pin)

    # the seed's one inverse in reversed time, whose last level is 0, gives -v_t(0)
    u, ut = np.zeros(g.shape), np.zeros(g.shape)
    u[win] = v0
    ut[win] = -_consistent_ut(v0, v1, c_sq, g.h, dt)
    return WaveState(ScalarField(g, u), ScalarField(g, ut))


def exterior_neumann(boundary: BoundaryTrace, omega: Region) -> BoundaryTrace:
    """Exterior Neumann data generated by the trace: solves the unit-speed
    exterior problem with Dirichlet data = boundary and returns the one-sided
    exterior normal difference quotient on the rectangle boundary per step
    (axis quotients averaged at the corners).

    The box must pad the rectangle by T/2 + 16h, the rule of ``forward`` at
    unit speed, so that the ring's echo does not reach the recorded nodes.
    Zero initial data; the rectangle interior is masked to zero so only the
    exterior nodes evolve.
    """
    i0, i1, j0, j1 = omega.box
    g, dt = omega.grid, boundary.dt
    _check_cfl(dt, g.h, 1.0)
    _check_trace_on(boundary, omega)
    _check_box_margin(omega, 1.0, boundary.T)

    bi, bj = omega.boundary_nodes
    # outward axis neighbor per boundary node; the four corners carry two and
    # average both axis quotients
    di = (bi == i1).astype(int) - (bi == i0)
    dj = (bj == j1).astype(int) - (bj == j0)
    n1i, n1j = bi + di, bj + dj * (di == 0)
    corner = (di != 0) & (dj != 0)
    ci, cj, n2j = bi[corner], bj[corner], (bj + dj)[corner]
    normal = np.zeros((boundary.n_steps + 1, bi.size))
    interior_win = (slice(i0 + 1, i1), slice(j0 + 1, j1))

    def pin(k, arr):
        arr[bi, bj] = boundary.values[k]
        arr[interior_win] = 0.0

    def record(k, arr, _prev):
        q = (arr[n1i, n1j] - arr[bi, bj]) / g.h
        q[corner] = 0.5 * (q[corner] + (arr[ci, n2j] - arr[ci, cj]) / g.h)
        normal[k] = q

    c_sq, levels = np.ones(g.shape), range(boundary.n_steps + 1)
    seeded = _seed(np.zeros(g.shape), np.zeros(g.shape), c_sq, g.h, dt, levels, pin, record)
    record(0, seeded[0], None)
    _march(seeded, c_sq, g.h, dt, [(levels[2:], _whole(c_sq))], "exterior step", pin,
           lambda *_: record)
    return BoundaryTrace(points=omega.boundary_coords, dt=dt, values=normal)
