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
``_march``, where three preallocated levels rotate and the kernel ``_leap``
writes each new level in place with one scratch array and weights
(dt/h)^2 c^2 computed once per array, so a step allocates nothing.  Its
operation order is the textbook one, bit for bit; each solve adds only its
geometry, the nodes it pins and what it records.

The padded box is mostly empty.  ``evolve``, the exterior solve and a
``forward`` that returns the final state step only the rows of the discrete
light cone (``_band``): the scheme moves data one row per step, so step k of
n computes the rows within k-1 of the rows where levels 0 and 1 are nonzero
and, when only some rows are read after the solve, within n-k of those rows.
The other rows are exact zeros or never read, so these outputs stay
bit-identical to stepping the whole box.  A trace-only ``forward`` steps the
physical cones in both axes instead (``_phases``, ``_march_boxes``): steps
2..n fall into 16 runs, and each run copies its two levels into contiguous
arrays cut to one box, holding Ω's box and the nodes both within
c_max*t + 24h of the source's nonzero nodes, t the run's last step, and within
c_out*(T - t) + 24h of Ω's box, t its first.  Past the first cone lies only
the scheme's dispersive precursor, and nothing past the second reaches Ω by
T, so the trace is the whole box's to about 1e-15 of its peak (the tests hold
it to 1e-13), not bit for bit.  The box is copied once per run because a 2-D
window stepped in place in a larger array needs strided views, which numpy
steps 3 to 6 times slower per node than one contiguous flat range.

Time-derivative convention: the solver hands back
``u_t(T) = (u^N - u^{N-1})/dt + (dt/2) c^2 Lap u^N``,
which is the exact algebraic inverse of the Taylor seed used to start a
two-level scheme from Cauchy data.  A backward solve fed the full discrete
Cauchy data therefore retraces the forward recurrence exactly (to round-off),
and the reconstruction identities built on these solves hold discretely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityError, ConfigurationError, InstabilityError
from .grid_field import Region, ScalarField, WaveState
from .medium import Medium

DEFAULT_CFL = 0.4
_SLACK = 16     # nodes of box margin past c_out*T/2, for the dispersive precursor
_CONE_SLACK = 24    # nodes a trace-only box keeps past each physical cone, for the same
_PHASES = 16        # runs of steps, one box each, in a trace-only forward


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters: step size, step count and CFL number."""

    dt: float
    n_steps: int
    cfl: float = DEFAULT_CFL

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be at least 1, got {self.n_steps}")
        if not 0 < self.cfl < 1:
            raise ConfigurationError(f"CFL number must lie in (0,1), got {self.cfl}")

    @property
    def T(self) -> float:
        return self.dt * self.n_steps

    @classmethod
    def for_time(cls, m: Medium, T: float, cfl: float = DEFAULT_CFL) -> "SolverConfig":
        """Largest stable dt that divides T into an integer number of steps."""
        if not 0 < T < math.inf:
            raise ConfigurationError(f"final time must be positive and finite, got {T}")
        dt_max = cfl_dt(m, cfl)
        steps = T / dt_max if dt_max > 0 else math.inf
        if not steps <= np.iinfo(np.intp).max:         # also nan
            raise ConfigurationError(
                f"T = {T:.6g} takes {steps:.6g} steps of the stable dt, more than can be indexed")
        n = max(1, int(math.ceil(steps - 1e-12)))
        return cls(dt=T / n, n_steps=n, cfl=cfl)


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
        if not self.dt > 0:
            raise ConfigurationError(f"trace dt must be positive, got {self.dt}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("trace values must be finite")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])

    @property
    def T(self) -> float:
        return self.dt * self.n_steps

    def _check_compatible(self, other: "BoundaryTrace"):
        if self.values.shape != other.values.shape or abs(self.dt - other.dt) > 1e-14 * self.dt \
                or not np.allclose(self.points, other.points):
            raise ConfigurationError("traces have different sampling or detectors")

    def __add__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        self._check_compatible(other)
        return BoundaryTrace(self.points, self.dt, self.values + other.values)

    def __sub__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        self._check_compatible(other)
        return BoundaryTrace(self.points, self.dt, self.values - other.values)

    def __mul__(self, scalar: float) -> "BoundaryTrace":
        return BoundaryTrace(self.points, self.dt, self.values * float(scalar))

    __rmul__ = __mul__


def cfl_dt(m: Medium, cfl: float) -> float:
    """Stable leapfrog step: cfl * h / (c_max * sqrt(2))."""
    if not 0 < cfl < 1:
        raise ConfigurationError(f"CFL number must lie in (0,1), got {cfl}")
    return cfl * m.grid.h / (m.c_max * math.sqrt(2.0))


def _check_cfl(dt: float, h: float, c_max: float, cfl: float = 1.0):
    limit = cfl * h / (c_max * math.sqrt(2.0))
    if dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt {dt:.6g} violates the stability bound {limit:.6g} for speed {c_max:.6g}")


def _weights(c_sq, h, dt, out=None):
    """(dt/h)^2 c^2 over ``_leap``'s flat node range, zero on its side ring nodes;
    written into ``out``, a C-ordered array shaped like c_sq, when given."""
    w = np.multiply((dt * dt) / (h * h), c_sq, out=out)
    w[:, 0] = w[:, -1] = 0.0
    return w.reshape(-1)[c_sq.shape[1] + 1:-c_sq.shape[1] - 1]


def _lap_sum(u):
    """Undivided 5-point Laplacian N + S + E + W - 4u on the interior nodes of u."""
    return u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]


def _leap(out, prev, curr, w, scratch, lo, hi):
    """Allocation-free leapfrog kernel: out = 2 curr - prev + w _lap_sum(curr).

    Steps rows lo..hi of C-ordered grids (1 <= lo, hi <= nx-2; none if hi < lo)
    as one flat range from node (lo, 1) to (hi, ny-2), slicing ``w`` and
    ``scratch``, both over (1, 1) to (nx-2, ny-2), to match.  Its side ring
    nodes get 2 curr - prev (w is zero there), so a zero ring stays zero.  The
    textbook operation order is kept, so results are bit-identical to it.
    """
    if hi < lo:
        return
    ny = curr.shape[1]
    a, b = lo * ny + 1, (hi + 1) * ny - 1
    o, c = out.reshape(-1)[a:b], curr.reshape(-1)
    w, scratch = w[a - ny - 1:b - ny - 1], scratch[a - ny - 1:b - ny - 1]
    np.add(c[a + ny:b + ny], c[a - ny:b - ny], out=o)
    o += c[a + 1:b + 1]
    o += c[a - 1:b - 1]
    o -= np.multiply(c[a:b], 4.0, out=scratch)
    o *= w
    np.multiply(c[a:b], 2.0, out=scratch)
    scratch -= prev.reshape(-1)[a:b]
    np.add(scratch, o, out=o)


def _march(prev, curr, w, steps, where, pin=None, record=None, rows=None, work=None):
    """The one leapfrog time loop: from C-ordered levels (prev, curr), one level
    per index in ``steps`` in three rotating buffers, without allocating per step.
    ``pin(k, nxt)`` edits each new level in place before its finiteness
    check; ``record(k, curr, prev)`` sees each accepted level.  ``rows(k)``,
    a ``_band``, gives the rows (lo, hi) that step k computes and checks
    (default: every interior row); the others keep what their buffer held.
    ``work`` = (nxt, scratch, finite) lends the third level (shaped like curr,
    zero outer ring) and the kernel's scratch and check buffers, else they are
    allocated.  Returns the last two levels.
    """
    nxt, scratch, finite = work or (
        np.zeros(curr.shape), np.empty_like(w), np.empty(curr.shape, dtype=bool))
    top = curr.shape[0] - 2
    for k in steps:
        lo, hi = rows(k) if rows else (1, top)
        _leap(nxt, prev, curr, w, scratch, lo, hi)
        if pin is not None:
            pin(k, nxt)
        if not np.isfinite(nxt[lo:hi + 1], out=finite[lo:hi + 1]).all():
            raise InstabilityError(f"non-finite values appeared at {where} {k}")
        prev, curr, nxt = curr, nxt, prev
        if record is not None:
            record(k, curr, prev)
    return prev, curr


def _band(levels, n, dst=None, src=None):
    """``_march``'s ``rows`` for steps 2..n: the discrete light cone of the data.

    Data moves one row per step, so level k is zero outside the nonzero rows of
    ``levels`` (levels 0 and 1) and of ``src`` = (lo, hi), rows pinned to data at
    every level, widened by k-1; only rows within n-k of ``dst`` = (lo, hi), the
    rows read after the solve, can still reach them.  Turns -0.0 in ``levels``
    into the +0.0 a step writes: rows outside the band keep what a buffer held.
    """
    for a in levels:
        a += 0.0
    nz = [*np.flatnonzero(levels[0].any(axis=1) | levels[1].any(axis=1)), *(src or ())]
    if not nz:
        return lambda k: (1, 0)
    lo, hi, top = min(nz), max(nz), levels[0].shape[0] - 2
    d0, d1 = dst or (1 - n, top + n)        # no dst: every row is read
    return lambda k: (max(lo - k + 1, d0 - n + k, 1), min(hi + k - 1, d1 + n - k, top))


def _taylor_second_level(u0, ut0, c_sq, h, dt):
    """u^1 = u^0 + dt u_t^0 + dt^2/2 c^2 Lap u^0, zero ring."""
    u1 = np.zeros_like(u0)
    lam = 0.5 * dt * dt / (h * h)
    u1[1:-1, 1:-1] = u0[1:-1, 1:-1] + dt * ut0[1:-1, 1:-1] + lam * c_sq[1:-1, 1:-1] * _lap_sum(u0)
    return u1


def _seed(u0, ut0, c_sq, h, dt, levels, pin=None, record=None):
    """Levels ``levels[0]``, a copy of u0 on a zero outer ring, and ``levels[1]``,
    its Taylor step with ut0: both pinned, the second recorded."""
    prev = u0.copy()
    prev[[0, -1], :] = prev[:, [0, -1]] = 0.0
    if pin is not None:
        pin(levels[0], prev)
    curr = _taylor_second_level(prev, ut0, c_sq, h, dt)
    if pin is not None:
        pin(levels[1], curr)
    if record is not None:
        record(levels[1], curr, prev)
    return prev, curr


def _solve(u0, ut0, c_sq, h, dt, levels, where, pin=None, record=None, band=None):
    """The one seeded solve: time levels ``levels`` (a range) from Cauchy data (u0, ut0).

    ``_seed`` gives the first two levels; ``_march`` builds the rest with the
    same ``pin`` and ``record``, over ``_band``'s light cone when ``band`` =
    (dst, src) is given.  Returns the last two levels.
    """
    prev, curr = _seed(u0, ut0, c_sq, h, dt, levels, pin, record)
    rows = None if band is None else _band((prev, curr), len(levels) - 1, *band)
    return _march(prev, curr, _weights(c_sq, h, dt), levels[2:], where, pin, record, rows)


def _phases(levels, box, n, src_speed, dst_speed):
    """The trace-only ``forward``'s schedule: steps 2..n cut into up to ``_PHASES``
    runs (steps, box), each box (r0, r1, c0, c1) of the levels' arrays, ring included.

    By step k1 the data have moved at most ``src_speed`` * k1 nodes (speeds in
    nodes per step) from the nonzero nodes of ``levels`` (levels 0 and 1);
    from step k0 only nodes within ``dst_speed`` * (n - k0) of ``box`` =
    (i0, i1, j0, j1), Ω's box, can still reach Ω by step n.  A run over
    k0..k1 steps Ω's box and one ring united with the overlap of the two cones,
    each grown by ``_CONE_SLACK`` nodes, clipped to the arrays.
    """
    nz = (levels[0] != 0.0) | (levels[1] != 0.0)
    src = [np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))]
    ks = [2 + (n - 1) * p // _PHASES for p in range(_PHASES + 1)]
    schedule = []
    for k0, k1 in zip(ks, ks[1:]):
        if k0 == k1:
            continue
        s = math.ceil(src_speed * (k1 - 1)) + _CONE_SLACK
        d = math.ceil(dst_speed * (n - k0)) + _CONE_SLACK
        out = []
        for (lo, hi), nodes, size in zip((box[:2], box[2:]), src, nz.shape):
            a, b = lo - 1, hi + 1
            if nodes.size:
                a, b = min(a, max(nodes[0] - s, lo - d)), max(b, min(nodes[-1] + s, hi + d))
            out += [max(a, 0), min(b, size - 1)]
        schedule.append((range(k0, k1), tuple(out)))
    return schedule


def _paste(dst, dst_at, src, src_at):
    """Zero ``dst`` and copy ``src`` into its interior where they overlap; ``*_at``
    are the arrays' origins in one frame."""
    dst.fill(0.0)
    lo = [max(d + 1, s) for d, s in zip(dst_at, src_at)]
    hi = [min(d + m - 1, s + k) for d, m, s, k in zip(dst_at, dst.shape, src_at, src.shape)]
    if lo[0] < hi[0] and lo[1] < hi[1]:
        dst[lo[0] - dst_at[0]:hi[0] - dst_at[0], lo[1] - dst_at[1]:hi[1] - dst_at[1]] = \
            src[lo[0] - src_at[0]:hi[0] - src_at[0], lo[1] - src_at[1]:hi[1] - src_at[1]]


def _march_boxes(levels, c_sq, h, dt, schedule, record_at):
    """``_march`` over each (steps, box) of ``schedule`` on contiguous copies of
    the levels cut to the box (r0, r1, c0, c1) of their arrays, ring included:
    nodes new to a box start at zero and its ring stays zero.  The buffers are
    sized once, to the largest box; ``record_at(r0, c0)`` gives each run's
    ``record``.
    """
    boxes = [(r1 - r0 + 1, c1 - c0 + 1) for _, (r0, r1, c0, c1) in schedule]
    flat = np.empty((5, max((a * b for a, b in boxes), default=0)))   # 3 levels, w, scratch
    finite = np.empty(flat.shape[1], dtype=bool)
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
        work = (nxt, flat[4, :w.size], finite[:size].reshape(shape))
        prev, curr = _march(p, c, w, steps, "step", record=record_at(r0, c0), work=work)
        m, at = len(steps) % 3, (r0, c0)
        slots = slots[m:] + slots[:m]           # _march rotates its levels once a step


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
    if not np.allclose(boundary.points, omega.boundary_coords, atol=1e-9 * omega.grid.h):
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
    the consistent two-level formula).  Returns the state at t = T.
    """
    if f.grid != m.grid:
        raise ConfigurationError("state and medium live on different grids")
    if abs(cfg.T - T) > 1e-9 * max(T, 1.0):
        raise ConfigurationError(f"solver config covers T = {cfg.T:.6g}, requested {T:.6g}")
    if sample_every < 1:
        raise ConfigurationError(f"sample_every must be at least 1, got {sample_every}")
    g, dt = m.grid, cfg.dt
    _check_cfl(dt, g.h, m.c_max, cfg.cfl)

    def pin(k, arr):
        arr[pin_zero.boundary_nodes] = 0.0

    def sample(k, curr, prev):
        if k % sample_every == 0:
            ut = _consistent_ut(curr, prev, m.c_sq, g.h, dt)
            on_sample(k, WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut)))

    prev, curr = _solve(f.u.data, f.ut.data, m.c_sq, g.h, dt, range(cfg.n_steps + 1), "step",
                        None if pin_zero is None else pin,
                        None if on_sample is None else sample, (None, None))
    ut = _consistent_ut(curr, prev, m.c_sq, g.h, dt)
    return WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut))


def forward(f: WaveState, m: Medium, omega: Region, T: float, cfg: SolverConfig,
            *, return_final: bool = False, on_step=None):
    """Evolve Cauchy data f and record u on the rectangle boundary over [0, T].

    Returns the boundary trace; with ``return_final`` also the state at t = T
    (velocity via the consistent two-level formula).  ``on_step(k, n_steps)``
    is called after each step when given.

    The box must pad the rectangle by c_out*T/2 + 16h (see the module notes):
    the trace and the final state on the closed rectangle then equal the
    unbounded medium's; outside it, the final state holds the ring's echoes.
    With ``return_final`` the whole box is stepped, over the rows of the
    discrete light cone, bit for bit; a trace alone steps, in phases, boxes
    of the source's and the rectangle's physical cones and equals the whole
    box's trace to round-off.
    """
    i0, i1, j0, j1 = omega.box
    if f.grid != m.grid or omega.grid != m.grid:
        raise ConfigurationError("state, medium and region must share one grid")
    if abs(cfg.T - T) > 1e-9 * max(T, 1.0):
        raise ConfigurationError(f"solver config covers T = {cfg.T:.6g}, requested {T:.6g}")
    g, h, dt, n = m.grid, m.grid.h, cfg.dt, cfg.n_steps
    _check_cfl(dt, h, m.c_max, cfg.cfl)
    _support_inside(f, omega)
    c_out = float(m.c_field[~omega.interior_mask].max())
    r, (bi, bj) = _check_box_margin(omega, c_out, T), omega.boundary_nodes
    values = np.empty((n + 1, bi.size))
    values[0] = f.u.data[bi, bj]

    def record_at(a, b):        # the hook for levels whose arrays start at node (a, b)
        at = (bi - a, bj - b)

        def record(k, curr, _prev):
            values[k] = curr[at]
            if on_step is not None:
                on_step(k, n)
        return record

    if return_final:        # exact on the whole box: the rows of the discrete light cone
        prev, curr = _solve(f.u.data, f.ut.data, m.c_sq, h, dt, range(n + 1), "step",
                            record=record_at(0, 0), band=(None, None))
    else:                   # seeded on Ω ± r, then stepped on the boxes of the physical cones
        a, b = max(i0 - r, 0), max(j0 - r, 0)
        win = np.s_[a:i1 + r + 1, b:j1 + r + 1]
        levels = _seed(f.u.data[win], f.ut.data[win], m.c_sq[win], h, dt, range(2),
                       record=record_at(a, b))
        schedule = _phases(levels, (i0 - a, i1 - a, j0 - b, j1 - b), n,
                           m.c_max * dt / h, c_out * dt / h)
        _march_boxes(levels, m.c_sq[win], h, dt, schedule,
                     lambda r0, c0: record_at(a + r0, b + c0))

    trace = BoundaryTrace(points=omega.boundary_coords, dt=dt, values=values)
    if not return_final:
        return trace
    ut = _consistent_ut(curr, prev, m.c_sq, h, dt)
    final = WaveState(ScalarField(g, curr.copy()), ScalarField(g, ut))
    return trace, final


def solve_backward(boundary: BoundaryTrace, cauchy_at_T: WaveState, m: Medium,
                   omega: Region) -> WaveState:
    """Solve the mixed problem on [0,T] x omega backwards from t = T.

    Interior nodes follow the leapfrog recurrence; rectangle-boundary nodes
    are pinned to the recorded trace at every level.  Returns [v(0), v_t(0)].
    """
    i0, i1, j0, j1 = omega.box
    if cauchy_at_T.grid != m.grid or omega.grid != m.grid:
        raise ConfigurationError("state, medium and region must share one grid")
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
    c_sq, wi, wj = m.c_sq[win], bi - i0, bj - j0

    def pin(k, arr):
        arr[wi, wj] = boundary.values[k]

    # levels n down to 0; a Taylor step with -u_t seeds level n - 1
    v1, v0 = _solve(cauchy_at_T.u.data[win], -cauchy_at_T.ut.data[win], c_sq, g.h, dt,
                    range(n, -1, -1), "backward step", pin)

    # invert the forward Taylor seed for v_t(0)
    u, ut = np.zeros(g.shape), np.zeros(g.shape)
    u[win] = v0
    ut[win] = (v1 - v0) / dt
    ut[i0 + 1:i1, j0 + 1:j1] -= 0.5 * (dt / (g.h * g.h)) * c_sq[1:-1, 1:-1] * _lap_sum(v0)
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

    u0 = np.zeros(g.shape)
    pin(0, u0)
    record(0, u0, None)
    # data enters on rows i0..i1 at every level; the normal quotients read i0-1..i1+1
    _solve(u0, np.zeros(g.shape), np.ones(g.shape), g.h, dt, range(boundary.n_steps + 1),
           "exterior step", pin, record, ((i0 - 1, i1 + 1), (i0, i1)))
    return BoundaryTrace(points=omega.boundary_coords, dt=dt, values=normal)
