"""Time-domain solver for (d_tt - c^2 Lap) u = 0 and the boundary operators built on it.

The stepper is the classic leapfrog scheme on the 5-point Laplacian with
homogeneous Dirichlet data on the outermost ring of the computational box.
``forward`` requires the box to pad the measurement rectangle by at least
c_out*T/2 + 16h, c_out the largest nodal speed outside the rectangle's
interior: a wave reflected by the ring crosses the margin twice, which takes
longer than T, and the 16 nodes cover the scheme's dispersive precursor.  The
trace, and the state at T on the closed rectangle, are then the unbounded
medium's to round-off, so a trace-only ``forward`` steps only the rectangle
plus ceil(c_out*T/2h) + 16 nodes, copied once per solve.  Every solve is
``_solve`` -> ``_march``: ``_solve`` pins level 0, seeds level 1 by the
Taylor step (with -u_t for the backward solve) and hands both to the one time
loop ``_march``, where three preallocated levels rotate and the kernel
``_leap`` writes each new level in place with one scratch array and weights
(dt/h)^2 c^2 computed once per solve, so a step allocates nothing.  Its
operation order is the textbook one, bit for bit; each solve adds only its
geometry, the nodes it pins and what it records.

The padded box is mostly empty, so ``forward``, ``evolve`` and the exterior
solve step only the discrete light cone (``_band``): the scheme moves data
one row per step, so step k of n computes the rows within k-1 of the rows
where levels 0 and 1 are nonzero and, when only some rows are read after the
solve, within n-k of those rows.  The other rows are exact zeros or never
read, so every output stays bit-identical to stepping the whole box.  Only
rows are banded: a row range is one contiguous flat range for the kernel,
while a band of columns would need strided 2-D windows, which numpy steps 3
to 6 times slower per node.

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
        n = max(1, int(math.ceil(T / dt_max - 1e-12)))
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


def _weights(c_sq, h, dt):
    """(dt/h)^2 c^2 over ``_leap``'s flat node range, zero on its side ring nodes."""
    w = (dt * dt) / (h * h) * c_sq
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


def _march(prev, curr, w, steps, where, pin=None, record=None, rows=None):
    """The one leapfrog time loop: from C-ordered levels (prev, curr), one level
    per index in ``steps`` in three rotating buffers, without allocating per step.
    ``pin(k, nxt)`` edits each new level in place before its finiteness
    check; ``record(k, curr, prev)`` sees each accepted level.  ``rows(k)``,
    a ``_band``, gives the rows (lo, hi) that step k computes and checks
    (default: every interior row); the others keep what their buffer held.
    """
    nxt, scratch = np.zeros(curr.shape), np.empty_like(w)
    finite, top = np.empty(curr.shape, dtype=bool), curr.shape[0] - 2
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


def _solve(u0, ut0, c_sq, h, dt, levels, where, pin=None, record=None, band=None):
    """The one seeded solve: time levels ``levels`` (a range) from Cauchy data (u0, ut0).

    Level ``levels[0]`` is a copy of u0 on a zero outer ring, pinned; level
    ``levels[1]`` is its Taylor step, pinned and recorded; ``_march`` builds
    the rest with the same ``pin`` and ``record``, over ``_band``'s light cone
    when ``band`` = (dst, src) is given.  Returns the last two levels.
    """
    prev = u0.copy()
    prev[[0, -1], :] = prev[:, [0, -1]] = 0.0
    if pin is not None:
        pin(levels[0], prev)
    curr = _taylor_second_level(prev, ut0, c_sq, h, dt)
    if pin is not None:
        pin(levels[1], curr)
    if record is not None:
        record(levels[1], curr, prev)
    rows = None if band is None else _band((prev, curr), len(levels) - 1, *band)
    return _march(prev, curr, _weights(c_sq, h, dt), levels[2:], where, pin, record, rows)


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
    nodes r = ceil(c_out*T/2h) + _SLACK around it that a trace-only solve steps."""
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
    """
    i0, i1, j0, j1 = omega.box
    if f.grid != m.grid or omega.grid != m.grid:
        raise ConfigurationError("state, medium and region must share one grid")
    if abs(cfg.T - T) > 1e-9 * max(T, 1.0):
        raise ConfigurationError(f"solver config covers T = {cfg.T:.6g}, requested {T:.6g}")
    g, dt = m.grid, cfg.dt
    _check_cfl(dt, g.h, m.c_max, cfg.cfl)
    _support_inside(f, omega)
    r = _check_box_margin(omega, float(m.c_field[~omega.interior_mask].max()), T)

    if return_final:        # the final state is returned on the whole box
        r = max(g.nx, g.ny)
    a, b = max(i0 - r, 0), max(j0 - r, 0)
    win = np.s_[a:i1 + r + 1, b:j1 + r + 1]
    c_sq, (bi, bj) = np.ascontiguousarray(m.c_sq[win]), omega.boundary_nodes
    values = np.empty((cfg.n_steps + 1, bi.size))
    values[0] = f.u.data[bi, bj]
    bi, bj = bi - a, bj - b

    def record(k, curr, _prev):
        values[k] = curr[bi, bj]
        if on_step is not None:
            on_step(k, cfg.n_steps)

    # the final state must be exact everywhere, the trace only on Ω's rows
    dst = None if return_final else (i0 - a, i1 - a)
    prev, curr = _solve(f.u.data[win], f.ut.data[win], c_sq, g.h, dt, range(cfg.n_steps + 1),
                        "step", record=record, band=(dst, None))

    trace = BoundaryTrace(points=omega.boundary_coords, dt=dt, values=values)
    if not return_final:
        return trace
    ut = _consistent_ut(curr, prev, m.c_sq, g.h, dt)
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
