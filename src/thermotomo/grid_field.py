"""Uniform 2-D grids, scalar fields, discrete energies, and the Dirichlet machinery.

Fields are stored as float64 arrays of shape ``(nx, ny)`` indexed ``[i, j]``
with node ``(i, j)`` at physical position ``(ox + i*h, oy + j*h)``.  Row-major
serialization therefore walks ``j`` fastest.  Fields are treated as immutable
values: operations return new fields and never mutate their inputs.

The Dirichlet norm used throughout is the forward-difference sum over all
grid edges whose two endpoints both belong to the region (closure).  With
that convention the 5-point harmonic extension is the exact orthogonal
projector onto boundary data, which the projection identities below rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, ConvergenceError

if TYPE_CHECKING:
    from .medium import Medium

DEFAULT_HARMONIC_TOL = 1e-10
_MAX_LENGTH = np.iinfo(np.intp).max // 8    # the longest float64 array numpy can index


@dataclass(frozen=True)
class Grid:
    """Uniform isotropic grid: nx-by-ny nodes, spacing h, lower-left corner at origin."""

    nx: int
    ny: int
    h: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "nx", _count(self.nx, "grid nx", 3))
        object.__setattr__(self, "ny", _count(self.ny, "grid ny", 3))
        if self.nx * self.ny > _MAX_LENGTH:
            raise ConfigurationError(f"grid of {self.nx}x{self.ny} nodes is too large to index")
        if not 0 < self.h < np.inf:
            raise ConfigurationError(f"grid spacing must be positive and finite, got {self.h}")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        if not np.isfinite(self.origin).all():
            raise ConfigurationError(f"grid origin must be finite, got {self.origin}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def xs(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the node lattice."""
        ox, oy = self.origin
        return (ox, ox + (self.nx - 1) * self.h, oy, oy + (self.ny - 1) * self.h)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def node_position(self, i: int, j: int) -> tuple[float, float]:
        return (self.origin[0] + i * self.h, self.origin[1] + j * self.h)

    def contains_point(self, x: float, y: float) -> bool:
        xmin, xmax, ymin, ymax = self.bounds
        return xmin <= x <= xmax and ymin <= y <= ymax

    def nearest_node(self, x: float, y: float) -> tuple[int, int]:
        i, j = _node_indices(self, [x - self.origin[0], y - self.origin[1]], round,
                             f"point {(x, y)}")
        return (min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1))


def _count(value, name: str, least: int = 1) -> int:
    """A Python or numpy integer (not a bool) of at least ``least``, as an int: the
    one check of every step, term, iteration, sample, seed, index and size count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(value)


def _check_harmonic_tol(tol) -> None:
    """A harmonic tolerance is finite and at least eps, below which no residual certifies."""
    if not np.finfo(float).eps <= tol < np.inf:
        raise ConfigurationError(f"harmonic_tol must be finite and at least "
                                 f"{np.finfo(float).eps:.3g}, got {tol}")


def _node_indices(g: Grid, offsets, snap, what: str) -> list[int]:
    """``snap`` of each offset from g's origin over h, as ints, if all are finite
    (a NaN or inf coordinate is not, nor one whose index overflows)."""
    idx = [float(v) / g.h for v in offsets]
    if not np.isfinite(idx).all():
        raise ConfigurationError(f"{what} must be finite and map to finite node indices")
    return [int(snap(v)) for v in idx]


def _one_grid(*objs) -> Grid:
    """The one grid of bare ``Grid``s and of fields, states, regions and media
    (None skipped); every function that combines them asks here first."""
    grids = [o if isinstance(o, Grid) else o.grid for o in objs if o is not None]
    for g in grids[1:]:
        if g != grids[0]:
            raise ConfigurationError(f"inputs live on different grids: {grids[0]} and {g}")
    return grids[0]


@dataclass(eq=False)
class ScalarField:
    """Real-valued function sampled on a grid."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != self.grid.shape:
            raise ConfigurationError(
                f"field data shape {self.data.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        xx, yy = grid.meshgrid()
        return cls(grid, np.asarray(fn(xx, yy), dtype=np.float64))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.data.copy())

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(_one_grid(self, other), self.data + other.data)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(_one_grid(self, other), self.data - other.data)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.data * float(scalar))

    __rmul__ = __mul__


@dataclass(eq=False)
class WaveState:
    """Pair [u, u_t] at one time level."""

    u: ScalarField
    ut: ScalarField

    def __post_init__(self):
        _one_grid(self.u, self.ut)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @classmethod
    def zeros(cls, grid: Grid) -> "WaveState":
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid))


class Region:
    """Node subset of a grid: an index-aligned rectangle or a rasterized disk.

    Exposes disjoint interior/boundary node sets.  For disks the boundary is
    the set of nodes within h/2 of the circle and the interior the nodes at
    radius < R - h/2, so every neighbor of an interior node lies in the
    region closure.  Boundary nodes carry a deterministic ordering (perimeter
    walk for rectangles, increasing angle for disks) used by boundary traces
    and harmonic extensions.
    """

    def __init__(self, grid: Grid, kind: str, interior_mask: np.ndarray,
                 boundary_nodes: tuple[np.ndarray, np.ndarray], params: dict):
        self.grid = grid
        self.kind = kind
        self.params = params
        self.interior_mask = interior_mask
        self.boundary_nodes = boundary_nodes
        self.boundary_mask = np.zeros(grid.shape, dtype=bool)
        self.boundary_mask[boundary_nodes] = True
        if not self.boundary_mask.any():
            raise ConfigurationError("region has an empty boundary node set")
        if not self.interior_mask.any():
            raise ConfigurationError("region has an empty interior node set")
        if (self.interior_mask & self.boundary_mask).any():
            raise ConfigurationError("region interior and boundary overlap")
        self.mask = m = self.interior_mask | self.boundary_mask
        if m[0].any() or m[-1].any() or m[:, 0].any() or m[:, -1].any():
            raise ConfigurationError("region touches the outermost grid ring")
        ii, jj = np.nonzero(self.mask)
        # the closure's bounding box, which holds every node and edge of the region
        self._window = (slice(ii.min(), ii.max() + 1), slice(jj.min(), jj.max() + 1))
        self._harmonic_system = None  # block-row LU, factored lazily, cached per region

    # -- constructors ------------------------------------------------------

    @classmethod
    def rectangle(cls, grid: Grid, i0: int, i1: int, j0: int, j1: int) -> "Region":
        """Index-aligned rectangle spanning nodes [i0..i1] x [j0..j1] inclusive."""
        i0, i1, j0, j1 = (_count(v, "rectangle node index", 0) for v in (i0, i1, j0, j1))
        if not (0 < i0 < i1 < grid.nx - 1 and 0 < j0 < j1 < grid.ny - 1):
            raise ConfigurationError(
                f"rectangle [{i0}..{i1}]x[{j0}..{j1}] must sit strictly inside the grid"
            )
        if i1 - i0 < 2 or j1 - j0 < 2:
            raise ConfigurationError("rectangle needs at least one interior node per axis")
        interior = np.zeros(grid.shape, dtype=bool)
        interior[i0 + 1:i1, j0 + 1:j1] = True
        # counterclockwise perimeter walk starting at (i0, j0), no duplicates:
        # the bottom (j = j0), right (i = i1), top (j = j1) and left (i = i0) edges
        bottom, top = np.arange(i0, i1 + 1), np.arange(i1 - 1, i0 - 1, -1)
        right, left = np.arange(j0 + 1, j1 + 1), np.arange(j1 - 1, j0, -1)
        nodes = (np.concatenate((bottom, np.full(right.size, i1), top, np.full(left.size, i0))),
                 np.concatenate((np.full(bottom.size, j0), right, np.full(top.size, j1), left)))
        params = {"i0": i0, "i1": i1, "j0": j0, "j1": j1}
        return cls(grid, "rectangle", interior, nodes, params)

    @classmethod
    def rectangle_from_physical(cls, grid: Grid, xmin: float, xmax: float,
                                ymin: float, ymax: float) -> "Region":
        """Largest index rectangle contained in the physical box (snapped inward)."""
        ox, oy = grid.origin
        what = f"rectangle bounds {(xmin, xmax, ymin, ymax)}"
        i0, j0 = _node_indices(grid, [xmin - ox, ymin - oy], lambda v: np.ceil(v - 1e-9), what)
        i1, j1 = _node_indices(grid, [xmax - ox, ymax - oy], lambda v: np.floor(v + 1e-9), what)
        return cls.rectangle(grid, i0, i1, j0, j1)

    @classmethod
    def disk(cls, grid: Grid, center: tuple[float, float], radius: float) -> "Region":
        """Rasterized disk: boundary nodes within h/2 of the circle, interior strictly inside."""
        if radius <= grid.h:
            raise ConfigurationError(f"disk radius {radius} too small for spacing {grid.h}")
        cx, cy = center
        xmin, xmax, ymin, ymax = grid.bounds
        if not (xmin < cx - radius and cx + radius < xmax and ymin < cy - radius and cy + radius < ymax):
            raise ConfigurationError("disk must sit strictly inside the grid")
        xx, yy = grid.meshgrid()
        r = np.hypot(xx - cx, yy - cy)
        boundary = np.abs(r - radius) <= grid.h / 2
        interior = r < radius - grid.h / 2
        ii, jj = np.nonzero(boundary)
        ang = np.arctan2(grid.ys[jj] - cy, grid.xs[ii] - cx)
        order = np.lexsort((r[ii, jj], ang))
        nodes = (ii[order], jj[order])
        params = {"center": (float(cx), float(cy)), "radius": float(radius)}
        return cls(grid, "disk", interior, nodes, params)

    # -- geometry helpers ----------------------------------------------------

    @property
    def box(self) -> tuple[int, int, int, int]:
        """(i0, i1, j0, j1) of a rectangle; a disk raises ConfigurationError."""
        if self.kind != "rectangle":
            raise ConfigurationError("region must be a grid-aligned rectangle, not a disk")
        p = self.params
        return p["i0"], p["i1"], p["j0"], p["j1"]

    @property
    def boundary_coords(self) -> np.ndarray:
        """(n_boundary, 2) physical coordinates in boundary-node order."""
        ii, jj = self.boundary_nodes
        return np.column_stack((self.grid.xs[ii], self.grid.ys[jj]))

    def boundary_values(self, s: ScalarField) -> np.ndarray:
        _one_grid(self, s)
        return s.data[self.boundary_nodes]

    # -- harmonic system -----------------------------------------------------

    def _assemble_harmonic(self):
        """Block-row LU of the 5-point system, on the closure's box grown by a node (cached).

        Grid row k of interior nodes must be one run, on consecutive rows; it
        couples by -1 to the same j in rows k +- 1.  Block k holds, in flat
        window indices, its run, inv(S_k) for S_k = tridiag(-1, 4, -1) -
        inv(S_{k-1}) on the j-overlap, its overlap with row k+1 and that
        overlap in row k+1, and the columns of inv(S_k) on the overlap.
        """
        if self._harmonic_system is not None:
            return self._harmonic_system
        win = tuple(slice(w.start - 1, w.stop + 1) for w in self._window)
        inner, closed = self.interior_mask[win], self.mask[win]
        covered = closed[:-2, 1:-1] & closed[2:, 1:-1] & closed[1:-1, :-2] & closed[1:-1, 2:]
        if (inner[1:-1, 1:-1] & ~covered).any():
            raise ConfigurationError("interior node has a neighbor outside the region closure")
        rows, w = np.flatnonzero(inner.any(axis=1)), inner.shape[1]
        blocks, prev = [], None
        for i in range(rows[0], rows[-1] + 1):
            cols = np.flatnonzero(inner[i])
            if cols.size == 0 or cols[-1] + 1 - cols[0] != cols.size:
                raise ConfigurationError("interior must be one run per row on consecutive rows")
            a, b = i * w + int(cols[0]), i * w + int(cols[-1]) + 1
            s = 4.0 * np.eye(b - a) - np.eye(b - a, k=1) - np.eye(b - a, k=-1)
            if prev is not None:
                pa, pb, pinv = prev
                lo, hi = max(a - w, pa), max(a - w, pa, min(b - w, pb))
                here, there = slice(lo + w - a, hi + w - a), slice(lo - pa, hi - pa)
                s[here, here] -= pinv[there, there]
                blocks.append((slice(pa, pb), pinv, slice(lo, hi), slice(lo + w, hi + w),
                               pinv[:, there].copy()))
            prev = (a, b, np.linalg.inv(s))
        blocks.append((slice(prev[0], prev[1]), prev[2], slice(0, 0), slice(0, 0), None))
        nodes = (self.boundary_nodes[0] - win[0].start) * w + self.boundary_nodes[1] - win[1].start
        self._harmonic_system = (win, nodes, inner, blocks)
        return self._harmonic_system


# -- discrete operators -------------------------------------------------------


def dirichlet_energy(s: ScalarField, r: Region) -> float:
    """Squared Dirichlet norm over r: sum of forward-difference squares on region edges.

    An edge contributes when both endpoints lie in the region closure; with
    the unit 2-D volume element the contribution is just the difference
    squared ((d/h)^2 * h^2).  Computed on r's bounding box, which takes the
    same differences in the same order as the whole grid would.
    """
    _one_grid(r, s)
    m, d = r.mask[r._window], s.data[r._window]
    ex = m[:-1, :] & m[1:, :]
    ey = m[:, :-1] & m[:, 1:]
    dx = (d[1:, :] - d[:-1, :])[ex]
    dy = (d[:, 1:] - d[:, :-1])[ey]
    return float(np.dot(dx, dx) + np.dot(dy, dy))


def hd_norm(s: ScalarField, r: Region) -> float:
    return float(np.sqrt(dirichlet_energy(s, r)))


def l2_norm(s: ScalarField, r: Region) -> float:
    _one_grid(r, s)
    v = s.data[r.mask]
    return float(np.sqrt(np.dot(v, v) * r.grid.h ** 2))


def energy(w: WaveState, r: Region, m: "Medium") -> float:
    """Wave energy over r: Dirichlet part of u plus the c^-2-weighted velocity part."""
    _one_grid(w, r, m)
    ut = w.ut.data[r.mask]
    csq = m.c_sq[r.mask]
    kinetic = float(np.dot(ut / csq, ut) * r.grid.h ** 2)
    return dirichlet_energy(w.u, r) + kinetic


def harmonic_extension(boundary_values: np.ndarray, r: Region,
                       tol: float = DEFAULT_HARMONIC_TOL) -> ScalarField:
    """Discrete harmonic field on r matching the given boundary node values.

    The right-hand side is the 5-point sum of the boundary values; one forward
    and one backward sweep of the region's block-row LU (factored once per
    region) solve for the interior, on r's window.  Checks that the max-norm
    residual of the stencil sum (h^2 times the discrete Laplacian) is at most
    tol * max(1, max|boundary_values|).  Zero outside the region.
    """
    _check_harmonic_tol(tol)
    g = np.asarray(boundary_values, dtype=np.float64)
    n = r.boundary_nodes[0].size
    if g.shape != (n,):
        raise ConfigurationError(f"expected {n} boundary values, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ConfigurationError("boundary values must be finite")
    win, nodes, inner, blocks = r._assemble_harmonic()
    u, rhs = np.zeros(inner.size), np.zeros(inner.size)
    u[nodes] = g
    v = u.reshape(inner.shape)
    rhs.reshape(inner.shape)[1:-1, 1:-1] = v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]
    for run, sinv, overlap, below, _ in blocks:
        np.dot(sinv, rhs[run], out=u[run])
        rhs[below] += u[overlap]
    for run, _, _, below, cols in reversed(blocks[:-1]):
        u[run] += cols @ u[below]
    stencil = 4.0 * v[1:-1, 1:-1] - v[:-2, 1:-1] - v[2:, 1:-1] - v[1:-1, :-2] - v[1:-1, 2:]
    target = tol * max(1.0, float(np.max(np.abs(g))))
    resid = float(np.max(np.abs(stencil[inner[1:-1, 1:-1]])))
    if resid > target:
        raise ConvergenceError(f"harmonic solve residual exceeds {target:.3e}", residual=resid)
    out = np.zeros(r.grid.shape)
    out[win] = v
    return ScalarField(r.grid, out)


def project_HD(s: ScalarField, r: Region, tol: float = DEFAULT_HARMONIC_TOL) -> ScalarField:
    """Dirichlet projection on r: subtract the harmonic extension of the boundary trace.

    The result has exactly zero boundary trace on r and vanishes outside r.
    """
    phi = harmonic_extension(r.boundary_values(s), r, tol)     # checks the grids first
    out = np.zeros(r.grid.shape)
    out[r.mask] = s.data[r.mask] - phi.data[r.mask]
    out[r.boundary_nodes] = 0.0
    return ScalarField(r.grid, out)


# -- phantoms ------------------------------------------------------------------


def _support_cutoff(center: tuple[float, float], sigma: float, support: Region) -> float:
    """Distance from a bump center to the support boundary; must cover 3 sigma."""
    cx, cy = center
    if support.kind == "disk":
        scx, scy = support.params["center"]
        rad = support.params["radius"]
        cut = rad - float(np.hypot(cx - scx, cy - scy))
    else:
        g, (i0, i1, j0, j1) = support.grid, support.box
        cut = min(cx - g.xs[i0], g.xs[i1] - cx, cy - g.ys[j0], g.ys[j1] - cy)
    if cut < 3.0 * sigma:
        raise ConfigurationError(
            f"bump at {center} with sigma {sigma} escapes the support region "
            f"(3*sigma = {3 * sigma:.4g} > clearance {cut:.4g})")
    if not np.isfinite((cut / sigma) * (cut / sigma)):
        raise ConfigurationError(
            f"bump sigma {sigma} is too small: the Gaussian's exponent at the "
            f"clearance {cut:.4g} is not finite")
    return cut


def make_phantom(kind: str, params: dict, g: Grid, support: Region) -> ScalarField:
    """Nonnegative smooth source supported in the given region.

    ``gaussian_bump`` takes center and sigma; ``sum_of_bumps`` a list of
    (center, sigma) pairs.  Each bump is a Gaussian truncated to exact zero
    at its clearance radius and renormalized to peak 1, so the field is
    identically zero outside the support.
    """
    _one_grid(g, support)
    if kind == "gaussian_bump":
        bumps = [(tuple(params["center"]), float(params["sigma"]))]
    elif kind == "sum_of_bumps":
        bumps = [(tuple(c), float(s)) for c, s in params["bumps"]]
    else:
        raise ConfigurationError(f"unknown phantom kind {kind!r}")
    xx, yy = g.meshgrid()
    data = np.zeros(g.shape)
    for center, sigma in bumps:
        if not (0 < sigma < np.inf and np.isfinite(center).all()):
            raise ConfigurationError(
                f"bump needs a finite center and a positive finite sigma, got {center}, {sigma}")
        cut = _support_cutoff(center, sigma, support)
        r2 = (xx - center[0]) ** 2 + (yy - center[1]) ** 2
        tail = np.exp(-0.5 * (cut / sigma) ** 2)
        bump = (np.exp(-0.5 * r2 / sigma ** 2) - tail) / (1.0 - tail)
        np.maximum(bump, 0.0, out=bump)
        bump[r2 >= cut * cut] = 0.0
        data += bump
    data[~support.mask] = 0.0
    return ScalarField(g, data)
