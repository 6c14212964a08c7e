"""Piecewise-constant sound-speed maps over nested concentric disks.

The background speed is 1 outside the outermost disk.  Disks are centered at
the physical point (0, 0); nesting is therefore equivalent to strictly
decreasing radii.  Each circle is an interface carrying the speed limits from
its two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid_field import Grid

BACKGROUND_SPEED = 1.0


@dataclass(frozen=True)
class InterfaceDescriptor:
    """One circular interface: radius plus the speed limits from inside and outside."""

    radius: float
    c_int: float
    c_ext: float

    def __post_init__(self):
        if self.c_int <= 0 or self.c_ext <= 0:
            raise ConfigurationError("interface speeds must be positive")
        if self.c_int == self.c_ext:
            raise ConfigurationError(
                f"interface at radius {self.radius} has equal speeds on both sides")


@dataclass(eq=False)
class Medium:
    """Sound-speed map c(x) with cached nodal samples and interface descriptors."""

    grid: Grid
    layers: tuple[tuple[float, float], ...]  # (radius, speed), outermost first
    interfaces: tuple[InterfaceDescriptor, ...]
    c_field: np.ndarray

    @property
    def c_sq(self) -> np.ndarray:
        return self._c_sq

    def __post_init__(self):
        self._c_sq = self.c_field ** 2

    @property
    def c_max(self) -> float:
        return float(self.c_field.max())


def build_medium(spec: list[tuple[float, float]], grid: Grid,
                 mollify_width: float = 0.0) -> Medium:
    """Build a nested-disk medium from (radius, speed) pairs, outermost first.

    Node speed is the speed of the innermost disk containing the node, 1
    outside all disks.  ``mollify_width`` (in units of h, default 0) smooths
    the cached nodal samples with a Gaussian of that width; the exact
    ``speed_at`` map stays sharp.
    """
    layers = tuple((float(r), float(c)) for r, c in spec)
    radii = [r for r, _ in layers]
    if any(r <= 0 for r in radii):
        raise ConfigurationError("disk radii must be positive")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ConfigurationError(
            f"disks must be strictly nested (radii strictly decreasing), got {radii}")
    if not all(0 < c < math.inf for _, c in layers):
        raise ConfigurationError("layer speeds must be positive and finite")
    if not 0 <= mollify_width < math.inf:
        raise ConfigurationError(
            f"mollify_width must be a finite non-negative width, got {mollify_width}")
    xmin, xmax, ymin, ymax = grid.bounds
    if layers:
        r0 = radii[0]
        if not (xmin < -r0 and r0 < xmax and ymin < -r0 and r0 < ymax):
            raise ConfigurationError("outermost disk does not fit inside the grid")

    xx, yy = grid.meshgrid()
    rr = np.hypot(xx, yy)
    c = np.full(grid.shape, BACKGROUND_SPEED)
    for radius, speed in layers:  # outermost first; inner disks overwrite
        c[rr < radius] = speed

    interfaces = []
    outside = BACKGROUND_SPEED
    for radius, speed in layers:
        interfaces.append(InterfaceDescriptor(radius=radius, c_int=speed, c_ext=outside))
        outside = speed

    if mollify_width > 0:
        from scipy.ndimage import gaussian_filter  # so runs without a Gaussian load no scipy
        c = gaussian_filter(c, sigma=mollify_width, mode="nearest")
    return Medium(grid=grid, layers=layers, interfaces=tuple(interfaces), c_field=c)


def uniform_medium(grid: Grid, speed: float = BACKGROUND_SPEED) -> Medium:
    """Constant-speed medium with no interfaces (c must still be 1 outside any
    would-be domain, so non-unit speeds are for controlled experiments only)."""
    if not 0 < speed < math.inf:
        raise ConfigurationError(f"speed must be positive and finite, got {speed}")
    c = np.full(grid.shape, float(speed))
    return Medium(grid=grid, layers=(), interfaces=(), c_field=c)


def speed_at(m: Medium, x: tuple[float, float]) -> float:
    """Exact piecewise value by disk membership (not the rasterized cache)."""
    return float(speeds_at(m, np.array([x], dtype=np.float64))[0])


def speeds_at(m: Medium, points: np.ndarray) -> np.ndarray:
    """``speed_at`` at each row of an (n, 2) array of points."""
    xmin, xmax, ymin, ymax = m.grid.bounds
    px, py = points[:, 0], points[:, 1]
    outside = ~((xmin <= px) & (px <= xmax) & (ymin <= py) & (py <= ymax))
    if outside.any():
        raise DomainError(f"point {tuple(points[outside][0].tolist())} lies outside the grid")
    # math.hypot, not np.hypot: the two differ in the last bit
    r = np.fromiter(map(math.hypot, px.tolist(), py.tolist()), dtype=np.float64, count=len(px))
    c = np.full(len(r), BACKGROUND_SPEED)
    for radius, speed in m.layers:  # outermost first; inner disks overwrite
        c[r < radius] = speed
    return c


def critical_angle(iface: InterfaceDescriptor) -> float | None:
    """Critical incidence angle arcsin(c_int/c_ext) from the interior side.

    Returns None when c_int > c_ext: the transmitted ray then always exists.
    """
    if iface.c_int < iface.c_ext:
        return math.asin(iface.c_int / iface.c_ext)
    return None


def interface_gamma(iface: InterfaceDescriptor) -> float:
    """Speed ratio c_int/c_ext of the interface (constant on each circle)."""
    return iface.c_int / iface.c_ext
