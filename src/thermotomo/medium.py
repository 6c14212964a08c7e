"""Piecewise-constant sound-speed maps over nested concentric disks.

A medium is its (radius, speed) layers, outermost first, and the background speed
outside them, 1 unless ``uniform_medium`` sets it; its nodal samples, interfaces and
point speeds all derive from these, a point's radius by ``np.hypot`` alone, so a
node's sampled speed is its point speed.  Disks are centered at the physical point
(0, 0); nesting is therefore equivalent to strictly decreasing radii.  Each circle is
an interface carrying the speed limits from its two sides.  ``Medium`` checks its own
layers, so every constructor rejects a bad table alike: radii positive, strictly
decreasing and inside the grid, and each speed by ``_check_speed``, the speed rule
that ``InterfaceDescriptor`` and ``rays``' laws share.
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
        _check_speed(self.c_int)
        _check_speed(self.c_ext)
        if self.c_int == self.c_ext:
            raise ConfigurationError(
                f"interface at radius {self.radius} has equal speeds on both sides")


@dataclass(eq=False)
class Medium:
    """Sound-speed map c(x): the innermost disk's speed, ``background`` outside
    every disk.  ``c_field`` (nodal samples), ``c_sq`` (their square, the
    solver's weight) and ``interfaces`` are derived from ``layers``, after the
    checks of the module docstring."""

    grid: Grid
    layers: tuple[tuple[float, float], ...]  # (radius, speed), outermost first
    background: float = BACKGROUND_SPEED

    def __post_init__(self):
        self.layers = tuple((float(r), float(c)) for r, c in self.layers)
        radii = [r for r, _ in self.layers]
        if not all(r > 0 for r in radii):
            raise ConfigurationError("disk radii must be positive")
        if not all(r2 < r1 for r1, r2 in zip(radii, radii[1:])):
            raise ConfigurationError(
                f"disks must be strictly nested (radii strictly decreasing), got {radii}")
        _check_speed(self.background)
        outside = [self.background, *(c for _, c in self.layers)]
        # each interface checks its speeds, so every layer's speed is checked here
        self.interfaces = tuple(InterfaceDescriptor(radius=r, c_int=c, c_ext=c_ext)
                                for (r, c), c_ext in zip(self.layers, outside))
        xmin, xmax, ymin, ymax = self.grid.bounds
        if radii and not radii[0] < min(-xmin, xmax, -ymin, ymax):
            raise ConfigurationError("outermost disk does not fit inside the grid")
        xx, yy = self.grid.meshgrid()
        self.c_field = self._speed(np.hypot(xx, yy))
        self.c_sq = self.c_field ** 2

    def _speed(self, r: np.ndarray) -> np.ndarray:
        """c at each distance r from the center, by the rule above."""
        c = np.full(r.shape, self.background)
        for radius, speed in self.layers:  # outermost first; inner disks overwrite
            c[r < radius] = speed
        return c

    @property
    def c_max(self) -> float:
        return float(self.c_field.max())


def _check_speed(c: float):
    """Reject a speed that is not positive and finite, or whose square, the
    solver's weight, is not (it over- or underflows); a NaN fails both."""
    if not (0 < c and 0 < c * c < math.inf):
        raise ConfigurationError(
            f"speed must be positive and finite, and so must its square, got {c}")


def build_medium(spec: list[tuple[float, float]], grid: Grid) -> Medium:
    """The nested-disk medium of (radius, speed) pairs, outermost first."""
    return Medium(grid, tuple(spec))


def uniform_medium(grid: Grid, speed: float = BACKGROUND_SPEED) -> Medium:
    """Constant-speed medium with no interfaces: waves and rays both move at
    ``speed``.  A non-unit speed is for controlled experiments only, since
    ``exterior_neumann`` still solves at unit speed outside the rectangle."""
    return Medium(grid, (), float(speed))


def speed_at(m: Medium, x: tuple[float, float]) -> float:
    """Exact piecewise value by disk membership (not the rasterized cache)."""
    return float(speeds_at(m, np.array([x], dtype=np.float64))[0])


def speeds_at(m: Medium, points: np.ndarray) -> np.ndarray:
    """``speed_at`` at each row of an (n, 2) array of points; r by the raster's ``np.hypot``."""
    xmin, xmax, ymin, ymax = m.grid.bounds
    px, py = points[:, 0], points[:, 1]
    outside = ~((xmin <= px) & (px <= xmax) & (ymin <= py) & (py <= ymax))
    if outside.any():
        raise DomainError(f"point {tuple(points[outside][0].tolist())} lies outside the grid")
    return m._speed(np.hypot(px, py))


def critical_angle(iface: InterfaceDescriptor) -> float | None:
    """Critical incidence angle arcsin(c_int/c_ext) from the interior side.

    Returns None when c_int > c_ext: the transmitted ray then always exists.
    """
    return _critical_angle(iface.c_int, iface.c_ext)


def _critical_angle(c_in: float, c_out: float) -> float | None:
    """``critical_angle`` of a crossing from the c_in side to the c_out side."""
    return math.asin(c_in / c_out) if c_in < c_out else None


def interface_gamma(iface: InterfaceDescriptor) -> float:
    """Speed ratio c_int/c_ext of the interface (constant on each circle)."""
    return iface.c_int / iface.c_ext
