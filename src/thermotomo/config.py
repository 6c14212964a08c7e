"""Line-oriented run configuration: ``key = value`` pairs with dotted keys.

Blank lines and ``#`` comments are ignored.  Unknown keys are rejected so a
typo cannot silently fall back to a default.  Numbered groups (``layer.1.*``,
``phantom.1.*``) must be contiguous starting at 1, without leading zeros,
outermost disk first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .grid_field import Grid, Region, ScalarField, make_phantom
from .medium import Medium, build_medium
from .rays import CAPS_DEFAULTS, SAMPLING_DEFAULTS
from .recon import ReconConfig
from .wave_solver import SolverConfig

_SCALAR_KEYS = {
    "grid.nx": int, "grid.ny": int, "grid.h": float, "grid.ox": float, "grid.oy": float,
    "omega.xmin": float, "omega.xmax": float, "omega.ymin": float, "omega.ymax": float,
    "kset.kind": str, "kset.cx": float, "kset.cy": float, "kset.radius": float,
    "kset.xmin": float, "kset.xmax": float, "kset.ymin": float, "kset.ymax": float,
    "time.T": float,
    "recon.m_max": int, "recon.tol_rel": float, "recon.harmonic_tol": float,
    "phantom.kind": str,
    "rays.n_pos": int, "rays.n_dir": int, "rays.max_depth": int, "rays.min_weight": float,
    "seed": int,
    "output.dir": str,
}

# the keys each kset.kind reads
_KSET_KEYS = {"disk": ("cx", "cy", "radius"), "rectangle": ("xmin", "xmax", "ymin", "ymax")}

# the fields of each numbered group; every one is a float
_GROUPS = {"layer": ("radius", "speed"), "phantom": ("cx", "cy", "sigma")}
_NUMBERED = re.compile(r"(\w+)\.([1-9][0-9]*)\.(\w+)", re.ASCII)


def _convert(key: str, caster, text: str):
    try:
        return caster(text)
    except ValueError:
        raise ConfigurationError(f"{key}: cannot parse {text!r} as {caster.__name__}")


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        caster = _SCALAR_KEYS.get(key)
        if caster is None and (m := _NUMBERED.fullmatch(key)) and m[3] in _GROUPS.get(m[1], ()):
            caster = float
        if caster is None:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, caster, val)
    return values


def _numbered_group(values: dict, prefix: str) -> list[tuple]:
    """Entries 1..n of a numbered group, each a tuple of its ``_GROUPS`` fields."""
    indices = {int(m[2]) for m in map(_NUMBERED.fullmatch, values) if m and m[1] == prefix}
    if sorted(indices) != list(range(1, len(indices) + 1)):
        raise ConfigurationError(f"{prefix} entries must be numbered 1..n, got {sorted(indices)}")
    group = []
    for k in range(1, len(indices) + 1):
        keys = [f"{prefix}.{k}.{f}" for f in _GROUPS[prefix]]
        if missing := [key for key in keys if key not in values]:
            raise ConfigurationError(f"missing {missing[0]}")
        group.append(tuple(values[key] for key in keys))
    return group


@dataclass
class RunConfig:
    """Typed view over a parsed config with builders for the run objects."""

    values: dict
    layers: list[tuple] = field(default_factory=list)  # (radius, speed) per layer
    bumps: list[tuple] = field(default_factory=list)   # (cx, cy, sigma) per bump

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values = parse_config_text(text)
        cfg = cls(values=values, layers=_numbered_group(values, "layer"),
                  bumps=_numbered_group(values, "phantom"))
        for key in ("grid.nx", "grid.ny", "grid.h", "grid.ox", "grid.oy",
                    "omega.xmin", "omega.xmax", "omega.ymin", "omega.ymax", "time.T"):
            if key not in values:
                raise ConfigurationError(f"missing required key {key}")
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}")

    def get(self, key, default=None):
        return self.values.get(key, default)

    def _section(self, prefix: str) -> dict:
        """The ``prefix.*`` keys the file sets, without the prefix."""
        return {key[len(prefix) + 1:]: v for key, v in self.values.items()
                if key.startswith(prefix + ".")}

    # -- builders -----------------------------------------------------------

    def build_grid(self) -> Grid:
        v = self.values
        return Grid(v["grid.nx"], v["grid.ny"], v["grid.h"], (v["grid.ox"], v["grid.oy"]))

    def build_medium(self, grid: Grid) -> Medium:
        return build_medium(self.layers, grid)

    def build_omega(self, grid: Grid) -> Region:
        v = self.values
        return Region.rectangle_from_physical(
            grid, v["omega.xmin"], v["omega.xmax"], v["omega.ymin"], v["omega.ymax"])

    def build_kset(self, grid: Grid) -> Region:
        kind = self.get("kset.kind", "disk")
        if kind not in _KSET_KEYS:
            raise ConfigurationError(f"unknown kset.kind {kind!r}")
        given = {k: v for k, v in self._section("kset").items() if k != "kind"}
        if unread := sorted(set(given) - set(_KSET_KEYS[kind])):
            raise ConfigurationError(f"kset.{unread[0]} is not read by a {kind} kset")
        if missing := [k for k in _KSET_KEYS[kind] if k not in given]:
            raise ConfigurationError(f"missing kset.{missing[0]} for a {kind} kset")
        v = [given[k] for k in _KSET_KEYS[kind]]
        if kind == "disk":
            return Region.disk(grid, (v[0], v[1]), v[2])
        return Region.rectangle_from_physical(grid, *v)

    def build_phantom(self, grid: Grid, kset: Region) -> ScalarField:
        kind = self.get("phantom.kind", "sum_of_bumps")
        if kind not in ("gaussian_bump", "sum_of_bumps"):
            raise ConfigurationError(f"unknown phantom.kind {kind!r}")
        if not self.bumps:
            raise ConfigurationError("config defines no phantom bumps")
        if kind == "gaussian_bump" and len(self.bumps) != 1:
            raise ConfigurationError("gaussian_bump phantom needs exactly one bump")
        # a gaussian_bump is a one-bump sum_of_bumps, bit for bit
        bumps = [((cx, cy), sigma) for cx, cy, sigma in self.bumps]
        return make_phantom("sum_of_bumps", {"bumps": bumps}, grid, kset)

    def recon_config(self, medium: Medium, omega: Region, kset: Region) -> ReconConfig:
        return ReconConfig(medium, omega, kset, self.values["time.T"], **self._section("recon"))

    def solver_config(self, m: Medium) -> SolverConfig:
        return SolverConfig.for_time(m, self.values["time.T"])

    def ray_sampling(self) -> dict:
        """``check_visibility``'s sampling; a key the file omits takes its rays default."""
        rays = self._section("rays")
        return {**{k: rays.get(k, v) for k, v in SAMPLING_DEFAULTS.items()},
                "caps": {k: rays.get(k, v) for k, v in CAPS_DEFAULTS.items()}}
