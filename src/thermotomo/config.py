"""Line-oriented run configuration: ``key = value`` pairs with dotted keys.

Blank lines and ``#`` comments are ignored.  Unknown keys are rejected so a
typo cannot silently fall back to a default.  Numbered groups (``layer.1.*``,
``phantom.1.*``) must be contiguous starting at 1, outermost disk first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .grid_field import Grid, Region, ScalarField, make_phantom
from .medium import Medium, build_medium
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

_NUMBERED_KEYS = {
    re.compile(r"^layer\.(\d+)\.radius$"): float,
    re.compile(r"^layer\.(\d+)\.speed$"): float,
    re.compile(r"^phantom\.(\d+)\.cx$"): float,
    re.compile(r"^phantom\.(\d+)\.cy$"): float,
    re.compile(r"^phantom\.(\d+)\.sigma$"): float,
}


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
        if caster is None:
            for pattern, num_caster in _NUMBERED_KEYS.items():
                if pattern.match(key):
                    caster = num_caster
                    break
        if caster is None:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, caster, val)
    return values


def _numbered_group(values: dict, prefix: str, fields: tuple[str, ...]) -> list[dict]:
    indices = set()
    for key in values:
        m = re.match(rf"^{prefix}\.(\d+)\.", key)
        if m:
            indices.add(int(m.group(1)))
    if not indices:
        return []
    if sorted(indices) != list(range(1, len(indices) + 1)):
        raise ConfigurationError(f"{prefix} entries must be numbered 1..n, got {sorted(indices)}")
    group = []
    for k in range(1, len(indices) + 1):
        entry = {}
        for f in fields:
            key = f"{prefix}.{k}.{f}"
            if key not in values:
                raise ConfigurationError(f"missing {key}")
            entry[f] = values[key]
        group.append(entry)
    return group


@dataclass
class RunConfig:
    """Typed view over a parsed config with builders for the run objects."""

    values: dict
    layers: list[dict] = field(default_factory=list)
    bumps: list[dict] = field(default_factory=list)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values = parse_config_text(text)
        cfg = cls(values=values,
                  layers=_numbered_group(values, "layer", ("radius", "speed")),
                  bumps=_numbered_group(values, "phantom", ("cx", "cy", "sigma")))
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

    # -- builders -----------------------------------------------------------

    def build_grid(self) -> Grid:
        v = self.values
        return Grid(v["grid.nx"], v["grid.ny"], v["grid.h"], (v["grid.ox"], v["grid.oy"]))

    def build_medium(self, grid: Grid) -> Medium:
        spec = [(layer["radius"], layer["speed"]) for layer in self.layers]
        return build_medium(spec, grid)

    def build_omega(self, grid: Grid) -> Region:
        v = self.values
        return Region.rectangle_from_physical(
            grid, v["omega.xmin"], v["omega.xmax"], v["omega.ymin"], v["omega.ymax"])

    def build_kset(self, grid: Grid) -> Region:
        kind = self.get("kset.kind", "disk")
        if kind == "disk":
            for key in ("kset.cx", "kset.cy", "kset.radius"):
                if key not in self.values:
                    raise ConfigurationError(f"missing {key} for a disk kset")
            return Region.disk(grid, (self.values["kset.cx"], self.values["kset.cy"]),
                               self.values["kset.radius"])
        if kind == "rectangle":
            for key in ("kset.xmin", "kset.xmax", "kset.ymin", "kset.ymax"):
                if key not in self.values:
                    raise ConfigurationError(f"missing {key} for a rectangle kset")
            return Region.rectangle_from_physical(
                grid, self.values["kset.xmin"], self.values["kset.xmax"],
                self.values["kset.ymin"], self.values["kset.ymax"])
        raise ConfigurationError(f"unknown kset.kind {kind!r}")

    def build_phantom(self, grid: Grid, kset: Region) -> ScalarField:
        kind = self.get("phantom.kind", "sum_of_bumps" if len(self.bumps) != 1 else "gaussian_bump")
        if not self.bumps:
            raise ConfigurationError("config defines no phantom bumps")
        if kind == "gaussian_bump":
            if len(self.bumps) != 1:
                raise ConfigurationError("gaussian_bump phantom needs exactly one bump")
            b = self.bumps[0]
            params = {"center": (b["cx"], b["cy"]), "sigma": b["sigma"]}
        elif kind == "sum_of_bumps":
            params = {"bumps": [((b["cx"], b["cy"]), b["sigma"]) for b in self.bumps]}
        else:
            raise ConfigurationError(f"unknown phantom.kind {kind!r}")
        return make_phantom(kind, params, grid, kset)

    def recon_config(self, omega: Region, kset: Region) -> ReconConfig:
        return ReconConfig(
            omega=omega, kset=kset, T=self.values["time.T"],
            m_max=self.get("recon.m_max", 8),
            tol_rel=self.get("recon.tol_rel", 1e-4),
            harmonic_tol=self.get("recon.harmonic_tol", 1e-10))

    def solver_config(self, m: Medium) -> SolverConfig:
        return SolverConfig.for_time(m, self.values["time.T"])

    def ray_caps(self) -> dict:
        return {"max_depth": self.get("rays.max_depth", 12),
                "min_weight": self.get("rays.min_weight", 1e-4)}

    def ray_sampling(self) -> dict:
        return {"n_pos": self.get("rays.n_pos", 64),
                "n_dir": self.get("rays.n_dir", 128),
                "caps": self.ray_caps()}
