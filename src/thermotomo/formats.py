"""Output files: bit-exact TAWG grids, TAWS traces, 16-bit PGMs; text and CSV.

All integers and floats are little-endian and fixed-width; round trips are
bitwise identical.  Every file is written whole by one function: to a new temp
file in the target directory, made if missing, then renamed over it, with
``open()``'s mode.
"""

from __future__ import annotations

import csv
import io
import os
import struct

import numpy as np

from .errors import DegenerateInputError, FormatError
from .grid_field import Grid, ScalarField
from .wave_solver import BoundaryTrace

GRID_MAGIC = b"TAWG"
TRACE_MAGIC = b"TAWS"
FORMAT_VERSION = 1

_GRID_HEADER = struct.Struct("<4sIQQddd")    # magic, version, nx, ny, ox, oy, h
_TRACE_HEADER = struct.Struct("<4sIQQd")     # magic, version, n_times, n_det, dt


def _atomic_write(path, payload: bytes):
    # a fresh name, created exclusively; the umask trims 0o666 as for open()
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str):
    """Text as UTF-8, its line ends as given."""
    _atomic_write(path, text.encode("utf-8"))


def write_csv(path, rows):
    """Rows as ``csv.writer`` writes them: minimal quoting, ``\r\n`` line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_text(path, buf.getvalue())


def write_grid(path, field: ScalarField):
    """Serialize a field: 48-byte header, then nx*ny float64 row-major."""
    g = field.grid
    header = _GRID_HEADER.pack(GRID_MAGIC, FORMAT_VERSION, g.nx, g.ny,
                               g.origin[0], g.origin[1], g.h)
    _atomic_write(path, header + field.data.astype("<f8").tobytes(order="C"))


def _read(path, header: struct.Struct, magic: bytes, payload):
    """Whole file and its header fields after the magic and version, both checked,
    and its length checked against the header plus ``payload(*fields)`` bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    name = magic.decode("ascii")
    if len(raw) < header.size:
        raise FormatError(f"file too short for a {name} header ({len(raw)} bytes)",
                          offset=len(raw))
    found, version, *fields = header.unpack_from(raw)
    if found != magic:
        raise FormatError(f"bad magic {found!r}, expected {magic!r}", offset=0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {name} version {version}", offset=4)
    expected = header.size + payload(*fields)
    if len(raw) != expected:
        raise FormatError(
            f"{name} payload length mismatch: expected {expected} bytes, got {len(raw)}",
            offset=min(len(raw), expected))
    return raw, fields


def read_grid(path) -> ScalarField:
    raw, (nx, ny, ox, oy, h) = _read(path, _GRID_HEADER, GRID_MAGIC,
                                     lambda nx, ny, *_: nx * ny * 8)
    data = np.frombuffer(raw, dtype="<f8", offset=_GRID_HEADER.size).reshape(nx, ny)
    return ScalarField(Grid(nx, ny, h, (ox, oy)), data.copy())


def write_trace(path, trace: BoundaryTrace):
    """Serialize a trace: header, detector coordinates, then values time-major."""
    n_times, n_det = trace.values.shape
    header = _TRACE_HEADER.pack(TRACE_MAGIC, FORMAT_VERSION, n_times, n_det, trace.dt)
    coords = trace.points.astype("<f8").tobytes(order="C")
    payload = trace.values.astype("<f8").tobytes(order="C")
    _atomic_write(path, header + coords + payload)


def read_trace(path) -> BoundaryTrace:
    raw, (n_times, n_det, dt) = _read(path, _TRACE_HEADER, TRACE_MAGIC,
                                      lambda n_times, n_det, _: (2 + n_times) * n_det * 8)
    points = np.frombuffer(raw, dtype="<f8", offset=_TRACE_HEADER.size,
                           count=n_det * 2).reshape(n_det, 2)
    values = np.frombuffer(raw, dtype="<f8",
                           offset=_TRACE_HEADER.size + n_det * 16).reshape(n_times, n_det)
    return BoundaryTrace(points=points.copy(), dt=dt, values=values.copy())


def emit_pgm(field: ScalarField, path,
             value_range: tuple[float, float] | None = None) -> tuple[float, float]:
    """Write a binary 16-bit PGM (P5, maxval 65535, big-endian samples) and
    return the (lo, hi) it used.

    Values map linearly from [lo, hi] (default: the field's (min, max), or
    (lo, lo + 1) for a constant field) onto [0, 65535], rounded to nearest and
    clipped.  A given range must be finite with lo != hi, and the field finite.
    Pixel order matches the field's row-major data order: width ny, height nx.
    """
    if value_range is None:
        lo, hi = float(field.data.min()), float(field.data.max())
        value_range = (lo, hi) if lo < hi else (lo, lo + 1.0)
    lo, hi = value_range
    if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(field.data).all()) or lo == hi:
        raise DegenerateInputError(f"degenerate value range ({lo}, {hi}) or non-finite field")
    scaled = np.round((field.data - lo) / (hi - lo) * 65535.0)
    pixels = np.clip(scaled, 0, 65535).astype(">u2")
    header = f"P5\n{field.grid.ny} {field.grid.nx}\n65535\n".encode("ascii")
    _atomic_write(path, header + pixels.tobytes(order="C"))
    return lo, hi
