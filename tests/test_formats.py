import csv
import math
import os
import struct

import numpy as np
import pytest

from thermotomo.errors import DegenerateInputError, FormatError
from thermotomo.formats import (
    emit_pgm,
    read_grid,
    read_trace,
    write_csv,
    write_grid,
    write_text,
    write_trace,
)
from thermotomo.grid_field import Grid, ScalarField
from thermotomo.wave_solver import BoundaryTrace


@pytest.fixture
def field():
    g = Grid(7, 5, 0.25, origin=(-1.0, 2.0))
    rng = np.random.default_rng(0)
    return ScalarField(g, rng.standard_normal(g.shape))


@pytest.fixture
def trace():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((3, 2))
    return BoundaryTrace(points=pts, dt=0.125, values=rng.standard_normal((5, 3)))


class TestGridFormat:
    def test_round_trip_bitwise(self, field, tmp_path):
        path = tmp_path / "f.tawg"
        write_grid(path, field)
        back = read_grid(path)
        assert back.grid == field.grid
        assert back.data.tobytes() == field.data.tobytes()

    def test_header_is_48_bytes(self, field, tmp_path):
        # 4 magic + 4 version + 8 nx + 8 ny + 8 ox + 8 oy + 8 h
        path = tmp_path / "f.tawg"
        write_grid(path, field)
        size = os.path.getsize(path)
        assert size == 48 + field.grid.nx * field.grid.ny * 8
        with open(path, "rb") as fh:
            raw = fh.read(48)
        magic, version, nx, ny, ox, oy, h = struct.unpack("<4sIQQddd", raw)
        assert magic == b"TAWG" and version == 1
        assert (nx, ny) == (7, 5)
        assert (ox, oy, h) == (-1.0, 2.0, 0.25)

    def test_wrong_magic_rejected(self, field, trace, tmp_path):
        path = tmp_path / "t.taws"
        write_trace(path, trace)
        with pytest.raises(FormatError) as err:
            read_grid(path)
        assert err.value.offset == 0

    def test_truncation_rejected(self, field, tmp_path):
        path = tmp_path / "f.tawg"
        write_grid(path, field)
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(FormatError, match="length mismatch"):
            read_grid(path)

    def test_bad_version_rejected(self, field, tmp_path):
        path = tmp_path / "f.tawg"
        write_grid(path, field)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_grid(path)


class TestTraceFormat:
    def test_round_trip_bitwise(self, trace, tmp_path):
        path = tmp_path / "t.taws"
        write_trace(path, trace)
        back = read_trace(path)
        assert back.dt == trace.dt
        assert back.points.tobytes() == trace.points.tobytes()
        assert back.values.tobytes() == trace.values.tobytes()

    def test_payload_size(self, trace, tmp_path):
        # header 32, coordinates 3*16 = 48, payload 5*3*8 = 120 bytes
        path = tmp_path / "t.taws"
        write_trace(path, trace)
        assert os.path.getsize(path) == 32 + 48 + 120

    def test_truncation_names_lengths(self, trace, tmp_path):
        path = tmp_path / "t.taws"
        write_trace(path, trace)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError, match="expected 200 bytes, got 184"):
            read_trace(path)

    def test_grid_magic_rejected_by_trace_reader(self, field, tmp_path):
        path = tmp_path / "f.tawg"
        write_grid(path, field)
        with pytest.raises(FormatError, match="magic"):
            read_trace(path)


    @pytest.mark.parametrize("reader", [read_grid, read_trace])
    def test_unreadable_path_is_a_format_error(self, tmp_path, reader):
        for path in (tmp_path / "missing.taws", tmp_path):
            with pytest.raises(FormatError, match="cannot read"):
                reader(path)


class TestPgm:
    def test_linear_map_values(self, tmp_path):
        # 0 -> 0, 1 -> 65535, 0.5 -> 32768, 0.25 -> 16384 under range (0, 1)
        g = Grid(3, 3, 1.0)
        data = np.array([[0.0, 1.0, 0.5],
                         [0.25, 0.75, 0.0],
                         [1.0, 0.5, 0.25]])
        path = tmp_path / "f.pgm"
        emit_pgm(ScalarField(g, data), path, (0.0, 1.0))
        raw = path.read_bytes()
        header = b"P5\n3 3\n65535\n"
        assert raw.startswith(header)
        pixels = np.frombuffer(raw[len(header):], dtype=">u2").reshape(3, 3)
        expected = np.array([[0, 65535, 32768],
                             [16384, 49151, 0],
                             [65535, 32768, 16384]])
        assert np.array_equal(pixels, expected)

    def test_default_range_spans_min_max(self, tmp_path):
        g = Grid(3, 3, 1.0)
        data = np.linspace(-2.0, 7.0, 9).reshape(3, 3)
        path = tmp_path / "f.pgm"
        emit_pgm(ScalarField(g, data), path)
        raw = path.read_bytes()
        pixels = np.frombuffer(raw.split(b"\n", 3)[3], dtype=">u2")
        assert pixels.min() == 0 and pixels.max() == 65535

    def test_constant_with_explicit_range(self, tmp_path):
        g = Grid(3, 3, 1.0)
        path = tmp_path / "f.pgm"
        emit_pgm(ScalarField(g, np.full((3, 3), 0.5)), path, (0.0, 1.0))
        pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
        assert np.all(pixels == 32768)

    def test_degenerate_range_rejected(self, tmp_path):
        g = Grid(3, 3, 1.0)
        for value_range in ((1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(DegenerateInputError):
                emit_pgm(ScalarField.zeros(g), tmp_path / "f.pgm", value_range)
        with pytest.raises(DegenerateInputError):
            emit_pgm(ScalarField(g, np.full((3, 3), math.nan)), tmp_path / "f.pgm")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, tmp_path, bad):
        data = np.zeros((3, 3))
        data[1, 2] = bad
        for value_range in (None, (0.0, 1.0)):
            with pytest.raises(DegenerateInputError):
                emit_pgm(ScalarField(Grid(3, 3, 1.0), data), tmp_path / "f.pgm", value_range)
        assert list(tmp_path.iterdir()) == []

    def test_returns_the_range_it_used(self, tmp_path):
        g = Grid(3, 3, 1.0)
        data = np.linspace(-2.0, 7.0, 9).reshape(3, 3)
        assert emit_pgm(ScalarField(g, data), tmp_path / "a.pgm") == (-2.0, 7.0)
        assert emit_pgm(ScalarField(g, data), tmp_path / "b.pgm", (0.0, 1.0)) == (0.0, 1.0)
        # a constant field maps onto (lo, lo + 1): an all-zero image
        path = tmp_path / "c.pgm"
        assert emit_pgm(ScalarField(g, np.full((3, 3), 0.5)), path) == (0.5, 1.5)
        assert not any(path.read_bytes().split(b"\n", 3)[3])


class TestAtomicity:
    def test_no_temp_files_left(self, field, tmp_path):
        path = tmp_path / "f.tawg"
        write_grid(path, field)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.tawg"]

    def test_failed_rename_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "b.txt"
        write_text(path, "old\n")

        def refuse(src, dst):
            raise OSError("refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            write_text(path, "new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt"]
        assert path.read_text() == "old\n"

    @pytest.mark.parametrize("write", [
        lambda path, f, t: write_grid(path, f),
        lambda path, f, t: write_trace(path, t),
        lambda path, f, t: emit_pgm(f, path),
        lambda path, f, t: write_csv(path, [("a", "b"), (1, 2.5)]),
    ], ids=["write_grid", "write_trace", "emit_pgm", "write_csv"])
    def test_missing_directories_are_created(self, field, trace, tmp_path, write):
        # the first file written into a missing directory creates it, parents
        # included, and the bytes are those written into an existing one
        write(tmp_path / "here", field, trace)
        nested = tmp_path / "a" / "b" / "there"
        write(nested, field, trace)
        assert nested.read_bytes() == (tmp_path / "here").read_bytes()
        assert sorted(p.name for p in nested.parent.iterdir()) == ["there"]

    def test_parent_that_is_a_file_raises_and_leaves_no_temp(self, tmp_path):
        (tmp_path / "taken").write_text("")
        with pytest.raises(OSError):
            write_text(tmp_path / "taken" / "x.txt", "text\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert (tmp_path / "taken").read_text() == ""


class TestText:
    def test_csv_bytes_are_csv_writers_on_a_file(self, tmp_path):
        # quoting, embedded line breaks and the \r\n line ends are csv.writer's
        rows = [("x", "y,z", 'q"uote'), (1, 2.5, ""), ("line\nbreak", None, -0.0)]
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        write_csv(tmp_path / "new.csv", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().endswith(b"-0.0\r\n")

    def test_text_is_written_as_given(self, tmp_path):
        write_text(tmp_path / "t.txt", "# head\nrow 1\n")
        assert (tmp_path / "t.txt").read_bytes() == b"# head\nrow 1\n"
