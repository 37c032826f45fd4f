"""Minimal PLY point-cloud reader and writer.

Reads ascii (one vertex per line) and binary little-endian files whose
first element is ``vertex`` with float ``x, y, z`` properties, optional uchar
``red, green, blue`` and optional integer ``segment`` and ``instance``
properties (per-point instance ids, as 3RScan's ``objectId``). Unknown vertex
properties are skipped; elements after ``vertex`` are ignored. Writes
binary little-endian only.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import StageCloud, _array, _hand_over


class PlyError(ValueError):
    """Base for PLY format problems."""


class PlyFormatError(PlyError):
    """Malformed or unsupported header/body."""


class PlyMissingPropertyError(PlyError):
    """A required vertex property is absent."""


_PROPERTY_DTYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


@dataclass
class _Header:
    binary: bool
    vertex_count: int
    properties: list[tuple[str, str]]  # (name, numpy dtype code)
    data_offset: int


def _parse_header(raw: bytes) -> _Header:
    end = raw.find(b"end_header")
    if not raw.startswith(b"ply") or end < 0:
        raise PlyFormatError("not a PLY file (missing 'ply'/'end_header')")
    newline = raw.find(b"\n", end)
    if newline < 0:
        raise PlyFormatError("truncated header")
    try:
        lines = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise PlyFormatError("header is not ascii") from exc

    binary = False
    vertex_count = None
    properties: list[tuple[str, str]] = []
    in_vertex = False
    seen_element = False
    fmt_seen = False
    for line in lines[1:]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if len(parts) < 2 and parts[0] in ("format", "element", "property"):
            raise PlyFormatError(f"bad {parts[0]} line {line!r}")
        if parts[0] == "format":
            fmt_seen = True
            if parts[1] == "ascii":
                binary = False
            elif parts[1] == "binary_little_endian":
                binary = True
            elif parts[1] == "binary_big_endian":
                raise PlyFormatError("big-endian PLY is not supported")
            else:
                raise PlyFormatError(f"unknown format {parts[1]!r}")
        elif parts[0] == "element":
            if parts[1] == "vertex":
                if seen_element:
                    raise PlyFormatError("vertex must be the first element")
                try:
                    vertex_count = int(parts[2])
                except (IndexError, ValueError) as exc:
                    raise PlyFormatError("bad vertex element line") from exc
                if vertex_count < 0:
                    raise PlyFormatError(f"negative vertex count {vertex_count}")
                in_vertex = True
            else:
                in_vertex = False
            seen_element = True
        elif parts[0] == "property" and in_vertex:
            if parts[1] == "list":
                raise PlyFormatError("list properties on vertices are not supported")
            if len(parts) != 3 or parts[1] not in _PROPERTY_DTYPES:
                raise PlyFormatError(f"bad property line {line!r}")
            if any(name == parts[2] for name, _ in properties):
                raise PlyFormatError(f"vertex property {parts[2]!r} is listed twice")
            properties.append((parts[2], _PROPERTY_DTYPES[parts[1]]))
    if not fmt_seen:
        raise PlyFormatError("header has no format line")
    if vertex_count is None:
        raise PlyFormatError("header has no vertex element")
    return _Header(binary=binary, vertex_count=vertex_count,
                   properties=properties, data_offset=newline + 1)


def read_ply(path) -> tuple[StageCloud, Optional[np.ndarray]]:
    """Read a PLY point cloud into a stage and its per-point instance ids.

    Positions come from float ``x, y, z`` (meters); ``red, green, blue`` uchar
    columns become colors in [0, 1]; an integer ``segment`` column becomes
    superpoint ids. The result is ``(stage, instances)``: ``instances`` is the
    integer ``instance`` column as int64, or None when the file has no such
    property. Both encodings read into one table of the header's property
    types, so an ascii ``float`` is float32 as a binary one is; an ascii row
    that is not one vertex of such values (``5.0`` is no integer) is a
    PlyFormatError naming its file line. Every PlyError names ``path``.
    """
    table = _read_table(path)
    names = table.dtype.names
    positions = np.stack([table[c] for c in ("x", "y", "z")], axis=1, dtype=np.float64)
    colors = None
    if all(c in names for c in ("red", "green", "blue")):
        colors = np.stack([table[c] for c in ("red", "green", "blue")], axis=1,
                          dtype=np.float64)
        colors /= 255.0
    segments = _ids(table, "segment")
    # every array is new and read_ply keeps none, so StageCloud need not copy
    cloud = StageCloud(positions=_hand_over(positions),
                       colors=None if colors is None else _hand_over(colors),
                       segment_ids=None if segments is None else _hand_over(segments))
    return cloud, _ids(table, "instance")


def _read_labels(path) -> tuple[int, Optional[np.ndarray]]:
    """The point count and the ``instance`` column of the PLY at ``path``, after
    the checks of :func:`read_ply`, with no positions or colors built. The
    column keeps its property's type, an unsigned one widened to the next
    signed type so that -1 compares, and no longer holds the file's bytes."""
    table = _read_table(path)
    return len(table), _ids(table, "instance", np.int8)


def _ids(table: np.ndarray, name: str, dtype=np.int64) -> Optional[np.ndarray]:
    """The integer column ``name`` as a new array of ``dtype``, or of its own
    type where that is wider; None without that property."""
    return (table[name].astype(np.promote_types(table.dtype[name], dtype))
            if name in table.dtype.names else None)


def _read_table(path) -> np.ndarray:
    """The vertex table of the PLY at ``path``, one field per vertex property
    in the header's type. Every PlyError names ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _decode(raw)
    except PlyError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _decode(raw: bytes) -> np.ndarray:
    header = _parse_header(raw)
    dtype = np.dtype([(name, "<" + code) for name, code in header.properties])
    for coord in ("x", "y", "z"):
        if coord not in dtype.names:
            raise PlyMissingPropertyError(f"missing coordinate property {coord!r}")
    for name, code in header.properties:
        if name in ("segment", "instance") and code[0] not in "iu":
            raise PlyFormatError(f"the {name} property must have an integer type")

    if header.binary:
        if len(raw) - header.data_offset < dtype.itemsize * header.vertex_count:
            raise PlyFormatError("binary body shorter than vertex count")
        # a view of the bytes read, not a memory map: a file cut short after
        # this check would fault a mapping instead of raising here
        return np.frombuffer(raw, dtype=dtype, count=header.vertex_count,
                             offset=header.data_offset)

    # loadtxt allocates all max_rows rows first; a value takes 2 bytes, the last 1
    if len(raw) - header.data_offset + 1 < 2 * len(dtype) * header.vertex_count:
        raise PlyFormatError("ascii body shorter than vertex count")
    text = io.BytesIO(raw)
    text.seek(header.data_offset)
    try:
        table = _ascii_rows(text, dtype, header.vertex_count)
    except (ValueError, FloatingPointError) as exc:
        raise PlyFormatError(_first_bad_row(raw, header, dtype, exc)) from exc
    if len(table) < header.vertex_count:
        raise PlyFormatError("ascii body shorter than vertex count")
    return table


def _ascii_rows(text, dtype: np.dtype, rows: int) -> np.ndarray:
    """At most ``rows`` rows of ascii ``text`` as ``dtype``. A value its type
    cannot hold or a row of the wrong width is a ValueError, a float beyond
    float32 a FloatingPointError."""
    # floats parse as float64, so that a value beyond float32 overflows the cast
    wide = [(name, "<f8" if code[1] == "f" else code) for name, code in dtype.descr]
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("ignore", UserWarning)  # of blank lines: they hold no row
        # older numpy reads "5.0" or "nan" into an int field via a float, only warning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(text, dtype=wide, comments=None, ndmin=1, max_rows=rows,
                          encoding="ascii").astype(dtype)


def _first_bad_row(raw: bytes, header: _Header, dtype: np.dtype, exc: Exception) -> str:
    """The error of an ascii body that :func:`_ascii_rows` refused with
    ``exc``, naming the file line of its first bad row: the last line of the
    shortest prefix of the body that it refuses, found by bisection. Rows
    parse alone, so each step parses only the lines after the prefix read."""
    lines = raw[header.data_offset:].split(b"\n")
    good, bad = 0, len(lines)  # line counts of a prefix read and of one refused
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _ascii_rows(io.BytesIO(b"\n".join(lines[good:mid])), dtype, header.vertex_count)
            good = mid
        except (ValueError, FloatingPointError) as found:
            bad, exc = mid, found
    width = len(lines[bad - 1].split())
    line = "line %d" % (raw.count(b"\n", 0, header.data_offset) + bad)
    if width != len(dtype):
        return f"{line}: a vertex row of width {width}, not {len(dtype)}"
    if isinstance(exc, FloatingPointError):
        return f"{line}: a value beyond the range of its type"
    return f"{line}: a value its property type cannot hold"


def write_ply(path, cloud: StageCloud, instances=None) -> None:
    """Write a stage as binary little-endian PLY.

    Positions are stored as float32, colors as uchar (rounded from [0, 1]),
    segments as int32. ``instances``, one id per point, becomes an int32
    ``instance`` property. A segment or instance id outside int32 is a
    ValueError. A file written here reads back byte-exactly.
    """
    n = cloud.point_count
    fields = [("x", "f4"), ("y", "f4"), ("z", "f4")]
    if cloud.colors is not None:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    columns = {}
    if cloud.segment_ids is not None:
        columns["segment"] = cloud.segment_ids
    if instances is not None:
        instances = _array(instances, np.int64, "instances")
        if instances.shape != (n,):
            raise ValueError("instances length must equal point count")
        columns["instance"] = instances
    info = np.iinfo(np.int32)
    for name, ids in columns.items():
        outside = ids[(ids < info.min) | (ids > info.max)]
        if outside.size:
            raise ValueError(f"{name} id {outside[0]} does not fit the int32 "
                             f"{name} property")
        fields += [(name, "i4")]
    dtype = np.dtype([(name, "<" + code) for name, code in fields])
    table = np.zeros(n, dtype=dtype)
    table["x"] = cloud.positions[:, 0].astype(np.float32)
    table["y"] = cloud.positions[:, 1].astype(np.float32)
    table["z"] = cloud.positions[:, 2].astype(np.float32)
    if cloud.colors is not None:
        rgb = np.clip(np.rint(cloud.colors * 255.0), 0, 255).astype(np.uint8)
        table["red"], table["green"], table["blue"] = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    for name, ids in columns.items():
        table[name] = ids

    type_names = {"f4": "float", "u1": "uchar", "i4": "int"}
    header_lines = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header_lines += [f"property {type_names[code]} {name}" for name, code in fields]
    header_lines.append("end_header")
    header = ("\n".join(header_lines) + "\n").encode("ascii")

    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.tobytes())
