"""On-disk formats: sequence manifests, prediction files, evaluation reports.

A *manifest* directory holds one PLY per stage, whose int ``instance``
vertex property gives each point's instance id (-1 for background), tied
together by ``manifest.json`` which also carries the annotations (instance
classes, ambiguous groups, change labels).
Prediction files are standalone JSON with per-stage masks stored as run-length
data over the sorted indices, the flat runs ``[start0, length0, start1,
length1, ...]``: written as base64 of little-endian int64 (``"rle_base64"``),
read also as a JSON list (``"rle"``). A file's masks are decoded together,
into one buffer.

All JSON emitted here is canonical: sorted keys, no whitespace, floats at 6
significant digits, trailing newline — a parsed document re-dumps to the same bytes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .metrics import EvaluationReport, _label_sizes, _tau_key
from .model import (AmbiguousGroup, GroundTruthAnnotation, InstanceMask, SequencePointCloud,
                    _LabelColumns, _StageSizes, _array, _hand_over, _int_key, _is,
                    _mask_fields, _points_by_label)
from .ply import _read_labels, read_ply, write_ply

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """A file does not conform to its schema."""


# ---------------------------------------------------------------------------
# Canonical JSON


@functools.lru_cache(maxsize=1 << 12)  # a report's PR curves repeat each value ~40 times
def _round6(value: float) -> float:
    return float(f"{value:.6g}")


def _to_json(value):
    """Callers' numpy arrays and scalars as JSON types; floats at 6 significant digits."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist() if value.dtype.kind in "biu" else _to_json(value.tolist())
    if isinstance(value, float):
        return _round6(value) if value else value  # ±0.0: one cache key, each its own rounding
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return value


_TEXT_BLOCK = 1 << 14  # values turned into digits at once, never a whole array


def _int_array_text(a: np.ndarray) -> bytes:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` of a 1-D integer array,
    as bytes, with no Python int per value: a block's values are the rows of a
    uint8 matrix (sign, digits right-aligned, comma) whose nonzero bytes are kept."""
    blocks = []
    for lo in range(0, a.size, _TEXT_BLOCK):
        block = a[lo:lo + _TEXT_BLOCK]
        mag = block.astype(np.uint64)
        np.negative(mag, out=mag, where=block < 0)  # modulo 2^64: exact for int64 min too
        top = int(mag.max())
        mag = mag.astype(np.uint32) if top < 1 << 32 else mag  # a narrower division is faster
        text = np.empty((block.size, len(str(top)) + 2), np.uint8)
        text[:, 0] = (block < 0) * np.uint8(ord("-"))
        text[:, -1] = ord(",")
        for col in range(text.shape[1] - 2, 0, -1):
            quot = mag // 10
            # a place left of a value's first digit (mag is 0 there) is a 0 byte
            text[:, col] = (mag - quot * 10) | (mag != 0) * np.uint32(ord("0"))
            mag = quot
        text[:, -2] |= ord("0")  # 0 is written "0"
        blocks.append(text.tobytes())
    return b"[" + b"".join(blocks).translate(None, b"\0")[:-1] + b"]"


def dump_canonical_json(path, payload) -> None:
    """Write canonical JSON; a NaN or infinity is a ValueError, and nothing is written.
    A 1-D integer array as a member of the top-level object is written by
    :func:`_int_array_text`, in the bytes ``json.dumps`` gives."""
    def text(value) -> bytes:
        if type(value) is np.ndarray and value.ndim == 1 and value.dtype.kind in "iu":
            return _int_array_text(value)
        return json.dumps(_to_json(value), sort_keys=True, separators=(",", ":"),
                          allow_nan=False).encode()

    if isinstance(payload, dict) and all(isinstance(k, str) for k in payload):
        Path(path).write_bytes(b"{" + b",".join(json.dumps(k).encode() + b":" + text(payload[k])
                                                for k in sorted(payload)) + b"}\n")
    else:
        Path(path).write_bytes(text(payload) + b"\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a FormatError, since
    the last value would silently replace the first."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"an object repeats the key {key!r}")
            seen.add(key)
    return data


def load_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top-level JSON value must be an object")
    return data


# ---------------------------------------------------------------------------
# Run-length encoding of sorted point indices


def rle_encode(indices: np.ndarray) -> np.ndarray:
    """Maximal runs over sorted strictly increasing indices, as the flat int64
    array ``[s0, l0, s1, l1, ...]`` that prediction files store and
    :func:`rle_decode` expands."""
    idx = _array(indices, np.int64, "indices")
    heads = np.flatnonzero(np.diff(idx, prepend=idx[:1] - 2) != 1)  # idx[0] always heads
    return np.stack((idx[heads], np.diff(heads, append=idx.size)), axis=1).ravel()


def rle_decode(runs: Sequence[int] | str, stage_size: Optional[int] = None) -> np.ndarray:
    """Expand the flat runs ``[s0, l0, s1, l1, ...]`` that :func:`rle_encode`
    gives, as a list or as the base64 string that prediction files hold, into
    a read-only array.

    Rejects any other layout (a list of ``[start, length]`` pairs too), a
    bool among the values, anything not decoding to strictly increasing
    indices, and any run that ends past ``stage_size`` (when given) or beyond
    int64.
    """
    return _decode_runs([(_base64_runs if isinstance(runs, str) else _list_runs)(runs)],
                        [stage_size])[0]


_INT64_MAX = np.iinfo(np.int64).max
_RUN_BYTES = 16  # one run: its start and its length as little-endian int64


def _list_runs(data) -> np.ndarray:
    """Flat runs given as a sequence of integers, as an int64 array."""
    try:
        arr = _array(data, np.int64, "RLE data")
    except (TypeError, ValueError) as exc:  # not integral, beyond int64 or ragged
        raise FormatError(str(exc)) from exc
    if arr.ndim != 1 or arr.size % 2:
        raise FormatError(f"RLE data must be one flat list [s0, l0, s1, l1, ...] of "
                          f"even length, not an array of shape {arr.shape}")
    return arr


def _base64_runs(data) -> np.ndarray:
    """Flat runs given as standard, padded base64 of little-endian int64, as an
    int64 array."""
    import base64  # imported on call: a command that reads no predictions skips it
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:  # not a string, or not in the alphabet
        raise FormatError(f"rle_base64 data is not padded standard base64 ({exc})") from exc
    if len(raw) % _RUN_BYTES:
        raise FormatError(f"rle_base64 data decodes to {len(raw)} bytes, not a whole "
                          f"number of {_RUN_BYTES}-byte [start, length] runs")
    return np.frombuffer(raw, dtype="<i8")


def _payload_runs(payload) -> np.ndarray:
    """The flat runs of one stage mask of a prediction file."""
    if not isinstance(payload, Mapping):
        raise FormatError("a stage mask must be an object")
    encoding = payload.get("encoding")
    if encoding == "rle_base64":
        return _base64_runs(payload["data"])
    if encoding == "rle":
        return _list_runs(payload["data"])
    # "points" index lists too: flat RLE is the one mask layout
    raise FormatError(f"mask encoding {encoding!r} is not read; write each mask as "
                      f"flat RLE runs [s0, l0, s1, l1, ...], as rle_encode gives them")


def _decode_runs(arrays: Sequence[np.ndarray], stage_sizes: Sequence[Optional[int]]
                 ) -> list[np.ndarray]:
    """Expand the flat runs of many masks at once: read-only views of one buffer.

    Every run of ``arrays[i]`` must end within ``stage_sizes[i]`` points (or
    within int64 when it is None), and each array's runs must decode to
    strictly increasing indices. The first array with a faulty run raises a
    :class:`FormatError`, and runs that expand to more indices than an int64
    array holds (intp max // 8) a MemoryError, before anything is expanded.
    """
    if not arrays:
        return []
    counts = np.fromiter((a.size // 2 for a in arrays), np.int64, len(arrays))
    offsets = np.cumsum(counts)  # each array's end in the runs, the next one's first run
    starts, lengths = np.concatenate(arrays, dtype=np.int64).reshape(-1, 2).T
    limits = np.array([_INT64_MAX if n is None else n for n in stage_sizes], np.int64)
    # limit - start and start + length wrap only at a bad run, whose array is refused
    bad = np.flatnonzero((starts < 0) | (lengths < 1)
                         | (lengths > np.repeat(limits, counts) - starts))
    ends = starts + lengths
    crossing = np.flatnonzero(starts[1:] < ends[:-1]) + 1  # runs that start in the one before
    crossing = crossing[offsets[np.searchsorted(offsets, crossing)] != crossing]  # in its array
    first_bad, first_crossing = np.searchsorted(  # the arrays holding the first of each
        offsets, [np.append(bad, starts.size)[0], np.append(crossing, starts.size)[0]],
        side="right")
    if first_bad < len(arrays) and first_bad <= first_crossing:
        run = bad[0]
        size = stage_sizes[first_bad]
        within = "" if size is None else f" in a stage of {size} points"
        raise FormatError(f"invalid RLE run [{starts[run]}, {lengths[run]}]{within}")
    if first_crossing < len(arrays):
        raise FormatError("RLE runs do not decode to strictly increasing indices")
    total = (int((lengths >> 32).sum()) << 32) + int((lengths & 0xFFFFFFFF).sum())  # exact
    if total > np.iinfo(np.intp).max // 8:  # numpy counts an array's bytes in intp
        raise MemoryError("RLE runs expand to more indices than any buffer holds")
    # Each index is the one before it plus 1, except at a run's head, which
    # jumps from the previous run's last index to its own start: one buffer of
    # ones, the jumps written in, and a cumulative sum in place.
    heads = np.cumsum(lengths) - lengths  # output position of each run's start
    out = np.ones(total, np.int64)
    if out.size:
        out[0] = starts[0]
        out[heads[1:]] = starts[1:] - ends[:-1] + 1
        np.cumsum(out, out=out)
    bounds = np.append(heads, out.size)[offsets].tolist()  # each array's end
    _hand_over(out)
    return [out[a:b] for a, b in zip([0, *bounds], bounds)]


# ---------------------------------------------------------------------------
# Sequence manifests


def write_manifest(directory, seq: SequencePointCloud, gt: GroundTruthAnnotation) -> Path:
    """Write a sequence + annotations as a manifest directory; returns its path.

    A negative ground-truth instance id is a ValueError: the stage PLY's
    ``instance`` property marks background points with -1.
    """
    for mask in gt.instances:
        if mask.instance_id < 0:
            raise ValueError(f"ground-truth instance id {mask.instance_id} is "
                             f"negative; -1 marks background")
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    stage_entries = []
    for t, stage in enumerate(seq.stages):
        point_file = f"stage_{t:03d}.ply"
        inst_col = np.full(stage.point_count, -1, dtype=np.int64)
        for mask in gt.instances:
            pts = mask.points_at(t)
            other = inst_col[pts].max(initial=-1)
            if other >= 0:
                raise ValueError(
                    f"ground-truth instances {other} and {mask.instance_id} share "
                    f"points at stage {t}; a manifest holds one instance per point")
            inst_col[pts] = mask.instance_id
        write_ply(root / point_file, stage, instances=inst_col)
        stage_entries.append({"stage_index": t, "point_file": point_file})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sequence_manifest",
        "sequence_id": seq.sequence_id,
        "stages": stage_entries,
        "annotations": {
            "instances": [{"instance_id": m.instance_id, "class_id": m.class_id}
                          for m in gt.instances],
            "ambiguous_groups": [{"group_id": g.group_id,
                                  "members": g.member_instance_ids}
                                 for g in gt.ambiguous_groups],
            "change_labels": {str(k): v.value for k, v in gt.change_labels.items()},
        },
    }
    dump_canonical_json(root / "manifest.json", manifest)
    return root / "manifest.json"


def _check_schema_version(data: Mapping, path) -> None:
    """A document may omit ``schema_version``; otherwise it must be this one."""
    version = data.get("schema_version", SCHEMA_VERSION)
    if not (_is(version, int) and version == SCHEMA_VERSION):
        raise FormatError(f"{path}: unsupported schema_version {version!r} "
                          f"(this reader reads {SCHEMA_VERSION})")


def _entries(container: Mapping, key: str, fields: Mapping[str, type], path) -> list:
    """The list ``container[key]``, each entry an object holding ``fields``
    with values of the given types."""
    entries = container.get(key, [])
    if not isinstance(entries, list) or not all(
            isinstance(e, Mapping)
            and all(_is(e.get(f), t) for f, t in fields.items()) for e in entries):
        needs = ", ".join(f"{f} ({t.__name__})" for f, t in fields.items())
        raise FormatError(f"{path}: {key} must be a list of objects with {needs}")
    return entries


def _sequence_id(data: Mapping, path) -> str:
    sequence_id = data.get("sequence_id", "")
    if not isinstance(sequence_id, str):
        raise FormatError(f"{path}: sequence_id must be a string, not {sequence_id!r}")
    return sequence_id


def _object(container: Mapping, key: str, path) -> Mapping:
    value = container.get(key, {})
    if not isinstance(value, Mapping):
        raise FormatError(f"{path}: {key} must be an object")
    return value


def read_manifest(path) -> tuple[SequencePointCloud, GroundTruthAnnotation]:
    """Load a manifest; raises :class:`FormatError` on schema problems."""
    seq, columns = _read_manifest(path, geometry=True)
    points: list[dict[int, np.ndarray]] = [{} for _ in columns.instance_ids]
    for t, (layer,) in columns.layers.items():
        for j, pts in _points_by_label(layer - 1).items():  # -1: no instance
            points[j][t] = pts
    return seq, GroundTruthAnnotation(
        tuple(map(InstanceMask, columns.instance_ids, columns.class_ids, points)),
        columns.ambiguous_groups, columns.change_labels)


def _label_layer(column: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Each point's index into ``ids`` (ascending) + 1, 0 at the background's
    -1 and -1 at an id ``ids`` lacks, in the smallest signed type that holds
    -1 and ``len(ids)``: read from a table indexed by id while the largest id
    is below the point count, else found by binary search. ``column`` is of a
    signed type."""
    dtype = np.min_scalar_type(-len(ids) - 1)
    top = int(column.max(initial=-1))
    if top < column.size:
        table = np.full(top + 2, -1, dtype=dtype)
        table[-1] = 0  # what the background's -1 reads
        inside = np.flatnonzero((ids >= 0) & (ids <= top))
        table[ids[inside]] = inside + 1
        return table[column]
    pos = np.searchsorted(ids, column)
    layer = np.where(np.append(ids, -2)[pos] == column, pos + 1, -1).astype(dtype)
    layer[column < 0] = 0
    return layer


def _read_manifest(path, geometry: bool):
    """:func:`read_manifest`, the ground truth as label columns and no mask.
    Without ``geometry`` the sequence is a :class:`~scanseq.model._StageSizes`:
    the stage PLYs pass every check of :func:`read_ply`, but only their point
    counts and ``instance`` columns are kept."""
    path = Path(path)
    data = load_json(path)
    if data.get("kind") not in (None, "sequence_manifest"):
        raise FormatError(f"{path}: not a sequence manifest")
    _check_schema_version(data, path)
    root = path.parent
    stages: list = []  # StageClouds with geometry, else point counts
    per_stage_instances: list[np.ndarray] = []
    entries = sorted(_entries(data, "stages", {"stage_index": int, "point_file": str},
                              path), key=lambda e: e["stage_index"])
    if [e["stage_index"] for e in entries] != list(range(len(entries))):
        raise FormatError(f"{path}: stage indices must be contiguous from 0")
    for entry in entries:
        if "instance_file" in entry:  # refused, not ignored: its writer expects those ids scored
            raise FormatError(
                f"{path}: stage {entry['stage_index']} names an instance_file; instance "
                f"ids are read only from the stage PLY's instance property")
        point_path = root / entry["point_file"]
        stage, inst_col = (read_ply if geometry else _read_labels)(point_path)
        stages.append(stage)
        if inst_col is None:
            raise FormatError(f"{point_path}: has no instance property")
        low = inst_col.min(initial=-1)
        if low < -1:  # neither an instance nor the background
            raise FormatError(f"{point_path}: instance id {low} is below -1, "
                              f"the background mark")
        per_stage_instances.append(inst_col)

    annotations = _object(data, "annotations", path)
    class_of = {e["instance_id"]: e["class_id"] for e in _entries(
        annotations, "instances", {"instance_id": int, "class_id": int}, path)}
    ids = sorted(class_of)
    known = np.array([min(max(i, -2), _INT64_MAX) for i in ids], np.int64)  # no PLY id beyond
    layers, sizes, unknown = {}, {}, []
    for t, inst_col in enumerate(per_stage_instances):
        layers[t] = (_label_layer(inst_col, known),)
        try:
            sizes[t] = _label_sizes(layers[t][0], len(ids))
        except ValueError:  # a -1: an id not annotated
            unknown.append(int(inst_col[layers[t][0] < 0].min()))
        per_stage_instances[t] = None  # each column freed once mapped
    if unknown:
        raise FormatError(f"{path}: instance {min(unknown)} appears in point files but "
                          f"not in annotations.instances")
    groups = _entries(annotations, "ambiguous_groups",
                      {"group_id": int, "members": list}, path)
    change_labels = _object(annotations, "change_labels", path)
    try:
        groups = tuple(AmbiguousGroup(g["group_id"], tuple(g["members"])) for g in groups)
        gt = GroundTruthAnnotation((), groups, change_labels)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    sequence_id = _sequence_id(data, path)
    try:  # a sequence without stages or with an empty one is invalid, not malformed
        seq = (SequencePointCloud(stages=tuple(stages), sequence_id=sequence_id)
               if geometry else _StageSizes(tuple(stages), sequence_id))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return seq, _LabelColumns(tuple(ids), tuple(class_of[i] for i in ids), layers, sizes,
                              gt.ambiguous_groups, gt.change_labels)


# ---------------------------------------------------------------------------
# Prediction files


@dataclass(frozen=True)
class PredictionFileContent:
    sequence_id: str
    instances: tuple[InstanceMask, ...]
    features: Mapping[int, np.ndarray]  # instance id -> feature vector


def write_predictions(path, instances: Sequence[InstanceMask], sequence_id: str,
                      features: Optional[Mapping[int, np.ndarray]] = None) -> None:
    import base64  # imported on call: a command that writes no predictions skips it

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "predictions",
        "sequence_id": sequence_id,
        "instances": [],
    }
    for mask in instances:
        entry = {
            "instance_id": mask.instance_id,
            "class_id": mask.class_id,
            "confidence": mask.confidence,
            "masks": {str(t): {"encoding": "rle_base64", "data": base64.b64encode(
                rle_encode(pts).astype("<i8", copy=False).tobytes()).decode("ascii")}
                      for t, pts in sorted(mask.per_stage_points.items())},
        }
        if features and mask.instance_id in features:
            entry["feature"] = features[mask.instance_id]
        payload["instances"].append(entry)
    dump_canonical_json(path, payload)


_ENTRY_FAULTS = (KeyError, TypeError, ValueError, OverflowError)


def read_predictions(path, stage_sizes: Optional[Sequence[int]] = None
                     ) -> PredictionFileContent:
    """Load a prediction file; raises :class:`FormatError` on schema problems,
    naming the first faulty entry in file order.

    One scan checks each entry whole (its masks' keys and payloads, then
    ``instance_id``, ``class_id`` and ``confidence``, then ``feature``) and
    stops at the first faulty one, and the parsed document is freed. One
    :func:`_decode_runs` pass (the kernel that :func:`rle_decode` wraps) then
    expands every mask read, into read-only views of one buffer that the masks
    keep, 8 bytes a point; a faulty run it finds, in that entry or an earlier
    one, is named in place of the scan's fault.
    With ``stage_sizes`` (points per stage of the sequence the predictions
    are for), a run that ends past its stage is such a fault. A stage the
    sequence lacks is bounded by its largest stage, and left to
    :func:`validate_sequence` to report.
    """
    data = load_json(path)
    if data.get("kind") not in (None, "predictions"):
        raise FormatError(f"{path}: not a prediction file")
    _check_schema_version(data, path)
    sequence_id = _sequence_id(data, path)
    size_of = dict(enumerate(stage_sizes or ()))
    largest = max(size_of.values(), default=None)
    stages, runs, bounds = [], [], []  # one each per stage mask
    fields, features = [], {}  # (masks, id, class, confidence) per entry; id -> feature
    fault = None
    for entry in _entries(data, "instances", {"masks": dict}, path):
        try:
            for t, payload in entry["masks"].items():
                t = _int_key(t)
                runs.append(_payload_runs(payload))
                stages.append(t)
                bounds.append(size_of.get(t, largest))
            fields.append((len(entry["masks"]), *_mask_fields(
                entry["instance_id"], entry["class_id"], entry.get("confidence", 1.0))))
            if "feature" in entry:
                features[fields[-1][1]] = _array(entry["feature"], np.float64, "feature")
        except _ENTRY_FAULTS as exc:
            fault = exc
            break
    del data  # the runs are read: the decode does not hold the parsed document
    try:
        points = _decode_runs(runs, bounds)
    except FormatError as exc:  # in the faulty entry or an earlier one
        fault = exc
    if fault is not None:
        raise FormatError(f"{path}: bad prediction entry ({fault})") from fault
    masks = []
    at = 0  # the entry's first stage mask
    for n, instance_id, class_id, confidence in fields:
        masks.append(InstanceMask(instance_id, class_id,
                                  dict(zip(stages[at:at + n], points[at:at + n])), confidence))
        at += n
    return PredictionFileContent(sequence_id=sequence_id, instances=tuple(masks),
                                 features=features)


# ---------------------------------------------------------------------------
# Evaluation reports


def report_to_dict(report: EvaluationReport) -> dict:
    """A report as a JSON object; a threshold its key would misspell is a ValueError."""
    keys = {t: _tau_key(t) for t in report.thresholds}
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "evaluation_report",
        "sequence_id": report.sequence_id,
        "num_stages": report.num_stages,
        "thresholds": report.thresholds,
        "t_map": report.t_map,
        "t_map50": report.t_map50,
        "t_map25": report.t_map25,
        "per_class": {
            str(c): {
                "n_ground_truth": report.n_ground_truth[c],
                "ap": {keys[t]: report.per_class_ap[c][t] for t in report.thresholds},
            } for c in report.class_ids
        },
        "per_change_recall": {ct.value: val
                              for ct, val in sorted(report.per_change_recall.items(),
                                                    key=lambda kv: kv[0].value)},
        "counts": {
            str(c): {keys[t]: {"tp": tp, "fp": fp, "fn": fn}
                     for t, (tp, fp, fn) in report.counts[c].items()}
            for c in report.class_ids
        },
        "pr_curves": {
            str(c): {keys[t]: report.pr_curves[c][t] for t in report.thresholds}
            for c in report.class_ids
        },
    }

