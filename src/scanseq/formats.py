"""On-disk formats: sequence manifests, prediction files, evaluation reports.

A *manifest* directory holds one PLY per stage plus per-point instance-id and
class-id text files (one integer per line, -1 for background), tied together
by ``manifest.json`` which also carries the annotations (instance classes,
ambiguous groups, change labels). Prediction files are standalone JSON with
per-stage masks stored either as explicit index lists or as (start, length)
run-length pairs over the sorted indices.

All JSON emitted here is canonical: sorted keys, floats at 6 significant
digits, trailing newline — re-serializing a parsed document is byte-stable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .metrics import EvaluationReport
from .model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation,
                    InstanceMask, SequencePointCloud, StageCloud)
from .ply import read_ply, write_ply

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """A file does not conform to its schema."""


# ---------------------------------------------------------------------------
# Canonical JSON


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def dump_canonical_json(path, payload) -> None:
    text = json.dumps(_round_floats(payload), sort_keys=True,
                      separators=(",", ": "), indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top-level JSON value must be an object")
    return data


# ---------------------------------------------------------------------------
# Run-length encoding of sorted point indices


def rle_encode(indices: np.ndarray) -> list[list[int]]:
    """Maximal (start, length) runs over sorted strictly increasing indices."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return []
    breaks = np.nonzero(np.diff(idx) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [[int(idx[s]), int(idx[e] - idx[s] + 1)] for s, e in zip(starts, ends)]


def rle_decode(runs: Sequence[Sequence[int]]) -> np.ndarray:
    """Expand runs; rejects anything not decoding to strictly increasing indices."""
    out = []
    previous_end = None
    for run in runs:
        if len(run) != 2:
            raise FormatError(f"RLE run must be [start, length], got {run!r}")
        start, length = int(run[0]), int(run[1])
        if length < 1 or start < 0:
            raise FormatError(f"invalid RLE run [{start}, {length}]")
        if previous_end is not None and start < previous_end:
            raise FormatError("RLE runs do not decode to strictly increasing indices")
        out.append(np.arange(start, start + length, dtype=np.int64))
        previous_end = start + length
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _mask_payload(points: np.ndarray, rle: bool) -> dict:
    if rle:
        return {"encoding": "rle", "data": rle_encode(points)}
    return {"encoding": "points", "data": [int(p) for p in points]}


def _mask_from_payload(payload: Mapping) -> np.ndarray:
    encoding = payload.get("encoding")
    if encoding == "rle":
        return rle_decode(payload["data"])
    if encoding == "points":
        return np.asarray(payload["data"], dtype=np.int64)
    raise FormatError(f"unknown mask encoding {encoding!r}")


# ---------------------------------------------------------------------------
# Sequence manifests


def write_manifest(directory, seq: SequencePointCloud, gt: GroundTruthAnnotation,
                   binary_ply: bool = True) -> Path:
    """Write a sequence + annotations as a manifest directory; returns its path."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    stage_entries = []
    for t, stage in enumerate(seq.stages):
        point_file = f"stage_{t:03d}.ply"
        instance_file = f"stage_{t:03d}.instances.txt"
        class_file = f"stage_{t:03d}.classes.txt"
        write_ply(root / point_file, stage, binary=binary_ply)
        inst_col = np.full(stage.point_count, -1, dtype=np.int64)
        class_col = np.full(stage.point_count, -1, dtype=np.int64)
        for mask in gt.instances:
            pts = mask.per_stage_points.get(t)
            if pts is not None:
                inst_col[pts] = mask.instance_id
                class_col[pts] = mask.class_id
        (root / instance_file).write_text(
            "\n".join(str(v) for v in inst_col) + "\n", encoding="ascii")
        (root / class_file).write_text(
            "\n".join(str(v) for v in class_col) + "\n", encoding="ascii")
        stage_entries.append({"stage_index": t, "point_file": point_file,
                              "instance_file": instance_file,
                              "class_file": class_file})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sequence_manifest",
        "sequence_id": seq.sequence_id,
        "stages": stage_entries,
        "annotations": {
            "instances": [{"instance_id": m.instance_id, "class_id": m.class_id}
                          for m in gt.instances],
            "ambiguous_groups": [{"group_id": g.group_id,
                                  "members": list(g.member_instance_ids)}
                                 for g in gt.ambiguous_groups],
            "change_labels": {str(k): v.value for k, v in gt.change_labels.items()},
        },
    }
    dump_canonical_json(root / "manifest.json", manifest)
    return root / "manifest.json"


def _entries(container: Mapping, key: str, fields: Sequence[str], path) -> list:
    """The list ``container[key]``, each entry an object holding ``fields``."""
    entries = container.get(key, [])
    for entry in entries:
        if not isinstance(entry, Mapping) or any(f not in entry for f in fields):
            raise FormatError(f"{path}: every entry of {key} needs {', '.join(fields)}")
    return entries


def read_manifest(path) -> tuple[SequencePointCloud, GroundTruthAnnotation]:
    """Load a manifest; raises :class:`FormatError` on schema problems."""
    path = Path(path)
    data = load_json(path)
    if data.get("kind") not in (None, "sequence_manifest"):
        raise FormatError(f"{path}: not a sequence manifest")
    root = path.parent
    stages: list[StageCloud] = []
    per_stage_instances: list[np.ndarray] = []
    entries = sorted(_entries(data, "stages", ("stage_index", "point_file",
                                               "instance_file", "class_file"), path),
                     key=lambda e: e["stage_index"])
    if [e["stage_index"] for e in entries] != list(range(len(entries))):
        raise FormatError(f"{path}: stage indices must be contiguous from 0")
    for entry in entries:
        cloud = read_ply(root / entry["point_file"])
        inst_path = root / entry["instance_file"]
        if not inst_path.exists():
            raise FormatError(f"{path}: missing instance file {entry['instance_file']}")
        inst_col = np.loadtxt(inst_path, dtype=np.int64, ndmin=1)
        class_path = root / entry["class_file"]
        if not class_path.exists():
            raise FormatError(f"{path}: missing class file {entry['class_file']}")
        class_col = np.loadtxt(class_path, dtype=np.int64, ndmin=1)
        if len(inst_col) != cloud.point_count or len(class_col) != cloud.point_count:
            raise FormatError(
                f"{path}: row counts do not match point count at stage "
                f"{entry['stage_index']}")
        stages.append(cloud)
        per_stage_instances.append(inst_col)

    annotations = data.get("annotations", {})
    class_of = {int(e["instance_id"]): int(e["class_id"])
                for e in _entries(annotations, "instances", ("instance_id", "class_id"), path)}
    per_instance: dict[int, dict[int, np.ndarray]] = {}
    for t, inst_col in enumerate(per_stage_instances):
        for instance_id in np.unique(inst_col):
            if instance_id < 0:
                continue
            per_instance.setdefault(int(instance_id), {})[t] = \
                np.nonzero(inst_col == instance_id)[0]
    masks = []
    for instance_id in sorted(set(class_of) | set(per_instance)):
        if instance_id not in class_of:
            raise FormatError(
                f"{path}: instance {instance_id} appears in point files but "
                f"not in annotations.instances")
        masks.append(InstanceMask(
            instance_id=instance_id, class_id=class_of[instance_id],
            per_stage_points=per_instance.get(instance_id, {}), confidence=1.0))
    groups = tuple(AmbiguousGroup(group_id=int(g["group_id"]),
                                  member_instance_ids=tuple(g["members"]))
                   for g in _entries(annotations, "ambiguous_groups",
                                     ("group_id", "members"), path))
    try:
        labels = {int(k): ChangeType(v)
                  for k, v in annotations.get("change_labels", {}).items()}
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    seq = SequencePointCloud(stages=tuple(stages),
                             sequence_id=data.get("sequence_id", ""))
    return seq, GroundTruthAnnotation(instances=tuple(masks),
                                      ambiguous_groups=groups,
                                      change_labels=labels)


# ---------------------------------------------------------------------------
# Prediction files


@dataclass(frozen=True)
class PredictionFileContent:
    sequence_id: str
    instances: tuple[InstanceMask, ...]
    features: Mapping[int, np.ndarray]  # instance id -> feature vector


def write_predictions(path, instances: Sequence[InstanceMask], sequence_id: str,
                      features: Optional[Mapping[int, np.ndarray]] = None,
                      rle: bool = True) -> None:
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
            "masks": {str(t): _mask_payload(pts, rle)
                      for t, pts in sorted(mask.per_stage_points.items())},
        }
        if features and mask.instance_id in features:
            entry["feature"] = [float(v) for v in features[mask.instance_id]]
        payload["instances"].append(entry)
    dump_canonical_json(path, payload)


def read_predictions(path) -> PredictionFileContent:
    data = load_json(path)
    if data.get("kind") not in (None, "predictions"):
        raise FormatError(f"{path}: not a prediction file")
    masks = []
    features: dict[int, np.ndarray] = {}
    for entry in data.get("instances", []):
        try:
            per_stage = {int(t): _mask_from_payload(p)
                         for t, p in entry["masks"].items()}
            mask = InstanceMask(instance_id=int(entry["instance_id"]),
                                class_id=int(entry["class_id"]),
                                per_stage_points=per_stage,
                                confidence=float(entry.get("confidence", 1.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad prediction entry ({exc})") from exc
        masks.append(mask)
        if "feature" in entry:
            features[mask.instance_id] = np.asarray(entry["feature"], dtype=np.float64)
    return PredictionFileContent(sequence_id=data.get("sequence_id", ""),
                                 instances=tuple(masks), features=features)


# ---------------------------------------------------------------------------
# Evaluation reports


def report_to_dict(report: EvaluationReport) -> dict:
    def tau_key(tau: float) -> str:
        return f"{tau:.2f}"

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "evaluation_report",
        "sequence_id": report.sequence_id,
        "num_stages": report.num_stages,
        "thresholds": list(report.thresholds),
        "t_map": report.t_map,
        "t_map50": report.t_map50,
        "t_map25": report.t_map25,
        "per_class": {
            str(c): {
                "n_ground_truth": report.n_ground_truth[c],
                "ap": {tau_key(t): report.per_class_ap[c][t]
                       for t in report.thresholds},
            } for c in report.class_ids
        },
        "per_change_recall": {ct.value: val
                              for ct, val in sorted(report.per_change_recall.items(),
                                                    key=lambda kv: kv[0].value)},
        "counts": {
            str(c): {tau_key(t): {"tp": tp, "fp": fp, "fn": fn}
                     for t, (tp, fp, fn) in report.counts[c].items()}
            for c in report.class_ids
        },
        "pr_curves": {
            str(c): {tau_key(t): [[r, p] for r, p in report.pr_curves[c][t]]
                     for t in report.thresholds}
            for c in report.class_ids
        },
    }


def write_report(path, report: EvaluationReport,
                 include_change_recall: bool = True) -> None:
    payload = report_to_dict(report)
    if not include_change_recall:
        payload.pop("per_change_recall")
    dump_canonical_json(path, payload)
