from __future__ import annotations

import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from scanseq.model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation,
                           InstanceMask, SequencePointCloud, StageCloud)
from scanseq.formats import dump_canonical_json, write_manifest, write_predictions
from scanseq.ply import _PROPERTY_DTYPES, _decode
from scanseq.synth import SceneRecipe, generate


def make_cloud(n_points: int, seed: int = 0, with_segments: bool = False,
               n_segments: int = 4) -> StageCloud:
    rng = np.random.default_rng(seed)
    segments = rng.integers(0, n_segments, size=n_points) if with_segments else None
    return StageCloud(positions=rng.uniform(-2, 2, size=(n_points, 3)),
                      segment_ids=segments)


def ascii_copy(binary_ply, out=None) -> None:
    """Write the binary little-endian PLY ``binary_ply`` as ascii to ``out``
    (default: in place): the same header with ``format ascii 1.0``, then one
    row per vertex, floats as ``%.9g`` (which spells every float32 exactly)
    and integers as ``%d``."""
    raw = Path(binary_ply).read_bytes()
    table = _decode(raw)
    header = raw[:raw.index(b"end_header\n") + len(b"end_header\n")]
    with open(binary_ply if out is None else out, "wb") as fh:
        fh.write(header.replace(b"format binary_little_endian 1.0", b"format ascii 1.0", 1))
        np.savetxt(fh, table, fmt=["%.9g" if table.dtype[name].kind == "f" else "%d"
                                   for name in table.dtype.names])


def retyped_copy(binary_ply, type_name: str, out=None) -> None:
    """Write the binary little-endian PLY ``binary_ply`` with its ``instance``
    property stored as the PLY type ``type_name`` (``"ushort"``, say), to
    ``out`` (default: in place). Every id must keep its value in that type."""
    raw = Path(binary_ply).read_bytes()
    table = _decode(raw)
    header = raw[:raw.index(b"end_header\n") + len(b"end_header\n")]
    retyped = table.astype([(name, "<" + _PROPERTY_DTYPES[type_name] if name == "instance"
                             else table.dtype[name]) for name in table.dtype.names])
    assert (retyped["instance"] == table["instance"]).all(), f"an id does not fit {type_name}"
    header = re.sub(rb"property \w+ instance\n", b"property %b instance\n" % type_name.encode(),
                    header)
    Path(binary_ply if out is None else out).write_bytes(header + retyped.tobytes())


def list_copy(predictions, out=None) -> None:
    """Write the prediction file ``predictions`` with every ``rle_base64``
    mask as the same runs in a flat JSON list (``"rle"``), to ``out``
    (default: in place), as canonical JSON."""
    data = json.loads(Path(predictions).read_text())
    for entry in data["instances"]:
        for payload in entry["masks"].values():
            raw = base64.b64decode(payload["data"], validate=True)
            payload.update(encoding="rle", data=np.frombuffer(raw, "<i8").tolist())
    dump_canonical_json(predictions if out is None else out, data)


def make_sequence(stage_sizes, seed: int = 0, sequence_id: str = "seq") -> SequencePointCloud:
    return SequencePointCloud(
        stages=tuple(make_cloud(n, seed=seed + t) for t, n in enumerate(stage_sizes)),
        sequence_id=sequence_id)


def mask(instance_id: int, class_id: int, per_stage, confidence: float = 1.0) -> InstanceMask:
    return InstanceMask(instance_id=instance_id, class_id=class_id,
                        per_stage_points={t: np.asarray(p, dtype=np.int64)
                                          for t, p in per_stage.items()},
                        confidence=confidence)


def annotation(instances, groups=(), labels=None) -> GroundTruthAnnotation:
    return GroundTruthAnnotation(
        instances=tuple(instances),
        ambiguous_groups=tuple(AmbiguousGroup(group_id=i, member_instance_ids=m)
                               for i, m in enumerate(groups)),
        change_labels=labels or {})


@pytest.fixture
def two_stage_sequence() -> SequencePointCloud:
    return make_sequence([200, 200])


def association_scene(tmp_path):
    """A 2-stage scene and one single-stage prediction file per stage."""
    recipe = SceneRecipe(seed=6, n_objects=3, n_classes=2, sequence_id="assoc")
    seq, gt = generate(recipe)
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    stage_files = []
    for t in range(2):
        masks = []
        feats = {}
        for inst in sorted(gt.instances, key=lambda m: m.instance_id):
            masks.append(type(inst)(
                instance_id=inst.instance_id, class_id=inst.class_id,
                per_stage_points={t: inst.per_stage_points[t]}, confidence=0.9))
            feats[inst.instance_id] = np.eye(3)[inst.instance_id % 3]
        path = tmp_path / f"stage{t}.json"
        write_predictions(path, masks, "assoc", features=feats)
        stage_files.append(path)
    return manifest, stage_files
