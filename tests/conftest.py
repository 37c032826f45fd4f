from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from scanseq.formats import dump_canonical_json, write_manifest
from scanseq.model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation,
                           InstanceMask, SequencePointCloud, StageCloud)
from scanseq.ply import read_ply, write_ply


def make_cloud(n_points: int, seed: int = 0, with_segments: bool = False,
               n_segments: int = 4) -> StageCloud:
    rng = np.random.default_rng(seed)
    segments = rng.integers(0, n_segments, size=n_points) if with_segments else None
    return StageCloud(positions=rng.uniform(-2, 2, size=(n_points, 3)),
                      segment_ids=segments)


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


def write_legacy_manifest(directory, seq, gt, stages=None) -> Path:
    """Write a manifest in the older text-label layout: the PLYs of ``stages``
    (default all) lose their ``instance`` property, and each such stage names
    an ``instance_file`` holding one instance id per line instead."""
    manifest = write_manifest(directory, seq, gt)
    data = json.loads(manifest.read_text())
    for entry in data["stages"]:
        if stages is not None and entry["stage_index"] not in stages:
            continue
        point_path = manifest.parent / entry["point_file"]
        cloud, instances = read_ply(point_path)
        write_ply(point_path, cloud)
        entry["instance_file"] = f"stage_{entry['stage_index']:03d}.instances.txt"
        (manifest.parent / entry["instance_file"]).write_text(
            "".join(f"{i}\n" for i in instances), encoding="ascii")
    dump_canonical_json(manifest, data)
    return manifest


@pytest.fixture
def two_stage_sequence() -> SequencePointCloud:
    return make_sequence([200, 200])
