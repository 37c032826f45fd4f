"""Post-hoc association of independent per-stage 3D predictions into 4D instances.

Two baselines: *semantic* matching pairs same-class predictions across two
stages by mean instance-feature cosine similarity solved as a bipartite
assignment; *geometric* matching transfers stage-1 instance labels to stage-2
points through exact nearest neighbors.

Each input is a sequence of single-stage :class:`InstanceMask` that all sit at
one stage, and the two inputs sit at two different stages (ValueError
otherwise). Inputs are not range-checked here: ``validate_sequence`` does that.
Output instance ids are positions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .geometry import nearest_neighbor_labels
from .model import InstanceMask, StageCloud, _array, _paint, _points_by_label
from .numerics import _cosine, solve_assignment


def _stage_of(masks: Sequence[InstanceMask]) -> int:
    """The one stage of an association input; ValueError if it has none."""
    if any(len(m.per_stage_points) != 1 for m in masks):
        raise ValueError("association inputs must be single-stage predictions")
    stages = {t for m in masks for t in m.per_stage_points}
    if len(stages) > 1:
        raise ValueError("all masks in one association input must share a stage")
    if not stages:
        raise ValueError("association input has no masks")
    return stages.pop()


def _check_two_stages(a_stage: int, b_stage: int) -> None:
    """ValueError unless the two association inputs sit at different stages."""
    if a_stage == b_stage:
        raise ValueError(f"association inputs must sit at two stages, "
                         f"both sit at stage {a_stage}")


def _feature_violations(masks: Sequence[InstanceMask], features: Mapping[int, np.ndarray],
                        width: Optional[int]) -> tuple[list[str], Optional[int]]:
    """Findings on the features of one semantic-association input, and the
    feature length found: every instance needs a finite, nonzero 1-D feature,
    all of one length (``width``, once an input has set it)."""
    found = []
    for m in masks:
        vec = features.get(m.instance_id)
        vec = vec if vec is None else _array(vec, np.float64, "feature")
        if vec is None:
            problem = "has no feature"
        elif vec.ndim != 1 or not np.isfinite(vec).all() or not vec.any():
            problem = "has a feature that is not a finite, nonzero 1-D vector"
        elif width is not None and vec.size != width:
            problem = f"has a feature of length {vec.size}, not {width}"
        else:
            width = vec.size
            continue
        found.append(f"invalid_feature: instance {m.instance_id} {problem}")
    return found, width


def _feature_rows(masks: Sequence[InstanceMask], features: Mapping[int, np.ndarray],
                  idx: list[int]) -> np.ndarray:
    return np.stack([_array(features[masks[i].instance_id], np.float64, "feature")
                     for i in idx])


def associate_semantic(a: Sequence[InstanceMask], b: Sequence[InstanceMask],
                       a_features: Mapping[int, np.ndarray],
                       b_features: Mapping[int, np.ndarray]) -> list[InstanceMask]:
    """Merge per-stage predictions by class-wise feature similarity.

    ``a_features`` and ``b_features`` map instance id to feature vector (as
    ``PredictionFileContent.features``): every instance of both inputs needs
    a finite, nonzero 1-D feature, all of one length, else a ValueError names
    each instance that breaks the rule. Within each class predicted in both
    stages, an optimal assignment on negative cosine similarity pairs
    instances; a pair of negative similarity stays unmatched. Matched pairs
    become one two-stage instance with the mean confidence; everything
    unmatched stays a single-stage instance. Never merges across predicted
    classes.
    """
    _check_two_stages(_stage_of(a), _stage_of(b))
    found, width = [], None
    for masks, features in ((a, a_features), (b, b_features)):
        problems, width = _feature_violations(masks, features, width)
        found += problems
    if found:
        raise ValueError("semantic association requires instance features: "
                         + "; ".join(found))
    merged: list[InstanceMask] = []
    matched_b: set[int] = set()
    for class_id in sorted({m.class_id for m in a}):
        a_idx = [i for i, m in enumerate(a) if m.class_id == class_id]
        b_idx = [i for i, m in enumerate(b) if m.class_id == class_id]
        pairs: dict[int, int] = {}
        if a_idx and b_idx:
            sims = _cosine(_feature_rows(a, a_features, a_idx),
                           _feature_rows(b, b_features, b_idx))
            for r, c in solve_assignment(-sims)[0]:
                if sims[r, c] >= 0.0:
                    pairs[a_idx[r]] = b_idx[c]
        for i in a_idx:
            mask_a = a[i]
            if i in pairs:
                mask_b = b[pairs[i]]
                matched_b.add(pairs[i])
                merged.append(InstanceMask(
                    instance_id=len(merged), class_id=class_id,
                    per_stage_points={**mask_a.per_stage_points,
                                      **mask_b.per_stage_points},
                    confidence=(mask_a.confidence + mask_b.confidence) / 2))
            else:
                merged.append(replace(mask_a, instance_id=len(merged)))
    for j, mask_b in enumerate(b):
        if j not in matched_b:
            merged.append(replace(mask_b, instance_id=len(merged)))
    return merged


def associate_geometric(a: Sequence[InstanceMask], b_cloud: StageCloud,
                        a_cloud: StageCloud, b_stage: int) -> list[InstanceMask]:
    """Extend stage-1 instances to stage-2 points via nearest neighbors.

    Every stage-2 point inherits the instance label of its nearest stage-1
    point (exact search, ties to the lowest index). Where stage-1 masks
    overlap, a point belongs to the most confident, then the earliest, of
    them. Stage-1 points covered by no prediction carry "no instance", which
    propagates: their nearest stage-2 points join no mask. The transferred
    points sit at stage ``b_stage``, which must differ from the stage of ``a``.
    """
    if a_cloud.point_count == 0:
        raise ValueError("stage-1 cloud is empty")
    a_stage = _stage_of(a)
    _check_two_stages(a_stage, b_stage)
    priority = sorted(range(len(a)), key=lambda i: (-a[i].confidence, i))
    labels = _paint([m.per_stage_points[a_stage] for m in a], priority[::-1], a_cloud.point_count)
    labels = nearest_neighbor_labels(a_cloud, labels, b_cloud)
    transferred = _points_by_label(labels.astype(np.intp) - 1)  # unsigned 0 - 1 wraps
    out = []
    for i, mask in enumerate(a):
        per_stage = dict(mask.per_stage_points)
        if i in transferred:
            per_stage[b_stage] = transferred[i]
        out.append(InstanceMask(instance_id=i, class_id=mask.class_id,
                                per_stage_points=per_stage,
                                confidence=mask.confidence))
    return out
