"""Post-hoc association of independent per-stage 3D predictions into 4D instances.

Two baselines: *semantic* matching pairs same-class predictions across two
stages by mean instance-feature cosine similarity solved as a bipartite
assignment; *geometric* matching transfers stage-1 instance labels to stage-2
points through exact nearest neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import nearest_neighbor_labels
from .model import InstanceMask, StageCloud, _points_by_label


@dataclass(frozen=True)
class StagePrediction:
    """One single-stage predicted instance."""

    class_id: int
    confidence: float
    points: np.ndarray
    feature: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.unique(np.asarray(self.points, dtype=np.int64))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.feature is not None:
            feat = np.asarray(self.feature, dtype=np.float64).ravel()
            feat.flags.writeable = False
            object.__setattr__(self, "feature", feat)


@dataclass(frozen=True)
class StagePredictionSet:
    """All predicted instances of one temporal stage."""

    stage: int
    masks: tuple[StagePrediction, ...]

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(self.masks))


def _cosine_matrix(a_feats: np.ndarray, b_feats: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a_feats, axis=1)
    nb = np.linalg.norm(b_feats, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("zero-norm instance feature")
    return (a_feats @ b_feats.T) / np.outer(na, nb)


def associate_semantic(a: StagePredictionSet, b: StagePredictionSet,
                       similarity_floor: float = 0.0) -> list[InstanceMask]:
    """Merge per-stage predictions by class-wise feature similarity.

    Within each class predicted in both stages, an optimal assignment on
    negative cosine similarity pairs instances; pairs below
    ``similarity_floor`` stay unmatched. Matched pairs become one two-stage
    instance with the mean confidence; everything unmatched stays a
    single-stage instance. Never merges across predicted classes.
    """
    for pset in (a, b):
        if any(m.feature is None for m in pset.masks):
            raise ValueError("semantic association requires instance features")
    merged: list[InstanceMask] = []
    matched_b: set[int] = set()
    next_id = 0
    for class_id in sorted({m.class_id for m in a.masks}):
        a_idx = [i for i, m in enumerate(a.masks) if m.class_id == class_id]
        b_idx = [i for i, m in enumerate(b.masks) if m.class_id == class_id]
        pairs: dict[int, int] = {}
        if a_idx and b_idx:
            sims = _cosine_matrix(np.stack([a.masks[i].feature for i in a_idx]),
                                  np.stack([b.masks[i].feature for i in b_idx]))
            rows, cols = linear_sum_assignment(-sims)
            for r, c in zip(rows, cols):
                if sims[r, c] >= similarity_floor:
                    pairs[a_idx[r]] = b_idx[c]
        for i in a_idx:
            mask_a = a.masks[i]
            if i in pairs:
                j = pairs[i]
                mask_b = b.masks[j]
                matched_b.add(j)
                merged.append(InstanceMask(
                    instance_id=next_id, class_id=class_id,
                    per_stage_points={a.stage: mask_a.points, b.stage: mask_b.points},
                    confidence=(mask_a.confidence + mask_b.confidence) / 2))
            else:
                merged.append(InstanceMask(
                    instance_id=next_id, class_id=class_id,
                    per_stage_points={a.stage: mask_a.points},
                    confidence=mask_a.confidence))
            next_id += 1
    for j, mask_b in enumerate(b.masks):
        if j not in matched_b:
            merged.append(InstanceMask(
                instance_id=next_id, class_id=mask_b.class_id,
                per_stage_points={b.stage: mask_b.points},
                confidence=mask_b.confidence))
            next_id += 1
    return merged


def associate_geometric(a: StagePredictionSet, b_cloud: StageCloud,
                        a_cloud: StageCloud, b_stage: Optional[int] = None) -> list[InstanceMask]:
    """Extend stage-1 instances to stage-2 points via nearest neighbors.

    Every stage-2 point inherits the instance label of its nearest stage-1
    point (exact search, ties to the lowest index). Stage-1 points covered by
    no prediction carry "no instance", which propagates: their nearest
    stage-2 points join no mask. Output instance ids are the positions of the
    stage-1 masks.
    """
    if a_cloud.point_count == 0:
        raise ValueError("stage-1 cloud is empty")
    if b_stage is None:
        b_stage = a.stage + 1
    labels = np.full(a_cloud.point_count, -1, dtype=np.int64)
    priority = sorted(range(len(a.masks)),
                      key=lambda i: (-a.masks[i].confidence, i))
    for i in priority:
        pts = a.masks[i].points
        free = labels[pts] < 0
        labels[pts[free]] = i
    transferred = _points_by_label(nearest_neighbor_labels(a_cloud, labels, b_cloud))
    out = []
    for i, mask in enumerate(a.masks):
        per_stage = {a.stage: mask.points}
        if i in transferred:
            per_stage[b_stage] = transferred[i]
        out.append(InstanceMask(instance_id=i, class_id=mask.class_id,
                                per_stage_points=per_stage,
                                confidence=mask.confidence))
    return out
