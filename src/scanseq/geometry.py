"""4D voxel grids, hierarchical pooling, superpoint pooling, nearest neighbors.

Voxelization quantizes (x, y, z) with floor division and keeps the stage index
as a fourth integer coordinate, so identical spatial cells observed at
different stages are *different* voxels. Hierarchical downsampling floor-halves
the spatial coordinates only; the temporal coordinate is never pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .model import SequencePointCloud, StageCloud, _frozen, _hand_over

DEFAULT_RESOLUTION = 0.02  # meters per voxel edge


def _pack_rows(coords: np.ndarray) -> np.ndarray:
    """Pack integer rows into single int64 scalars preserving lexicographic order."""
    columns = coords.T
    mins = [c.min() for c in columns]
    spans = [int(c.max()) - int(m) + 1 for c, m in zip(columns, mins)]
    if sum(max(s - 1, 1).bit_length() for s in spans) > 62:
        raise ValueError("coordinate extent too large to index")
    packed = np.subtract(columns[0], mins[0], dtype=np.int64)
    # every packed value is below 2^62, so subtracting m undoes any int64
    # wraparound of adding c (unsafe casting admits uint64 keys the same way)
    for c, m, s in zip(columns[1:], mins[1:], spans[1:]):
        packed *= s
        np.add(packed, c, out=packed, dtype=np.int64, casting="unsafe")
        np.subtract(packed, m, out=packed, dtype=np.int64, casting="unsafe")
    return packed


def _unique_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows in lexicographic order plus the row -> unique-row map."""
    packed = _pack_rows(coords)
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    return coords[first], inverse


@dataclass
class VoxelGrid4D:
    """Integer-quantized 4D coordinates with a duplicate-preserving t axis.

    ``keys`` holds unique (i, j, k, t) rows in lexicographic order;
    ``point_to_voxel`` maps each input point (stage-major global order) to its
    row in ``keys``. ``child_to_parent`` is the pooling map recorded by
    :func:`downsample_level` (None at the finest level). The arrays are
    read-only; a writeable array passed in is copied.
    """

    resolution: float
    keys: np.ndarray
    point_to_voxel: np.ndarray
    stage_offsets: np.ndarray
    level: int = 0
    child_to_parent: Optional[np.ndarray] = None
    _voxel_point_order: Optional[np.ndarray] = field(default=None, repr=False)
    _voxel_point_bounds: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("keys", "point_to_voxel", "stage_offsets", "child_to_parent"):
            if getattr(self, name) is not None:
                setattr(self, name, _frozen(getattr(self, name)))

    @property
    def num_voxels(self) -> int:
        return len(self.keys)

    @property
    def num_points(self) -> int:
        return len(self.point_to_voxel)

    def global_index(self, stage: int, local_index) -> np.ndarray:
        return self.stage_offsets[stage] + np.asarray(local_index)

    def points_in_voxel(self, voxel: int) -> np.ndarray:
        """Global point indices mapped to voxel row ``voxel`` (inverse map)."""
        if self._voxel_point_order is None:
            order = np.argsort(self.point_to_voxel, kind="stable")
            bounds = np.searchsorted(self.point_to_voxel[order],
                                     np.arange(self.num_voxels + 1))
            self._voxel_point_order = order
            self._voxel_point_bounds = bounds
        lo, hi = self._voxel_point_bounds[voxel], self._voxel_point_bounds[voxel + 1]
        return self._voxel_point_order[lo:hi]

    def voxel_to_points(self) -> list[np.ndarray]:
        return [self.points_in_voxel(v) for v in range(self.num_voxels)]


def voxelize(seq: SequencePointCloud,
             resolution: float = DEFAULT_RESOLUTION) -> VoxelGrid4D:
    """Quantize a sequence into a 4D voxel grid.

    Each point at stage t maps to key (floor(x/res), floor(y/res),
    floor(z/res), t). Duplicate keys within one stage merge; keys never merge
    across stages because t is part of the key.
    """
    if not (resolution > 0):
        raise ValueError("resolution must be positive")
    blocks = []
    offsets = [0]
    for t, stage in enumerate(seq.stages):
        pos = stage.positions
        if not np.all(np.isfinite(pos)):
            raise ValueError(f"invalid coordinate: stage {t} has non-finite positions")
        ijk = np.floor(pos / resolution).astype(np.int64)
        block = np.empty((len(ijk), 4), dtype=np.int64)
        block[:, :3] = ijk
        block[:, 3] = t
        blocks.append(block)
        offsets.append(offsets[-1] + len(ijk))
    coords = np.concatenate(blocks, axis=0)
    keys, inverse = _unique_rows(coords)
    return VoxelGrid4D(resolution=resolution, keys=_hand_over(keys),
                       point_to_voxel=_hand_over(inverse),
                       stage_offsets=_hand_over(np.asarray(offsets, dtype=np.int64)))


def downsample_level(grid: VoxelGrid4D) -> VoxelGrid4D:
    """Pool a grid one level coarser: spatial coords floor-halved, t unchanged.

    The returned grid records ``child_to_parent`` (child voxel row -> parent
    voxel row) and remaps ``point_to_voxel`` through it.
    """
    coarse = grid.keys.copy()
    coarse[:, :3] = np.floor_divide(coarse[:, :3], 2)
    keys, child_to_parent = _unique_rows(coarse)
    return VoxelGrid4D(resolution=grid.resolution * 2, keys=_hand_over(keys),
                       point_to_voxel=_hand_over(child_to_parent[grid.point_to_voxel]),
                       stage_offsets=grid.stage_offsets,
                       level=grid.level + 1,
                       child_to_parent=_hand_over(child_to_parent))


def pool_features_to_voxels(grid: VoxelGrid4D, point_features: np.ndarray) -> np.ndarray:
    """Average per-point features over each voxel (merge policy for duplicates)."""
    feats = np.asarray(point_features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    if len(feats) != grid.num_points:
        raise ValueError("point_features length must equal point count")
    sums = np.zeros((grid.num_voxels, feats.shape[1]))
    np.add.at(sums, grid.point_to_voxel, feats)
    counts = np.bincount(grid.point_to_voxel, minlength=grid.num_voxels)
    return sums / counts[:, None]


@dataclass
class FeatureHierarchy:
    """Aligned (coordinates, features) per level with child->parent pool maps.

    Level r+1 coordinates are the floor-halved (i, j, k) of level r with t
    unchanged; features are mean-pooled along ``pool_maps[r]``.
    """

    levels: list[tuple[np.ndarray, np.ndarray]]
    pool_maps: list[np.ndarray]

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def build_feature_hierarchy(grid: VoxelGrid4D, voxel_features: np.ndarray,
                            n_levels: int) -> FeatureHierarchy:
    feats = np.asarray(voxel_features, dtype=np.float64)
    if len(feats) != grid.num_voxels:
        raise ValueError("voxel_features length must equal voxel count")
    levels = [(grid.keys, feats)]
    pool_maps = []
    current = grid
    for _ in range(n_levels - 1):
        parent = downsample_level(current)
        cmap = parent.child_to_parent
        child_feats = levels[-1][1]
        sums = np.zeros((parent.num_voxels, child_feats.shape[1]))
        np.add.at(sums, cmap, child_feats)
        counts = np.bincount(cmap, minlength=parent.num_voxels)
        levels.append((parent.keys, sums / counts[:, None]))
        pool_maps.append(cmap)
        current = parent
    return FeatureHierarchy(levels=levels, pool_maps=pool_maps)


def pool_superpoint_features(stage: StageCloud,
                             point_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-pool per-point features over superpoints.

    Returns (segment ids ascending, one mean feature row per segment).
    """
    if stage.segment_ids is None:
        raise ValueError("stage has no segment_ids")
    feats = np.asarray(point_features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    if len(feats) != stage.point_count:
        raise ValueError("point_features length must equal point count")
    segs, inverse = np.unique(stage.segment_ids, return_inverse=True)
    sums = np.zeros((len(segs), feats.shape[1]))
    np.add.at(sums, inverse, feats)
    counts = np.bincount(inverse, minlength=len(segs))
    return segs, sums / counts[:, None]


def nearest_neighbor_labels(source: StageCloud, source_labels,
                            query: StageCloud) -> np.ndarray:
    """Exact nearest-neighbor label transfer with deterministic ties.

    Each query point takes the label of its Euclidean-nearest source point;
    exact distance ties resolve to the lowest source point index.
    """
    if source.point_count == 0:
        raise ValueError("source cloud is empty")
    labels = np.asarray(source_labels)
    if labels.shape[0] != source.point_count:
        raise ValueError("source_labels length must equal source point count")
    tree = cKDTree(source.positions)
    k = min(2, source.point_count)
    dist, idx = tree.query(query.positions, k=k)
    if k == 1:
        return labels[np.atleast_1d(idx)]
    nearest = idx[:, 0].copy()
    # k=2 exposes exact ties; resolve those few over a slightly inflated ball
    # with one consistent distance expression, lowest index winning
    tied = dist[:, 0] == dist[:, 1]
    for q in np.nonzero(tied)[0]:
        radius = dist[q, 0] * (1 + 1e-9) + 1e-12
        cand = np.sort(np.asarray(
            tree.query_ball_point(query.positions[q], r=radius), dtype=np.int64))
        d2 = ((source.positions[cand] - query.positions[q]) ** 2).sum(axis=1)
        nearest[q] = int(cand[d2 == d2.min()].min())
    return labels[nearest]
