"""4D voxel grids, hierarchical pooling, superpoint pooling, nearest neighbors.

Voxelization quantizes (x, y, z) with floor division and keeps the stage index
as a fourth integer coordinate, so identical spatial cells observed at
different stages are *different* voxels. Hierarchical downsampling floor-halves
the spatial coordinates only; the temporal coordinate is never pooled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (SequencePointCloud, StageCloud, _EMPTY_INDEX, _array, _frozen,
                    _hand_over, _points_by_label)

DEFAULT_RESOLUTION = 0.02  # meters per voxel edge


def _integer_rows(values, name: str, widths: tuple[int, ...]) -> np.ndarray:
    """``values`` as an array of integer rows ``widths`` wide; a float, bool or
    object dtype is rejected rather than truncated."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] not in widths or (arr.size and arr.dtype.kind not in "iu"):
        shape = " or ".join(f"(N, {w})" for w in widths)
        raise ValueError(f"{name} must be an integer array of shape {shape}, "
                         f"got {arr.dtype} {arr.shape}")
    return arr


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
    # equal packed values are equal rows, so no first index (a stable sort) is needed
    unique, inverse = np.unique(packed, return_inverse=True)
    rows = np.empty((len(unique), coords.shape[1]), dtype=coords.dtype)
    rows[inverse] = coords
    return rows, inverse


@dataclass(frozen=True)
class VoxelGrid4D:
    """Integer-quantized 4D coordinates with a duplicate-preserving t axis.

    ``keys`` holds unique (i, j, k, t) rows in lexicographic order;
    ``point_to_voxel`` maps each input point (stage-major global order) to its
    row in ``keys``. ``child_to_parent`` is the pooling map recorded by
    :func:`downsample_level` (None at the finest level). Non-integer keys are a
    ValueError. The arrays are read-only; a writeable array passed in is copied.
    """

    resolution: float
    keys: np.ndarray
    point_to_voxel: np.ndarray
    stage_offsets: np.ndarray
    level: int = 0
    child_to_parent: Optional[np.ndarray] = None

    def __post_init__(self):
        _integer_rows(self.keys, "grid keys", (4,))
        for name in ("keys", "point_to_voxel", "stage_offsets", "child_to_parent"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def num_voxels(self) -> int:
        return len(self.keys)

    @functools.cached_property
    def _bounds(self) -> tuple[tuple[np.integer, ...], tuple[int, ...]]:
        """Each axis's minimum key and span (maximum - minimum), found once:
        the keys are read-only, so they cannot go stale."""
        lo = tuple(c.min() for c in self.keys.T)  # strided columns reduce faster than axis=0
        return lo, tuple(int(c.max()) - int(m) for c, m in zip(self.keys.T, lo))

    def voxel_to_points(self) -> list[np.ndarray]:
        groups = _points_by_label(self.point_to_voxel)
        return [groups.get(v, _EMPTY_INDEX) for v in range(self.num_voxels)]


def voxelize(seq: SequencePointCloud,
             resolution: float = DEFAULT_RESOLUTION) -> VoxelGrid4D:
    """Quantize a sequence into a 4D voxel grid.

    Each point at stage t maps to key (floor(x/res), floor(y/res),
    floor(z/res), t). Duplicate keys within one stage merge; keys never merge
    across stages because t is part of the key.
    """
    if not 0 < resolution < np.inf:  # also false for NaN
        raise ValueError(f"resolution must be a positive finite number, not {resolution}")
    blocks = []
    offsets = [0]
    for t, stage in enumerate(seq.stages):
        pos = stage.positions
        if not np.all(np.isfinite(pos)):
            raise ValueError(f"invalid coordinate: stage {t} has non-finite positions")
        with np.errstate(over="ignore"):  # an infinite quotient is refused below
            cells = np.floor(pos / resolution)
        if not (-2.0 ** 63 <= cells.min() and cells.max() < 2.0 ** 63):
            raise ValueError(f"invalid coordinate: stage {t} has a position that quantizes "
                             f"beyond int64 at resolution {resolution}")
        ijk = cells.astype(np.int64)
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


def _mean_by(inverse: np.ndarray, features, n_groups: int, what: str) -> np.ndarray:
    """Mean feature row per group: row g averages the rows r with inverse[r] == g.

    A 1-D ``features`` is one column; ``what`` names the rows ("point", "voxel")
    in the error raised when their count differs from ``len(inverse)``."""
    feats = _array(features, np.float64, f"{what}_features")
    if feats.ndim == 1:
        feats = feats[:, None]
    if len(feats) != len(inverse):
        raise ValueError(f"{what}_features length must equal {what} count")
    sums = np.zeros((n_groups, feats.shape[1]))
    np.add.at(sums, inverse, feats)
    return sums / np.bincount(inverse, minlength=n_groups)[:, None]


def pool_features_to_voxels(grid: VoxelGrid4D, point_features: np.ndarray) -> np.ndarray:
    """Average per-point features over each voxel (merge policy for duplicates)."""
    return _mean_by(grid.point_to_voxel, point_features, grid.num_voxels, "point")


@dataclass(frozen=True)
class FeatureHierarchy:
    """Aligned (coordinates, features) per level with child->parent pool maps.

    Level r+1 coordinates are the floor-halved (i, j, k) of level r with t
    unchanged; features are mean-pooled along ``pool_maps[r]``. The arrays
    are read-only, under the copy rule of every model array.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    pool_maps: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple((_frozen(coords), _frozen(feats))
                                                 for coords, feats in self.levels))
        object.__setattr__(self, "pool_maps", tuple(_frozen(m) for m in self.pool_maps))


def build_feature_hierarchy(grid: VoxelGrid4D, voxel_features: np.ndarray,
                            n_levels: int) -> FeatureHierarchy:
    feats = _frozen(voxel_features, np.float64, "voxel_features")
    if len(feats) != grid.num_voxels:
        raise ValueError("voxel_features length must equal voxel count")
    levels = [(grid.keys, feats)]
    pool_maps = []
    for _ in range(n_levels - 1):
        grid = downsample_level(grid)
        levels.append((grid.keys, _hand_over(_mean_by(grid.child_to_parent, levels[-1][1],
                                                      grid.num_voxels, "voxel"))))
        pool_maps.append(grid.child_to_parent)
    return FeatureHierarchy(levels=levels, pool_maps=pool_maps)


def pool_superpoint_features(stage: StageCloud,
                             point_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-pool per-point features over superpoints.

    Returns (segment ids ascending, one mean feature row per segment).
    """
    if stage.segment_ids is None:
        raise ValueError("stage has no segment_ids")
    segs, inverse = np.unique(stage.segment_ids, return_inverse=True)
    return segs, _mean_by(inverse, point_features, len(segs), "point")


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
    # imported on call: a command that needs no scipy skips its ~45 MB load
    from scipy.spatial import cKDTree

    tree = cKDTree(source.positions)
    dist, idx = tree.query(query.positions, k=2)
    nearest = idx[:, 0].copy()
    # k=2 exposes exact ties (a one-point source has an infinite second
    # distance, so none); resolve those few over a slightly inflated ball
    # with one consistent distance expression, lowest index winning
    tied = dist[:, 0] == dist[:, 1]
    for q in np.nonzero(tied)[0]:
        radius = dist[q, 0] * (1 + 1e-9) + 1e-12
        cand = np.sort(np.asarray(
            tree.query_ball_point(query.positions[q], r=radius), dtype=np.int64))
        d2 = ((source.positions[cand] - query.positions[q]) ** 2).sum(axis=1)
        nearest[q] = int(cand[d2 == d2.min()].min())
    return labels[nearest]
