"""4D voxel grids, hierarchical pooling, superpoint pooling, nearest neighbors.

Voxelization quantizes (x, y, z) with floor division and keeps the stage index
as a fourth integer coordinate, so identical spatial cells observed at
different stages are *different* voxels. Hierarchical downsampling floor-halves
the spatial coordinates only; the temporal coordinate is never pooled.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (SequencePointCloud, StageCloud, _EMPTY_INDEX, _array, _frozen,
                    _hand_over, _number, _points_by_label)

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


def _field_edges(spans) -> list[int]:
    """Bit edges of the fields of a packed grid word, the first axis highest,
    for axes spanning ``spans`` (maximum - minimum) cells: field a is bits
    ``edges[a + 1]`` to ``edges[a] - 1``, at least 1 wide, 62 in all."""
    edges = [sum(max(s, 1).bit_length() for s in spans[a:]) for a in range(len(spans) + 1)]
    if edges[0] > 62:
        raise ValueError("coordinate extent too large to index")
    return edges


def _unique_keys(words: np.ndarray, edges, lo, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows in lexicographic order plus the row -> unique-row map, from
    rows packed one a uint64 word (overwritten) whose field a holds value a
    less ``lo[a]``, so that word order is row order (see :func:`_field_edges`).

    When the fields leave room for the row index below them, one sort of the
    (word, row) words orders the rows, else an argsort of the words. The keys
    are decoded in ``dtype``, modulo its range.
    """
    row_bits = (len(words) - 1).bit_length()
    if edges[0] + row_bits <= 64:
        words <<= np.uint64(row_bits)
        words |= np.arange(len(words), dtype=np.uint64)
        words.sort()
        order = (words & np.uint64((1 << row_bits) - 1)).view(np.intp)
        words >>= np.uint64(row_bits)
    else:  # equal words are equal rows, so an unstable sort gives the one answer
        order = np.argsort(words)
        words = words[order]
    first = np.ones(len(words), dtype=bool)
    np.not_equal(words[1:], words[:-1], out=first[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    words = words[first]
    keys = np.empty((len(words), len(lo)), dtype=dtype)
    for a, m in enumerate(lo):
        field = words >> np.uint64(edges[a + 1]) & np.uint64((1 << edges[a] - edges[a + 1]) - 1)
        keys[:, a] = field + np.uint64(int(m) % (1 << 64))  # a wrapping cast into dtype
    return keys, inverse


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
        if not self.num_voxels:
            return (self.keys.dtype.type(0),) * 4, (0,) * 4
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
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Real):
        _number(resolution, "resolution")  # its TypeError, naming the field
    if not 0 < resolution < np.inf:  # also false for NaN
        raise ValueError(f"resolution must be a positive finite number, not {resolution}")
    ends = []  # each stage's extreme cells: floor(x / res) is monotone in x
    for t, stage in enumerate(seq.stages):
        ext = np.array([[f(c) for c in stage.positions.T] for f in (np.min, np.max)])
        if not np.all(np.isfinite(ext)):
            raise ValueError(f"invalid coordinate: stage {t} has non-finite positions")
        with np.errstate(over="ignore"):  # an infinite quotient is refused below
            ends.append(np.floor(ext / resolution))
        if not (-2.0 ** 63 <= ends[-1].min() and ends[-1].max() < 2.0 ** 63):
            raise ValueError(f"invalid coordinate: stage {t} has a position that quantizes "
                             f"beyond int64 at resolution {resolution}")
    lo = [int(m) for m in np.min(ends, axis=(0, 1))] + [0]
    edges = _field_edges([int(h) - m for h, m in zip(np.max(ends, axis=(0, 1)), lo)]
                         + [len(seq.stages) - 1])
    # fields do not overlap, so a word is the sum of its cells, each shifted to
    # its field, less that sum for lo: exact in modular uint64 arithmetic
    weights = np.array([1 << e for e in edges[1:4]], dtype=np.uint64)
    origin = sum(m << e for m, e in zip(lo, edges[1:]))
    offsets = np.cumsum([0] + [stage.point_count for stage in seq.stages])
    words = np.empty(offsets[-1], dtype=np.uint64)
    for t, stage in enumerate(seq.stages):
        cells = np.floor(stage.positions / resolution).astype(np.int64).view(np.uint64)
        out = np.matmul(cells, weights, out=words[offsets[t]:offsets[t + 1]])
        out += np.uint64((t - origin) % (1 << 64))
    keys, inverse = _unique_keys(words, edges, lo, np.int64)
    return VoxelGrid4D(resolution=resolution, keys=_hand_over(keys),
                       point_to_voxel=_hand_over(inverse),
                       stage_offsets=_hand_over(offsets))


def downsample_level(grid: VoxelGrid4D) -> VoxelGrid4D:
    """Pool a grid one level coarser: spatial coords floor-halved, t unchanged.

    The returned grid records ``child_to_parent`` (child voxel row -> parent
    voxel row) and remaps ``point_to_voxel`` through it. An empty grid pools
    to an empty grid.
    """
    lo, span = grid._bounds
    halve = (1, 1, 1, 0)  # the shift that floor-halves i, j and k, not t
    parent_lo = [int(m) >> h for m, h in zip(lo, halve)]
    edges = _field_edges([(int(m) + s >> h) - p for m, s, h, p in zip(lo, span, halve, parent_lo)])
    words = np.zeros(grid.num_voxels, dtype=np.uint64)
    for column, h, p, e in zip(grid.keys.T, halve, parent_lo, edges[1:]):
        # floor(c / 2^h) - p is (c - p 2^h) >> h, in modular uint64 arithmetic
        field = np.subtract(column, np.uint64((p << h) % (1 << 64)), dtype=np.uint64,
                            casting="unsafe")
        words |= field >> np.uint64(h) << np.uint64(e)
    keys, child_to_parent = _unique_keys(words, edges, parent_lo, grid.keys.dtype)
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
    # flipping the sign bit maps int64 ids to uint64 words in the same order
    words = stage.segment_ids.view(np.uint64) ^ np.uint64(1 << 63)
    segs, inverse = _unique_keys(words, [64, 0], [-(1 << 63)], np.int64)
    return segs[:, 0], _mean_by(inverse, point_features, len(segs), "point")


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
