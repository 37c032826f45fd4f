from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from scanseq.geometry import (VoxelGrid4D, build_feature_hierarchy,
                              downsample_level, nearest_neighbor_labels,
                              pool_features_to_voxels, pool_superpoint_features,
                              voxelize)
from scanseq.model import SequencePointCloud, StageCloud
from scanseq.numerics import st_pool_masks

import oracles
from conftest import make_sequence


def seq_from_positions(*stage_positions):
    return SequencePointCloud(
        stages=tuple(StageCloud(positions=np.asarray(p, dtype=float))
                     for p in stage_positions),
        sequence_id="geo")


def test_points_in_one_cell_merge():
    seq = seq_from_positions([[0.001, 0, 0], [0.015, 0, 0]])
    grid = voxelize(seq, resolution=0.02)
    assert grid.num_voxels == 1
    assert grid.keys.tolist() == [[0, 0, 0, 0]]


def test_identical_point_in_two_stages_stays_separate():
    seq = seq_from_positions([[0.01, 0, 0]], [[0.01, 0, 0]])
    grid = voxelize(seq, resolution=0.02)
    assert grid.num_voxels == 2
    assert sorted(grid.keys.tolist()) == [[0, 0, 0, 0], [0, 0, 0, 1]]


def test_voxel_count_matches_hash_set_oracle():
    rng = np.random.default_rng(7)
    positions = rng.uniform(0, 1, size=(1000, 3))
    seq = seq_from_positions(positions)
    grid = voxelize(seq, resolution=0.02)
    assert grid.num_voxels == oracles.brute_force_voxel_count([positions], 0.02)


def test_voxelize_rejects_bad_input():
    seq = seq_from_positions([[0.0, 0.0, np.nan]])
    with pytest.raises(ValueError, match="invalid coordinate"):
        voxelize(seq, resolution=0.02)


@pytest.mark.parametrize("resolution", [0.0, -0.5, np.inf, np.nan])
def test_voxelize_refuses_a_resolution_that_is_not_positive_and_finite(resolution):
    # an infinite resolution would put every point of a stage in one voxel
    with pytest.raises(ValueError, match="resolution must be a positive finite number"):
        voxelize(make_sequence([5]), resolution=resolution)


def test_point_to_voxel_covers_every_point_once():
    seq = make_sequence([40, 60], seed=3)
    grid = voxelize(seq, resolution=0.5)
    assert len(grid.point_to_voxel) == 100
    sizes = [pts.size for pts in grid.voxel_to_points()]
    assert sum(sizes) == 100


def test_downsample_pools_spatially_not_temporally():
    seq = seq_from_positions([[0.0, 0.0, 0.0], [0.03, 0.03, 0.03]],
                             [[0.0, 0.0, 0.0]])
    grid = voxelize(seq, resolution=0.02)
    # stage 0 has voxels (0,0,0,0) and (1,1,1,0); stage 1 has (0,0,0,1)
    coarse = downsample_level(grid)
    assert sorted(coarse.keys.tolist()) == [[0, 0, 0, 0], [0, 0, 0, 1]]
    again = downsample_level(coarse)
    assert sorted(again.keys.tolist()) == [[0, 0, 0, 0], [0, 0, 0, 1]]


def test_downsample_matches_per_key_recomputation():
    seq = make_sequence([300, 200], seed=11)
    grid = voxelize(seq, resolution=0.1)
    coarse = downsample_level(grid)
    for child_row, parent_row in enumerate(coarse.child_to_parent):
        child = grid.keys[child_row]
        expected = [child[0] // 2, child[1] // 2, child[2] // 2, child[3]]
        assert coarse.keys[parent_row].tolist() == expected


@pytest.mark.parametrize("k", [0, 1, 7, 20, 40])
@pytest.mark.parametrize("extra", [0, 1])
def test_voxelize_and_downsample_equal_unique_rows(k, extra):
    # one axis spans 2^k or 2^k + 1 cells, the exact edges of a packed field
    rng = np.random.default_rng([k, extra])
    span = (1 << k) + extra
    stages, coords = [], []
    for t in range(2):
        ijk = np.column_stack([rng.integers(0, span, 60), rng.integers(0, 5, 60),
                               rng.integers(0, 3, 60)]) - [1 << 10, 3, 0]
        ijk[:2, 0] = [-(1 << 10), span - 1 - (1 << 10)]  # both ends of the span
        stages.append(ijk + 0.5)
        coords.append(np.column_stack([ijk, np.full(60, t)]))
    coords = np.concatenate(coords)
    grid = voxelize(seq_from_positions(*stages), resolution=1.0)
    keys, inverse = np.unique(coords, axis=0, return_inverse=True)
    assert np.array_equal(grid.keys, keys)
    assert np.array_equal(grid.point_to_voxel, inverse.ravel())
    coarse = grid.keys.copy()
    coarse[:, :3] //= 2
    parent = downsample_level(grid)
    keys, inverse = np.unique(coarse, axis=0, return_inverse=True)
    assert np.array_equal(parent.keys, keys)
    assert np.array_equal(parent.child_to_parent, inverse.ravel())


def test_packing_counts_the_bits_of_a_span_exactly():
    # a span of 2^59 + 1 cells needs 60 bits and the three other axes one each:
    # 63 bits do not fit, where 2^59 cells (62 bits) still do
    for top, fits in (((1 << 60) - 1, True), ((1 << 60) + 1, False)):
        grid = VoxelGrid4D(1.0, np.array([[0, 0, 0, 0], [top, 0, 0, 0]]),
                           np.arange(2), np.array([0, 2]))
        if fits:
            assert downsample_level(grid).keys[:, 0].tolist() == [0, top // 2]
        else:
            with pytest.raises(ValueError, match="too large to index"):
                downsample_level(grid)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_downsample_keeps_keys_at_the_dtype_edge(dtype):
    # packing t at the largest key wraps int64 on the way and must still come out exact
    top = int(np.iinfo(dtype).max)
    grid = VoxelGrid4D(1.0, np.array([[0, 0, 0, top - 1], [2, 0, 0, top], [2, 0, 0, top - 1]],
                                     dtype=dtype), np.arange(3), np.array([0, 3]))
    parent = downsample_level(grid)
    assert parent.keys.tolist() == [[0, 0, 0, top - 1], [1, 0, 0, top - 1], [1, 0, 0, top]]
    assert parent.child_to_parent.tolist() == [0, 2, 1]


def _field_bits(rows):
    """Bits of a packed grid word: each axis's span (maximum - minimum) counted
    at least 1 bit wide. Above 62 a grid is refused."""
    return sum(max(max(c) - min(c), 1).bit_length() for c in zip(*rows))


def _row_bits(n):
    return (n - 1).bit_length()


@st.composite
def _point_stages(draw):
    """1 to 3 stages of up to 40 points each, drawn from one pool of up to 8
    cells, so cells repeat within and across stages: x spans up to 2^56 cells
    and the cells may sit at either end of int64."""
    resolution = draw(st.sampled_from([1.0, 0.5, 0.1]))
    reach = 1 << draw(st.sampled_from([0, 3, 20, 52, 55, 56]))
    base = draw(st.sampled_from([0.0, -2.0 ** 63, 2.0 ** 63 - 2.0 ** 57])) * resolution
    cells = st.tuples(st.integers(0, reach), st.integers(-3, 3), st.integers(-1, 1))
    pool = np.array(draw(st.lists(cells, min_size=1, max_size=6)) + [(0, 0, 0), (reach, 0, 0)],
                    dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stages = [pool[rng.integers(0, len(pool), draw(st.integers(1, 40)))]
              for _ in range(draw(st.integers(1, 3)))]
    return [s * resolution + [base, 0, 0] for s in stages], resolution


# a span of 2^57 cells on x and 1 on y, z and t fills 61 bits: 8 points leave
# room for their row index (64 bits), 9 do not (65)
@example(([np.array([[0.0, 0, 0], [2.0 ** 57, 1, 1]] * 4)], 1.0))
@example(([np.array([[0.0, 0, 0], [2.0 ** 57, 1, 1]] * 4 + [[1.0, 0, 0]])], 1.0))
@settings(deadline=None, max_examples=150)
@given(_point_stages())
def test_voxelize_matches_the_brute_force_grid(case):
    positions, resolution = case
    rows = oracles.brute_force_voxel_rows(positions, resolution)
    seq = seq_from_positions(*positions)
    if _field_bits(rows) > 62:
        with pytest.raises(ValueError, match="too large to index"):
            voxelize(seq, resolution)
        return
    event("packed sort" if _field_bits(rows) + _row_bits(len(rows)) <= 64 else "argsort")
    grid = voxelize(seq, resolution)
    keys, index = oracles.brute_force_grid(rows)
    assert grid.keys.dtype == np.int64 and grid.keys.tolist() == [list(k) for k in keys]
    assert grid.point_to_voxel.dtype == np.intp and grid.point_to_voxel.tolist() == index
    assert grid.stage_offsets.tolist() == np.cumsum([0] + [len(p) for p in positions]).tolist()


@st.composite
def _edge_keys(draw):
    """Up to 64 unique grid keys, int64 or uint64: x spans up to 2^59 cells,
    y, z and t fewer, each axis from any start, the dtype's ends among them."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    low, high = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 64))
    columns = []
    for bits in ([0, 4, 30, 56, 59], [0, 1, 4], [0, 1, 4], [0, 1, 30]):
        span = (1 << draw(st.sampled_from(bits))) - 1
        start = draw(st.sampled_from([low, high - span, -1 - span // 2, 0])
                     | st.integers(low, high - span))
        start = min(max(start, low), high - span)
        values = [start, start + span] + [start + int(v) for v in rng.integers(0, span + 1, 2)]
        columns.append([values[i] for i in rng.integers(0, 4, n)])
    return np.array(oracles.brute_force_grid(zip(*columns))[0], dtype=dtype)


def _boundary_keys(n):
    """n unique int64 keys whose floor-halved x spans 2^57 cells (58 bits)
    and whose other axes take 1 bit each: the parent's fields fill 61 bits."""
    rows = [(x, y, z, t) for x in (0, 1 << 58) for y in (0, 1) for z in (0, 1) for t in (0, 1)]
    return np.array(sorted(rows[:n]), dtype=np.int64)


@example(_boundary_keys(8))  # 61 + 3 row bits: packed
@example(_boundary_keys(9))  # 61 + 4 row bits: argsort
@settings(deadline=None, max_examples=200)
@given(_edge_keys())
def test_downsample_matches_the_brute_force_grid(keys):
    grid = VoxelGrid4D(1.0, keys, np.arange(len(keys)), np.array([0, len(keys)]))
    halved = [(i // 2, j // 2, k // 2, t) for i, j, k, t in keys.tolist()]
    if _field_bits(halved) > 62:
        with pytest.raises(ValueError, match="too large to index"):
            downsample_level(grid)
        return
    event("packed sort" if _field_bits(halved) + _row_bits(len(keys)) <= 64 else "argsort")
    parent = downsample_level(grid)
    expected, index = oracles.brute_force_grid(halved)
    assert parent.keys.dtype == keys.dtype and parent.keys.tolist() == [list(k) for k in expected]
    assert parent.child_to_parent.dtype == np.intp and parent.child_to_parent.tolist() == index
    assert parent.point_to_voxel.tolist() == index


def test_empty_grid_pools_to_an_empty_grid():
    grid = VoxelGrid4D(0.5, np.empty((0, 4)), np.empty(0, dtype=np.intp), np.array([0]))
    parent = downsample_level(grid)
    assert (parent.level, parent.resolution, parent.keys.shape) == (1, 1.0, (0, 4))
    assert parent.child_to_parent.tolist() == [] and parent.point_to_voxel.tolist() == []
    hierarchy = build_feature_hierarchy(grid, np.empty((0, 2)), 3)
    assert [coords.shape for coords, _ in hierarchy.levels] == [(0, 4)] * 3
    assert [feats.shape for _, feats in hierarchy.levels] == [(0, 2)] * 3
    assert [m.tolist() for m in hierarchy.pool_maps] == [[], []]


@pytest.mark.parametrize("resolution", [True, "0.5", None])
def test_voxelize_refuses_a_resolution_that_is_not_a_number(resolution):
    with pytest.raises(TypeError, match=f"resolution must be a number, not {resolution!r}"):
        voxelize(make_sequence([5]), resolution=resolution)


@pytest.mark.parametrize("keys", [
    np.array([[0, 0, 5], [3, 1, 7]]),
    np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 1.0, 7.0, 0.0]]),
], ids=["three-columns", "float"])
def test_downsample_rejects_malformed_grid_keys(keys):
    # the grid refuses such keys when it is built, so no downsample sees them
    message = (r"grid keys must be an integer array of shape \(N, 4\), "
               rf"got {keys.dtype} \(2, {keys.shape[1]}\)")
    with pytest.raises(ValueError, match=message):
        VoxelGrid4D(1.0, keys, np.arange(2), np.array([0, 2]))


def test_voxel_grid_fields_cannot_be_reassigned():
    grid = voxelize(make_sequence([20]), resolution=0.5)
    with pytest.raises(FrozenInstanceError):
        grid.keys = None
    with pytest.raises(FrozenInstanceError):
        grid.level = 3
    with pytest.raises(ValueError, match="read-only"):
        grid.point_to_voxel[0] = 1


def test_writing_a_voxel_to_points_result_changes_no_later_answer():
    grid = VoxelGrid4D(1.0, np.array([[0, 0, 0, 0], [1, 0, 0, 0]]),
                       np.array([0, 1, 0]), np.array([0, 3]))
    with pytest.raises(ValueError, match="read-only"):
        grid.voxel_to_points()[0][:] = 2
    assert [p.tolist() for p in grid.voxel_to_points()] == [[0, 2], [1]]


def test_voxel_with_no_points_has_an_empty_index():
    grid = VoxelGrid4D(1.0, np.array([[0, 0, 0, 0], [1, 0, 0, 0]]),
                       np.array([1, 1]), np.array([0, 2]))
    assert [p.tolist() for p in grid.voxel_to_points()] == [[], [0, 1]]


def _shape(rows, width):
    """(rows,) for width 0, else (rows, width)."""
    return (rows,) if width == 0 else (rows, width)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_pooling_and_inverse_maps_match_per_group_loops(seed, n_stages, n_levels,
                                                        feature_width, mask_width):
    rng = np.random.default_rng(seed)
    seq = seq_from_positions(
        *[rng.uniform(-1, 1, size=(rng.integers(1, 60), 3)) for _ in range(n_stages)])
    grid = voxelize(seq, resolution=0.5)

    point_feats = rng.normal(size=_shape(len(grid.point_to_voxel), feature_width))
    assert np.array_equal(pool_features_to_voxels(grid, point_feats),
                          oracles.pool_features_to_voxels(grid.point_to_voxel, point_feats,
                                                          grid.num_voxels))

    stage = StageCloud(positions=seq.stages[0].positions,
                       segment_ids=rng.integers(-3, 5, size=seq.stages[0].point_count))
    segs, pooled = pool_superpoint_features(stage, point_feats[:stage.point_count])
    want_segs, want_pooled = oracles.pool_superpoint_features(
        stage.segment_ids, point_feats[:stage.point_count])
    assert segs.tolist() == want_segs
    assert np.array_equal(pooled, want_pooled)

    voxel_feats = rng.normal(size=_shape(grid.num_voxels, feature_width))
    hier = build_feature_hierarchy(grid, voxel_feats, n_levels)
    want_levels, want_maps = oracles.build_feature_hierarchy(grid.keys, voxel_feats, n_levels)
    assert [m.tolist() for m in hier.pool_maps] == want_maps
    for (keys, feats), (want_keys, want_feats) in zip(hier.levels, want_levels, strict=True):
        assert [tuple(k) for k in keys.tolist()] == want_keys
        assert np.array_equal(feats, want_feats)

    levels = [(keys, rng.random(_shape(len(keys), mask_width)) < 0.3)
              for keys, _ in hier.levels]
    levels.append((np.empty((0, 4), dtype=np.int64), np.zeros(_shape(0, mask_width), bool)))
    for coords, mask in levels:
        assert np.array_equal(st_pool_masks(coords, mask), oracles.st_pool_masks(coords, mask))

    for _ in range(n_levels):
        assert [p.tolist() for p in grid.voxel_to_points()] == oracles.voxel_to_points(
            grid.point_to_voxel, grid.num_voxels)
        grid = downsample_level(grid)


def test_downsample_twice_quarters_spatial_extent():
    seq = make_sequence([500], seed=2)
    grid = voxelize(seq, resolution=0.05)
    twice = downsample_level(downsample_level(grid))
    span = grid.keys[:, :3].max(0) - grid.keys[:, :3].min(0)
    span2 = twice.keys[:, :3].max(0) - twice.keys[:, :3].min(0)
    assert np.all(span2 <= span // 4 + 1)


def test_voxel_count_monotone_in_resolution():
    seq = make_sequence([800, 700], seed=5)
    fine = voxelize(seq, resolution=0.05)
    coarse = voxelize(seq, resolution=0.10)
    for t in range(2):
        assert (coarse.keys[:, 3] == t).sum() <= (fine.keys[:, 3] == t).sum()


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3))
def test_temporal_separation_property(seed, n_stages, n_levels):
    rng = np.random.default_rng(seed)
    seq = seq_from_positions(
        *[rng.uniform(-1, 1, size=(rng.integers(1, 80), 3)) for _ in range(n_stages)])
    grid = voxelize(seq, resolution=0.1)
    for _ in range(n_levels):
        # each voxel's points all come from the stage recorded in its key
        for v, pts in enumerate(grid.voxel_to_points()):
            stage_of = np.searchsorted(grid.stage_offsets, pts, side="right") - 1
            assert np.all(stage_of == grid.keys[v, 3])
        spatial = {}
        for key in grid.keys.tolist():
            spatial.setdefault(tuple(key[:3]), set()).add(key[3])
        # identical spatial cells may exist at several stages, as distinct keys
        assert len(grid.keys) == sum(len(s) for s in spatial.values())
        grid = downsample_level(grid)


def test_hierarchy_levels_align_with_pool_maps():
    seq = make_sequence([400], seed=9)
    grid = voxelize(seq, resolution=0.05)
    feats = pool_features_to_voxels(grid, np.ones((400, 2)))
    hier = build_feature_hierarchy(grid, feats, n_levels=3)
    assert len(hier.levels) == 3
    for r in range(2):
        coords, _ = hier.levels[r]
        parent_coords, _ = hier.levels[r + 1]
        mapped = parent_coords[hier.pool_maps[r]]
        assert np.array_equal(mapped[:, :3], coords[:, :3] // 2)
        assert np.array_equal(mapped[:, 3], coords[:, 3])


def test_feature_hierarchy_is_frozen_and_keeps_no_caller_array():
    seq = make_sequence([100], seed=9)
    grid = voxelize(seq, resolution=0.05)
    feats = pool_features_to_voxels(grid, np.ones((100, 2)))
    hier = build_feature_hierarchy(grid, feats, n_levels=2)
    feats[0, 0] = 7.0
    assert hier.levels[0][1][0, 0] == 1.0
    with pytest.raises(FrozenInstanceError):
        hier.levels = ()
    with pytest.raises(AttributeError):
        hier.levels.append(None)
    for keys, pooled in hier.levels:
        assert not keys.flags.writeable and not pooled.flags.writeable
    assert not any(m.flags.writeable for m in hier.pool_maps)


def test_pool_superpoints_identical_feature():
    stage = StageCloud(positions=np.zeros((4, 3)),
                       segment_ids=np.array([3, 3, 3, 3]))
    segs, pooled = pool_superpoint_features(stage, np.tile([1.5, -2.0], (4, 1)))
    assert segs.tolist() == [3]
    assert np.allclose(pooled, [[1.5, -2.0]])


def test_pool_superpoints_arithmetic_mean():
    stage = StageCloud(positions=np.zeros((2, 3)), segment_ids=np.array([0, 0]))
    _, pooled = pool_superpoint_features(stage, np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.allclose(pooled, [[1.0, 1.0]])


def test_pool_superpoints_matches_naive_grouping():
    rng = np.random.default_rng(4)
    segs = rng.integers(0, 7, size=100)
    feats = rng.normal(size=(100, 5))
    stage = StageCloud(positions=rng.normal(size=(100, 3)), segment_ids=segs)
    ids, pooled = pool_superpoint_features(stage, feats)
    for row, seg in enumerate(ids):
        assert np.allclose(pooled[row], feats[segs == seg].mean(axis=0))


def test_pool_superpoints_requires_segments():
    stage = StageCloud(positions=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="segment_ids"):
        pool_superpoint_features(stage, np.zeros((3, 2)))


def test_nn_identity_and_single_source():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(50, 3))
    cloud = StageCloud(positions=pos)
    labels = rng.integers(0, 9, size=50)
    assert np.array_equal(nearest_neighbor_labels(cloud, labels, cloud), labels)
    single = StageCloud(positions=np.array([[0.0, 0.0, 0.0]]))
    out = nearest_neighbor_labels(single, np.array([5]), cloud)
    assert np.all(out == 5)


def test_nn_matches_exhaustive_scan():
    rng = np.random.default_rng(1)
    source = rng.normal(size=(500, 3))
    query = rng.normal(size=(500, 3))
    labels = np.arange(500)
    got = nearest_neighbor_labels(StageCloud(positions=source), labels,
                                  StageCloud(positions=query))
    expected = oracles.brute_force_nearest(source.tolist(), query.tolist())
    assert got.tolist() == expected


def test_nn_breaks_ties_to_lowest_index():
    source = StageCloud(positions=np.array([[1.0, 0, 0], [-1.0, 0, 0],
                                            [0, 1.0, 0], [0, -1.0, 0]]))
    query = StageCloud(positions=np.zeros((1, 3)))
    out = nearest_neighbor_labels(source, np.array([10, 11, 12, 13]), query)
    assert out.tolist() == [10]


def test_nn_is_permutation_invariant_in_query_order():
    rng = np.random.default_rng(2)
    source = StageCloud(positions=rng.normal(size=(80, 3)))
    labels = rng.integers(0, 5, size=80)
    query_pos = rng.normal(size=(60, 3))
    perm = rng.permutation(60)
    base = nearest_neighbor_labels(source, labels, StageCloud(positions=query_pos))
    shuffled = nearest_neighbor_labels(source, labels,
                                       StageCloud(positions=query_pos[perm]))
    assert np.array_equal(base[perm], shuffled)


@pytest.mark.parametrize("position,resolution", [
    (1.0, 1e-300), (-1.0, 1e-300), (1e300, 1e-10), (2.0 ** 63, 1.0)],
    ids=["tiny-resolution", "tiny-resolution-negative", "overflowing-quotient",
         "first-cell-past-int64"])
def test_voxelize_refuses_a_cell_beyond_int64(position, resolution):
    # the cast would wrap every such cell to INT64_MIN and merge them
    seq = seq_from_positions([[0.0, 0.0, 0.0]], [[0.0, position, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="invalid coordinate: stage 1 has a position "
                                         "that quantizes beyond int64"):
        voxelize(seq, resolution)


def test_voxelize_takes_the_last_cell_inside_int64():
    grid = voxelize(seq_from_positions([[-2.0 ** 63, 0.0, 0.0]]), 1.0)
    assert grid.keys.tolist() == [[np.iinfo(np.int64).min, 0, 0, 0]]


@pytest.mark.parametrize("call,message", [
    (lambda grid: pool_features_to_voxels(grid, np.ones(len(grid.point_to_voxel) + 1)),
     "point_features length must equal point count"),
    (lambda grid: build_feature_hierarchy(grid, np.ones((grid.num_voxels - 1, 2)), 2),
     "voxel_features length must equal voxel count"),
], ids=["pool-point-features", "hierarchy-voxel-features"])
def test_pooling_refuses_features_of_the_wrong_length(call, message):
    grid = voxelize(make_sequence([30, 20], seed=2), resolution=0.5)
    with pytest.raises(ValueError, match=message):
        call(grid)


@pytest.mark.parametrize("source,labels,message", [
    (StageCloud(positions=np.empty((0, 3))), [], "source cloud is empty"),
    (StageCloud(positions=np.zeros((3, 3))), [1, 2],
     "source_labels length must equal source point count"),
], ids=["empty-source", "short-labels"])
def test_nn_refuses_an_empty_source_or_misaligned_labels(source, labels, message):
    with pytest.raises(ValueError, match=message):
        nearest_neighbor_labels(source, labels, StageCloud(positions=np.zeros((2, 3))))
