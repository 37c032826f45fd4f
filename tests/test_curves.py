import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseq import curves
from scanseq.curves import (Curve, ScheduleMix, SerializationDims,
                            SerializationPattern, decode_keys, encode_keys,
                            make_schedule, serialize_sequence)
from scanseq.geometry import VoxelGrid4D, voxelize
from scanseq.model import SequencePointCloud, StageCloud

from oracles import (reference_curve_coord, reference_curve_rank,
                     reference_serialization_order)

ALL_CURVES = tuple(Curve)


def full_grid(d, bits):
    side = 1 << bits
    return np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"),
                    axis=-1).reshape(-1, d)


def test_zorder_2d_footprint_matches_bit_interleaving():
    # 2D view through d=3 with z fixed to 0: x is the least significant axis
    ranks = {(x, y): int(encode_keys([(x, y, 0)], Curve.Z_ORDER, 2)[0])
             for x in range(2) for y in range(2)}
    assert sorted(ranks, key=ranks.get) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_hilbert_first_order_shape():
    # the four z=0 cells of the first-order 3D curve trace the classic
    # 2D first-order shape: (0,0) (0,1) (1,1) (1,0)
    ranks = {(x, y): int(encode_keys([(x, y, 0)], Curve.HILBERT, 1)[0])
             for x in range(2) for y in range(2)}
    assert sorted(ranks, key=ranks.get) == [(0, 0), (0, 1), (1, 1), (1, 0)]


@pytest.mark.parametrize("curve", ALL_CURVES)
def test_decode_encode_identity_8x8x8(curve):
    grid = full_grid(3, 3)
    ranks = encode_keys(grid, curve, 3)
    assert np.array_equal(decode_keys(ranks, curve, 3, 3), grid)


@pytest.mark.parametrize("curve", ALL_CURVES)
@pytest.mark.parametrize("d,bits", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_bijectivity_exhaustive(curve, d, bits):
    grid = full_grid(d, bits)
    ranks = encode_keys(grid, curve, bits)
    assert sorted(ranks.tolist()) == list(range(len(grid)))
    assert np.array_equal(decode_keys(ranks, curve, d, bits), grid)


@pytest.mark.parametrize("curve", (Curve.HILBERT, Curve.HILBERT_TRANS))
@pytest.mark.parametrize("d,bits", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_hilbert_unit_step_adjacency(curve, d, bits):
    n = 1 << (d * bits)
    coords = decode_keys(np.arange(n, dtype=np.uint64), curve, d, bits)
    steps = np.abs(np.diff(coords, axis=0))
    assert np.all(steps.sum(axis=1) == 1)


def _assert_matches_oracle(coords, ranks, curve, d, bits):
    """Both directions: encode_keys(coords) and decode_keys(ranks) agree with
    the plain-Python Skilling/Morton oracle, and decoding inverts encoding."""
    expected = [reference_curve_rank(c, curve.value, bits) for c in coords]
    assert encode_keys(coords, curve, bits).tolist() == expected
    assert np.array_equal(
        decode_keys(np.asarray(expected, dtype=np.uint64), curve, d, bits), coords)
    decoded = [reference_curve_coord(r, curve.value, d, bits) for r in ranks]
    assert decode_keys(ranks, curve, d, bits).tolist() == [list(c) for c in decoded]


@pytest.mark.parametrize("curve", ALL_CURVES)
@pytest.mark.parametrize("d,bits", [(3, 3), (4, 2)])
def test_ranks_equal_oracle_exhaustive(curve, d, bits):
    grid = full_grid(d, bits)
    _assert_matches_oracle(grid, np.arange(len(grid), dtype=np.uint64), curve, d, bits)


@pytest.mark.parametrize("curve", ALL_CURVES)
@pytest.mark.parametrize("d,bits", [(3, 16), (4, 16), (3, 21)])
def test_ranks_equal_oracle_random(curve, d, bits):
    rng = np.random.default_rng([d, bits])
    coords = rng.integers(0, 1 << bits, size=(10_000, d))
    ranks = rng.integers(0, 1 << (d * bits), size=10_000, dtype=np.uint64)
    _assert_matches_oracle(coords, ranks, curve, d, bits)


@pytest.mark.parametrize("curve", ALL_CURVES)
@pytest.mark.parametrize("d,bits", [(3, 20), (3, 21), (4, 15), (4, 16)])
def test_codecs_match_oracle_below_every_level(curve, d, bits):
    # coordinates below 2^k (ranks below 2^(d*k)) leave every level at or
    # above k zero, which the Hilbert walk skips by advancing its state alone;
    # k = 0 is the all-zero input
    rng = np.random.default_rng([d, bits, list(Curve).index(curve)])
    for k in range(bits):
        coords = rng.integers(0, 1 << k, size=(12, d))
        ranks = rng.integers(0, 1 << (d * k), size=12, dtype=np.uint64)
        _assert_matches_oracle(coords, ranks, curve, d, bits)
    empty = np.empty((0, d), dtype=np.int64)
    assert encode_keys(empty, curve, bits).shape == (0,)
    assert decode_keys(np.empty(0, dtype=np.uint64), curve, d, bits).shape == (0, d)


def test_hilbert_state_tables_have_the_reachable_state_counts():
    # Skilling's 4D curve has 192 states, more than the <= 64 of Hamilton's
    # (e, d) curve, which is why the table is derived rather than written out
    for d, states in ((3, 24), (4, 192)):
        for inverse in (False, True):
            pair_digit = curves._hilbert_tables(d, inverse=inverse)[2]
            assert len(pair_digit) == states << (2 * d)


@st.composite
def _codec_cases(draw):
    d = draw(st.sampled_from((3, 4)))
    bits = draw(st.integers(1, 64 // d))
    coords = draw(st.lists(st.lists(st.integers(0, (1 << bits) - 1),
                                    min_size=d, max_size=d),
                           min_size=1, max_size=8))
    return d, bits, np.asarray(coords, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(case=_codec_cases(), curve=st.sampled_from(ALL_CURVES))
def test_codecs_match_oracle_property(case, curve):
    d, bits, coords = case
    ranks = encode_keys(coords, curve, bits)
    assert ranks.tolist() == [reference_curve_rank(c, curve.value, bits)
                              for c in coords]
    assert np.array_equal(decode_keys(ranks, curve, d, bits), coords)


@pytest.mark.parametrize("bits", [0, -1, -20])
def test_bits_per_axis_below_one_rejected(bits):
    with pytest.raises(ValueError, match="bits_per_axis must be >= 1"):
        encode_keys(np.zeros((2, 3), dtype=np.int64), Curve.HILBERT, bits)
    with pytest.raises(ValueError, match="bits_per_axis must be >= 1"):
        decode_keys([0, 1], Curve.Z_ORDER, 4, bits)
    grid = _grid_from([[[0.5, 0.5, 0.5]]])
    with pytest.raises(ValueError, match="bits_per_axis must be >= 1"):
        serialize_sequence(grid, SerializationPattern(
            Curve.HILBERT, SerializationDims.SPATIAL_3D), bits)


def test_bits_per_axis_above_range_rejected():
    with pytest.raises(ValueError, match="must not exceed 64"):
        encode_keys(np.zeros((2, 4), dtype=np.int64), Curve.HILBERT, 17)
    with pytest.raises(ValueError, match="must not exceed 64"):
        decode_keys([0], Curve.HILBERT, 3, 22)


@pytest.mark.parametrize("ranks,match", [
    ([1.5], "integer"),
    (np.array([1.0, 2.0]), "integer"),
    ([3, -1], "rank out of range"),
    ([[1, 2], [3, 4]], "1-D"),
])
def test_decode_rejects_malformed_ranks(ranks, match):
    with pytest.raises(ValueError, match=match):
        decode_keys(ranks, Curve.Z_ORDER, 3, 4)


def test_decode_accepts_empty_and_full_width_ranks():
    assert decode_keys([], Curve.HILBERT, 3, 4).shape == (0, 3)
    top = np.array([(1 << 64) - 1], dtype=np.uint64)
    for curve in ALL_CURVES:
        coord = decode_keys(top, curve, 4, 16)
        assert encode_keys(coord, curve, 16).tolist() == top.tolist()


def test_out_of_range_coordinates_rejected():
    with pytest.raises(ValueError, match="out of range"):
        encode_keys([(8, 0, 0)], Curve.Z_ORDER, 3)
    with pytest.raises(ValueError, match="out of range"):
        encode_keys([(-1, 0, 0)], Curve.Z_ORDER, 3)
    with pytest.raises(ValueError, match="rank out of range"):
        decode_keys([1 << 9], Curve.Z_ORDER, 3, 3)


def _grid_from(stage_points):
    stages = tuple(StageCloud(positions=np.asarray(p, dtype=float))
                   for p in stage_points)
    return voxelize(SequencePointCloud(stages=stages, sequence_id="s"),
                    resolution=1.0)


def test_single_stage_3d_and_4d_zorder_orders_match():
    # constant t contributes identical (most significant) interleave bits, so
    # plain z-order ranks compare exactly like their 3D counterparts; the
    # trans rotation moves t into the spatial slots and a true 4D Hilbert
    # curve does not restrict to the 3D one, so only z_order has this identity
    rng = np.random.default_rng(3)
    grid = _grid_from([rng.uniform(0, 9, size=(200, 3))])
    p3 = SerializationPattern(Curve.Z_ORDER, SerializationDims.SPATIAL_3D)
    p4 = SerializationPattern(Curve.Z_ORDER, SerializationDims.SPATIOTEMPORAL_4D)
    assert serialize_sequence(grid, p3).tolist() == \
        serialize_sequence(grid, p4).tolist()
    for curve in ALL_CURVES:
        pattern = SerializationPattern(curve, SerializationDims.SPATIOTEMPORAL_4D)
        order = serialize_sequence(grid, pattern)
        assert sorted(order.tolist()) == list(range(grid.num_voxels))


def test_4d_zorder_orders_stage0_before_stage1_on_unit_grid():
    # identical 2x2x2 spatial voxels at both stages: with t in the most
    # significant interleave slot, every stage-0 code sorts first
    cells = [[x, y, z] for x in range(2) for y in range(2) for z in range(2)]
    grid = _grid_from([np.asarray(cells, float) + 0.5,
                       np.asarray(cells, float) + 0.5])
    pattern = SerializationPattern(Curve.Z_ORDER, SerializationDims.SPATIOTEMPORAL_4D)
    order = serialize_sequence(grid, pattern)
    stages_in_order = grid.keys[order][:, 3]
    assert stages_in_order.tolist() == [0] * 8 + [1] * 8
    # and the expected outcome from enumerating the interleaved codes directly
    codes = encode_keys(grid.keys, Curve.Z_ORDER, 16)
    assert np.array_equal(order, np.argsort(codes, kind="stable"))


def test_spatial_3d_equals_per_stage_concatenation():
    rng = np.random.default_rng(5)
    grid = _grid_from([rng.uniform(0, 6, size=(100, 3)),
                       rng.uniform(0, 6, size=(150, 3))])
    for curve in ALL_CURVES:
        pattern = SerializationPattern(curve, SerializationDims.SPATIAL_3D)
        order = serialize_sequence(grid, pattern)
        stage_col = grid.keys[order][:, 3]
        assert np.all(np.diff(stage_col) >= 0), "stages must stay contiguous"
        mins = grid.keys.min(axis=0)
        for t in (0, 1):
            rows = np.nonzero(grid.keys[:, 3] == t)[0]
            codes = encode_keys(grid.keys[rows, :3] - mins[:3], curve, 16)
            expected = rows[np.argsort(codes, kind="stable")]
            assert order[stage_col == t].tolist() == expected.tolist()


def test_orders_equal_lexsort_when_cells_recur_across_stages():
    # the same spatial cells recur at every stage, so 3D codes repeat across
    # stages: the order is still stage-major, then code, as lexsort gives it
    rng = np.random.default_rng(11)
    cells = rng.integers(0, 12, size=(300, 3)) + 0.5
    grid = _grid_from([cells[:200], cells[50:250], cells[100:]])
    shifted = grid.keys - grid.keys.min(axis=0)
    assert len(np.unique(shifted[:, :3], axis=0)) < grid.num_voxels
    for curve in ALL_CURVES:
        codes3 = encode_keys(shifted[:, :3], curve, 16)
        codes4 = encode_keys(shifted, curve, 16)
        order3 = serialize_sequence(grid, SerializationPattern(
            curve, SerializationDims.SPATIAL_3D))
        order4 = serialize_sequence(grid, SerializationPattern(
            curve, SerializationDims.SPATIOTEMPORAL_4D))
        assert order3.tolist() == np.lexsort((codes3, shifted[:, 3])).tolist()
        assert order4.tolist() == np.lexsort((codes4,)).tolist()


def test_4d_serialization_preserves_duplicate_spatial_voxels():
    cells = np.asarray([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float) + 0.5
    grid = _grid_from([cells, cells, cells])
    assert grid.num_voxels == 9
    for dims in SerializationDims:
        for curve in ALL_CURVES:
            order = serialize_sequence(grid, SerializationPattern(curve, dims))
            assert sorted(order.tolist()) == list(range(9))


def test_schedule_pools_and_determinism():
    spatial = make_schedule(0, 4, ScheduleMix.SPATIAL_ONLY)
    assert all(p.dims == SerializationDims.SPATIAL_3D
               for layer in spatial for p in layer)
    temporal = make_schedule(0, 4, ScheduleMix.TEMPORAL_ONLY)
    assert all(p.dims == SerializationDims.SPATIOTEMPORAL_4D
               for layer in temporal for p in layer)
    assert make_schedule(7, 5, "mixed") == make_schedule(7, 5, ScheduleMix.MIXED)
    mixed = make_schedule(7, 64, ScheduleMix.MIXED)
    seen = {p.dims for layer in mixed for p in layer}
    assert seen == {SerializationDims.SPATIAL_3D, SerializationDims.SPATIOTEMPORAL_4D}
    # every layer is a permutation of the full pool
    assert len(mixed) == 64
    for layer in mixed:
        assert len(set(layer)) == len(layer) == 8


def test_trans_variants_are_axis_rotations():
    # x->y->z->x in 3D and x->y->z->t->x in 4D
    assert encode_keys([(1, 2, 3)], Curve.Z_ORDER_TRANS, 3).tolist() == \
        encode_keys([(3, 1, 2)], Curve.Z_ORDER, 3).tolist()
    assert encode_keys([(1, 2, 3, 4)], Curve.HILBERT_TRANS, 3).tolist() == \
        encode_keys([(4, 1, 2, 3)], Curve.HILBERT, 3).tolist()


ALL_PATTERNS = tuple(SerializationPattern(c, dims)
                     for dims in SerializationDims for c in Curve)


def _grid_of_keys(keys):
    keys = np.asarray(keys)
    n = len(keys)
    return VoxelGrid4D(1.0, keys, np.arange(n), np.array([0, n]))


@st.composite
def _serialization_cases(draw):
    """Unique (N, 4) keys at any offset, int64 or int32, whose extent on one
    axis is random, exactly 2^bits - 1 or exactly 2^bits; stage spans past
    255 and 65,535 take the stage sort past uint8 and uint16."""
    pattern = draw(st.sampled_from(ALL_PATTERNS))
    bits = draw(st.integers(1, 64 // pattern.ndims))
    dtype = draw(st.sampled_from((np.int64, np.int32)))
    bound = 1 << (62 if dtype is np.int64 else 30)
    side = 1 << bits
    stages = draw(st.sampled_from((1, 3, 256, 300, 1000, 70_000)))
    n = draw(st.integers(1, 24))
    cols = [draw(st.lists(st.integers(0, side - 1), min_size=n, max_size=n))
            for _ in range(3)]
    cols.append(draw(st.lists(st.integers(0, min(side, stages) - 1),
                              min_size=n, max_size=n)))
    extent = draw(st.sampled_from(("random", "max", "over")))
    if extent != "random":
        axis = draw(st.integers(0, 3))
        for c in cols:
            c.append(0)
        cols[axis][-1] = side - 1 if extent == "max" else side
    offsets = [draw(st.integers(-bound, bound)) for _ in range(4)]
    keys = np.asarray([[v + o for v in c] for c, o in zip(cols, offsets)]).T
    return pattern, bits, np.unique(keys, axis=0).astype(dtype)


@settings(max_examples=300, deadline=None)
@given(case=_serialization_cases())
def test_serialize_sequence_matches_lexsort_oracle(case):
    pattern, bits, keys = case
    grid = _grid_of_keys(keys)
    try:
        expected = reference_serialization_order(keys, pattern.curve.value,
                                                 pattern.ndims, bits)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            serialize_sequence(grid, pattern, bits)
        return
    order = serialize_sequence(grid, pattern, bits)
    assert order.dtype == np.int64
    assert order.tolist() == expected.tolist()


# (dims, bits, span bits of the longest axis, stage span, voxels, packed key
# width): the width is d * span bits + (n - 1).bit_length(), plus the stage
# span's bit length for spatial_3d; a key wider than 64 bits takes the argsort
_BOUNDARY_GRIDS = [
    # through the voxel count: n = 2^k, then n = 2^k + 1 adds a row bit
    ("spatial_3d", 21, 20, 1, 4, 63), ("spatial_3d", 21, 20, 1, 5, 64),
    ("spatial_3d", 21, 20, 1, 8, 64), ("spatial_3d", 21, 20, 1, 9, 65),
    ("spatial_3d", 21, 21, 0, 2, 64), ("spatial_3d", 21, 21, 0, 3, 65),
    ("spatiotemporal_4d", 16, 15, None, 8, 63), ("spatiotemporal_4d", 16, 15, None, 9, 64),
    ("spatiotemporal_4d", 16, 15, None, 16, 64), ("spatiotemporal_4d", 16, 15, None, 17, 65),
    # through the extent: the stage span in 3D, every axis in 4D
    ("spatial_3d", 16, 16, (1 << 11) - 1, 16, 63), ("spatial_3d", 16, 16, (1 << 12) - 1, 16, 64),
    ("spatial_3d", 16, 16, (1 << 13) - 1, 16, 65), ("spatial_3d", 21, 21, 1, 2, 65),
    ("spatiotemporal_4d", 16, 16, None, 2, 65), ("spatiotemporal_4d", 16, 16, None, 16, 68),
    # one voxel: no row bits
    ("spatial_3d", 16, 0, 0, 1, 0), ("spatiotemporal_4d", 16, 0, None, 1, 0),
]


@pytest.mark.parametrize("dims,bits,span_bits,stage_span,n,width", _BOUNDARY_GRIDS)
def test_serialize_sequence_at_the_64_bit_key_boundary(monkeypatch, dims, bits, span_bits,
                                                       stage_span, n, width):
    side = 1 << span_bits
    high = [side] * 3 + [side if stage_span is None else stage_span + 1]
    rows = {(0,) * 4, tuple(h - 1 for h in high)}  # the corner holds the highest Z-order rank
    rng = np.random.default_rng(n)
    while len(rows) < n:
        rows.add(tuple(int(rng.integers(h)) for h in high))
    keys = np.array(sorted(rows)) - (1 << 40)
    grid = _grid_of_keys(keys)
    patterns = [p for p in ALL_PATTERNS if p.dims == dims]
    curves._hilbert_tables(patterns[0].ndims)  # argsort builds the table on first use
    argsort, calls = np.argsort, []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    for pattern in patterns:
        expected = reference_serialization_order(keys, pattern.curve.value, pattern.ndims, bits)
        calls.clear()
        assert serialize_sequence(grid, pattern, bits).tolist() == expected.tolist()
        assert bool(calls) == (width > 64)  # only a key wider than 64 bits is argsorted


def test_a_grid_serialized_again_orders_as_a_fresh_equal_grid():
    # the grid keeps its bounds after the first call; later calls, at other
    # patterns and widths, must order as a grid that never computed them
    keys = np.unique(np.random.default_rng(4).integers(-50, 50, size=(400, 4)), axis=0)
    grid = _grid_of_keys(keys)
    for bits in (7, 16, 12):
        for pattern in ALL_PATTERNS:
            assert serialize_sequence(grid, pattern, bits).tolist() == \
                serialize_sequence(_grid_of_keys(keys.copy()), pattern, bits).tolist()


@pytest.mark.parametrize("widths", [(10, 11), (11, 10)])
def test_extent_is_checked_at_every_call_of_one_grid(widths):
    # x spans 2^10 cells past its minimum: too wide at 10 bits, not at 11
    grid = _grid_of_keys([[-3, 0, 0, 0], [(1 << 10) - 3, 5, 0, 0]])
    for pattern in ALL_PATTERNS:
        for bits in widths:
            if bits == 10:
                with pytest.raises(ValueError, match="grid extent exceeds 2\\^10"):
                    serialize_sequence(grid, pattern, bits)
            else:
                assert sorted(serialize_sequence(grid, pattern, bits).tolist()) == [0, 1]


@pytest.mark.parametrize("dims", list(SerializationDims))
def test_zorder_orders_do_not_depend_on_the_width(dims):
    # z-order ranks at a wider width gain only zero bits on top, so every
    # width from the needed one up to 64 // d gives one order; in 3D widths
    # past 16 spread each column with a second 16-bit table lookup
    rng = np.random.default_rng(9)
    keys = np.unique(rng.integers(0, 1 << 12, size=(500, 4)), axis=0)
    keys[:, 3] = rng.integers(0, 3, size=len(keys))
    keys = np.unique(keys, axis=0)
    grid = _grid_of_keys(keys)
    pattern = SerializationPattern(Curve.Z_ORDER, dims)
    orders = {tuple(serialize_sequence(grid, pattern, bits).tolist())
              for bits in range(12, 64 // pattern.ndims + 1)}
    assert len(orders) == 1


def test_empty_grid_serializes_to_an_empty_order():
    grid = _grid_of_keys(np.empty((0, 4), dtype=np.int64))
    for pattern in ALL_PATTERNS:
        order = serialize_sequence(grid, pattern)
        assert order.dtype == np.int64 and order.shape == (0,)
    assert encode_keys(np.empty((0, 3), dtype=np.int64), Curve.HILBERT).shape == (0,)


@pytest.mark.parametrize("coords,match", [
    ([[0.5, 1.7, 2.2]], "float64"),
    (np.ones((2, 3)), "float64"),
    ([[True, False, True]], "bool"),
    ([[0, 1]], r"\(1, 2\)"),
    ([0, 1, 2], r"\(3,\)"),
    ([[0, 1, 2**70]], "object"),
])
def test_encode_rejects_malformed_coordinates(coords, match):
    for curve in ALL_CURVES:
        with pytest.raises(ValueError, match=match):
            encode_keys(coords, curve, 4)


@pytest.mark.parametrize("keys,match", [
    (np.zeros((2, 3), dtype=np.int64), r"\(2, 3\)"),
    (np.zeros((2, 5), dtype=np.int64), r"\(2, 5\)"),
    (np.array([[0.5, 0, 0, 0], [1.5, 0, 0, 0]]), "float64"),
    (np.zeros((2, 4), dtype=bool), "bool"),
])
def test_serialize_rejects_malformed_grid_keys(keys, match):
    # the grid refuses such keys when it is built, so no serialization sees them
    with pytest.raises(ValueError, match=match):
        _grid_of_keys(keys)


@pytest.mark.parametrize("call,message", [
    (lambda: decode_keys([0, 1], Curve.Z_ORDER, ndims=5), "ndims must be 3 or 4"),
    (lambda: make_schedule(0, 0), "n_layers must be >= 1"),
], ids=["decode-five-dims", "schedule-no-layers"])
def test_curve_arguments_out_of_range_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("seed,n_layers,field", [
    (1.5, 2, "seed"), ("3", 1, "seed"), (True, 2, "seed"), (None, 1, "seed"),
    (0, 2.0, "n_layers"), (0, True, "n_layers"), (0, "2", "n_layers"),
])
def test_schedule_arguments_of_the_wrong_type_are_refused(seed, n_layers, field):
    # truncating would make make_schedule(1.5, 2) draw the schedule of seed 1
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        make_schedule(seed, n_layers)
