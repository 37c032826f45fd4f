import numpy as np
import pytest

from scanseq.formats import rle_decode
from scanseq.geometry import VoxelGrid4D
from scanseq.model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation,
                           InstanceMask, SequencePointCloud, StageCloud,
                           _array, _points_by_label, validate_sequence)
from scanseq.ply import read_ply, write_ply

from conftest import annotation, make_cloud, make_sequence, mask


def _codes(seq, gt, preds=()):
    return tuple(v.code for v in validate_sequence(seq, gt, preds))


def test_well_formed_sequence_validates_ok():
    seq = make_sequence([50, 60])
    gt = annotation([
        mask(0, 1, {0: range(10), 1: range(10)}),
        mask(1, 1, {0: range(10, 20)}),
        mask(2, 2, {1: range(20, 35)}),
    ])
    assert validate_sequence(seq, gt, []) == ()


def test_stage_out_of_range_is_reported():
    seq = make_sequence([50, 50])
    gt = annotation([mask(0, 1, {2: range(5)})])
    assert "stage_out_of_range" in _codes(seq, gt)


def test_cross_class_ambiguous_group_is_reported():
    seq = make_sequence([50])
    gt = annotation([mask(0, 1, {0: range(5)}), mask(1, 2, {0: range(5, 10)})],
                    groups=[(0, 1)])
    assert "cross_class_ambiguous_group" in _codes(seq, gt)


def test_point_out_of_range_and_empty_mask():
    seq = make_sequence([10])
    gt = annotation([mask(0, 1, {0: [9, 10]}), mask(1, 1, {})])
    codes = _codes(seq, gt)
    assert "point_out_of_range" in codes
    assert "empty_mask" in codes


def test_duplicate_points_are_reported_not_silently_dropped():
    seq = make_sequence([10])
    gt = annotation([mask(0, 1, {0: [1, 1, 2]})])
    assert "duplicate_point_in_mask" in _codes(seq, gt)


def test_group_membership_violations():
    seq = make_sequence([30])
    instances = [mask(i, 1, {0: range(5 * i, 5 * i + 5)}) for i in range(3)]
    gt = GroundTruthAnnotation(
        instances=tuple(instances),
        ambiguous_groups=(AmbiguousGroup(0, (0, 1)),
                          AmbiguousGroup(1, (1, 2)),
                          AmbiguousGroup(2, (7, 8)),
                          AmbiguousGroup(3, (2,))))
    codes = _codes(seq, gt)
    assert "member_in_multiple_groups" in codes
    assert "unknown_group_member" in codes
    assert "ambiguous_group_too_small" in codes


def test_prediction_masks_are_checked_too():
    seq = make_sequence([10, 10])
    gt = annotation([mask(0, 1, {0: range(3)})])
    preds = [mask(0, 1, {1: [4, 99]}, confidence=0.5)]
    assert "point_out_of_range" in _codes(seq, gt, preds)


def test_duplicate_prediction_ids_are_reported():
    seq = make_sequence([10])
    gt = annotation([mask(0, 1, {0: range(3)})])
    preds = [mask(7, 1, {0: range(3)}, confidence=0.5),
             mask(7, 1, {0: range(3, 6)}, confidence=0.4),
             mask(8, 1, {0: range(6, 9)}, confidence=0.3)]
    assert _codes(seq, gt, preds) == ("duplicate_instance_id",)


def test_validation_is_total_on_heavily_broken_input():
    seq = make_sequence([5])
    gt = annotation([mask(0, 1, {3: [100, 100]}), mask(1, 1, {})],
                    groups=[(0, 1)])
    result = validate_sequence(seq, gt, [mask(9, 4, {0: [-1]}, confidence=0.1)])
    assert result  # and no exception was raised


def test_construction_invariants():
    with pytest.raises(ValueError):
        SequencePointCloud(stages=(), sequence_id="x")
    with pytest.raises(ValueError):
        StageCloud(positions=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mask(0, 1, {0: [1]}, confidence=1.5)
    with pytest.raises(ValueError):
        GroundTruthAnnotation(instances=(mask(0, 1, {0: [0]}),
                                         mask(0, 1, {0: [1]})))
    with pytest.raises(ValueError, match="ambiguous group -1"):
        AmbiguousGroup(-1, (0, 1))


@pytest.mark.parametrize("build,error,field", [
    (lambda: InstanceMask(0, 1, {1.7: [0]}), ValueError, "key 1.7"),
    (lambda: InstanceMask(0, 1, {True: [0]}), ValueError, "key True"),
    (lambda: InstanceMask(True, 1, {0: [0]}), TypeError, "instance_id"),
    (lambda: InstanceMask(0, False, {0: [0]}), TypeError, "class_id"),
    (lambda: InstanceMask(0, 1, {0: [0]}, confidence="0.5"), TypeError, "confidence"),
    (lambda: InstanceMask(0, 1, {0: [0]}, confidence=float("nan")), ValueError,
     "confidence"),
    (lambda: AmbiguousGroup(0, (2.9, 3)), TypeError, "ambiguous group member"),
    (lambda: AmbiguousGroup(True, (2, 3)), TypeError, "group_id"),
    (lambda: GroundTruthAnnotation((), change_labels={0.5: "static"}), ValueError,
     "key 0.5"),
], ids=["float-stage-key", "bool-stage-key", "bool-instance-id", "bool-class-id",
        "string-confidence", "nan-confidence", "float-member", "bool-group-id",
        "float-change-label-key"])
def test_ids_and_numbers_are_not_coerced(build, error, field):
    # int() would have put the mask at stage 1 and the group's member at 2
    with pytest.raises(error, match=field):
        build()


@pytest.mark.parametrize("build,field", [
    (lambda: InstanceMask(0, 1, {0: [0.5, 2.7]}), "point indices"),
    (lambda: InstanceMask(0, 1, {0: [3.0, 1.0]}), "point indices"),
    (lambda: InstanceMask(0, 1, {0: ["3", "1"]}), "point indices"),
    (lambda: InstanceMask(0, 1, {0: [True, False]}), "point indices"),
    (lambda: InstanceMask(0, 1, {0: [0, None]}), "point indices"),
    (lambda: InstanceMask(0, 1, {0: [2 ** 64]}), "point indices"),
    (lambda: InstanceMask(0, 1, {0: np.array([1, 2], dtype=np.uint64)}), "point indices"),
    (lambda: StageCloud(positions=[["1", 0, 2]]), "positions"),
    (lambda: StageCloud(positions=[[True, False, True]]), "positions"),
    (lambda: StageCloud(np.zeros((2, 3)), colors=[[0, 0, 0], [None, 0, 0]]), "colors"),
    (lambda: StageCloud(np.zeros((2, 3)), segment_ids=[0.0, 1.5]), "segment_ids"),
], ids=["float-index", "integral-float-index", "string-index", "bool-index",
        "none-index", "index-2**64", "uint64-index", "string-position",
        "bool-position", "none-color", "float-segment"])
def test_model_arrays_refuse_a_lossy_cast(build, field):
    # np.asarray(..., dtype=np.int64) would have read [0.5, 2.7] as [0, 2]
    with pytest.raises(TypeError, match=field):
        build()


@pytest.mark.parametrize("build,field", [
    (lambda: InstanceMask(0, 1, {0: [4, True]}), "point indices must hold integers"),
    (lambda: InstanceMask(0, 1, {0: (np.False_, 3)}), "point indices must hold integers"),
    (lambda: StageCloud(positions=[[True, 0, 2]]), "positions must hold numbers"),
    (lambda: StageCloud(positions=[[0.5, 0, 2], (1, (np.True_), 3)]),
     "positions must hold numbers"),
    (lambda: StageCloud(np.zeros((2, 3)), colors=[[0, 0, 0], [0, False, 1]]),
     "colors must hold numbers"),
    (lambda: StageCloud(np.zeros((2, 3)), segment_ids=[0, True]),
     "segment_ids must hold integers"),
], ids=["index", "numpy-index", "position", "numpy-position-in-tuple", "color",
        "segment"])
def test_model_arrays_refuse_a_bool_among_numbers(build, field):
    # numpy reads [4, True] as [4, 1] and [[True, 0, 2]] as [[1., 0., 2.]]
    with pytest.raises(TypeError, match=f"^{field}[^,]*, not bool values$"):
        build()


def test_bool_arrays_are_still_taken_where_bools_are_meant():
    for values in ([True, False], np.array([True, False])):
        assert _array(values, bool, "mask").tolist() == [True, False]
    assert _array([[1, 2], [3, 4]], np.int64, "x").tolist() == [[1, 2], [3, 4]]
    assert _array([], np.float64, "x").shape == (0,)


def test_model_arrays_take_every_lossless_cast():
    m = InstanceMask(0, 1, {0: np.array([3, 1], dtype=np.uint32), 1: [], 2: np.empty(0)})
    cloud = StageCloud(positions=[[1, 2, 3]], colors=np.ones((1, 3), np.float32),
                       segment_ids=np.array([7], dtype=np.int8))
    assert m.per_stage_points[0].dtype == np.int64 and list(m.per_stage_points) == [0]
    assert cloud.positions.dtype == cloud.colors.dtype == np.float64
    assert cloud.segment_ids.dtype == np.int64 and cloud.segment_ids.tolist() == [7]


def test_integral_and_real_numbers_are_taken_as_python_numbers():
    m = InstanceMask(np.int64(3), np.int32(1), {np.int64(0): [0]}, confidence=1)
    group = AmbiguousGroup(np.uint8(2), (np.int64(5), 4))
    assert (m.instance_id, m.class_id, list(m.per_stage_points), m.confidence) == \
        (3, 1, [0], 1.0)
    assert type(m.instance_id) is int and type(m.confidence) is float
    assert (group.group_id, group.member_instance_ids) == (2, (4, 5))


def test_masks_sort_indices_and_drop_empty_stages():
    m = mask(0, 1, {0: [5, 2, 9], 1: []})
    assert m.per_stage_points[0].tolist() == [2, 5, 9]
    assert list(m.per_stage_points) == [0]


def test_model_arrays_are_immutable():
    seq = make_sequence([10])
    m = mask(0, 1, {0: [1, 2]})
    with pytest.raises(ValueError):
        seq.stages[0].positions[0, 0] = 99.0
    with pytest.raises(ValueError):
        m.per_stage_points[0][0] = 7


def test_model_arrays_do_not_follow_their_inputs():
    inputs = {"positions": np.zeros((4, 3)), "colors": np.full((4, 3), 0.5),
              "segment_ids": np.arange(4), "points": np.array([3, 1, 2]),
              "keys": np.zeros((2, 4), dtype=np.int64),
              "point_to_voxel": np.array([0, 1, 1, 0]),
              "stage_offsets": np.array([0, 4]), "child_to_parent": np.array([0, 0])}
    cloud = StageCloud(inputs["positions"], inputs["colors"], inputs["segment_ids"])
    m = InstanceMask(0, 1, {0: inputs["points"]})
    grid = VoxelGrid4D(0.1, inputs["keys"], inputs["point_to_voxel"],
                       inputs["stage_offsets"], child_to_parent=inputs["child_to_parent"])
    stored = [cloud.positions, cloud.colors, cloud.segment_ids, m.per_stage_points[0],
              grid.keys, grid.point_to_voxel, grid.stage_offsets, grid.child_to_parent]
    before = [a.copy() for a in stored]
    for arr in inputs.values():
        arr[...] = 7  # the caller still owns its arrays
    for arr, old in zip(stored, before):
        assert np.array_equal(arr, old)
        assert not arr.flags.writeable


def test_read_only_arrays_are_taken_without_a_copy(tmp_path):
    positions = np.zeros((3, 3))
    positions.flags.writeable = False
    assert StageCloud(positions).positions is positions
    write_ply(tmp_path / "s.ply", make_cloud(20, with_segments=True))
    cloud, _ = read_ply(tmp_path / "s.ply")
    assert not any(a.flags.writeable for a in (cloud.positions, cloud.segment_ids))


def test_mask_indices_in_order_are_not_sorted_again():
    ordered = np.array([1, 4, 4, 9])  # duplicates are kept for the validator
    ordered.flags.writeable = False
    m = InstanceMask(0, 1, {0: ordered, 1: np.array([2, 2, 3]), 2: [7, 3, 3, 1]})
    assert np.shares_memory(m.per_stage_points[0], ordered)  # taken, not copied
    assert m.per_stage_points[1].tolist() == [2, 2, 3]
    assert m.per_stage_points[2].tolist() == [1, 3, 3, 7]
    assert not any(a.flags.writeable for a in m.per_stage_points.values())
    with pytest.raises(ValueError, match="stage 2 point indices are not flat"):
        InstanceMask(0, 1, {2: [[7, 3], [3, 1]]})  # was flattened


def test_masks_take_grouped_and_decoded_indices_without_a_copy():
    groups = _points_by_label(np.array([1, 0, 1, -1, 0]))
    decoded = rle_decode([2, 3], 10)
    m = InstanceMask(0, 1, {0: groups[1], 1: decoded})
    assert np.shares_memory(m.per_stage_points[0], groups[1])
    assert np.shares_memory(m.per_stage_points[1], decoded)
    assert m.per_stage_points[0].tolist() == [0, 2]
    assert m.per_stage_points[1].tolist() == [2, 3, 4]


def test_change_labels_are_normalized_to_enum():
    gt = annotation([mask(0, 1, {0: [0]})], labels={0: "rigid"})
    assert gt.change_labels[0] is ChangeType.RIGID


@pytest.mark.parametrize("build,error,message", [
    (lambda: StageCloud(positions=np.zeros((3, 3)), colors=np.zeros((2, 3))), ValueError,
     "colors length must equal point count"),
    (lambda: StageCloud(positions=np.zeros((3, 3)), segment_ids=[0, 1, 2, 3]), ValueError,
     "segment_ids length must equal point count"),
    (lambda: SequencePointCloud(stages=(make_cloud(4), np.zeros((4, 3)))), TypeError,
     "stage 1 is not a StageCloud"),
], ids=["short-colors", "long-segment-ids", "stage-not-a-cloud"])
def test_clouds_refuse_misaligned_or_foreign_parts(build, error, message):
    with pytest.raises(error, match=message):
        build()

