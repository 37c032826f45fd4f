import base64
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanseq import formats, metrics
from scanseq.formats import (FormatError, dump_canonical_json, read_manifest,
                             read_predictions, report_to_dict, rle_decode,
                             rle_encode, write_manifest, write_predictions)
from scanseq.metrics import EvaluationReport, evaluate
from scanseq.model import StageCloud, validate_sequence
from scanseq.ply import (PlyFormatError, PlyMissingPropertyError, _ascii_rows, _decode,
                         read_ply, write_ply)
from scanseq.synth import PerturbationSpec, SceneRecipe, generate, perturb

import oracles
from conftest import annotation, ascii_copy, make_sequence, mask


# ---------------------------------------------------------------------------
# PLY


def test_ascii_ply_reads_exact_positions(tmp_path):
    path = tmp_path / "tri.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "element vertex 3",
        "property float x", "property float y", "property float z",
        "end_header",
        "0.5 0 0", "0 1.25 0", "0 0 -2",
    ]) + "\n")
    cloud, instances = read_ply(path)
    assert cloud.positions.tolist() == [[0.5, 0, 0], [0, 1.25, 0], [0, 0, -2]]
    assert cloud.colors is None and cloud.segment_ids is None and instances is None


def test_ply_missing_z_property(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "element vertex 1",
        "property float x", "property float y", "end_header", "0 0",
    ]) + "\n")
    with pytest.raises(PlyMissingPropertyError, match="missing coordinate"):
        read_ply(path)


def test_ply_big_endian_rejected(tmp_path):
    path = tmp_path / "be.ply"
    path.write_text("\n".join([
        "ply", "format binary_big_endian 1.0", "element vertex 0",
        "property float x", "property float y", "property float z",
        "end_header", "",
    ]))
    with pytest.raises(PlyFormatError, match="big-endian"):
        read_ply(path)


def test_ply_negative_vertex_count_rejected(tmp_path):
    path = tmp_path / "neg.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "element vertex -1",
        "property float x", "property float y", "property float z",
        "end_header", "",
    ]))
    with pytest.raises(PlyFormatError, match="negative vertex count"):
        read_ply(path)


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_ply_vertex_count_beyond_the_body_rejected(tmp_path, fmt):
    path = tmp_path / "huge.ply"
    path.write_bytes("\n".join([
        "ply", f"format {fmt} 1.0", "element vertex 1000000000000",
        "property float x", "property float y", "property float z",
        "end_header", "0 0 0", "",
    ]).encode())
    with pytest.raises(PlyFormatError, match="shorter than vertex count"):
        read_ply(path)


def test_ply_instance_property_must_be_integral(tmp_path):
    path = tmp_path / "inst.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "element vertex 2",
        "property float x", "property float y", "property float z",
        "property int instance", "end_header", "0 0 0 3", "1 1 1 -1",
    ]) + "\n")
    cloud, instances = read_ply(path)
    assert cloud.point_count == 2 and instances.tolist() == [3, -1]
    text = path.read_text()
    path.write_text(text.replace("int instance", "float instance"))
    with pytest.raises(PlyFormatError, match="integer type"):
        read_ply(path)
    for bad in ("1.5", "5.0", "nan", "inf", "3000000000"):
        path.write_text(text.replace("0 0 0 3", f"0 0 0 {bad}"))
        with pytest.raises(PlyFormatError, match="line 9: a value its property type cannot"):
            read_ply(path)


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_ply_segment_property_must_be_integral(tmp_path, fmt):
    # a float segment column was truncated: 1.5 and 2.7 read back as 1 and 2
    path = tmp_path / "seg.ply"
    header = "\n".join([
        "ply", f"format {fmt} 1.0", "element vertex 2",
        "property float x", "property float y", "property float z",
        "property float segment", "end_header", ""]).encode()
    values = np.array([[0, 0, 0, 1.5], [1, 1, 1, 2.7]], dtype="<f4")
    body = b"0 0 0 1.5\n1 1 1 2.7\n" if fmt == "ascii" else values.tobytes()
    path.write_bytes(header + body)
    with pytest.raises(PlyFormatError, match="segment property must have an integer type"):
        read_ply(path)


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
@pytest.mark.parametrize("properties,error,message", [
    (("x", "y"), PlyMissingPropertyError, "missing coordinate property 'z'"),
    (("x", "y", "z"), PlyFormatError, "body shorter than vertex count"),
], ids=["missing-z", "short-body"])
def test_ply_errors_name_their_file(tmp_path, fmt, properties, error, message):
    path = tmp_path / "stage.ply"
    path.write_bytes("\n".join(
        ["ply", f"format {fmt} 1.0", "element vertex 2"]
        + [f"property float {name}" for name in properties] + ["end_header", ""]).encode())
    with pytest.raises(error) as info:
        read_ply(path)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_ply_malformed_header(tmp_path):
    path = tmp_path / "junk.ply"
    path.write_bytes(b"not a ply at all")
    with pytest.raises(PlyFormatError):
        read_ply(path)


def test_binary_ply_round_trips_byte_exactly(tmp_path):
    rng = np.random.default_rng(0)
    cloud = StageCloud(positions=rng.normal(size=(40, 3)).astype(np.float32),
                       colors=rng.integers(0, 256, size=(40, 3)) / 255.0,
                       segment_ids=rng.integers(0, 9, size=40))
    first = tmp_path / "a.ply"
    write_ply(first, cloud)
    reread, _ = read_ply(first)
    second = tmp_path / "b.ply"
    write_ply(second, reread)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("segment", [2 ** 31, -2 ** 31 - 1])
def test_ply_rejects_segment_id_beyond_int32(tmp_path, segment):
    cloud = StageCloud(positions=np.zeros((3, 3)), segment_ids=[0, segment, 1])
    path = tmp_path / "a.ply"
    with pytest.raises(ValueError, match=f"segment id {segment} "):
        write_ply(path, cloud)
    assert not path.exists()


def test_ply_keeps_int32_extremes(tmp_path):
    info = np.iinfo(np.int32)
    cloud = StageCloud(positions=np.zeros((2, 3)), segment_ids=[info.min, info.max])
    path = tmp_path / "a.ply"
    write_ply(path, cloud, instances=[info.max, info.min])
    reread, instances = read_ply(path)
    assert reread.segment_ids.tolist() == [info.min, info.max]
    assert instances.tolist() == [info.max, info.min]


@pytest.mark.parametrize("instances,error,match", [
    ([0, 1], ValueError, "instances length must equal point count"),
    ([0, 1, 2 ** 31], ValueError, "instance id 2147483648 does not fit"),
    ([0, 1.5, 2], TypeError, "instances must hold integers"),
], ids=["short", "beyond-int32", "float"])
def test_ply_rejects_bad_instances_on_write(tmp_path, instances, error, match):
    path = tmp_path / "a.ply"
    with pytest.raises(error, match=match):
        write_ply(path, StageCloud(positions=np.zeros((3, 3))), instances=instances)
    assert not path.exists()


def test_ascii_ply_round_trips_values(tmp_path):
    cloud = StageCloud(positions=np.array([[0.125, -3.5, 7.0]]),
                       colors=np.array([[1.0, 0.0, 0.5019607843137255]]))
    path = tmp_path / "a.ply"
    write_ply(path, cloud)
    ascii_copy(path)
    reread, _ = read_ply(path)
    assert np.allclose(reread.positions, cloud.positions)
    assert np.allclose(reread.colors, cloud.colors)


def test_ascii_ply_round_trips_every_float32(tmp_path):
    positions = np.random.default_rng(0).uniform(-100, 100, (5000, 3)).astype(np.float32)
    path = tmp_path / "a.ply"
    write_ply(path, StageCloud(positions=positions))
    ascii_copy(path)
    assert np.array_equal(read_ply(path)[0].positions, positions)


def test_ascii_and_binary_ply_read_the_same_values(tmp_path):
    f4 = np.finfo(np.float32)
    rng = np.random.default_rng(5)
    positions = rng.normal(size=(50, 3)) * 1e3
    positions[0] = [f4.max, -f4.max, -0.0]
    positions[1] = [1e-30, f4.tiny, 0.1]
    info = np.iinfo(np.int32)
    cloud = StageCloud(positions=positions, colors=rng.random((50, 3)),
                       segment_ids=np.r_[info.min, info.max, np.arange(48)])
    reads = []
    for binary in (True, False):
        path = tmp_path / f"{binary}.ply"
        write_ply(path, cloud, instances=np.arange(50) - 1)
        if not binary:
            ascii_copy(path)
        reads.append(read_ply(path))
    (b_cloud, b_inst), (a_cloud, a_inst) = reads
    assert np.allclose(a_cloud.positions, b_cloud.positions, rtol=1e-7, atol=0)
    # a float property reads as float32 in both encodings
    assert np.array_equal(a_cloud.positions, a_cloud.positions.astype(np.float32))
    assert np.array_equal(a_cloud.colors, b_cloud.colors)
    assert np.array_equal(a_cloud.segment_ids, b_cloud.segment_ids)
    assert np.array_equal(a_inst, b_inst)


def test_ascii_ply_float_beyond_its_type_rejected(tmp_path):
    path = tmp_path / "big.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0", "element vertex 1",
        "property float x", "property float y", "property float z",
        "end_header", "1e39 0 0",
    ]) + "\n")
    with pytest.raises(PlyFormatError, match="beyond the range"):
        read_ply(path)


def test_ascii_ply_error_names_the_first_line_a_prefix_parse_refuses():
    # the error path bisects, parsing only the lines after the prefix already
    # read; growing the prefix one line at a time must stop at the same line
    rng = np.random.default_rng(1)
    tokens = [b"0", b"1", b"-1", b"x", b"1.5", b"1e39", b"300", b"2147483648"]
    header = ("ply\nformat ascii 1.0\nelement vertex {}\nproperty float x\n"
              "property float y\nproperty float z\nproperty uchar red\n"
              "property int instance\nend_header\n")  # 9 lines
    dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("red", "<u1"),
                      ("instance", "<i4")])
    checked = 0
    for _ in range(300):
        n = int(rng.integers(1, 12))
        lines = [b" ".join(tokens[rng.integers(len(tokens) if rng.random() < 0.1 else 3)]
                           for _ in range(rng.choice([5, 5, 5, 4, 6, 0])))
                 for _ in range(n + int(rng.integers(0, 3)))]
        try:
            _decode(header.format(n).encode() + b"\n".join(lines) + b"\n")
            continue
        except PlyFormatError as exc:
            message = str(exc)
        if not message.startswith("line "):
            continue  # a body shorter than its vertex count
        for k in range(1, len(lines) + 1):
            try:
                _ascii_rows(io.BytesIO(b"\n".join(lines[:k])), dtype, n)
            except (ValueError, FloatingPointError):
                break
        assert message.startswith(f"line {9 + k}: ")
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# RLE


def test_rle_round_trip_and_examples():
    idx = np.array([0, 1, 2, 7, 9, 10])
    runs = rle_encode(idx)
    assert runs.tolist() == [0, 3, 7, 1, 9, 2]
    assert rle_decode(runs).tolist() == idx.tolist()
    assert rle_encode(np.empty(0, dtype=int)).tolist() == []
    assert rle_decode([]).tolist() == []


def test_rle_rejects_non_increasing():
    with pytest.raises(FormatError):
        rle_decode([3, 0])
    for flat in ([5, 3, 6, 2], [5, 3, 0, 1], [5, 3, 7, 1]):
        with pytest.raises(FormatError, match="strictly increasing"):
            rle_decode(flat)
    assert rle_decode([5, 3, 8, 1]).tolist() == [5, 6, 7, 8]


def test_rle_runs_are_bounded_by_the_stage():
    assert rle_decode([0, 1, 90, 10], stage_size=100).tolist() == [0, *range(90, 100)]
    for runs in ([0, 1, 90, 11], [0, 10 ** 13], [100, 1]):
        with pytest.raises(FormatError, match="in a stage of 100 points"):
            rle_decode(runs, stage_size=100)


@pytest.mark.parametrize("runs", [
    [[0, 2], [5]],                # ragged
    [[0, 2, 1]],                  # not a pair
    [[]],
    5,
    [[0.5, 2]],                   # not an integer
    [["3", 2]],
    [[True, False]],
    [[2 ** 64, 1]],               # beyond int64
    [[2 ** 63 - 1, 2]],           # end beyond int64
    [[-1, 2]],
    [0, 2, 5],                    # flat, odd length
    [0.5, 2],
    [True, False],
    [2 ** 64, 1],
    [2 ** 63 - 1, 2],
    [-1, 2],
    [4, 0],
    [[0, 2], [5, 1]],             # a list of pairs, which is not read
])
def test_rle_decode_rejects_malformed_runs(runs):
    with pytest.raises(FormatError):
        rle_decode(runs)


def test_rle_decode_refuses_runs_no_buffer_holds_before_allocating():
    # a valid run of 2^63 - 1 indices: refused by the exact sum of the
    # lengths, not by numpy failing to allocate them
    with pytest.raises(MemoryError, match="^RLE runs expand to more indices than any "
                                          "buffer holds$"):
        rle_decode([0, 2 ** 63 - 1])


@pytest.mark.parametrize("runs", [[0, 2 ** 60], [0, 2 ** 61], [0, 2 ** 62], [0, 2 ** 62 + 1],
                                  [0, 2 ** 61, 2 ** 61 + 1, 2 ** 61]])
def test_rle_decode_refuses_runs_whose_exact_total_no_buffer_holds(runs):
    # 2^62 + 1 rounds to 2^62 as a float64 sum; 2^60 int64 indices are more
    # bytes than an intp counts
    with pytest.raises(MemoryError, match="^RLE runs expand to more indices than any "
                                          "buffer holds$"):
        rle_decode(runs)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 2 ** 63 - 2), max_size=40)
       | st.sets(st.integers(0, 60), max_size=40))
def test_rle_decode_reads_the_list_and_the_string_form_alike(indices):
    idx = np.array(sorted(indices), dtype=np.int64)
    runs = rle_encode(idx)
    text = base64.b64encode(runs.astype("<i8").tobytes()).decode("ascii")
    for form in (runs.tolist(), text):
        decoded = rle_decode(form)
        assert decoded.tolist() == idx.tolist() and not decoded.flags.writeable


@pytest.mark.parametrize("runs", [[0, True, 5, 2], [False, 1], [0, 2, 5, True],
                                  (0, True, 5, 2)])
def test_rle_decode_refuses_a_bool_among_integers(runs):
    # numpy would read true as 1 and false as 0
    with pytest.raises(FormatError, match="RLE data must hold integers that fit in "
                                          "int64, not bool values"):
        rle_decode(runs)


def test_rle_decode_refuses_a_string_that_is_not_runs():
    for text, message in [("AAAA!AAA", "not padded standard base64"),
                          ("AAAAAAAAAAA", "not padded standard base64"),
                          ("AAAAAAAAAAA=", "decodes to 8 bytes, not a whole number of "
                                           "16-byte"),
                          (base64.b64encode(np.array([3, 2, 4, 1], "<i8").tobytes())
                           .decode(), "strictly increasing")]:
        with pytest.raises(FormatError, match=message):
            rle_decode(text)


# ---------------------------------------------------------------------------
# Manifest and prediction round trips


def _scene():
    recipe = SceneRecipe(seed=9, n_objects=4, background_points=60,
                         ambiguous_groups=((0, 1),), sequence_id="seq-rt")
    return generate(recipe)


def test_manifest_round_trip(tmp_path):
    seq, gt = _scene()
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    seq2, gt2 = read_manifest(manifest)
    assert seq2.sequence_id == seq.sequence_id
    assert seq2.num_stages == seq.num_stages
    for a, b in zip(seq.stages, seq2.stages):
        assert np.allclose(a.positions, b.positions, atol=1e-6)
    assert len(gt2.instances) == len(gt.instances)
    for m1, m2 in zip(sorted(gt.instances, key=lambda m: m.instance_id),
                      sorted(gt2.instances, key=lambda m: m.instance_id)):
        assert m1.instance_id == m2.instance_id
        assert m1.class_id == m2.class_id
        assert sorted(m1.per_stage_points) == sorted(m2.per_stage_points)
        for t in m1.per_stage_points:
            assert np.array_equal(m1.per_stage_points[t], m2.per_stage_points[t])
    assert [g.member_instance_ids for g in gt2.ambiguous_groups] == \
        [g.member_instance_ids for g in gt.ambiguous_groups]
    assert gt0_labels_equal(gt, gt2)
    assert not validate_sequence(seq2, gt2, [])


def gt0_labels_equal(a, b):
    return a.change_labels == b.change_labels


def test_prediction_round_trip_rle_and_explicit(tmp_path):
    seq, gt = _scene()
    preds = perturb(seq, gt, PerturbationSpec(target_iou=0.8, seed=1))
    features = {preds[0].instance_id: np.array([0.1, 0.2, 0.3])}
    rle_path = tmp_path / "preds_rle.json"
    write_predictions(rle_path, preds, seq.sequence_id, features=features)
    data = json.loads(rle_path.read_text())
    masks = [m for e in data["instances"] for m in e["masks"].values()]
    assert all(m["encoding"] == "rle_base64" for m in masks)
    for entry, pred in zip(data["instances"], preds):  # the flat runs, as int64
        assert {int(t): np.frombuffer(base64.b64decode(m["data"], validate=True),
                                      "<i8").tolist() for t, m in entry["masks"].items()} \
            == {t: rle_encode(pts).tolist() for t, pts in pred.per_stage_points.items()}
    dump_canonical_json(tmp_path / "again.json", data)
    assert (tmp_path / "again.json").read_bytes() == rle_path.read_bytes()
    content = read_predictions(rle_path)
    assert content.sequence_id == seq.sequence_id
    assert len(content.instances) == len(preds)
    for a, b in zip(preds, content.instances):
        assert a.instance_id == b.instance_id
        assert a.class_id == b.class_id
        assert a.confidence == pytest.approx(b.confidence, abs=1e-5)
        for t in a.per_stage_points:
            assert np.array_equal(a.per_stage_points[t], b.per_stage_points[t])
    assert np.allclose(content.features[preds[0].instance_id], [0.1, 0.2, 0.3], atol=1e-6)
    # the same file with one explicit index list, a layout no longer read
    masks[0].update(encoding="points", data=rle_decode(masks[0]["data"]))
    points_path = tmp_path / "preds_points.json"
    dump_canonical_json(points_path, data)
    with pytest.raises(FormatError, match=r"mask encoding 'points' is not read; write "
                                          r"each mask as flat RLE runs"):
        read_predictions(points_path)


def test_manifest_has_no_class_files(tmp_path):
    seq, gt = _scene()
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    names = sorted(p.name for p in manifest.parent.iterdir())
    assert names == ["manifest.json"] + [f"stage_{t:03d}.ply" for t in range(seq.num_stages)]
    assert all(set(entry) == {"stage_index", "point_file"}
               for entry in json.loads(manifest.read_text())["stages"])


def test_manifest_keeps_instance_ids_in_the_ply(tmp_path):
    seq, gt = _scene()
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    for t in range(seq.num_stages):
        path = manifest.parent / f"stage_{t:03d}.ply"
        assert b"property int instance\n" in path.read_bytes()[:400]
        cloud, instances = read_ply(path)
        expected = np.full(cloud.point_count, -1)
        for m in gt.instances:
            expected[m.points_at(t)] = m.instance_id
        assert np.array_equal(instances, expected)


def test_manifest_rejects_instance_id_beyond_int32(tmp_path):
    seq = make_sequence([10])
    gt = annotation([mask(2 ** 31, 1, {0: range(3)})])
    with pytest.raises(ValueError, match=str(2 ** 31)):
        write_manifest(tmp_path / "scene", seq, gt)


@pytest.mark.parametrize("instance_id", [-5, -1])
def test_manifest_rejects_negative_instance_id(tmp_path, instance_id):
    seq = make_sequence([10])
    gt = annotation([mask(3, 1, {0: range(2)}), mask(instance_id, 1, {0: range(4, 7)})])
    with pytest.raises(ValueError, match=f"instance id {instance_id} is negative"):
        write_manifest(tmp_path / "scene", seq, gt)
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("garbage", [False, True], ids=["missing", "garbage"])
def test_manifest_ignores_listed_class_file(tmp_path, garbage):
    seq, gt = _scene()
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    expected_seq, expected_gt = read_manifest(manifest)
    data = json.loads(manifest.read_text())
    for entry in data["stages"]:
        entry["class_file"] = f"stage_{entry['stage_index']:03d}.classes.txt"
        if garbage:
            (manifest.parent / entry["class_file"]).write_text("x\n1.5\n")
    manifest.write_text(json.dumps(data))
    # both reads written back give the same files, so they hold the same data
    again = write_manifest(tmp_path / "again", *read_manifest(manifest)).parent
    expected = write_manifest(tmp_path / "expected", expected_seq, expected_gt).parent
    assert {p.name: p.read_bytes() for p in again.iterdir()} == \
        {p.name: p.read_bytes() for p in expected.iterdir()}


def test_read_predictions_peak_stays_below_18_bytes_a_point(tmp_path):
    # a file the size of the 1M-point benchmark scene's: 400 masks of ~2,125
    # points in ~320 runs over two 500,000-point stages. The masks keep 8 bytes
    # a point; the parsed document is freed before the runs are expanded
    rng = np.random.default_rng(0)
    preds = [mask(j, 1, {t: 2500 * j + np.flatnonzero(rng.uniform(size=2500) < 0.85)
                         for t in range(2)}, confidence=0.5) for j in range(200)]
    path = tmp_path / "p.json"
    write_predictions(path, preds, "s")
    points = sum(p.size for m in preds for p in m.per_stage_points.values())
    tracemalloc.start()
    try:
        content = read_predictions(path, [500_000, 500_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(content.instances) == 200 and points > 840_000
    assert peak < 18 * points


def test_unknown_mask_encoding_rejected(tmp_path):
    payload = {"schema_version": 1, "kind": "predictions", "sequence_id": "s",
               "instances": [{"instance_id": 0, "class_id": 1, "confidence": 0.5,
                              "masks": {"0": {"encoding": "bitmap", "data": []}}}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="encoding"):
        read_predictions(path)


def test_manifest_rejects_ground_truth_sharing_points(tmp_path):
    seq = make_sequence([100])
    gt = annotation([mask(0, 1, {0: range(0, 60)}), mask(1, 1, {0: range(40, 100)})])
    with pytest.raises(ValueError, match="instances 0 and 1 share points at stage 0"):
        write_manifest(tmp_path / "scene", seq, gt)


@settings(max_examples=200, deadline=None)
@given(column=st.lists(st.integers(-1, 60), min_size=1, max_size=80),
       annotated=st.sets(st.integers(-3, 70)))
def test_label_layer_table_and_search_agree(column, annotated):
    # a table indexed by id and a binary search map a column alike: background
    # points appended make the ids fit a table, an id of 10**9 does not. An
    # annotated -1 holds no point: it marks the background
    ids = sorted(annotated)
    layers = [formats._label_layer(np.array(column + tail, dtype=np.int64),
                                   np.array(ids, dtype=np.int64))[:len(column)]
              for tail in ([-1] * 61, [10 ** 9])]
    assert layers[0].dtype == layers[1].dtype == np.int8  # holds -1 and len(ids) <= 74
    assert layers[0].tolist() == layers[1].tolist() == [
        0 if i == -1 else ids.index(i) + 1 if i in ids else -1 for i in column]


def test_manifest_label_tables_match_pairwise_oracle(tmp_path):
    # the tables scored from the PLY instance column, with no mask built,
    # are those of the masks written, which public read_manifest returns
    rng = np.random.default_rng(5)
    for k in range(20):
        n_stages, n_gts = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        sizes = rng.integers(1, 40, size=n_stages).tolist()
        labels = [rng.integers(-1, n_gts, size=n) for n in sizes]
        ids = rng.choice(10 ** 6, size=n_gts, replace=False)
        gts = [mask(int(i), 1, {t: np.flatnonzero(lab == j) for t, lab in enumerate(labels)})
               for j, i in enumerate(ids)]
        preds = [mask(j, 1, {t: rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                             for t, n in enumerate(sizes) if rng.uniform() < 0.8},
                      confidence=0.5) for j in range(int(rng.integers(0, 5)))]
        manifest = write_manifest(tmp_path / str(k), make_sequence(sizes), annotation(gts))
        _, columns = formats._read_manifest(manifest, geometry=False)
        stages, inter, psize, gsize = metrics._stage_tables(metrics._label_layers(preds),
                                                            columns)
        masks = sorted(gts, key=lambda m: m.instance_id)
        expected = oracles.pairwise_stage_tables(preds, masks)
        assert stages == list(range(n_stages))  # the columns cover every stage
        present = np.isin(stages, expected[0])  # the others hold no mask
        assert (inter[present].tolist(), psize[present].tolist(),
                gsize[present].tolist()) == expected[1:]
        assert not (inter[~present].any() or psize[~present].any() or gsize[~present].any())
        read = read_manifest(manifest)[1].instances
        assert [(m.instance_id, {t: p.tolist() for t, p in m.per_stage_points.items()})
                for m in read] == [(m.instance_id, {t: p.tolist() for t, p in
                                                    m.per_stage_points.items()})
                                   for m in masks]


def test_manifest_label_layers_hold_at_most_2_bytes_a_point(tmp_path):
    # 200 instances and background over one 2^20-point stage: each point's
    # label takes an int16, and no copy of the stage's file or column is kept
    n = 1 << 20
    labels = np.random.default_rng(0).integers(-1, 200, size=n)
    gts = [mask(j, 1, {0: np.flatnonzero(labels == j)}) for j in range(200)]
    manifest = write_manifest(tmp_path / "scene", make_sequence([n]), annotation(gts))
    tracemalloc.start()
    try:
        _, columns = formats._read_manifest(manifest, geometry=False)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * n + n // 16
    (layer,) = columns.layers[0]
    assert layer.dtype == np.int16 and layer.tolist() == (labels + 1).tolist()


def test_manifest_label_tables_match_pairwise_oracle_in_blocks_of_3(tmp_path, monkeypatch):
    # a stage of up to 39 points spans many count blocks
    monkeypatch.setattr(metrics, "_COUNT_BLOCK", 3)
    test_manifest_label_tables_match_pairwise_oracle(tmp_path)


# ---------------------------------------------------------------------------
# Reports and canonical JSON


def test_report_thresholds_sharing_a_key_are_refused():
    # both would be reported under "0.50", one result replacing the other
    seq, gt = _scene()
    with pytest.raises(ValueError, match="more than two decimals"):
        evaluate(seq, gt, [], thresholds=(0.501, 0.502, 0.2))


def test_report_refuses_a_key_that_misspells_its_threshold():
    # a lone 0.501 shares no key, but "0.50" would name another threshold
    report = EvaluationReport(
        sequence_id="s", num_stages=1, thresholds=(0.501,), class_ids=(1,),
        per_class_ap={1: {0.501: 1.0}}, t_map=None, t_map50=None, t_map25=None,
        per_change_recall={}, counts={1: {0.501: (1, 0, 0)}},
        pr_curves={1: {0.501: ((1.0, 1.0),)}}, n_ground_truth={1: 1})
    with pytest.raises(ValueError, match="threshold '0.501' has more than two decimals"):
        report_to_dict(report)


def test_negative_zero_threshold_is_reported_as_zero():
    seq, gt = _scene()
    preds = perturb(seq, gt, PerturbationSpec(target_iou=0.7, seed=3))
    entry = report_to_dict(evaluate(seq, gt, preds, thresholds=(-0.0, 0.5)))
    assert entry == report_to_dict(evaluate(seq, gt, preds, thresholds=(0.0, 0.5)))
    assert json.dumps(entry["thresholds"]) == "[0.0, 0.5]"
    assert all(list(ap["ap"]) == ["0.00", "0.50"] for ap in entry["per_class"].values())


def test_report_serialization_is_stable(tmp_path):
    seq, gt = _scene()
    preds = perturb(seq, gt, PerturbationSpec(target_iou=0.7, seed=3))
    report = evaluate(seq, gt, preds)
    path1 = tmp_path / "r1.json"
    dump_canonical_json(path1, report_to_dict(report))
    parsed = json.loads(path1.read_text())
    path2 = tmp_path / "r2.json"
    dump_canonical_json(path2, parsed)
    assert path1.read_bytes() == path2.read_bytes()
    assert parsed["schema_version"] == 1
    assert parsed["kind"] == "evaluation_report"
    assert set(parsed["per_class"]) == {str(c) for c in report.class_ids}


def test_canonical_floats_have_six_significant_digits(tmp_path):
    path = tmp_path / "f.json"
    dump_canonical_json(path, {"value": 0.123456789123, "small": 1e-7})
    parsed = json.loads(path.read_text())
    assert parsed["value"] == 0.123457
    assert parsed["small"] == 1e-7


def test_canonical_json_takes_numpy_values_as_python_values(tmp_path):
    floats = np.array([[0.123456789, 1e-7], [2.0, -3.14159265]])
    as_numpy = {"ints": np.arange(5, dtype=np.int32), "bools": np.array([True, False]),
                "floats": floats, "f32": np.float32(0.1), "i64": np.int64(7),
                "u8": np.uint8(3), "flag": np.bool_(True), "pairs": np.zeros((0, 2), int),
                "nested": [np.int16(-2), (np.float64(1 / 3), 4)]}
    as_python = {"ints": [0, 1, 2, 3, 4], "bools": [True, False],
                 "floats": floats.tolist(), "f32": float(np.float32(0.1)), "i64": 7,
                 "u8": 3, "flag": True, "pairs": [], "nested": [-2, [1 / 3, 4]]}
    dump_canonical_json(tmp_path / "np.json", as_numpy)
    dump_canonical_json(tmp_path / "py.json", as_python)
    text = (tmp_path / "np.json").read_text()
    assert text == (tmp_path / "py.json").read_text()
    assert text.endswith("}\n") and " " not in text and "\n" not in text[:-1]
    parsed = json.loads(text)
    assert parsed["floats"] == [[0.123457, 1e-7], [2.0, -3.14159]]
    assert parsed["f32"] == 0.1 and parsed["nested"] == [-2, [0.333333, 4]]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(_FINITE, st.sampled_from([0.0, -0.0, 5e-324, -1e300])),
                       max_size=40))
@example(values=[0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e300])
@example(values=[0.1234565, 0.12345650000000001, 1.0000005, 9.9999995, 999999.5,
                 123456.5, 2.5e-7, 0.1234565])  # on a 6-digit rounding boundary
def test_canonical_floats_are_formatted_as_each_value_alone(values):
    # a value's rounding is cached; -0.0 must not take 0.0's, nor 0.0 -0.0's
    expected = [float(f"{v:.6g}").hex() for v in values]
    formats._round6.cache_clear()
    for _ in range(2):  # the cache cold, then warm and the values reversed
        as_list = formats._to_json({"v": values, "again": tuple(values)})
        as_array = formats._to_json(np.array(values, dtype=np.float64).reshape(-1, 1))
        assert [v.hex() for v in as_list["v"]] == [v.hex() for v in as_list["again"]] \
            == [row[0].hex() for row in as_array] == expected
        values = values[::-1]
        expected = expected[::-1]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float32("-inf")])
def test_canonical_json_refuses_non_finite_floats(tmp_path, value):
    path = tmp_path / "f.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_canonical_json(path, {"values": [0.5, value]})
    assert not path.exists()


def test_report_includes_every_class_and_counts(tmp_path):
    seq = make_sequence([50])
    gt = annotation([mask(0, 1, {0: range(10)})])
    preds = [mask(0, 3, {0: range(20, 30)}, confidence=0.9)]
    report = evaluate(seq, gt, preds)
    data = report_to_dict(report)
    assert set(data["per_class"]) == {"1", "3"}
    assert data["per_class"]["1"]["ap"]["0.25"] == 0.0
    assert data["counts"]["3"]["0.50"] == {"tp": 0, "fp": 1, "fn": 0}
