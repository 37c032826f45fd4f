import argparse
import base64
import dataclasses
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanseq import association, cli, curves, formats, geometry, metrics, model
from scanseq.cli import _LOSSES_MAX_VALUES, main
from scanseq.model import (AmbiguousGroup, GroundTruthAnnotation, InstanceMask,
                           SequencePointCloud, StageCloud)
from scanseq.formats import (read_manifest, read_predictions, rle_decode, rle_encode,
                             write_manifest, write_predictions, dump_canonical_json)
from scanseq.ply import read_ply, write_ply
from scanseq import synth
from scanseq.synth import ChangeOp, PerturbationSpec, SceneRecipe, generate, perturb

from conftest import (annotation, ascii_copy, association_scene, make_sequence, mask,
                      retyped_copy)


def _write_scene(tmp_path, sequence_id="seq-cli", perfect=True):
    recipe = SceneRecipe(seed=2, n_objects=4, sequence_id=sequence_id)
    seq, gt = generate(recipe)
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    preds = perturb(seq, gt, PerturbationSpec(
        target_iou=1.0 if perfect else 0.7,
        confidence_jitter=0.0))
    pred_path = tmp_path / "preds.json"
    write_predictions(pred_path, preds, sequence_id)
    return manifest, pred_path


def test_evaluate_perfect_scene_scores_one(tmp_path, capsys):
    manifest, preds = _write_scene(tmp_path)
    out = tmp_path / "report.json"
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["t_map"] == 1.0
    assert "per_change_recall" not in report


def test_evaluate_with_change_type_flag(tmp_path):
    manifest, preds = _write_scene(tmp_path)
    out = tmp_path / "report.json"
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--per-change-type", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["per_change_recall"]["static"] == 1.0


def test_evaluate_mismatched_sequence_id_exits_2(tmp_path, capsys):
    manifest, _ = _write_scene(tmp_path, sequence_id="seq-A")
    recipe = SceneRecipe(seed=2, n_objects=4, sequence_id="seq-B")
    seq, gt = generate(recipe)
    preds = perturb(seq, gt, PerturbationSpec())
    wrong = tmp_path / "wrong.json"
    write_predictions(wrong, preds, "seq-B")
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(wrong),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "sequence_id_mismatch" in capsys.readouterr().err


def test_evaluate_validation_failure_exits_2(tmp_path, capsys):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][0]["masks"]["5"] = {"encoding": "rle", "data": [0, 1]}
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "stage_out_of_range" in capsys.readouterr().err


def test_unknown_flag_exits_64(tmp_path, capsys):
    assert main(["evaluate", "--nope"]) == 64
    assert main(["frobnicate"]) == 64


def test_missing_file_exits_74(tmp_path, capsys):
    code = main(["evaluate", "--gt", str(tmp_path / "absent.json"),
                 "--pred", str(tmp_path / "absent2.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 74


def test_evaluate_multiple_sequences_merges_reports(tmp_path):
    m1, p1 = _write_scene(tmp_path / "a", sequence_id="seq-a")
    m2, p2 = _write_scene(tmp_path / "b", sequence_id="seq-b")
    out = tmp_path / "merged.json"
    code = main(["evaluate", "--gt", str(m1), "--pred", str(p1),
                 "--gt", str(m2), "--pred", str(p2), "--out", str(out)])
    assert code == 0
    merged = json.loads(out.read_text())
    assert [r["sequence_id"] for r in merged["reports"]] == ["seq-a", "seq-b"]


def test_evaluate_threshold_parsing(tmp_path):
    manifest, preds = _write_scene(tmp_path)
    out = tmp_path / "r.json"
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--thresholds", "0.25,0.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["thresholds"] == [0.25, 0.5]
    assert report["t_map"] is None  # sweep not requested
    assert report["t_map50"] == 1.0


def test_negative_zero_threshold_is_keyed_as_zero(tmp_path):
    manifest, preds = _write_scene(tmp_path, perfect=False)
    reports = []
    for thresholds in ("--thresholds=-0.0,0.5", "--thresholds=0.0,0.5"):
        out = tmp_path / f"r{len(reports)}.json"
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                     thresholds, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b'"thresholds":[0.0,0.5]' in reports[0] and b'"-0.00"' not in reports[0]


def test_threshold_with_more_than_two_decimals_exits_64(tmp_path, capsys):
    # 0.501 and 0.502 would share the report key "0.50", one result replacing the other
    manifest, preds = _write_scene(tmp_path)
    out = tmp_path / "r.json"
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--thresholds", "0.501,0.502,0.2", "--out", str(out)])
    assert code == 64
    assert "threshold '0.501' has more than two decimals" in capsys.readouterr().err
    assert not out.exists()


# (file, edit of its text, command): each edit repeats one key of one object
_REPEATED_KEYS = {
    "prediction-mask": ("preds.json", lambda text: text.replace(
        '"masks":{', '"masks":{"0":{"data":[0,1],"encoding":"rle"},', 1), "evaluate"),
    "manifest": ("scene/manifest.json",
                 lambda text: text.replace("{", '{"sequence_id":"other",', 1), "evaluate"),
    "recipe": ("recipe.json", lambda _: '{"seed": 1, "n_objects": 2, "seed": 2}', "generate"),
    "losses": ("in.json", lambda _: '{"features": [[1, 0]], "instance_ids": [0], '
                                    '"features": [[0, 1]]}', "losses"),
}


@pytest.mark.parametrize("case", _REPEATED_KEYS)
def test_repeated_json_key_exits_74(tmp_path, capsys, case):
    # the last value would silently replace the first
    manifest, preds = _write_scene(tmp_path)
    name, edit, command = _REPEATED_KEYS[case]
    path = tmp_path / name
    path.write_text(edit(path.read_text() if path.exists() else ""))
    out = str(tmp_path / "out")
    argv = {"evaluate": ["evaluate", "--gt", str(manifest), "--pred", str(preds)],
            "generate": ["generate", "--recipe", str(path)],
            "losses": ["losses", "--op", "contrastive", "--in", str(path)]}[command]
    code = main(argv + ["--out", out])
    err = capsys.readouterr().err
    assert code == 74
    assert err.startswith(f"error: {path}: an object repeats the key ")
    assert "Traceback" not in err and not Path(out).exists()


def test_points_mask_exits_74(tmp_path, capsys):
    # the explicit index lists read before: flat RLE is the one mask layout
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][0]["masks"]["0"] = {"encoding": "points", "data": [0, 1]}
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(preds) in err and "Traceback" not in err
    assert "mask encoding 'points' is not read; write each mask as flat RLE runs" in err


@pytest.mark.parametrize("thresholds", ["nan", "inf", "-1", "1.5", "sweep,1.0"])
def test_evaluate_threshold_outside_unit_interval_exits_64(tmp_path, capsys, thresholds):
    manifest, preds = _write_scene(tmp_path)
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--thresholds", thresholds, "--out", str(tmp_path / "r.json")])
    assert code == 64
    assert "not in [0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("taus,message", [
    ((math.nan,), "threshold 'nan' is not in [0, 1)"),
    ((math.inf,), "threshold 'inf' is not in [0, 1)"),
    ((-1.0,), "threshold '-1.0' is not in [0, 1)"),
    ((1.0,), "threshold '1.0' is not in [0, 1)"),
    ((1.5,), "threshold '1.5' is not in [0, 1)"),
    ((0.501,), "threshold '0.501' has more than two decimals"),
    ((), "no thresholds given"),
], ids=["nan", "inf", "negative", "one", "above-one", "three-decimals", "empty"])
def test_library_evaluate_refuses_what_the_cli_refuses(tmp_path, capsys, taus, message):
    manifest, preds = _write_scene(tmp_path)
    seq, gt = read_manifest(manifest)
    with pytest.raises(ValueError) as refused:
        metrics.evaluate(seq, gt, read_predictions(preds).instances, taus)
    assert str(refused.value) == message
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds), "--thresholds",
                 ",".join(map(str, taus)), "--out", str(tmp_path / "r.json")])
    assert code == 64
    assert capsys.readouterr().err.endswith(f"error: argument --thresholds: {message}\n")


_THRESHOLD_TOKENS = st.one_of(
    st.just("sweep"), st.just("nan"), st.just(""), st.just("-0.0"),
    st.integers(0, 99).map(lambda i: f"{i / 100:.2f}"),
    st.integers(0, 999).map(lambda i: f"{i / 1000:.3f}"),
    st.integers(1, 150).map(lambda i: f"-{i / 100}"),
    st.integers(100, 300).map(lambda i: f"{i / 100}"))


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(_THRESHOLD_TOKENS, max_size=5))
@example(tokens=["0.501"])
@example(tokens=["nan"])
@example(tokens=[""])
def test_cli_thresholds_and_library_evaluate_refuse_alike(tokens):
    # the --thresholds text and the values it spells, given to evaluate
    seq = make_sequence([6, 6])
    gt = annotation([mask(0, 1, {0: [0, 1, 2], 1: [1, 2]})])
    preds = [mask(5, 1, {0: [0, 1], 1: [1, 2, 3]}, confidence=0.8)]
    values = [v for token in tokens if token
              for v in (metrics.SWEEP_THRESHOLDS if token == "sweep" else [float(token)])]
    try:
        parsed = cli._parse_thresholds(",".join(tokens))
    except argparse.ArgumentTypeError as exc:
        with pytest.raises(ValueError) as refused:
            metrics.evaluate(seq, gt, preds, values)
        assert str(refused.value) == str(exc)
    else:
        assert metrics.evaluate(seq, gt, preds, values).thresholds == parsed


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_evaluate_threads_below_one_exits_64(tmp_path, capsys, threads):
    # --threads is no longer an option: every value, these included, is refused.
    manifest, preds = _write_scene(tmp_path)
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--threads", threads, "--out", str(tmp_path / "r.json")])
    assert code == 64
    assert f"unrecognized arguments: --threads {threads}" in capsys.readouterr().err


def test_evaluate_duplicate_prediction_ids_exits_2(tmp_path, capsys):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][1]["instance_id"] = data["instances"][0]["instance_id"]
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "duplicate_instance_id" in capsys.readouterr().err


def _evaluate_with_edited_manifest(tmp_path, edit):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(manifest.read_text())
    edit(data)
    manifest.write_text(json.dumps(data))
    return main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])


def _drop_instance_property(tmp_path, data):
    ply = tmp_path / "scene" / data["stages"][0]["point_file"]
    write_ply(ply, read_ply(ply)[0])


@pytest.mark.parametrize("key", ["stage_index", "point_file", "instance"])
def test_manifest_stage_missing_key_exits_74(tmp_path, capsys, key):
    def drop(data):  # "instance" is the stage PLY's vertex property
        if key == "instance":
            _drop_instance_property(tmp_path, data)
        else:
            data["stages"][0].pop(key)
    assert _evaluate_with_edited_manifest(tmp_path, drop) == 74
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    if key == "instance":
        ply = tmp_path / "scene" / "stage_000.ply"
        assert err == f"error: {ply}: has no instance property\n"


@pytest.mark.parametrize("has_instances", [True, False], ids=["ply-instances", "no-ply-instances"])
@pytest.mark.parametrize("command", ["evaluate", "serialize", "associate"])
def test_manifest_naming_an_instance_file_exits_74(tmp_path, capsys, command, has_instances):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(manifest.read_text())
    data["stages"][0]["instance_file"] = "stage_000.instances.txt"
    manifest.write_text(json.dumps(data))
    if not has_instances:
        _drop_instance_property(tmp_path, data)
    out = str(tmp_path / "out.json")
    argv = {"evaluate": ["evaluate", "--gt", str(manifest), "--pred", str(preds)],
            "serialize": ["serialize", "--curve", "zorder", "--dims", "3",
                          "--manifest", str(manifest)],
            "associate": ["associate", "--mode", "semantic", "--pred-a", str(preds),
                          "--pred-b", str(preds), "--manifest", str(manifest)]}[command]
    assert main(argv + ["--out", out]) == 74
    err = capsys.readouterr().err
    assert err == (f"error: {manifest}: stage 0 names an instance_file; instance ids "
                   f"are read only from the stage PLY's instance property\n")
    assert not Path(out).exists()


def test_manifest_group_without_members_exits_74(tmp_path, capsys):
    def drop_members(data):
        data["annotations"]["ambiguous_groups"] = [{"group_id": 0}]
    assert _evaluate_with_edited_manifest(tmp_path, drop_members) == 74
    assert "members" in capsys.readouterr().err


def test_manifest_negative_group_id_exits_74(tmp_path, capsys):
    def negative_group(data):  # instances 0 and 1 share a class
        data["annotations"]["ambiguous_groups"] = [{"group_id": -1, "members": [0, 1]}]
    assert _evaluate_with_edited_manifest(tmp_path, negative_group) == 74
    err = capsys.readouterr().err
    assert "manifest.json" in err and "ambiguous group -1" in err


@pytest.mark.parametrize("target,version", [
    ("preds", "x"), ("preds", True), ("preds", 2), ("manifest", 99), ("manifest", 1.0)])
def test_unsupported_schema_version_exits_74(tmp_path, capsys, target, version):
    manifest, preds = _write_scene(tmp_path)
    path = manifest if target == "manifest" else preds
    data = json.loads(path.read_text())
    data["schema_version"] = version
    path.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert f"{path}: unsupported schema_version {version!r}" in err


def _rle_as_pairs(data):
    """Rewrite every RLE mask as ``[[start, length], ...]`` pairs."""
    for entry in data["instances"]:
        for mask in entry["masks"].values():
            runs = rle_encode(rle_decode(mask["data"]))
            mask.update(encoding="rle", data=runs.reshape(-1, 2).tolist())


def test_missing_schema_version_reads_as_current(tmp_path):
    manifest, preds = _write_scene(tmp_path)
    for path in (manifest, preds):
        data = json.loads(path.read_text())
        del data["schema_version"]
        path.write_text(json.dumps(data))
    assert main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("target,edit", [
    ("manifest", lambda data: data.update(annotations=[])),
    ("manifest", lambda data: data["stages"][0].update(stage_index="0")),
    ("manifest", lambda data: data.update(stages=5)),
    ("manifest", lambda data: data["annotations"].update(
        ambiguous_groups=[{"group_id": 0, "members": 3}])),
    ("preds", lambda data: data.update(instances=5)),
    ("preds", lambda data: data["instances"][0].update(masks=[[0, 1]])),
    ("preds", lambda data: data["instances"][0].update(instance_id=True)),
    ("manifest", lambda data: data["annotations"].update(
        ambiguous_groups=[{"group_id": 0, "members": [True, 2]}])),
    ("preds", _rle_as_pairs),
], ids=["annotations-list", "stage-index-string", "stages-int", "members-int",
        "instances-int", "mask-map-list", "instance-id-bool", "member-bool",
        "rle-pairs"])
def test_wrongly_typed_json_exits_74(tmp_path, capsys, target, edit):
    manifest, preds = _write_scene(tmp_path)
    path = manifest if target == "manifest" else preds
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(path) in err and "Traceback" not in err


def _json_edit(change):
    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return edit


@pytest.mark.parametrize("target,edit,extra,code,message", [
    (None, None, ["--pred", "other.json"], 64, "--gt and --pred must be paired"),
    (None, None, ["--thresholds", ","], 64, "no thresholds given"),
    (None, None, ["--thresholds", "0.5,abc"], 64, "threshold 'abc' is not a number"),
    (None, None, ["--seed", "x"], 64, "argument --seed: invalid integer value: 'x'"),
    ("manifest", lambda text: text[:-2], [], 74, "not valid JSON"),
    ("manifest", _json_edit(lambda d: d.update(kind="predictions")), [], 74,
     "not a sequence manifest"),
    ("preds", _json_edit(lambda d: d.update(kind="sequence_manifest")), [], 74,
     "not a prediction file"),
    ("manifest", _json_edit(lambda d: d["stages"][-1].update(stage_index=7)), [], 74,
     "stage indices must be contiguous from 0"),
], ids=["unpaired", "no-thresholds", "threshold-word", "seed-word", "manifest-not-json",
        "manifest-kind", "preds-kind", "stage-gap"])
def test_evaluate_exit_paths(tmp_path, capsys, target, edit, extra, code, message):
    manifest, preds = _write_scene(tmp_path)
    paths = {"manifest": manifest, "preds": preds}
    if target is not None:
        paths[target].write_text(edit(paths[target].read_text()))
    assert main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")] + extra) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    if target is not None:
        assert str(paths[target]) in err


@pytest.mark.parametrize("target", ["manifest", "preds"])
@pytest.mark.parametrize("sequence_id", [7, None, ["seq-cli"]])
def test_non_string_sequence_id_exits_74(tmp_path, capsys, target, sequence_id):
    manifest, preds = _write_scene(tmp_path)
    other_manifest, other_preds = _write_scene(tmp_path / "other", sequence_id="seq-b")
    path, other = (manifest, preds) if target == "manifest" else (preds, manifest)
    # the other file names no sequence, so no sequence_id_mismatch comes first
    for edited, value in ((path, sequence_id), (other, "")):
        data = json.loads(edited.read_text())
        data["sequence_id"] = value
        edited.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--gt", str(other_manifest), "--pred", str(other_preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert f"{path}: sequence_id must be a string" in err and "Traceback" not in err


@pytest.mark.parametrize("confidence", ["0.5", True, [0.5]])
def test_prediction_confidence_must_be_a_json_number(tmp_path, capsys, confidence):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][0]["confidence"] = confidence
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(preds) in err and "confidence must be a number" in err


@pytest.mark.parametrize("target,key", [
    ("preds", "00"), ("preds", " 1"), ("preds", "1_0"), ("preds", "+1"),
    ("manifest", "00"), ("manifest", " 1"), ("manifest", "1_0")])
def test_integer_keys_spelled_otherwise_exit_74(tmp_path, capsys, target, key):
    manifest, preds = _write_scene(tmp_path)
    path = manifest if target == "manifest" else preds
    data = json.loads(path.read_text())
    # a second spelling of a key: int() alone reads it as that key or another
    keyed = (data["instances"][0]["masks"] if target == "preds"
             else data["annotations"]["change_labels"])
    keyed[key] = keyed[str(int(key))] if str(int(key)) in keyed else keyed["0"]
    path.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(path) in err and f"key {key!r} does not name an integer" in err


def test_deeply_nested_prediction_file_exits_74(tmp_path, capsys):
    manifest, preds = _write_scene(tmp_path)
    preds.write_text('{"instances": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(preds) in err and "Traceback" not in err


@pytest.mark.parametrize("runs", [
    lambda n: [0, 10 ** 13],
    lambda n: [0, 1, n - 10, 11],
], ids=["flat", "one-past-the-end"])
def test_rle_run_past_its_stage_exits_74(tmp_path, capsys, runs):
    manifest, preds = _write_scene(tmp_path)
    n = read_manifest(manifest)[0].stages[0].point_count
    data = json.loads(preds.read_text())
    data["instances"][0]["masks"]["0"] = {"encoding": "rle", "data": runs(n)}
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert f"in a stage of {n} points" in err and "Traceback" not in err


def test_bool_among_list_runs_exits_74(tmp_path, capsys):
    # numpy would read the true as a run length of 1
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][0]["masks"]["0"] = {"encoding": "rle", "data": [0, True, 5, 2]}
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert f"{preds}: bad prediction entry (RLE data must hold integers" in err
    assert "Traceback" not in err


def test_rle_run_beyond_int64_exits_74(tmp_path, capsys):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][0]["masks"]["0"] = {"encoding": "rle", "data": [2 ** 64, 1]}
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    assert code == 74
    assert "bad prediction entry" in capsys.readouterr().err


def _directory_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_generate_is_byte_deterministic(tmp_path):
    recipe = {"seed": 12, "n_objects": 5, "background_points": 40,
              "sequence_id": "gen-x",
              "ambiguous_groups": [[0, 1]],
              "changes": [{"0": {"kind": "swap", "group_id": 0},
                           "2": {"kind": "rigid", "translation": [0.5, 0, 0]}}],
              "perturbation": {"target_iou": 0.8, "seed": 3}}
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    for name in ("run1", "run2"):
        assert main(["generate", "--recipe", str(recipe_path),
                     "--out", str(tmp_path / name)]) == 0
    assert _directory_digest(tmp_path / "run1") == _directory_digest(tmp_path / "run2")
    assert (tmp_path / "run1" / "predictions.json").exists()


def test_generate_then_evaluate_pipeline(tmp_path):
    recipe = {"seed": 4, "n_objects": 3, "sequence_id": "pipe",
              "perturbation": {"target_iou": 1.0, "confidence_jitter": 0.0}}
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    scene = tmp_path / "scene"
    assert main(["generate", "--recipe", str(recipe_path), "--out", str(scene)]) == 0
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(scene / "manifest.json"),
                 "--pred", str(scene / "predictions.json"),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["t_map"] == 1.0


def test_generate_recipe_target_iou_by_instance_id(tmp_path):
    recipe = {"seed": 4, "n_objects": 3, "sequence_id": "per-id",
              "perturbation": {"target_iou": {"0": 0.5, "1": 0.5, "2": 0.5},
                               "confidence_jitter": 0.0}}
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    scene = tmp_path / "scene"
    assert main(["generate", "--recipe", str(recipe_path), "--out", str(scene)]) == 0
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(scene / "manifest.json"),
                 "--pred", str(scene / "predictions.json"),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["t_map"] < 1.0


@pytest.mark.parametrize("recipe,field", [
    ({"bogus": 1}, "bogus"),
    ({"n_objects": "x"}, "n_objects"),
    ({"perturbation": {"nope": 1}}, "nope"),
    ({"changes": [{"0": {"kind": "rigid", "speed": 2}}]}, "speed"),
    ({"n_stages": 0}, "n_stages"),
    ({"perturbation": {"target_iou": {"0": "x"}}}, "target_iou"),
    ({"primitives": "box"}, "primitives"),
    ({"seed": 1, "n_objects": 1, "primitives": ["box", "cone"]}, "primitives"),
    ({"primitives": []}, "primitives"),
    ({"n_classes": 0}, "n_classes"),
    ({"extent": -5}, "extent"),
    ({"n_objects": -1}, "n_objects"),
    ({"background_points": -1}, "background_points"),
], ids=["unknown-field", "n-objects-string", "unknown-perturbation-field",
        "unknown-change-field", "no-stages", "target-iou-string", "primitives-string",
        "primitive-unknown", "no-primitives", "no-classes", "negative-extent",
        "negative-objects", "negative-background"])
def test_generate_malformed_recipe_exits_74(tmp_path, capsys, recipe, field):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    code = main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(recipe_path) in err and field in err and "Traceback" not in err


def test_generate_recipe_change_key_spelled_otherwise_exits_74(tmp_path, capsys):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps({"changes": [
        {"0": {"kind": "rigid", "translation": [1, 0, 0]}, "00": {"kind": "remove"}}]}))
    code = main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(recipe_path) in err and "key '00' does not name an integer" in err


@pytest.mark.parametrize("key", ["4", "-1"])
@pytest.mark.parametrize("kind", ["add", "rigid"])
def test_generate_change_for_unknown_instance_exits_2(tmp_path, capsys, key, kind):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps({"n_objects": 4, "changes": [{key: {"kind": kind}}]}))
    code = main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: change for unknown instance {key}\n"


@pytest.mark.parametrize("recipe,code,message", [
    ({"n_objects": 1, "n_stages": 3, "changes": [{}]}, 74,
     "bad recipe (changes must list one mapping per stage transition)"),
    ({"n_objects": 1, "n_stages": 2, "changes": [{"0": {"kind": "remove"}}]}, 2,
     "a stage ended up with no points"),
    ({"n_objects": 1, "points_per_object": [1, 1], "perturbation": {"target_iou": 0.3}}, 2,
     "mask too small to erode toward the target"),
    ({"seed": -1, "n_objects": 1}, 74, "bad recipe (seed must be non-negative, not -1)"),
    ({"n_objects": 1, "perturbation": {"seed": -2}}, 74,
     "bad recipe (seed must be non-negative, not -2)"),
], ids=["changes-per-transition", "empty-stage", "mask-too-small", "negative-seed",
        "negative-perturbation-seed"])
def test_generate_refused_recipe_exits_with_its_code(tmp_path, capsys, recipe, code, message):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    assert main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_generate_scene_numpy_cannot_allocate_exits_2(tmp_path, capsys):
    # petabytes: numpy refuses the allocation outright
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps({"n_objects": 10 ** 15}))
    code = main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: scene too large to realize") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("recipe", [
    {"n_objects": 1, "points_per_object": [10 ** 7, 10 ** 7]},
    {"n_objects": 0, "background_points": 1, "n_stages": 10 ** 7 + 1},
], ids=["points", "stages"])
def test_generate_scene_over_the_point_cap_exits_2_before_allocating(tmp_path, capsys,
                                                                     recipe):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    tracemalloc.start()
    try:
        code = main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 10 * 2 ** 20
    assert capsys.readouterr().err.startswith("error: scene too large to realize: ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("cap,code", [(1600, 0), (1599, 2)], ids=["at-cap", "over-cap"])
def test_generate_point_cap_counts_every_stage_at_the_largest_size(tmp_path, monkeypatch,
                                                                   cap, code):
    # the default recipe: 2 stages of up to 4 objects of 200 points
    monkeypatch.setattr(synth, "_MAX_SCENE_POINTS", cap)
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text("{}")
    assert main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")]) == code


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
@pytest.mark.parametrize("command", ["evaluate", "serialize"])
def test_ply_with_a_repeated_vertex_property_exits_74(tmp_path, capsys, binary, command):
    manifest, preds = _write_scene(tmp_path)
    ply = manifest.parent / json.loads(manifest.read_text())["stages"][0]["point_file"]
    if not binary:
        ascii_copy(ply)
    ply.write_bytes(ply.read_bytes().replace(
        b"property float x\n", b"property float x\nproperty float x\n", 1))
    out = str(tmp_path / "out.json")
    if command == "evaluate":
        argv = ["evaluate", "--gt", str(manifest), "--pred", str(preds), "--out", out]
    else:
        argv = ["serialize", "--curve", "hilbert", "--dims", "4",
                "--manifest", str(manifest), "--out", out]
    assert main(argv) == 74
    err = capsys.readouterr().err
    assert "vertex property 'x' is listed twice" in err and "Traceback" not in err


def _header_edit(old, new):
    return lambda raw: raw.replace(old, new, 1)


@pytest.mark.parametrize("edit,message", [
    (lambda raw: raw[:raw.index(b"end_header") + len(b"end_header")], "truncated header"),
    (_header_edit(b"ply\n", b"ply\ncomment caf\xc3\xa9\n"), "header is not ascii"),
    (_header_edit(b"format binary_little_endian", b"\ncomment by hand\nformat binary_pdp"),
     "unknown format 'binary_pdp'"),
    (_header_edit(b"element vertex", b"element face 0\nelement vertex"),
     "vertex must be the first element"),
    (_header_edit(b"end_header", b"element face 0\nelement vertex 3\nend_header"),
     "vertex must be the first element"),
    (lambda raw: re.sub(rb"element vertex \d+", b"element vertex many", raw, count=1),
     "bad vertex element line"),
    (_header_edit(b"property float x", b"property list uchar int x"),
     "list properties on vertices are not supported"),
    (_header_edit(b"property float x", b"property quad x"), "bad property line"),
    (_header_edit(b"format binary_little_endian 1.0\n", b""), "header has no format line"),
    (lambda raw: re.sub(rb"element vertex \d+\n", b"", raw, count=1),
     "header has no vertex element"),
    (_header_edit(b"format binary_little_endian 1.0", b"format"), "bad format line 'format'"),
    (_header_edit(b"element vertex", b"element\nelement vertex"), "bad element line 'element'"),
    (_header_edit(b"property float x", b"property\nproperty float x"),
     "bad property line 'property'"),
    # the ascii stage's 8 vertex properties end its header on line 12
    (lambda raw: re.sub(rb"end_header\n\S+", b"end_header\nx", raw, count=1),
     "stage_000.ply: line 13: a value its property type cannot hold"),
    (lambda raw: re.sub(rb"(end_header\n(?:[^\n]*\n){2})\S+", rb"\1x", raw, count=1),
     "stage_000.ply: line 15: a value its property type cannot hold"),
    (lambda raw: re.sub(rb"end_header\n[^\n]*", rb"\g<0> 7", raw, count=1),
     "stage_000.ply: line 13: a vertex row of width 9, not 8"),
    (lambda raw: re.sub(rb"(end_header\n[^\n]*) ", rb"\1\n", raw, count=1),
     "stage_000.ply: line 13: a vertex row of width 7, not 8"),
    (lambda raw: re.sub(rb"element vertex (\d+)",
                        lambda m: b"element vertex %d" % (int(m[1]) + 1), raw, count=1),
     "ascii body shorter than vertex count"),
], ids=["truncated", "non-ascii", "unknown-format", "face-first", "second-vertex",
        "vertex-count-word", "list-property", "unknown-type", "no-format", "no-vertex",
        "bare-format", "bare-element", "bare-property",
        "ascii-word", "ascii-word-third-row", "ascii-extra-value", "ascii-wrapped-row",
        "ascii-missing-row"])
def test_malformed_stage_ply_exits_74(tmp_path, capsys, edit, message):
    manifest, preds = _write_scene(tmp_path)
    ply = manifest.parent / json.loads(manifest.read_text())["stages"][0]["point_file"]
    if message.startswith(("stage_000.ply: line", "ascii body")):  # of the ascii stage
        ascii_copy(ply)
    ply.write_bytes(edit(ply.read_bytes()))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "stage_000.ply" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("target,edit,code,named,message", [
    ("stage_000.ply", lambda raw: raw[:-5], 74, "stage_000.ply",
     "binary body shorter than vertex count"),
    ("stage_000.ply", lambda raw: raw[:20], 74, "stage_000.ply",
     "not a PLY file (missing 'ply'/'end_header')"),
    ("stage_000.ply", _header_edit(b"int instance", b"float instance"), 74, "stage_000.ply",
     "the instance property must have an integer type"),
    ("stage_000.ply", _header_edit(b"int segment", b"float segment"), 74, "stage_000.ply",
     "the segment property must have an integer type"),
    ("stage_000.ply", _header_edit(b"property float z\n", b""), 74, "stage_000.ply",
     "missing coordinate property 'z'"),
    # the last 4 bytes of a written stage PLY are its last vertex's int32 instance id
    ("stage_000.ply", lambda raw: raw[:-4] + (-5).to_bytes(4, "little", signed=True), 74,
     "stage_000.ply", "instance id -5 is below -1"),
    ("stage_001.ply", _header_edit(b"element vertex", b"element vertex 0\ncomment"), 2,
     "manifest.json", "stage 1 has no points"),
    ("manifest.json", lambda raw: json.dumps({**json.loads(raw), "stages": []}).encode(), 2,
     "manifest.json", "a sequence needs at least one stage"),
], ids=["short-body", "cut-to-20-bytes", "float-instance", "float-segment", "missing-z",
        "instance-below-minus-one", "empty-stage", "no-stages"])
def test_evaluate_stage_read_exit_codes(tmp_path, capsys, target, edit, code, named,
                                        message):
    manifest, preds = _write_scene(tmp_path)
    path = manifest.parent / target
    path.write_bytes(edit(path.read_bytes()))
    assert main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")]) == code
    err = capsys.readouterr().err
    assert f"{manifest.parent / named}: " in err and message in err
    assert "Traceback" not in err


_COST = {"pred_mask_logits": [[1, -1]], "pred_class_logits": [[1, 0, 0]],
         "gt_masks": [[1, 0]], "gt_classes": [0]}
_FOURIER = {"coords": [[0, 0, 0, 0]], "d_out": 4, "seed": 1}


@pytest.mark.parametrize("op,payload", [
    ("contrastive", {"features": [[1, 0], [0, 1]], "instance_ids": 5}),
    ("cost", {"pred_mask_logits": [[1, -1]], "pred_class_logits": [[1, 0]],
              "gt_masks": [[1, 0]], "gt_classes": [0], "lambdas": {"foo": 1}}),
    ("fourier", {"coords": [[0, 0, 0, 0]], "seed": 1}),
    # integers numpy cannot hold: an OverflowError, not a traceback
    ("cost", {**_COST, "gt_classes": [2 ** 63]}),
    ("cost", {**_COST, "gt_classes": [float("inf")]}),
], ids=["contrastive-ids-int", "cost-unknown-lambda", "fourier-missing-d-out",
        "cost-class-2**63", "cost-class-1e400"])
def test_losses_malformed_input_exits_74(tmp_path, capsys, op, payload):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    code = main(["losses", "--op", op, "--in", str(inp), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(inp) in err and "Traceback" not in err


@pytest.mark.parametrize("payload", [{"d_out": 12.7}, {"d_out": "12"}, {"d_out": True},
                                     {"seed": 1.5}, {"seed": "1"}])
def test_losses_fourier_integers_must_be_json_integers(tmp_path, capsys, payload):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({**_FOURIER, **payload}))
    code = main(["losses", "--op", "fourier", "--in", str(inp),
                 "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(inp) in err and "must be an integer" in err


@pytest.mark.parametrize("op,payload,message", [
    ("contrastive", {"features": [[1, 0], [0, 1], [1, 1]], "instance_ids": [0, 1]},
     "error: features and relation matrix disagree on S\n"),
    ("cost", {**_COST, "lambdas": {"lambda_dice": -1}},
     "error: lambda_dice must be non-negative\n"),
], ids=["contrastive-features-ids-disagree", "cost-negative-lambda"])
def test_losses_value_the_op_rejects_exits_2(tmp_path, capsys, op, payload, message):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "o.json"
    assert main(["losses", "--op", op, "--in", str(inp), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_losses_output_numpy_cannot_allocate_exits_2(tmp_path, capsys):
    # petabytes: numpy refuses the allocation outright
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"coords": [[0, 0, 0, 0]], "d_out": 2 * 10 ** 15, "seed": 0}))
    code = main(["losses", "--op", "fourier", "--in", str(inp),
                 "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: fourier output too large to compute")
    assert err.count("\n") == 1 and not (tmp_path / "o.json").exists()


def test_losses_output_json_cannot_allocate_exits_2(tmp_path, capsys, monkeypatch):
    def dump(path, payload):
        raise MemoryError()

    monkeypatch.setattr("scanseq.formats.dump_canonical_json", dump)
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(_FOURIER))
    code = main(["losses", "--op", "fourier", "--in", str(inp),
                 "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: fourier output too large to compute")
    assert "Traceback" not in err


@pytest.mark.parametrize("rows,d_out,code", [
    (100, 16, 0),
    (1, _LOSSES_MAX_VALUES // 2 + 2, 2),        # the (d_out / 2, 4) draw is over the cap
    (1000, _LOSSES_MAX_VALUES // 1000 + 2, 2),  # the (rows, d_out) output is over it
], ids=["below-cap", "draw-above-cap", "output-above-cap"])
def test_losses_fourier_sizes_are_capped(tmp_path, capsys, rows, d_out, code):
    inp, out = tmp_path / "in.json", tmp_path / "o.json"
    inp.write_text(json.dumps({"coords": [[0.5, 0.5, 0.5, 0.5]] * rows, "d_out": d_out,
                               "seed": 0}))
    tracemalloc.start()
    try:
        assert main(["losses", "--op", "fourier", "--in", str(inp), "--out", str(out)]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the cap's values alone take 80 MB as float64
    if code:
        assert capsys.readouterr().err.startswith("error: fourier output too large to compute")
        assert not out.exists()
    else:
        assert np.shape(json.loads(out.read_text())["features"]) == (rows, d_out)


_SIDE = math.isqrt(_LOSSES_MAX_VALUES) + 1  # an (n, n) matrix of this side is over the cap


@pytest.mark.parametrize("op", ["contrastive", "cost"])
@pytest.mark.parametrize("n,code", [(100, 0), (_SIDE, 2)], ids=["below-cap", "above-cap"])
def test_losses_quadratic_sizes_are_capped(tmp_path, capsys, op, n, code):
    # n instance ids make (n, n) relation and similarity matrices; n predictions
    # and n ground-truth masks make (n, n) cost terms, whatever the point count
    payload = ({"features": [[1.0, i % 2] for i in range(n)],
                "instance_ids": [i % 3 for i in range(n)]} if op == "contrastive" else
               {"pred_mask_logits": [[1.0]] * n, "pred_class_logits": [[1.0, 0.0]] * n,
                "gt_masks": [[1.0]] * n, "gt_classes": [0] * n})
    inp, out = tmp_path / "in.json", tmp_path / "o.json"
    inp.write_text(json.dumps(payload))
    # the ops load scipy on their first call; loading it before the window
    # opens keeps that one-time import out of the op's own allocations
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    tracemalloc.start()
    try:
        assert main(["losses", "--op", op, "--in", str(inp), "--out", str(out)]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20  # the cap's values alone take 80 MB as float64
    if code:
        err = capsys.readouterr().err
        assert err.startswith(f"error: {op} output too large to compute: {n} ")
        assert f"exceed {_LOSSES_MAX_VALUES} values" in err and not out.exists()
    else:
        assert out.exists()


def test_losses_fourier_features_for_a_scene_level(tmp_path):
    # 10,000 points at d_out 128: 1.28M values, well below the cap
    inp, out = tmp_path / "in.json", tmp_path / "o.json"
    inp.write_text(json.dumps({"coords": [[0.5, 0.5, 0.5, 0.5]] * 10_000, "d_out": 128,
                               "seed": 0}))
    assert main(["losses", "--op", "fourier", "--in", str(inp), "--out", str(out)]) == 0
    assert np.shape(json.loads(out.read_text())["features"]) == (10_000, 128)


@pytest.mark.parametrize("command,document,field", [
    ("generate", {"seed": True}, "seed must be an integer"),
    ("generate", {"extent": "9"}, "extent must be a number"),
    ("generate", {"extent": float("inf")}, "extent must be a finite number"),
    ("generate", {"changes": [{"0": {"kind": "rigid", "translation": ["0.5", True, 0]}}]},
     "translation must be a number"),
    ("generate", {"points_per_object": [True, 50]}, "points_per_object must be an integer"),
    ("generate", {"perturbation": {"confidence_base": "0.5"}},
     "confidence_base must be a number"),
    ("generate", {"sequence_id": 7}, "sequence_id must be a string"),
    ("fourier", {**_FOURIER, "scale": "2"}, "scale must be a number"),
    ("fourier", {**_FOURIER, "scale": True}, "scale must be a number"),
    ("cost", {**_COST, "lambdas": {"lambda_dice": True}},
     "lambda_dice must be a number"),
], ids=["recipe-seed-bool", "recipe-extent-string", "recipe-extent-infinite",
        "change-translation-string", "recipe-points-bool", "perturbation-string",
        "recipe-sequence-id-int", "fourier-scale-string",
        "fourier-scale-bool", "cost-lambda-bool"])
def test_wrongly_typed_field_exits_74(tmp_path, capsys, command, document, field):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(document))
    out = str(tmp_path / "out")
    argv = (["generate", "--recipe", str(inp), "--out", out] if command == "generate"
            else ["losses", "--op", command, "--in", str(inp), "--out", out])
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 74
    assert str(inp) in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("recipe", ['{"segments_per_object": 9223372036854775808}',
                                    '{"n_stages": 18446744073709551616}'],
                         ids=["segments-2**63", "stages-2**64"])
def test_generate_integer_numpy_cannot_hold_exits_2(tmp_path, capsys, recipe):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(recipe)
    code = main(["generate", "--recipe", str(recipe_path), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: scene too large to realize") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("op,payload", [
    ("contrastive", '{"features": [[1, 1e400], [0, 1]], "instance_ids": [1, 1]}'),
    ("fourier", '{"coords": [[0, 0, 0, 1e400]], "d_out": 4, "seed": 1}'),
], ids=["contrastive-1e400", "fourier-1e400"])
def test_losses_non_finite_output_exits_2_and_writes_nothing(tmp_path, capsys, op, payload):
    inp = tmp_path / "in.json"
    inp.write_text(payload)
    out = tmp_path / "o.json"
    code = main(["losses", "--op", op, "--in", str(inp), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "not JSON compliant" in err
    assert not out.exists()


_POOL = {"coords": [[0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]], "mask": [True, False, False]}
_CONTRASTIVE = {"features": [[1, 0], [0.9, 0.1], [0, 1]], "instance_ids": [1, 1, 2]}


@pytest.mark.parametrize("op,payload,field", [
    ("cost", {**_COST, "gt_classes": [1.5]}, "gt_classes"),
    ("cost", {**_COST, "gt_classes": ["00"]}, "gt_classes"),
    ("pool", {**_POOL, "coords": [[0, 0, 0, 0], [0, 0, 0, 1.5], [1, 0, 0, 0]]},
     "coordinates"),
    ("pool", {**_POOL, "coords": [[0, 0, 0, 0], [0, 0, 0, 2 ** 63], [1, 0, 0, 0]]},
     "coordinates"),
    ("fourier", {**_FOURIER, "coords": [[0, 0, 0, "00"]]}, "coords"),
    ("contrastive", {**_CONTRASTIVE, "features": [[1, 0], ["00", 0.1], [0, 1]]},
     "features"),
    ("contrastive", {**_CONTRASTIVE, "features": [[1, 0], ["x", 0.1], [0, 1]]},
     "features"),
    ("contrastive", {"features": [[1, None], [0, 1]], "instance_ids": [1, 1]}, "features"),
    ("fourier", {**_FOURIER, "coords": [[0, 0, 0, None]]}, "coords"),
    ("pool", {**_POOL, "mask": [1, 0, 0]}, "mask"),
    ("contrastive", {**_CONTRASTIVE, "instance_ids": [1.5, 1.5, 2]}, "instance_ids"),
    ("contrastive", {**_CONTRASTIVE, "instance_ids": ["a", "a", "b"]}, "instance_ids"),
    ("contrastive", {**_CONTRASTIVE, "instance_ids": [True, True, False]}, "instance_ids"),
], ids=["cost-class-float", "cost-class-string", "pool-coord-float", "pool-coord-2**63",
        "fourier-coord-string", "contrastive-feature-00", "contrastive-feature-x",
        "contrastive-null", "fourier-null", "pool-mask-int", "contrastive-ids-float",
        "contrastive-ids-string", "contrastive-ids-bool"])
def test_losses_array_a_cast_would_change_exits_74(tmp_path, capsys, op, payload, field):
    # each was read as a number before: 1.5 -> 1, "00" -> 0, null -> nan
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "o.json"
    code = main(["losses", "--op", op, "--in", str(inp), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 74
    assert str(inp) in err and f"{field} must hold" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("feature", [["0.5", "1"], [1.0, None], [[True, False]]],
                         ids=["strings", "null", "bools"])
def test_prediction_feature_must_hold_numbers(tmp_path, capsys, feature):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][0]["feature"] = feature
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(preds) in err and "feature must hold numbers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("op,payload,field", [
    ("cost", {**_COST, "gt_classes": [0, True]},
     "gt_classes must hold integers that fit in int64"),
    ("cost", {**_COST, "gt_masks": [[1, False]]}, "gt_masks must hold numbers"),
    ("fourier", {**_FOURIER, "coords": [[0, 0, True, 0]]}, "coords must hold numbers"),
    ("contrastive", {**_CONTRASTIVE, "features": [[1, 0], [True, 0.1], [0, 1]]},
     "features must hold numbers"),
    ("contrastive", {**_CONTRASTIVE, "instance_ids": [1, True, 2]},
     "instance_ids must hold integers that fit in int64"),
], ids=["cost-class", "cost-mask", "fourier-coord", "contrastive-feature",
        "contrastive-id"])
def test_losses_bool_among_numbers_exits_74(tmp_path, capsys, op, payload, field):
    # numpy read each true as 1 and each false as 0 before
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "o.json"
    code = main(["losses", "--op", op, "--in", str(inp), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 74
    assert str(inp) in err and f"{field}, not bool values" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("feature", [[0.5, True], [False, 2]])
def test_prediction_feature_bool_among_numbers_exits_74(tmp_path, capsys, feature):
    manifest, preds = _write_scene(tmp_path)
    data = json.loads(preds.read_text())
    data["instances"][0]["feature"] = feature
    preds.write_text(json.dumps(data))
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 74
    assert str(preds) in err and "feature must hold numbers, not bool values" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("recipe", [
    {"seed": 3, "n_objects": 3, "n_stages": 3, "n_classes": 1, "points_per_object": [-1, 14],
     "ambiguous_groups": [[0, 1]], "changes": [{"0": {"kind": "swap", "group_id": 0}}, {}]},
    {"seed": 1, "n_objects": 3, "points_per_object": [-5, -3]},
    {"seed": 1, "n_objects": 3, "points_per_object": [0, 3]},
    {"seed": 1, "n_objects": 3, "points_per_object": [5, 3]},
], ids=["low-negative", "both-negative", "low-zero", "low-above-high"])
def test_generate_points_per_object_outside_its_range_exits_74(tmp_path, capsys, recipe):
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    out = tmp_path / "scene"
    code = main(["generate", "--recipe", str(recipe_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 74
    assert "points_per_object must hold 1 <= low <= high" in err
    assert "Traceback" not in err and not out.exists()


def test_serialize_subcommand(tmp_path):
    manifest, _ = _write_scene(tmp_path)
    out = tmp_path / "order.json"
    code = main(["serialize", "--curve", "hilbert-trans", "--dims", "4",
                 "--manifest", str(manifest), "--resolution", "0.1",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["curve"] == "hilbert_trans"
    assert sorted(data["order"]) == list(range(data["num_voxels"]))
    assert "keys" not in data
    dump_canonical_json(tmp_path / "again.json", data)
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()


@pytest.fixture(scope="module")
def large_scene(tmp_path_factory):
    """A scene with more voxels than one block of the integer-array writer."""
    seq, gt = generate(SceneRecipe(seed=4, n_objects=80, points_per_object=(150, 250)))
    return write_manifest(tmp_path_factory.mktemp("large") / "scene", seq, gt)


@pytest.mark.parametrize("dims", ["3", "4"])
@pytest.mark.parametrize("curve", sorted(cli._CURVE_FLAGS))
def test_serialize_writes_the_bytes_of_json_dumps(tmp_path, large_scene, curve, dims):
    out = tmp_path / "order.json"
    assert main(["serialize", "--curve", curve, "--dims", dims,
                 "--manifest", str(large_scene), "--out", str(out)]) == 0
    seq = read_manifest(large_scene)[0]
    grid = geometry.voxelize(seq)
    pattern = curves.SerializationPattern(
        cli._CURVE_FLAGS[curve], curves.SerializationDims.SPATIAL_3D if dims == "3"
        else curves.SerializationDims.SPATIOTEMPORAL_4D)
    order = curves.serialize_sequence(grid, pattern)
    assert len(order) > formats._TEXT_BLOCK
    expected = {"schema_version": formats.SCHEMA_VERSION, "kind": "serialization_order",
                "sequence_id": seq.sequence_id, "resolution": geometry.DEFAULT_RESOLUTION,
                "curve": pattern.curve.value, "dims": pattern.dims.value,
                "num_voxels": grid.num_voxels, "order": order.tolist()}
    assert out.read_bytes() == (json.dumps(expected, sort_keys=True, separators=(",", ":"))
                                + "\n").encode()


@pytest.mark.parametrize("flags,message", [
    (["--bits", "0"], "must be at least 1"),
    (["--bits", "-1"], "must be at least 1"),
    (["--bits", "17", "--dims", "4"], "--bits 17 exceeds 16 for --dims 4"),
    (["--bits", "22", "--dims", "3"], "--bits 22 exceeds 21 for --dims 3"),
    (["--resolution", "nan"], "positive finite"),
    (["--resolution", "0"], "positive finite"),
    (["--resolution", "-1"], "positive finite"),
    (["--resolution", "inf"], "positive finite"),
    (["--bits", "x"], "argument --bits: invalid integer value: 'x'"),
    (["--resolution", "x"], "argument --resolution: invalid positive number value: 'x'"),
    # "resolution" would be written as 0.0123457, which voxelizes to other keys
    (["--resolution", "0.0123456789"],
     "must have at most 6 significant digits, got 0.0123456789"),
])
def test_serialize_bad_bits_or_resolution_exits_64(tmp_path, capsys, flags, message):
    manifest, _ = _write_scene(tmp_path)
    argv = ["serialize", "--curve", "hilbert", "--manifest", str(manifest),
            "--out", str(tmp_path / "order.json")] + flags
    if "--dims" not in flags:
        argv += ["--dims", "4"]
    assert main(argv) == 64
    assert message in capsys.readouterr().err
    assert not (tmp_path / "order.json").exists()


def test_serialize_grid_too_wide_for_bits_exits_2(tmp_path, capsys):
    manifest, _ = _write_scene(tmp_path)
    code = main(["serialize", "--curve", "zorder", "--dims", "3", "--bits", "1",
                 "--manifest", str(manifest), "--resolution", "0.1",
                 "--out", str(tmp_path / "order.json")])
    assert code == 2
    assert "grid extent exceeds 2^1" in capsys.readouterr().err


def test_serialize_resolution_quantizing_beyond_int64_exits_2(tmp_path, capsys):
    # an unchecked cast turns every such cell into INT64_MIN: one voxel a stage
    manifest, _ = _write_scene(tmp_path)
    out = tmp_path / "order.json"
    code = main(["serialize", "--curve", "hilbert", "--dims", "4", "--manifest", str(manifest),
                 "--resolution", "1e-300", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("error: invalid coordinate: stage 0 has a position that "
                                       "quantizes beyond int64 at resolution 1e-300\n")
    assert not out.exists()


def test_losses_subcommands(tmp_path):
    cases = {
        "contrastive": {"features": [[1, 0], [0.9, 0.1], [0, 1]],
                        "instance_ids": [1, 1, 2]},
        "cost": {"pred_mask_logits": [[30, -30], [-30, 30]],
                 "pred_class_logits": [[9, 0, 0], [0, 9, 0]],
                 "gt_masks": [[1, 0], [0, 1]], "gt_classes": [0, 1]},
        "fourier": {"coords": [[0, 0, 0, 0], [0.5, 0.5, 0.5, 1.0]],
                    "d_out": 8, "seed": 1},
        "pool": {"coords": [[0, 0, 0, 0], [0, 0, 0, 1]], "mask": [True, False]},
    }
    for op, payload in cases.items():
        inp = tmp_path / f"{op}.json"
        inp.write_text(json.dumps(payload))
        out = tmp_path / f"{op}_out.json"
        assert main(["losses", "--op", op, "--in", str(inp),
                     "--out", str(out)]) == 0
        assert out.exists()
    pooled = json.loads((tmp_path / "pool_out.json").read_text())
    assert pooled["mask"] == [True, True]
    cost = json.loads((tmp_path / "cost_out.json").read_text())
    assert cost["matches"] == [[0, 0], [1, 1]]


def test_associate_semantic_and_geometric(tmp_path):
    manifest, stage_files = association_scene(tmp_path)
    for mode in ("semantic", "geometric"):
        out = tmp_path / f"{mode}.json"
        code = main(["associate", "--mode", mode,
                     "--pred-a", str(stage_files[0]),
                     "--pred-b", str(stage_files[1]),
                     "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        merged = read_predictions(out)
        assert merged.sequence_id == "assoc"
        assert any(len(m.per_stage_points) == 2 for m in merged.instances)


@pytest.mark.parametrize("mode", ["semantic", "geometric"])
def test_associate_inputs_at_one_stage_exit_2(tmp_path, capsys, mode):
    # a semantic merge kept only pred-b's points at the shared stage, and a
    # geometric one transferred pred-a onto its own cloud; both exited 0
    manifest, stage_files = association_scene(tmp_path)
    twin = tmp_path / "stage0-twin.json"
    twin.write_bytes(stage_files[0].read_bytes())
    out = tmp_path / "merged.json"
    code = main(["associate", "--mode", mode, "--pred-a", str(stage_files[0]),
                 "--pred-b", str(twin), "--manifest", str(manifest), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"{stage_files[0]}, {twin}: association inputs must sit at two "
                   f"stages, both sit at stage 0\n")
    assert not out.exists()


def _single(instance_id, per_stage):
    return InstanceMask(instance_id=instance_id, class_id=1,
                        per_stage_points=per_stage, confidence=0.9)


# (masks, sequence id) of one association input; the scene has stages 0 and 1
BAD_ASSOCIATION_INPUTS = {
    "stage-beyond-manifest": ([_single(0, {2: [0, 1]})], "assoc"),
    "duplicate-instance-id": ([_single(0, {0: [0]}), _single(0, {0: [1]})], "assoc"),
    "two-stage-mask": ([_single(0, {0: [0], 1: [0]})], "assoc"),
    "masks-at-two-stages": ([_single(0, {0: [0]}), _single(1, {1: [0]})], "assoc"),
    "no-masks": ([], "assoc"),
    "sequence-id-mismatch": ([_single(0, {0: [0]})], "other"),
}


@pytest.mark.parametrize("mode", ["semantic", "geometric"])
@pytest.mark.parametrize("case", BAD_ASSOCIATION_INPUTS)
def test_associate_bad_input_exits_2(tmp_path, capsys, case, mode):
    masks, sequence_id = BAD_ASSOCIATION_INPUTS[case]
    code, bad, out = _associate_with(tmp_path, mode, masks, sequence_id)
    err = capsys.readouterr().err
    assert code == 2
    assert str(bad) in err and "Traceback" not in err
    assert not out.exists()


# a point outside its stage: its run is refused before it is expanded
@pytest.mark.parametrize("mode", ["semantic", "geometric"])
@pytest.mark.parametrize("points,message", [
    ([0, 10 ** 9], "invalid RLE run [1000000000, 1] in a stage of"),
    ([-1, 0], "invalid RLE run [-1, 2] in a stage of"),
], ids=["point-1e9", "point-minus-1"])
def test_associate_point_outside_its_stage_exits_74(tmp_path, capsys, mode, points,
                                                    message):
    code, bad, out = _associate_with(tmp_path, mode, [_single(0, {0: points})], "assoc")
    err = capsys.readouterr().err
    assert code == 74
    assert str(bad) in err and message in err and "Traceback" not in err
    assert not out.exists()


def test_associate_points_mask_exits_74(tmp_path, capsys):
    manifest, stage_files = association_scene(tmp_path)
    data = json.loads(stage_files[0].read_text())
    data["instances"][0]["masks"]["0"] = {"encoding": "points", "data": [0, 1]}
    stage_files[0].write_text(json.dumps(data))
    out = tmp_path / "merged.json"
    code = main(["associate", "--mode", "geometric", "--pred-a", str(stage_files[0]),
                 "--pred-b", str(stage_files[1]), "--manifest", str(manifest),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 74
    assert str(stage_files[0]) in err and "mask encoding 'points' is not read" in err
    assert "Traceback" not in err and not out.exists()


def _associate_with(tmp_path, mode, masks, sequence_id):
    """``associate`` of ``masks``, written as ``sequence_id``'s, against the
    stage-1 file of :func:`association_scene`: its exit code, the input path
    and the output path."""
    manifest, stage_files = association_scene(tmp_path)
    bad = tmp_path / "bad.json"
    write_predictions(bad, masks, sequence_id,
                      features={m.instance_id: np.array([1.0, 0.0, 0.0]) for m in masks})
    out = tmp_path / "merged.json"
    code = main(["associate", "--mode", mode, "--pred-a", str(bad),
                 "--pred-b", str(stage_files[1]), "--manifest", str(manifest),
                 "--out", str(out)])
    return code, bad, out


@pytest.mark.parametrize("features,message", [
    ({0: [1.0, 0.0]}, "instance 0 has a feature of length 2, not 3"),
    ({0: [np.nan, 1.0, 0.0]}, "instance 0 has a feature that is not a finite"),
    ({0: [[1.0, 0.0, 0.0]]}, "instance 0 has a feature that is not a finite"),
    ({0: [0.0, 0.0, 0.0]}, "instance 0 has a feature that is not a finite, nonzero"),
    ({}, "instance 0 has no feature"),
], ids=["other-length", "nan", "two-dimensional", "zero", "missing"])
def test_associate_semantic_bad_feature_exits_2(tmp_path, capsys, features, message):
    manifest, stage_files = association_scene(tmp_path)
    data = json.loads(stage_files[1].read_text())
    for entry in data["instances"]:
        entry.pop("feature", None)
        if entry["instance_id"] in features:
            entry["feature"] = features[entry["instance_id"]]
        elif features:
            entry["feature"] = [0.0, 0.0, 1.0]
    stage_files[1].write_text(json.dumps(data))
    out = tmp_path / "merged.json"
    code = main(["associate", "--mode", "semantic", "--pred-a", str(stage_files[0]),
                 "--pred-b", str(stage_files[1]), "--manifest", str(manifest),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{stage_files[1]}: invalid_feature: {message}" in err
    assert "Traceback" not in err and not out.exists()


# Reports of two small synth scenes, pinned so that any change of the bytes
# `scanseq evaluate` writes shows. A deliberate change of the report, of
# `synth` or of the writers updates these values and says why in CHANGES.md.
PINNED_REPORTS = {
    "plain": "724f0a3b81f15c39fc55d8bf9a350e2ff8a25c90f05704d16e36c685391c3567",
    "ambiguous-swapped": "ec674ebeecc3e00773e71537c827a1cd8d660a55c3df350e0b57684c05b7474f",
}


def _pinned_scene(name):
    if name == "plain":
        moves = {i: ChangeOp("rigid", translation=(0.4, 0.0, 0.0)) for i in range(0, 12, 3)}
        recipe = SceneRecipe(seed=3, n_objects=12, n_stages=2, n_classes=3,
                             background_points=150, changes=(moves,),
                             sequence_id="pinned-plain")
        return recipe, PerturbationSpec(target_iou=0.8, seed=4)
    swaps = {0: ChangeOp("swap", group_id=0), 4: ChangeOp("swap", group_id=1),
             8: ChangeOp("rigid", translation=(0.3, 0.0, 0.0))}
    recipe = SceneRecipe(seed=5, n_objects=12, n_stages=3, n_classes=3,
                         background_points=150, ambiguous_groups=((0, 1, 2), (4, 5)),
                         changes=(swaps, swaps), sequence_id="pinned-ambiguous")
    return recipe, PerturbationSpec(target_iou=0.8, seed=6, identity_policy="swapped")


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_evaluate_report_bytes_are_pinned(tmp_path, name):
    recipe, spec = _pinned_scene(name)
    seq, gt = generate(recipe)
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    preds = tmp_path / "preds.json"
    write_predictions(preds, perturb(seq, gt, spec), seq.sequence_id)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--thresholds", "sweep,0.5,0.25", "--per-change-type",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[name]


@pytest.mark.parametrize("name", PINNED_REPORTS)  # without and with ambiguous groups
def test_evaluate_negative_seed_exits_64(tmp_path, capsys, name):
    recipe, spec = _pinned_scene(name)
    seq, gt = generate(recipe)
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    preds = tmp_path / "preds.json"
    write_predictions(preds, perturb(seq, gt, spec), seq.sequence_id)
    out = tmp_path / "report.json"
    code = main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                 "--seed", "-3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 64
    assert "--seed" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_report_bytes_agree_across_stage_layouts(tmp_path):
    # binary and ascii PLYs give one report
    recipe, spec = _pinned_scene("ambiguous-swapped")
    seq, gt = generate(recipe)
    preds = tmp_path / "preds.json"
    write_predictions(preds, perturb(seq, gt, spec), seq.sequence_id)
    binary = write_manifest(tmp_path / "binary", seq, gt)
    ascii_ = write_manifest(tmp_path / "ascii", seq, gt)
    for ply in ascii_.parent.glob("stage_*.ply"):
        ascii_copy(ply)
    reports = []
    for manifest in (binary, ascii_):
        out = tmp_path / f"{manifest.parent.name}.json"
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(preds),
                     "--per-change-type", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]


@pytest.mark.parametrize("binary,bytes_per_point", [(True, 48), (False, 128)],
                         ids=["binary", "ascii"])
def test_evaluate_builds_no_geometry(tmp_path, binary, bytes_per_point):
    # float64 positions and colors alone take 48 bytes a point; scoring reads
    # only stage sizes and instance labels, so its peak stays below that. An
    # ascii stage is parsed into typed rows first, which may take more, but not
    # a Python string per value (334 bytes a point)
    recipe = SceneRecipe(seed=1, n_objects=40, points_per_object=(1500, 1500),
                         sequence_id="memory")
    seq, gt = generate(recipe)
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    if not binary:
        for ply in manifest.parent.glob("stage_*.ply"):
            ascii_copy(ply)
    preds = tmp_path / "preds.json"
    write_predictions(preds, perturb(seq, gt, PerturbationSpec(target_iou=0.8)),
                      seq.sequence_id)
    argv = ["evaluate", "--gt", str(manifest), "--pred", str(preds),
            "--out", str(tmp_path / "r.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.total_points == 120_000
    assert peak < bytes_per_point * seq.total_points


# ---------------------------------------------------------------------------
# The manifest's instance column, read without ground-truth masks


def _command_argv(command, tmp_path, manifest, stage_files):
    """The argv of ``command`` on the association scene, writing to ``o.json``."""
    inputs = {"evaluate": ["--gt", str(manifest), "--pred", str(stage_files[0])],
              "serialize": ["--curve", "hilbert", "--dims", "4", "--manifest", str(manifest)],
              "associate": ["--mode", "geometric", "--pred-a", str(stage_files[0]),
                            "--pred-b", str(stage_files[1]), "--manifest", str(manifest)]}
    return [command, *inputs[command], "--out", str(tmp_path / "o.json")]


@pytest.mark.parametrize("instance_id", [-2 ** 70, -5, -1, 7, 2 ** 40, 2 ** 70])
def test_annotated_instance_without_points_exits_2(tmp_path, capsys, instance_id):
    # -1 marks background points, not instance -1; ids beyond int64 are no PLY id
    manifest, stage_files = association_scene(tmp_path)
    data = json.loads(manifest.read_text())
    data["annotations"]["instances"].append({"instance_id": instance_id, "class_id": 0})
    manifest.write_text(json.dumps(data))
    assert main(_command_argv("evaluate", tmp_path, manifest, stage_files)) == 2
    assert capsys.readouterr().err == (f"{manifest}: empty_mask: ground-truth instance "
                                       f"{instance_id} references no points\n")
    assert not (tmp_path / "o.json").exists()


def test_report_bytes_are_the_same_for_every_integer_instance_type(tmp_path):
    # the scene has no background points, so that the unsigned types hold every
    # id; each type is read in its own width, -1 compared after widening
    manifest, preds = _write_scene(tmp_path, perfect=False)
    plys = sorted(manifest.parent.glob("stage_*.ply"))
    argv = ["evaluate", "--gt", str(manifest), "--pred", str(preds), "--out"]
    assert main(argv + [str(tmp_path / "written.json")]) == 0
    for type_name in ("char", "uchar", "short", "ushort", "int", "uint"):
        for ply in plys:
            retyped_copy(ply, type_name)
            assert read_ply(ply)[1].dtype == np.int64
        out = tmp_path / f"{type_name}.json"
        assert main(argv + [str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "written.json").read_bytes(), type_name


def test_unannotated_id_after_the_first_count_block_exits_74(tmp_path, capsys, monkeypatch):
    # instance 1 holds only the points 6..9 of each stage, past a first block
    # of 3 points; it is counted per block, but named as a whole-stage count names it
    monkeypatch.setattr(metrics, "_COUNT_BLOCK", 3)
    gts = [mask(0, 1, {0: range(0, 5), 1: range(2, 5)}), mask(1, 1, {0: range(6, 10),
                                                                     1: range(6, 10)})]
    manifest = write_manifest(tmp_path / "scene", make_sequence([10, 10]), annotation(gts))
    preds = tmp_path / "preds.json"
    write_predictions(preds, gts[:1], "seq")
    data = json.loads(manifest.read_text())
    data["annotations"]["instances"] = data["annotations"]["instances"][:1]
    manifest.write_text(json.dumps(data))
    argv = ["evaluate", "--gt", str(manifest), "--pred", str(preds),
            "--out", str(tmp_path / "o.json")]
    assert main(argv) == 74
    assert capsys.readouterr().err == (f"error: {manifest}: instance 1 appears in point "
                                       f"files but not in annotations.instances\n")


@pytest.mark.parametrize("command", ["evaluate", "serialize", "associate"])
def test_unannotated_point_file_id_exits_74(tmp_path, capsys, command):
    # the smallest id of any stage that annotations.instances lacks is named
    manifest, stage_files = association_scene(tmp_path)
    data = json.loads(manifest.read_text())
    annotated = data["annotations"]["instances"]
    data["annotations"]["instances"] = [e for e in annotated if e["instance_id"] == 1]
    manifest.write_text(json.dumps(data))
    assert main(_command_argv(command, tmp_path, manifest, stage_files)) == 74
    assert capsys.readouterr().err == (f"error: {manifest}: instance 0 appears in point "
                                       f"files but not in annotations.instances\n")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "serialize", "associate"])
def test_point_file_id_below_minus_one_exits_74(tmp_path, capsys, command):
    manifest, stage_files = association_scene(tmp_path)
    ply = manifest.parent / "stage_001.ply"
    # the last 4 bytes of a written stage PLY are its last vertex's int32 instance id
    ply.write_bytes(ply.read_bytes()[:-4] + (-7).to_bytes(4, "little", signed=True))
    assert main(_command_argv(command, tmp_path, manifest, stage_files)) == 74
    assert capsys.readouterr().err == (f"error: {ply}: instance id -7 is below -1, "
                                       f"the background mark\n")


def _shuffled(seq, gt, preds, rng):
    """The scene with every stage's rows permuted (masks following their
    points) and ground-truth ids re-spelled in reverse order near 2**31, the
    most a written stage PLY's int32 ``instance`` property holds: a table
    indexed by id would take 17 GB."""
    rows = [rng.permutation(stage.point_count) for stage in seq.stages]
    row_of = [np.argsort(r) for r in rows]  # the new row of each old point

    def moved(m, instance_id):
        return dataclasses.replace(m, instance_id=instance_id, per_stage_points={
            t: row_of[t][pts] for t, pts in m.per_stage_points.items()})

    wide = {m.instance_id: 2 ** 31 - 1 - 7919 * m.instance_id for m in gt.instances}
    stages = tuple(dataclasses.replace(stage, positions=stage.positions[r],
                                       colors=None if stage.colors is None else stage.colors[r],
                                       segment_ids=None)
                   for stage, r in zip(seq.stages, rows))
    gt = GroundTruthAnnotation(
        tuple(moved(m, wide[m.instance_id]) for m in gt.instances),
        tuple(AmbiguousGroup(g.group_id, tuple(wide[i] for i in g.member_instance_ids))
              for g in gt.ambiguous_groups),
        {wide[k]: v for k, v in gt.change_labels.items()})
    return (dataclasses.replace(seq, stages=stages), gt,
            [moved(p, p.instance_id) for p in preds])


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_bytes_survive_shuffled_rows_and_wide_ids(tmp_path, name):
    # the wide ids are mapped by binary search, the small ones by a table
    recipe, spec = _pinned_scene(name)
    seq, gt = generate(recipe)
    scene = (seq, gt, perturb(seq, gt, spec))
    reports = []
    for tag, (s, g, p) in (("plain", scene),
                           ("shuffled", _shuffled(*scene, np.random.default_rng(1)))):
        manifest = write_manifest(tmp_path / tag, s, g)
        write_predictions(tmp_path / f"{tag}.json", p, s.sequence_id)
        out = tmp_path / f"{tag}-report.json"
        assert main(["evaluate", "--gt", str(manifest), "--pred", str(tmp_path / f"{tag}.json"),
                     "--per-change-type", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert hashlib.sha256(reports[0]).hexdigest() == PINNED_REPORTS[name]
    assert reports[1] == reports[0]


@pytest.mark.parametrize("command", ["evaluate", "serialize"])
def test_cli_builds_no_ground_truth_masks(tmp_path, monkeypatch, command):
    def split(labels):
        raise AssertionError("a label column was split into masks")

    for module in (model, formats, geometry, association):
        if hasattr(module, "_points_by_label"):
            monkeypatch.setattr(module, "_points_by_label", split)
    manifest, stage_files = association_scene(tmp_path)
    assert main(_command_argv(command, tmp_path, manifest, stage_files)) == 0


def test_evaluate_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a small prediction file can ask for more indices than memory holds;
    # associate and serialize end a failed allocation without a traceback too
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("scanseq.formats._decode_runs", out_of_memory)
    monkeypatch.setattr("scanseq.cli.voxelize", out_of_memory)
    manifest, stage_files = association_scene(tmp_path)
    expected = {"evaluate": (f"error: {stage_files[0]}: too large to score against "
                             f"{manifest} (out of memory)\n"),
                "associate": "error: associate ran out of memory\n",
                "serialize": "error: serialize ran out of memory\n"}
    for command, message in expected.items():
        assert main(_command_argv(command, tmp_path, manifest, stage_files)) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o.json").exists()


def test_whole_stage_masks_exit_2_under_an_address_space_limit(tmp_path):
    # 120 one-run masks over a 1,000,000-point stage: 14,846 bytes that expand
    # to 916 MiB of indices. The limit binds only the child; one BLAS thread
    # keeps its address-space need apart from the core count
    n = 10 ** 6
    seq = SequencePointCloud((StageCloud(positions=np.zeros((n, 3))),), sequence_id="big")
    manifest = write_manifest(tmp_path / "scene", seq,
                              GroundTruthAnnotation((InstanceMask(0, 0, {0: range(10)}),)))
    whole = base64.b64encode(np.array([0, n], "<i8").tobytes()).decode()
    preds = tmp_path / "preds.json"
    dump_canonical_json(preds, {"schema_version": formats.SCHEMA_VERSION,
                                "kind": "predictions", "sequence_id": "big",
                                "instances": [{"instance_id": i, "class_id": 0,
                                               "confidence": 0.9,
                                               "masks": {"0": {"encoding": "rle_base64",
                                                               "data": whole}}}
                                              for i in range(120)]})
    assert preds.stat().st_size == 14_846

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (700 * 2 ** 20, 700 * 2 ** 20))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    for argv in (["evaluate", "--gt", str(manifest), "--pred", str(preds)],
                 ["associate", "--mode", "geometric", "--pred-a", str(preds),
                  "--pred-b", str(preds), "--manifest", str(manifest)]):
        done = subprocess.run([sys.executable, "-m", "scanseq.cli", *argv,
                               "--out", str(tmp_path / "o.json")], env=env,
                              preexec_fn=limit, capture_output=True, text=True, timeout=300)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1
        assert not (tmp_path / "o.json").exists()
