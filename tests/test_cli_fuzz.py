"""Mutation fuzzing of the JSON and PLY readers through ``cli.main``.

One node of a valid synth-written manifest or prediction file, a scene
recipe, or a ``losses`` payload of each op is replaced by a value from a
fixed pool of wrong types and edge values; likewise one header line of a
stage PLY is replaced by a line from a pool of header lines, or deleted, and
a stage PLY body is truncated, has bytes overwritten (binary) or one token
replaced (ascii). A prediction file's base64 mask payload is edited one
character at a time or given a known fault, and one run of its list copy is
replaced by a pool value. Whatever the mutation, ``main`` returns a
documented exit code (0, 2 for a validation failure, 74 for a format error)
and raises nothing, and a run that exits 0 writes only standard JSON (no NaN
or Infinity).
"""

import base64
import contextlib
import copy
import io
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseq.cli import main
from scanseq.formats import read_manifest, write_manifest, write_predictions
from scanseq.synth import ChangeOp, PerturbationSpec, SceneRecipe, generate, perturb

from conftest import ascii_copy, list_copy

POOL = (None, True, -1, 2 ** 63, 1.5, float("inf"), "x", "00", [], {})

HEADER_POOL = (None, "", "comment x", "ply", "end_header", "format ascii 1.0",
               "format binary_big_endian 1.0", "format x 1.0", "element vertex -1",
               "element vertex x", "element vertex 1", f"element vertex {10 ** 12}",
               "element face 0", "property float x", "property double x",
               "property list uchar int x", "property quad x", "property int",
               "property float instance", "property uchar instance", "format", "element",
               "property")

BODY_TOKENS = (b"", b"x", b"nan", b"inf", b"-1", b"1.5", b"1e39", b"-0", b"2147483648",
               b"0x1")

PAYLOADS = {
    "fourier": {"coords": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]],
                "d_out": 4, "seed": 1, "scale": 1.0},
    "contrastive": {"features": [[1, 0], [0.9, 0.1], [0, 1]], "instance_ids": [1, 1, 2]},
    "cost": {"pred_mask_logits": [[3, -3], [-3, 3]],
             "pred_class_logits": [[2, 0, 0], [0, 2, 0]],
             "gt_masks": [[1, 0], [0, 1]], "gt_classes": [0, 1],
             "lambdas": {"lambda_dice": 2.0, "lambda_bce": 5.0, "lambda_cls": 2.0,
                         "lambda_no_object": 0.2}},
    "pool": {"coords": [[0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
             "mask": [True, False, False]},
}

RECIPE = {"seed": 3, "n_objects": 3, "n_stages": 3, "n_classes": 1,
          "points_per_object": [8, 14], "background_points": 6,
          "segments_per_object": 2, "ambiguous_groups": [[0, 1]],
          "changes": [{"0": {"kind": "swap", "group_id": 0},
                       "2": {"kind": "rigid", "translation": [0.2, 0, 0]}},
                      {"1": {"kind": "non_rigid", "amplitude": 0.01}}],
          "sequence_id": "fuzz",
          "perturbation": {"target_iou": 0.8, "iou_tolerance": 0.1, "seed": 2}}


def _paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    recipe = SceneRecipe(seed=3, n_objects=3, n_classes=1, points_per_object=(8, 14),
                         background_points=6, ambiguous_groups=((0, 1),),
                         changes=({0: ChangeOp("swap", group_id=0),
                                   2: ChangeOp("rigid", translation=(0.2, 0, 0))},),
                         sequence_id="fuzz")
    seq, gt = generate(recipe)
    manifest = write_manifest(root / "scene", seq, gt)
    preds = root / "preds.json"
    write_predictions(preds, perturb(seq, gt, PerturbationSpec(target_iou=0.8,
                                                               iou_tolerance=0.1)),
                      seq.sequence_id)
    # a second copy of the scene, whose first stage PLY the header fuzz rewrites
    write_manifest(root / "ply-scene", seq, gt)
    # and one whose first stage PLY the body fuzz rewrites, from the binary
    # original or from this ascii copy of it
    write_manifest(root / "body-scene", seq, gt)
    ascii_copy(root / "scene" / "stage_000.ply", root / "stage_000-ascii.ply")
    sources = {"manifest": manifest, "preds": preds, "recipe": root / "recipe.json"}
    sources["recipe"].write_text(json.dumps(RECIPE))
    for op, payload in PAYLOADS.items():
        sources[op] = root / f"{op}.json"
        sources[op].write_text(json.dumps(payload))
    return root, sources


def _argv(target, mutated, out, sources):
    if target in PAYLOADS:
        return ["losses", "--op", target, "--in", str(mutated), "--out", str(out)]
    if target == "recipe":
        return ["generate", "--recipe", str(mutated), "--out", str(out)]
    manifest, preds = sources["manifest"], sources["preds"]
    gt, pred = (mutated, preds) if target == "manifest" else (manifest, mutated)
    # a second, valid pair: the reports of both are sorted by sequence id
    return ["evaluate", "--gt", str(gt), "--pred", str(pred),
            "--gt", str(manifest), "--pred", str(preds), "--out", str(out)]


def _refuse(constant):
    raise ValueError(f"{constant} is not standard JSON")


@pytest.mark.parametrize("target", ["manifest", "preds", "recipe", *PAYLOADS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_replaced_node_exits_with_a_documented_code(files, target, data):
    root, sources = files
    source = sources[target]
    document = json.loads(source.read_text())
    path = data.draw(st.sampled_from(list(_paths(document))), label="path")
    value = data.draw(st.sampled_from(POOL), label="value")
    # the mutated manifest sits beside the original so its point files resolve
    mutated = source.with_name(f"mutated-{source.name}")
    mutated.write_text(json.dumps(_replaced(document, path, value)))
    out = root / "out"  # a report, a payload's result or a scene directory
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(_argv(target, mutated, out, sources))
    assert code in (0, 2, 74)
    if code == 0:
        _check_written(out)


def _check_written(out):
    written = sorted(out.glob("*.json")) if out.is_dir() else [out]
    assert written and all(p.exists() for p in written)
    for p in written:
        json.loads(p.read_text(), parse_constant=_refuse)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_replaced_ply_header_line_exits_with_a_documented_code(files, data):
    root, sources = files
    ply = root / "ply-scene" / "stage_000.ply"
    pristine = (root / "scene" / "stage_000.ply").read_bytes()
    end = pristine.index(b"end_header\n") + len(b"end_header\n")
    lines = pristine[:end].decode("ascii").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = data.draw(st.sampled_from(HEADER_POOL), label="replacement")
    lines[at:at + 1] = [] if line is None else [line]
    ply.write_bytes("".join(f"{l}\n" for l in lines).encode("ascii") + pristine[end:])
    out = root / "out"
    out.unlink(missing_ok=True)
    argv = ["evaluate", "--gt", str(root / "ply-scene" / "manifest.json"),
            "--pred", str(sources["preds"]), "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 74)
    if code == 0:
        _check_written(out)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_mutated_ply_body_exits_with_a_documented_code(files, data):
    root, sources = files
    binary = data.draw(st.booleans(), label="binary")
    pristine = (root / "scene" / "stage_000.ply" if binary
                else root / "stage_000-ascii.ply").read_bytes()
    start = pristine.index(b"end_header\n") + len(b"end_header\n")
    body = pristine[start:]
    if data.draw(st.booleans(), label="truncate"):
        body = body[:data.draw(st.integers(0, len(body) - 1), label="length")]
    elif binary:
        at = data.draw(st.integers(0, len(body) - 1), label="offset")
        new = data.draw(st.binary(min_size=1, max_size=8), label="bytes")[:len(body) - at]
        body = body[:at] + new + body[at + len(new):]
    else:
        tokens = [m.span() for m in re.finditer(rb"\S+", body)]
        begin, end = tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")]
        value = data.draw(st.sampled_from(BODY_TOKENS), label="value")
        body = body[:begin] + value + body[end:]
    (root / "body-scene" / "stage_000.ply").write_bytes(pristine[:start] + body)
    out = root / "out"
    out.unlink(missing_ok=True)
    argv = ["evaluate", "--gt", str(root / "body-scene" / "manifest.json"),
            "--pred", str(sources["preds"]), "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 64, 74) and "Traceback" not in err.getvalue()
    if code == 0:
        _check_written(out)


def _packed(runs) -> str:
    return base64.b64encode(np.array(runs, "<i8").tobytes()).decode("ascii")


# name -> (edit of a base64 payload in a stage of n points, the message it gives)
PAYLOAD_FAULTS = {
    "not-base64": (lambda text, n: text[:4] + "!" + text[5:],
                   "rle_base64 data is not padded standard base64"),
    "non-ascii": (lambda text, n: text[:4] + "\u00e9" + text[5:],
                  "rle_base64 data is not padded standard base64"),
    "newline": (lambda text, n: text[:8] + "\n" + text[8:],
                "rle_base64 data is not padded standard base64"),
    "bad-padding": (lambda text, n: _packed([[0, 1]]).rstrip("="),
                    "rle_base64 data is not padded standard base64"),
    "odd-length": (lambda text, n: base64.b64encode(
        base64.b64decode(text) + bytes(8)).decode("ascii"),
        "bytes, not a whole number of 16-byte [start, length] runs"),
    "negative-start": (lambda text, n: _packed([[-1, 2]]),
                       "invalid RLE run [-1, 2] in a stage of {n} points"),
    "zero-length": (lambda text, n: _packed([[0, 1], [3, 0]]),
                    "invalid RLE run [3, 0] in a stage of {n} points"),
    "past-stage": (lambda text, n: _packed([[0, 1], [n - 1, 2]]),
                   "invalid RLE run [{m}, 2] in a stage of {n} points"),
    "descending": (lambda text, n: _packed([[5, 2], [0, 1]]),
                   "RLE runs do not decode to strictly increasing indices"),
    "overlapping": (lambda text, n: _packed([[0, 3], [2, 1]]),
                    "RLE runs do not decode to strictly increasing indices"),
    "end-overflows": (lambda text, n: _packed([[2 ** 63 - 2, 5]]),
                      f"invalid RLE run [{2 ** 63 - 2}, 5] in a stage of {{n}} points"),
}


def _with_faults(files, faults, name="faulty-preds.json"):
    """The prediction file with ``faults[i]`` (if not None) applied to the
    first payload of entry ``i``; returns its path and each fault's message."""
    root, sources = files
    sizes = read_manifest(sources["manifest"])[0].stage_sizes()
    document = json.loads(sources["preds"].read_text())
    messages = []
    for entry, fault in zip(document["instances"], faults):
        if fault is None:
            continue
        stage, payload = next(iter(entry["masks"].items()))
        n = sizes[int(stage)]
        edit, message = PAYLOAD_FAULTS[fault]
        payload["data"] = edit(payload["data"], n)
        messages.append(message.format(n=n, m=n - 1))
    mutated = root / name
    mutated.write_text(json.dumps(document))
    return mutated, messages


def _evaluate(files, preds):
    """``cli.main`` evaluating ``preds``: its exit code and standard error."""
    root, sources = files
    out = root / "out"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--gt", str(sources["manifest"]), "--pred", str(preds),
                     "--out", str(out)])
    if code == 0:
        _check_written(out)
    return code, err.getvalue()


@pytest.mark.parametrize("fault", PAYLOAD_FAULTS)
def test_one_faulty_base64_payload_exits_74(files, fault):
    mutated, (message,) = _with_faults(files, [fault])
    code, err = _evaluate(files, mutated)
    assert code == 74 and "Traceback" not in err
    assert err.startswith(f"error: {mutated}: bad prediction entry (")
    assert message in err


@pytest.mark.parametrize("faults", [
    ("negative-start", "descending"),
    ("descending", "negative-start"),
    ("not-base64", "past-stage"),
    ("past-stage", "not-base64"),
    ("odd-length", "zero-length"),
], ids="-then-".join)
def test_faults_in_two_entries_name_the_first(files, faults):
    mutated, messages = _with_faults(files, faults)
    code, err = _evaluate(files, mutated)
    assert code == 74 and "Traceback" not in err
    assert messages[0] in err and messages[1] not in err


def test_an_entry_fault_before_a_run_fault_is_named_first(files):
    mutated, _ = _with_faults(files, [None, "past-stage"])
    document = json.loads(mutated.read_text())
    document["instances"][0]["instance_id"] = True
    mutated.write_text(json.dumps(document))
    code, err = _evaluate(files, mutated)
    assert code == 74 and "Traceback" not in err
    assert "instance_id must be an integer, not True" in err and "RLE run" not in err


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_edited_base64_character_exits_with_a_documented_code(files, data):
    root, sources = files
    document = json.loads(sources["preds"].read_text())
    payloads = [m for entry in document["instances"] for m in entry["masks"].values()]
    payload = payloads[data.draw(st.integers(0, len(payloads) - 1), label="payload")]
    text = payload["data"]
    at = data.draw(st.integers(0, len(text)), label="at")
    char = data.draw(st.sampled_from("A/+=!\u00e9\n -_"), label="char")
    cut = data.draw(st.integers(0, 1), label="replace") if at < len(text) else 0
    payload["data"] = text[:at] + char + text[at + cut:]
    mutated = root / "edited-preds.json"
    mutated.write_text(json.dumps(document))
    code, err = _evaluate(files, mutated)
    assert code in (0, 2, 74) and "Traceback" not in err
    if code == 74:
        assert str(mutated) in err


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_replaced_list_run_exits_with_a_documented_code(files, data):
    root, sources = files
    listed = root / "listed-preds.json"
    list_copy(sources["preds"], listed)
    document = json.loads(listed.read_text())
    runs = [m["data"] for entry in document["instances"] for m in entry["masks"].values()]
    chosen = runs[data.draw(st.integers(0, len(runs) - 1), label="payload")]
    chosen[data.draw(st.integers(0, len(chosen) - 1), label="at")] = data.draw(
        st.sampled_from(POOL), label="value")
    listed.write_text(json.dumps(document))
    code, err = _evaluate(files, listed)
    assert code in (0, 2, 74) and "Traceback" not in err
    if code == 74:
        assert str(listed) in err
