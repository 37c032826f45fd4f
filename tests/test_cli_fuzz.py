"""Mutation fuzzing of the JSON readers through ``cli.main``.

One node of a valid synth-written manifest, prediction file or ``losses
--op fourier`` payload is replaced by a value from a fixed pool of wrong
types and edge values. Whatever the node, ``main`` returns a documented exit
code (0, 2 for a validation failure, 74 for a format error) and raises nothing.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseq.cli import main
from scanseq.formats import write_manifest, write_predictions
from scanseq.synth import ChangeOp, PerturbationSpec, SceneRecipe, generate, perturb

POOL = (None, True, -1, 2 ** 63, 1.5, "x", "00", [], {})


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
    losses = root / "fourier.json"
    losses.write_text(json.dumps({"coords": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]],
                                  "d_out": 4, "seed": 1, "scale": 1.0}))
    return root, manifest, preds, losses


def _argv(target, mutated, root, manifest, preds, losses):
    out = str(root / "out.json")
    if target == "losses":
        return ["losses", "--op", "fourier", "--in", str(mutated), "--out", out]
    gt, pred = (mutated, preds) if target == "manifest" else (manifest, mutated)
    # a second, valid pair: the reports of both are sorted by sequence id
    return ["evaluate", "--gt", str(gt), "--pred", str(pred),
            "--gt", str(manifest), "--pred", str(preds), "--out", out]


@pytest.mark.parametrize("target", ["manifest", "preds", "losses"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_replaced_node_exits_with_a_documented_code(files, target, data):
    root, manifest, preds, losses = files
    source = {"manifest": manifest, "preds": preds, "losses": losses}[target]
    document = json.loads(source.read_text())
    path = data.draw(st.sampled_from(list(_paths(document))), label="path")
    value = data.draw(st.sampled_from(POOL), label="value")
    # the mutated manifest sits beside the original so its point files resolve
    mutated = source.with_name(f"mutated-{source.name}")
    mutated.write_text(json.dumps(_replaced(document, path, value)))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(_argv(target, mutated, root, manifest, preds, losses))
    assert code in (0, 2, 74)
