"""Metamorphic properties of ``evaluate``: transformations of the inputs that
must leave the canonical report bytes, or a part of them, unchanged."""

import dataclasses
import json

import numpy as np
import pytest

from scanseq import cli, metrics
from scanseq.formats import (dump_canonical_json, report_to_dict, write_manifest,
                             write_predictions)
from scanseq.model import AmbiguousGroup, GroundTruthAnnotation, InstanceMask
from scanseq.synth import ChangeOp, PerturbationSpec, SceneRecipe, generate, perturb

TRIALS = range(8)


def _ambiguous_scene():
    """Three stages, groups {0, 1, 2} and {4, 5} swapping at both transitions,
    and predictions whose IoU targets (0.6 to 0.92) and distinct confidences
    are unrelated, so the matching order decides the AP."""
    swaps = {0: ChangeOp("swap", group_id=0), 4: ChangeOp("swap", group_id=1),
             7: ChangeOp("rigid", translation=(0.3, 0, 0))}
    recipe = SceneRecipe(seed=21, n_objects=10, n_stages=3, n_classes=2,
                         background_points=200, ambiguous_groups=((0, 1, 2), (4, 5)),
                         changes=(swaps, swaps), sequence_id="meta")
    seq, gt = generate(recipe)
    targets = {i: 0.6 + 0.035 * ((3 * i) % 10) for i in range(10)}
    preds = perturb(seq, gt, PerturbationSpec(target_iou=targets, seed=4,
                                              confidence_jitter=0.09))
    confidences = [p.confidence for p in preds]
    assert len(set(confidences)) == len(confidences)
    return seq, gt, preds


def _main_member(pred, gt):
    """The ground-truth instance holding most of ``pred``'s first-stage points."""
    t = min(pred.per_stage_points)
    return max(gt.instances, key=lambda g: np.intersect1d(
        g.points_at(t), pred.per_stage_points[t]).size).instance_id


def _dropped_scene():
    """The ambiguous scene without the predictions of members 0, 1 and 4, so
    their components are left to the random fill."""
    seq, gt, preds = _ambiguous_scene()
    return seq, gt, [p for p in preds if _main_member(p, gt) not in (0, 1, 4)]


SCENES = {"ambiguous": _ambiguous_scene, "dropped": _dropped_scene}


def _report_bytes(tmp_path, seq, gt, preds) -> bytes:
    path = tmp_path / "report.json"
    dump_canonical_json(path, report_to_dict(metrics.evaluate(seq, gt, preds, rng_seed=3)))
    return path.read_bytes()


def _relabel_ground_truth(gt, mapping):
    return GroundTruthAnnotation(
        instances=tuple(dataclasses.replace(m, instance_id=mapping[m.instance_id])
                        for m in gt.instances),
        ambiguous_groups=tuple(AmbiguousGroup(g.group_id, tuple(
            mapping[m] for m in g.member_instance_ids)) for g in gt.ambiguous_groups),
        change_labels={mapping[k]: v for k, v in gt.change_labels.items()})


def _new_ids(rng, ids):
    return dict(zip(ids, rng.choice(10 * len(ids) + 100, size=len(ids),
                                    replace=False).tolist()))


def test_dropped_scene_fills_at_random(monkeypatch):
    seq, gt, preds = _dropped_scene()
    draws = []
    assign = metrics.assign_ambiguous_components

    class CountingRng:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, n):
            draws.append(n)
            return self.rng.integers(n)

    monkeypatch.setattr(metrics, "assign_ambiguous_components",
                        lambda w, present, rng: assign(w, present, CountingRng(rng)))
    metrics.evaluate(seq, gt, preds, rng_seed=3)
    assert any(n > 1 for n in draws)


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("trial", TRIALS)
def test_report_invariant_to_prediction_order(tmp_path, scene, trial):
    seq, gt, preds = SCENES[scene]()
    expected = _report_bytes(tmp_path, seq, gt, preds)
    order = np.random.default_rng(trial).permutation(len(preds))
    assert _report_bytes(tmp_path, seq, gt, [preds[i] for i in order]) == expected


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("trial", TRIALS)
def test_report_invariant_to_prediction_ids(tmp_path, scene, trial):
    seq, gt, preds = SCENES[scene]()
    expected = _report_bytes(tmp_path, seq, gt, preds)
    mapping = _new_ids(np.random.default_rng(trial), [p.instance_id for p in preds])
    relabelled = [dataclasses.replace(p, instance_id=mapping[p.instance_id])
                  for p in preds]
    assert _report_bytes(tmp_path, seq, gt, relabelled) == expected


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("trial", TRIALS)
def test_report_invariant_to_ground_truth_ids(tmp_path, scene, trial):
    seq, gt, preds = SCENES[scene]()
    expected = _report_bytes(tmp_path, seq, gt, preds)
    mapping = _new_ids(np.random.default_rng(100 + trial),
                       [m.instance_id for m in gt.instances])
    assert _report_bytes(tmp_path, seq, _relabel_ground_truth(gt, mapping),
                         preds) == expected


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("trial", TRIALS)
def test_report_invariant_to_group_member_order(tmp_path, scene, trial):
    # the members of each group permuted, in the library and in a manifest
    seq, gt, preds = SCENES[scene]()
    rng = np.random.default_rng(300 + trial)
    orders = {g.group_id: rng.permutation(len(g.member_instance_ids))
              for g in gt.ambiguous_groups}
    expected = _report_bytes(tmp_path, seq, gt, preds)
    permuted = dataclasses.replace(gt, ambiguous_groups=tuple(
        AmbiguousGroup(g.group_id, tuple(np.array(g.member_instance_ids)[orders[g.group_id]]
                                         .tolist())) for g in gt.ambiguous_groups))
    assert _report_bytes(tmp_path, seq, permuted, preds) == expected

    manifest = write_manifest(tmp_path / "scene", seq, gt)
    write_predictions(tmp_path / "preds.json", preds, seq.sequence_id)
    reports = []
    for _ in range(2):
        out = tmp_path / f"report{len(reports)}.json"
        assert cli.main(["evaluate", "--gt", str(manifest), "--pred",
                         str(tmp_path / "preds.json"), "--seed", "3", "--per-change-type",
                         "--out", str(out)]) == 0
        reports.append(out.read_bytes())
        data = json.loads(manifest.read_text())
        for group in data["annotations"]["ambiguous_groups"]:
            group["members"] = np.array(group["members"])[orders[group["group_id"]]].tolist()
        manifest.write_text(json.dumps(data))
    assert reports == [expected, expected]


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("trial", TRIALS)
def test_report_invariant_to_listed_order(tmp_path, scene, trial):
    # the ground-truth instances and the groups listed in another order, in
    # the library and in a manifest
    seq, gt, preds = SCENES[scene]()
    rng = np.random.default_rng(400 + trial)
    expected = _report_bytes(tmp_path, seq, gt, preds)
    permuted = dataclasses.replace(
        gt, instances=tuple(gt.instances[i] for i in rng.permutation(len(gt.instances))),
        ambiguous_groups=tuple(gt.ambiguous_groups[i]
                               for i in rng.permutation(len(gt.ambiguous_groups))))
    assert _report_bytes(tmp_path, seq, permuted, preds) == expected

    manifest = write_manifest(tmp_path / "scene", seq, gt)
    write_predictions(tmp_path / "preds.json", preds, seq.sequence_id)
    data = json.loads(manifest.read_text())
    for key in ("instances", "ambiguous_groups"):
        listed = data["annotations"][key]
        data["annotations"][key] = [listed[i] for i in rng.permutation(len(listed))]
    manifest.write_text(json.dumps(data))
    out = tmp_path / "cli-report.json"
    assert cli.main(["evaluate", "--gt", str(manifest), "--pred", str(tmp_path / "preds.json"),
                     "--seed", "3", "--per-change-type", "--out", str(out)]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("trial", TRIALS)
def test_new_class_on_shared_points_leaves_other_classes_unchanged(scene, trial):
    """Ground truth of a new class laid over points that the other classes'
    ground truth and predictions use changes no other class's numbers."""
    seq, gt, preds = SCENES[scene]()
    before = metrics.evaluate(seq, gt, preds, rng_seed=3)
    rng = np.random.default_rng(200 + trial)
    new_class = max(before.class_ids) + 1
    next_id = 1 + max(m.instance_id for m in gt.instances)
    added = []
    for k in range(3):
        per_stage = {}
        for t in range(seq.num_stages):
            used = np.unique(np.concatenate(
                [m.points_at(t) for m in (*gt.instances, *preds)]))
            per_stage[t] = rng.choice(used, size=used.size // 3, replace=False)
        added.append(InstanceMask(instance_id=next_id + k, class_id=new_class,
                                  per_stage_points=per_stage))
    after = metrics.evaluate(seq, dataclasses.replace(
        gt, instances=(*gt.instances, *added)), preds, rng_seed=3)
    assert after.class_ids == (*before.class_ids, new_class)
    for c in before.class_ids:
        assert after.per_class_ap[c] == before.per_class_ap[c]
        assert after.counts[c] == before.counts[c]
        assert after.pr_curves[c] == before.pr_curves[c]
