import hashlib

import numpy as np
import pytest

from scanseq import synth
from scanseq.cli import main
from scanseq.formats import read_predictions, write_manifest, write_predictions
from scanseq.metrics import evaluate, t_iou
from scanseq.model import ChangeType, validate_sequence
from scanseq.synth import (ChangeOp, IdentityPolicy, PerturbationError,
                           PerturbationSpec, SceneGenerationError, SceneRecipe,
                           generate, perturb)

import oracles
from conftest import list_copy


def test_all_static_plan_keeps_clouds_identical():
    recipe = SceneRecipe(seed=3, n_objects=3, n_stages=3)
    seq, gt = generate(recipe)
    for t in (1, 2):
        assert np.array_equal(seq.stages[0].positions, seq.stages[t].positions)
    assert all(label is ChangeType.STATIC for label in gt.change_labels.values())


def test_generated_scenes_validate():
    recipe = SceneRecipe(seed=5, n_objects=6, n_stages=3,
                         ambiguous_groups=((0, 1),),
                         changes=({0: ChangeOp("swap", group_id=0)}, {}),
                         background_points=100)
    seq, gt = generate(recipe)
    assert not validate_sequence(seq, gt, [])


def test_swap_exchanges_centroids_exactly():
    recipe = SceneRecipe(seed=7, n_objects=4, ambiguous_groups=((1, 2),),
                         changes=({1: ChangeOp("swap", group_id=0)},))
    seq, gt = generate(recipe)
    def centroid(instance, stage):
        pts = gt.instances[instance].per_stage_points[stage]
        return seq.stages[stage].positions[pts].mean(axis=0)
    assert np.allclose(centroid(1, 1), centroid(2, 0), atol=1e-9)
    assert np.allclose(centroid(2, 1), centroid(1, 0), atol=1e-9)
    assert gt.change_labels[1] is ChangeType.AMBIGUOUS


def test_rigid_translation_moves_centroid_exactly():
    recipe = SceneRecipe(seed=11, n_objects=2,
                         changes=({0: ChangeOp("rigid", translation=(1, 0, 0),
                                               yaw_deg=30.0)},))
    seq, gt = generate(recipe)
    pts0 = gt.instances[0].per_stage_points[0]
    pts1 = gt.instances[0].per_stage_points[1]
    c0 = seq.stages[0].positions[pts0].mean(axis=0)
    c1 = seq.stages[1].positions[pts1].mean(axis=0)
    assert np.allclose(c1 - c0, [1, 0, 0], atol=1e-9)
    assert gt.change_labels[0] is ChangeType.RIGID


def test_rigid_change_is_an_exact_se3_map():
    recipe = SceneRecipe(seed=13, n_objects=1,
                         changes=({0: ChangeOp("rigid", translation=(0.4, -0.2, 0.1),
                                               yaw_deg=45.0)},))
    seq, gt = generate(recipe)
    a = seq.stages[0].positions[gt.instances[0].per_stage_points[0]]
    b = seq.stages[1].positions[gt.instances[0].per_stage_points[1]]
    # recover the rigid transform by procrustes and check the residual
    ca, cb = a.mean(0), b.mean(0)
    h = (a - ca).T @ (b - cb)
    u, _, vt = np.linalg.svd(h)
    rot = vt.T @ u.T
    if np.linalg.det(rot) < 0:
        vt = vt.copy()
        vt[-1] *= -1
        rot = vt.T @ u.T
    mapped = (a - ca) @ rot.T + cb
    assert np.max(np.linalg.norm(mapped - b, axis=1)) < 1e-6


def test_add_remove_presence_schedule():
    recipe = SceneRecipe(seed=17, n_objects=3, n_stages=3,
                         changes=({0: ChangeOp("remove")}, {1: ChangeOp("add")}))
    # instance 1 must be absent until its add transition
    seq, gt = generate(recipe)
    m0 = gt.instances[0]
    m1 = gt.instances[1]
    assert sorted(m0.per_stage_points) == [0]
    assert sorted(m1.per_stage_points) == [2]
    assert gt.change_labels[0] is ChangeType.ADDED_REMOVED
    assert gt.change_labels[1] is ChangeType.ADDED_REMOVED


def test_non_rigid_is_the_declared_sinusoid():
    recipe = SceneRecipe(seed=19, n_objects=1,
                         changes=({0: ChangeOp("non_rigid", amplitude=0.05,
                                               wavelength=0.7)},))
    seq, gt = generate(recipe)
    a = seq.stages[0].positions[gt.instances[0].per_stage_points[0]]
    b = seq.stages[1].positions[gt.instances[0].per_stage_points[1]]
    assert np.allclose(b, a + 0.05 * np.sin(2 * np.pi * a / 0.7), atol=1e-12)
    assert gt.change_labels[0] is ChangeType.NON_RIGID


def test_generation_is_deterministic():
    recipe = SceneRecipe(seed=23, n_objects=5, background_points=50,
                         ambiguous_groups=((0, 1),))
    seq1, gt1 = generate(recipe)
    seq2, gt2 = generate(recipe)
    for s1, s2 in zip(seq1.stages, seq2.stages):
        assert np.array_equal(s1.positions, s2.positions)
        assert np.array_equal(s1.colors, s2.colors)
        assert np.array_equal(s1.segment_ids, s2.segment_ids)
    for m1, m2 in zip(gt1.instances, gt2.instances):
        assert m1.instance_id == m2.instance_id
        for t in m1.per_stage_points:
            assert np.array_equal(m1.per_stage_points[t], m2.per_stage_points[t])


def test_infeasible_recipe_raises():
    recipe = SceneRecipe(seed=1, n_objects=100, extent=1.0,
                         size_range=(0.9, 1.0), max_placement_retries=20)
    with pytest.raises(SceneGenerationError, match="retries"):
        generate(recipe)


@pytest.mark.parametrize("field,value", [("size_range", (0.3, 0.5, 0.8)),
                                         ("points_per_object", (8,))])
def test_recipe_ranges_that_are_not_pairs_raise(field, value):
    with pytest.raises(ValueError, match=r"^size_range and points_per_object must be "
                                         r"\(low, high\) pairs$"):
        SceneRecipe(**{field: value})


@pytest.mark.parametrize("recipe,message", [
    (SceneRecipe(n_objects=3, ambiguous_groups=((-1, 0),)), "member -1 out of range"),
    (SceneRecipe(n_objects=3, ambiguous_groups=((1, 3),)), "member 3 out of range"),
    (SceneRecipe(n_objects=3, ambiguous_groups=((0, 1),),
                 changes=({0: ChangeOp("swap", group_id=-1)},)), "unknown group -1"),
    (SceneRecipe(n_objects=3, changes=({3: ChangeOp("add")},)), "unknown instance 3"),
], ids=["negative-member", "member-past-end", "negative-swap-group", "change-past-end"])
def test_out_of_range_references_raise(recipe, message):
    with pytest.raises(SceneGenerationError, match=message):
        generate(recipe)


def test_every_swap_op_of_a_group_is_checked():
    # instance 0's swap already moves group 0 in this step; instance 3's is still checked
    swap = ChangeOp("swap", group_id=0)
    recipe = SceneRecipe(seed=1, n_objects=4, ambiguous_groups=((0, 1),),
                         changes=({0: swap, 3: swap},))
    with pytest.raises(SceneGenerationError,
                       match="instance 3 swaps under group 0 it is not part of"):
        generate(recipe)


def test_second_swap_op_of_a_group_in_one_step_acts_once():
    # a group of two swapped twice would be back in place
    group = ((0, 1),)
    once = generate(SceneRecipe(seed=7, n_objects=3, ambiguous_groups=group,
                                changes=({0: ChangeOp("swap", group_id=0)},)))[0]
    both = generate(SceneRecipe(seed=7, n_objects=3, ambiguous_groups=group,
                                changes=({0: ChangeOp("swap", group_id=0),
                                          1: ChangeOp("swap", group_id=0)},)))[0]
    assert np.array_equal(both.stages[1].positions, once.stages[1].positions)
    assert not np.array_equal(both.stages[1].positions, both.stages[0].positions)


@pytest.mark.parametrize("seed,n_objects,extent,margin", [
    (0, 40, 4.0, 0.05), (1, 60, 5.0, 0.0), (2, 25, 3.0, -0.1), (3, 200, 30.0, 0.2),
    (4, 30, 2.5, 0.05)])
def test_placement_draws_as_a_test_against_every_placed_center(seed, n_objects, extent,
                                                              margin):
    recipe = SceneRecipe(seed=seed, n_objects=n_objects, extent=extent,
                         placement_margin=margin, max_placement_retries=200)
    max_size = np.random.default_rng(seed).uniform(0.2, 0.8, size=n_objects)
    max_size[::3] = max_size[0]  # equal radii, as ambiguous group members have

    try:
        got = synth._place_centers(np.random.default_rng(seed), recipe, max_size)
    except SceneGenerationError:
        got = None
    want = oracles.brute_force_place_centers(np.random.default_rng(seed), recipe, max_size)
    assert (got is None and want is None) or np.array_equal(got, want)


def test_ambiguous_members_share_shape_and_class():
    recipe = SceneRecipe(seed=29, n_objects=4, ambiguous_groups=((0, 1),))
    seq, gt = generate(recipe)
    a, b = gt.instances[0], gt.instances[1]
    assert a.class_id == b.class_id
    assert a.per_stage_points[0].size == b.per_stage_points[0].size


# ---------------------------------------------------------------------------
# Perturbation


def _class_major(gt):
    # the emission order of perturb's consistent policy
    return sorted(gt.instances, key=lambda m: (m.class_id, m.instance_id))


def test_perfect_target_reproduces_ground_truth():
    seq, gt = generate(SceneRecipe(seed=31, n_objects=4))
    preds = perturb(seq, gt, PerturbationSpec(target_iou=1.0))
    assert len(preds) == 4
    for pred, inst in zip(preds, _class_major(gt)):
        assert pred.class_id == inst.class_id
        for t, pts in inst.per_stage_points.items():
            assert np.array_equal(pred.per_stage_points[t], pts)


def test_target_iou_is_hit_within_tolerance():
    seq, gt = generate(SceneRecipe(seed=37, n_objects=5, background_points=400,
                                   points_per_object=(100, 220)))
    preds = perturb(seq, gt, PerturbationSpec(target_iou=0.6, seed=2))
    for pred, inst in zip(preds, _class_major(gt)):
        profile = t_iou(pred, inst)
        for t, value in profile.per_stage_iou.items():
            assert 0.58 <= value <= 0.62


def test_swapped_policy_zeroes_tiou_under_evaluate():
    recipe = SceneRecipe(seed=41, n_objects=2, n_classes=1)
    seq, gt = generate(recipe)
    preds = perturb(seq, gt, PerturbationSpec(target_iou=1.0,
                                              identity_policy="swapped"))
    report = evaluate(seq, gt, preds)
    assert report.t_map25 == 0.0


def test_merged_and_fragmented_policies_shape():
    seq, gt = generate(SceneRecipe(seed=43, n_objects=4, n_classes=1))
    merged = perturb(seq, gt, PerturbationSpec(identity_policy="merged"))
    assert len(merged) == 2
    fragmented = perturb(seq, gt, PerturbationSpec(identity_policy="fragmented"))
    assert len(fragmented) == 8
    # fragments of one instance are disjoint
    for a, b in zip(fragmented[0::2], fragmented[1::2]):
        for t in a.per_stage_points:
            assert np.intersect1d(a.per_stage_points[t],
                                  b.per_stage_points.get(t, [])).size == 0


def test_unreachable_target_raises():
    seq, gt = generate(SceneRecipe(seed=47, n_objects=1, points_per_object=(8, 8)))
    with pytest.raises(PerturbationError):
        perturb(seq, gt, PerturbationSpec(target_iou=0.6))


@pytest.mark.parametrize("target", [0.0, -0.5, 1.5])
def test_target_outside_the_unit_interval_raises(target):
    seq, gt = generate(SceneRecipe(seed=47, n_objects=2))
    with pytest.raises(PerturbationError, match=r"outside \(0, 1\]"):
        perturb(seq, gt, PerturbationSpec(target_iou=target))


def test_predictions_are_disjoint_within_stages():
    seq, gt = generate(SceneRecipe(seed=53, n_objects=6, background_points=300))
    preds = perturb(seq, gt, PerturbationSpec(target_iou=0.7, seed=5))
    for t in range(seq.num_stages):
        all_points = np.concatenate(
            [p.per_stage_points.get(t, np.empty(0, int)) for p in preds])
        assert len(np.unique(all_points)) == len(all_points)


def test_recipe_round_trips_through_dict():
    recipe = SceneRecipe(seed=5, n_objects=3, ambiguous_groups=((0, 2),),
                         changes=({0: ChangeOp("swap", group_id=0),
                                   1: ChangeOp("rigid", translation=(1, 2, 3))},))
    data = {
        "seed": 5, "n_objects": 3, "ambiguous_groups": [[0, 2]],
        "changes": [{"0": {"kind": "swap", "group_id": 0},
                     "1": {"kind": "rigid", "translation": [1, 2, 3]}}],
    }
    assert SceneRecipe(**data) == recipe


# ---------------------------------------------------------------------------
# Pinned scene bytes


def _pinned_recipes():
    c = ChangeOp
    return {
        "rigid-non-rigid": SceneRecipe(
            seed=61, n_objects=5, n_stages=3, background_points=40, segments_per_object=2,
            changes=({0: c("rigid", translation=(0.3, -0.1, 0.0), yaw_deg=20.0),
                      2: c("non_rigid", amplitude=0.04, wavelength=0.6)},
                     {1: c("rigid", translation=(0.0, 0.2, 0.1))}),
            sequence_id="pin-moves"),
        "swap": SceneRecipe(
            seed=62, n_objects=6, n_stages=3, segments_per_object=3,
            ambiguous_groups=((0, 2, 3), (4, 5)),
            changes=({0: c("swap", group_id=0), 4: c("swap", group_id=1)},
                     {2: c("swap", group_id=0)}),
            sequence_id="pin-swap"),
        "add-remove": SceneRecipe(
            seed=63, n_objects=4, n_stages=4, background_points=25,
            changes=({0: c("remove"), 1: c("add")}, {}, {0: c("add"), 3: c("remove")}),
            sequence_id="pin-add-remove"),
        "every-kind": SceneRecipe(
            seed=64, n_objects=7, n_stages=2, n_classes=2, background_points=30,
            segments_per_object=2, ambiguous_groups=((5, 6),),
            changes=({0: c("static"), 1: c("rigid", translation=(0.5, 0.0, 0.0)),
                      2: c("non_rigid", amplitude=0.03, wavelength=1.1), 3: c("add"),
                      4: c("remove"), 5: c("swap", group_id=0)},),
            sequence_id="pin-every-kind"),
        "one-stage": SceneRecipe(seed=65, n_objects=3, n_stages=1, primitives=("sphere",),
                                 sequence_id="pin-one-stage"),
        "one-class": SceneRecipe(
            seed=66, n_objects=5, n_stages=2, n_classes=1, background_points=60,
            changes=({0: c("rigid", yaw_deg=45.0), 3: c("remove")},),
            sequence_id="pin-one-class"),
    }


# SHA-256 over the manifest directory and the prediction files of all four
# identity policies. A deliberate change of what synth draws or of the
# writers updates these values and says why in CHANGES.md.
PINNED_SCENES = {
    "rigid-non-rigid": "82aa5cff3ba8478623b52d119a2f717bfa02399d004c573deb2f2102c72be1bc",
    "swap": "1c8a538be512ff3d0f9bccb9917cf7cbb617490184a9dec22cb474b50236e5cd",
    "add-remove": "f961c3b240680b0317220d278061ddd08645d13da99c9aaccfd52c6898b684e8",
    "every-kind": "6b320960915b7918988bf54a3601b6fb8a496da6f079f972aca6ec6f890d44dd",
    "one-stage": "a8b4dd63013990c50014d7a8a48ccbcbc7e23a6ed3f47d8455c503f1e5fbf3a8",
    "one-class": "59a0bef6f80feb86961448f727c0b58bc83764a2a3397c678cf7708bb8994841",
}


@pytest.mark.parametrize("name", PINNED_SCENES)
def test_scene_bytes_are_pinned(tmp_path, name):
    seq, gt = generate(_pinned_recipes()[name])
    write_manifest(tmp_path / "scene", seq, gt)
    for policy in IdentityPolicy:
        spec = PerturbationSpec(target_iou=0.8, seed=7, iou_tolerance=0.05,
                                identity_policy=policy)
        write_predictions(tmp_path / f"{policy.value}.json", perturb(seq, gt, spec),
                          seq.sequence_id)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(tmp_path).as_posix().encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_SCENES[name]


@pytest.mark.parametrize("name", PINNED_SCENES)
def test_list_and_base64_payloads_read_and_score_alike(tmp_path, name):
    # prediction files written before rle_base64 hold flat lists of runs
    seq, gt = generate(_pinned_recipes()[name])
    manifest = write_manifest(tmp_path / "scene", seq, gt)
    for policy in IdentityPolicy:
        spec = PerturbationSpec(target_iou=0.8, seed=7, iou_tolerance=0.05,
                                identity_policy=policy)
        packed = tmp_path / f"{policy.value}.json"
        write_predictions(packed, perturb(seq, gt, spec), seq.sequence_id)
        listed = tmp_path / f"{policy.value}-list.json"
        list_copy(packed, listed)
        assert '"rle_base64"' not in listed.read_text()
        masks = [[(m.instance_id, m.class_id, m.confidence,
                   {t: p.tolist() for t, p in m.per_stage_points.items()})
                  for m in read_predictions(path, seq.stage_sizes()).instances]
                 for path in (packed, listed)]
        assert masks[0] == masks[1]
        reports = []
        for path in (packed, listed):
            out = tmp_path / f"{path.stem}-report.json"
            assert main(["evaluate", "--gt", str(manifest), "--pred", str(path),
                         "--per-change-type", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def test_change_op_translation_needs_three_numbers():
    with pytest.raises(ValueError, match="translation must hold 3 numbers, not 2"):
        ChangeOp("rigid", translation=(1, 2))
