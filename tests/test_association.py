import numpy as np
import pytest

from scanseq.association import associate_geometric, associate_semantic
from scanseq.model import InstanceMask, StageCloud

import oracles


def _pred(class_id, points, feature=None, confidence=0.8):
    """A (class, points, feature, confidence) prediction, placed by _pset."""
    return class_id, np.asarray(points), feature, confidence


def _pset(stage, preds):
    """Single-stage masks at ``stage`` with ids 0, 1, ... and their feature map."""
    masks = tuple(InstanceMask(instance_id=i, class_id=class_id,
                               per_stage_points={stage: points}, confidence=confidence)
                  for i, (class_id, points, _, confidence) in enumerate(preds))
    features = {i: feature for i, (_, _, feature, _) in enumerate(preds)
                if feature is not None}
    return masks, features


# ---------------------------------------------------------------------------
# Semantic association


def test_identical_features_match_identically():
    feats = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    a, a_feats = _pset(0, [_pred(1, range(10), feats[0]), _pred(1, range(10, 20), feats[1])])
    b, b_feats = _pset(1, [_pred(1, range(5), feats[0]), _pred(1, range(5, 12), feats[1])])
    merged = associate_semantic(a, b, a_feats, b_feats)
    assert len(merged) == 2
    by_stage0 = {m.per_stage_points[0].tolist()[0]: m for m in merged}
    assert by_stage0[0].per_stage_points[1].tolist() == list(range(5))
    assert by_stage0[10].per_stage_points[1].tolist() == list(range(5, 12))


def test_different_classes_never_match():
    f = np.array([1.0, 0.0])
    a, a_feats = _pset(0, [_pred(1, range(10), f)])
    b, b_feats = _pset(1, [_pred(2, range(10), f)])
    merged = associate_semantic(a, b, a_feats, b_feats)
    assert len(merged) == 2
    assert all(len(m.per_stage_points) == 1 for m in merged)
    classes = sorted(m.class_id for m in merged)
    assert classes == [1, 2]


def test_assignment_matches_brute_force_injection():
    # positive features have positive cosines, so the 0.0 similarity floor
    # never drops a pair and the assignment alone decides the matches
    rng = np.random.default_rng(0)
    a_feats = rng.uniform(0.1, 1.0, size=(4, 6))
    b_feats = rng.uniform(0.1, 1.0, size=(3, 6))
    a, a_map = _pset(0, [_pred(1, range(10 * i, 10 * i + 5), a_feats[i]) for i in range(4)])
    b, b_map = _pset(1, [_pred(1, range(10 * i, 10 * i + 5), b_feats[i]) for i in range(3)])
    merged = associate_semantic(a, b, a_map, b_map)
    total = 0.0
    for m in merged:
        if len(m.per_stage_points) == 2:
            i = int(m.per_stage_points[0][0]) // 10
            j = int(m.per_stage_points[1][0]) // 10
            sim = float(a_feats[i] @ b_feats[j]
                        / (np.linalg.norm(a_feats[i]) * np.linalg.norm(b_feats[j])))
            total += -sim
    cos = (a_feats @ b_feats.T
           / np.outer(np.linalg.norm(a_feats, axis=1), np.linalg.norm(b_feats, axis=1)))
    assert total == pytest.approx(oracles.brute_force_assignment((-cos).tolist()),
                                  abs=1e-9)


def test_similarity_floor_rejects_weak_pairs():
    a, a_feats = _pset(0, [_pred(1, range(5), np.array([1.0, 0.0]))])
    b, b_feats = _pset(1, [_pred(1, range(5), np.array([-1.0, 0.0]))])
    merged = associate_semantic(a, b, a_feats, b_feats)  # cosine -1 < 0.0 floor
    assert len(merged) == 2
    assert all(len(m.per_stage_points) == 1 for m in merged)


def test_missing_features_raise():
    a, a_feats = _pset(0, [_pred(1, range(5))])
    b, b_feats = _pset(1, [_pred(1, range(5), np.array([1.0]))])
    with pytest.raises(ValueError, match="features"):
        associate_semantic(a, b, a_feats, b_feats)


@pytest.mark.parametrize("features,message", [
    ({0: [1.0, 0.0]}, "instance 0 has a feature of length 2, not 3"),
    ({0: [np.nan, 1.0, 0.0]}, "instance 0 has a feature that is not a finite"),
    ({0: [[1.0, 0.0, 0.0]]}, "instance 0 has a feature that is not a finite"),
    ({0: [0.0, 0.0, 0.0]}, "instance 0 has a feature that is not a finite, nonzero"),
    ({}, "instance 0 has no feature"),
], ids=["other-length", "nan", "two-dimensional", "zero", "missing"])
def test_semantic_feature_rule_is_the_cli_rule(features, message):
    # the findings `scanseq associate --mode semantic` prints, as one ValueError
    a, a_feats = _pset(0, [_pred(1, range(5), np.array([1.0, 0.0, 0.0]))])
    b, _ = _pset(1, [_pred(1, range(5)), _pred(1, range(5, 9))])
    b_feats = {1: np.array([0.0, 1.0, 0.0]), **features}
    with pytest.raises(ValueError, match=f"invalid_feature: {message}"):
        associate_semantic(a, b, a_feats, b_feats)


@pytest.mark.parametrize("mode", ["semantic", "geometric"])
def test_inputs_at_one_stage_raise(mode):
    # a semantic merge kept only b's points at the shared stage (a's vanished
    # in the dict update), and a geometric one transferred a onto its own cloud
    f = np.array([1.0, 0.0])
    a, a_feats = _pset(0, [_pred(1, [0, 1, 2], f)])
    b, b_feats = _pset(0, [_pred(1, [5, 6], f)])
    cloud = StageCloud(positions=np.arange(21.0).reshape(7, 3))
    with pytest.raises(ValueError, match="must sit at two stages, both sit at stage 0"):
        if mode == "semantic":
            associate_semantic(a, b, a_feats, b_feats)
        else:
            associate_geometric(a, cloud, cloud, 0)


def test_semantic_preserves_point_counts_per_stage():
    rng = np.random.default_rng(1)
    a, a_feats = _pset(0, [_pred(1, rng.choice(100, 12, replace=False), rng.normal(size=3))
                           for _ in range(3)])
    b, b_feats = _pset(1, [_pred(1, rng.choice(100, 9, replace=False), rng.normal(size=3))
                           for _ in range(2)])
    merged = associate_semantic(a, b, a_feats, b_feats)
    got_a = sorted(np.concatenate([m.per_stage_points[0] for m in merged
                                   if 0 in m.per_stage_points]).tolist())
    want_a = sorted(np.concatenate([m.per_stage_points[0] for m in a]).tolist())
    assert got_a == want_a
    got_b = sorted(np.concatenate([m.per_stage_points[1] for m in merged
                                   if 1 in m.per_stage_points]).tolist())
    want_b = sorted(np.concatenate([m.per_stage_points[1] for m in b]).tolist())
    assert got_b == want_b


# ---------------------------------------------------------------------------
# Geometric association


def test_copied_stage_transfers_exactly():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(60, 3))
    cloud = StageCloud(positions=pos)
    a, _ = _pset(0, [_pred(1, range(0, 30)), _pred(2, range(30, 60))])
    merged = associate_geometric(a, StageCloud(positions=pos.copy()), cloud, 1)
    assert merged[0].per_stage_points[1].tolist() == list(range(0, 30))
    assert merged[1].per_stage_points[1].tolist() == list(range(30, 60))


def test_nearest_object_dominates():
    a_pos = np.vstack([np.zeros((10, 3)), np.full((10, 3), 10.0)])
    a_cloud = StageCloud(positions=a_pos)
    a, _ = _pset(0, [_pred(1, range(0, 10)), _pred(1, range(10, 20))])
    b_cloud = StageCloud(positions=np.full((5, 3), 9.5))
    merged = associate_geometric(a, b_cloud, a_cloud, 1)
    assert 1 not in merged[0].per_stage_points  # far object gets nothing
    assert merged[1].per_stage_points[1].tolist() == list(range(5))


def test_matches_exhaustive_nn_transfer():
    rng = np.random.default_rng(3)
    a_pos = rng.normal(size=(300, 3))
    b_pos = rng.normal(size=(300, 3))
    labels = np.full(300, -1)
    masks = []
    for i in range(4):
        pts = np.arange(i * 60, i * 60 + 60)
        labels[pts] = i
        masks.append(_pred(1, pts))
    a, _ = _pset(0, masks)
    merged = associate_geometric(a, StageCloud(positions=b_pos),
                                 StageCloud(positions=a_pos), 1)
    nearest = oracles.brute_force_nearest(a_pos.tolist(), b_pos.tolist())
    for i, m in enumerate(merged):
        expected = sorted(q for q, src in enumerate(nearest) if labels[src] == i)
        got = m.per_stage_points.get(1)
        assert (got.tolist() if got is not None else []) == expected


def test_empty_stage1_cloud_raises():
    a, _ = _pset(0, [_pred(1, [0])])
    with pytest.raises(ValueError, match="empty"):
        associate_geometric(a, StageCloud(positions=np.zeros((1, 3))),
                            StageCloud(positions=np.zeros((0, 3))), 1)


def test_geometric_ids_are_subset_of_stage1_ids():
    rng = np.random.default_rng(4)
    a_cloud = StageCloud(positions=rng.normal(size=(50, 3)))
    a, _ = _pset(0, [_pred(1, range(0, 20)), _pred(3, range(20, 50))])
    merged = associate_geometric(a, StageCloud(positions=rng.normal(size=(40, 3))),
                                 a_cloud, 1)
    assert [m.instance_id for m in merged] == [0, 1]
    transferred = np.concatenate(
        [m.per_stage_points.get(1, np.empty(0, int)) for m in merged])
    # every stage-2 point is assigned to at most one instance
    assert len(np.unique(transferred)) == len(transferred)


def test_geometric_overlap_goes_to_the_most_confident_then_the_earliest_mask():
    # stage-2 points sit on stage-1 points 0..6, so each inherits that point's owner
    cloud = StageCloud(positions=np.arange(7.0)[:, None] * np.ones(3))
    a, _ = _pset(0, [_pred(1, [0, 1, 2], confidence=0.5),
                     _pred(1, [1, 2, 3], confidence=0.9),   # takes 1 and 2 from mask 0
                     _pred(2, [4, 5], confidence=0.5),
                     _pred(2, [5, 6], confidence=0.5)])     # ties: mask 2 keeps 5
    merged = associate_geometric(a, cloud, cloud, 1)
    assert [m.per_stage_points[1].tolist() for m in merged] == [[0], [1, 2, 3], [4, 5], [6]]
