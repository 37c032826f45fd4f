import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseq.numerics import (AssignmentCostConfig, RelationMatrix, assignment_cost,
                              binarize_masks, contrastive_loss, fourier_features_4d,
                              gaussian_projection_matrix, relation_from_instance_ids,
                              solve_assignment, st_pool_masks)

import oracles


# ---------------------------------------------------------------------------
# Contrastive loss


def test_all_positive_returns_exactly_zero():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(5, 8))
    relation = relation_from_instance_ids([3] * 5)
    assert contrastive_loss(feats, relation) == 0.0


def test_no_positives_returns_zero():
    feats = np.eye(3)
    relation = relation_from_instance_ids([0, 1, 2])
    assert relation.anchors.size == 0
    assert contrastive_loss(feats, relation) == 0.0


def test_zero_norm_feature_raises():
    feats = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="zero-norm"):
        contrastive_loss(feats, relation_from_instance_ids([1, 1]))


def test_matches_scalar_oracle_on_known_angles():
    feats = np.array([[1.0, 0.0], [0.6, 0.8], [-1.0, 0.2], [0.0, 1.0]])
    ids = [1, 1, 2, 2]
    relation = relation_from_instance_ids(ids)
    positives = {i: [j for j in range(4) if ids[j] == ids[i] and j != i]
                 for i in range(4)}
    expected = oracles.scalar_contrastive_loss(feats.tolist(), positives)
    assert contrastive_loss(feats, relation) == pytest.approx(expected, abs=1e-6)


def test_loss_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        feats = rng.normal(size=(n, 4))
        ids = rng.integers(0, 3, size=n)
        relation = relation_from_instance_ids(ids)
        loss = contrastive_loss(feats, relation)
        assert loss >= 0.0
        perm = rng.permutation(n)
        loss_p = contrastive_loss(feats[perm],
                                  relation_from_instance_ids(ids[perm]))
        assert loss_p == pytest.approx(loss, abs=1e-9)


def test_loss_decreases_when_a_positive_pair_aligns():
    base = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])
    closer = np.array([[1.0, 0.0], [0.8, 0.6], [-0.5, -0.5]])
    relation = relation_from_instance_ids([1, 1, 2])
    assert (contrastive_loss(closer, relation)
            < contrastive_loss(base, relation))


def test_relation_matrix_invariants():
    rel = relation_from_instance_ids([4, 4, 7])
    assert not rel.entries.diagonal().any()
    assert np.array_equal(rel.entries, rel.entries.T)
    assert np.flatnonzero(~rel.entries.any(axis=1)).tolist() == [2]
    with pytest.raises(ValueError, match="symmetric"):
        RelationMatrix(np.array([[0, 1], [0, 0]], dtype=bool))


# ---------------------------------------------------------------------------
# Assignment cost


def test_identical_prediction_costs_nothing_and_matches():
    gt = np.array([[1.0, 1.0, 0.0, 0.0]])
    mask_logits = np.where(gt > 0, 40.0, -40.0)
    class_logits = np.array([[1000.0, 0.0, 0.0]])
    result = assignment_cost(mask_logits, class_logits, gt, [0])
    assert abs(result.cost_matrix[0, 0]) < 1e-9
    assert result.matches == ((0, 0),)
    assert abs(result.total_cost) < 1e-9


def test_assignment_cost_matrix_is_read_only():
    result = assignment_cost(np.zeros((2, 4)), np.zeros((2, 3)), np.ones((1, 4)), [0])
    with pytest.raises(ValueError, match="read-only"):
        result.cost_matrix[0, 0] = 1.0


def test_simple_2x2_assignment():
    matches, total = solve_assignment([[1.0, 2.0], [2.0, 1.0]])
    assert matches == ((0, 0), (1, 1))
    assert total == 2.0


def test_hungarian_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(60):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        cost = rng.uniform(0, 10, size=shape)
        _, total = solve_assignment(cost)
        assert total == pytest.approx(oracles.brute_force_assignment(cost.tolist()),
                                      abs=1e-9)


def test_matching_invariant_to_row_constant_shift():
    rng = np.random.default_rng(3)
    cost = rng.uniform(0, 5, size=(4, 6))
    base, _ = solve_assignment(cost)
    shifted = cost.copy()
    shifted[2] += 17.0
    again, _ = solve_assignment(shifted)
    assert base == again


def test_unmatched_predictions_pay_no_object_loss():
    gt = np.array([[1.0, 0.0]])
    mask_logits = np.array([[30.0, -30.0], [-30.0, 30.0]])
    class_logits = np.array([[50.0, 0.0, 0.0], [0.0, 0.0, 50.0]])
    cfg = AssignmentCostConfig()
    result = assignment_cost(mask_logits, class_logits, gt, [0], cfg)
    assert result.matches == ((0, 0),)
    assert result.unmatched_predictions == (1,)
    # unmatched row 1 already predicts no-object, so its penalty is ~0
    assert result.total_cost == pytest.approx(result.cost_matrix[0, 0], abs=1e-6)
    confident_fg = np.array([[0.0, 0.0, -50.0]])
    result2 = assignment_cost(mask_logits, np.vstack([class_logits[0], confident_fg]),
                              gt, [0], cfg)
    assert result2.total_cost > result.total_cost + 1.0


def test_assignment_cost_dimension_mismatch():
    with pytest.raises(ValueError):
        assignment_cost(np.zeros((2, 5)), np.zeros((2, 3)), np.zeros((1, 4)), [0])
    with pytest.raises(ValueError):
        assignment_cost(np.zeros((2, 5)), np.zeros((1, 3)), np.zeros((1, 5)), [0])


@pytest.mark.parametrize("gt_classes,message", [
    ([0, 1], "gt_classes length must match gt_masks"),
    ([2], r"gt_classes must be real classes \(not no-object\)"),
    ([-1], r"gt_classes must be real classes \(not no-object\)"),
], ids=["two-classes-one-mask", "no-object", "negative"])
def test_assignment_cost_refuses_gt_classes_that_do_not_fit(gt_classes, message):
    # three class logits: classes 0 and 1, then the no-object class 2
    with pytest.raises(ValueError, match=message):
        assignment_cost(np.zeros((2, 4)), np.zeros((2, 3)), np.ones((1, 4)), gt_classes)


# ---------------------------------------------------------------------------
# Spatio-temporal mask pooling


def test_or_pooling_across_stages():
    coords = [[0, 0, 0, 0], [0, 0, 0, 1]]
    pooled = st_pool_masks(coords, [True, False])
    assert pooled.tolist() == [True, True]


def test_disjoint_voxels_pass_through():
    coords = [[0, 0, 0, 0], [5, 5, 5, 1]]
    mask = [True, False]
    pooled = st_pool_masks(coords, mask)
    assert pooled.tolist() == mask


def test_pooling_matches_group_by_oracle_and_is_idempotent():
    rng = np.random.default_rng(4)
    coords = np.column_stack([rng.integers(0, 3, size=(120, 3)),
                              rng.integers(0, 4, size=120)])
    mask = rng.uniform(size=(120, 5)) < 0.3
    pooled = st_pool_masks(coords, mask)
    groups = {}
    for row, key in enumerate(map(tuple, coords[:, :3].tolist())):
        groups.setdefault(key, []).append(row)
    for key, rows in groups.items():
        expected = np.any(mask[rows], axis=0)
        for row in rows:
            assert pooled[row].tolist() == expected.tolist()
    assert np.array_equal(st_pool_masks(coords, pooled), pooled)


def test_pooling_rejects_misaligned_levels():
    with pytest.raises(ValueError, match="misaligned"):
        st_pool_masks(np.zeros((3, 4), dtype=int), np.zeros(2, bool))


# ---------------------------------------------------------------------------
# Mask binarization


def test_binarize_boundary_and_sign():
    assert binarize_masks([[1.0, 0.0]], [[0.0, 1.0]]).tolist() == [[False]]
    assert binarize_masks([[1.0, 0.0]], [[1.0, 0.0]]).tolist() == [[True]]
    assert binarize_masks([[1.0, 0.0]], [[-1.0, 0.0]]).tolist() == [[False]]


def test_binarize_matches_elementwise_oracle():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(10, 3))
    queries = rng.normal(size=(4, 3))
    got = binarize_masks(feats, queries)
    for m in range(10):
        for k in range(4):
            assert got[m, k] == (float(np.dot(feats[m], queries[k])) > 0.0)


def test_binarize_monotone_in_dot_product():
    feats = np.array([[0.2, 0.0]])
    query = np.array([[1.0, 0.0]])
    assert not binarize_masks(feats - 0.4, query)[0, 0]
    assert binarize_masks(feats, query)[0, 0]
    assert binarize_masks(feats + 1.0, query)[0, 0]


def test_binarize_dimension_mismatch():
    with pytest.raises(ValueError):
        binarize_masks(np.zeros((2, 3)), np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Fourier features


def test_fourier_at_origin():
    out = fourier_features_4d(np.zeros((2, 4)), gaussian_projection_matrix(8, 0))
    assert np.allclose(out[:, :4], 0.0)
    assert np.allclose(out[:, 4:], 1.0)


def test_fourier_determinism_and_shared_matrix():
    coords = np.random.default_rng(6).uniform(size=(5, 4))
    a = fourier_features_4d(coords, gaussian_projection_matrix(10, 42))
    b = fourier_features_4d(coords, gaussian_projection_matrix(10, 42))
    assert np.array_equal(a, b)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_fourier_trig_identity(seed):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(8, 4))
    out = fourier_features_4d(coords, gaussian_projection_matrix(12, seed))
    assert np.all(out >= -1.0) and np.all(out <= 1.0)
    assert np.allclose(out[:, :6] ** 2 + out[:, 6:] ** 2, 1.0)


def test_fourier_input_validation():
    with pytest.raises(ValueError):
        fourier_features_4d(np.zeros((2, 3)), gaussian_projection_matrix(4, 0))
    with pytest.raises(ValueError):
        gaussian_projection_matrix(7, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: RelationMatrix(np.zeros((2, 3), dtype=bool)), "relation matrix must be square"),
    (lambda: fourier_features_4d(np.zeros((2, 4)), np.ones((3, 3))),
     r"gaussian_matrix must have shape \(D/2, 4\)"),
], ids=["relation-not-square", "fourier-three-column-matrix"])
def test_numeric_inputs_of_the_wrong_shape_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("d_out,seed,field", [
    (4, True, "seed"), (4, 1.5, "seed"), (4, "0", "seed"),
    (4.0, 0, "d_out"), (True, 0, "d_out"), ("4", 0, "d_out"),
])
def test_projection_arguments_of_the_wrong_type_are_refused(d_out, seed, field):
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        gaussian_projection_matrix(d_out, seed)


def test_projection_refuses_a_negative_seed():
    # numpy's own refusal does not name the field
    with pytest.raises(ValueError, match="^seed must be non-negative, not -1$"):
        gaussian_projection_matrix(4, -1)
