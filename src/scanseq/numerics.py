"""Deterministic loss, cost, and encoding mathematics.

Forward-value computations only (no autodiff): the supervised contrastive loss
over pooled superpoint features with temperature-free log-odds similarity, the
bipartite mask/class assignment cost with Hungarian matching, logical-OR
pooling of attention masks across stages, mask binarization, and 4D Fourier
positional features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _array, _frozen, _hand_over, _number

COSINE_CLAMP_EPS = 1e-6  # atanh(+-1) is infinite; collinear features are clamped


@dataclass(frozen=True)
class RelationMatrix:
    """Binary same-instance relation over S pooled superpoints.

    Symmetric with a zero diagonal (self-similarities are excluded). Anchors
    with no positives are excluded from the loss but still serve as contrast
    candidates for other anchors.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _array(self.entries, bool, "relation matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("relation matrix must be square")
        if not np.array_equal(arr, arr.T):
            raise ValueError("relation matrix must be symmetric")
        object.__setattr__(self, "entries", _hand_over(arr & ~np.eye(len(arr), dtype=bool)))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def anchors(self) -> np.ndarray:
        """Indices with at least one positive (the set the loss averages over)."""
        return np.nonzero(self.entries.any(axis=1))[0]


def relation_from_instance_ids(instance_ids) -> RelationMatrix:
    ids = _array(instance_ids, np.int64, "instance_ids")
    if ids.ndim != 1:
        raise TypeError(f"instance_ids must be a flat list, not of shape {ids.shape}")
    return RelationMatrix(ids[:, None] == ids[None, :])


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities of the rows of ``a`` and ``b``."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("zero-norm feature")
    return (a @ b.T) / np.outer(na, nb)


def log_odds_similarity(features: np.ndarray) -> np.ndarray:
    """Pairwise 2*atanh(cosine) similarities; raises on zero-norm rows."""
    feats = _array(features, np.float64, "features")
    cos = np.clip(_cosine(feats, feats), -1.0 + COSINE_CLAMP_EPS, 1.0 - COSINE_CLAMP_EPS)
    return 2.0 * np.arctanh(cos)


def contrastive_loss(features, relation: RelationMatrix) -> float:
    """Multi-positive InfoNCE over log-odds-normalized cosine similarities.

    Per anchor i with positive set P(i):
        -log( sum_{j in P(i)} exp(L_ij) / sum_{k != i} exp(L_ik) )
    averaged over anchors that have at least one positive. The positive sum
    sits inside a single log (the "out" form). Returns 0.0 when no anchor has
    a positive.
    """
    # imported on call: a command that needs no scipy skips its ~45 MB load
    from scipy.special import logsumexp

    feats = _array(features, np.float64, "features")
    if len(feats) != relation.size:
        raise ValueError("features and relation matrix disagree on S")
    anchors = relation.anchors
    if anchors.size == 0:
        return 0.0
    sims = log_odds_similarity(feats)
    pos = relation.entries[anchors]
    denom_mask = ~np.eye(relation.size, dtype=bool)[anchors]
    pos_lse = logsumexp(sims[anchors], axis=1, b=pos)
    denom_lse = logsumexp(sims[anchors], axis=1, b=denom_mask)
    return float(np.mean(denom_lse - pos_lse)) + 0.0


@dataclass(frozen=True)
class AssignmentCostConfig:
    """Weights balancing the mask and class terms of the matching cost."""

    lambda_dice: float = 2.0
    lambda_bce: float = 5.0
    lambda_cls: float = 2.0
    lambda_no_object: float = 0.2

    def __post_init__(self):
        for name in ("lambda_dice", "lambda_bce", "lambda_cls", "lambda_no_object"):
            if _number(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class AssignmentResult:
    cost_matrix: np.ndarray
    matches: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_ground_truth: tuple[int, ...]
    total_cost: float


def assignment_cost(pred_mask_logits, pred_class_logits, gt_masks, gt_classes,
                    cfg: AssignmentCostConfig = AssignmentCostConfig()) -> AssignmentResult:
    """Pairwise matching cost and its optimal bipartite assignment.

    cost(k, k') = lambda_dice * dice + lambda_bce * bce + lambda_cls * ce,
    with dice and bce computed on sigmoid mask probabilities and ce on
    softmaxed class logits (C+1 columns, last = no-object). The optimal
    matching is solved exactly; predictions left unmatched contribute their
    no-object cross-entropy weighted by ``lambda_no_object`` to ``total_cost``.
    """
    # imported on call: a command that needs no scipy skips its ~45 MB load
    from scipy.special import expit, log_softmax

    mask_logits = np.atleast_2d(_array(pred_mask_logits, np.float64, "pred_mask_logits"))
    class_logits = np.atleast_2d(_array(pred_class_logits, np.float64, "pred_class_logits"))
    gt = np.atleast_2d(_array(gt_masks, np.float64, "gt_masks"))
    classes = _array(gt_classes, np.int64, "gt_classes")
    n_pred, n_points = mask_logits.shape
    n_gt = len(gt)
    if class_logits.shape[0] != n_pred:
        raise ValueError("pred_class_logits rows must match pred_mask_logits")
    if gt.shape[1] != n_points:
        raise ValueError("gt_masks must share the prediction point set")
    if classes.shape != (n_gt,):
        raise ValueError("gt_classes length must match gt_masks")
    n_classes = class_logits.shape[1]
    if classes.size and (classes.min() < 0 or classes.max() >= n_classes - 1):
        raise ValueError("gt_classes must be real classes (not no-object)")

    probs = expit(mask_logits)
    inter = probs @ gt.T
    dice = 1.0 - (2.0 * inter + 1.0) / (probs.sum(1)[:, None] + gt.sum(1)[None, :] + 1.0)
    # stable BCE from logits: max(x,0) - x*g + log(1 + exp(-|x|)), averaged over points
    softplus = np.maximum(mask_logits, 0.0) + np.log1p(np.exp(-np.abs(mask_logits)))
    bce = (softplus.sum(1)[:, None] - mask_logits @ gt.T) / n_points
    log_probs = log_softmax(class_logits, axis=1)
    ce = -log_probs[:, classes]

    cost = cfg.lambda_dice * dice + cfg.lambda_bce * bce + cfg.lambda_cls * ce
    matches, matched_cost = solve_assignment(cost)
    matched_preds = {i for i, _ in matches}
    matched_gt = {j for _, j in matches}
    unmatched_preds = tuple(i for i in range(n_pred) if i not in matched_preds)
    unmatched_gt = tuple(j for j in range(n_gt) if j not in matched_gt)
    no_object = -log_probs[:, -1]
    total = float(matched_cost
                  + cfg.lambda_no_object * sum(no_object[i] for i in unmatched_preds))
    return AssignmentResult(cost_matrix=_hand_over(cost), matches=matches,
                            unmatched_predictions=unmatched_preds,
                            unmatched_ground_truth=unmatched_gt,
                            total_cost=total)


def solve_assignment(cost_matrix) -> tuple[tuple[tuple[int, int], ...], float]:
    """Minimum-cost rectangular assignment of a raw cost matrix."""
    # imported on call: a command that needs no scipy skips its ~45 MB load
    from scipy.optimize import linear_sum_assignment

    cost = np.atleast_2d(_array(cost_matrix, np.float64, "cost_matrix"))
    rows, cols = linear_sum_assignment(cost)
    return tuple(zip(rows.tolist(), cols.tolist())), float(cost[rows, cols].sum())


def st_pool_masks(coords, mask) -> np.ndarray:
    """OR attention masks across stages at voxels sharing (i, j, k).

    ``coords`` is one hierarchy level's (M, 4) integer voxel coordinates
    (i, j, k, t) and ``mask`` a boolean mask of shape (M,) or (M, K) over
    them. Every voxel's pooled value is the logical OR over all voxels at the
    same spatial cell (any stage); voxels with no cross-stage counterpart pass
    through unchanged. Idempotent.
    """
    coords = _frozen(coords, np.int64, "level coordinates", width=4)
    mask = _frozen(mask, bool, "level mask")
    if len(mask) != len(coords):
        raise ValueError("misaligned level: mask rows must match coordinates")
    _, inverse = np.unique(coords[:, :3], axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.0 returned (M, 1) here
    n_groups = int(inverse.max()) + 1 if len(inverse) else 0
    pooled = np.zeros((n_groups,) + mask.shape[1:], dtype=bool)
    np.logical_or.at(pooled, inverse, mask)
    return pooled[inverse]


def binarize_masks(superpoint_features, query_embeddings) -> np.ndarray:
    """Sigmoid(dot) > 0.5 mask decisions, i.e. strictly positive dot products."""
    feats = np.atleast_2d(_array(superpoint_features, np.float64, "superpoint_features"))
    queries = np.atleast_2d(_array(query_embeddings, np.float64, "query_embeddings"))
    if feats.shape[1] != queries.shape[1]:
        raise ValueError("feature and query dimensions differ")
    return feats @ queries.T > 0.0


def gaussian_projection_matrix(d_out: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """The shared Gaussian matrix for Fourier features, drawn once per seed."""
    d_out, seed = _number(d_out, "d_out", int), _number(seed, "seed", int)
    if d_out % 2:
        raise ValueError("d_out must be even (paired sin/cos channels)")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(d_out // 2, 4))


def fourier_features_4d(coords, gaussian_matrix) -> np.ndarray:
    """[sin(2*pi*G*c); cos(2*pi*G*c)] positional features for (x, y, z, t).

    Coordinates are expected normalized to [0, 1]^4 per hierarchy level.
    ``gaussian_matrix`` (D/2 x 4, as :func:`gaussian_projection_matrix` draws
    it) is shared across levels and stages.
    """
    pts = np.atleast_2d(_array(coords, np.float64, "coords"))
    if pts.shape[1] != 4:
        raise ValueError("coords must have shape (N, 4)")
    g = _array(gaussian_matrix, np.float64, "gaussian_matrix")
    if g.ndim != 2 or g.shape[1] != 4:
        raise ValueError("gaussian_matrix must have shape (D/2, 4)")
    proj = 2.0 * np.pi * (pts @ g.T)
    return np.concatenate([np.sin(proj), np.cos(proj)], axis=1)
