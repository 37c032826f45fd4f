"""Temporally-enforced instance segmentation metrics.

The headline quantity is t-IoU: the minimum over temporal stages of the
per-stage point-set IoU between a prediction and a ground-truth instance.
Stages where both masks are absent are excluded; a stage where exactly one of
the two is present contributes 0. A detection at threshold tau requires
t-IoU > tau, so one bad stage sinks the match — this is what rewards temporal
identity consistency and penalizes switches, merges, and fragmentations.

Ambiguous ground-truth groups (visually indistinguishable objects) are
pseudo-disambiguated before matching: a greedy, prediction-guided assignment
partitions the group's per-stage components into trajectories so that
symmetric identity swaps are not penalized while merges still are. See
:func:`assign_ambiguous_components` for the exact procedure.

Scoring follows standard mAP machinery: greedy matching in descending
confidence order, per-class average precision as the area under the
monotone-envelope precision/recall curve, averaged over classes and over the
threshold sweep {0.50, 0.55, ..., 0.95}. With a single-stage sequence the
whole pipeline reduces to standard mAP.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation, InstanceMask,
                    SequencePointCloud, _array, _hand_over, _LabelColumns, _paint)

SWEEP_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
DEFAULT_THRESHOLDS = tuple(sorted({0.25, 0.5, *SWEEP_THRESHOLDS}))
_COUNT_BLOCK = 1 << 16  # points a count widens to intp at once, never a whole stage


def _tau_key(tau: float) -> str:
    """A threshold's two-decimal report key; a ValueError if it misspells ``tau``."""
    key = f"{tau:.2f}"
    if float(key) != tau:
        raise ValueError(f"threshold '{tau}' has more than two decimals")
    return key


def _thresholds(values: Iterable[float]) -> tuple[float, ...]:
    """The sorted distinct ``values``, each a number in [0, 1) its report key spells."""
    taus = set()
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"threshold '{value}' is not a number")
        tau = float(value) + 0.0  # -0.0 + 0.0 is 0.0: one report key
        if not 0.0 <= tau < 1.0:  # also refuses nan
            raise ValueError(f"threshold '{value}' is not in [0, 1)")
        _tau_key(tau)
        taus.add(tau)
    if not taus:
        raise ValueError("no thresholds given")
    return tuple(sorted(taus))


# ---------------------------------------------------------------------------
# t-IoU


@dataclass(frozen=True)
class IoUProfile:
    """Per-stage IoU between one prediction and one ground-truth instance.

    ``per_stage_iou`` covers exactly the contributing stages (those where at
    least one of the two masks is present). ``overall_iou`` is the IoU of the
    stage-tagged unions; ``t_iou`` is the minimum over contributing stages
    (0.0 when nothing contributes).
    """

    per_stage_iou: Mapping[int, float]
    overall_iou: float
    t_iou: float


def _label_layers(masks: Sequence[InstanceMask]) -> _LabelColumns:
    """Masks as label columns, in their order: a mask goes into the first layer
    of a stage where it overlaps no other, so counts against them are exact.
    Points must be non-negative and sorted, as :class:`InstanceMask` keeps them."""
    layers, sizes = {}, {}
    for t in sorted({t for m in masks for t in m.per_stage_points}):
        pending = [(j, m.points_at(t)) for j, m in enumerate(masks) if t in m.per_stage_points]
        sizes[t] = np.array([m.points_at(t).size for m in masks], dtype=np.int64)
        width, layers[t] = 1 + max(int(pts[-1]) for _, pts in pending), ()
        while pending:
            label = np.zeros(width, dtype=np.min_scalar_type(len(masks)))  # 0: no mask
            overlapping = []
            for j, pts in pending:
                if label[pts].any():
                    overlapping.append((j, pts))
                else:
                    label[pts] = j + 1
            layers[t] += (label,)
            pending = overlapping
    return _LabelColumns(tuple(m.instance_id for m in masks),
                         tuple(m.class_id for m in masks), layers, sizes)


def _label_sizes(layer: np.ndarray, n_labels: int) -> np.ndarray:
    """The points of each label 1..``n_labels`` of a label layer, counted per
    block of points; a negative label is a ValueError."""
    return sum((np.bincount(layer[lo:lo + _COUNT_BLOCK], minlength=n_labels + 1)
                for lo in range(0, layer.size, _COUNT_BLOCK)), np.zeros(n_labels + 1, np.intp))[1:]


def _resolved_layers(preds: Sequence[InstanceMask], stage_sizes: Sequence[int]
                     ) -> dict[int, np.ndarray]:
    """Predictions as one label layer per stage where any is present, painted so
    that a contested point is the mask's that :func:`resolve_prediction_overlaps` keeps."""
    priority = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, preds[i].instance_id))
    return {t: _paint([p.points_at(t) for p in preds], priority[::-1], stage_sizes[t])
            for t in sorted({t for p in preds for t in p.per_stage_points})}


def _stage_tables(preds: _LabelColumns, truth: _LabelColumns):
    """``(stages, inter, psize, gsize)``: the sorted stages where either side has
    a layer, ``inter[s, i, j]`` = the points prediction column i and ground-truth
    column j share at ``stages[s]``, and the sizes ``psize[s, i]``, ``gsize[s, j]``.
    Each pair of a stage's layers is counted into one table by a ``bincount`` of
    ``p * (G + 1) + g`` over blocks of points; row and column 0 (no mask) are cut."""
    stages = sorted(set(preds.layers) | set(truth.layers))
    n_preds, n_gts = len(preds.instance_ids), len(truth.instance_ids)
    psize = np.zeros((len(stages), n_preds), dtype=np.int64)
    gsize = np.zeros((len(stages), n_gts), dtype=np.int64)
    table = np.zeros((len(stages), (n_preds + 1) * (n_gts + 1)), dtype=np.int64)
    for s, t in enumerate(stages):
        psize[s] = preds.sizes.get(t, 0)
        gsize[s] = truth.sizes.get(t, 0)
        for p in preds.layers.get(t, ()):
            for g in truth.layers.get(t, ()):
                for lo in range(0, min(p.size, g.size), _COUNT_BLOCK):
                    hi = min(lo + _COUNT_BLOCK, p.size, g.size)
                    key = p[lo:hi].astype(np.intp) * (n_gts + 1) + g[lo:hi]  # uint8 * int wraps
                    table[s] += np.bincount(key, minlength=table.shape[1])
    return stages, table.reshape(-1, n_preds + 1, n_gts + 1)[:, 1:, 1:], psize, gsize


def _gather_columns(inter: np.ndarray, gsize: np.ndarray,
                    columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tables of masks assembled per stage from ground-truth columns.

    ``columns[r, s]`` is the ground-truth column whose component at stage s
    belongs to assembled mask r, or -1 where mask r is absent at stage s.
    Returns the ``inter`` and ``gsize`` tables of the assembled masks.
    """
    cols = columns.T
    used = cols >= 0
    safe = np.where(used, cols, 0)
    picked = np.take_along_axis(inter, safe[:, None, :], axis=2) * used[:, None, :]
    return picked, np.take_along_axis(gsize, safe, axis=1) * used


def _stage_iou(inter: np.ndarray, psize: np.ndarray, gsize: np.ndarray) -> np.ndarray:
    """Per-stage IoU of every pair; 0 where either mask is absent."""
    return inter / np.maximum(psize[:, :, None] + gsize[:, None, :] - inter, 1)


def _tiou_matrix(inter: np.ndarray, psize: np.ndarray, gsize: np.ndarray) -> np.ndarray:
    """t-IoU of every pair: min over stages where either mask is present."""
    either = (psize[:, :, None] > 0) | (gsize[:, None, :] > 0)
    tiou = np.where(either, _stage_iou(inter, psize, gsize), 1.0).min(axis=0, initial=1.0)
    return np.where(either.any(axis=0), tiou, 0.0)


def t_iou(pred: InstanceMask, gt: InstanceMask) -> IoUProfile:
    """Temporal IoU profile of a prediction against a ground-truth instance."""
    stages, inter, psize, gsize = _stage_tables(_label_layers([pred]), _label_layers([gt]))
    per_stage = dict(zip(stages, _stage_iou(inter, psize, gsize)[:, 0, 0].tolist()))
    both = int(inter.sum())
    overall = both / (int(psize.sum()) + int(gsize.sum()) - both) if stages else 0.0
    return IoUProfile(per_stage_iou=per_stage, overall_iou=overall,
                      t_iou=_tiou_matrix(inter, psize, gsize)[0, 0].item())


# ---------------------------------------------------------------------------
# Ambiguous-group pseudo-disambiguation


def assign_ambiguous_components(weights, present, rng: np.random.Generator) -> np.ndarray:
    """Greedy prediction-guided assignment of group components to trajectories.

    ``weights`` has shape (P, K, T): support of prediction p for member k at
    stage t (per-stage IoU times prediction confidence; must be 0 wherever
    ``present[k, t]`` is False). ``present`` marks which members exist at
    which stages.

    Iterates K times: pick the prediction with the highest total support
    (sum over stages of the best member weight; ties -> lowest prediction
    index), then claim, per stage, its best-supported member (ties -> lowest
    member index) when the weight is positive, zeroing the claimed member
    column and the prediction's row at that stage. Afterwards every still
    unclaimed present component is assigned to a random unassigned trajectory
    cell using ``rng``.

    Returns the (K, T) assignment matrix of member indices, -1 where a
    trajectory has no component at that stage.
    """
    W = _array(weights, np.float64, "weights").copy()
    if W.ndim != 3:
        raise ValueError("weights must have shape (P, K, T)")
    n_preds, n_members, n_stages = W.shape
    pres = _array(present, bool, "present")
    if pres.shape != (n_members, n_stages):
        raise ValueError("present must have shape (K, T)")
    A = np.full((n_members, n_stages), -1, dtype=np.int64)
    for i in range(n_members):
        if n_preds == 0:
            break
        totals = W.max(axis=1).sum(axis=1)
        p_star = int(np.argmax(totals))
        for t in range(n_stages):
            k_star = int(np.argmax(W[p_star, :, t]))
            if W[p_star, k_star, t] > 0:
                A[i, t] = k_star
                W[:, k_star, t] = 0.0
                W[p_star, :, t] = 0.0
    for t in range(n_stages):
        claimed = set(A[:, t][A[:, t] >= 0].tolist())
        open_rows = [i for i in range(n_members) if A[i, t] < 0]
        for k in range(n_members):
            if pres[k, t] and k not in claimed:
                j = int(rng.integers(len(open_rows)))
                A[open_rows.pop(j), t] = k
    return A


@dataclass(frozen=True)
class DisambiguationResult:
    """Trajectories replacing an ambiguous group's members for evaluation.

    ``assignment[i, s]`` is the member index (into the group's
    ``member_instance_ids``) whose component at ``stages[s]`` belongs to
    trajectory i, or -1. Trajectories that received no component are not
    materialized; the mask of trajectory i carries the synthetic instance id
    ``-(i + 1)``.
    """

    stages: tuple[int, ...]
    assignment: np.ndarray
    trajectories: tuple[InstanceMask, ...]


def _group_assignment(inter: np.ndarray, psize: np.ndarray, gsize: np.ndarray,
                      confidence: np.ndarray, rng_seed: int, group_id: int) -> np.ndarray:
    """Trajectory assignment of one ambiguous group from its stage tables.

    ``inter``, ``psize`` and ``gsize`` are the tables of the group's candidate
    predictions (with their ``confidence``) against its K members, over any S
    stages. Only the stages where some member is present take part, as in
    :func:`disambiguate`. Returns the (K, S) member index of each trajectory
    at each stage, -1 where the trajectory has no component there.
    """
    on = gsize.any(axis=1)
    W = (_stage_iou(inter[on], psize[on], gsize[on]).transpose(1, 2, 0)
         * confidence[:, None, None])
    A = np.full(gsize.shape[::-1], -1, dtype=np.int64)
    A[:, on] = assign_ambiguous_components(W, (gsize[on] > 0).T,
                                           np.random.default_rng((rng_seed, group_id)))
    return A


def disambiguate(group: AmbiguousGroup, gts: Sequence[InstanceMask],
                 candidate_preds: Sequence[InstanceMask],
                 rng_seed: int = 0) -> DisambiguationResult:
    """Pseudo-disambiguate one ambiguous group, guided by its predictions.

    ``gts`` must contain every group member; ``candidate_preds`` are the
    predictions overlapping any member (same class). The weight of prediction p
    for member k at stage t is the per-stage IoU times p's confidence. The
    random fill of unclaimed components draws from the numpy generator seeded
    by ``(rng_seed, group.group_id)``, the stream :func:`evaluate` gives the
    group: stages in ascending order, members in ascending index order, each
    placed at a uniformly drawn open trajectory cell.
    """
    by_id = {m.instance_id: m for m in gts}
    members = [by_id[i] for i in group.member_instance_ids]
    preds = list(candidate_preds)
    stages, inter, psize, gsize = _stage_tables(_label_layers(preds), _label_layers(members))
    confidence = np.array([p.confidence for p in preds], dtype=np.float64)
    A = _group_assignment(inter, psize, gsize, confidence, rng_seed, group.group_id)

    trajectories = tuple(
        InstanceMask(instance_id=-(i + 1), class_id=members[0].class_id,
                     per_stage_points={t: members[k].per_stage_points[t]
                                       for t, k in zip(stages, A[i]) if k >= 0},
                     confidence=1.0)
        for i in range(len(members)) if (A[i] >= 0).any())
    on = gsize.any(axis=1)
    return DisambiguationResult(stages=tuple(t for t, keep in zip(stages, on) if keep),
                                assignment=_hand_over(A[:, on]), trajectories=trajectories)


# ---------------------------------------------------------------------------
# Greedy matching and average precision


def _greedy_match(tiou: np.ndarray, order: Sequence[int],
                  taus: Sequence[float]) -> np.ndarray:
    """(T, P) matched column (or -1) of the rows of ``tiou`` in ``order`` at each
    of ``taus``: per threshold, a row claims the unclaimed column of highest
    t-IoU above it (strict; ties -> lowest column). One pass for all of them."""
    taus = np.asarray(taus, dtype=np.float64)
    claimed = np.zeros((taus.size, tiou.shape[1]), dtype=bool)
    matched = np.full((taus.size, len(order)), -1, dtype=np.int64)
    if not tiou.shape[1]:
        return matched
    for pos, row in enumerate(order):
        eligible = (tiou[row] > taus[:, None]) & ~claimed
        hit = eligible.any(axis=1)
        cols = np.argmax(np.where(eligible, tiou[row], -1.0), axis=1)[hit]  # ties: lowest
        claimed[hit, cols] = True
        matched[hit, pos] = cols
    return matched


def _pr_curves(is_tp: np.ndarray, n_gt: int):
    """Recall and precision after each prediction, and monotone-envelope AP, of
    each row of a (T, P) table of TP flags in processing order. Without ground
    truth, recall is 0 and AP is 0.0, or None when there are no predictions."""
    tp = np.cumsum(is_tp, axis=1)
    precision = tp / np.arange(1, is_tp.shape[1] + 1)
    recall = tp / n_gt if n_gt else np.zeros(tp.shape)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    ap = np.sum(np.diff(recall, axis=1, prepend=0.0) * envelope, axis=1).tolist()
    return recall, precision, ap if n_gt or is_tp.shape[1] else [None] * len(ap)


def average_precision(tp_labels: Sequence[bool], n_gt: int) -> Optional[float]:
    """Area under the monotone-envelope PR curve.

    ``tp_labels`` must already be in descending-confidence order. With no
    ground truth, returns None when there are also no predictions (class
    excluded from means) and 0.0 otherwise.
    """
    return _pr_curves(_array(tp_labels, bool, "tp_labels").reshape(1, -1), n_gt)[2][0]


# ---------------------------------------------------------------------------
# Prediction overlap resolution


def resolve_prediction_overlaps(preds: Sequence[InstanceMask],
                                seq: SequencePointCloud) -> list[InstanceMask]:
    """Make prediction masks disjoint per stage.

    Contested points go to the higher-confidence mask (ties: lower instance
    id). Output order matches the input; masks may lose stages or end up
    empty, but are never dropped. Of ``seq`` it reads only ``stage_sizes()``.
    """
    layers = _resolved_layers(preds, seq.stage_sizes())
    return [InstanceMask(m.instance_id, m.class_id,
                         {t: _hand_over(pts[layers[t][pts] == i + 1])
                          for t, pts in m.per_stage_points.items()}, m.confidence)
            for i, m in enumerate(preds)]


# ---------------------------------------------------------------------------
# Full evaluation


@dataclass(frozen=True)
class EvaluationReport:
    """Per-class AP across thresholds plus the headline temporal metrics."""

    sequence_id: str
    num_stages: int
    thresholds: tuple[float, ...]
    class_ids: tuple[int, ...]
    per_class_ap: Mapping[int, Mapping[float, Optional[float]]]
    t_map: Optional[float]
    t_map50: Optional[float]
    t_map25: Optional[float]
    per_change_recall: Mapping[ChangeType, Optional[float]]
    counts: Mapping[int, Mapping[float, tuple[int, int, int]]]
    pr_curves: Mapping[int, Mapping[float, tuple[tuple[float, float], ...]]]
    n_ground_truth: Mapping[int, int]


def _trajectory_label(members: Iterable[int],
                      change_labels: Mapping[int, ChangeType]) -> Optional[ChangeType]:
    labels = {change_labels.get(mid) for mid in members}
    labels.discard(None)
    if not labels:
        return None
    if len(labels) == 1:
        return labels.pop()
    return ChangeType.AMBIGUOUS


def evaluate(seq: SequencePointCloud, gt: GroundTruthAnnotation,
             preds: Sequence[InstanceMask],
             thresholds: Optional[Iterable[float]] = None, *,
             rng_seed: int = 0) -> EvaluationReport:
    """Evaluate predictions against ground truth over a threshold set.

    Inputs are assumed validated (see :func:`scanseq.model.validate_sequence`).
    Of ``seq`` it reads only ``num_stages``, ``stage_sizes()`` and
    ``sequence_id``, so no stage geometry need be loaded. Predictions are
    painted into one label layer per stage, where a contested point is the
    higher-confidence mask's (ties: lower instance id), as
    :func:`resolve_prediction_overlaps` resolves it; no mask is rebuilt. One
    stage table, counted from the label layers of both sides, then holds every
    (prediction, ground truth) pair, both sorted by instance id. A class's
    columns are its instances outside ambiguous groups, by id, then the
    trajectories of each of its groups, groups by id and trajectories in
    assignment order. A group is pseudo-disambiguated as :func:`disambiguate`
    does, on the same ``(rng_seed, group_id)`` random stream, from the table's
    slice of its candidates (the class's predictions overlapping a member) and
    its members, so results are deterministic and independent of evaluation
    order. A trajectory's column takes, per stage, the column of the member it
    was assigned. Per threshold, the class's predictions, by confidence
    descending and then by instance id, each claim the unclaimed column of
    highest t-IoU above it, and the first in column order on a tie.

    Thresholds that ``scanseq evaluate --thresholds`` refuses are a ValueError
    (default :data:`DEFAULT_THRESHOLDS`). ``t_map`` averages per-class AP over
    the sweep thresholds present, ``t_map50``/``t_map25`` read the
    single-threshold columns. Per-change-type recall averages TP/(TP+FN),
    grouped by the annotated change label of each ground-truth instance, over
    the sweep thresholds.
    """
    taus = _thresholds(DEFAULT_THRESHOLDS if thresholds is None else thresholds)
    preds = sorted(preds, key=lambda m: m.instance_id)
    truth = gt if isinstance(gt, _LabelColumns) else _label_layers(
        sorted(gt.instances, key=lambda m: m.instance_id))
    layers = _resolved_layers(preds, seq.stage_sizes())
    stages, inter, psize, gsize = _stage_tables(_LabelColumns(
        tuple(p.instance_id for p in preds), tuple(p.class_id for p in preds),
        {t: (layer,) for t, layer in layers.items()},
        {t: _label_sizes(layer, len(preds)) for t, layer in layers.items()}), truth)
    confidence = np.array([p.confidence for p in preds], dtype=np.float64)
    gt_ids, gt_classes = truth.instance_ids, truth.class_ids
    column_of = {instance_id: j for j, instance_id in enumerate(gt_ids)}
    groups = sorted((grp for grp in gt.ambiguous_groups if grp.member_instance_ids),
                    key=lambda grp: grp.group_id)
    member_of_group = {mid for grp in groups for mid in grp.member_instance_ids}

    class_ids = tuple(sorted(set(gt_classes) | {m.class_id for m in preds}))
    class_rows: dict[int, list[int]] = {c: [] for c in class_ids}
    for i, p in enumerate(preds):
        class_rows[p.class_id].append(i)
    rows_of = {c: np.array(rows, dtype=np.intp) for c, rows in class_rows.items()}
    scored: dict[int, list] = {c: [] for c in class_ids}  # (per-stage column, change label)
    for j, (instance_id, c) in enumerate(zip(gt_ids, gt_classes)):
        if instance_id not in member_of_group:
            scored[c].append((np.full(len(stages), j), gt.change_labels.get(instance_id)))
    for grp in groups:
        members = np.array([column_of[m] for m in grp.member_instance_ids])
        c = gt_classes[members[0]]
        cands = rows_of[c][inter[:, rows_of[c][:, None], members].any(axis=(0, 2))]
        A = _group_assignment(inter[:, cands[:, None], members], psize[:, cands],
                              gsize[:, members], confidence[cands], rng_seed, grp.group_id)
        for row in A[(A >= 0).any(axis=1)]:
            scored[c].append((np.where(row >= 0, members[row], -1), _trajectory_label(
                {grp.member_instance_ids[k] for k in row if k >= 0}, gt.change_labels)))

    per_class_ap, counts, pr_curves = {}, {}, {}
    n_ground_truth = {c: len(scored[c]) for c in class_ids}
    change_totals = Counter(label for c in class_ids for _, label in scored[c] if label is not None)
    change_matched: dict[float, Counter[ChangeType]] = {tau: Counter() for tau in taus}
    for c in class_ids:
        rows, n_gt = rows_of[c], n_ground_truth[c]
        labels = [label for _, label in scored[c]]
        cols = np.array([col for col, _ in scored[c]], dtype=np.int64).reshape(n_gt, len(stages))
        col_inter, col_size = _gather_columns(inter[:, rows], gsize, cols)
        order = sorted(range(len(rows)), key=lambda i: (-confidence[rows[i]], rows[i]))
        matched = _greedy_match(_tiou_matrix(col_inter, psize[:, rows], col_size), order, taus)
        recall, precision, ap = _pr_curves(matched >= 0, n_gt)
        tp = (matched >= 0).sum(axis=1).tolist()
        per_class_ap[c] = dict(zip(taus, ap))
        counts[c] = {tau: (n, len(rows) - n, n_gt - n) for tau, n in zip(taus, tp)}
        pr_curves[c] = {tau: tuple(zip(r, p))
                        for tau, r, p in zip(taus, recall.tolist(), precision.tolist())}
        for tau, matched_cols in zip(taus, matched.tolist()):  # None: unlabelled, never read
            change_matched[tau].update(labels[col] for col in matched_cols if col >= 0)

    def _mean_ap(tau_set: Sequence[float]) -> Optional[float]:
        class_means = []
        for c in class_ids:
            vals = [per_class_ap[c][tau] for tau in tau_set]
            if any(v is None for v in vals):
                continue
            class_means.append(float(np.mean(vals)))
        return float(np.mean(class_means)) if class_means else None

    full_sweep = all(t in taus for t in SWEEP_THRESHOLDS)
    t_map = _mean_ap(list(SWEEP_THRESHOLDS)) if full_sweep else None
    t_map50 = _mean_ap([0.5]) if 0.5 in taus else None
    t_map25 = _mean_ap([0.25]) if 0.25 in taus else None

    recall_taus = list(SWEEP_THRESHOLDS) if full_sweep else list(taus)
    per_change_recall = {ct: float(np.mean([change_matched[tau][ct] / total
                                            for tau in recall_taus]))
                         for ct, total in change_totals.items()}

    return EvaluationReport(
        sequence_id=seq.sequence_id, num_stages=seq.num_stages,
        thresholds=taus, class_ids=class_ids, per_class_ap=per_class_ap,
        t_map=t_map, t_map50=t_map50, t_map25=t_map25,
        per_change_recall=per_change_recall, counts=counts,
        pr_curves=pr_curves, n_ground_truth=n_ground_truth)
