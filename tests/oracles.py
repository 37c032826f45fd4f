"""Independent reference implementations used only to check the package.

Everything here is deliberately written in plain Python (sets, loops, math)
from the declared contracts, sharing no code paths with scanseq itself: of
scanseq it uses only the model types that hold masks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from scanseq.model import InstanceMask


# ---------------------------------------------------------------------------
# Standard single-stage mAP (reference for the T=1 reduction)


def reference_single_stage_ap(gt_items, pred_items, tau):
    """AP for one class at one threshold on a single-stage scene.

    gt_items: list of point sets; pred_items: list of (confidence, point set),
    any order. Returns None when there is neither ground truth nor predictions.
    """
    if not gt_items and not pred_items:
        return None
    if not gt_items:
        return 0.0
    order = sorted(range(len(pred_items)),
                   key=lambda i: (-pred_items[i][0], i))
    claimed = set()
    labels = []
    for i in order:
        _, points = pred_items[i]
        best_j, best_iou = -1, tau
        for j, gt_points in enumerate(gt_items):
            if j in claimed:
                continue
            inter = len(points & gt_points)
            union = len(points | gt_points)
            iou = inter / union if union else 0.0
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0:
            claimed.add(best_j)
            labels.append(True)
        else:
            labels.append(False)
    return envelope_average_precision(labels, len(gt_items))


def envelope_average_precision(labels, n_gt):
    """Area under the monotone-envelope PR curve, computed with plain loops."""
    if n_gt == 0:
        return None if not labels else 0.0
    points = []
    tp = fp = 0
    for is_tp in labels:
        if is_tp:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    ap = 0.0
    prev_recall = 0.0
    for idx, (recall, _) in enumerate(points):
        best = max(p for r, p in points[idx:])
        ap += (recall - prev_recall) * best
        prev_recall = recall
    return ap


def reference_single_stage_map(gt_by_class, preds_by_class, taus):
    """Per-class AP table {class: {tau: ap}} for a single-stage scene."""
    classes = sorted(set(gt_by_class) | set(preds_by_class))
    return {
        c: {tau: reference_single_stage_ap(gt_by_class.get(c, []),
                                           preds_by_class.get(c, []), tau)
            for tau in taus}
        for c in classes
    }


# ---------------------------------------------------------------------------
# Pairwise t-IoU, candidates and disambiguation weights: one
# np.intersect1d per (prediction, ground truth, stage)


def _stage_intersection(a, b):
    return np.intersect1d(a, b).size


def pairwise_stage_tables(preds, gts):
    """(stages, inter[s][i][j], psize[s][i], gsize[s][j]) over the stages
    where any mask is present: one intersection per (stage, pred, gt)."""
    stages = sorted({t for m in (*preds, *gts) for t in m.per_stage_points})
    inter = [[[_stage_intersection(p.per_stage_points.get(t, []), g.per_stage_points.get(t, []))
               for g in gts] for p in preds] for t in stages]
    psize = [[len(p.per_stage_points.get(t, [])) for p in preds] for t in stages]
    gsize = [[len(g.per_stage_points.get(t, [])) for g in gts] for t in stages]
    return stages, inter, psize, gsize


def pairwise_t_iou(pred, gt):
    """(per-stage IoU dict, overall IoU, t-IoU) of two masks."""
    per_stage = {}
    inter_total = union_total = 0
    for t in sorted(set(pred.per_stage_points) | set(gt.per_stage_points)):
        p = pred.per_stage_points.get(t, [])
        g = gt.per_stage_points.get(t, [])
        inter = _stage_intersection(p, g)
        union = len(p) + len(g) - inter
        per_stage[t] = inter / union
        inter_total += inter
        union_total += union
    overall = inter_total / union_total if union_total else 0.0
    return per_stage, overall, min(per_stage.values(), default=0.0)


def pairwise_candidates(preds, gts, class_id):
    """{gt id: ids of same-class predictions sharing a (stage, point) with it}."""
    return {
        g.instance_id: tuple(
            p.instance_id for p in preds if p.class_id == class_id
            and any(_stage_intersection(p.per_stage_points.get(t, []), pts)
                    for t, pts in g.per_stage_points.items()))
        for g in gts if g.class_id == class_id}


def pairwise_disambiguation_weights(members, preds):
    """(weights [p][k][s], present [k][s], stages) of an ambiguous group.

    The weight is the per-stage IoU times the prediction's confidence, over
    the stages where any member is present.
    """
    stages = sorted({t for m in members for t in m.per_stage_points})
    present = [[t in m.per_stage_points for t in stages] for m in members]
    weights = []
    for p in preds:
        rows = []
        for m in members:
            row = []
            for t in stages:
                ppts = p.per_stage_points.get(t, [])
                gpts = m.per_stage_points.get(t, [])
                inter = _stage_intersection(ppts, gpts)
                union = len(ppts) + len(gpts) - inter
                row.append((inter / union) * p.confidence if inter else 0.0)
            rows.append(row)
        weights.append(rows)
    return weights, present, stages


def pairwise_greedy_tp(preds, gts, tau):
    """is_tp in processing order (confidence descending, then id ascending)
    of greedy t-IoU matching; the best unclaimed gt wins, lowest index on ties."""
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i].confidence, preds[i].instance_id))
    claimed = set()
    labels = []
    for i in order:
        best_j, best = -1, tau
        for j, g in enumerate(gts):
            value = pairwise_t_iou(preds[i], g)[2]
            if j not in claimed and value > best:
                best, best_j = value, j
        if best_j >= 0:
            claimed.add(best_j)
        labels.append(best_j >= 0)
    return labels


# ---------------------------------------------------------------------------
# evaluate, composed from the brute-force pieces of this module


def resolve_overlaps(preds):
    """The masks, in input order, with each contested (stage, point) left only
    to its first holder by confidence descending, then id ascending."""
    taken = set()
    kept = [None] * len(preds)
    for i in sorted(range(len(preds)),
                    key=lambda i: (-preds[i].confidence, preds[i].instance_id)):
        per_stage = {}
        for t, pts in preds[i].per_stage_points.items():
            per_stage[t] = [v for v in pts.tolist() if (t, v) not in taken]
            taken.update((t, v) for v in per_stage[t])
        kept[i] = InstanceMask(preds[i].instance_id, preds[i].class_id, per_stage,
                               preds[i].confidence)
    return kept


def disambiguated_trajectories(group, members, candidates, rng_seed):
    """The trajectories of an ambiguous group: trajectory i takes member
    ``A[i][s]``'s component at stage s, has id ``-(i + 1)``, and is dropped
    when it received no component."""
    weights, present, stages = pairwise_disambiguation_weights(members, candidates)
    A = transcribe_ambiguous_assignment(weights, present, (rng_seed, group.group_id))
    return [InstanceMask(-(i + 1), members[0].class_id,
                         {t: members[k].per_stage_points[t]
                          for t, k in zip(stages, row) if k >= 0})
            for i, row in enumerate(A) if any(k >= 0 for k in row)]


def composed_evaluation(seq, gt, preds, taus, rng_seed):
    """{class: {tau: (AP, (TP, FP, FN))}} as ``evaluate`` should report them.

    Per class: the overlap-resolved predictions by id; as columns, the
    ground truth outside ambiguous groups by id, then the trajectories of
    each of the class's groups (groups by id), each group disambiguated from
    the class's predictions sharing a (stage, point) with any member at
    ``rng_seed``; then greedy matching and AP. ``seq`` is not read: every
    point a mask names lies in its stage.
    """
    resolved = resolve_overlaps(preds)
    by_id = {g.instance_id: g for g in gt.instances}
    grouped = {m for g in gt.ambiguous_groups for m in g.member_instance_ids}
    out = {}
    for c in sorted({m.class_id for m in (*gt.instances, *resolved)}):
        class_preds = sorted((p for p in resolved if p.class_id == c),
                             key=lambda m: m.instance_id)
        columns = sorted((g for g in gt.instances
                          if g.class_id == c and g.instance_id not in grouped),
                         key=lambda m: m.instance_id)
        for group in sorted(gt.ambiguous_groups, key=lambda g: g.group_id):
            members = [by_id[m] for m in group.member_instance_ids]
            if members[0].class_id != c:
                continue
            touching = {i for ids in pairwise_candidates(class_preds, members, c).values()
                        for i in ids}
            candidates = [p for p in class_preds if p.instance_id in touching]
            columns += disambiguated_trajectories(group, members, candidates, rng_seed)
        out[c] = {}
        for tau in taus:
            labels = pairwise_greedy_tp(class_preds, columns, tau)
            tp = sum(labels)
            out[c][tau] = (envelope_average_precision(labels, len(columns)),
                           (tp, len(class_preds) - tp, len(columns) - tp))
    return out


# ---------------------------------------------------------------------------
# Straight-line transcription of the ambiguous-assignment procedure


def transcribe_ambiguous_assignment(weights, present, seed):
    """The greedy assignment plus random fill, written as nested loops.

    weights: nested lists [p][k][t]; present: nested lists [k][t] of bool.
    Mirrors the declared random-fill protocol: one default_rng(seed), stages
    ascending, members ascending, uniform draw over open trajectory cells.
    """
    W = [[[float(w) for w in row] for row in pred] for pred in weights]
    n_preds = len(W)
    n_members = len(present)
    n_stages = len(present[0]) if n_members else 0
    A = [[-1] * n_stages for _ in range(n_members)]
    for traj in range(n_members):
        if n_preds == 0:
            break
        totals = []
        for p in range(n_preds):
            total = 0.0
            for t in range(n_stages):
                total += max(W[p][k][t] for k in range(n_members))
            totals.append(total)
        p_star = _argmax_lowest(totals)
        for t in range(n_stages):
            k_star = _argmax_lowest([W[p_star][k][t] for k in range(n_members)])
            if W[p_star][k_star][t] > 0:
                A[traj][t] = k_star
                for p in range(n_preds):
                    W[p][k_star][t] = 0.0
                for k in range(n_members):
                    W[p_star][k][t] = 0.0
    rng = np.random.default_rng(seed)
    for t in range(n_stages):
        claimed = {A[i][t] for i in range(n_members) if A[i][t] >= 0}
        open_rows = [i for i in range(n_members) if A[i][t] < 0]
        for k in range(n_members):
            if present[k][t] and k not in claimed:
                j = int(rng.integers(len(open_rows)))
                A[open_rows.pop(j)][t] = k
    return A


def _argmax_lowest(values):
    """argmax with lowest-index tie-break, spelled out."""
    best = values[0]
    best_i = 0
    for i, v in enumerate(values):
        if v > best:
            best, best_i = v, i
    return best_i


# ---------------------------------------------------------------------------
# Scalar contrastive loss (Eq.-level evaluation)


def scalar_contrastive_loss(features, positive_sets, clamp_eps=1e-6):
    """features: list of vectors; positive_sets: {anchor: iterable of positives}."""
    def cosine(a, b):
        num = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        return num / (na * nb)

    def log_odds(a, b):
        c = cosine(a, b)
        c = max(-1.0 + clamp_eps, min(1.0 - clamp_eps, c))
        return 2.0 * math.atanh(c)

    anchors = [i for i, pos in positive_sets.items() if pos]
    if not anchors:
        return 0.0
    total = 0.0
    for i in anchors:
        numerator = sum(math.exp(log_odds(features[i], features[j]))
                        for j in positive_sets[i])
        denominator = sum(math.exp(log_odds(features[i], features[k]))
                          for k in range(len(features)) if k != i)
        total += -math.log(numerator / denominator)
    return total / len(anchors)


# ---------------------------------------------------------------------------
# Brute-force assignment, nearest neighbor, voxel count


def brute_force_assignment(cost):
    """Minimum-total injection of the smaller side into the larger.

    Totals use math.fsum so the comparison is exact regardless of
    summation order on the caller's side.
    """
    cost = [list(map(float, row)) for row in cost]
    n_rows, n_cols = len(cost), len(cost[0])
    best = math.inf
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            best = min(best, math.fsum(cost[r][c] for r, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            best = min(best, math.fsum(cost[r][c] for c, r in enumerate(rows)))
    return best


def brute_force_nearest(source, query):
    """Index of nearest source point per query point, lowest index on ties."""
    out = []
    for q in query:
        dists = [sum((a - b) ** 2 for a, b in zip(p, q)) for p in source]
        out.append(dists.index(min(dists)))
    return out


def brute_force_voxel_count(stage_positions, resolution):
    """Hash-set oracle: number of distinct 4D voxel keys."""
    return len(set(brute_force_voxel_rows(stage_positions, resolution)))


def brute_force_grid(rows):
    """Unique integer rows in lexicographic order and each row's index among
    them: a sorted set of Python int tuples and a dict index."""
    rows = [tuple(int(v) for v in row) for row in rows]
    unique = sorted(set(rows))
    index = {row: i for i, row in enumerate(unique)}
    return unique, [index[row] for row in rows]


def brute_force_voxel_rows(stage_positions, resolution):
    """The (floor(x/res), floor(y/res), floor(z/res), t) row of every point,
    stage-major, in Python floats and ints."""
    return [tuple(math.floor(c / resolution) for c in p) + (t,)
            for t, positions in enumerate(stage_positions) for p in np.asarray(positions).tolist()]


def brute_force_place_centers(rng, recipe, max_size):
    """Object centers drawn as ``synth.generate`` draws them, each draw tested
    against every placed center; None when an object finds no place."""
    half = recipe.extent / 2
    centers = np.zeros((recipe.n_objects, 3))
    radii = max_size / 2 + recipe.placement_margin
    for i in range(recipe.n_objects):
        for _ in range(recipe.max_placement_retries):
            cand = rng.uniform(-half, half, size=3)
            cand[2] = abs(cand[2]) / 2
            if np.all(np.linalg.norm(centers[:i] - cand, axis=1) > radii[:i] + radii[i]):
                centers[i] = cand
                break
        else:
            return None
    return centers


# ---------------------------------------------------------------------------
# Grouped pooling and inverse maps, one group at a time
#
# Each mean adds its rows one by one in ascending row order, starting from
# 0.0, and then divides by the row count: the same float operations in the
# same order as an unbuffered scatter-add, so results compare exactly.


def _rows(features):
    return [[float(v) for v in np.atleast_1d(row)] for row in np.asarray(features)]


def _loop_mean(rows, members):
    total = [0.0] * len(rows[members[0]])
    for r in members:
        total = [a + b for a, b in zip(total, rows[r])]
    return [a / len(members) for a in total]


def points_in_voxel(point_to_voxel, voxel):
    """Ascending point indices whose voxel is ``voxel``."""
    return [p for p, v in enumerate(np.asarray(point_to_voxel).tolist()) if v == voxel]


def voxel_to_points(point_to_voxel, n_voxels):
    return [points_in_voxel(point_to_voxel, v) for v in range(n_voxels)]


def pool_features_to_voxels(point_to_voxel, features, n_voxels):
    """One mean feature row per voxel (a 1-D ``features`` is one column)."""
    rows = _rows(features)
    return [_loop_mean(rows, points_in_voxel(point_to_voxel, v)) for v in range(n_voxels)]


def pool_superpoint_features(segment_ids, features):
    """(ascending segment ids, one mean feature row per segment)."""
    rows = _rows(features)
    ids = [int(s) for s in segment_ids]
    segs = sorted(set(ids))
    return segs, [_loop_mean(rows, [r for r, s in enumerate(ids) if s == seg])
                  for seg in segs]


def build_feature_hierarchy(keys, voxel_features, n_levels):
    """Per level, (keys, features) and the child -> parent map, from
    floor-halved (i, j, k) with t unchanged; features after level 0 are the
    mean of each parent's children."""
    keys = [tuple(int(v) for v in row) for row in np.asarray(keys).tolist()]
    levels = [(keys, np.asarray(voxel_features, dtype=np.float64).tolist())]
    pool_maps = []
    for _ in range(n_levels - 1):
        child_keys, child_rows = levels[-1][0], _rows(levels[-1][1])
        halved = [(i // 2, j // 2, k // 2, t) for i, j, k, t in child_keys]
        parents = sorted(set(halved))
        row_of = {key: row for row, key in enumerate(parents)}
        cmap = [row_of[key] for key in halved]
        feats = [_loop_mean(child_rows, [c for c, p in enumerate(cmap) if p == parent])
                 for parent in range(len(parents))]
        levels.append((parents, feats))
        pool_maps.append(cmap)
    return levels, pool_maps


def st_pool_masks(coords, mask):
    """Each row's mask ORed over every row at the same (i, j, k), any stage."""
    cells = [tuple(int(v) for v in row[:3]) for row in np.asarray(coords).tolist()]
    rows = [np.atleast_1d(np.asarray(row, dtype=bool)) for row in np.asarray(mask)]
    out = []
    for cell in cells:
        acc = np.zeros_like(rows[0])
        for other, row in zip(cells, rows):
            if other == cell:
                acc = acc | row
        out.append(acc)
    return np.asarray(out, dtype=bool).reshape(np.shape(mask))


# ---------------------------------------------------------------------------
# Space-filling-curve codecs, one coordinate at a time on Python ints


CURVE_TRANS_PERMS = {3: (2, 0, 1), 4: (3, 0, 1, 2)}  # x->y->z(->t)->x


def skilling_axes_to_transpose(axes, bits):
    """Skilling's AxestoTranspose ("Programming the Hilbert curve", 2004)."""
    X = list(axes)
    n = len(X)
    Q = 1 << (bits - 1)
    while Q > 1:
        P = Q - 1
        for i in range(n):
            if X[i] & Q:
                X[0] ^= P
            else:
                t = (X[0] ^ X[i]) & P
                X[0] ^= t
                X[i] ^= t
        Q >>= 1
    for i in range(1, n):
        X[i] ^= X[i - 1]
    t = 0
    Q = 1 << (bits - 1)
    while Q > 1:
        if X[n - 1] & Q:
            t ^= Q - 1
        Q >>= 1
    return [x ^ t for x in X]


def skilling_transpose_to_axes(transpose, bits):
    """Skilling's TransposetoAxes, the inverse of the function above."""
    X = list(transpose)
    n = len(X)
    t = X[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        X[i] ^= X[i - 1]
    X[0] ^= t
    Q = 2
    while Q != 1 << bits:
        P = Q - 1
        for i in range(n - 1, -1, -1):
            if X[i] & Q:
                X[0] ^= P
            else:
                t = (X[0] ^ X[i]) & P
                X[0] ^= t
                X[i] ^= t
        Q <<= 1
    return X


def _bit_interleave(parts, bits, slot_of_axis):
    """Bit b of axis i goes to rank bit b * d + slot_of_axis[i]."""
    d = len(parts)
    rank = 0
    for b in range(bits):
        for i in range(d):
            rank |= ((parts[i] >> b) & 1) << (b * d + slot_of_axis[i])
    return rank


def _bit_deinterleave(rank, d, bits, slot_of_axis):
    parts = [0] * d
    for b in range(bits):
        for i in range(d):
            parts[i] |= ((rank >> (b * d + slot_of_axis[i])) & 1) << b
    return parts


def _curve_slots(curve, d):
    # Z-order: x in the least significant slot; Hilbert transpose: axis 0 in
    # the most significant slot
    if curve.startswith("z_order"):
        return list(range(d))
    return [d - 1 - i for i in range(d)]


def reference_curve_rank(coord, curve, bits):
    """Rank of one grid coordinate under a curve name of ``scanseq.curves``."""
    d = len(coord)
    coord = [int(c) for c in coord]
    if curve.endswith("_trans"):
        coord = [coord[p] for p in CURVE_TRANS_PERMS[d]]
    if curve.startswith("hilbert"):
        coord = skilling_axes_to_transpose(coord, bits)
    return _bit_interleave(coord, bits, _curve_slots(curve, d))


def reference_curve_coord(rank, curve, d, bits):
    """Inverse of :func:`reference_curve_rank`."""
    parts = _bit_deinterleave(int(rank), d, bits, _curve_slots(curve, d))
    if curve.startswith("hilbert"):
        parts = skilling_transpose_to_axes(parts, bits)
    if curve.endswith("_trans"):
        out = [0] * d
        for slot, p in enumerate(CURVE_TRANS_PERMS[d]):
            out[p] = parts[slot]
        parts = out
    return tuple(parts)


def reference_serialization_order(keys, curve, ndims, bits):
    """Voxel rows of (N, 4) integer keys in a pattern's order, by np.lexsort.

    Each axis is shifted to start at 0 with Python integers; ``ndims`` 3
    sorts by stage, then by the spatial rank, and ``ndims`` 4 by the rank of
    the whole key. Raises ValueError when an axis spans 2^bits cells or more.
    """
    rows = [[int(v) for v in row] for row in np.asarray(keys).tolist()]
    if not rows:
        return np.empty(0, dtype=np.int64)
    lo = [min(col) for col in zip(*rows)]
    shifted = [[v - m for v, m in zip(row, lo)] for row in rows]
    if max(max(row) for row in shifted) >= 1 << bits:
        raise ValueError(f"grid extent exceeds 2^{bits} cells per axis")
    ranks = np.asarray([reference_curve_rank(row[:ndims], curve, bits)
                        for row in shifted], dtype=np.uint64)
    if ndims == 3:
        return np.lexsort((ranks, [row[3] for row in shifted]))
    return np.lexsort((ranks,))
