import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanseq import metrics
from scanseq.metrics import (DEFAULT_THRESHOLDS, SWEEP_THRESHOLDS,
                             assign_ambiguous_components, average_precision,
                             disambiguate, evaluate, resolve_prediction_overlaps, t_iou)
from scanseq.model import AmbiguousGroup, GroundTruthAnnotation, _LabelColumns, _StageSizes

import oracles
from conftest import annotation, make_sequence, mask


# ---------------------------------------------------------------------------
# Toy-case geometries (the four canonical two-stage configurations)


def case_identity_swap():
    """Two objects swap position; predictions track position, not identity.

    Stage-0 components have 100 points, stage-1 components 50, so the
    union IoU of a prediction against its best ground truth is exactly 0.5
    while one stage has the wrong identity entirely.
    """
    gt1 = mask(0, 1, {0: range(0, 100), 1: range(150, 200)})
    gt2 = mask(1, 1, {0: range(100, 200), 1: range(0, 50)})
    # predictions stay at the spatial location (index region) they started in
    p1 = mask(0, 1, {0: range(0, 100), 1: range(0, 50)}, confidence=0.9)
    p2 = mask(1, 1, {0: range(100, 200), 1: range(150, 200)}, confidence=0.8)
    return [gt1, gt2], [p1, p2]


def case_half_coverage():
    """Predictions keep identity but cover half of each component."""
    gt1 = mask(0, 1, {0: range(0, 100), 1: range(0, 100)})
    p1 = mask(0, 1, {0: range(0, 50), 1: range(0, 50)}, confidence=0.9)
    return [gt1], [p1]


def case_perfect():
    gt1 = mask(0, 1, {0: range(0, 80), 1: range(20, 120)})
    p1 = mask(0, 1, {0: range(0, 80), 1: range(20, 120)}, confidence=0.9)
    return [gt1], [p1]


def case_hallucinated_stage():
    """Ground truth exists only at stage 0; the prediction also claims an
    equal-sized region at stage 1 where the instance is absent."""
    gt1 = mask(0, 1, {0: range(0, 60)})
    p1 = mask(0, 1, {0: range(0, 60), 1: range(0, 60)}, confidence=0.9)
    return [gt1], [p1]


def test_tiou_case_swap():
    gts, preds = case_identity_swap()
    profile = t_iou(preds[0], gts[0])
    assert profile.overall_iou == pytest.approx(0.5)
    assert profile.t_iou == 0.0
    assert profile.per_stage_iou == {0: 1.0, 1: 0.0}


def test_tiou_case_half_coverage():
    gts, preds = case_half_coverage()
    profile = t_iou(preds[0], gts[0])
    assert abs(profile.overall_iou - 0.5) <= 0.05
    assert abs(profile.t_iou - 0.5) <= 0.05


def test_tiou_case_perfect():
    gts, preds = case_perfect()
    profile = t_iou(preds[0], gts[0])
    assert profile.overall_iou == 1.0
    assert profile.t_iou == 1.0


def test_tiou_case_hallucinated_stage():
    gts, preds = case_hallucinated_stage()
    profile = t_iou(preds[0], gts[0])
    assert profile.overall_iou == pytest.approx(0.5)
    assert profile.t_iou == 0.0
    assert profile.per_stage_iou[1] == 0.0


def test_tiou_excludes_stages_where_both_absent():
    gt = mask(0, 1, {0: range(10)})
    pred = mask(0, 1, {0: range(10)}, confidence=0.5)
    profile = t_iou(pred, gt)
    assert set(profile.per_stage_iou) == {0}
    assert profile.t_iou == 1.0


def test_tiou_never_increases_when_stages_are_appended():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_stages = int(rng.integers(1, 4))
        gt_stages = {t: rng.choice(100, size=rng.integers(5, 40), replace=False)
                     for t in range(n_stages)}
        pred_stages = {t: rng.choice(100, size=rng.integers(5, 40), replace=False)
                       for t in range(n_stages)}
        base = t_iou(mask(0, 1, pred_stages), mask(0, 1, gt_stages)).t_iou
        extended = dict(gt_stages)
        extended[n_stages] = rng.choice(100, size=10, replace=False)
        grown = t_iou(mask(0, 1, pred_stages), mask(0, 1, extended)).t_iou
        assert grown <= base + 1e-12


def _random_masks(rng, ids, n_stages, universe, scored=False):
    """Masks over a small point universe, so they overlap on both sides."""
    return [mask(i, 1, {t: rng.choice(universe, size=int(rng.integers(1, universe // 2)),
                                      replace=False)
                        for t in range(n_stages) if rng.uniform() < 0.8},
                 confidence=float(rng.uniform(0.1, 1.0)) if scored else 1.0)
            for i in ids]


_POINT_SETS = st.dictionaries(st.integers(0, 2), st.sets(st.integers(0, 40), min_size=1,
                                                          max_size=25), max_size=3)


@settings(max_examples=150, deadline=None)
@given(gt_sets=st.lists(_POINT_SETS, max_size=5), pred_sets=st.lists(_POINT_SETS, max_size=5))
def test_label_layer_tables_match_pairwise_oracle(gt_sets, pred_sets):
    # ground-truth masks over 41 points overlap, and take more than one layer
    gts = [mask(i, 1, {t: sorted(pts) for t, pts in sets.items()})
           for i, sets in enumerate(gt_sets)]
    preds = [mask(10 + i, 1, {t: sorted(pts) for t, pts in sets.items()}, confidence=0.5)
             for i, sets in enumerate(pred_sets)]
    stages, inter, psize, gsize = metrics._stage_tables(metrics._label_layers(preds),
                                                        metrics._label_layers(gts))
    assert (stages, inter.tolist(), psize.tolist(), gsize.tolist()) == \
        oracles.pairwise_stage_tables(preds, gts)


def test_stage_table_consumers_match_pairwise_oracle(monkeypatch):
    weights_seen = []
    assign = metrics.assign_ambiguous_components

    def recording_assign(weights, present, rng):
        weights_seen.append((np.asarray(weights).tolist(), np.asarray(present).tolist()))
        return assign(weights, present, rng)

    monkeypatch.setattr(metrics, "assign_ambiguous_components", recording_assign)
    rng = np.random.default_rng(11)
    for _ in range(60):
        n_stages = int(rng.integers(1, 4))
        gts = _random_masks(rng, range(int(rng.integers(1, 5))), n_stages, 30)
        preds = _random_masks(rng, range(10, 10 + int(rng.integers(0, 5))), n_stages,
                              30, scored=True)
        for p in preds:
            for g in gts:
                profile = t_iou(p, g)
                per_stage, overall, value = oracles.pairwise_t_iou(p, g)
                assert profile.per_stage_iou == per_stage
                assert profile.overall_iou == overall
                assert profile.t_iou == value

        weights_seen.clear()
        group = AmbiguousGroup(0, tuple(g.instance_id for g in gts))
        result = disambiguate(group, gts, preds, rng_seed=3)
        weights, present, stages = oracles.pairwise_disambiguation_weights(gts, preds)
        assert weights_seen == [(weights, present)]
        assert result.stages == tuple(stages)


# ---------------------------------------------------------------------------
# Disambiguation


def test_disambiguate_single_member_group():
    gts = [mask(0, 1, {0: range(10), 1: range(10)})]
    group = AmbiguousGroup(0, (0,))
    result = disambiguate(group, gts, [], rng_seed=0)
    assert len(result.trajectories) == 1
    traj = result.trajectories[0]
    assert traj.per_stage_points[0].tolist() == list(range(10))
    assert traj.per_stage_points[1].tolist() == list(range(10))


def test_disambiguate_symmetric_swap_yields_perfect_trajectories():
    # members swap index regions across stages; predictions follow the swap
    m1 = mask(0, 1, {0: range(0, 50), 1: range(50, 100)})
    m2 = mask(1, 1, {0: range(50, 100), 1: range(0, 50)})
    p1 = mask(10, 1, {0: range(0, 50), 1: range(50, 100)}, confidence=0.9)
    p2 = mask(11, 1, {0: range(50, 100), 1: range(0, 50)}, confidence=0.8)
    group = AmbiguousGroup(0, (0, 1))
    result = disambiguate(group, [m1, m2], [p1, p2], rng_seed=0)
    assert len(result.trajectories) == 2
    tious = sorted(
        max(t_iou(p, traj).t_iou for p in (p1, p2))
        for traj in result.trajectories)
    assert tious == [1.0, 1.0]
    # each trajectory's candidate set is exactly its perfect prediction
    assert sorted(oracles.pairwise_candidates([p1, p2], [traj], 1)[traj.instance_id]
                  for traj in result.trajectories) == [(10,), (11,)]


def test_disambiguation_assignment_is_read_only():
    m1 = mask(0, 1, {0: range(0, 50), 1: range(50, 100)})
    m2 = mask(1, 1, {0: range(50, 100), 1: range(0, 50)})
    result = disambiguate(AmbiguousGroup(0, (0, 1)), [m1, m2], [], rng_seed=0)
    with pytest.raises(ValueError, match="read-only"):
        result.assignment[0, 0] = 1


def test_disambiguate_draws_the_stream_evaluate_gives_the_group():
    # the random fill of group 3 draws from (seed, 3), as in evaluate
    gts = [mask(k, 1, {t: range(10 * k, 10 * k + 10) for t in range(3 - (k == 3))})
           for k in range(4)]
    group = AmbiguousGroup(3, (0, 1, 2, 3))
    present = np.array([[True] * 3] * 3 + [[True, True, False]])
    for seed in range(20):
        expected = assign_ambiguous_components(np.zeros((0, 4, 3)), present,
                                               np.random.default_rng((seed, 3)))
        result = disambiguate(group, gts, [], rng_seed=seed)
        assert result.assignment.tolist() == expected.tolist()


def test_disambiguate_merge_claims_higher_weight_member():
    # one prediction covering both members at the single stage: it claims the
    # member with the larger IoU; the other member fills the second trajectory
    m1 = mask(0, 1, {0: range(0, 60)})
    m2 = mask(1, 1, {0: range(60, 100)})
    merged = mask(10, 1, {0: range(0, 100)}, confidence=1.0)
    group = AmbiguousGroup(0, (0, 1))
    result = disambiguate(group, [m1, m2], [merged], rng_seed=0)
    assert len(result.trajectories) == 2
    sizes = sorted(t.per_stage_points[0].size for t in result.trajectories)
    assert sizes == [40, 60]
    # the prediction's trajectory is the higher-IoU member (m1: 60/100 > m2)
    row0 = next(t for t in result.trajectories if t.instance_id == -1)  # row 0
    assert row0.per_stage_points[0].tolist() == list(range(0, 60))


def test_assignment_core_tie_breaks_are_deterministic():
    # equal totals -> lowest prediction index wins; equal member weights ->
    # lowest member index claimed
    W = np.zeros((2, 2, 1))
    W[0, :, 0] = [0.5, 0.5]
    W[1, :, 0] = [0.5, 0.5]
    present = np.ones((2, 1), dtype=bool)
    A = assign_ambiguous_components(W, present, np.random.default_rng(0))
    assert A[0, 0] == 0  # first trajectory claims member 0 via prediction 0
    assert A[1, 0] == 1


def test_assignment_core_partition_property():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n_p = int(rng.integers(0, 4))
        n_k = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        present = rng.uniform(size=(n_k, n_t)) < 0.8
        present[rng.integers(n_k), rng.integers(n_t)] = True
        W = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n_p, n_k, n_t))
        W *= present[None, :, :]
        A = assign_ambiguous_components(W, present, np.random.default_rng(1))
        for t in range(n_t):
            claimed = [A[i, t] for i in range(n_k) if A[i, t] >= 0]
            assert len(set(claimed)) == len(claimed)
            assert set(claimed) == {k for k in range(n_k) if present[k, t]}


def test_disambiguate_matches_transcription_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_p = int(rng.integers(1, 5))
        n_k = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        present = rng.uniform(size=(n_k, n_t)) < 0.85
        present[:, rng.integers(n_t)] = True
        W = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], size=(n_p, n_k, n_t))
        W *= present[None, :, :]
        seed = int(rng.integers(1 << 16))
        A = assign_ambiguous_components(W, present, np.random.default_rng(seed))
        expected = oracles.transcribe_ambiguous_assignment(
            W.tolist(), present.tolist(), seed)
        assert A.tolist() == expected


# ---------------------------------------------------------------------------
# Detection matching and AP


def test_assign_detections_perfect_and_duplicate():
    seq = make_sequence([20])
    gt = annotation([mask(0, 1, {0: range(10)}), mask(1, 1, {0: range(10, 20)})])
    perfect = [mask(5, 1, {0: range(10)}, confidence=0.9),
               mask(6, 1, {0: range(10, 20)}, confidence=0.8)]
    report = evaluate(seq, gt, perfect, (0.9,))
    assert report.counts[1][0.9] == (2, 0, 0)
    assert report.per_class_ap[1][0.9] == 1.0

    dup = [mask(5, 1, {0: range(10)}, confidence=0.9),
           mask(6, 1, {0: range(10)}, confidence=0.7)]
    report = evaluate(seq, gt, dup, (0.5,))
    assert report.counts[1][0.5] == (1, 1, 1)
    # AP 0.5, not 0.25: the higher-confidence prediction is the TP
    assert report.per_class_ap[1][0.5] == 0.5


def test_average_precision_examples():
    assert average_precision([True, True], 2) == 1.0
    assert average_precision([True, False, True], 2) == pytest.approx(5 / 6)
    assert average_precision([False, False], 3) == 0.0
    assert average_precision([], 0) is None
    assert average_precision([False], 0) == 0.0
    assert average_precision([], 4) == 0.0


# ---------------------------------------------------------------------------
# Overlap resolution


def test_overlap_resolution_prefers_higher_confidence():
    seq = make_sequence([30])
    a = mask(0, 1, {0: range(0, 20)}, confidence=0.9)
    b = mask(1, 1, {0: range(10, 30)}, confidence=0.5)
    resolved = resolve_prediction_overlaps([a, b], seq)
    assert resolved[0].per_stage_points[0].tolist() == list(range(0, 20))
    assert resolved[1].per_stage_points[0].tolist() == list(range(20, 30))
    # no shared (stage, point) pairs remain
    joined = np.concatenate([m.per_stage_points[0] for m in resolved])
    assert len(np.unique(joined)) == len(joined)


def test_overlap_resolution_can_empty_a_mask():
    seq = make_sequence([10])
    a = mask(0, 1, {0: range(10)}, confidence=0.9)
    b = mask(1, 1, {0: range(10)}, confidence=0.1)
    resolved = resolve_prediction_overlaps([a, b], seq)
    assert resolved[1].per_stage_points == {}


def _stage_points(masks):
    return [(m.instance_id, {t: p.tolist() for t, p in m.per_stage_points.items()})
            for m in masks]


@settings(max_examples=150, deadline=None)
@given(sets=st.lists(_POINT_SETS, max_size=6), data=st.data())
def test_overlap_resolution_matches_oracle_in_any_input_order(sets, data):
    # few confidences, so contests tie; ids descend, so id order is not input order
    preds = [mask(10 - i, 1, {t: sorted(pts) for t, pts in stages.items()},
                  confidence=data.draw(st.sampled_from([0.25, 0.5])))
             for i, stages in enumerate(sets)]
    seq = make_sequence([41, 41, 41])
    resolved = resolve_prediction_overlaps(preds, seq)
    assert _stage_points(resolved) == _stage_points(oracles.resolve_overlaps(preds))
    perm = data.draw(st.permutations(range(len(preds))))
    assert _stage_points(resolve_prediction_overlaps([preds[k] for k in perm], seq)) == \
        _stage_points([resolved[k] for k in perm])


# ---------------------------------------------------------------------------
# evaluate()


def _evaluate_case(gts, preds, stage_sizes=(200, 200), labels=None, groups=()):
    seq = make_sequence(list(stage_sizes))
    gt = annotation(gts, groups=groups, labels=labels)
    return evaluate(seq, gt, preds)


def test_evaluate_transient_memory_stays_below_4_bytes_a_point():
    # 200 ground-truth columns over one 2^20-point stage, and a prediction per
    # column that also takes the next point, so neighbours contest it
    n, rng = 1 << 20, np.random.default_rng(0)
    labels = rng.integers(0, 201, size=n).astype(np.intp)
    truth = _LabelColumns(tuple(range(200)), (1,) * 200, {0: (labels,)},
                          {0: np.bincount(labels, minlength=201)[1:]})
    owners = np.argsort(labels, kind="stable")
    heads = np.searchsorted(labels[owners], np.arange(1, 202))
    preds = [mask(j, 1, {0: np.union1d(pts, pts[pts < n - 1] + 1)},
                  confidence=float(rng.uniform(0.1, 1.0)))
             for j, pts in enumerate(np.split(owners, heads)[1:-1])]
    tracemalloc.start()
    try:
        report = evaluate(_StageSizes((n,), "s"), truth, preds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_ground_truth == {1: 200} and peak < 4 * n


def test_evaluate_counts_points_shared_by_overlapping_ground_truth():
    # g0 and g1 share points 40..59; the prediction is exactly g0
    g0 = mask(0, 1, {0: range(0, 60)})
    g1 = mask(1, 1, {0: range(40, 100)})
    pred = mask(5, 1, {0: range(0, 60)}, confidence=0.9)
    assert t_iou(pred, g0).t_iou == 1.0
    report = _evaluate_case([g0, g1], [pred], stage_sizes=(100,))
    assert report.counts[1][0.9] == (1, 0, 1)
    assert report.per_class_ap[1][0.9] == 0.5


def test_evaluate_swap_vs_identity_geometry():
    # Non-ambiguous pair with identity-swapping predictions scores zero at
    # tau=0.25; identity-preserving half-coverage predictions score 1.
    gts, swap_preds = case_identity_swap()
    report = _evaluate_case(gts, swap_preds)
    assert report.per_class_ap[1][0.25] == 0.0
    assert report.t_map25 == 0.0

    gt_half, half_preds = case_half_coverage()
    report = _evaluate_case(gt_half, half_preds)
    assert report.per_class_ap[1][0.25] == 1.0
    assert report.t_map25 == 1.0


def test_evaluate_longer_sequences_decrease():
    gts, preds = case_perfect()
    base = _evaluate_case(gts, preds)
    assert base.t_map == 1.0
    # append a third stage where the instance exists but predictions miss it
    grown = [mask(0, 1, {**{t: p for t, p in gts[0].per_stage_points.items()},
                         2: range(50)})]
    report = _evaluate_case(grown, preds, stage_sizes=(200, 200, 200))
    assert report.t_map == 0.0
    assert report.t_map < base.t_map


def test_evaluate_confidence_scaling_invariance():
    rng = np.random.default_rng(6)
    gts = [mask(j, 1, {t: rng.choice(200, size=30, replace=False) for t in range(2)})
           for j in range(3)]
    preds = [mask(i, 1,
                  {t: rng.choice(200, size=25, replace=False) for t in range(2)},
                  confidence=float(rng.uniform(0.2, 0.8)))
             for i in range(5)]
    scaled = [mask(p.instance_id, p.class_id, p.per_stage_points,
                   confidence=p.confidence * 0.5) for p in preds]
    r1 = _evaluate_case(gts, preds)
    r2 = _evaluate_case(gts, scaled)
    assert r1.per_class_ap == r2.per_class_ap
    assert r1.counts == r2.counts


def test_evaluate_is_deterministic_with_groups():
    rng = np.random.default_rng(7)
    gts = [mask(0, 1, {0: range(0, 40), 1: range(40, 80)}),
           mask(1, 1, {0: range(40, 80), 1: range(0, 40)}),
           mask(2, 2, {0: range(100, 130), 1: range(100, 130)})]
    preds = [mask(0, 1, {0: range(0, 40), 1: range(0, 40)}, confidence=0.7),
             mask(1, 1, {0: range(40, 80)}, confidence=0.6),
             mask(2, 2, {0: range(100, 125), 1: range(100, 125)}, confidence=0.9)]
    seq = make_sequence([200, 200])
    gt = annotation(gts, groups=[(0, 1)])
    r1 = evaluate(seq, gt, preds, rng_seed=11)
    r2 = evaluate(seq, gt, preds, rng_seed=11)
    assert r1 == r2


def _swap_scene(grouped):
    """Two members swapping regions, ambiguous or not, and one prediction."""
    gts = [mask(0, 1, {0: range(0, 40), 1: range(40, 80)}),
           mask(1, 1, {0: range(40, 80), 1: range(0, 40)})]
    preds = [mask(0, 1, {0: range(0, 40), 1: range(0, 40)}, confidence=0.7)]
    return make_sequence([200, 200]), annotation(gts, groups=[(0, 1)] if grouped else []), preds


@pytest.mark.parametrize("grouped", [True, False], ids=["group", "no-group"])
@pytest.mark.parametrize("seed,error,message", [
    (True, TypeError, "an integer, not True"), ("3", TypeError, "an integer, not '3'"),
    (2.0, TypeError, "an integer, not 2.0"), (None, TypeError, "an integer, not None"),
    (-1, ValueError, "non-negative, not -1"),
], ids=["bool", "string", "float", "none", "negative"])
def test_evaluate_and_disambiguate_refuse_a_seed_that_is_not_a_natural_number(
        grouped, seed, error, message):
    # refused on entry, so also where no group would draw from the seed
    seq, gt, preds = _swap_scene(grouped)
    with pytest.raises(error, match=f"^rng_seed must be {message}$"):
        evaluate(seq, gt, preds, rng_seed=seed)
    with pytest.raises(error, match=f"^rng_seed must be {message}$"):
        disambiguate(AmbiguousGroup(0, (0, 1)), gt.instances, preds, rng_seed=seed)


@pytest.mark.parametrize("grouped", [True, False], ids=["group", "no-group"])
def test_a_numpy_integer_seed_gives_the_report_of_its_int(grouped):
    seq, gt, preds = _swap_scene(grouped)
    assert evaluate(seq, gt, preds, rng_seed=np.int64(3)) == evaluate(seq, gt, preds, rng_seed=3)


def _composition_scene(rng):
    """Two classes over 2-4 stages of 50 points: overlapping ground truth with
    shuffled ids, at most one ambiguous group of 2-3 members per class (random
    group ids, members in random order), and predictions that mostly follow
    one instance, often take a group peer's component at a stage, overlap
    each other, share confidences and now and then carry the other class."""
    n_stages, n_points = int(rng.integers(2, 5)), 50
    gt_ids, pred_ids = rng.permutation(100).tolist(), rng.permutation(1000).tolist()
    group_ids = rng.choice(1000, size=2, replace=False).tolist()
    gts, groups, peers = [], [], {}
    for c in (1, 2):
        members = []
        for _ in range(int(rng.integers(2, 6))):
            stages = [t for t in range(n_stages) if rng.uniform() < 0.8] or [0]
            members.append(mask(gt_ids.pop(), c, {
                t: rng.choice(n_points, size=int(rng.integers(4, 12)), replace=False)
                for t in stages}))
            peers[members[-1].instance_id] = [members[-1]]
        k = int(rng.integers(0, 4))
        if k >= 2:
            group = [members[i] for i in rng.permutation(len(members))[:k]]
            groups.append(AmbiguousGroup(group_ids.pop(),
                                         tuple(m.instance_id for m in group)))
            peers.update((m.instance_id, group) for m in group)
        gts += members

    preds = []
    for g in gts + [None] * int(rng.integers(0, 3)):
        if g is not None and rng.uniform() < 0.2:
            continue
        per_stage = {}
        for t in range(n_stages):
            if g is None:
                pts = rng.choice(n_points, size=int(rng.integers(0, 10)), replace=False)
            else:
                source = peers[g.instance_id][int(rng.integers(len(peers[g.instance_id])))] \
                    if rng.uniform() < 0.4 else g
                pts = source.points_at(t)
                pts = np.union1d(pts[rng.uniform(size=pts.size) < 0.85],
                                 rng.choice(n_points, size=int(rng.integers(0, 3))))
            if pts.size:
                per_stage[t] = pts
        class_id = int(rng.integers(1, 3)) if g is None or rng.uniform() < 0.1 \
            else g.class_id
        preds.append(mask(pred_ids.pop(), class_id, per_stage,
                          confidence=float(rng.choice([0.3, 0.5, 0.7, 0.9]))))
    gt = GroundTruthAnnotation(instances=tuple(gts), ambiguous_groups=tuple(groups))
    return make_sequence([n_points] * n_stages), gt, preds


def test_evaluate_matches_composition_oracle():
    rng = np.random.default_rng(12)
    taus = (0.1, 0.25, 0.5, 0.75)
    n_groups = n_tp = 0
    for _ in range(120):
        seq, gt, preds = _composition_scene(rng)
        seed = int(rng.integers(1 << 16))
        report = evaluate(seq, gt, preds, taus, rng_seed=seed)
        found = {c: {tau: (report.per_class_ap[c][tau], report.counts[c][tau])
                     for tau in taus} for c in report.class_ids}
        assert found == oracles.composed_evaluation(seq, gt, preds, taus, seed)
        n_groups += len(gt.ambiguous_groups)
        n_tp += sum(report.counts[c][0.5][0] for c in report.class_ids)
    assert n_groups >= 60 and n_tp >= 100


@st.composite
def _tied_scenes(draw, n_points=6):
    """A scene of 1-3 stages of a few points, whose class-1 ground truth and
    predictions often repeat a few shapes, so t-IoUs tie, with confidences
    from {0.5, 0.9}, so the processing order ties too. Class 2 has ground
    truth only, class 3 predictions only."""
    n_stages = draw(st.integers(1, 3))
    masks = st.dictionaries(st.integers(0, n_stages - 1),
                            st.lists(st.integers(0, n_points - 1), min_size=1,
                                     max_size=4, unique=True), min_size=1)
    shapes = draw(st.lists(masks, min_size=1, max_size=3))
    confidence = st.sampled_from([0.5, 0.9])
    shape = st.sampled_from(shapes) | masks
    gts = [mask(j, 1, draw(shape)) for j in range(draw(st.integers(1, 4)))]
    gts += [mask(len(gts) + j, 2, m) for j, m in enumerate(draw(st.lists(masks, min_size=1,
                                                                         max_size=2)))]
    preds = [mask(i, 1, m, confidence=draw(confidence))
             for i, m in enumerate(draw(st.lists(shape, max_size=6)))]
    preds += [mask(len(preds) + i, 3, m, confidence=draw(confidence))
              for i, m in enumerate(draw(st.lists(masks, min_size=1, max_size=2)))]
    return (make_sequence([n_points] * n_stages),
            GroundTruthAnnotation(instances=tuple(gts)), preds)


@settings(max_examples=150, deadline=None)
@given(scene=_tied_scenes())
# prediction 0 ties at t-IoU 2/3 between ground truth 0 and 1; only the
# lowest column leaves ground truth 1 for prediction 1 (t-IoU 1/4)
@example(scene=(make_sequence([6]), annotation([mask(0, 1, {0: [0, 1, 2]}),
                                                mask(1, 1, {0: [0, 1, 3]}),
                                                mask(2, 2, {0: [5]})]),
                [mask(0, 1, {0: [0, 1]}, confidence=0.9),
                 mask(1, 1, {0: [3, 4]}, confidence=0.5),
                 mask(2, 3, {0: [5]}, confidence=0.5)]))
def test_evaluate_matches_per_threshold_oracles(scene):
    seq, gt, preds = scene
    taus = (0.0, 0.3, 0.5, 0.7, 0.95)
    report = evaluate(seq, gt, preds, taus)
    resolved = resolve_prediction_overlaps(preds, seq)
    assert report.class_ids == (1, 2, 3)
    for c in report.class_ids:
        class_preds = [p for p in resolved if p.class_id == c]
        class_gts = [g for g in gt.instances if g.class_id == c]  # ids ascend
        for tau in taus:
            labels = oracles.pairwise_greedy_tp(class_preds, class_gts, tau)
            tp = sum(labels)
            assert report.counts[c][tau] == (tp, len(labels) - tp, len(class_gts) - tp)
            # the loop may sum in another order than numpy
            assert report.per_class_ap[c][tau] == pytest.approx(
                oracles.envelope_average_precision(labels, len(class_gts)), rel=1e-12)


def test_label_layer_tables_and_evaluate_match_oracles_in_blocks_of_3(monkeypatch):
    # a layer of up to 41 points spans many count blocks, on both sides
    monkeypatch.setattr(metrics, "_COUNT_BLOCK", 3)
    test_label_layer_tables_match_pairwise_oracle()
    test_evaluate_matches_per_threshold_oracles()


def test_evaluate_includes_zero_ap_classes():
    gts = [mask(0, 1, {0: range(10)})]
    preds = [mask(0, 2, {0: range(10, 20)}, confidence=0.5)]
    report = _evaluate_case(gts, preds, stage_sizes=(50,))
    assert set(report.class_ids) == {1, 2}
    assert report.per_class_ap[1][0.25] == 0.0  # gt present, no predictions
    assert report.per_class_ap[2][0.25] == 0.0  # predictions with no gt
    assert report.n_ground_truth[2] == 0


def test_evaluate_headline_metric_ordering():
    rng = np.random.default_rng(8)
    gts = [mask(j, j % 2, {t: rng.choice(200, size=30, replace=False)
                           for t in range(2)}) for j in range(4)]
    preds = [mask(i, i % 2,
                  {t: rng.choice(200, size=rng.integers(15, 35), replace=False)
                   for t in range(2)},
                  confidence=float(rng.uniform(0.2, 1.0))) for i in range(6)]
    report = _evaluate_case(gts, preds)
    assert 0.0 <= report.t_map <= report.t_map50 <= report.t_map25 <= 1.0


def test_evaluate_per_change_recall_grouping():
    from scanseq.model import ChangeType
    gts = [mask(0, 1, {0: range(0, 30), 1: range(0, 30)}),
           mask(1, 1, {0: range(40, 70), 1: range(40, 70)})]
    preds = [mask(0, 1, {0: range(0, 30), 1: range(0, 30)}, confidence=0.9)]
    labels = {0: "static", 1: "rigid"}
    report = _evaluate_case(gts, preds, labels=labels)
    assert report.per_change_recall[ChangeType.STATIC] == 1.0
    assert report.per_change_recall[ChangeType.RIGID] == 0.0


def test_evaluate_mixed_label_trajectory_is_ambiguous():
    # each prediction stays at one position, so its trajectory takes member
    # 0 at one stage and member 1 at the other, and their labels differ
    from scanseq.model import ChangeType
    gts, preds = case_identity_swap()
    report = _evaluate_case(gts, preds, labels={0: "rigid", 1: "static"}, groups=[(0, 1)])
    recall = {k: v for k, v in report.per_change_recall.items() if v is not None}
    assert recall == {ChangeType.AMBIGUOUS: 1.0}


def test_evaluate_ties_claim_plain_columns_by_id_then_groups_by_id():
    # Each prediction ties at IoU 0.5 between two columns: p0 between plain
    # instance 0 and member 1 of group 0, p1 between member 2 of group 0 and
    # member 3 of group 1, p2 between plain instances 5 and 6. Instances and
    # groups are listed against id order, and the labels (6 has none) show
    # in the recall which column each prediction claimed.
    from scanseq.model import ChangeType
    gts = [mask(j, 1, {0: range(2 * j, 2 * j + 2)}) for j in reversed(range(7))]
    preds = [mask(0, 1, {0: range(0, 4)}, confidence=0.9),
             mask(1, 1, {0: range(4, 8)}, confidence=0.8),
             mask(2, 1, {0: range(10, 14)}, confidence=0.7)]
    gt = GroundTruthAnnotation(
        tuple(gts), (AmbiguousGroup(1, (3, 4)), AmbiguousGroup(0, (1, 2))),
        {0: ChangeType.STATIC, 1: ChangeType.RIGID, 2: ChangeType.RIGID,
         3: ChangeType.NON_RIGID, 4: ChangeType.NON_RIGID, 5: ChangeType.ADDED_REMOVED})
    report = evaluate(make_sequence([14]), gt, preds, thresholds=[0.25])
    assert report.counts[1][0.25] == (3, 0, 4)
    assert report.per_change_recall == {ChangeType.STATIC: 1.0, ChangeType.RIGID: 0.5,
                                        ChangeType.NON_RIGID: 0.0,
                                        ChangeType.ADDED_REMOVED: 1.0}


@pytest.mark.parametrize("value", [True, "0.5"])
def test_evaluate_refuses_a_threshold_that_is_not_a_number(value):
    # float() would read True as 1.0 and "0.5" as 0.5
    gt = annotation([mask(0, 1, {0: range(2)})])
    with pytest.raises(ValueError, match=f"^threshold '{value}' is not a number$"):
        evaluate(make_sequence([4]), gt, [], thresholds=[value])


@pytest.mark.parametrize("weights,present,message", [
    (np.zeros((2, 3)), np.ones((2, 3), dtype=bool), r"weights must have shape \(P, K, T\)"),
    (np.zeros((1, 2, 3)), np.ones((3, 2), dtype=bool), r"present must have shape \(K, T\)"),
], ids=["two-dim-weights", "present-transposed"])
def test_assign_ambiguous_components_refuses_misshapen_input(weights, present, message):
    with pytest.raises(ValueError, match=message):
        assign_ambiguous_components(weights, present, np.random.default_rng(0))
