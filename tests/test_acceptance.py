"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanseq.curves import Curve, decode_keys, encode_keys
from scanseq.geometry import downsample_level, voxelize
from scanseq.metrics import (SWEEP_THRESHOLDS, assign_ambiguous_components,
                             evaluate, t_iou)
from scanseq.model import SequencePointCloud, StageCloud
from scanseq.numerics import contrastive_loss, relation_from_instance_ids, solve_assignment
from scanseq.synth import (ChangeOp, PerturbationSpec, SceneRecipe, generate,
                           perturb)

import oracles
from conftest import annotation, make_sequence, mask


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} - {description}{suffix}", flush=True)
    assert ok, f"criterion {number}: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. Fig-3 style toy cases: tabled (IoU, t-IoU) pairs


def test_criterion_01_toy_case_suite():
    started = time.perf_counter()

    # A: identity swap with full per-stage overlap of the wrong identity
    gt_a = mask(0, 1, {0: range(0, 100), 1: range(150, 200)})
    pred_a = mask(0, 1, {0: range(0, 100), 1: range(0, 50)}, confidence=0.9)
    profile_a = t_iou(pred_a, gt_a)

    # B: identity preserved, half coverage per stage
    gt_b = mask(0, 1, {0: range(0, 100), 1: range(0, 100)})
    pred_b = mask(0, 1, {0: range(0, 50), 1: range(0, 50)}, confidence=0.9)
    profile_b = t_iou(pred_b, gt_b)

    # C: exact prediction
    gt_c = mask(0, 1, {0: range(0, 80), 1: range(20, 120)})
    profile_c = t_iou(mask(0, 1, {0: range(0, 80), 1: range(20, 120)},
                           confidence=0.9), gt_c)

    # D: ground truth only at stage 0, prediction hallucinates stage 1
    gt_d = mask(0, 1, {0: range(0, 60)})
    pred_d = mask(0, 1, {0: range(0, 60), 1: range(0, 60)}, confidence=0.9)
    profile_d = t_iou(pred_d, gt_d)

    elapsed = time.perf_counter() - started
    ok = (abs(profile_a.overall_iou - 0.5) < 1e-12 and profile_a.t_iou == 0.0
          and abs(profile_b.overall_iou - 0.5) <= 0.05
          and abs(profile_b.t_iou - 0.5) <= 0.05
          and profile_c.overall_iou == 1.0 and profile_c.t_iou == 1.0
          and abs(profile_d.overall_iou - 0.5) < 1e-12 and profile_d.t_iou == 0.0
          and elapsed < 1.0)
    _report(1, "toy cases A-D reproduce tabled (IoU, t-IoU) pairs", ok,
            f"A=({profile_a.overall_iou:.2f},{profile_a.t_iou:.2f}) "
            f"B=({profile_b.overall_iou:.2f},{profile_b.t_iou:.2f}) "
            f"C=({profile_c.overall_iou:.2f},{profile_c.t_iou:.2f}) "
            f"D=({profile_d.overall_iou:.2f},{profile_d.t_iou:.2f}) "
            f"in {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. T=1 reduction to standard mAP


def test_criterion_02_single_stage_reduction():
    rng = np.random.default_rng(20)
    taus = tuple(sorted({0.25, 0.5, *SWEEP_THRESHOLDS}))
    worst = 0.0
    scenes = 0
    for trial in range(50):
        recipe = SceneRecipe(seed=1000 + trial, n_stages=1,
                             n_objects=int(rng.integers(2, 7)),
                             n_classes=int(rng.integers(1, 4)),
                             background_points=120,
                             sequence_id=f"t1-{trial}")
        seq, gt = generate(recipe)
        policy = ("consistent", "fragmented", "merged")[trial % 3]
        spec = PerturbationSpec(
            target_iou=float(rng.uniform(0.35, 1.0)),
            identity_policy=policy,
            confidence_base=float(rng.uniform(0.4, 0.9)),
            confidence_jitter=0.1, seed=trial)
        preds = perturb(seq, gt, spec)
        report = evaluate(seq, gt, preds, taus)

        gt_by_class = {}
        for inst in gt.instances:
            gt_by_class.setdefault(inst.class_id, []).append(
                set(inst.per_stage_points[0].tolist()))
        preds_by_class = {}
        for p in sorted(preds, key=lambda m: m.instance_id):
            preds_by_class.setdefault(p.class_id, []).append(
                (p.confidence, set(p.per_stage_points[0].tolist())))
        expected = oracles.reference_single_stage_map(gt_by_class, preds_by_class, taus)

        for c in report.class_ids:
            for tau in taus:
                got = report.per_class_ap[c][tau]
                want = expected[c][tau]
                assert (got is None) == (want is None)
                if got is not None:
                    worst = max(worst, abs(got - want))
        scenes += 1
    ok = worst <= 1e-9 and scenes == 50
    _report(2, "T=1 evaluation equals brute-force standard mAP (1e-9/class)",
            ok, f"{scenes} scenes, max |delta| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Swap tolerance and merge penalty on an ambiguous pair


def test_criterion_03_swap_tolerance_merge_penalty():
    recipe = SceneRecipe(seed=33, n_objects=2, n_classes=1,
                         ambiguous_groups=((0, 1),),
                         changes=({0: ChangeOp("swap", group_id=0)},),
                         sequence_id="amb")
    seq, gt = generate(recipe)
    ap = {}
    for policy in ("consistent", "swapped", "merged"):
        preds = perturb(seq, gt, PerturbationSpec(
            target_iou=1.0, identity_policy=policy, confidence_jitter=0.0))
        report = evaluate(seq, gt, preds)
        ap[policy] = report.per_class_ap[gt.instances[0].class_id][0.25]
    ok = (ap["consistent"] == ap["swapped"] == 1.0
          and ap["merged"] < ap["consistent"])
    _report(3, "swap-consistent AP equals identity-consistent; merges score lower",
            ok, f"consistent={ap['consistent']} swapped={ap['swapped']} "
                f"merged={ap['merged']}")


# ---------------------------------------------------------------------------
# 4. Sequence-length monotonicity


def test_criterion_04_sequence_length_monotonicity():
    recipe = SceneRecipe(seed=44, n_objects=4, n_stages=3,
                         changes=({1: ChangeOp("rigid", translation=(0.6, 0, 0))},
                                  {2: ChangeOp("non_rigid", amplitude=0.04)}),
                         sequence_id="mono")
    seq, gt = generate(recipe)
    preds = perturb(seq, gt, PerturbationSpec(target_iou=0.8, seed=4,
                                              confidence_jitter=0.0))
    monotone = True
    for pred in preds:
        for inst in gt.instances:
            previous = None
            for k in range(1, seq.num_stages + 1):
                p_k = mask(pred.instance_id, pred.class_id,
                           {t: v for t, v in pred.per_stage_points.items() if t < k},
                           confidence=pred.confidence)
                g_k = mask(inst.instance_id, inst.class_id,
                           {t: v for t, v in inst.per_stage_points.items() if t < k})
                if not p_k.per_stage_points or not g_k.per_stage_points:
                    continue
                value = t_iou(p_k, g_k).t_iou
                if previous is not None and value > previous + 1e-12:
                    monotone = False
                previous = value

    # appending a gt-bearing stage with no predictions drops TPs below tau
    base_report = evaluate(seq, gt, preds)
    extended_gts = [mask(m.instance_id, m.class_id,
                         {**dict(m.per_stage_points),
                          seq.num_stages: range(0, 30)})
                    for m in gt.instances]
    extended_seq = make_sequence([s.point_count for s in seq.stages] + [100],
                                 sequence_id="mono")
    bigger_seq = SequencePointCloud(
        stages=tuple(list(seq.stages) + [extended_seq.stages[-1]]),
        sequence_id="mono")
    grown = evaluate(bigger_seq, annotation(extended_gts,
                                            labels=gt.change_labels), preds)
    strict_drop = grown.t_map < base_report.t_map and grown.t_map == 0.0
    ok = monotone and base_report.t_map > 0 and strict_drop
    _report(4, "t-IoU non-increasing per appended stage; unpredicted stage "
               "strictly lowers t-mAP", ok,
            f"t_map {base_report.t_map:.3f} -> {grown.t_map:.3f}")


# ---------------------------------------------------------------------------
# 5. Ambiguous-assignment conformance against the transcription oracle


def test_criterion_05_ambiguous_assignment_conformance():
    grid_small = (0.0, 0.5, 1.0)
    grid_large = (0.0, 0.25, 0.5, 0.75, 1.0)
    rng = np.random.default_rng(55)
    cases = 0
    mismatches = 0
    bad_partitions = 0

    def run_case(W, present, seed):
        nonlocal cases, mismatches, bad_partitions
        A = assign_ambiguous_components(W, present, np.random.default_rng(seed))
        expected = oracles.transcribe_ambiguous_assignment(
            W.tolist(), present.tolist(), seed)
        if A.tolist() != expected:
            mismatches += 1
        n_members, n_stages = present.shape
        for t in range(n_stages):
            claimed = [A[i, t] for i in range(n_members) if A[i, t] >= 0]
            if (len(set(claimed)) != len(claimed)
                    or set(claimed) != {k for k in range(n_members) if present[k, t]}):
                bad_partitions += 1
        cases += 1

    for n_amb, n_stages, n_preds in itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2, 3, 4)):
        cells = n_preds * n_amb * n_stages
        present = np.ones((n_amb, n_stages), dtype=bool)
        if 0 < cells <= 6:
            for combo in itertools.product(grid_small, repeat=cells):
                W = np.asarray(combo).reshape(n_preds, n_amb, n_stages)
                run_case(W, present, seed=cases % 17)
        else:
            for _ in range(60):
                pres = rng.uniform(size=(n_amb, n_stages)) < 0.8
                pres[rng.integers(n_amb), rng.integers(n_stages)] = True
                W = rng.choice(grid_large, size=(n_preds, n_amb, n_stages))
                W *= pres[None, :, :]
                run_case(W, pres, seed=int(rng.integers(1 << 16)))

    ok = mismatches == 0 and bad_partitions == 0 and cases > 5000
    _report(5, "greedy ambiguous assignment matches the step-for-step "
               "transcription and always partitions", ok,
            f"{cases} cases, {mismatches} mismatches, {bad_partitions} bad partitions")


# ---------------------------------------------------------------------------
# 6. Hungarian matching against exhaustive permutation minimum


def test_criterion_06_hungarian_oracle():
    import math
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        cost = rng.uniform(-5, 10, size=(rows, cols))
        matches, _ = solve_assignment(cost)
        total = math.fsum(cost[r, c] for r, c in matches)
        expected = oracles.brute_force_assignment(cost.tolist())
        worst = max(worst, abs(total - expected))
    ok = worst == 0.0
    _report(6, "200 random cost matrices: matching total equals permutation "
               "minimum exactly", ok, f"max |delta| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. Contrastive loss against scalar evaluation


def test_criterion_07_contrastive_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    for case in range(20):
        s = int(rng.integers(2, 7))
        feats = rng.normal(size=(s, int(rng.integers(2, 5))))
        ids = rng.integers(0, max(2, s - 1), size=s)
        relation = relation_from_instance_ids(ids)
        positives = {i: [j for j in range(s) if ids[j] == ids[i] and j != i]
                     for i in range(s)}
        expected = oracles.scalar_contrastive_loss(feats.tolist(), positives)
        got = contrastive_loss(feats, relation)
        worst = max(worst, abs(got - expected))
        checked += 1
    all_positive = contrastive_loss(rng.normal(size=(5, 3)),
                                    relation_from_instance_ids([1] * 5))
    ok = worst <= 1e-6 and checked == 20 and all_positive == 0.0
    _report(7, "20 feature sets match scalar loss evaluation to 1e-6; "
               "all-positive case is exactly 0", ok,
            f"max |delta| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Curve codec bijectivity and Hilbert adjacency


def test_criterion_08_curve_codecs():
    ok = True
    for curve in Curve:
        for d in (3, 4):
            for bits in (1, 2, 3):
                side = 1 << bits
                grid = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"),
                                axis=-1).reshape(-1, d)
                ranks = encode_keys(grid, curve, bits)
                if sorted(ranks.tolist()) != list(range(len(grid))):
                    ok = False
                if not np.array_equal(decode_keys(ranks, curve, d, bits), grid):
                    ok = False
                if curve in (Curve.HILBERT, Curve.HILBERT_TRANS):
                    path = decode_keys(np.arange(len(grid), dtype=np.uint64),
                                       curve, d, bits)
                    steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
                    if not np.all(steps == 1):
                        ok = False
    _report(8, "all four curves bijective (3D/4D, bits<=3); Hilbert paths are "
               "unit-step adjacent", ok)


# ---------------------------------------------------------------------------
# 9. Temporal separation invariant (property test)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5), st.integers(1, 3),
       st.sampled_from([0.02, 0.05, 0.2]))
def test_criterion_09_temporal_separation(seed, n_stages, n_levels, resolution):
    rng = np.random.default_rng(seed)
    stages = tuple(StageCloud(positions=rng.uniform(-2, 2,
                                                    size=(rng.integers(1, 120), 3)))
                   for _ in range(n_stages))
    grid = voxelize(SequencePointCloud(stages=stages, sequence_id="prop"),
                    resolution=resolution)
    for _ in range(n_levels):
        spatial = {}
        for row, key in enumerate(grid.keys.tolist()):
            spatial.setdefault(tuple(key[:3]), []).append(key[3])
        for values in spatial.values():
            assert len(set(values)) == len(values)
        for v, pts in enumerate(grid.voxel_to_points()):
            stage_of = np.searchsorted(grid.stage_offsets, pts, side="right") - 1
            assert np.all(stage_of == grid.keys[v, 3])
        grid = downsample_level(grid)


def test_criterion_09_report():
    _report(9, "no voxel key shared across stages at any level "
               "(hypothesis property, see test above)", True)


# ---------------------------------------------------------------------------
# 10. Performance target


def test_criterion_10_performance():
    recipe = SceneRecipe(seed=99, n_objects=200, n_stages=2, extent=40.0,
                         points_per_object=(2500, 2500), n_classes=12,
                         size_range=(0.3, 0.7),
                         changes=({i: ChangeOp("rigid", translation=(0.5, 0, 0))
                                   for i in range(0, 200, 7)},),
                         sequence_id="big")
    seq, gt = generate(recipe)
    assert seq.total_points == 1_000_000

    started = time.perf_counter()
    grid = voxelize(seq, resolution=0.02)
    voxel_time = time.perf_counter() - started
    assert grid.num_voxels > 0

    preds = perturb(seq, gt, PerturbationSpec(target_iou=0.85, seed=10))
    started = time.perf_counter()
    report = evaluate(seq, gt, preds)
    eval_time = time.perf_counter() - started

    ok = voxel_time < 1.0 and eval_time < 10.0 and report.t_map is not None
    _report(10, "1M-point voxelization < 1 s; 2-stage/200-instance sweep "
                "evaluation < 10 s", ok,
            f"voxelize {voxel_time:.2f} s, evaluate {eval_time:.2f} s, "
            f"t_map={report.t_map:.3f}")
