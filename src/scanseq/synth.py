"""Synthetic 4D scenes with ground truth spanning every change type.

The generator places primitive objects (boxes, spheres) without overlap,
samples a fixed point set per object, and walks a per-transition change plan:
static, rigid SE(3) moves, smooth sinusoidal non-rigid warps, position swaps
within declared ambiguous groups, and additions/removals. Everything is a
pure function of the recipe seed, so two runs emit byte-identical scenes.

:func:`perturb` turns ground truth into predictions of controlled quality:
per-stage IoU is driven to a target (within a stated tolerance) by eroding
mask points and optionally adding background points, and the identity policy
rewires components across stages (consistent / swapped / merged / fragmented).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress, product
from typing import Mapping, Optional, Union

import numpy as np

from .model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation,
                    InstanceMask, SequencePointCloud, StageCloud, _EMPTY_INDEX,
                    _hand_over, _int_key, _number, _paint, _seed)


class SceneGenerationError(RuntimeError):
    """The recipe could not be realized (e.g. placement retry budget exceeded)."""


class PerturbationError(RuntimeError):
    """A requested mask quality target is unreachable."""


class IdentityPolicy(str, enum.Enum):
    CONSISTENT = "consistent"
    SWAPPED = "swapped"
    MERGED = "merged"
    FRAGMENTED = "fragmented"


@dataclass(frozen=True)
class ChangeOp:
    """One instance's change at one stage transition."""

    kind: str  # static | rigid | non_rigid | swap | add | remove
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw_deg: float = 0.0
    amplitude: float = 0.0
    wavelength: float = 1.0
    group_id: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("static", "rigid", "non_rigid", "swap", "add", "remove"):
            raise ValueError(f"unknown change kind {self.kind!r}")
        translation = tuple(_number(v, "translation") for v in self.translation)
        if len(translation) != 3:
            raise ValueError(f"translation must hold 3 numbers, not {len(translation)}")
        object.__setattr__(self, "translation", translation)
        for name in ("yaw_deg", "amplitude", "wavelength"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if self.group_id is not None:
            object.__setattr__(self, "group_id", _number(self.group_id, "group_id", int))


@dataclass(frozen=True)
class SceneRecipe:
    """Deterministic description of a synthetic scene.

    ``changes`` holds one mapping per stage transition (length
    ``n_stages - 1``), instance id -> :class:`ChangeOp`; unmentioned instances
    stay static. ``ambiguous_groups`` lists member-id tuples; members are
    generated with identical shape, size, and point count so swaps are valid.
    """

    seed: int = 0
    n_objects: int = 4
    n_stages: int = 2
    primitives: tuple[str, ...] = ("box", "sphere")
    size_range: tuple[float, float] = (0.3, 0.8)
    points_per_object: tuple[int, int] = (80, 200)
    extent: float = 8.0
    n_classes: int = 4
    background_points: int = 0
    segments_per_object: int = 1
    placement_margin: float = 0.05
    max_placement_retries: int = 1000
    ambiguous_groups: tuple[tuple[int, ...], ...] = ()
    changes: tuple[Mapping[int, ChangeOp], ...] = ()
    sequence_id: str = "synth-0"

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("seed", _seed(self.seed, "seed"))
        for name in ("n_objects", "n_stages", "n_classes", "background_points",
                     "segments_per_object", "max_placement_retries"):
            put(name, _number(getattr(self, name), name, int))
        for name in ("extent", "placement_margin"):
            put(name, _number(getattr(self, name), name))
        if isinstance(self.primitives, str) or not self.primitives or not all(
                p in ("box", "sphere") for p in self.primitives):
            raise ValueError(f"primitives must be a non-empty list of names from "
                             f"box, sphere, not {self.primitives!r}")
        put("primitives", tuple(self.primitives))
        put("size_range", tuple(_number(v, "size_range") for v in self.size_range))
        put("points_per_object", tuple(_number(v, "points_per_object", int)
                                       for v in self.points_per_object))
        if len(self.size_range) != 2 or len(self.points_per_object) != 2:
            raise ValueError("size_range and points_per_object must be (low, high) pairs")
        if not 1 <= self.points_per_object[0] <= self.points_per_object[1]:
            raise ValueError(f"points_per_object must hold 1 <= low <= high, "
                             f"not {list(self.points_per_object)}")
        put("ambiguous_groups", tuple(tuple(sorted(_number(m, "ambiguous group member", int)
                                                   for m in g))
                                      for g in self.ambiguous_groups))
        put("changes", tuple({_int_key(k): (v if isinstance(v, ChangeOp) else ChangeOp(**v))
                              for k, v in dict(step).items()} for step in self.changes))
        for name, low in (("n_objects", 0), ("n_stages", 1), ("n_classes", 1),
                          ("background_points", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.extent <= 0:
            raise ValueError("extent must be > 0")
        if len(self.changes) not in (0, self.n_stages - 1):
            raise ValueError("changes must list one mapping per stage transition")
        if not isinstance(self.sequence_id, str):
            raise TypeError(f"sequence_id must be a string, not {self.sequence_id!r}")


def _sample_local_points(rng: np.random.Generator, primitive: str,
                         sizes: np.ndarray, count: int) -> np.ndarray:
    if primitive == "box":
        return rng.uniform(-0.5, 0.5, size=(count, 3)) * sizes
    direction = rng.normal(size=(count, 3))  # a sphere
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = (sizes[0] / 2) * np.cbrt(rng.uniform(size=(count, 1)))
    return direction * radius


_NEIGHBOURS = tuple(product((-1, 0, 1), repeat=3))


def _place_centers(rng: np.random.Generator, recipe: SceneRecipe,
                   max_size: np.ndarray) -> np.ndarray:
    """Draw each object's center until it clears every placed center by more
    than the sum of their radii. A draw is tested only against the centers in
    its own and the 26 neighbouring cells of a uniform grid whose cell is
    twice the largest radius, since centers farther apart always clear each
    other; the draws are those of a test against every placed center."""
    half = recipe.extent / 2
    centers = np.zeros((recipe.n_objects, 3))
    radii = max_size / 2 + recipe.placement_margin
    # the 1e-9 keeps rounding in a cell index from hiding a conflict; the floor
    # bounds the cells per axis when every radius is tiny or negative
    cell = max(2 * radii.max(initial=0.0) * (1 + 1e-9), recipe.extent * 1e-6)
    placed: dict[tuple[int, int, int], list[int]] = {}
    for i in range(recipe.n_objects):
        for _ in range(recipe.max_placement_retries):
            cand = rng.uniform(-half, half, size=3)
            cand[2] = abs(cand[2]) / 2  # keep objects near the floor plane
            x, y, z = np.floor(cand / cell).astype(int).tolist()
            near = [j for dx, dy, dz in _NEIGHBOURS
                    for j in placed.get((x + dx, y + dy, z + dz), ())]
            if not near or np.all(np.linalg.norm(centers[near] - cand, axis=1)
                                  > radii[near] + radii[i]):
                centers[i] = cand
                placed.setdefault((x, y, z), []).append(i)
                break
        else:
            raise SceneGenerationError(
                f"could not place object {i} within "
                f"{recipe.max_placement_retries} retries")
    return centers


def _yaw_matrix(yaw_deg: float) -> np.ndarray:
    a = np.deg2rad(yaw_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


_MAX_SCENE_POINTS = 10 ** 7  # about 1.1 GB at peak while a scene is built


def generate(recipe: SceneRecipe) -> tuple[SequencePointCloud, GroundTruthAnnotation]:
    """Build a sequence and its ground truth from a recipe, deterministically;
    one that could realize over 10**7 points is refused before any allocation."""
    n = recipe.n_objects
    stage_points = n * recipe.points_per_object[1] + recipe.background_points
    if recipe.n_stages * max(1, stage_points) > _MAX_SCENE_POINTS:
        raise SceneGenerationError(
            f"scene too large to realize: {recipe.n_stages} stages of up to "
            f"{stage_points} points exceed {_MAX_SCENE_POINTS} points")
    rng = np.random.default_rng(recipe.seed)
    group_of = {}
    for gi, members in enumerate(recipe.ambiguous_groups):
        for m in members:
            if not 0 <= m < n:
                raise SceneGenerationError(f"ambiguous group member {m} out of range")
            group_of[m] = gi

    # per object: sizes, then (primitive, point count, class); a member of an
    # ambiguous group copies its group's first member, so swaps are between
    # equal objects
    sizes = np.zeros((n, 3))
    shapes, first_member = [], {}
    for i in range(n):
        first = first_member.setdefault(group_of[i], i) if i in group_of else i
        if first < i:
            sizes[i] = sizes[first]
            shapes.append(shapes[first])
            continue
        prim = recipe.primitives[int(rng.integers(len(recipe.primitives)))]
        size = rng.uniform(*recipe.size_range, size=3)
        sizes[i] = size[0] if prim == "sphere" else size
        shapes.append((prim, int(rng.integers(recipe.points_per_object[0],
                                              recipe.points_per_object[1] + 1)),
                       int(rng.integers(recipe.n_classes))))
    prims, counts, classes = zip(*shapes) if shapes else ((),) * 3
    counts = np.array(counts, dtype=np.int64)

    centers = _place_centers(rng, recipe, sizes.max(axis=1))
    positions = [center + _sample_local_points(rng, prim, size, count)
                 for center, prim, size, count in zip(centers, prims, sizes, counts)]
    background = rng.uniform(-recipe.extent / 2, recipe.extent / 2,
                             size=(recipe.background_points, 3))
    colors = rng.uniform(0.1, 1.0, size=(n, 3))

    changes = recipe.changes or ({},) * (recipe.n_stages - 1)
    kinds = [set() for _ in range(n)]
    for step in changes:
        for i, op in step.items():
            if not 0 <= i < n:
                raise SceneGenerationError(f"change for unknown instance {i}")
            kinds[i].add(op.kind)
    present = np.array(["add" not in seen for seen in kinds], dtype=bool)

    n_segs = max(1, recipe.segments_per_object)
    stages: list[StageCloud] = []
    stage_masks: list[dict[int, np.ndarray]] = []

    def emit_stage():
        # the present objects' points in instance order, then the background
        stage_counts = counts * present
        starts = np.cumsum(stage_counts) - stage_counts
        within = np.arange(stage_counts.sum()) - np.repeat(starts, stage_counts)
        points = np.concatenate([*compress(positions, present), background])
        if not len(points):
            raise SceneGenerationError("a stage ended up with no points")
        stages.append(StageCloud(
            positions=_hand_over(points),
            colors=_hand_over(np.repeat(np.vstack([colors, (0.5, 0.5, 0.5)]),
                                        np.append(stage_counts, len(background)), axis=0)),
            segment_ids=_hand_over(np.concatenate([
                np.repeat(np.arange(n) * n_segs, stage_counts) + within % n_segs,
                np.full(len(background), n * n_segs)]))))
        index = _hand_over(np.arange(within.size))
        stage_masks.append(dict(zip(np.flatnonzero(present).tolist(),
                                    np.split(index, starts[present][1:]))))

    emit_stage()
    for step in changes:
        swapped_groups = set()
        for i in sorted(step):
            op = step[i]
            if op.kind in ("add", "remove"):
                present[i] = op.kind == "add"
            elif op.kind == "rigid":
                pts = positions[i]
                centroid = pts.mean(axis=0)
                rot = _yaw_matrix(op.yaw_deg)
                positions[i] = (pts - centroid) @ rot.T + centroid + np.asarray(op.translation)
            elif op.kind == "non_rigid":
                pts = positions[i]
                positions[i] = pts + op.amplitude * np.sin(2 * np.pi * pts / op.wavelength)
            elif op.kind == "swap":  # every op of a group is checked, the first one acts
                if op.group_id is None or not 0 <= op.group_id < len(recipe.ambiguous_groups):
                    raise SceneGenerationError(f"swap references unknown group {op.group_id}")
                members = recipe.ambiguous_groups[op.group_id]
                if i not in members:
                    raise SceneGenerationError(
                        f"instance {i} swaps under group {op.group_id} it is not part of")
                if op.group_id in swapped_groups:
                    continue
                swapped_groups.add(op.group_id)
                centroids = [positions[m].mean(axis=0) for m in members]
                for idx, m in enumerate(members):
                    target = centroids[(idx + 1) % len(members)]
                    positions[m] = positions[m] + (target - centroids[idx])
        emit_stage()

    instances = []
    change_labels: dict[int, ChangeType] = {}
    for i, seen in enumerate(kinds):
        per_stage = {t: masks[i] for t, masks in enumerate(stage_masks) if i in masks}
        instances.append(InstanceMask(instance_id=i, class_id=classes[i],
                                      per_stage_points=per_stage, confidence=1.0))
        change_labels[i] = (ChangeType.ADDED_REMOVED if seen & {"add", "remove"}
                            else ChangeType.NON_RIGID if "non_rigid" in seen
                            else ChangeType.RIGID if "rigid" in seen
                            else ChangeType.AMBIGUOUS if i in group_of
                            else ChangeType.STATIC)

    groups = tuple(AmbiguousGroup(group_id=gi, member_instance_ids=members)
                   for gi, members in enumerate(recipe.ambiguous_groups))
    seq = SequencePointCloud(stages=tuple(stages), sequence_id=recipe.sequence_id)
    gt = GroundTruthAnnotation(instances=tuple(instances), ambiguous_groups=groups,
                               change_labels=change_labels)
    return seq, gt


@dataclass(frozen=True)
class PerturbationSpec:
    """Controlled degradation of ground truth into predictions.

    ``target_iou`` may be a scalar, a mapping instance id -> target, or a
    mapping (instance id, stage) -> target; a string key such as ``"3"`` (a
    JSON object's key, spelled as ``str`` spells the id) is read as that
    instance id. Targets are hit within
    ``iou_tolerance`` by random erosion plus (when background points exist)
    random addition. The identity policy rewires per-stage components:
    ``swapped`` exchanges components between same-class pairs at odd stages,
    ``merged`` unions same-class pairs into one prediction, ``fragmented``
    splits every instance into two.
    """

    target_iou: Union[float, Mapping] = 1.0
    identity_policy: IdentityPolicy = IdentityPolicy.CONSISTENT
    confidence_base: float = 0.9
    confidence_jitter: float = 0.05
    seed: int = 0
    iou_tolerance: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "identity_policy", IdentityPolicy(self.identity_policy))
        if isinstance(self.target_iou, Mapping):
            object.__setattr__(self, "target_iou", {
                k if isinstance(k, tuple) else _int_key(k): _number(v, "target_iou")
                for k, v in self.target_iou.items()})
        else:
            object.__setattr__(self, "target_iou", _number(self.target_iou, "target_iou"))
        for name in ("confidence_base", "confidence_jitter", "iou_tolerance"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        object.__setattr__(self, "seed", _seed(self.seed, "seed"))

    def target_for(self, instance_id: int, stage: int) -> float:
        if isinstance(self.target_iou, Mapping):
            return self.target_iou.get((instance_id, stage),
                                       self.target_iou.get(instance_id, 1.0))
        return self.target_iou


def _perturb_component(points: np.ndarray, target: float, tolerance: float,
                       pool: np.ndarray, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Erode/extend one per-stage component to hit a target IoU, adding points
    drawn from ``pool``; returns the component and what is left of the pool."""
    n = points.size
    if not (0.0 < target <= 1.0):
        raise PerturbationError(f"target IoU {target} outside (0, 1]")
    if target == 1.0:
        return points, pool
    max_extra = min(pool.size, int(n * (1 - target) / target), n // 4)
    extra = int(rng.integers(0, max_extra + 1)) if max_extra > 0 else 0
    keep = int(round(target * (n + extra)))
    keep = min(keep, n)
    if keep < 1:
        raise PerturbationError("mask too small to erode toward the target")
    achieved = keep / (n + extra)
    if abs(achieved - target) > tolerance:
        raise PerturbationError(
            f"target IoU {target} unreachable within {tolerance} "
            f"for a {n}-point mask")
    kept = np.sort(rng.choice(points, size=keep, replace=False))
    if extra:
        pick = rng.choice(pool.size, size=extra, replace=False)
        kept = np.sort(np.concatenate([kept, pool[pick]]))
        pool = np.delete(pool, pick)
    return _hand_over(kept), pool


def perturb(seq: SequencePointCloud, gt: GroundTruthAnnotation,
            spec: PerturbationSpec) -> list[InstanceMask]:
    """Derive predictions of controlled quality from ground truth."""
    rng = np.random.default_rng(spec.seed)
    # per-stage pool of points covered by no ground-truth mask
    pools = [np.flatnonzero(_paint([inst.points_at(t) for inst in gt.instances],
                                   range(len(gt.instances)), stage.point_count) == 0)
             for t, stage in enumerate(seq.stages)]

    by_class: dict[int, list[dict[int, np.ndarray]]] = {}
    for inst in sorted(gt.instances, key=lambda m: m.instance_id):
        comp = {}
        for t in sorted(inst.per_stage_points):
            comp[t], pools[t] = _perturb_component(
                inst.per_stage_points[t], spec.target_for(inst.instance_id, t),
                spec.iou_tolerance, pools[t], rng)
        by_class.setdefault(inst.class_id, []).append(comp)

    preds: list[InstanceMask] = []

    def emit(class_id: int, per_stage: Mapping[int, np.ndarray]):
        jitter = rng.uniform(-spec.confidence_jitter, spec.confidence_jitter)
        preds.append(InstanceMask(
            instance_id=len(preds), class_id=class_id, per_stage_points=per_stage,
            confidence=float(np.clip(spec.confidence_base + jitter, 0.0, 1.0))))

    policy = spec.identity_policy
    for class_id in sorted(by_class):
        comps = by_class[class_id]
        if policy == IdentityPolicy.CONSISTENT:
            for comp in comps:
                emit(class_id, comp)
        elif policy == IdentityPolicy.FRAGMENTED:
            for comp in comps:
                first = {t: pts[:max(1, pts.size // 2)] for t, pts in comp.items()}
                second = {t: pts[max(1, pts.size // 2):] for t, pts in comp.items()
                          if pts.size > 1}
                emit(class_id, first)
                if second:
                    emit(class_id, second)
        else:  # swapped and merged pair a class's instances in id order
            for ca, cb in zip(comps[0::2], comps[1::2]):
                stages = sorted(set(ca) | set(cb))
                if policy == IdentityPolicy.MERGED:
                    emit(class_id, {t: np.union1d(ca.get(t, _EMPTY_INDEX),
                                                  cb.get(t, _EMPTY_INDEX))
                                    for t in stages})
                    continue
                for even, odd in ((ca, cb), (cb, ca)):  # exchanged at odd stages
                    emit(class_id, {t: (even, odd)[t % 2][t] for t in stages
                                    if t in (even, odd)[t % 2]})
            if len(comps) % 2:
                emit(class_id, comps[-1])
    return preds
