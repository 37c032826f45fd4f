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
import operator
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .model import (AmbiguousGroup, ChangeType, GroundTruthAnnotation,
                    InstanceMask, SequencePointCloud, StageCloud)


class SceneGenerationError(RuntimeError):
    """The recipe could not be realized (e.g. placement retry budget exceeded)."""


class PerturbationError(RuntimeError):
    """A requested mask quality target is unreachable."""


def _as_int(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


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
        translation = tuple(float(v) for v in self.translation)
        if len(translation) != 3:
            raise ValueError(f"translation must hold 3 numbers, not {len(translation)}")
        object.__setattr__(self, "translation", translation)
        for name in ("yaw_deg", "amplitude", "wavelength"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.group_id is not None:
            object.__setattr__(self, "group_id", _as_int(self.group_id, "group_id"))

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChangeOp":
        return cls(**data)


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

        for name in ("seed", "n_objects", "n_stages", "n_classes", "background_points",
                     "segments_per_object", "max_placement_retries"):
            put(name, _as_int(getattr(self, name), name))
        put("extent", float(self.extent))
        put("placement_margin", float(self.placement_margin))
        put("primitives", tuple(self.primitives))
        put("size_range", tuple(float(v) for v in self.size_range))
        put("points_per_object", tuple(_as_int(v, "points_per_object")
                                       for v in self.points_per_object))
        if len(self.size_range) != 2 or len(self.points_per_object) != 2:
            raise ValueError("size_range and points_per_object must be (low, high) pairs")
        put("ambiguous_groups", tuple(tuple(sorted(_as_int(m, "ambiguous group member")
                                                   for m in g))
                                      for g in self.ambiguous_groups))
        put("changes", tuple({int(k): (v if isinstance(v, ChangeOp) else ChangeOp.from_dict(v))
                              for k, v in dict(step).items()} for step in self.changes))
        if self.n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if len(self.changes) not in (0, self.n_stages - 1):
            raise ValueError("changes must list one mapping per stage transition")

    @classmethod
    def from_dict(cls, data: Mapping) -> "SceneRecipe":
        kwargs = dict(data)
        kwargs.pop("perturbation", None)
        return cls(**kwargs)


@dataclass
class _ObjectState:
    instance_id: int
    class_id: int
    primitive: str
    sizes: np.ndarray
    center: np.ndarray
    local_points: np.ndarray


def _sample_local_points(rng: np.random.Generator, primitive: str,
                         sizes: np.ndarray, count: int) -> np.ndarray:
    if primitive == "box":
        return rng.uniform(-0.5, 0.5, size=(count, 3)) * sizes
    if primitive == "sphere":
        direction = rng.normal(size=(count, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = (sizes[0] / 2) * np.cbrt(rng.uniform(size=(count, 1)))
        return direction * radius
    raise ValueError(f"unknown primitive {primitive!r}")


def _place_centers(rng: np.random.Generator, recipe: SceneRecipe,
                   max_size: np.ndarray) -> np.ndarray:
    half = recipe.extent / 2
    centers = np.zeros((recipe.n_objects, 3))
    radii = max_size / 2 + recipe.placement_margin
    for i in range(recipe.n_objects):
        for _ in range(recipe.max_placement_retries):
            cand = rng.uniform(-half, half, size=3)
            cand[2] = abs(cand[2]) / 2  # keep objects near the floor plane
            if i == 0 or np.all(np.linalg.norm(centers[:i] - cand, axis=1)
                                > radii[:i] + radii[i]):
                centers[i] = cand
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


def generate(recipe: SceneRecipe) -> tuple[SequencePointCloud, GroundTruthAnnotation]:
    """Build a sequence and its ground truth from a recipe, deterministically."""
    rng = np.random.default_rng(recipe.seed)
    group_of = {}
    for gi, members in enumerate(recipe.ambiguous_groups):
        for m in members:
            if m >= recipe.n_objects:
                raise SceneGenerationError(f"ambiguous group member {m} out of range")
            group_of[m] = gi

    # shared shape per ambiguous group so swaps are between equal objects
    sizes = np.zeros((recipe.n_objects, 3))
    prims: list[str] = [""] * recipe.n_objects
    counts = np.zeros(recipe.n_objects, dtype=np.int64)
    classes = np.zeros(recipe.n_objects, dtype=np.int64)
    group_shape: dict[int, tuple] = {}
    for i in range(recipe.n_objects):
        gi = group_of.get(i)
        if gi is not None and gi in group_shape:
            prims[i], size, count, cls = group_shape[gi]
            sizes[i] = size
            counts[i] = count
            classes[i] = cls
            continue
        prims[i] = recipe.primitives[int(rng.integers(len(recipe.primitives)))]
        size = rng.uniform(*recipe.size_range, size=3)
        if prims[i] == "sphere":
            size[:] = size[0]
        sizes[i] = size
        counts[i] = int(rng.integers(recipe.points_per_object[0],
                                     recipe.points_per_object[1] + 1))
        classes[i] = int(rng.integers(recipe.n_classes))
        if gi is not None:
            group_shape[gi] = (prims[i], sizes[i].copy(), counts[i], classes[i])

    centers = _place_centers(rng, recipe, sizes.max(axis=1))
    objects = [
        _ObjectState(instance_id=i, class_id=int(classes[i]), primitive=prims[i],
                     sizes=sizes[i], center=centers[i].copy(),
                     local_points=_sample_local_points(rng, prims[i], sizes[i],
                                                       int(counts[i])))
        for i in range(recipe.n_objects)
    ]
    background = (rng.uniform(-recipe.extent / 2, recipe.extent / 2,
                              size=(recipe.background_points, 3))
                  if recipe.background_points else None)

    changes = recipe.changes or tuple({} for _ in range(recipe.n_stages - 1))
    present = np.ones(recipe.n_objects, dtype=bool)
    for step in changes:
        for i, op in step.items():
            if op.kind == "add":
                present[i] = False  # appears only after its add transition

    positions = {i: objects[i].center + objects[i].local_points
                 for i in range(recipe.n_objects)}
    colors = rng.uniform(0.1, 1.0, size=(recipe.n_objects, 3))
    kinds_seen: dict[int, set] = {i: set() for i in range(recipe.n_objects)}

    stages: list[StageCloud] = []
    per_stage_masks: list[dict[int, np.ndarray]] = []

    def _emit_stage():
        blocks, color_blocks, seg_blocks = [], [], []
        masks: dict[int, np.ndarray] = {}
        offset = 0
        seg_base = 0
        for i in range(recipe.n_objects):
            n_segs = max(1, recipe.segments_per_object)
            if present[i]:
                pts = positions[i]
                blocks.append(pts)
                color_blocks.append(np.tile(colors[i], (len(pts), 1)))
                seg_blocks.append(seg_base + (np.arange(len(pts)) % n_segs))
                masks[i] = np.arange(offset, offset + len(pts))
                offset += len(pts)
            seg_base += n_segs
        if background is not None:
            blocks.append(background)
            color_blocks.append(np.full((len(background), 3), 0.5))
            seg_blocks.append(np.full(len(background), seg_base))
        if not blocks:
            raise SceneGenerationError("a stage ended up with no points")
        stages.append(StageCloud(positions=np.concatenate(blocks),
                                 colors=np.concatenate(color_blocks),
                                 segment_ids=np.concatenate(seg_blocks)))
        per_stage_masks.append(masks)

    _emit_stage()
    for step in changes:
        swapped_groups = set()
        for i in sorted(step):
            op = step[i]
            kinds_seen[i].add(op.kind)
            if op.kind == "static":
                continue
            if op.kind == "add":
                present[i] = True
            elif op.kind == "remove":
                present[i] = False
            elif op.kind == "rigid":
                pts = positions[i]
                centroid = pts.mean(axis=0)
                rot = _yaw_matrix(op.yaw_deg)
                positions[i] = (pts - centroid) @ rot.T + centroid + np.asarray(op.translation)
            elif op.kind == "non_rigid":
                pts = positions[i]
                positions[i] = pts + op.amplitude * np.sin(2 * np.pi * pts / op.wavelength)
            elif op.kind == "swap":
                if op.group_id is None or op.group_id >= len(recipe.ambiguous_groups):
                    raise SceneGenerationError(f"swap references unknown group {op.group_id}")
                if op.group_id in swapped_groups:
                    continue
                swapped_groups.add(op.group_id)
                members = recipe.ambiguous_groups[op.group_id]
                if i not in members:
                    raise SceneGenerationError(
                        f"instance {i} swaps under group {op.group_id} it is not part of")
                centroids = [positions[m].mean(axis=0) for m in members]
                for idx, m in enumerate(members):
                    target = centroids[(idx + 1) % len(members)]
                    positions[m] = positions[m] + (target - centroids[idx])
        _emit_stage()

    instances = []
    change_labels: dict[int, ChangeType] = {}
    for i in range(recipe.n_objects):
        per_stage = {t: masks[i] for t, masks in enumerate(per_stage_masks) if i in masks}
        if not per_stage:
            raise SceneGenerationError(f"instance {i} is present at no stage")
        instances.append(InstanceMask(instance_id=i, class_id=int(classes[i]),
                                      per_stage_points=per_stage, confidence=1.0))
        seen = kinds_seen[i]
        if "add" in seen or "remove" in seen:
            change_labels[i] = ChangeType.ADDED_REMOVED
        elif "non_rigid" in seen:
            change_labels[i] = ChangeType.NON_RIGID
        elif "rigid" in seen:
            change_labels[i] = ChangeType.RIGID
        elif i in group_of:
            change_labels[i] = ChangeType.AMBIGUOUS
        else:
            change_labels[i] = ChangeType.STATIC

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
    JSON object's key) is read as that instance id. Targets are hit within
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
                int(k) if isinstance(k, str) else k: float(v)
                for k, v in self.target_iou.items()})
        else:
            object.__setattr__(self, "target_iou", float(self.target_iou))
        for name in ("confidence_base", "confidence_jitter", "iou_tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))

    def target_for(self, instance_id: int, stage: int) -> float:
        if isinstance(self.target_iou, Mapping):
            return self.target_iou.get((instance_id, stage),
                                       self.target_iou.get(instance_id, 1.0))
        return self.target_iou


def _perturb_component(points: np.ndarray, target: float, tolerance: float,
                       outside_pool: list[np.ndarray],
                       rng: np.random.Generator) -> np.ndarray:
    """Erode/extend one per-stage component to hit a target IoU."""
    n = points.size
    if not (0.0 < target <= 1.0):
        raise PerturbationError(f"target IoU {target} outside (0, 1]")
    if target == 1.0:
        return points
    pool = outside_pool[0]
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
        added = pool[pick]
        outside_pool[0] = np.delete(pool, pick)
        kept = np.sort(np.concatenate([kept, added]))
    return kept


def perturb(seq: SequencePointCloud, gt: GroundTruthAnnotation,
            spec: PerturbationSpec) -> list[InstanceMask]:
    """Derive predictions of controlled quality from ground truth."""
    rng = np.random.default_rng(spec.seed)
    # per-stage pool of points covered by no ground-truth mask
    pools = []
    for t, stage in enumerate(seq.stages):
        covered = np.zeros(stage.point_count, dtype=bool)
        for inst in gt.instances:
            pts = inst.per_stage_points.get(t)
            if pts is not None:
                covered[pts] = True
        pools.append([np.nonzero(~covered)[0]])

    components: dict[int, dict[int, np.ndarray]] = {}
    for inst in sorted(gt.instances, key=lambda m: m.instance_id):
        comp = {}
        for t in sorted(inst.per_stage_points):
            comp[t] = _perturb_component(
                inst.per_stage_points[t], spec.target_for(inst.instance_id, t),
                spec.iou_tolerance, pools[t], rng)
        components[inst.instance_id] = comp

    def confidence() -> float:
        return float(np.clip(
            spec.confidence_base
            + rng.uniform(-spec.confidence_jitter, spec.confidence_jitter),
            0.0, 1.0))

    by_class: dict[int, list[InstanceMask]] = {}
    for inst in sorted(gt.instances, key=lambda m: m.instance_id):
        by_class.setdefault(inst.class_id, []).append(inst)

    preds: list[InstanceMask] = []
    next_id = 0

    def _emit(class_id: int, per_stage: Mapping[int, np.ndarray]):
        nonlocal next_id
        preds.append(InstanceMask(instance_id=next_id, class_id=class_id,
                                  per_stage_points=per_stage,
                                  confidence=confidence()))
        next_id += 1

    policy = spec.identity_policy
    for class_id in sorted(by_class):
        insts = by_class[class_id]
        if policy == IdentityPolicy.CONSISTENT:
            for inst in insts:
                _emit(class_id, components[inst.instance_id])
        elif policy == IdentityPolicy.SWAPPED:
            for a, b in zip(insts[0::2], insts[1::2]):
                ca, cb = components[a.instance_id], components[b.instance_id]
                _emit(class_id, {t: (ca if t % 2 == 0 else cb).get(t)
                                 for t in sorted(set(ca) | set(cb))
                                 if (ca if t % 2 == 0 else cb).get(t) is not None})
                _emit(class_id, {t: (cb if t % 2 == 0 else ca).get(t)
                                 for t in sorted(set(ca) | set(cb))
                                 if (cb if t % 2 == 0 else ca).get(t) is not None})
            if len(insts) % 2:
                _emit(class_id, components[insts[-1].instance_id])
        elif policy == IdentityPolicy.MERGED:
            for a, b in zip(insts[0::2], insts[1::2]):
                ca, cb = components[a.instance_id], components[b.instance_id]
                union = {t: np.union1d(ca.get(t, _EMPTY), cb.get(t, _EMPTY))
                         for t in sorted(set(ca) | set(cb))}
                _emit(class_id, union)
            if len(insts) % 2:
                _emit(class_id, components[insts[-1].instance_id])
        elif policy == IdentityPolicy.FRAGMENTED:
            for inst in insts:
                comp = components[inst.instance_id]
                first = {t: pts[:max(1, pts.size // 2)] for t, pts in comp.items()}
                second = {t: pts[max(1, pts.size // 2):] for t, pts in comp.items()
                          if pts.size > 1}
                _emit(class_id, first)
                if second:
                    _emit(class_id, second)
    return preds


_EMPTY = np.empty(0, dtype=np.int64)
