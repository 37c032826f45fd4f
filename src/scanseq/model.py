"""Shared data model for temporal scan sequences, instance masks, and annotations.

A *sequence* is an ordered series of 3D scans ("stages") of one scene. Instance
masks span the whole sequence: one identity, with a point-index set per stage it
appears in. Ground truth additionally carries per-instance change labels and
*ambiguous groups* (sets of indistinguishable instances whose identities may
validly permute across stages).

All types are immutable after construction and safe to share across workers.
Construction normalizes inputs and raises on intrinsically broken values;
cross-object consistency (index ranges, group membership, ...) is checked by
:func:`validate_sequence`, which never raises and reports violations instead.
"""

from __future__ import annotations

import enum
import numbers
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np


class ChangeType(enum.Enum):
    """Per-instance annotation of how an object changed across the sequence."""

    STATIC = "static"
    RIGID = "rigid"
    NON_RIGID = "non_rigid"
    AMBIGUOUS = "ambiguous"
    ADDED_REMOVED = "added_removed"


def _frozen(values, dtype=None, name: str = "array", width=None) -> np.ndarray:
    """``values`` as a read-only C-contiguous array that no caller can write,
    cast by :func:`_array` and of shape (N, ``width``) when those are given.

    An array the caller can still write to is copied. A read-only array is
    taken as is: whoever made it handed it over (see :func:`_hand_over`). An
    array that the conversion allocated here is frozen without a copy.
    """
    arr = np.asarray(values) if dtype is None else _array(values, dtype, name)
    if width is not None and (arr.ndim != 2 or arr.shape[1] != width):
        raise ValueError(f"{name} must have shape (N, {width}), got {arr.shape}")
    caller_owned = arr.flags.writeable and (arr is values or not arr.flags.owndata)
    if caller_owned or not arr.flags.c_contiguous:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _hand_over(arr: np.ndarray) -> np.ndarray:
    """Freeze an array its maker keeps no writeable reference to, so that a
    model constructor takes it without a copy."""
    arr.flags.writeable = False
    return arr


def _is(value, kind: type) -> bool:
    """``isinstance``, except that a JSON ``true``/``false`` is no integer."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


_NUMBER_TYPES = {int: numbers.Integral, float: numbers.Real}
_FLOAT_MAX = sys.float_info.max


def _number(value, name: str, kind: type = float):
    """``value`` as a ``kind``: for ``int`` any integral number, for ``float``
    any finite real number. A bool, a string or any other type is a TypeError
    naming the field ``name``; a number no float holds finitely a ValueError."""
    if type(value) is kind and (kind is int or abs(value) <= _FLOAT_MAX):
        return value  # the common case costs two type checks
    if isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES[kind]):
        noun = "an integer" if kind is int else "a number"
        raise TypeError(f"{name} must be {noun}, not {value!r}")
    if kind is int:
        return int(value)
    if not abs(value) <= _FLOAT_MAX:  # also true for NaN
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    return float(value)


_LOSSLESS_KINDS = {np.dtype(np.int64): ("iu", "integers that fit in int64"),
                   np.dtype(np.float64): ("iuf", "numbers"),
                   np.dtype(bool): ("b", "booleans")}


def _holds_bool(values) -> bool:
    """Whether lists or tuples, nested to any depth, hold a bool or np.bool_."""
    level = values
    while level:
        kinds = set(map(type, level))
        if bool in kinds or np.bool_ in kinds:
            return True
        nested = tuple(k for k in kinds if issubclass(k, (list, tuple)))
        level = [item for v in level if type(v) in nested for item in v] if nested else ()
    return False


def _array(values, dtype, name: str) -> np.ndarray:
    """``values`` as an int64, float64 or bool array. Elements the cast would
    change (a float as an integer, a bool as a number, a string or None as
    anything, an integer beyond int64) are a TypeError naming the field ``name``."""
    arr = np.asarray(values)
    if arr.dtype != dtype and arr.size:
        kinds, noun = _LOSSLESS_KINDS[np.dtype(dtype)]
        if arr.dtype.kind not in kinds or not np.can_cast(arr.dtype, dtype):
            raise TypeError(f"{name} must hold {noun}, not {arr.dtype} values")
    # numpy reads a JSON true among numbers as 1 and a false as 0. Only lists
    # and tuples are scanned: an array says what it holds, and an all-bool
    # list made a bool array, refused above unless bools are the target
    if isinstance(values, (list, tuple)) and arr.dtype != bool and _holds_bool(values):
        raise TypeError(f"{name} must hold {_LOSSLESS_KINDS[np.dtype(dtype)][1]}, "
                        "not bool values")
    return arr.astype(dtype, copy=False)


def _int_key(key) -> int:
    """The integer a mapping key names: an integer, or a string spelling one
    as ``str`` does. ``int()`` alone also reads " 1", "1_0" and "00", so two
    spellings of one key in a JSON object would silently replace each other."""
    if type(key) is int:
        return key
    try:
        value = int(key) if isinstance(key, str) else operator.index(key)
        if str(value) == str(key):
            return value
    except (TypeError, ValueError):
        pass
    raise ValueError(f"key {key!r} does not name an integer")


def _paint(point_sets: Sequence[np.ndarray], order: Sequence[int], n: int) -> np.ndarray:
    """Per-point set index + 1 over ``n`` points (0: in no set), the sets painted
    in ``order`` so a later one takes a shared point; the smallest unsigned dtype."""
    labels = np.zeros(n, dtype=np.min_scalar_type(len(point_sets)))
    for i in order:
        labels[point_sets[i]] = i + 1
    return labels


def _points_by_label(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Ascending indices of every label >= 0 in a per-point label array, as
    read-only views of one fresh array (handed over, so masks keep them)."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    heads = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    return {int(ordered[h]): _hand_over(points)
            for h, points in zip(heads, np.split(order, heads[1:])) if ordered[h] >= 0}


@dataclass(frozen=True)
class StageCloud:
    """One 3D scan: point positions in meters, optional colors and superpoints.

    ``colors`` are RGB triples in [0, 1]; ``segment_ids`` are precomputed
    oversegmentation (superpoint) ids, one integer per point. All per-point
    arrays must share the same length. The stored arrays are read-only: a
    writeable array passed in is copied, a read-only one is kept as is.
    """

    positions: np.ndarray
    colors: Optional[np.ndarray] = None
    segment_ids: Optional[np.ndarray] = None

    def __post_init__(self):
        pos = _frozen(self.positions, np.float64, "positions", width=3)
        object.__setattr__(self, "positions", pos)
        if self.colors is not None:
            col = _frozen(self.colors, np.float64, "colors", width=3)
            if len(col) != len(pos):
                raise ValueError("colors length must equal point count")
            object.__setattr__(self, "colors", col)
        if self.segment_ids is not None:
            seg = _frozen(self.segment_ids, np.int64, "segment_ids")
            if seg.shape != (len(pos),):
                raise ValueError("segment_ids length must equal point count")
            object.__setattr__(self, "segment_ids", seg)

    @property
    def point_count(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class SequencePointCloud:
    """A temporal sequence of scans of one scene, stage indices 0..T-1."""

    stages: tuple[StageCloud, ...]
    sequence_id: str = ""

    def __post_init__(self):
        stages = tuple(self.stages)
        for t, stage in enumerate(stages):
            if not isinstance(stage, StageCloud):
                raise TypeError(f"stage {t} is not a StageCloud")
        _check_stage_sizes([stage.point_count for stage in stages])
        object.__setattr__(self, "stages", stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def total_points(self) -> int:
        return sum(s.point_count for s in self.stages)

    def stage_sizes(self) -> tuple[int, ...]:
        return tuple(s.point_count for s in self.stages)


def _check_stage_sizes(sizes: Sequence[int]) -> None:
    """A sequence's rule on its stages: at least one, none without points."""
    if not sizes:
        raise ValueError("a sequence needs at least one stage")
    for t, n in enumerate(sizes):
        if n == 0:
            raise ValueError(f"stage {t} has no points")


@dataclass(frozen=True)
class _StageSizes:
    """All that scoring reads of a :class:`SequencePointCloud`: its stage
    count, stage sizes and id, with no geometry; the sizes obey the same rule."""

    sizes: tuple[int, ...]
    sequence_id: str = ""

    def __post_init__(self):
        _check_stage_sizes(self.sizes)

    @property
    def num_stages(self) -> int:
        return len(self.sizes)

    def stage_sizes(self) -> tuple[int, ...]:
        return self.sizes


def _mask_fields(instance_id, class_id, confidence) -> tuple[int, int, float]:
    """An :class:`InstanceMask`'s rule on its scalar fields, checked in this
    order: the id and class as integers, the confidence as a number in [0, 1]."""
    instance_id = _number(instance_id, "instance_id", int)
    class_id = _number(class_id, "class_id", int)
    confidence = _number(confidence, "confidence")
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence must be in [0, 1], got {confidence}")
    return instance_id, class_id, confidence


@dataclass(frozen=True)
class InstanceMask:
    """One instance identity over the whole sequence.

    ``per_stage_points`` maps stage index -> sorted point indices into that
    stage's cloud; stages the instance is absent from are simply not present in
    the map. Ground-truth masks use ``confidence`` 1.0 so predictions and
    ground truth share one type.

    Each stage's point indices, a flat list of integers, are sorted at
    construction (indices already in order are taken as they are, through the
    same copy rule as every model array) but deliberately *not* deduplicated:
    duplicate indices are a data error that :func:`validate_sequence` must be
    able to report. Empty stage entries are dropped; a mask may end up with no
    stages at all, which is likewise left to the validator.
    """

    instance_id: int
    class_id: int
    per_stage_points: Mapping[int, np.ndarray]
    confidence: float = 1.0

    def __post_init__(self):
        for name, value in zip(("instance_id", "class_id", "confidence"), _mask_fields(
                self.instance_id, self.class_id, self.confidence)):
            object.__setattr__(self, name, value)
        cleaned: dict[int, np.ndarray] = {}
        for stage, points in self.per_stage_points.items():
            arr = _frozen(points, np.int64, "point indices")
            if arr.ndim != 1:
                raise ValueError(f"stage {stage} point indices are not flat: shape {arr.shape}")
            if np.count_nonzero(arr[1:] < arr[:-1]):  # cheaper than np.any here
                arr = _hand_over(np.sort(arr))
            if arr.size:
                cleaned[_int_key(stage)] = arr
        object.__setattr__(self, "per_stage_points", cleaned)

    def points_at(self, stage: int) -> np.ndarray:
        return self.per_stage_points.get(stage, _EMPTY_INDEX)


_EMPTY_INDEX = _hand_over(np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class AmbiguousGroup:
    """Ground-truth instances declared mutually indistinguishable.

    ``group_id`` is non-negative: it seeds the group's random stream.
    """

    group_id: int
    member_instance_ids: tuple[int, ...]

    def __post_init__(self):
        group_id = _number(self.group_id, "group_id", int)
        if group_id < 0:
            raise ValueError(f"ambiguous group {group_id}: group_id must be non-negative")
        members = tuple(sorted({_number(m, "ambiguous group member", int)
                                for m in self.member_instance_ids}))
        object.__setattr__(self, "group_id", group_id)
        object.__setattr__(self, "member_instance_ids", members)


@dataclass(frozen=True)
class GroundTruthAnnotation:
    """All ground truth for one sequence: masks, groups, change labels."""

    instances: tuple[InstanceMask, ...]
    ambiguous_groups: tuple[AmbiguousGroup, ...] = ()
    change_labels: Mapping[int, ChangeType] = field(default_factory=dict)

    def __post_init__(self):
        instances = tuple(self.instances)
        ids = [m.instance_id for m in instances]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ground-truth instance ids")
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "ambiguous_groups", tuple(self.ambiguous_groups))
        labels = {_int_key(k): ChangeType(v) for k, v in dict(self.change_labels).items()}
        object.__setattr__(self, "change_labels", labels)


@dataclass(frozen=True)
class _LabelColumns:
    """Masks as scoring reads them: column j is instance ``instance_ids[j]``. Per
    stage t, ``layers[t]`` holds arrays of each point's column + 1 (0: none, as past
    a layer's end; one layer unless columns overlap) in a small integer type, 1 or
    2 bytes a point for up to 32,767 columns, ``sizes[t]`` each column's size."""

    instance_ids: tuple[int, ...]
    class_ids: tuple[int, ...]
    layers: Mapping[int, tuple[np.ndarray, ...]]
    sizes: Mapping[int, np.ndarray]
    ambiguous_groups: tuple[AmbiguousGroup, ...] = ()
    change_labels: Mapping[int, ChangeType] = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    """One validation finding; ``code`` is stable, ``message`` is for humans."""

    code: str
    message: str


def _check_mask(mask: InstanceMask, sizes: tuple[int, ...], origin: str,
                out: list[Violation]) -> None:
    if not mask.per_stage_points:
        out.append(Violation(
            "empty_mask",
            f"{origin} instance {mask.instance_id} references no points"))
        return
    for stage, points in mask.per_stage_points.items():
        if stage < 0 or stage >= len(sizes):
            out.append(Violation(
                "stage_out_of_range",
                f"{origin} instance {mask.instance_id} references stage {stage} "
                f"outside 0..{len(sizes) - 1}"))
            continue
        n = sizes[stage]
        if points[0] < 0 or points[-1] >= n:
            out.append(Violation(
                "point_out_of_range",
                f"{origin} instance {mask.instance_id} stage {stage} has point "
                f"indices outside 0..{n - 1}"))
        if points.size > 1 and np.any(points[1:] == points[:-1]):
            out.append(Violation(
                "duplicate_point_in_mask",
                f"{origin} instance {mask.instance_id} stage {stage} lists "
                f"duplicate point indices"))


def validate_sequence(seq: SequencePointCloud, gt: GroundTruthAnnotation,
                      preds: Sequence[InstanceMask] = ()) -> tuple[Violation, ...]:
    """Check cross-object consistency; total (never raises on bad data).

    Returns every finding, an empty (so falsy) tuple when there is none.

    Every model invariant that construction cannot enforce maps to exactly one
    violation code: ``stage_out_of_range``, ``point_out_of_range``,
    ``duplicate_point_in_mask``, ``empty_mask``, ``cross_class_ambiguous_group``,
    ``unknown_group_member``, ``ambiguous_group_too_small``,
    ``member_in_multiple_groups``, ``duplicate_instance_id``. Of ``seq`` it
    reads only ``stage_sizes()``.
    """
    out: list[Violation] = []
    sizes = seq.stage_sizes()
    if isinstance(gt, _LabelColumns):  # a column holds no bad point, but may hold none
        class_of = dict(zip(gt.instance_ids, gt.class_ids))
        points = sum(gt.sizes.values(), np.zeros(len(class_of), np.int64))
        out += [Violation("empty_mask", f"ground-truth instance {i} references no points")
                for i, n in zip(gt.instance_ids, points.tolist()) if not n]
    else:
        class_of = {m.instance_id: m.class_id for m in gt.instances}
        for mask in gt.instances:
            _check_mask(mask, sizes, "ground-truth", out)
    for mask in preds:
        _check_mask(mask, sizes, "prediction", out)
    for instance_id, n in Counter(m.instance_id for m in preds).items():
        if n > 1:
            out.append(Violation(
                "duplicate_instance_id",
                f"prediction instance id {instance_id} is used by {n} masks"))

    seen_members: dict[int, int] = {}
    for group in gt.ambiguous_groups:
        size = len(group.member_instance_ids)
        if size < 2:
            out.append(Violation(
                "ambiguous_group_too_small",
                f"ambiguous group {group.group_id} has {size} member(s)"))
        classes = set()
        for member in group.member_instance_ids:
            if member not in class_of:
                out.append(Violation(
                    "unknown_group_member",
                    f"ambiguous group {group.group_id} references unknown "
                    f"instance {member}"))
                continue
            classes.add(class_of[member])
            if member in seen_members:
                out.append(Violation(
                    "member_in_multiple_groups",
                    f"instance {member} appears in ambiguous groups "
                    f"{seen_members[member]} and {group.group_id}"))
            else:
                seen_members[member] = group.group_id
        if len(classes) > 1:
            out.append(Violation(
                "cross_class_ambiguous_group",
                f"ambiguous group {group.group_id} mixes classes "
                f"{sorted(classes)}"))
    return tuple(out)
