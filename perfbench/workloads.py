"""Workload recipes, set-up, the timed op of each workload and its checks.

Every scene is a pure function of the workload seed: seed 0 gives the
recipes below (recipe seeds 99 and 7, perturbation seeds 10 and 11), and
seed n shifts every one of those seeds by n. The program under test only
sees the files that set-up writes (or, for ``curve-schedule``, the arrays
in ``scene.npz``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scanseq import cli, curves, formats, geometry, metrics, synth
from scanseq.model import SequencePointCloud, StageCloud

WORKLOADS = ("eval-plain-1m", "eval-ambiguous", "serialize-hilbert4d",
             "curve-schedule")
DEFAULT_SEED = 0
RESOLUTION = 0.02
THRESHOLDS = "sweep,0.5,0.25"
# the thresholds that THRESHOLDS expands to in `scanseq evaluate`
TAUS = tuple(sorted({*metrics.SWEEP_THRESHOLDS, 0.5, 0.25}))
SCHEDULE_LEVELS = 4
PATTERNS = tuple(curves.SerializationPattern(curve, dims)
                 for dims in curves.SerializationDims for curve in curves.Curve)

# points per object of each workload's scene, full size and smoke size
POINTS_PER_OBJECT = {
    "eval-plain-1m": (2500, 100),
    "eval-ambiguous": (1000, 40),
    "serialize-hilbert4d": (250, 25),
    "curve-schedule": (250, 10),
}


def plain_recipe(seed: int, points_per_object: int) -> synth.SceneRecipe:
    """The scene of the 1M-point acceptance criterion: 200 objects, 2 stages,
    every 7th object moved rigidly, no ambiguous groups."""
    return synth.SceneRecipe(
        seed=99 + seed, n_objects=200, n_stages=2, extent=40.0,
        points_per_object=(points_per_object, points_per_object), n_classes=12,
        size_range=(0.3, 0.7),
        changes=({i: synth.ChangeOp("rigid", translation=(0.5, 0, 0))
                  for i in range(0, 200, 7)},),
        sequence_id="plain")


def ambiguous_recipe(seed: int, points_per_object: int) -> synth.SceneRecipe:
    """200 objects, 3 stages, 50 ambiguous groups of 4 consecutive ids; every
    group swaps at both transitions."""
    swaps = {4 * g: synth.ChangeOp("swap", group_id=g) for g in range(50)}
    return synth.SceneRecipe(
        seed=7 + seed, n_objects=200, n_stages=3, extent=40.0,
        points_per_object=(points_per_object, points_per_object), n_classes=12,
        size_range=(0.3, 0.7),
        ambiguous_groups=tuple(tuple(range(4 * g, 4 * g + 4)) for g in range(50)),
        changes=(swaps, swaps), sequence_id="ambiguous")


@dataclass(frozen=True)
class Scene:
    """Where one set-up left a workload's inputs."""

    workload: str
    directory: Path

    @property
    def manifest(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def predictions(self) -> Path:
        return self.directory / "predictions.json"

    @property
    def arrays(self) -> Path:
        return self.directory / "scene.npz"


def set_up(workload: str, seed: int, directory: Path, smoke: bool = False) -> Scene:
    """Generate the workload's scene and write its inputs to ``directory``.

    Every library call goes through its module attribute, so a traced
    set-up sees it.
    """
    ppo = POINTS_PER_OBJECT[workload][1 if smoke else 0]
    scene = Scene(workload, directory)
    directory.mkdir(parents=True)
    if workload == "eval-ambiguous":
        seq, gt = synth.generate(ambiguous_recipe(seed, ppo))
        spec = synth.PerturbationSpec(target_iou=0.85, seed=11 + seed,
                                      identity_policy="swapped")
    else:
        seq, gt = synth.generate(plain_recipe(seed, ppo))
        spec = synth.PerturbationSpec(target_iou=0.85, seed=10 + seed)
    if workload.startswith("eval-"):
        preds = synth.perturb(seq, gt, spec)
        formats.write_manifest(directory, seq, gt)
        formats.write_predictions(scene.predictions, preds, seq.sequence_id)
    elif workload == "serialize-hilbert4d":
        formats.write_manifest(directory, seq, gt)
    else:
        np.savez(scene.arrays, *[stage.positions for stage in seq.stages])
    return scene


def load_arrays(scene: Scene) -> SequencePointCloud:
    with np.load(scene.arrays) as data:
        return SequencePointCloud(stages=tuple(
            StageCloud(positions=data[f"arr_{t}"]) for t in range(len(data.files))))


def schedule(seq: SequencePointCloud):
    """Voxelize, pool to SCHEDULE_LEVELS levels, order every level by every
    pattern. Returns the voxel count per level and the orders, level-major."""
    grids = [geometry.voxelize(seq, RESOLUTION)]
    for _ in range(SCHEDULE_LEVELS - 1):
        grids.append(geometry.downsample_level(grids[-1]))
    orders = [curves.serialize_sequence(grid, pattern)
              for grid in grids for pattern in PATTERNS]
    return [grid.num_voxels for grid in grids], orders


def schedule_labels() -> list[str]:
    return [f"level{level}/{p.curve.value}/{p.dims.value}"
            for level in range(SCHEDULE_LEVELS) for p in PATTERNS]


def digest(order: np.ndarray) -> str:
    """Digest of an order array's values, independent of any file layout."""
    data = np.ascontiguousarray(order, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()


def make_op(scene: Scene, out_dir: Path):
    """The timed op of a workload as ``op(i) -> outcome``.

    ``outcome`` is the path of the file the CLI wrote, or for
    ``curve-schedule`` the voxel counts and the order digests, which are
    computed after the op returns so they stay outside its timing.
    """
    if scene.workload == "curve-schedule":
        seq = load_arrays(scene)

        def run_schedule(i):
            return schedule(seq)
        return run_schedule

    if scene.workload.startswith("eval-"):
        head = ["evaluate", "--gt", str(scene.manifest),
                "--pred", str(scene.predictions), "--thresholds", THRESHOLDS,
                "--per-change-type"]
    else:
        head = ["serialize", "--curve", "hilbert", "--dims", "4",
                "--resolution", str(RESOLUTION), "--manifest", str(scene.manifest)]

    def run_cli(i):
        out = out_dir / f"op_{i}.json"
        code = cli.main(head + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"scanseq {head[0]} exited with {code}")
        return str(out)
    return run_cli


def summarize_outcome(workload: str, outcome):
    """What the op process reports back about one op's output."""
    if workload == "curve-schedule":
        voxels, orders = outcome
        return {"voxels": voxels, "digests": [digest(o) for o in orders]}
    return outcome


# ---------------------------------------------------------------------------
# Reference results and checks


def reference(scene: Scene):
    """The library's result on re-read inputs, for comparison with each op,
    and the sizes of the scene as the program sees it."""
    if scene.workload == "curve-schedule":
        seq = load_arrays(scene)
        voxels, orders = schedule(seq)
        return {"voxels": voxels, "orders": orders}, _facts(seq, voxels[0])
    seq, gt = formats.read_manifest(scene.manifest)
    grid = geometry.voxelize(seq, RESOLUTION)
    facts = _facts(seq, grid.num_voxels, gt)
    if scene.workload == "serialize-hilbert4d":
        order = curves.serialize_sequence(grid, curves.SerializationPattern(
            curves.Curve.HILBERT, curves.SerializationDims.SPATIOTEMPORAL_4D))
        return {"grid": grid, "order": order}, facts
    pred_file = formats.read_predictions(scene.predictions)
    report = metrics.evaluate(seq, gt, pred_file.instances, TAUS, rng_seed=0)
    facts["predictions"] = len(pred_file.instances)
    return formats.report_to_dict(report), facts


def _facts(seq: SequencePointCloud, voxels: int, gt=None) -> dict:
    return {"points": seq.total_points, "stages": seq.num_stages, "voxels": voxels,
            "instances": len(gt.instances) if gt else None,
            "groups": len(gt.ambiguous_groups) if gt else None}


def _is_permutation(order: np.ndarray, n: int) -> bool:
    return order.shape == (n,) and np.array_equal(np.sort(order), np.arange(n))


def check_reference(workload: str, ref) -> list[str]:
    """Problems with the reference itself: orders that are no permutation."""
    if workload == "serialize-hilbert4d":
        orders, sizes = [ref["order"]], [ref["grid"].num_voxels]
    elif workload == "curve-schedule":
        orders = ref["orders"]
        sizes = [v for v in ref["voxels"] for _ in PATTERNS]
    else:
        return []
    return [f"reference order {i} is not a permutation"
            for i, (order, n) in enumerate(zip(orders, sizes))
            if not _is_permutation(order, n)]


def _same(expected, actual, where: str = "report") -> list[str]:
    """Value-by-value comparison; floats agree to the 6 significant digits
    that canonical JSON keeps."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        return [p for k in expected for p in _same(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: lengths differ"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in _same(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isclose(expected, actual, rel_tol=1e-5, abs_tol=1e-12):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if expected != actual or type(expected) is not type(actual):
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def check_op(workload: str, ref, outcome) -> list[str]:
    """Problems with one op's output; an empty list means it is correct."""
    if workload == "curve-schedule":
        problems = []
        if outcome["voxels"] != ref["voxels"]:
            problems.append(f"voxel counts {outcome['voxels']} != {ref['voxels']}")
        if outcome["digests"] != [digest(o) for o in ref["orders"]]:
            problems.append("orders differ from serialize_sequence")
        return problems
    with open(outcome, encoding="utf-8") as fh:
        data = json.load(fh)
    if workload.startswith("eval-"):
        return _same(ref, data)
    grid, order = ref["grid"], ref["order"]
    problems = []
    if data.get("num_voxels") != grid.num_voxels:
        problems.append(f"num_voxels {data.get('num_voxels')} != {grid.num_voxels}")
    if not np.array_equal(np.asarray(data.get("order", []), dtype=np.int64), order):
        problems.append("order differs from serialize_sequence")
    # later layouts may drop `keys`; when present they must match the grid
    if "keys" in data and not np.array_equal(
            np.asarray(data["keys"], dtype=np.int64).reshape(-1, 4),
            grid.keys[order]):
        problems.append("keys differ from the grid")
    return problems


def pinned_values(workload: str, ref) -> dict:
    """The values of a reference that pinned.json fixes for the default seed."""
    if workload.startswith("eval-"):
        values = {k: ref[k] for k in ("t_map", "t_map50", "t_map25")}
        if workload == "eval-ambiguous":
            values["per_change_recall.ambiguous"] = ref["per_change_recall"]["ambiguous"]
        return values
    if workload == "serialize-hilbert4d":
        return {"voxels": ref["grid"].num_voxels, "order": digest(ref["order"])}
    return {"voxels": ref["voxels"],
            "orders": dict(zip(schedule_labels(), map(digest, ref["orders"])))}


def check_pinned(workload: str, ref, pinned: dict) -> list[str]:
    return _same(pinned, pinned_values(workload, ref), f"pinned[{workload}]")
