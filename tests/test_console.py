"""The command line as a shell runs it: one child process per command.

Each test runs ``python -m scanseq.cli``, or the console script that the
``SCANSEQ_CONSOLE`` environment variable names (``SCANSEQ_CONSOLE=scanseq``
runs the installed entry point), and reads its exit code, its stderr and the
files it wrote.
"""

import base64
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scanseq
from scanseq.formats import read_manifest, read_predictions, write_manifest, write_predictions
from scanseq.geometry import voxelize
from scanseq.model import AmbiguousGroup, GroundTruthAnnotation

import oracles
from conftest import retyped_copy

SRC = Path(scanseq.__file__).parents[1]  # the child imports the scanseq this process does


def _run(*argv, cwd):
    console = os.environ.get("SCANSEQ_CONSOLE")
    command = [console] if console else [sys.executable, "-m", "scanseq.cli"]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([*command, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def _evaluate(root, out):
    return _run("evaluate", "--gt", "scene/manifest.json", "--pred", "scene/predictions.json",
                "--out", out, cwd=root)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A directory holding a generated ``scene`` and its ``report.json``; each
    test edits a copy."""
    root = tmp_path_factory.mktemp("console")
    (root / "recipe.json").write_text(json.dumps(
        {"seed": 1, "n_objects": 3, "sequence_id": "ci", "perturbation": {"target_iou": 0.8}}))
    done = _run("generate", "--recipe", "recipe.json", "--out", "scene", cwd=root)
    assert done.returncode == 0, done.stderr
    done = _evaluate(root, "report.json")
    assert done.returncode == 0, done.stderr
    return root


def _copy(scene, tmp_path):
    shutil.copytree(scene / "scene", tmp_path / "scene")
    return tmp_path


def test_ushort_instance_column_gives_the_same_report_bytes(scene, tmp_path):
    # the scene has no background point, so an unsigned column holds every id
    root = _copy(scene, tmp_path)
    for ply in sorted((root / "scene").glob("stage_*.ply")):
        retyped_copy(ply, "ushort")
    done = _evaluate(root, "report.json")
    assert done.returncode == 0, done.stderr
    assert (root / "report.json").read_bytes() == (scene / "report.json").read_bytes()


def test_stage_ply_cut_short_exits_74_naming_it(scene, tmp_path):
    root = _copy(scene, tmp_path)
    ply = root / "scene" / "stage_001.ply"
    ply.write_bytes(ply.read_bytes()[:-5])
    done = _evaluate(root, "bad.json")
    assert done.returncode == 74
    assert "stage_001.ply" in done.stderr
    assert "binary body shorter than vertex count" in done.stderr
    assert "Traceback" not in done.stderr and not (root / "bad.json").exists()


_GT, _PRED = "scene/manifest.json", "scene/predictions.json"


def _runs(mask):
    return np.frombuffer(base64.b64decode(mask["data"]), "<i8")


def _edited_predictions(scene, tmp_path, name, edit):
    """A copy of the scene's predictions, with ``edit`` applied to the parsed
    JSON, written as ``name`` beside a copy of the scene."""
    root = _copy(scene, tmp_path)
    data = json.loads((root / _PRED).read_text())
    edit(data)
    (root / name).write_text(json.dumps(data))
    return root


def test_predictions_as_listed_runs_give_the_same_report_bytes(scene, tmp_path):
    def listed(data):
        for entry in data["instances"]:
            for mask in entry["masks"].values():
                mask.update(encoding="rle", data=_runs(mask).tolist())

    root = _edited_predictions(scene, tmp_path, "listed.json", listed)
    done = _run("evaluate", "--gt", _GT, "--pred", "listed.json", "--out", "report.json",
                cwd=root)
    assert done.returncode == 0, done.stderr
    assert (root / "report.json").read_bytes() == (scene / "report.json").read_bytes()


def test_shuffled_scene_with_re_spelled_ids_gives_the_same_report_bytes(scene, tmp_path):
    # PLY rows shuffled, instance ids re-spelled near 2^31 and the manifest's
    # instances rotated by one: in neither the scene's order nor id order
    seq, gt = read_manifest(scene / _GT)
    preds = read_predictions(scene / _PRED).instances
    rows = [np.random.default_rng(t).permutation(s.point_count) for t, s in enumerate(seq.stages)]
    row_of = [np.argsort(r) for r in rows]  # the new row of each point
    wide = {m.instance_id: 2 ** 31 - 1 - 7919 * m.instance_id for m in gt.instances}

    def moved(m, instance_id):
        return dataclasses.replace(m, instance_id=instance_id, per_stage_points={
            t: row_of[t][p] for t, p in m.per_stage_points.items()})

    stages = tuple(dataclasses.replace(
        s, positions=s.positions[r], colors=None if s.colors is None else s.colors[r],
        segment_ids=None if s.segment_ids is None else s.segment_ids[r])
        for s, r in zip(seq.stages, rows))
    gt = GroundTruthAnnotation(
        tuple(moved(m, wide[m.instance_id]) for m in gt.instances[1:] + gt.instances[:1]),
        tuple(AmbiguousGroup(g.group_id, tuple(wide[i] for i in g.member_instance_ids))
              for g in gt.ambiguous_groups),
        {wide[k]: v for k, v in gt.change_labels.items()})
    write_manifest(tmp_path / "shuffled", dataclasses.replace(seq, stages=stages), gt)
    write_predictions(tmp_path / "shuffled" / "predictions.json",
                      [moved(p, p.instance_id) for p in preds], seq.sequence_id)
    done = _run("evaluate", "--gt", "shuffled/manifest.json",
                "--pred", "shuffled/predictions.json", "--out", "report.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").read_bytes() == (scene / "report.json").read_bytes()


def test_a_base64_payload_holding_a_bang_exits_74_naming_the_file(scene, tmp_path):
    def bang(data):
        mask = next(iter(data["instances"][0]["masks"].values()))
        mask["data"] = "!" + mask["data"][1:]

    root = _edited_predictions(scene, tmp_path, "bang.json", bang)
    done = _run("evaluate", "--gt", _GT, "--pred", "bang.json", "--out", "bad.json", cwd=root)
    assert done.returncode == 74
    assert "bang.json" in done.stderr
    assert "Traceback" not in done.stderr and not (root / "bad.json").exists()


def test_the_first_of_two_faults_is_named(scene, tmp_path):
    # entry 0's instance_id is a bool, entry 1 has a run past its stage
    sizes = read_manifest(scene / _GT)[0].stage_sizes()

    def two_faults(data):
        data["instances"][0]["instance_id"] = True
        stage, mask = next(iter(data["instances"][1]["masks"].items()))
        mask["data"] = base64.b64encode(
            np.array([sizes[int(stage)] - 1, 2], "<i8").tobytes()).decode()

    root = _edited_predictions(scene, tmp_path, "two-faults.json", two_faults)
    done = _run("evaluate", "--gt", _GT, "--pred", "two-faults.json", "--out", "bad.json",
                cwd=root)
    assert done.returncode == 74
    assert "two-faults.json" in done.stderr
    assert "instance_id must be an integer" in done.stderr
    assert "RLE run" not in done.stderr
    assert "Traceback" not in done.stderr and not (root / "bad.json").exists()


@pytest.mark.parametrize("resolution", ["0.02", "0.0002"])
@pytest.mark.parametrize("dims", [3, 4])
def test_hilbert_order_is_the_reference_order_on_the_library_grid(scene, dims, resolution,
                                                                  tmp_path):
    # at 0.0002 the 4D (code, row) key needs 70 bits, so it takes the
    # argsort, and the other three the packed sort
    manifest = scene / "scene" / "manifest.json"
    done = _run("serialize", "--curve", "hilbert", "--dims", str(dims), "--resolution", resolution,
                "--manifest", str(manifest), "--out", "order.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    keys = voxelize(read_manifest(manifest)[0], resolution=float(resolution)).keys
    expected = oracles.reference_serialization_order(keys, "hilbert", dims, 16)
    assert json.loads((tmp_path / "order.json").read_text())["order"] == expected.tolist()


def test_z_order_bytes_are_the_same_at_21_and_16_bits(scene, tmp_path):
    # at 21 bits each axis is spread with two 16-bit table lookups
    for bits in ("21", "16"):
        done = _run("serialize", "--curve", "zorder", "--dims", "3", "--bits", bits, "--manifest",
                    str(scene / "scene" / "manifest.json"), "--out", f"z{bits}.json", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
    assert (tmp_path / "z21.json").read_bytes() == (tmp_path / "z16.json").read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["evaluate", "--seed", "-1", "--gt", _GT, "--pred", _PRED],
     "argument --seed: must be at least 0, got -1"),
    (["serialize", "--curve", "hilbert", "--dims", "4", "--manifest", _GT,
      "--resolution", "0.0123456789"], "argument --resolution: must have at most 6 significant"),
    (["evaluate", "--thresholds", "0.501", "--gt", _GT, "--pred", _PRED],
     "argument --thresholds: threshold '0.501' has more than two decimals"),
], ids=["negative-seed", "resolution-of-10-digits", "threshold-of-3-decimals"])
def test_a_refused_flag_exits_64_without_a_traceback(scene, tmp_path, argv, message):
    done = _run(*argv, "--out", str(tmp_path / "bad.json"), cwd=scene)
    assert done.returncode == 64
    assert message in done.stderr
    assert "Traceback" not in done.stderr and not (tmp_path / "bad.json").exists()


def test_a_fourier_output_too_large_to_compute_exits_2(tmp_path):
    (tmp_path / "fourier.json").write_text(json.dumps(
        {"coords": [[0, 0, 0, 0]], "d_out": 2 * 10 ** 15, "seed": 0}))
    done = _run("losses", "--op", "fourier", "--in", "fourier.json", "--out", "bad.json",
                cwd=tmp_path)
    assert done.returncode == 2
    assert "fourier output too large to compute" in done.stderr
    assert "Traceback" not in done.stderr and not (tmp_path / "bad.json").exists()


def test_associating_multi_stage_predictions_exits_2_naming_the_file(scene, tmp_path):
    done = _run("associate", "--mode", "geometric", "--pred-a", _PRED, "--pred-b", _PRED,
                "--manifest", _GT, "--out", str(tmp_path / "merged.json"), cwd=scene)
    assert done.returncode == 2
    assert f"{_PRED}: association inputs must be single-stage predictions" in done.stderr
    assert "Traceback" not in done.stderr and not (tmp_path / "merged.json").exists()
