"""The command line as a shell runs it: one child process per command.

Each test runs ``python -m scanseq.cli``, or the console script that the
``SCANSEQ_CONSOLE`` environment variable names (``SCANSEQ_CONSOLE=scanseq``
runs the installed entry point), and reads its exit code, its stderr and the
files it wrote.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scanseq
from scanseq.formats import read_manifest
from scanseq.geometry import voxelize

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


@pytest.mark.parametrize("resolution", ["0.02", "0.0002"])
@pytest.mark.parametrize("dims", [3, 4])
def test_hilbert_order_is_the_reference_order_on_the_library_grid(scene, dims, resolution,
                                                                  tmp_path):
    # at 0.0002 the 4D (stage, code, row) key needs 70 bits, so it takes the
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
