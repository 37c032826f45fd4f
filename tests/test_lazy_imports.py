"""Commands that call no scipy function run without loading scipy or numpy.ma.

Each case runs a fresh interpreter: this test process has long since imported
scipy, so only a child shows what an import or a command loads by itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scanseq
from scanseq.cli import main

from conftest import association_scene

SRC = Path(scanseq.__file__).parents[1]  # the child imports the scanseq this process does

# runs each argv of sys.argv[1] through cli.main, then prints the exit codes
# and the loaded modules that commands without scipy should not load
CHILD = """
import json, sys
from scanseq.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _child(argvs, cwd):
    """Exit codes of ``argvs`` run by ``cli.main`` in a fresh interpreter,
    and the scipy and numpy.ma modules loaded at its end."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    return result["codes"], result["loaded"]


def test_import_loads_no_scipy(tmp_path):
    # importing scanseq.cli imports the package and every module it exports
    assert _child([], tmp_path) == ([], [])


def test_generate_evaluate_serialize_load_no_scipy(tmp_path):
    (tmp_path / "recipe.json").write_text(json.dumps(
        {"seed": 1, "n_objects": 3, "sequence_id": "lazy",
         "perturbation": {"target_iou": 0.8}}))
    codes, loaded = _child([
        ["generate", "--recipe", "recipe.json", "--out", "scene"],
        ["evaluate", "--gt", "scene/manifest.json", "--pred", "scene/predictions.json",
         "--thresholds", "sweep,0.25", "--per-change-type", "--out", "report.json"],
        ["serialize", "--curve", "hilbert", "--dims", "4",
         "--manifest", "scene/manifest.json", "--out", "order.json"],
    ], tmp_path)
    assert codes == [0, 0, 0] and loaded == []
    assert json.loads((tmp_path / "report.json").read_text())["sequence_id"] == "lazy"


def _losses_input(tmp_path, op):
    payload = ({"features": [[1.0, 0.5], [0.9, 0.4], [-0.2, 1.0]],
                "instance_ids": [0, 0, 1]} if op == "contrastive" else
               {"pred_mask_logits": [[2.0, -1.0], [-1.0, 3.0]],
                "pred_class_logits": [[9, 0, 0], [0, 9, 0]],
                "gt_masks": [[1, 0], [0, 1]], "gt_classes": [0, 1]})
    path = tmp_path / f"{op}.json"
    path.write_text(json.dumps(payload))
    return ["losses", "--op", op, "--in", str(path)]


def _associate_input(tmp_path, mode):
    manifest, stage_files = association_scene(tmp_path)
    return ["associate", "--mode", mode, "--pred-a", str(stage_files[0]),
            "--pred-b", str(stage_files[1]), "--manifest", str(manifest)]


@pytest.mark.parametrize("command", [
    ("associate", "semantic"), ("associate", "geometric"),
    ("losses", "contrastive"), ("losses", "cost"),
], ids=lambda c: "-".join(c))
def test_commands_that_need_scipy_load_it_and_match_in_process(tmp_path, command):
    kind, mode = command
    argv = (_associate_input if kind == "associate" else _losses_input)(tmp_path, mode)
    child_out, own_out = tmp_path / "child.json", tmp_path / "own.json"
    codes, loaded = _child([argv + ["--out", str(child_out)]], tmp_path)
    assert codes == [0] and "scipy" in loaded
    assert main(argv + ["--out", str(own_out)]) == 0
    assert child_out.read_bytes() == own_out.read_bytes()
