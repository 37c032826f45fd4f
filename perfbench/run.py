"""scanseq benchmark: seeded scenes, closed-loop ops, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload eval-plain-1m --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload eval-plain-1m --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics (op_ref_s, peak_rss_mb, setup_s);
``--trace 1`` prints the per-layer metrics and a layer breakdown. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Full results, machine facts and spans are kept
under ``.bench_work/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "scanseq" / "__init__.py").is_file():
    sys.exit(f"perfbench: no scanseq sources under {SRC}")
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"
# set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_SECONDS
# have passed, at most SETUP_MAX_REPS times; setup_s is the median, scaled
# by the calibration kernel like op_ref_s
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_MIN_SECONDS = 2.0
END_TO_END_UNITS = {"op_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {**{name: spec[0] for name, spec in tracing.LAYER_METRICS.items()},
               "trace.overhead_s": "s"}


def machine_facts() -> dict:
    model = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def repeat_set_up(workload, seed, run_dir, smoke, tracer):
    """Repeat the set-up, keeping only the last scene. Returns that scene,
    each set-up's wall time and the mean calibration kernel time around it;
    a tracer, if given, records the set-up spans."""
    times, kernel_times = [], []
    kernel = calibration.Kernel()
    kernel_before = kernel.seconds()
    scene = None
    while (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS) \
            and len(times) < SETUP_MAX_REPS:
        if scene is not None:
            shutil.rmtree(scene.directory)
        directory = run_dir / f"scene_{len(times)}"
        started = time.perf_counter()
        if tracer is None:
            scene = workloads.set_up(workload, seed, directory, smoke)
        else:
            with tracer.patched(), tracer.span("setup", op=len(times)):
                scene = workloads.set_up(workload, seed, directory, smoke)
        times.append(time.perf_counter() - started)
        kernel_after = kernel.seconds()
        kernel_times.append((kernel_before + kernel_after) / 2)
        kernel_before = kernel_after
    return scene, times, kernel_times


def run_ops(scene, run_dir, seconds, trace) -> dict:
    out_dir = run_dir / "ops"
    out_dir.mkdir()
    result = run_dir / "worker.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", scene.workload,
         "--scene", str(scene.directory), "--out-dir", str(out_dir),
         "--seconds", str(seconds), "--trace", str(trace), "--result", str(result)],
        # the worker ends its own loop; the timeout only catches a hung op
        env=env, capture_output=True, text=True, timeout=3 * seconds + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"op process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_ops(workload, seed, smoke, ref, ops) -> list[str]:
    """Check every op against the library's reference; returns the problems
    and marks each failed op with an ``error``."""
    shared = workloads.check_reference(workload, ref)
    if seed == workloads.DEFAULT_SEED and not smoke:
        pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
        shared += workloads.check_pinned(workload, ref, pinned[workload])
    problems = list(shared)
    for op in ops:
        if op["error"] is None:
            found = shared or workloads.check_op(workload, ref, op["outcome"])
            if found:
                op["error"] = "; ".join(found[:5])
        if op["error"] is not None:
            problems.append(f"op {op['index']}: {op['error']}")
    return problems


def run_workload(workload, seed, seconds, trace, smoke=False) -> dict:
    run_dir = WORK / f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        tracer = tracing.Tracer() if trace else None
        scene, setup_times, setup_kernel = repeat_set_up(workload, seed, run_dir, smoke, tracer)
        worker = run_ops(scene, run_dir, seconds, trace)
        ops = worker["ops"]
        ref, facts = workloads.reference(scene)
        problems = check_ops(workload, seed, smoke, ref, ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [op for op in ops if op["phase"] == "timed"]
    untraced_ops = [op for op in timed if not op["traced"] and op["seconds"] is not None]
    untraced = [op["seconds"] for op in untraced_ops]
    untraced_ref = calibration.scaled(untraced, [op["kernel_seconds"] for op in untraced_ops])
    setup_ref = calibration.scaled(setup_times, setup_kernel)
    # a traced run alternates untraced and traced ops: (untraced, traced) pairs
    pairs = [(u["seconds"], t["seconds"]) for u, t in zip(timed[0::2], timed[1::2])
             if trace and u["seconds"] is not None and t["seconds"] is not None]
    if not untraced or (trace and not pairs):
        raise RuntimeError("no timed op completed:\n" + "\n".join(problems[:5]))
    breakdown = []
    if trace:
        op_spans = [s for s in worker["spans"] if s["op"] is not None]
        values = tracing.layer_values(op_spans, tracer.spans)
        values["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        units = LAYER_UNITS
        breakdown = tracing.breakdown(op_spans)
    else:
        values = {"op_ref_s": statistics.median(untraced_ref),
                  "peak_rss_mb": worker["peak_rss_mb"],
                  "setup_s": statistics.median(setup_ref)}
        units = END_TO_END_UNITS
    failed = sum(op["error"] is not None for op in ops)
    return {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "machine": machine_facts(), "scene": facts,
        "setup_seconds": setup_times, "setup_kernel_seconds": setup_kernel,
        "setup_ref_seconds": setup_ref,
        "op_seconds": untraced, "op_ref_seconds": untraced_ref, "traced_pairs": pairs,
        "problems": problems, "breakdown": breakdown,
        "spans": worker["spans"] if trace else [],
        "summary": {"correct": not problems, "attempted": len(ops), "failed": failed,
                    "metrics": {name: {"value": values[name], "unit": units[name]}
                                for name in units}},
    }


def report(run: dict) -> None:
    """Print the human-readable part; the JSON summary comes last."""
    summary = run["summary"]
    print("machine:", json.dumps(run["machine"], sort_keys=True))
    print("scene:", json.dumps({"workload": run["workload"], "seed": run["seed"],
                                **run["scene"]}, sort_keys=True))
    for name, metric in summary["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<40} {summary['failed'] / summary['attempted']:>14.6g} ratio"
          f"  ({summary['failed']} of {summary['attempted']} ops)")
    for label, key in (("untraced op wall times", "op_seconds"),
                       ("untraced op times at reference speed", "op_ref_seconds")):
        times = sorted(run[key])
        quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{label}: {len(times)} ops, min {times[0]:.4f} s, quartiles "
              + " / ".join(f"{q:.4f}" for q in quartiles) + f" s, max {times[-1]:.4f} s")
    for label, key in (("setup wall times", "setup_seconds"),
                       ("calibration kernel times around them", "setup_kernel_seconds")):
        print(f"{label}: " + ", ".join(f"{t:.4f}" for t in run[key]) + " s")
    if run["trace"]:
        pairs = run["traced_pairs"]
        print(f"tracing overhead: median of {len(pairs)} (traced - untraced) op pairs"
              f" {statistics.median(t - u for u, t in pairs):.4f} s, traced op median"
              f" {statistics.median(t for _, t in pairs):.4f} s")
        print("layer breakdown (self time per traced op, share of the op):")
        for name, seconds, share in run["breakdown"]:
            print(f"  {name:<40} {seconds:>10.4f} s {100 * share:6.1f} %")
        modules: dict[str, float] = {}
        for name, _, share in run["breakdown"]:
            module = name.split(".")[0] if name != "op" else "benchmark"
            modules[module] = modules.get(module, 0.0) + share
        print("by module:", ", ".join(f"{m} {100 * s:.1f} %" for m, s in
                                      sorted(modules.items(), key=lambda kv: -kv[1])))
    for problem in run["problems"][:10]:
        print("problem:", problem)


def save(run: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{run['trace']}"
    (results / f"{stem}.json").write_text(
        json.dumps({k: v for k, v in run.items() if k != "spans"}, indent=1),
        encoding="utf-8")
    if run["spans"]:
        (results / f"{stem}.spans.json").write_text(
            json.dumps(run["spans"]), encoding="utf-8")


def smoke() -> int:
    """All workloads at small scale, untraced and traced: every metric that
    BENCHMARK.json names must be present with its unit and every check pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            run = run_workload(workload, workloads.DEFAULT_SEED, 1, trace, smoke=True)
            summary = run["summary"]
            got = {name: m["unit"] for name, m in summary["metrics"].items()}
            label = f"{workload} trace {trace}"
            if got != expected[trace]:
                bad.append(f"{label}: metrics {sorted(set(got) ^ set(expected[trace]))}"
                           " missing, extra or with another unit")
            if not summary["correct"] or summary["failed"]:
                bad.append(f"{label}: checks failed: {run['problems'][:3]}")
            print(f"smoke {label}: {summary['attempted']} ops, "
                  f"{summary['failed']} failed, {len(got)} metrics")
    for line in bad:
        print("smoke problem:", line)
    print("smoke", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at small scale and check the output")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    save(run)
    report(run)
    print(json.dumps(run["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
