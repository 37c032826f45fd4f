"""The process that runs a workload's ops: one op at a time, one client.

Started by run.py after set-up. Without tracing it runs warm-up ops, then
times ops until ``--seconds`` have passed. With ``--trace 1`` it alternates
untraced and traced ops, so the tracing overhead is measured in one process.
It writes per-op times, outcomes, spans and its peak RSS to ``--result``.
After every op but the first it times the calibration kernel; each op
carries the mean of the kernel times just before and just after it.

The peak resident set is read from ``VmHWM``, which belongs to this
process's own memory image, so the parent's set-up memory does not count in
it (``ru_maxrss`` would carry the parent's high-water mark over through
exec). The reported peak is the one after the first op, the peak of one op
in a fresh process as a CLI user sees it. Later ops raise the high-water mark
in rare steps of a few MB, so a peak over the whole run would depend on how
many ops fit in it.
"""

from __future__ import annotations

import argparse
import json
import time
import traceback
from pathlib import Path

import calibration
import tracing
import workloads

# warm-up runs at least one op and at least this long: the first op in a
# fresh process is slower than the ones after it
WARMUP_SECONDS = 1.0
MIN_TIMED_OPS = 3


def peak_rss_bytes() -> int:
    """Peak resident set of this process image, from ``VmHWM`` (in KiB)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--scene", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    scene = workloads.Scene(args.workload, Path(args.scene))
    op = workloads.make_op(scene, Path(args.out_dir))
    tracer = tracing.Tracer()
    # built after the first op, so that its memory stays out of the peak
    kernel = kernel_before = None
    ops = []

    def run(phase: str, traced: bool) -> None:
        nonlocal kernel_before
        i = len(ops)
        record = {"index": i, "phase": phase, "traced": traced,
                  "seconds": None, "kernel_seconds": None,
                  "outcome": None, "error": None}
        try:
            if traced:
                with tracer.patched(), tracer.span("op", op=i):
                    started = time.perf_counter()
                    outcome = op(i)
                    record["seconds"] = time.perf_counter() - started
            else:
                started = time.perf_counter()
                outcome = op(i)
                record["seconds"] = time.perf_counter() - started
            record["outcome"] = workloads.summarize_outcome(args.workload, outcome)
        except Exception:  # an op that raises is counted as failed, not fatal
            record["error"] = traceback.format_exc(limit=5)
        if kernel is not None:
            kernel_after = kernel.seconds()
            record["kernel_seconds"] = (kernel_before + kernel_after) / 2
            kernel_before = kernel_after
        ops.append(record)

    started = time.perf_counter()
    run("warmup", traced=False)
    peak_rss_mb = peak_rss_bytes() / 1e6
    kernel = calibration.Kernel()
    kernel_before = kernel.seconds()
    while time.perf_counter() - started < WARMUP_SECONDS:
        run("warmup", traced=False)
    started = time.perf_counter()
    timed = 0
    while timed < MIN_TIMED_OPS or time.perf_counter() - started < args.seconds:
        run("timed", traced=bool(args.trace) and timed % 2 == 1)
        timed += 1

    Path(args.result).write_text(json.dumps({
        "ops": ops, "peak_rss_mb": peak_rss_mb,
        "spans": tracer.spans}), encoding="utf-8")


if __name__ == "__main__":
    main()
