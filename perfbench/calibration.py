"""A fixed calibration kernel that measures how fast the machine runs now.

On a shared machine the speed of all work swings between states up to
about 2x apart, each lasting from seconds to minutes, so raw op times of
runs made minutes apart spread wider than any useful bound. The benchmark
therefore times this kernel next to every op (and every set-up) and
reports each op's time divided by the kernel's time, scaled by
``REFERENCE_SECONDS``: the time the op would take on a machine that runs
the kernel in exactly that long. The kernel is the benchmark's own code,
so a change to scanseq never changes it, and mixes the kinds of work the
ops do: the pure-Python JSON encoder, numpy sorting, plain interpreter
arithmetic, and numpy passes over 1M-element arrays, larger than a core's
own caches. The small-data part alone swings more than the ops when the
machine slows, and the large-array part alone less than the evaluate ops;
together they follow the ops closest.
"""

from __future__ import annotations

import json
import time

import numpy as np

# the scaled times are op or set-up times on a machine that runs the kernel
# in this long; it is about the kernel's time here when the machine is fast
REFERENCE_SECONDS = 0.2


class Kernel:
    """The calibration kernel with its fixed inputs, built once."""

    def __init__(self) -> None:
        self._records = [{"id": i, "v": [i * 0.25, i * 0.5, i * 1.5], "k": f"n{i}"}
                         for i in range(2000)]
        rng = np.random.default_rng(0)
        self._floats = rng.random(150_000)
        self._ints = rng.integers(0, 1 << 40, 100_000)
        self._big_floats = rng.random(1_000_000)
        self._big_ints = rng.integers(0, 1 << 30, 1_000_000)

    def _work(self) -> int:
        size = len(json.dumps(self._records, indent=1))
        size += int(np.sort(self._floats)[-1] > 0) + len(np.unique(self._ints))
        total = 0
        for i in range(100_000):
            total += i * i % 7
        scaled = self._big_floats * 1.5 + 1.0
        order = np.argsort(self._big_ints, kind="stable")
        mixed = np.bitwise_xor(self._big_ints, self._big_ints >> 3) & 1023
        return size + total + int(scaled[0] > 0) + int(order[0]) + int(mixed[0])

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        started = time.perf_counter()
        self._work()
        return time.perf_counter() - started


def scaled(times: list[float], kernel_times: list[float]) -> list[float]:
    """Each time divided by the kernel time measured around it, in seconds
    at the reference speed."""
    return [t / k * REFERENCE_SECONDS for t, k in zip(times, kernel_times)]
