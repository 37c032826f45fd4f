"""Spans and counts recorded around scanseq's public entry points.

The tracer replaces module attributes while a traced op runs, so nothing in
``src/`` changes. Functions that a module imports by name are patched where
they are called (``scanseq.cli.voxelize``, ``scanseq.formats.read_ply``, ...).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager

from scanseq.curves import Curve


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return os.stat(_arg(args, kwargs, 0, "path")).st_size


def _curve_layer(args, kwargs):
    curve = Curve(_arg(args, kwargs, 1, "curve"))
    hilbert = curve in (Curve.HILBERT, Curve.HILBERT_TRANS)
    return "curves.encode_keys." + ("hilbert" if hilbert else "z_order")


# (module, attribute, span name or fn(args, kwargs) -> name, count or None)
# A count is fn(args, kwargs, result) -> int, taken after the call returns.
PATCHES = (
    ("scanseq.cli", "main", "cli.main", None),
    ("scanseq.cli", "validate_sequence", "model.validate_sequence", None),
    ("scanseq.cli", "voxelize", "geometry.voxelize",
     lambda a, kw, r: r.num_voxels),
    ("scanseq.formats", "load_json", "formats.load_json", _file_bytes),
    ("scanseq.formats", "rle_decode", "formats.rle_decode",
     lambda a, kw, r: len(_arg(a, kw, 0, "runs"))),
    ("scanseq.formats", "read_manifest", "formats.read_manifest", None),
    ("scanseq.formats", "read_predictions", "formats.read_predictions", None),
    ("scanseq.formats", "read_ply", "ply.read_ply", _file_bytes),
    ("scanseq.formats", "dump_canonical_json", "formats.dump_canonical_json",
     _file_bytes),
    ("scanseq.formats", "write_manifest", "formats.write_manifest", None),
    ("scanseq.formats", "write_predictions", "formats.write_predictions", None),
    ("scanseq.metrics", "evaluate", "metrics.evaluate", None),
    ("scanseq.metrics", "resolve_prediction_overlaps",
     "metrics.resolve_prediction_overlaps", None),
    ("scanseq.metrics", "disambiguate", "metrics.disambiguate",
     lambda a, kw, r: len(_arg(a, kw, 2, "candidate_preds"))),
    ("scanseq.metrics", "average_precision", "metrics.average_precision", None),
    ("scanseq.geometry", "voxelize", "geometry.voxelize",
     lambda a, kw, r: r.num_voxels),
    ("scanseq.geometry", "downsample_level", "geometry.downsample_level", None),
    ("scanseq.curves", "serialize_sequence", "curves.serialize_sequence", None),
    ("scanseq.curves", "encode_keys", _curve_layer, lambda a, kw, r: len(r)),
    ("scanseq.synth", "generate", "synth.generate", None),
    ("scanseq.synth", "perturb", "synth.perturb", None),
)


class Tracer:
    """Records spans (id, name, start, end, parent, op, count) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        record = {"id": len(self.spans), "name": name, "op": op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "count": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self.spans[self._stack[-1]] if self._stack else None
            with self.span(label, parent and parent["op"]) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record["count"] = count(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Replace every entry point in PATCHES by a traced wrapper."""
        saved = []
        try:
            for module_name, attr, name, count in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# The per-layer metrics: name -> (unit, span names, field, phase). Field "s"
# sums span durations, "self_s" self times, "count" the recorded counts and
# "calls" the number of spans. Phase "op" values are per traced op, phase
# "setup" values per set-up.
LAYER_METRICS = {
    "cli.main.self_s": ("s", ("cli.main",), "self_s", "op"),
    "formats.load_json.s": ("s", ("formats.load_json",), "s", "op"),
    "formats.load_json.bytes": ("bytes", ("formats.load_json",), "count", "op"),
    "formats.rle_decode.s": ("s", ("formats.rle_decode",), "s", "op"),
    "formats.rle_decode.runs": ("count", ("formats.rle_decode",), "count", "op"),
    "formats.read_predictions.self_s":
        ("s", ("formats.read_predictions",), "self_s", "op"),
    "formats.read_manifest.self_s": ("s", ("formats.read_manifest",), "self_s", "op"),
    "ply.read_ply.s": ("s", ("ply.read_ply",), "s", "op"),
    "ply.read_ply.bytes": ("bytes", ("ply.read_ply",), "count", "op"),
    "formats.dump_canonical_json.s": ("s", ("formats.dump_canonical_json",), "s", "op"),
    "formats.dump_canonical_json.bytes":
        ("bytes", ("formats.dump_canonical_json",), "count", "op"),
    "formats.write_manifest.s": ("s", ("formats.write_manifest",), "s", "setup"),
    "formats.write_predictions.s": ("s", ("formats.write_predictions",), "s", "setup"),
    "model.validate_sequence.s": ("s", ("model.validate_sequence",), "s", "op"),
    "metrics.evaluate.self_s": ("s", ("metrics.evaluate",), "self_s", "op"),
    "metrics.disambiguate.s": ("s", ("metrics.disambiguate",), "s", "op"),
    "metrics.disambiguate.calls": ("count", ("metrics.disambiguate",), "calls", "op"),
    "metrics.disambiguate.candidates":
        ("count", ("metrics.disambiguate",), "count", "op"),
    "metrics.resolve_prediction_overlaps.s":
        ("s", ("metrics.resolve_prediction_overlaps",), "s", "op"),
    "metrics.average_precision.calls":
        ("count", ("metrics.average_precision",), "calls", "op"),
    "geometry.voxelize.s": ("s", ("geometry.voxelize",), "s", "op"),
    "geometry.voxelize.voxels": ("count", ("geometry.voxelize",), "count", "op"),
    "geometry.downsample_level.s": ("s", ("geometry.downsample_level",), "s", "op"),
    "curves.encode_keys.hilbert.s": ("s", ("curves.encode_keys.hilbert",), "s", "op"),
    "curves.encode_keys.z_order.s": ("s", ("curves.encode_keys.z_order",), "s", "op"),
    "curves.encode_keys.keys":
        ("count", ("curves.encode_keys.hilbert", "curves.encode_keys.z_order"),
         "count", "op"),
    "curves.serialize_sequence.self_s":
        ("s", ("curves.serialize_sequence",), "self_s", "op"),
    "synth.generate.s": ("s", ("synth.generate",), "s", "setup"),
    "synth.perturb.s": ("s", ("synth.perturb",), "s", "setup"),
}


def _group(spans: list[dict], key) -> list[list[dict]]:
    groups: dict = {}
    for s in spans:
        groups.setdefault(key(s), []).append(s)
    return list(groups.values())


def layer_values(op_spans: list[dict], setup_spans: list[dict]) -> dict[str, float]:
    """Every LAYER_METRICS value: the median over traced ops (or set-ups) of
    its per-op (per-set-up) total. Layers an op never reaches read 0."""
    # op and set-up spans come from different processes, so their ids overlap
    own = {"op": self_times(op_spans), "setup": self_times(setup_spans)}
    phases = {"op": _group(op_spans, lambda s: s["op"]),
              "setup": _group(setup_spans, lambda s: s["op"])}
    values = {}
    for metric, (_, names, field, phase) in LAYER_METRICS.items():
        totals = []
        for group in phases[phase]:
            hits = [s for s in group if s["name"] in names]
            if field == "s":
                totals.append(sum(s["end"] - s["start"] for s in hits))
            elif field == "self_s":
                totals.append(sum(own[phase][s["id"]] for s in hits))
            elif field == "count":
                totals.append(sum(s["count"] or 0 for s in hits))
            else:
                totals.append(len(hits))
        values[metric] = statistics.median(totals) if totals else 0
    return values


def breakdown(op_spans: list[dict]) -> list[tuple[str, float, float]]:
    """(span name, mean self time per op, share of the op) for every traced
    name, largest first; the benchmark's own code shows as ``op``."""
    own = self_times(op_spans)
    n_ops = len({s["op"] for s in op_spans}) or 1
    total = sum(s["end"] - s["start"] for s in op_spans if s["name"] == "op")
    per_name: dict[str, float] = {}
    for s in op_spans:
        per_name[s["name"]] = per_name.get(s["name"], 0.0) + own[s["id"]]
    return sorted(((name, t / n_ops, t / total if total else 0.0)
                   for name, t in per_name.items()), key=lambda row: -row[1])
