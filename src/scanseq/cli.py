"""Command-line interface.

Subcommands::

    scanseq evaluate  --gt manifest.json --pred preds.json --out report.json
    scanseq associate --mode {semantic,geometric} --pred-a a.json --pred-b b.json
                      --manifest manifest.json --out merged.json
    scanseq generate  --recipe recipe.json --out scene_dir/
    scanseq serialize --curve {zorder,hilbert,zorder-trans,hilbert-trans}
                      --dims {3,4} --manifest manifest.json --out order.json
    scanseq losses    --op {contrastive,cost,fourier,pool} --in in.json --out out.json

Exit codes: 0 success; 2 validation failure: the inputs are well formed but
cannot be scored, generated or computed (violations on stderr, each after its
file's name); 64 usage error: a bad flag or option value; 74 I/O or
file-format failure: a file that cannot be read or does not follow its schema,
named in the message. README "CLI" gives each subcommand's cases and "File
formats" each schema's rules.
``evaluate`` accepts repeated --gt/--pred pairs and evaluates them one after
another. Every JSON output is compact canonical JSON; ``serialize`` writes
the voxel order, not the voxel keys, which the manifest and --resolution
determine.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import association, curves, formats, metrics, numerics, synth
from .geometry import DEFAULT_RESOLUTION, voxelize
from .model import GroundTruthAnnotation, _number, validate_sequence
from .ply import PlyError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_IO = 74

# the most values one array of a losses op may hold: fourier's draw, (d_out / 2, 4),
# and output, (rows, d_out); cost's (P, G) matrices; contrastive's (S, S) ones.
# A value written as JSON takes ~90 B at peak (x86-64), so a run stays near 1 GB
_LOSSES_MAX_VALUES = 10 ** 7

_CURVE_FLAGS = {
    "zorder": curves.Curve.Z_ORDER,
    "hilbert": curves.Curve.HILBERT,
    "zorder-trans": curves.Curve.Z_ORDER_TRANS,
    "hilbert-trans": curves.Curve.HILBERT_TRANS,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_from(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "integer"  # argparse names a type by it: "invalid integer value"
    return parse


def _positive_finite_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    if formats._to_json(value) != value:  # the "resolution" written would name another
        raise argparse.ArgumentTypeError(f"must have at most 6 significant digits, got {text}")
    return value


_positive_finite_float.__name__ = "positive number"


def _parse_thresholds(text: str) -> tuple[float, ...]:
    values: list[float] = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            values += metrics.SWEEP_THRESHOLDS if token == "sweep" else [float(token)]
        except ValueError:
            raise argparse.ArgumentTypeError(f"threshold {token!r} is not a number") from None
    try:
        return metrics._thresholds(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="scanseq",
                     description="Temporal instance segmentation tooling")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    p_eval.add_argument("--gt", action="append", required=True,
                        help="sequence manifest JSON (repeatable)")
    p_eval.add_argument("--pred", action="append", required=True,
                        help="prediction file JSON (pairs with --gt)")
    p_eval.add_argument("--thresholds", type=_parse_thresholds,
                        default=metrics.DEFAULT_THRESHOLDS,
                        help="comma-separated IoU thresholds; the word 'sweep' "
                             "expands to 0.50:0.95 step 0.05")
    p_eval.add_argument("--per-change-type", action="store_true",
                        help="include per-change-type recall in the report")
    p_eval.add_argument("--seed", type=_int_from(0), default=0,
                        help="seed for ambiguous-group disambiguation")
    p_eval.add_argument("--out", required=True)

    p_assoc = sub.add_parser("associate", help="lift per-stage predictions to 4D")
    p_assoc.add_argument("--mode", choices=("semantic", "geometric"), required=True)
    p_assoc.add_argument("--pred-a", required=True)
    p_assoc.add_argument("--pred-b", required=True)
    p_assoc.add_argument("--manifest", required=True)
    p_assoc.add_argument("--out", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic scene")
    p_gen.add_argument("--recipe", required=True)
    p_gen.add_argument("--out", required=True)

    p_ser = sub.add_parser("serialize", help="order voxels along a space-filling curve")
    p_ser.add_argument("--curve", choices=tuple(_CURVE_FLAGS), required=True)
    p_ser.add_argument("--dims", choices=("3", "4"), required=True)
    p_ser.add_argument("--manifest", required=True)
    p_ser.add_argument("--resolution", type=_positive_finite_float,
                       default=DEFAULT_RESOLUTION)
    p_ser.add_argument("--bits", type=_int_from(1), default=curves.DEFAULT_BITS_PER_AXIS,
                       help="bits per axis; at most 64 // dims")
    p_ser.add_argument("--out", required=True)

    p_loss = sub.add_parser("losses", help="run a numeric op on a JSON payload")
    p_loss.add_argument("--op", choices=("contrastive", "cost", "fourier", "pool"),
                        required=True)
    p_loss.add_argument("--in", dest="input", required=True)
    p_loss.add_argument("--out", required=True)
    return parser


def _read_checked_predictions(path, seq, gt):
    """A prediction file's content and its violations against ``seq`` and
    ``gt``: a foreign sequence id, then every ``validate_sequence`` finding."""
    pred_file = formats.read_predictions(path, seq.stage_sizes())
    violations = []
    if pred_file.sequence_id and pred_file.sequence_id != seq.sequence_id:
        violations.append(
            f"sequence_id_mismatch: predictions are for "
            f"{pred_file.sequence_id!r}, manifest is {seq.sequence_id!r}")
    violations.extend(f"{v.code}: {v.message}"
                      for v in validate_sequence(seq, gt, pred_file.instances))
    return pred_file, violations


def _print_violations(path, violations) -> bool:
    for v in violations:
        print(f"{path}: {v}", file=sys.stderr)
    return bool(violations)


def _evaluate_one(gt_path: str, pred_path: str, taus, seed: int):
    try:
        seq, gt = formats._read_manifest(gt_path, geometry=False)  # scoring reads no geometry
        pred_file, violations = _read_checked_predictions(pred_path, seq, gt)
        if violations:
            return None, violations
        return metrics.evaluate(seq, gt, pred_file.instances, taus, rng_seed=seed), []
    except MemoryError as exc:
        raise ValueError(f"{pred_path}: too large to score against {gt_path} "
                         f"({str(exc) or 'out of memory'})") from exc


def _cmd_evaluate(args) -> int:
    if len(args.gt) != len(args.pred):
        print("error: --gt and --pred must be paired", file=sys.stderr)
        return EXIT_USAGE
    pairs = list(zip(args.gt, args.pred))
    outcomes = [_evaluate_one(g, p, args.thresholds, args.seed) for g, p in pairs]

    failed = [_print_violations(gt_path, violations)
              for (gt_path, _), (_, violations) in zip(pairs, outcomes)]
    if any(failed):
        return EXIT_VALIDATION
    reports = [report for report, _ in outcomes]

    entries = [formats.report_to_dict(r)
               for r in sorted(reports, key=lambda r: r.sequence_id)]
    if not args.per_change_type:
        for entry in entries:
            entry.pop("per_change_recall")
    payload = entries[0] if len(entries) == 1 else {
        "schema_version": formats.SCHEMA_VERSION, "kind": "evaluation_reports",
        "reports": entries}
    formats.dump_canonical_json(args.out, payload)
    return EXIT_OK


def _cmd_associate(args) -> int:
    seq = formats._read_manifest(args.manifest, geometry=True)[0]
    inputs, stages, failed, width = [], [], False, None
    for path in (args.pred_a, args.pred_b):
        content, violations = _read_checked_predictions(path, seq,
                                                        GroundTruthAnnotation(()))
        if not violations:
            try:
                stages.append(association._stage_of(content.instances))
            except ValueError as exc:
                violations.append(str(exc))
        if args.mode == "semantic":
            found, width = association._feature_violations(content.instances,
                                                           content.features, width)
            violations += found
        failed |= _print_violations(path, violations)
        inputs.append(content)
    if failed:
        return EXIT_VALIDATION
    try:
        association._check_two_stages(*stages)
    except ValueError as exc:
        _print_violations(f"{args.pred_a}, {args.pred_b}", [str(exc)])
        return EXIT_VALIDATION
    a, b = inputs
    if args.mode == "semantic":
        merged = association.associate_semantic(a.instances, b.instances,
                                                a.features, b.features)
    else:
        a_stage, b_stage = stages
        merged = association.associate_geometric(
            a.instances, seq.stages[b_stage], seq.stages[a_stage], b_stage=b_stage)
    formats.write_predictions(args.out, merged, seq.sequence_id)
    return EXIT_OK


def _cmd_generate(args) -> int:
    recipe_data = formats.load_json(args.recipe)
    try:
        spec = (synth.PerturbationSpec(**recipe_data.pop("perturbation"))
                if "perturbation" in recipe_data else None)
        recipe = synth.SceneRecipe(**recipe_data)
    except (TypeError, ValueError) as exc:
        raise formats.FormatError(f"{args.recipe}: bad recipe ({exc})") from exc
    try:
        seq, gt = synth.generate(recipe)
    except (MemoryError, OverflowError) as exc:
        raise synth.SceneGenerationError(f"scene too large to realize ({exc})") from exc
    formats.write_manifest(args.out, seq, gt)
    if spec is not None:
        preds = synth.perturb(seq, gt, spec)
        formats.write_predictions(Path(args.out) / "predictions.json", preds,
                                  seq.sequence_id)
    return EXIT_OK


def _cmd_serialize(args) -> int:
    if int(args.dims) * args.bits > 64:
        print(f"error: --bits {args.bits} exceeds {64 // int(args.dims)} "
              f"for --dims {args.dims}", file=sys.stderr)
        return EXIT_USAGE
    # the ground truth is not needed: dropping it at once frees its labels
    # before voxelize allocates
    seq = formats._read_manifest(args.manifest, geometry=True)[0]
    grid = voxelize(seq, resolution=args.resolution)
    pattern = curves.SerializationPattern(
        _CURVE_FLAGS[args.curve],
        curves.SerializationDims.SPATIAL_3D if args.dims == "3"
        else curves.SerializationDims.SPATIOTEMPORAL_4D)
    order = curves.serialize_sequence(grid, pattern, bits_per_axis=args.bits)
    payload = {
        "schema_version": formats.SCHEMA_VERSION,
        "kind": "serialization_order",
        "sequence_id": seq.sequence_id,
        "resolution": args.resolution,
        "curve": pattern.curve.value,
        "dims": pattern.dims.value,
        "num_voxels": grid.num_voxels,
        "order": order,
    }
    formats.dump_canonical_json(args.out, payload)
    return EXIT_OK


def _check_size(op: str, values: int, sizes: str) -> None:
    """Refuse, before any numeric work, an op whose largest array the payload
    sizes past :data:`_LOSSES_MAX_VALUES`."""
    if values > _LOSSES_MAX_VALUES:
        raise ValueError(f"{op} output too large to compute: {sizes} exceed "
                         f"{_LOSSES_MAX_VALUES} values")


def _loss_payload(op: str, data: dict) -> dict:
    if op == "contrastive":
        ids = data["instance_ids"]
        n = np.size(ids)
        _check_size(op, n * n, f"{n} by {n} instance pairs")
        relation = numerics.relation_from_instance_ids(ids)
        return {"loss": numerics.contrastive_loss(data["features"], relation)}
    if op == "cost":
        cfg = numerics.AssignmentCostConfig(**data.get("lambdas", {}))
        arrays = [data[key] for key in ("pred_mask_logits", "pred_class_logits",
                                        "gt_masks", "gt_classes")]
        n_pred, n_gt = len(np.atleast_2d(arrays[0])), len(np.atleast_2d(arrays[2]))
        _check_size(op, n_pred * n_gt, f"{n_pred} predictions by {n_gt} ground-truth masks")
        result = numerics.assignment_cost(*arrays, cfg)
        # not dataclasses.asdict, whose deep copy would copy the cost matrix
        return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    if op == "fourier":
        rows = np.size(data["coords"]) // 4  # fourier_features_4d refuses other widths
        d_out = _number(data["d_out"], "d_out", int)
        _check_size(op, max(2, rows) * d_out, f"{rows} coords at d_out {d_out}")
        matrix = numerics.gaussian_projection_matrix(
            d_out, data["seed"], _number(data.get("scale", 1.0), "scale"))
        return {"features": numerics.fourier_features_4d(data["coords"], matrix)}
    return {"mask": numerics.st_pool_masks(data["coords"], data["mask"])}  # pool


def _cmd_losses(args) -> int:
    data = formats.load_json(args.input)
    try:
        with np.errstate(all="ignore"):  # a non-finite result is refused when written
            payload = _loss_payload(args.op, data)
        payload["schema_version"] = formats.SCHEMA_VERSION
        formats.dump_canonical_json(args.out, payload)
    except (KeyError, IndexError, TypeError, OverflowError) as exc:
        raise formats.FormatError(
            f"{args.input}: bad {args.op} input ({type(exc).__name__}: {exc})") from exc
    except MemoryError as exc:  # computing the output or turning it into JSON
        raise ValueError(f"{args.op} output too large to compute ({exc})") from exc
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handlers = {
        "evaluate": _cmd_evaluate,
        "associate": _cmd_associate,
        "generate": _cmd_generate,
        "serialize": _cmd_serialize,
        "losses": _cmd_losses,
    }
    try:
        return handlers[args.command](args)
    except (OSError, PlyError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, synth.SceneGenerationError,
            synth.PerturbationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # an allocation no command sized in advance
        print(f"error: {args.command} ran out of memory" + (f" ({exc})" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
