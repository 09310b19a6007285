"""Command-line interface for auditable batch workflows.

Exit codes:

* 0 -- every evaluated VR satisfied (or not applicable); for ``validate``
  and ``coverage``: valid and gap-free
* 1 -- at least one VR violated
* 2 -- at least one VR pending or in error (and none violated); for
  ``validate`` and ``coverage``: valid but with coverage gaps
* 3 -- usage or input error

Set ``LAISC_NOW`` (ISO-8601, UTC) to pin the clock; evidence written by
``metric`` subcommands and report timestamps then become reproducible
byte for byte.  Evidence files are append-only: ``metric`` subcommands
add records, they never rewrite existing ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

from laisc import evaluation, io, metrics, report
from laisc.errors import LaiscError
from laisc.io import EvidenceBundle, EvidenceRecord, FlagResolutionLog, MetricResult
from laisc.model import KNOWN_METRIC_IDS, Landscape, fingerprint, rows


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(message)


def _now() -> datetime:
    pinned = os.environ.get("LAISC_NOW")
    if pinned:
        return io.parse_timestamp(pinned)
    return datetime.now(timezone.utc)


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _load_landscape(path: str) -> Landscape:
    return io.parse_landscape(_read(path))


def _load_bundle(path: str) -> EvidenceBundle:
    """The bundle a ``metric`` subcommand appends to; a missing file is empty."""
    if Path(path).exists():
        return io.parse_evidence(_read(path))
    return EvidenceBundle(records=(), source="")


def _emit(data: bytes) -> None:
    sys.stdout.write(data.decode("utf-8"))


# --- validate / coverage ------------------------------------------------------


def _print_gaps(gaps) -> None:
    for gap in gaps:
        print(f"  {gap.kind.value}: {gap.subject_id}")


def cmd_validate(args: argparse.Namespace) -> int:
    landscape = _load_landscape(args.landscape)
    row_count = len(rows(landscape))
    gaps = evaluation.coverage(landscape)
    print(
        f"landscape '{landscape.name}' is valid: "
        f"{len(landscape.concerns)} concerns, {len(landscape.goals)} goals, "
        f"{len(landscape.vrs)} VRs, {row_count} rows"
    )
    print(f"fingerprint: {fingerprint(landscape)}")
    print(f"coverage gaps: {len(gaps)}")
    _print_gaps(gaps)
    return 0 if not gaps else 2


def cmd_coverage(args: argparse.Namespace) -> int:
    landscape = _load_landscape(args.landscape)
    gaps = evaluation.coverage(landscape)
    print(f"coverage gaps: {len(gaps)}")
    _print_gaps(gaps)
    return 0 if not gaps else 2


# --- evaluate -----------------------------------------------------------------


_EXIT_BY_STATUS = {
    evaluation.Status.SATISFIED: 0,
    evaluation.Status.NOT_APPLICABLE: 0,
    evaluation.Status.VIOLATED: 1,
    evaluation.Status.PENDING: 2,
    evaluation.Status.ERROR: 2,
}


def cmd_evaluate(args: argparse.Namespace) -> int:
    landscape = _load_landscape(args.landscape)
    bundle = io.parse_evidence(_read(args.evidence))
    flt = evaluation.Filter(
        concern=args.concern, stage=args.stage, component=args.component, status=args.status
    )
    result = evaluation.evaluate(landscape, bundle, flt=flt, now=_now())
    _emit(report.serialize_report(result, args.format))
    return _EXIT_BY_STATUS[result.worst_status()]


# --- metric subcommands ---------------------------------------------------------


def _next_record_id(bundle: EvidenceBundle) -> str:
    existing = {record.id for record in bundle.records}
    index = len(bundle.records)
    while f"rec-{index:04d}" in existing:
        index += 1
    return f"rec-{index:04d}"


def _append_records(path: str, bundle: EvidenceBundle, new_records) -> None:
    updated = EvidenceBundle(records=bundle.records + tuple(new_records), source=bundle.source)
    Path(path).write_bytes(io.serialize_evidence(updated))


def _collect_warnings(caught) -> str:
    notes = [
        str(entry.message)
        for entry in caught
        if issubclass(entry.category, metrics.SmallSampleWarning)
    ]
    return "; ".join(notes)


def _metric_record(
    args: argparse.Namespace,
    metric_id: str,
    dataset_ids: tuple[str, ...],
    value: float,
    config_note: str,
) -> int:
    landscape = _load_landscape(args.landscape)
    bundle = _load_bundle(args.out)
    record = EvidenceRecord(
        id=_next_record_id(bundle),
        vr_id=args.vr,
        landscape_fingerprint=fingerprint(landscape),
        timestamp=_now(),
        payload=MetricResult(metric_id, dataset_ids, value, config_note),
    )
    _append_records(args.out, bundle, [record])
    print(f"{metric_id} = {value!r}")
    print(f"appended {record.id} to {args.out}")
    return 0


def _grid_paths(path: str) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        found = sorted(p.glob("*.grid"))
        if not found:
            raise _UsageError(f"no *.grid files in {path}")
        return found
    return [p]


def cmd_metric_miou(args: argparse.Namespace) -> int:
    pred_paths = _grid_paths(args.pred)
    truth_paths = _grid_paths(args.truth)
    if len(pred_paths) != len(truth_paths):
        raise _UsageError(
            f"{len(pred_paths)} prediction grids vs {len(truth_paths)} ground-truth grids"
        )
    preds = [io.read_grid(p.read_bytes()) for p in pred_paths]
    truths = [io.read_grid(p.read_bytes()) for p in truth_paths]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = metrics.miou(preds, truths, min_samples=args.min_samples)
    note = f"pairs={len(preds)}"
    warned = _collect_warnings(caught)
    if warned:
        note += f"; warning: {warned}"
    return _metric_record(args, "miou", (args.dataset,), value, note)


def cmd_metric_gap(args: argparse.Namespace) -> int:
    value = metrics.performance_gap(args.a, args.b)
    # The record binds to the indicator the two values came from, so it can
    # satisfy a gap requirement declared over that metric.
    return _metric_record(args, args.metric, (args.dataset_a, args.dataset_b), value, "gap")


def cmd_metric_nap(args: argparse.Namespace) -> int:
    table_a = io.read_activations(_read(args.a))
    table_b = io.read_activations(_read(args.b))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = metrics.nap_distance(table_a, table_b, min_samples=args.min_samples)
    note = "gap"
    warned = _collect_warnings(caught)
    if warned:
        note += f"; warning: {warned}"
    return _metric_record(args, "nap_distance", (args.dataset_a, args.dataset_b), value, note)


def cmd_metric_clm(args: argparse.Namespace) -> int:
    table = io.read_prob_table(_read(args.probs))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = metrics.clm_flags(table, args.threshold, min_samples=args.min_samples)
    landscape = _load_landscape(args.landscape)
    bundle = _load_bundle(args.out)
    flagged_fraction = len(result.flagged_ids) / len(table.rows) if table.rows else 0.0
    note = f"threshold={args.threshold:g}; flagged={len(result.flagged_ids)}/{len(table.rows)}"
    warned = _collect_warnings(caught)
    if warned:
        note += f"; warning: {warned}"
    current = fingerprint(landscape)
    stamp = _now()
    metric_record = EvidenceRecord(
        id=_next_record_id(bundle),
        vr_id=args.vr,
        landscape_fingerprint=current,
        timestamp=stamp,
        payload=MetricResult("clm_flags", (args.dataset,), flagged_fraction, note),
    )
    with_metric = EvidenceBundle(bundle.records + (metric_record,), source=bundle.source)
    flag_record = EvidenceRecord(
        id=_next_record_id(with_metric),
        vr_id=args.vr,
        landscape_fingerprint=current,
        timestamp=stamp,
        payload=FlagResolutionLog(args.dataset, flagged_ids=result.flagged_ids, entries=()),
    )
    _append_records(args.out, bundle, [metric_record, flag_record])
    print(f"clm_flags = {flagged_fraction!r} ({len(result.flagged_ids)} flagged)")
    for instance_id in result.flagged_ids:
        print(f"  flagged: {instance_id}")
    print(f"appended {metric_record.id}, {flag_record.id} to {args.out}")
    return 0


# --- perturb / augment-labels ------------------------------------------------------


def _perturbation_from_args(args: argparse.Namespace) -> metrics.PerturbationSpec:
    kind = args.kind
    if kind == "brightness":
        return metrics.BrightnessShift(delta=args.delta)
    if kind == "contrast":
        return metrics.ContrastScale(factor=args.factor)
    if kind == "noise":
        return metrics.GaussianNoise(sigma=args.sigma, seed=args.seed)
    if kind == "occlusion":
        return metrics.OcclusionPatch(x=args.x, y=args.y, w=args.w, h=args.h)
    if kind == "hflip":
        return metrics.HorizontalFlip()
    if kind == "rot90":
        return metrics.Rotate90(k=args.k)
    raise _UsageError(f"unknown perturbation kind {kind!r}")  # pragma: no cover


def _spec_manifest(spec) -> dict:
    node = {"kind": type(spec).__name__}
    for name in getattr(spec, "__dataclass_fields__", {}):
        node[name] = getattr(spec, name)
    return node


def _write_manifest(out_dir: Path, operation: str, spec, inputs: dict[str, str]) -> None:
    manifest = {"operation": operation, "spec": _spec_manifest(spec), "inputs": inputs}
    (out_dir / "manifest.json").write_bytes(
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
    )


def cmd_perturb(args: argparse.Namespace) -> int:
    image = io.read_grid(_read(args.image))
    mask = io.read_grid(_read(args.mask))
    spec = _perturbation_from_args(args)
    new_image, new_mask = metrics.perturb(image, mask, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "image.grid").write_bytes(io.write_grid(new_image))
    (out_dir / "mask.grid").write_bytes(io.write_grid(new_mask))
    _write_manifest(out_dir, "perturb", spec, {"image": args.image, "mask": args.mask})
    print(f"wrote image.grid, mask.grid, manifest.json to {args.out}")
    return 0


def _augmentation_from_args(args: argparse.Namespace) -> metrics.LabelAugmentationSpec:
    kind = args.kind
    if kind == "flip":
        return metrics.RandomPixelFlip(rate=args.rate, seed=args.seed)
    if kind == "dilate":
        return metrics.MaskDilate(radius=args.radius)
    if kind == "erode":
        return metrics.MaskErode(radius=args.radius)
    if kind == "translate":
        return metrics.MaskTranslate(dx=args.dx, dy=args.dy)
    raise _UsageError(f"unknown augmentation kind {kind!r}")  # pragma: no cover


def cmd_augment_labels(args: argparse.Namespace) -> int:
    mask = io.read_grid(_read(args.mask))
    spec = _augmentation_from_args(args)
    new_mask = metrics.augment_labels(mask, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "mask.grid").write_bytes(io.write_grid(new_mask))
    _write_manifest(out_dir, "augment-labels", spec, {"mask": args.mask})
    print(f"wrote mask.grid, manifest.json to {args.out}")
    return 0


# --- parser ---------------------------------------------------------------------


def _add_metric_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--landscape", required=True, help="landscape definition (*.laisc.json)")
    parser.add_argument("--vr", required=True, help="VR id the evidence is addressed to")
    parser.add_argument("--out", required=True, help="evidence bundle to append to (*.evidence.json)")
    parser.add_argument(
        "--min-samples",
        type=int,
        default=metrics.DEFAULT_MIN_SAMPLES,
        help="sample count below which a significance warning is recorded",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="laisc", description="Evaluate AI safety concern landscapes against evidence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check structure and coverage of a landscape file")
    p_validate.add_argument("--landscape", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_coverage = sub.add_parser("coverage", help="list structural blind spots of a landscape")
    p_coverage.add_argument("--landscape", required=True)
    p_coverage.set_defaults(func=cmd_coverage)

    p_evaluate = sub.add_parser("evaluate", help="evaluate evidence and render the report")
    p_evaluate.add_argument("--landscape", required=True)
    p_evaluate.add_argument("--evidence", required=True)
    p_evaluate.add_argument("--concern")
    p_evaluate.add_argument("--stage")
    p_evaluate.add_argument("--component")
    p_evaluate.add_argument("--status")
    p_evaluate.add_argument("--format", choices=report.REPORT_FORMATS, default="table")
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_metric = sub.add_parser("metric", help="compute a metric and append it as evidence")
    metric_sub = p_metric.add_subparsers(dest="metric", required=True)

    p_miou = metric_sub.add_parser("miou", help="mean IoU over paired mask files")
    p_miou.add_argument("--pred", required=True, help="prediction grid file or directory")
    p_miou.add_argument("--truth", required=True, help="ground-truth grid file or directory")
    p_miou.add_argument("--dataset", required=True, help="dataset id the result is bound to")
    _add_metric_common(p_miou)
    p_miou.set_defaults(func=cmd_metric_miou)

    p_gap = metric_sub.add_parser("gap", help="absolute difference of two indicator values")
    p_gap.add_argument("--a", type=float, required=True)
    p_gap.add_argument("--b", type=float, required=True)
    p_gap.add_argument("--dataset-a", required=True)
    p_gap.add_argument("--dataset-b", required=True)
    p_gap.add_argument(
        "--metric",
        default="gap",
        choices=sorted(KNOWN_METRIC_IDS),
        help="metric id the two values were measured with",
    )
    _add_metric_common(p_gap)
    p_gap.set_defaults(func=cmd_metric_gap)

    p_nap = metric_sub.add_parser("nap", help="activation distribution distance between two tables")
    p_nap.add_argument("--a", required=True, help="first activation table (*.acts.csv)")
    p_nap.add_argument("--b", required=True, help="second activation table (*.acts.csv)")
    p_nap.add_argument("--dataset-a", required=True)
    p_nap.add_argument("--dataset-b", required=True)
    _add_metric_common(p_nap)
    p_nap.set_defaults(func=cmd_metric_nap)

    p_clm = metric_sub.add_parser("clm", help="score labels and flag likely errors")
    p_clm.add_argument("--probs", required=True, help="probability table (*.probs.csv)")
    p_clm.add_argument("--threshold", type=float, required=True)
    p_clm.add_argument("--dataset", required=True)
    _add_metric_common(p_clm)
    p_clm.set_defaults(func=cmd_metric_clm)

    p_perturb = sub.add_parser("perturb", help="write a perturbed copy of an image/mask pair")
    p_perturb.add_argument("--image", required=True)
    p_perturb.add_argument("--mask", required=True)
    p_perturb.add_argument(
        "--kind", required=True, choices=("brightness", "contrast", "noise", "occlusion", "hflip", "rot90")
    )
    p_perturb.add_argument("--delta", type=int, default=0)
    p_perturb.add_argument("--factor", type=float, default=1.0)
    p_perturb.add_argument("--sigma", type=float, default=0.0)
    p_perturb.add_argument("--seed", type=int, default=0)
    p_perturb.add_argument("--x", type=int, default=0)
    p_perturb.add_argument("--y", type=int, default=0)
    p_perturb.add_argument("--w", type=int, default=1)
    p_perturb.add_argument("--h", type=int, default=1)
    p_perturb.add_argument("--k", type=int, default=1)
    p_perturb.add_argument("--out", required=True)
    p_perturb.set_defaults(func=cmd_perturb)

    p_augment = sub.add_parser("augment-labels", help="write a controlled label defect into a mask")
    p_augment.add_argument("--mask", required=True)
    p_augment.add_argument("--kind", required=True, choices=("flip", "dilate", "erode", "translate"))
    p_augment.add_argument("--rate", type=float, default=0.0)
    p_augment.add_argument("--seed", type=int, default=0)
    p_augment.add_argument("--radius", type=int, default=1)
    p_augment.add_argument("--dx", type=int, default=0)
    p_augment.add_argument("--dy", type=int, default=0)
    p_augment.add_argument("--out", required=True)
    p_augment.set_defaults(func=cmd_augment_labels)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LaiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
