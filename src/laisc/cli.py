"""Command-line interface for auditable batch workflows.

Exit codes:

* 0 -- every evaluated VR satisfied (or not applicable); for ``validate``
  and ``coverage``: valid and gap-free
* 1 -- at least one VR violated
* 2 -- at least one VR pending or in error (and none violated); for
  ``validate`` and ``coverage``: valid but with coverage gaps
* 3 -- usage or input error

Set ``LAISC_NOW`` (a timestamp such as ``2026-02-01T12:00:00Z``) to pin
the clock; evidence written by ``metric`` subcommands and report
timestamps then become reproducible byte for byte.  Standard output carries UTF-8 whatever the locale says.
Evidence files are append-only: ``metric`` subcommands
add records, they never rewrite existing ones, and each append replaces
the file atomically under a lock on its directory.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import stat
import sys
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

# laisc.metrics is imported by the commands that compute a metric or
# write a perturbed copy: no other command needs the kernels.
from laisc import evaluation, io, report
from laisc.codec import dump_canonical, to_node
from laisc.errors import LaiscError
from laisc.io import EvidenceBundle, EvidenceRecord, FlagResolutionLog, MetricResult
from laisc.model import _GAP_NOTE, KNOWN_METRIC_IDS, Landscape, VerifiableRequirement, fingerprint, rows


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


def _write_stdout(data: bytes) -> None:
    """Write the UTF-8 bytes ``data`` to stdout as they are, whatever
    encoding the locale gave ``sys.stdout``; a text stream without a byte
    buffer (an ``io.StringIO``) takes the decoded text."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        sys.stdout.flush()  # text written before goes out first
        buffer.write(data)


def _say(line: str) -> None:
    """Write one line of text to stdout as UTF-8."""
    _write_stdout(f"{line}\n".encode("utf-8"))


def _load_landscape(path: str) -> Landscape:
    return io.parse_landscape(Path(path).read_bytes())


# --- validate / coverage ------------------------------------------------------


def _print_gaps(gaps) -> None:
    for gap in gaps:
        _say(f"  {gap.kind.value}: {gap.subject_id}")


def cmd_validate(args: argparse.Namespace) -> int:
    landscape = _load_landscape(args.landscape)
    row_count = len(rows(landscape))
    gaps = evaluation.coverage(landscape)
    _say(
        f"landscape '{landscape.name}' is valid: "
        f"{len(landscape.concerns)} concerns, {len(landscape.goals)} goals, "
        f"{len(landscape.vrs)} VRs, {row_count} rows"
    )
    _say(f"fingerprint: {fingerprint(landscape)}")
    _say(f"coverage gaps: {len(gaps)}")
    _print_gaps(gaps)
    return 0 if not gaps else 2


def cmd_coverage(args: argparse.Namespace) -> int:
    landscape = _load_landscape(args.landscape)
    gaps = evaluation.coverage(landscape)
    _say(f"coverage gaps: {len(gaps)}")
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
    bundle = io.parse_evidence(Path(args.evidence).read_bytes())
    result = evaluation.evaluate(landscape, bundle, flt=_spec_from_args(evaluation.Filter, args), now=_now())
    _write_stdout(report.serialize_report(result, args.format))
    return _EXIT_BY_STATUS[result.worst_status()]


# --- metric subcommands ---------------------------------------------------------


def _replace(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data`` through a synced temp file in its
    directory, so a crash leaves the old bytes or the new ones, never a
    truncated file.  The caller holds the directory lock, so the temp
    name only has to differ between processes.  An existing file keeps
    its permission bits; a new one gets 0o666 less the umask, as from
    ``open``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as handle:
            if path.exists():
                os.fchmod(handle.fileno(), stat.S_IMODE(path.stat().st_mode))
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _target(args: argparse.Namespace) -> tuple[Landscape, VerifiableRequirement]:
    """The landscape at ``--landscape`` and its VR ``--vr``."""
    landscape = _load_landscape(args.landscape)
    try:
        return landscape, landscape.vr(args.vr)
    except KeyError:
        raise _UsageError(f"--vr {args.vr!r} is not a VR of {args.landscape}") from None


def _describe(payload: MetricResult | FlagResolutionLog) -> str:
    """A record payload's kind, metric and datasets, as a refusal names them."""
    if isinstance(payload, FlagResolutionLog):
        return f"FlagResolutionLog on {payload.dataset_id!r}"
    return f"MetricResult of {payload.metric_id} on {' and '.join(map(repr, payload.dataset_ids))}"


def _append(args: argparse.Namespace, target: tuple[Landscape, VerifiableRequirement], payloads) -> list[str]:
    """Append one ``--vr`` record per payload to the bundle at ``--out``
    (a missing file is an empty bundle) and return the new record ids.

    Nothing is written unless the ``target`` VR reads one of the records,
    as ``evaluation.reads`` decides, and the new ``EvidenceBundle`` takes
    them: it refuses an infinite gap, say, as the reader would.  An
    exclusive ``flock`` on the bundle's directory, held from the read to
    the replace, keeps concurrent appends from losing records.
    """
    landscape, vr = target
    if not any(evaluation.reads(vr.payload, payload) for payload in payloads):
        refused = "; ".join(map(_describe, payloads))
        raise _UsageError(f"--vr {args.vr!r} is a {vr.kind} that reads none of: {refused}")
    current = fingerprint(landscape)
    path = Path(args.out)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        fcntl.flock(directory, fcntl.LOCK_EX)
        bundle = io.parse_evidence(path.read_bytes()) if path.exists() else EvidenceBundle(())
        stamp = _now()
        records = list(bundle.records)
        taken = {record.id for record in records}
        for payload in payloads:
            index = len(records)
            while f"rec-{index:04d}" in taken:
                index += 1
            record_id = f"rec-{index:04d}"
            taken.add(record_id)
            records.append(EvidenceRecord(record_id, args.vr, current, stamp, payload))
        _replace(path, io.serialize_evidence(EvidenceBundle(tuple(records), source=bundle.source)))
    finally:
        os.close(directory)  # releases the lock
    return [record.id for record in records[len(bundle.records):]]


def _capture_small_samples(compute):
    """The value of ``compute()`` and a ``; warning: ...`` note suffix
    listing its small-sample warnings, empty when there were none."""
    from laisc import metrics

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = compute()
    notes = [
        str(entry.message)
        for entry in caught
        if issubclass(entry.category, metrics.SmallSampleWarning)
    ]
    return value, f"; warning: {'; '.join(notes)}" if notes else ""


def _metric_record(
    args: argparse.Namespace,
    target: tuple[Landscape, VerifiableRequirement],
    metric_id: str,
    dataset_ids: tuple[str, ...],
    value: float,
    config_note: str,
) -> int:
    (record_id,) = _append(args, target, [MetricResult(metric_id, dataset_ids, value, config_note)])
    _say(f"{metric_id} = {value!r}")
    _say(f"appended {record_id} to {args.out}")
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
    from laisc import metrics

    target = _target(args)
    pred_paths = _grid_paths(args.pred)
    truth_paths = _grid_paths(args.truth)
    if len(pred_paths) != len(truth_paths):
        raise _UsageError(
            f"{len(pred_paths)} prediction grids vs {len(truth_paths)} ground-truth grids"
        )
    if Path(args.pred).is_dir() and Path(args.truth).is_dir():
        # Two directories pair their grids by file name.
        pred_names, truth_names = {p.name for p in pred_paths}, {p.name for p in truth_paths}
        if pred_names != truth_names:
            name = min(pred_names ^ truth_names)
            held, lacking = (args.pred, args.truth) if name in pred_names else (args.truth, args.pred)
            raise _UsageError(f"{name} is in {held} but not in {lacking}")
    preds = [io.read_grid(p.read_bytes()) for p in pred_paths]
    truths = [io.read_grid(p.read_bytes()) for p in truth_paths]
    value, warned = _capture_small_samples(lambda: metrics.miou(preds, truths))
    return _metric_record(args, target, "miou", (args.dataset,), value, f"pairs={len(preds)}{warned}")


def cmd_metric_gap(args: argparse.Namespace) -> int:
    from laisc import metrics

    landscape, vr = _target(args)
    value = metrics.performance_gap(args.a, args.b)
    # The record binds to the indicator the two values came from, so it can
    # satisfy a gap requirement declared over that metric; by default that
    # is the metric of the --vr.  A VR that measures no metric reads no
    # gap record, and _append refuses it.
    metric_id = args.metric or getattr(vr.payload, "metric_id", "gap")
    return _metric_record(args, (landscape, vr), metric_id, (args.dataset_a, args.dataset_b), value, _GAP_NOTE)


def cmd_metric_nap(args: argparse.Namespace) -> int:
    from laisc import metrics

    target = _target(args)
    table_a = io.read_activations(Path(args.a).read_bytes())
    table_b = io.read_activations(Path(args.b).read_bytes())
    value, warned = _capture_small_samples(lambda: metrics.nap_distance(table_a, table_b))
    dataset_ids = (args.dataset_a, args.dataset_b)
    return _metric_record(args, target, "nap_distance", dataset_ids, value, f"{_GAP_NOTE}{warned}")


def cmd_metric_clm(args: argparse.Namespace) -> int:
    from laisc import metrics

    landscape, vr = _target(args)
    threshold = getattr(vr.payload, "flag_threshold", None)
    if threshold is None:
        raise _UsageError(f"--vr {args.vr!r} is a {vr.kind}, which sets no flag_threshold")
    table = io.read_prob_table(Path(args.probs).read_bytes())
    result, warned = _capture_small_samples(lambda: metrics.clm_flags(table, threshold))
    flagged, total = len(result.flagged_ids), len(table.ids)
    flagged_fraction = flagged / total if total else 0.0
    note = f"threshold={threshold:g}; flagged={flagged}/{total}{warned}"
    metric_id, flag_id = _append(
        args,
        (landscape, vr),
        [
            MetricResult("clm_flags", (args.dataset,), flagged_fraction, note),
            FlagResolutionLog(args.dataset, flagged_ids=result.flagged_ids, entries=()),
        ],
    )
    _say(f"clm_flags = {flagged_fraction!r} ({flagged} flagged)")
    for instance_id in result.flagged_ids:
        _say(f"  flagged: {instance_id}")
    _say(f"appended {metric_id}, {flag_id} to {args.out}")
    return 0


# --- perturb / augment-labels ------------------------------------------------------


#: ``--kind`` -> name of the spec class in ``laisc.metrics``; each spec
#: field is read from the flag of its name.
_PERTURBATIONS = {
    "brightness": "BrightnessShift",
    "contrast": "ContrastScale",
    "noise": "GaussianNoise",
    "occlusion": "OcclusionPatch",
    "hflip": "HorizontalFlip",
    "rot90": "Rotate90",
}
_AUGMENTATIONS = {
    "flip": "RandomPixelFlip",
    "dilate": "MaskDilate",
    "erode": "MaskErode",
    "translate": "MaskTranslate",
}


def _spec_from_args(cls: type, args: argparse.Namespace):
    """The dataclass ``cls`` with each field read from the flag of its name."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _write_outputs(args: argparse.Namespace, operation: str, spec, grids: dict, inputs: dict[str, str]) -> int:
    """Write ``grids`` (file name -> grid) and a ``manifest.json`` of the
    ``operation``, its ``spec`` and its ``inputs`` into the directory ``--out``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, grid in grids.items():
        (out_dir / name).write_bytes(io.write_grid(grid))
    spec_node = {"kind": type(spec).__name__, **to_node(spec)}
    manifest = {"operation": operation, "spec": spec_node, "inputs": inputs}
    (out_dir / "manifest.json").write_bytes(dump_canonical(manifest))
    _say(f"wrote {', '.join(grids)}, manifest.json to {args.out}")
    return 0


def cmd_perturb(args: argparse.Namespace) -> int:
    from laisc import metrics

    image = io.read_grid(Path(args.image).read_bytes())
    mask = io.read_grid(Path(args.mask).read_bytes())
    spec = _spec_from_args(getattr(metrics, _PERTURBATIONS[args.kind]), args)
    new_image, new_mask = metrics.perturb(image, mask, spec)
    grids = {"image.grid": new_image, "mask.grid": new_mask}
    return _write_outputs(args, "perturb", spec, grids, {"image": args.image, "mask": args.mask})


def cmd_augment_labels(args: argparse.Namespace) -> int:
    from laisc import metrics

    mask = io.read_grid(Path(args.mask).read_bytes())
    spec = _spec_from_args(getattr(metrics, _AUGMENTATIONS[args.kind]), args)
    new_mask = metrics.augment_labels(mask, spec)
    return _write_outputs(args, "augment-labels", spec, {"mask.grid": new_mask}, {"mask": args.mask})


# --- parser ---------------------------------------------------------------------


def _add_metric_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--landscape", required=True, help="landscape definition (*.laisc.json)")
    parser.add_argument("--vr", required=True, help="VR id the evidence is addressed to")
    parser.add_argument("--out", required=True, help="evidence bundle to append to (*.evidence.json)")


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
    for f in fields(evaluation.Filter):
        p_evaluate.add_argument("--" + f.name)
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
        choices=sorted(KNOWN_METRIC_IDS),
        help="metric id the two values were measured with (default: the metric of --vr)",
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
    p_clm.add_argument("--dataset", required=True)
    _add_metric_common(p_clm)
    p_clm.set_defaults(func=cmd_metric_clm)

    p_perturb = sub.add_parser("perturb", help="write a perturbed copy of an image/mask pair")
    p_perturb.add_argument("--image", required=True)
    p_perturb.add_argument("--mask", required=True)
    p_perturb.add_argument("--kind", required=True, choices=_PERTURBATIONS)
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
    p_augment.add_argument("--kind", required=True, choices=_AUGMENTATIONS)
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
    except (_UsageError, LaiscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
