"""File formats: the single place where bytes become domain objects.

Formats (all UTF-8, LF line endings):

* ``*.laisc.json``    -- landscape definition
* ``*.evidence.json`` -- evidence bundle
* ``*.grid``          -- plain-text integer grid: an ``H W`` header line,
  then H rows of W space-separated integers
* ``*.probs.csv``     -- per-instance class probabilities, header
  ``instance_id,label,p_0..p_{K-1}``
* ``*.acts.csv``      -- per-sample neuron activations, header
  ``sample_id,a_0..a_{N-1}``

Serialization is canonical (sorted keys, collections sorted by id), so
``serialize(parse(serialize(x)))`` equals ``serialize(x)`` byte for byte.
The field annotations of each domain dataclass are its JSON schema: one
generic codec (``to_node`` and ``_from_node``) reads and writes them.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from functools import cache, partial
from typing import get_args, get_type_hints

from laisc.errors import (
    DimensionMismatch,
    InputSyntaxError,
    InvalidTimestamp,
    NotNormalized,
    SchemaError,
    ValueOutOfRange,
)
from laisc.model import (
    _PAYLOAD_KINDS,
    DatasetDescriptor,
    Goal,
    Landscape,
    LifecycleStage,
    MitigationMeasure,
    Resolution,
    SafetyConcern,
    SystemComponent,
    VerifiableRequirement,
    VrKind,
    build_landscape,
    to_node,
)

# --- evidence domain types ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class MetricResult:
    """A computed metric value bound to the dataset(s) it was measured on.

    ``config_note`` is free text for reproducibility details; the value
    ``"gap"`` marks a record that already carries a two-dataset difference
    or distance rather than a single-dataset measurement.
    """

    metric_id: str
    dataset_ids: tuple[str, ...]
    value: float
    config_note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dataset_ids", tuple(self.dataset_ids))


class ApprovalVerdict(str, Enum):
    APPROVED = "Approved"
    REJECTED = "Rejected"


@dataclass(frozen=True, slots=True)
class ApprovalRecord:
    approver_id: str
    approver_role: str
    verdict: ApprovalVerdict
    document_ref: str = ""


@dataclass(frozen=True, slots=True)
class ReviewLog:
    dataset_id: str
    total_items: int
    reviewed_items: int


@dataclass(frozen=True, slots=True)
class FlagEntry:
    """The human resolution of one flagged instance."""

    instance_id: str
    resolution: Resolution


@dataclass(frozen=True, slots=True)
class FlagResolutionLog:
    """Pairs the ids flagged by a metric run with their human resolutions.

    ``entries`` may be given as ``(instance_id, resolution)`` pairs.
    """

    dataset_id: str
    flagged_ids: tuple[str, ...]
    entries: tuple[FlagEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "flagged_ids", tuple(self.flagged_ids))
        object.__setattr__(
            self, "entries", tuple(e if isinstance(e, FlagEntry) else FlagEntry(*e) for e in self.entries)
        )


@dataclass(frozen=True, slots=True)
class DocumentRecord:
    document_kind: str
    document_ref: str = ""


EvidencePayload = MetricResult | ApprovalRecord | ReviewLog | FlagResolutionLog | DocumentRecord

_EVIDENCE_KINDS: dict[type, str] = {
    MetricResult: "MetricResult",
    ApprovalRecord: "ApprovalRecord",
    ReviewLog: "ReviewLog",
    FlagResolutionLog: "FlagResolutionLog",
    DocumentRecord: "DocumentRecord",
}


@dataclass(frozen=True, slots=True)
class EvidenceRecord:
    """One timestamped piece of evidence addressed to a VR.

    ``landscape_fingerprint`` is the fingerprint of the landscape at the
    time the evidence was produced; evaluation treats records whose
    fingerprint no longer matches as stale.
    """

    id: str
    vr_id: str
    landscape_fingerprint: str
    timestamp: datetime
    payload: EvidencePayload

    @property
    def kind(self) -> str:
        return _EVIDENCE_KINDS[type(self.payload)]


@dataclass(frozen=True, slots=True)
class EvidenceBundle:
    records: tuple[EvidenceRecord, ...]
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))


# --- numeric carriers --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LabeledGrid:
    """A small integer raster: a camera image (0..255) or a binary mask."""

    height: int
    width: int
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))
        if self.height < 1 or self.width < 1:
            raise DimensionMismatch(f"grid must be at least 1x1, got {self.height}x{self.width}")
        if len(self.values) != self.height:
            raise DimensionMismatch(f"expected {self.height} rows, got {len(self.values)}")
        for r, row in enumerate(self.values):
            if len(row) != self.width:
                raise DimensionMismatch(f"row {r}: expected {self.width} values, got {len(row)}")
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueOutOfRange(f"row {r}: non-integer cell {value!r}")
                if not 0 <= value <= 255:
                    raise ValueOutOfRange(f"row {r}: cell value {value} outside [0, 255]")

    @property
    def is_binary(self) -> bool:
        return all(value in (0, 1) for row in self.values for value in row)


@dataclass(frozen=True, slots=True)
class ProbabilityTable:
    """Per-instance predicted class probabilities with the observed label."""

    num_classes: int
    rows: tuple[tuple[str, int, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rows", tuple((i, lbl, tuple(ps)) for i, lbl, ps in self.rows)
        )
        if self.num_classes < 2:
            raise ValueOutOfRange(f"need at least 2 classes, got {self.num_classes}")
        for index, (instance_id, label, probs) in enumerate(self.rows):
            if len(probs) != self.num_classes:
                raise DimensionMismatch(
                    f"row {index} ({instance_id}): expected {self.num_classes} probabilities, got {len(probs)}"
                )
            if not 0 <= label < self.num_classes:
                raise ValueOutOfRange(f"row {index} ({instance_id}): label {label} outside [0, {self.num_classes})")
            for p in probs:
                if not (isinstance(p, float) or isinstance(p, int)) or not 0.0 <= p <= 1.0:
                    raise ValueOutOfRange(f"row {index} ({instance_id}): probability {p!r} outside [0, 1]")
            total = math.fsum(probs)
            if abs(total - 1.0) > 1e-6:
                raise NotNormalized(index, total)


@dataclass(frozen=True, slots=True)
class ActivationTable:
    """Per-sample activation values for a fixed set of neurons."""

    num_neurons: int
    rows: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple((s, tuple(a)) for s, a in self.rows))
        if self.num_neurons < 1:
            raise ValueOutOfRange(f"need at least 1 neuron, got {self.num_neurons}")
        for index, (sample_id, acts) in enumerate(self.rows):
            if len(acts) != self.num_neurons:
                raise DimensionMismatch(
                    f"row {index} ({sample_id}): expected {self.num_neurons} activations, got {len(acts)}"
                )
            for a in acts:
                if not isinstance(a, (int, float)) or isinstance(a, bool) or not math.isfinite(a):
                    raise ValueOutOfRange(f"row {index} ({sample_id}): non-finite activation {a!r}")


# --- timestamp helpers -------------------------------------------------------


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; must be timezone-aware, normalized to UTC."""
    if not isinstance(value, str):
        raise InvalidTimestamp(repr(value), "not a string")
    try:
        parsed = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise InvalidTimestamp(value, str(exc)) from None
    if parsed.tzinfo is None:
        raise InvalidTimestamp(value, "missing UTC offset")
    return parsed.astimezone(timezone.utc)


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


# --- JSON schema helpers -----------------------------------------------------


def _load_json(data: bytes | str) -> object:
    text = data.decode("utf-8") if isinstance(data, bytes) else data

    def _reject_constant(token: str) -> float:
        raise ValueError(f"non-finite constant {token}")

    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(exc.msg, offset=exc.pos) from None
    except ValueError as exc:
        raise InputSyntaxError(str(exc)) from None


def _obj(node: object, path: str, keys: set[str]) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(path, "object", type(node).__name__)
    unknown = set(node) - keys
    if unknown:
        raise SchemaError(path, f"keys from {sorted(keys)}", f"unknown keys {sorted(unknown)}")
    missing = keys - set(node)
    if missing:
        raise SchemaError(path, f"required keys {sorted(missing)}", "absent")
    return node


def _str(node: dict, key: str, path: str) -> str:
    value = node[key]
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{key}", "string", value)
    return value


def _bool(node: dict, key: str, path: str) -> bool:
    value = node[key]
    if not isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "boolean", value)
    return value


def _int(node: dict, key: str, path: str) -> int:
    value = node[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "integer", value)
    return value


def _num(node: dict, key: str, path: str) -> float:
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", "number", value)
    return float(value)


def _str_list(node: dict, key: str, path: str) -> list[str]:
    value = node[key]
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise SchemaError(f"{path}.{key}", "list of strings", value)
    return value


def _list(node: dict, key: str, path: str) -> list:
    value = node[key]
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}", "list", value)
    return value


def _enum(node: dict, key: str, path: str, enum_type):
    value = _str(node, key, path)
    try:
        return enum_type(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum_type)
        raise SchemaError(f"{path}.{key}", f"one of {{{allowed}}}", value) from None


def _opt_str(node: dict, key: str, path: str) -> str | None:
    value = node[key]
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"{path}.{key}", "string or null", value)
    return value


def _items(node: dict, key: str, path: str, read) -> tuple:
    """Read the list at ``key`` element by element with ``read(raw, path)``."""
    return tuple(read(raw, f"{path}.{key}[{index}]") for index, raw in enumerate(_list(node, key, path)))


# --- JSON codec, reader half -----------------------------------------------------


def _reader(annotation):
    """The schema helper that reads a field declared as ``annotation``."""
    if annotation is str:
        return _str
    if annotation is float:
        return _num
    if annotation is int:
        return _int
    if annotation is bool:
        return _bool
    if annotation == str | None:
        return _opt_str
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return lambda node, key, path: _enum(node, key, path, annotation)
    item = get_args(annotation)[0]  # the remaining annotations are tuple[item, ...]
    if item is str:
        return lambda node, key, path: tuple(_str_list(node, key, path))
    return lambda node, key, path: _items(node, key, path, partial(_from_node, item))


@cache
def _field_readers(cls: type) -> tuple[frozenset[str], tuple]:
    hints = get_type_hints(cls)
    readers = tuple((f.name, _reader(hints[f.name])) for f in fields(cls))
    return frozenset(name for name, _ in readers), readers


def _from_node(cls: type, node: object, path: str):
    """Read the domain dataclass ``cls`` from its JSON object at ``path``."""
    keys, readers = _field_readers(cls)
    _obj(node, path, keys)
    return cls(**{name: read(node, name, path) for name, read in readers})


# --- landscape parsing and serialization -------------------------------------------

_VR_PAYLOADS = {kind: cls for cls, kind in _PAYLOAD_KINDS.items()}


def _vr_from_node(node: object, path: str) -> VerifiableRequirement:
    _obj(node, path, {"id", "goal_id", "kind", "stage_id", "mm_ids", "payload"})
    kind = _enum(node, "kind", path, VrKind)
    return VerifiableRequirement(
        id=_str(node, "id", path),
        goal_id=_str(node, "goal_id", path),
        payload=_from_node(_VR_PAYLOADS[kind], node["payload"], f"{path}.payload"),
        stage_id=_str(node, "stage_id", path),
        mm_ids=tuple(_str_list(node, "mm_ids", path)),
    )


def parse_landscape(data: bytes | str) -> Landscape:
    """Parse a ``*.laisc.json`` document into a validated landscape."""
    root = _obj(_load_json(data), "$", {f.name for f in fields(Landscape)})

    def items(key: str, cls: type) -> tuple:
        return _items(root, key, "$", partial(_from_node, cls))

    stages = items("stages", LifecycleStage)
    components = items("components", SystemComponent)
    concerns = items("concerns", SafetyConcern)
    goals = items("goals", Goal)
    vrs = _items(root, "vrs", "$", _vr_from_node)
    measures = items("mitigation_measures", MitigationMeasure)
    datasets_node = root["datasets"]
    if not isinstance(datasets_node, dict):
        raise SchemaError("$.datasets", "object", type(datasets_node).__name__)
    datasets = {
        dataset_id: _from_node(DatasetDescriptor, raw, f"$.datasets.{dataset_id}")
        for dataset_id, raw in datasets_node.items()
    }
    return build_landscape(
        name=_str(root, "name", "$"),
        version=_str(root, "version", "$"),
        stages=stages,
        components=components,
        concerns=concerns,
        goals=goals,
        vrs=vrs,
        mitigation_measures=measures,
        datasets=datasets,
    )


def _dump_canonical(node: object) -> bytes:
    return (json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def serialize_landscape(landscape: Landscape) -> bytes:
    def by_id(items) -> list[dict]:
        return [to_node(item) for item in sorted(items, key=lambda item: item.id)]

    node = {
        "name": landscape.name,
        "version": landscape.version,
        "stages": [to_node(s) for s in sorted(landscape.stages, key=lambda s: s.order)],
        "components": by_id(landscape.components),
        "concerns": by_id(landscape.concerns),
        "goals": by_id(landscape.goals),
        "vrs": [
            {
                "id": v.id,
                "goal_id": v.goal_id,
                "kind": v.kind.value,
                "stage_id": v.stage_id,
                "mm_ids": list(v.mm_ids),
                "payload": to_node(v.payload),
            }
            for v in sorted(landscape.vrs, key=lambda v: v.id)
        ],
        "mitigation_measures": by_id(landscape.mitigation_measures),
        "datasets": {dataset_id: to_node(d) for dataset_id, d in landscape.datasets},
    }
    return _dump_canonical(node)


# --- evidence parsing and serialization ---------------------------------------

_EVIDENCE_PAYLOADS = {kind: cls for cls, kind in _EVIDENCE_KINDS.items()}


def _evidence_payload(kind: str, node: object, path: str) -> EvidencePayload:
    if kind not in _EVIDENCE_PAYLOADS:
        raise SchemaError(path, f"one of {{{', '.join(_EVIDENCE_PAYLOADS)}}}", kind)
    payload = _from_node(_EVIDENCE_PAYLOADS[kind], node, path)
    if isinstance(payload, MetricResult) and not math.isfinite(payload.value):
        raise SchemaError(f"{path}.value", "finite number", payload.value)
    if isinstance(payload, ReviewLog):
        total, reviewed = payload.total_items, payload.reviewed_items
        if total < 0 or reviewed < 0:
            raise SchemaError(f"{path}.total_items", "non-negative counts", (total, reviewed))
        if reviewed > total:
            raise SchemaError(f"{path}.reviewed_items", f"at most total_items={total}", reviewed)
    return payload


def parse_evidence(data: bytes | str) -> EvidenceBundle:
    """Parse a ``*.evidence.json`` bundle.

    Records addressed to VR ids unknown to any particular landscape are
    accepted here; the evaluation engine reports them as orphaned.
    """
    root = _obj(_load_json(data), "$", {"source", "records"})
    records = []
    seen: set[str] = set()
    for index, raw in enumerate(_list(root, "records", "$")):
        path = f"$.records[{index}]"
        _obj(raw, path, {"id", "vr_id", "kind", "landscape_fingerprint", "timestamp", "payload"})
        record_id = _str(raw, "id", path)
        if record_id in seen:
            raise SchemaError(f"{path}.id", "unique record id", record_id)
        seen.add(record_id)
        vr_id = _str(raw, "vr_id", path)
        if not vr_id:
            raise SchemaError(f"{path}.vr_id", "non-empty string", vr_id)
        kind = _str(raw, "kind", path)
        records.append(
            EvidenceRecord(
                id=record_id,
                vr_id=vr_id,
                landscape_fingerprint=_str(raw, "landscape_fingerprint", path),
                timestamp=parse_timestamp(_str(raw, "timestamp", path)),
                payload=_evidence_payload(kind, raw["payload"], f"{path}.payload"),
            )
        )
    return EvidenceBundle(records=tuple(records), source=_str(root, "source", "$"))


def serialize_evidence(bundle: EvidenceBundle) -> bytes:
    node = {
        "source": bundle.source,
        "records": [
            {
                "id": r.id,
                "vr_id": r.vr_id,
                "kind": r.kind,
                "landscape_fingerprint": r.landscape_fingerprint,
                "timestamp": format_timestamp(r.timestamp),
                "payload": to_node(r.payload),
            }
            for r in bundle.records
        ],
    }
    return _dump_canonical(node)


# --- grid and CSV readers ------------------------------------------------------


def read_grid(data: bytes | str) -> LabeledGrid:
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputSyntaxError("empty grid file")
    header = lines[0].split()
    if len(header) != 2:
        raise InputSyntaxError(f"grid header must be 'H W', got {lines[0]!r}")
    try:
        height, width = int(header[0]), int(header[1])
    except ValueError:
        raise InputSyntaxError(f"grid header must be two integers, got {lines[0]!r}") from None
    if len(lines) - 1 != height:
        raise DimensionMismatch(f"expected {height} data rows, got {len(lines) - 1}")
    rows = []
    for r, line in enumerate(lines[1:]):
        cells = line.split()
        try:
            row = tuple(int(cell) for cell in cells)
        except ValueError:
            raise ValueOutOfRange(f"row {r}: non-integer cell in {line!r}") from None
        rows.append(row)
    return LabeledGrid(height=height, width=width, values=tuple(rows))


def write_grid(grid: LabeledGrid) -> bytes:
    lines = [f"{grid.height} {grid.width}"]
    lines.extend(" ".join(str(value) for value in row) for row in grid.values)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_rows(data: bytes | str) -> list[list[str]]:
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return list(csv.reader(_stdio.StringIO(text)))


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueOutOfRange(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ValueOutOfRange(f"{where}: non-finite value {token!r}")
    return value


def read_prob_table(data: bytes | str) -> ProbabilityTable:
    rows = _csv_rows(data)
    if not rows:
        raise InputSyntaxError("empty probability table")
    header = rows[0]
    if len(header) < 4 or header[:2] != ["instance_id", "label"]:
        raise SchemaError("header", "instance_id,label,p_0..p_{K-1} with K >= 2", ",".join(header))
    num_classes = len(header) - 2
    expected = [f"p_{k}" for k in range(num_classes)]
    if header[2:] != expected:
        raise SchemaError("header", ",".join(["instance_id", "label"] + expected), ",".join(header))
    parsed = []
    for index, row in enumerate(rows[1:]):
        where = f"data row {index}"
        if len(row) != len(header):
            raise DimensionMismatch(f"{where}: expected {len(header)} fields, got {len(row)}")
        try:
            label = int(row[1])
        except ValueError:
            raise ValueOutOfRange(f"{where}: label must be an integer, got {row[1]!r}") from None
        probs = tuple(_parse_float(token, where) for token in row[2:])
        parsed.append((row[0], label, probs))
    return ProbabilityTable(num_classes=num_classes, rows=tuple(parsed))


def write_prob_table(table: ProbabilityTable) -> bytes:
    out = _stdio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["instance_id", "label"] + [f"p_{k}" for k in range(table.num_classes)])
    for instance_id, label, probs in table.rows:
        writer.writerow([instance_id, label] + [repr(p) for p in probs])
    return out.getvalue().encode("utf-8")


def read_activations(data: bytes | str) -> ActivationTable:
    rows = _csv_rows(data)
    if not rows:
        raise InputSyntaxError("empty activation table")
    header = rows[0]
    if len(header) < 2 or header[0] != "sample_id":
        raise SchemaError("header", "sample_id,a_0..a_{N-1} with N >= 1", ",".join(header))
    num_neurons = len(header) - 1
    expected = [f"a_{n}" for n in range(num_neurons)]
    if header[1:] != expected:
        raise SchemaError("header", ",".join(["sample_id"] + expected), ",".join(header))
    parsed = []
    for index, row in enumerate(rows[1:]):
        where = f"data row {index}"
        if len(row) != len(header):
            raise DimensionMismatch(f"{where}: expected {len(header)} fields, got {len(row)}")
        acts = tuple(_parse_float(token, where) for token in row[1:])
        parsed.append((row[0], acts))
    return ActivationTable(num_neurons=num_neurons, rows=tuple(parsed))


def write_activations(table: ActivationTable) -> bytes:
    out = _stdio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sample_id"] + [f"a_{n}" for n in range(table.num_neurons)])
    for sample_id, acts in table.rows:
        writer.writerow([sample_id] + [repr(a) for a in acts])
    return out.getvalue().encode("utf-8")
