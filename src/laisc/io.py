"""File formats: the single place where bytes become domain objects.

Formats (all UTF-8, LF line endings):

* ``*.laisc.json``    -- landscape definition
* ``*.evidence.json`` -- evidence bundle
* ``*.grid``          -- plain-text integer grid: an ``H W`` header line,
  then H rows of W space-separated integers; it reads into a
  ``LabeledGrid``, which stores row-major ``bytes`` (``.values`` is a
  derived copy)
* ``*.probs.csv``     -- per-instance class probabilities, header
  ``instance_id,label,p_0..p_{K-1}``
* ``*.acts.csv``      -- per-sample neuron activations, header
  ``sample_id,a_0..a_{N-1}``

Serialization is canonical (sorted keys, collections sorted by id), so
``serialize(parse(serialize(x)))`` equals ``serialize(x)`` byte for byte.
The field annotations of each domain dataclass are its JSON schema: one
generic codec (``to_node`` and ``_from_node``) reads and writes whole
documents.  Besides plain fields it knows three shapes: a field typed as
a union of dataclasses (a VR's or an evidence record's ``payload``) comes
with a sibling ``kind`` key naming the payload's class, a ``datetime`` is
ISO-8601 normalized to UTC, and a tuple of ``(id, element)`` pairs
(``Landscape.datasets``) is an object keyed by id.  The four document
functions add only the checks that are policy: ``build_landscape`` for a
landscape, and unique record ids, non-empty ``vr_id``, finite metric
values and consistent review counts for a bundle.
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
from typing import get_args, get_origin, get_type_hints

from laisc.errors import (
    DimensionMismatch,
    InputSyntaxError,
    InvalidTimestamp,
    NotNormalized,
    SchemaError,
    ValueOutOfRange,
)
from laisc.model import (
    Landscape,
    Resolution,
    _union_classes,
    build_landscape,
    format_timestamp,
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
        return type(self.payload).__name__


@dataclass(frozen=True, slots=True)
class EvidenceBundle:
    records: tuple[EvidenceRecord, ...]
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))


# --- numeric carriers --------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class LabeledGrid:
    """A small integer raster: a camera image (0..255) or a binary mask.

    The cells are stored as one row-major ``bytes`` of length
    ``height * width``, so every cell is in 0..255 by construction.
    ``LabeledGrid(height, width, values)`` checks a tuple of rows cell by
    cell; ``from_bytes`` wraps a buffer after checking its shape only.
    ``==`` and ``hash`` compare the shape and the cells.
    """

    height: int
    width: int
    cells: bytes

    def __init__(self, height: int, width: int, values: tuple[tuple[int, ...], ...]) -> None:
        values = tuple(tuple(row) for row in values)
        if height < 1 or width < 1:
            raise DimensionMismatch(f"grid must be at least 1x1, got {height}x{width}")
        if len(values) != height:
            raise DimensionMismatch(f"expected {height} rows, got {len(values)}")
        for r, row in enumerate(values):
            if len(row) != width:
                raise DimensionMismatch(f"row {r}: expected {width} values, got {len(row)}")
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueOutOfRange(f"row {r}: non-integer cell {value!r}")
                if not 0 <= value <= 255:
                    raise ValueOutOfRange(f"row {r}: cell value {value} outside [0, 255]")
        self._set(height, width, b"".join(map(bytes, values)))

    def _set(self, height: int, width: int, cells: bytes) -> None:
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_bytes(cls, height: int, width: int, cells: bytes) -> LabeledGrid:
        """Wrap ``height * width`` row-major cells without checking each one."""
        if height < 1 or width < 1:
            raise DimensionMismatch(f"grid must be at least 1x1, got {height}x{width}")
        if len(cells) != height * width:
            raise DimensionMismatch(f"expected {height * width} cells, got {len(cells)}")
        grid = object.__new__(cls)
        grid._set(height, width, bytes(cells))
        return grid

    @property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of ints, a fresh copy on each access."""
        cells, width = self.cells, self.width
        return tuple(tuple(cells[start : start + width]) for start in range(0, len(cells), width))

    @property
    def is_binary(self) -> bool:
        return not self.cells.translate(None, b"\x00\x01")


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


def _timestamp(node: dict, key: str, path: str) -> datetime:
    return parse_timestamp(_str(node, key, path))


def _kind_named(classes: dict[str, type], node: dict, key: str, path: str):
    """Read the field ``key`` as the class that the sibling ``kind`` names."""
    kind = _str(node, "kind", path)
    if kind not in classes:
        raise SchemaError(f"{path}.kind", f"one of {{{', '.join(classes)}}}", kind)
    return _from_node(classes[kind], node[key], f"{path}.{key}")


def _keyed(cls: type, node: dict, key: str, path: str) -> tuple:
    """Read the object at ``key`` as ``(id, cls)`` pairs."""
    value = node[key]
    if not isinstance(value, dict):
        raise SchemaError(f"{path}.{key}", "object", type(value).__name__)
    return tuple((item_id, _from_node(cls, raw, f"{path}.{key}.{item_id}")) for item_id, raw in value.items())


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
    if annotation is datetime:
        return _timestamp
    if annotation == str | None:
        return _opt_str
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return lambda node, key, path: _enum(node, key, path, annotation)
    classes = _union_classes(annotation)
    if classes:
        return partial(_kind_named, {cls.__name__: cls for cls in classes})
    item = get_args(annotation)[0]  # the remaining annotations are tuple[item, ...]
    if item is str:
        return lambda node, key, path: tuple(_str_list(node, key, path))
    if get_origin(item) is tuple:  # (id, element) pairs
        return partial(_keyed, get_args(item)[1])
    return lambda node, key, path: _items(node, key, path, partial(_from_node, item))


@cache
def _field_readers(cls: type) -> tuple[frozenset[str], tuple]:
    """The JSON keys of ``cls`` and a ``(field name, reader)`` per field; a
    field typed as a union of dataclasses adds the ``kind`` key."""
    hints = get_type_hints(cls)
    readers = tuple((f.name, _reader(hints[f.name])) for f in fields(cls))
    keys = {name for name, _ in readers}
    if any(_union_classes(hints[name]) for name in keys):
        keys.add("kind")
    return frozenset(keys), readers


def _from_node(cls: type, node: object, path: str):
    """Read the domain dataclass ``cls`` from its JSON object at ``path``."""
    keys, readers = _field_readers(cls)
    _obj(node, path, keys)
    values = {}
    # A loop, not a comprehension: one call fewer per object.
    for name, read in readers:
        values[name] = read(node, name, path)
    return cls(**values)


def _dump_canonical(node: object) -> bytes:
    return (json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# --- landscape and evidence documents -------------------------------------------------


def parse_landscape(data: bytes | str) -> Landscape:
    """Parse a ``*.laisc.json`` document into a validated landscape."""
    raw = _from_node(Landscape, _load_json(data), "$")
    return build_landscape(**{f.name: getattr(raw, f.name) for f in fields(Landscape)})


def serialize_landscape(landscape: Landscape) -> bytes:
    return _dump_canonical(to_node(landscape))


def parse_evidence(data: bytes | str) -> EvidenceBundle:
    """Parse a ``*.evidence.json`` bundle.

    Records addressed to VR ids unknown to any particular landscape are
    accepted here; the evaluation engine reports them as orphaned.
    """
    bundle = _from_node(EvidenceBundle, _load_json(data), "$")
    seen: set[str] = set()
    for index, record in enumerate(bundle.records):
        path = f"$.records[{index}]"
        if record.id in seen:
            raise SchemaError(f"{path}.id", "unique record id", record.id)
        seen.add(record.id)
        if not record.vr_id:
            raise SchemaError(f"{path}.vr_id", "non-empty string", record.vr_id)
        payload = record.payload
        if isinstance(payload, MetricResult) and not math.isfinite(payload.value):
            raise SchemaError(f"{path}.payload.value", "finite number", payload.value)
        if isinstance(payload, ReviewLog):
            total, reviewed = payload.total_items, payload.reviewed_items
            if total < 0 or reviewed < 0:
                raise SchemaError(f"{path}.payload.total_items", "non-negative counts", (total, reviewed))
            if reviewed > total:
                raise SchemaError(f"{path}.payload.reviewed_items", f"at most total_items={total}", reviewed)
    return bundle


def serialize_evidence(bundle: EvidenceBundle) -> bytes:
    return _dump_canonical(to_node(bundle))


# --- grid and CSV readers ------------------------------------------------------


#: The canonical spelling of each cell value, and its inverse.
_CELL_TEXT = tuple(map(str, range(256)))
_CELL_VALUE = dict(zip(_CELL_TEXT, range(256)))


def read_grid(data: bytes | str) -> LabeledGrid:
    """Read a ``*.grid`` file.

    Canonical cells (``0``..``255``, as ``write_grid`` spells them) go
    through one table lookup each.  Any other spelling that ``int()``
    accepts (``007``, ``+1``, ``1_0``) is read as ``int()`` reads it and
    then checked cell by cell, and so is a grid with a ragged row.
    """
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
    rows = [line.split() for line in lines[1:]]
    # Every line holds at least one token, so equal row lengths also mean
    # height >= 1 and width >= 1.
    if rows and all(len(row) == width for row in rows):
        try:
            cells = b"".join([bytes(map(_CELL_VALUE.__getitem__, row)) for row in rows])
        except KeyError:
            pass
        else:
            return LabeledGrid.from_bytes(height, width, cells)
    values = []
    for r, (line, row) in enumerate(zip(lines[1:], rows)):
        try:
            values.append(tuple(map(int, row)))
        except ValueError:
            raise ValueOutOfRange(f"row {r}: non-integer cell in {line!r}") from None
    return LabeledGrid(height, width, values)


def write_grid(grid: LabeledGrid) -> bytes:
    cells, width, spell = grid.cells, grid.width, _CELL_TEXT
    lines = [f"{grid.height} {width}"]
    for start in range(0, len(cells), width):
        lines.append(" ".join([spell[value] for value in cells[start : start + width]]))
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
