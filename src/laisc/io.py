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

``laisc.codec`` reads and writes the two JSON documents from the field
annotations of their dataclasses, and refuses a number that breaks its
number rule (a non-finite metric value, say) at the number's JSON path.
``EvidenceBundle`` checks a bundle's own rules (``text_fault`` of its
records, ids, ``vr_id``, review counts, ``number_fault`` of each
payload) wherever it is built, as ``Landscape`` checks its structure.

The two CSV tables share one reader, which checks the header and the
width of every row, and one writer.  The reader splits a table into
lines and fields by C-level passes over chunks of about 16 KiB, and
reads each chunk's values with ``float()`` into an ``array("d")`` of its
own; a table holding a quote, a carriage return or NUL, and one that a
pass refuses, is read by the ``csv`` row loop, which words every
refusal.  The table keeps the doubles as one row-major ``bytes``
buffer, as ``LabeledGrid`` keeps its cells, and checks the whole buffer
once, by ``ProbabilityTable`` or ``ActivationTable``.  Their ``.rows``
is a derived copy.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
from array import array
from datetime import datetime
from enum import Enum
from itertools import chain, compress, repeat
from operator import attrgetter, is_, itemgetter, le, methodcaller

# format_timestamp and parse_timestamp are part of this module's interface.
from laisc.codec import (
    NUMBER_TYPES,
    are_numbers,
    check_aware,
    decode_utf8,
    dump_canonical,
    format_timestamp,  # noqa: F401
    from_node,
    is_number,
    load_json,
    number_fault,
    numbers_hold,
    parse_timestamp,  # noqa: F401
    record,
    text_fault,
    to_node,
)
from laisc.errors import (
    DimensionMismatch,
    InputSyntaxError,
    InvalidPayload,
    LaiscError,
    NotNormalized,
    SchemaError,
    ValueOutOfRange,
)
from laisc.model import Landscape, Resolution

# --- evidence domain types ---------------------------------------------------


@record
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


@record
class ApprovalRecord:
    """One expert's verdict on the work a qualitative VR asks about."""

    approver_id: str
    approver_role: str
    verdict: ApprovalVerdict
    document_ref: str = ""


@record
class ReviewLog:
    """How many of a dataset's ``total_items`` were reviewed by hand."""

    dataset_id: str
    total_items: int
    reviewed_items: int


@record
class FlagEntry:
    """The human resolution of one flagged instance."""

    instance_id: str
    resolution: Resolution


@record
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


@record
class DocumentRecord:
    """A document of ``document_kind`` exists, at ``document_ref``."""

    document_kind: str
    document_ref: str = ""


EvidencePayload = MetricResult | ApprovalRecord | ReviewLog | FlagResolutionLog | DocumentRecord


@record
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

    def __post_init__(self) -> None:
        # The rule parse_timestamp applies to a file: a naive timestamp
        # would compare with no parsed one and be written in local time.
        check_aware(self.timestamp)

    @property
    def kind(self) -> str:
        return type(self.payload).__name__


@record(slots=False)
class EvidenceBundle:
    """The records of one evidence file, held to ``_check_records`` however built.

    :func:`~laisc.evaluation.evaluate` keeps the verdicts it last judged
    from a bundle, keyed by the landscape's fingerprint, on the bundle (no
    ``slots``, so there is room for them).  They are not a field, so
    ``==``, ``hash`` and ``dataclasses.replace`` ignore them.
    """

    records: tuple[EvidenceRecord, ...]
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        _check_records(self.records)


def _check_records(records: tuple[EvidenceRecord, ...]) -> None:
    """Raise at the first record that breaks a bundle's rule, at its JSON
    path: a ``SchemaError`` at a field that ``text_fault`` finds first, then
    an ``InvalidPayload`` in ``number_fault``'s words or a ``SchemaError``.
    The ids, the ``vr_id``s, the payloads' numbers (``numbers_hold``) and
    review counts are checked as columns first, one C-level pass per rule;
    only a bundle that fails is walked record by record, to word the first
    fault."""
    fault = text_fault(records, "$.records[{}]".format)
    if fault:
        raise SchemaError(*fault)
    ids = list(map(attrgetter("id"), records))
    payloads = list(map(attrgetter("payload"), records))
    if (
        all(ids)
        and len(set(ids)) == len(ids)
        and all(map(attrgetter("vr_id"), records))
        and numbers_hold(payloads)
        and _counts_hold(payloads)
    ):
        return
    seen: set[str] = set()
    for index, record in enumerate(records):
        path = f"$.records[{index}]"
        if not record.id:
            raise SchemaError(f"{path}.id", "non-empty string", record.id)
        if record.id in seen:
            raise SchemaError(f"{path}.id", "unique record id", record.id)
        seen.add(record.id)
        if not record.vr_id:
            raise SchemaError(f"{path}.vr_id", "non-empty string", record.vr_id)
        error = _payload_fault(record.payload, path)
        if error:
            raise error


def _counts_hold(payloads: list) -> bool:
    """Whether every ``ReviewLog`` among ``payloads``, whose counts are
    integers, has ``0 <= reviewed_items <= total_items``: one C-level pass
    per rule."""
    logs = list(compress(payloads, map(is_, map(type, payloads), repeat(ReviewLog))))
    reviewed = list(map(attrgetter("reviewed_items"), logs))
    return not logs or (min(reviewed) >= 0 and all(map(le, reviewed, map(attrgetter("total_items"), logs))))


def _payload_fault(payload: EvidencePayload, path: str) -> LaiscError | None:
    """The error of the first rule that a record's ``payload`` breaks, at
    the record's JSON path ``path``, or ``None``."""
    fault = number_fault(payload)
    if fault:
        return InvalidPayload(path, fault)
    if isinstance(payload, ReviewLog):
        total, reviewed = payload.total_items, payload.reviewed_items
        for name, count in (("total_items", total), ("reviewed_items", reviewed)):
            if count < 0:
                return SchemaError(f"{path}.payload.{name}", "non-negative count", count)
        if reviewed > total:
            return SchemaError(f"{path}.payload.reviewed_items", f"at most total_items={total}", reviewed)
    return None


# --- numeric carriers --------------------------------------------------------


@record
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
                if type(value) is not int:
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


def _rows_of(flat, width: int):
    """The rows of the row-major numbers ``flat``, ``width`` to a tuple, one at a time."""
    return zip(*[iter(flat)] * width)


def _pack(numbers: list) -> bytes | tuple:
    """``numbers`` as a table stores them: the bytes of their doubles when
    every one is a ``float``, else a tuple of them as given."""
    if set(map(type, numbers)) <= {float}:
        return array("d", numbers).tobytes()
    return tuple(numbers)


def _checked_ids(rows: tuple) -> tuple[str, ...]:
    """The ids of ``rows``, their first items; one that is not a ``str`` is
    refused in the words of the text rule, for ``csv`` would write
    ``str(id)`` and read back another value."""
    ids = tuple(map(itemgetter(0), rows))
    if not set(map(type, ids)) <= {str}:
        index = next(index for index, row_id in enumerate(ids) if type(row_id) is not str)
        raise SchemaError(f"rows[{index}][0]", "string", ids[index])
    return ids


def _all_numbers(flat) -> bool:
    """Whether every one of a table's numbers ``is_number``; a buffer holds floats only."""
    return all(map(math.isfinite, flat)) if type(flat) is memoryview else are_numbers(flat)


class _Table:
    """What the two CSV tables share: the numbers, row-major, in ``numbers``.

    ``numbers`` is the bytes of the doubles when every number is a
    ``float``, as it is in a table read from CSV, and otherwise one flat
    tuple of the numbers as given, so an ``int`` built in code keeps its
    exact value.  ``==`` and ``hash`` compare the numbers by value: a table
    of ``1`` equals one of ``1.0``, and one of ``-0.0`` one of ``0.0``.
    """

    __slots__ = ()

    @property
    def flat(self):
        """The numbers, row-major: a memoryview of the doubles, or the tuple."""
        numbers = self.numbers
        return memoryview(numbers).cast("d") if type(numbers) is bytes else numbers

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@record
class ProbabilityTable(_Table):
    """Per-instance predicted class probabilities with the observed label.

    ``ProbabilityTable(num_classes, rows)`` takes ``(instance_id, label,
    probabilities)`` rows and stores the ids, the labels and the
    probabilities apart; ``.rows`` rebuilds the rows, a fresh copy on each
    access.  The whole table is checked first, one C-level pass per rule;
    only a table that fails one of them goes through the row-by-row check,
    which words the first error.
    """

    num_classes: int
    ids: tuple[str, ...]
    labels: tuple[int, ...]
    numbers: bytes | tuple[float, ...]

    def __init__(self, num_classes: int, rows) -> None:
        rows = tuple((i, lbl, tuple(ps)) for i, lbl, ps in rows)
        if num_classes < 2:
            raise ValueOutOfRange(f"need at least 2 classes, got {num_classes}")
        ids = _checked_ids(rows)
        probs = tuple(map(itemgetter(2), rows))
        if not set(map(len, probs)) <= {num_classes}:
            _check_prob_rows(num_classes, rows)
        self._set(num_classes, ids, tuple(map(itemgetter(1), rows)), _pack(list(chain.from_iterable(probs))))

    @classmethod
    def _read(cls, num_classes: int, ids: list, labels: list, numbers: bytes) -> ProbabilityTable:
        table = object.__new__(cls)
        table._set(num_classes, tuple(ids), tuple(labels), numbers)
        return table

    def _set(self, num_classes: int, ids: tuple, labels: tuple, numbers) -> None:
        object.__setattr__(self, "num_classes", num_classes)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "numbers", numbers)
        flat = self.flat
        if labels and not (
            set(map(type, labels)) <= {int}
            and 0 <= min(labels)
            and max(labels) < num_classes
            and _all_numbers(flat)
            and 0.0 <= min(flat)
            and max(flat) <= 1.0
            and max(map(abs, map((-1.0).__add__, map(math.fsum, _rows_of(flat, num_classes))))) <= 1e-6
        ):
            _check_prob_rows(num_classes, self.rows)

    @property
    def rows(self) -> tuple[tuple[str, int, tuple[float, ...]], ...]:
        """``(instance_id, label, probabilities)`` per row, a fresh copy on each access."""
        return tuple(zip(self.ids, self.labels, _rows_of(self.flat, self.num_classes)))

    def _key(self) -> tuple:
        return self.num_classes, self.ids, self.labels, tuple(self.flat)


def _check_prob_rows(num_classes: int, rows) -> None:
    """Raise the first error of ``rows``, row by row."""
    for index, (instance_id, label, probs) in enumerate(rows):
        if len(probs) != num_classes:
            raise DimensionMismatch(
                f"row {index} ({instance_id}): expected {num_classes} probabilities, got {len(probs)}"
            )
        if type(label) is not int:
            raise ValueOutOfRange(f"row {index} ({instance_id}): label {label!r} is not an integer")
        if not 0 <= label < num_classes:
            raise ValueOutOfRange(f"row {index} ({instance_id}): label {label} outside [0, {num_classes})")
        for p in probs:
            if type(p) not in NUMBER_TYPES or not 0.0 <= p <= 1.0:
                raise ValueOutOfRange(f"row {index} ({instance_id}): probability {p!r} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-6:
            raise NotNormalized(index, total)


@record
class ActivationTable(_Table):
    """Per-sample activation values for a fixed set of neurons.

    ``ActivationTable(num_neurons, rows)`` takes ``(sample_id,
    activations)`` rows and stores the ids and the activations apart;
    ``.rows`` rebuilds the rows, a fresh copy on each access.  The whole
    table is checked first, one C-level pass per rule; only a table that
    fails one of them goes through the row-by-row check, which words the
    first error.
    """

    num_neurons: int
    ids: tuple[str, ...]
    numbers: bytes | tuple[float, ...]

    def __init__(self, num_neurons: int, rows) -> None:
        rows = tuple((s, tuple(a)) for s, a in rows)
        if num_neurons < 1:
            raise ValueOutOfRange(f"need at least 1 neuron, got {num_neurons}")
        ids = _checked_ids(rows)
        acts = tuple(map(itemgetter(1), rows))
        if not set(map(len, acts)) <= {num_neurons}:
            _check_activation_rows(num_neurons, rows)
        self._set(num_neurons, ids, _pack(list(chain.from_iterable(acts))))

    @classmethod
    def _read(cls, num_neurons: int, ids: list, numbers: bytes) -> ActivationTable:
        table = object.__new__(cls)
        table._set(num_neurons, tuple(ids), numbers)
        return table

    def _set(self, num_neurons: int, ids: tuple, numbers) -> None:
        object.__setattr__(self, "num_neurons", num_neurons)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "numbers", numbers)
        if not _all_numbers(self.flat):
            _check_activation_rows(num_neurons, self.rows)

    @property
    def rows(self) -> tuple[tuple[str, tuple[float, ...]], ...]:
        """``(sample_id, activations)`` per row, a fresh copy on each access."""
        return tuple(zip(self.ids, _rows_of(self.flat, self.num_neurons)))

    def _key(self) -> tuple:
        return self.num_neurons, self.ids, tuple(self.flat)


def _check_activation_rows(num_neurons: int, rows) -> None:
    """Raise the first error of ``rows``, row by row."""
    for index, (sample_id, acts) in enumerate(rows):
        if len(acts) != num_neurons:
            raise DimensionMismatch(
                f"row {index} ({sample_id}): expected {num_neurons} activations, got {len(acts)}"
            )
        for a in acts:
            if not is_number(a):
                raise ValueOutOfRange(f"row {index} ({sample_id}): non-finite activation {a!r}")


# --- landscape and evidence documents -------------------------------------------------


def parse_landscape(data: bytes | str) -> Landscape:
    """Parse a ``*.laisc.json`` document into a validated landscape."""
    return from_node(Landscape, load_json(data), "$")


def serialize_landscape(landscape: Landscape) -> bytes:
    return dump_canonical(to_node(landscape))


def parse_evidence(data: bytes | str) -> EvidenceBundle:
    """Parse a ``*.evidence.json`` bundle.

    Records addressed to VR ids unknown to any particular landscape are
    accepted here; the evaluation engine reports them as orphaned.
    """
    return from_node(EvidenceBundle, load_json(data), "$")


def serialize_evidence(bundle: EvidenceBundle) -> bytes:
    return dump_canonical(to_node(bundle))


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
    lines = [line for line in decode_utf8(data).splitlines() if line.strip()]
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


def _header(lead: tuple[str, ...], prefix: str, count: int) -> list[str]:
    return [*lead, *(f"{prefix}_{k}" for k in range(count))]


#: The bytes that the split passes do not read as ``csv`` does: a quote, a
#: carriage return, and NUL, which ``csv`` refuses before Python 3.11.
_CSV_ONLY = (b'"', b"\r", b"\0")

#: About how many bytes of a table the split passes decode and split at
#: once; a chunk's text, lines and fields live only while it is read.
_CHUNK = 1 << 14


def _read_table(data: bytes | str, lead: tuple[str, ...], prefix: str, minimum: int) -> tuple:
    """Read a CSV table whose header is the ``lead`` columns, then
    ``{prefix}_0..{prefix}_{N-1}`` with ``N >= minimum``.  The first lead
    column is a row's id, and a second one its integer label.

    Returns ``N``, the ids, the labels (none without a label column) and
    the numbers of every row, row-major, as the bytes of their doubles.  A
    row of the wrong width is a :class:`DimensionMismatch`, and a label
    that ``int()`` or a number that ``float()`` rejects a
    :class:`ValueOutOfRange`.  Bytes that are not UTF-8, and a field past
    the ``csv`` module's field size limit, are an :class:`InputSyntaxError`.

    A table without a quote, a carriage return or NUL is read by
    ``_split_table``; one with any of them, and one that a split pass
    refuses, by ``_csv_table`` from the start, which words the first fault.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if not any(map(data.__contains__, _CSV_ONLY)):
        try:
            table = _split_table(data, lead, prefix, minimum)
        except ValueError:  # not UTF-8, or a label or number that int() or float() refuses
            table = None
        if table:
            return table
    return _csv_table(data, lead, prefix, minimum)


def _split_table(data: bytes, lead: tuple[str, ...], prefix: str, minimum: int) -> tuple | None:
    """What ``_csv_table`` returns for ``data``, which holds none of
    ``_CSV_ONLY``, read by C-level passes over chunks of about ``_CHUNK``
    bytes, each cut after a ``\\n``; ``None`` for a bad header, a row of
    the wrong width (a blank one too) or a line longer than the ``csv``
    module's field size limit, for ``csv`` to word."""
    limit = csv.field_size_limit()
    start = data.find(b"\n") + 1 or len(data)
    line = data[:start].decode("utf-8").removesuffix("\n")
    header = line.split(",")
    count = len(header) - len(lead)
    if len(line) > limit or count < minimum or header != _header(lead, prefix, count):
        return None
    width = len(header)
    ids, labels, pieces = [], [], []
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK) + 1 or len(data)
        lines = data[start:end].decode("utf-8").removesuffix("\n").split("\n")
        start = end
        if max(map(len, lines)) > limit or set(map(methodcaller("count", ","), lines)) != {width - 1}:
            return None
        fields = ",".join(lines).split(",")
        ids += fields[::width]
        if len(lead) > 1:
            labels += map(int, fields[1::width])
        for column in range(len(lead)):
            del fields[:: width - column]
        pieces.append(array("d", list(map(float, fields))))
    return count, ids, labels, b"".join(pieces)


def _csv_table(data: bytes, lead: tuple[str, ...], prefix: str, minimum: int) -> tuple:
    """``_read_table`` by the ``csv`` module's reader, row by row."""
    # Decode line by line: a StringIO of the whole text would hold four
    # bytes per character for as long as the table is being read.
    reader = csv.reader(_stdio.TextIOWrapper(_stdio.BytesIO(data), encoding="utf-8", newline="\n"))
    expected = f"{','.join(lead)},{prefix}_0..{prefix}_{{N-1}} with N >= {minimum}"
    ids = None  # until the header is read
    try:
        header = next(reader, None)
        if header is None:
            raise InputSyntaxError(f"empty table, expected the header {expected}")
        count = len(header) - len(lead)
        if count < minimum or header != _header(lead, prefix, count):
            raise SchemaError("header", expected, ",".join(header))
        ids, labels, numbers = [], [], array("d")
        width, labelled = len(header), len(lead) > 1
        for row in reader:
            if len(row) != width:
                raise DimensionMismatch(f"data row {len(ids)}: expected {width} fields, got {len(row)}")
            try:
                if labelled:
                    labels.append(int(row[1]))
                numbers.extend(map(float, row[len(lead) :]))
            except ValueError as exc:
                raise ValueOutOfRange(f"data row {len(ids)}: {exc}") from None
            ids.append(row[0])
    except csv.Error as exc:
        where = "header" if ids is None else f"data row {len(ids)}"
        raise InputSyntaxError(f"{where}: {exc}") from None
    except UnicodeDecodeError:
        decode_utf8(data)  # raises with the offset in the whole of ``data``
        raise
    return count, ids, labels, numbers.tobytes()


def _csv_field(value) -> str:
    """``str(value)`` as a CSV field: in quotes, each quote doubled, if it
    holds a ``,``, a ``"``, a ``\\r`` or a ``\\n``, as ``csv.writer`` quotes
    it from Python 3.13 on; before, it left a ``\\r`` bare, to be read back
    as a line end."""
    text = str(value)
    if any(map(text.__contains__, ',"\r\n')):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_table(lead: tuple[str, ...], prefix: str, count: int, ids: tuple[str, ...], rows) -> bytes:
    """The header, then one line per row of ``rows``, each a list of its
    fields' text, of which only the first, the id, may need quotes.  An id
    of ``ids`` holding NUL is refused: Python 3.10's ``csv`` reader refuses
    a line with one, so no Python writes it."""
    if "\0" in "".join(ids):
        index = next(index for index, row_id in enumerate(ids) if "\0" in row_id)
        raise SchemaError(f"ids[{index}]", "string without NUL", ids[index])
    lines = [",".join(_header(lead, prefix, count)), *map(",".join, rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


#: The leading columns of each table and the prefix of its numbered ones.
_PROB_COLUMNS = (("instance_id", "label"), "p")
_ACTIVATION_COLUMNS = (("sample_id",), "a")


def read_prob_table(data: bytes | str) -> ProbabilityTable:
    return ProbabilityTable._read(*_read_table(data, *_PROB_COLUMNS, 2))


def write_prob_table(table: ProbabilityTable) -> bytes:
    rows = _rows_of(table.flat, table.num_classes)
    lines = ([_csv_field(i), repr(label), *map(repr, probs)] for i, label, probs in zip(table.ids, table.labels, rows))
    return _write_table(*_PROB_COLUMNS, table.num_classes, table.ids, lines)


def read_activations(data: bytes | str) -> ActivationTable:
    num_neurons, ids, _, numbers = _read_table(data, *_ACTIVATION_COLUMNS, 1)
    return ActivationTable._read(num_neurons, ids, numbers)


def write_activations(table: ActivationTable) -> bytes:
    lines = ([_csv_field(i), *map(repr, acts)] for i, acts in zip(table.ids, _rows_of(table.flat, table.num_neurons)))
    return _write_table(*_ACTIVATION_COLUMNS, table.num_neurons, table.ids, lines)
