"""File formats: the single place where bytes become domain objects.

Formats (all UTF-8):

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
``EvidenceBundle`` checks a bundle's own rules (``check_text`` of the
bundle, then one ``codec.check_rows`` row per rule of its records: ids,
``vr_id``, the number rule of each payload, review counts) wherever it
is built, as ``Landscape`` checks its structure.

The two CSV tables share one reader, which checks the header and the
width of every row, and one writer.  A table has no quoting: a field
holds no ``,``, quote, carriage return or NUL, and lines end in ``\\n``
or ``\\r\\n``.  The reader splits a table into lines and fields by C-level
passes over chunks of about 16 KiB, and reads each chunk's values with
``float()`` into an ``array("d")`` of its own; only a chunk that a pass
refuses is searched row by row, to word its first fault.  The table
keeps the doubles as one row-major ``bytes`` buffer, as ``LabeledGrid``
keeps its cells, and checks the whole buffer once, by the rule rows of
``ProbabilityTable`` or ``ActivationTable``; only a table that fails is
searched row by row, by the same rows.  Their ``.rows`` is a derived
copy.
"""

from __future__ import annotations

import math
from array import array
from datetime import datetime
from enum import Enum
from functools import partial
from itertools import chain, count, islice
from operator import attrgetter, eq, le, methodcaller

# format_timestamp and parse_timestamp are part of this module's interface.
from laisc.codec import (
    are_numbers,
    as_tuple,
    by_class,
    check_aware,
    check_ids,
    check_rows,
    check_text,
    decode_utf8,
    dump_canonical,
    format_timestamp,  # noqa: F401
    from_node,
    gc_paused,
    load_json,
    number_rows,
    parse_timestamp,  # noqa: F401
    record,
    rule_rows,
    set_fields,
    to_node,
    unique_row,
)
from laisc.errors import (
    DimensionMismatch,
    InputSyntaxError,
    InvalidPayload,
    NotNormalized,
    SchemaError,
    ValueOutOfRange,
)
from laisc.model import Landscape, Resolution

# --- evidence domain types ---------------------------------------------------


@record
class MetricResult:
    """A computed metric value bound to the dataset(s) it was measured on.

    ``config_note`` is free text for reproducibility details; a first
    ``;``-separated token ``gap`` (``laisc.model._GAP_NOTE``) marks a
    record that already carries a two-dataset difference or distance
    rather than a single-dataset measurement.
    """

    metric_id: str
    dataset_ids: tuple[str, ...]
    value: float
    config_note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dataset_ids", as_tuple(self.dataset_ids, sort=False))


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
        object.__setattr__(self, "flagged_ids", as_tuple(self.flagged_ids, sort=False))
        entries = as_tuple(self.entries, sort=False)
        object.__setattr__(self, "entries", tuple(map(_flag_entry, entries)) if type(entries) is tuple else entries)


def _flag_entry(value):
    """``value`` as a ``FlagEntry``, if it is one or an ``(instance_id,
    resolution)`` pair; any other value as it is, for the self-check to refuse."""
    try:
        return value if isinstance(value, FlagEntry) else FlagEntry(*value)
    except TypeError:
        return value


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
        object.__setattr__(self, "records", as_tuple(self.records, sort=False))
        _check_records(self)


#: The JSON path of a bundle's record ``index``.
_RECORD_PATH = "$.records[{}]".format

#: The rule of a record's ``id`` and ``vr_id``, in the words of the reader.
_NON_EMPTY = ((all, "non-empty string"),)

_TOTAL, _REVIEWED = attrgetter("total_items"), attrgetter("reviewed_items")

#: The rules of a ``ReviewLog``'s counts, which the number rule has found
#: integers: ``(test, (field, expected))``, ``expected`` formatted with the
#: log.  Each holds over no logs.
_COUNT_RULES = (
    (lambda logs: min(map(_TOTAL, logs), default=0) >= 0, ("total_items", "non-negative count")),
    (lambda logs: min(map(_REVIEWED, logs), default=0) >= 0, ("reviewed_items", "non-negative count")),
    (
        lambda logs: all(map(le, map(_REVIEWED, logs), map(_TOTAL, logs))),
        ("reviewed_items", "at most total_items={0.total_items}"),
    ),
)


def _check_records(bundle: EvidenceBundle) -> None:
    """Raise at the first fault of ``bundle``, at its JSON path.  First a
    ``SchemaError`` at a field that ``check_text`` finds; then, by
    ``check_rows``, the first record that breaks a rule, in this order of
    rules: a non-empty ``id``, a unique ``id``, a non-empty ``vr_id``, the
    number rule of the payload (an ``InvalidPayload``) and the counts of a
    ``ReviewLog``.  A valid bundle runs one C-level pass per rule."""
    check_text([bundle], ("$",).__getitem__)
    records = bundle.records
    ids = list(map(attrgetter("id"), records))
    rows = [
        *rule_rows(ids, _NON_EMPTY, partial(_field_fault, "id")),
        unique_row(ids, partial(_field_fault, "id", "unique record id")),
        *rule_rows(list(map(attrgetter("vr_id"), records)), _NON_EMPTY, partial(_field_fault, "vr_id")),
    ]
    for cls, group, positions in by_class(list(map(attrgetter("payload"), records))):
        rows += number_rows(cls, group, positions, lambda words, index: InvalidPayload(_RECORD_PATH(index), words))
        if cls is ReviewLog:
            rows += rule_rows(group, _COUNT_RULES, _count_fault, positions)
    check_rows(rows)


def _field_fault(name: str, expected: str, index: int, value) -> SchemaError:
    return SchemaError(f"{_RECORD_PATH(index)}.{name}", expected, value)


def _count_fault(words: tuple[str, str], index: int, log: ReviewLog) -> SchemaError:
    name, expected = words
    return SchemaError(f"{_RECORD_PATH(index)}.payload.{name}", expected.format(log), getattr(log, name))


# --- numeric carriers --------------------------------------------------------


def _given_rows(rows, shape, expected: str) -> tuple:
    """The rows given in code, each as ``shape`` makes it.  A ``rows`` that
    is not iterable, or a row that ``shape`` cannot take, is a
    ``DimensionMismatch`` that names the row, as a row of the wrong length is."""
    try:
        rows = tuple(rows)
    except TypeError:
        raise DimensionMismatch(f"expected an iterable of rows, got {rows!r}") from None
    out = []
    for at, row in enumerate(rows):
        try:
            out.append(shape(row))
        except (TypeError, ValueError):
            raise DimensionMismatch(f"row {at}: expected {expected}, got {row!r}") from None
    return tuple(out)


@record
class LabeledGrid:
    """A small integer raster: a camera image (0..255) or a binary mask.

    The cells are stored as one row-major ``bytes`` of length
    ``height * width``, so every cell is in 0..255 by construction.
    ``height`` and ``width`` are ``int``s, by the number rule's integer
    test, of at least 1.  ``LabeledGrid(height, width, values)`` checks a
    tuple of rows cell by cell; ``from_bytes`` wraps a buffer after
    checking its shape only.  Both set the fields by ``set_fields``, and
    ``==`` and ``hash``, as for every record, compare the shape and the
    cells.
    """

    height: int
    width: int
    cells: bytes

    def __init__(self, height: int, width: int, values: tuple[tuple[int, ...], ...]) -> None:
        values = _given_rows(values, tuple, "a row of cells")
        if type(height) is not int or type(width) is not int or height < 1 or width < 1:
            raise DimensionMismatch(f"grid must be at least 1x1, got {height!r}x{width!r}")
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
        set_fields(self, (height, width, b"".join(map(bytes, values))))

    @classmethod
    def from_bytes(cls, height: int, width: int, cells: bytes) -> LabeledGrid:
        """Wrap ``height * width`` row-major cells: a bytes-like buffer, or an
        iterable of ints in 0..255 as ``bytes()`` takes it.  Anything else is
        a ``ValueOutOfRange``."""
        if type(height) is not int or type(width) is not int or height < 1 or width < 1:
            raise DimensionMismatch(f"grid must be at least 1x1, got {height!r}x{width!r}")
        try:
            if isinstance(cells, (str, int)):
                # bytes() of a str needs an encoding, and of an int makes that many zeros.
                raise TypeError
            cells = bytes(cells)
        except (TypeError, ValueError):
            raise ValueOutOfRange(f"cells must be bytes or ints in [0, 255], got {cells!r}") from None
        if len(cells) != height * width:
            raise DimensionMismatch(f"expected {height * width} cells, got {len(cells)}")
        grid = object.__new__(cls)
        set_fields(grid, (height, width, cells))
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


# The tests of a table's rules: ``test(width, values)`` tells whether the
# values of one column of rows ``width`` numbers wide keep the rule, the
# whole column or one value alike.


def _widths(width: int, lengths) -> bool:
    return set(lengths) <= {width}


def _finite(width: int, numbers) -> bool:
    """Whether every one of ``numbers`` ``is_number``; a buffer holds floats only."""
    return all(map(math.isfinite, numbers)) if type(numbers) is memoryview else are_numbers(numbers)


def _exact(width: int, numbers) -> bool:
    """Whether a double holds each of ``numbers`` exactly; a buffer holds doubles only."""
    return type(numbers) is memoryview or all(map(eq, map(float, numbers), numbers))


def _probabilities(width: int, numbers) -> bool:
    return _finite(width, numbers) and 0.0 <= min(numbers) and max(numbers) <= 1.0


#: The rules of a table's rows, in order, each ``(column, test, error,
#: words)``: ``column`` is the ``lengths`` of the rows given in code, the
#: ``labels`` or the ``numbers``, row-major, and ``words`` names the value
#: at fault, ``{0}``, in a table ``{1}`` numbers wide.
_PROB_RULES = (
    ("lengths", _widths, DimensionMismatch, "expected {1} probabilities, got {0}"),
    ("labels", lambda width, labels: set(map(type, labels)) <= {int}, ValueOutOfRange, "label {0!r} is not an integer"),
    ("labels", lambda width, labels: set(labels) <= set(range(width)), ValueOutOfRange, "label {0} outside [0, {1})"),
    ("numbers", _probabilities, ValueOutOfRange, "probability {0!r} outside [0, 1]"),
)
_ACTIVATION_RULES = (
    ("lengths", _widths, DimensionMismatch, "expected {1} activations, got {0}"),
    ("numbers", _finite, ValueOutOfRange, "non-finite activation {0!r}"),
    ("numbers", _exact, ValueOutOfRange, "activation {0!r} has no exact double"),
)


def _normalized(width: int, numbers) -> bool:
    """Whether each row of the row-major ``numbers`` sums to 1."""
    return max(map(abs, map((-1.0).__add__, map(math.fsum, _rows_of(numbers, width))))) <= 1e-6


def _normalized_row(width: int, flat) -> tuple:
    """The ``check_rows`` row of the rule that each row of ``flat`` sums to
    1, which tests whole rows: its search runs its test on one row at a time."""

    def find(stop: int) -> tuple | None:
        rows = enumerate(islice(_rows_of(flat, width), stop))
        return next(((at, NotNormalized(at, math.fsum(row))) for at, row in rows if not _normalized(width, row)), None)

    return partial(_normalized, width, flat), find


def _check_table(table, rules, width: int, lengths, flat, *more) -> None:
    """Raise the first fault of ``table``, whose numbers are ``flat``, under
    ``rules``, then under ``more`` ``check_rows`` rows; ``lengths`` are
    those of the rows given in code, none for a table read.  Number ``k``
    is of row ``k // width``."""
    ids, columns = table.ids, {"lengths": lengths, "labels": getattr(table, "labels", ()), "numbers": flat}

    def fault(words, index: int, value):
        return words[0](f"row {index} ({ids[index]}): {words[1].format(value, width)}")

    positions = {"numbers": lambda: map(width.__rfloordiv__, count())}
    rows = chain.from_iterable(
        rule_rows(columns[column], ((partial(test, width), (error, words)),), fault, positions.get(column))
        for column, test, error, words in rules
    )
    check_rows([*rows, *more])


#: What the reader refuses in a field, besides the separators ``,`` and
#: ``\n`` that end one: a quote, a carriage return that ends no line, and
#: NUL.  A table has no quoting, so an id holds none of the five.
_REFUSED = '"\r\0'


def _plain_ids(ids) -> bool:
    return not any(map("".join(ids).__contains__, ",\n" + _REFUSED))


_ID_RULES = ((_plain_ids, "string without ',', '\"', '\\r', '\\n' or '\\x00'"),)


class _Table:
    """What the two CSV tables share: the numbers, row-major, in ``numbers``
    as the bytes of their doubles, 8 bytes a number.  A table built in
    code stores each number it is given as its double, and refuses one
    that no double holds exactly, so it writes what its reader reads back.
    A table's fields are its width, an ``int`` by the number rule's
    integer test, its ids, its labels if it has any and its numbers, and
    its rows ``(id, *labels, numbers)``.  ``==`` and ``hash``, as for
    every record, compare the fields, the stored doubles among them: a
    table of ``1`` equals one of ``1.0``, one of ``-0.0`` differs from one
    of ``0.0``, and two tables are equal exactly when they write the same
    bytes.
    """

    __slots__ = ()

    @property
    def flat(self) -> memoryview:
        """The numbers, row-major: a memoryview of the doubles."""
        return memoryview(self.numbers).cast("d")

    @classmethod
    def _read(cls, width: int, *columns) -> _Table:
        """The table of the fields of a table read, checked as a whole:
        ``columns`` are the lists of its ids and of its labels, if any,
        stored as tuples once the reader's buffers are gone, then the bytes
        of its numbers."""
        table = object.__new__(cls)
        table._set(width, *map(tuple, columns[:-1]), memoryview(columns[-1]).cast("d"))
        return table

    def _build(self, width: int, rows: tuple) -> None:
        """Set the fields from ``rows`` given in code, and check them."""
        ids, *labels, numbers = list(zip(*rows)) or [()] * (len(self._record_names) - 1)
        # An id that is no str would be written as str(id) and read back as
        # another value, and one that holds a separator as other fields.
        check_ids(ids, lambda at, _: f"rows[{at}][0]", _ID_RULES)
        self._set(width, ids, *labels, list(chain.from_iterable(numbers)), lengths=list(map(len, numbers)))

    def _set(self, width: int, *values, lengths=()) -> None:
        """Set the fields to ``width`` and ``values`` and check them by the
        class's ``_check``.  The numbers come last, row-major: a memoryview
        of the doubles of a table read, or the list given in code, which the
        rules see as given and the table stores as the bytes of its doubles.
        ``lengths`` are those of the rows given in code, none for a table
        read.  The numbers are stored once they are checked."""
        *values, flat = values
        set_fields(self, (width, *values))
        if self.ids:
            self._check(width, lengths, flat)
        object.__setattr__(self, "numbers", flat.obj if type(flat) is memoryview else array("d", flat).tobytes())

    @property
    def rows(self) -> tuple:
        """The rows ``(id, *labels, numbers)``, a fresh copy on each access."""
        width, *columns, _ = self._record_values(self)
        return tuple(zip(*columns, _rows_of(self.flat, width)))


def _prob_row(row) -> tuple:
    instance_id, label, probabilities = row
    return instance_id, label, tuple(probabilities)


def _activation_row(row) -> tuple:
    sample_id, activations = row
    return sample_id, tuple(activations)


@record
class ProbabilityTable(_Table):
    """Per-instance predicted class probabilities with the observed label.

    ``ProbabilityTable(num_classes, rows)`` takes ``(instance_id, label,
    probabilities)`` rows and stores the ids, the labels and the
    probabilities apart; ``.rows`` rebuilds the rows, a fresh copy on each
    access.  The whole table is checked by ``_PROB_RULES``, one C-level
    pass per rule; only a table that fails is searched row by row by the
    same rules, to word the first error.
    """

    num_classes: int
    ids: tuple[str, ...]
    labels: tuple[int, ...]
    numbers: bytes

    def __init__(self, num_classes: int, rows) -> None:
        rows = _given_rows(rows, _prob_row, "(instance_id, label, probabilities)")
        if type(num_classes) is not int or num_classes < 2:
            raise ValueOutOfRange(f"need at least 2 classes, got {num_classes!r}")
        self._build(num_classes, rows)

    def _check(self, width: int, lengths, flat) -> None:
        _check_table(self, _PROB_RULES, width, lengths, flat, _normalized_row(width, flat))


@record
class ActivationTable(_Table):
    """Per-sample activation values for a fixed set of neurons.

    ``ActivationTable(num_neurons, rows)`` takes ``(sample_id,
    activations)`` rows and stores the ids and the activations apart;
    ``.rows`` rebuilds the rows, a fresh copy on each access.  The whole
    table is checked by ``_ACTIVATION_RULES``, one C-level pass per rule;
    only a table that fails is searched row by row by the same rules, to
    word the first error.
    """

    num_neurons: int
    ids: tuple[str, ...]
    numbers: bytes

    def __init__(self, num_neurons: int, rows) -> None:
        rows = _given_rows(rows, _activation_row, "(sample_id, activations)")
        if type(num_neurons) is not int or num_neurons < 1:
            raise ValueOutOfRange(f"need at least 1 neuron, got {num_neurons!r}")
        self._build(num_neurons, rows)

    def _check(self, width: int, lengths, flat) -> None:
        _check_table(self, _ACTIVATION_RULES, width, lengths, flat)


# --- landscape and evidence documents -------------------------------------------------


@gc_paused()
def parse_landscape(data: bytes | str) -> Landscape:
    """Parse a ``*.laisc.json`` document into a validated landscape."""
    return from_node(Landscape, load_json(data), "$")


@gc_paused()
def serialize_landscape(landscape: Landscape) -> bytes:
    return dump_canonical(to_node(landscape))


@gc_paused()
def parse_evidence(data: bytes | str) -> EvidenceBundle:
    """Parse a ``*.evidence.json`` bundle.

    Records addressed to VR ids unknown to any particular landscape are
    accepted here; the evaluation engine reports them as orphaned.
    """
    return from_node(EvidenceBundle, load_json(data), "$")


@gc_paused()
def serialize_evidence(bundle: EvidenceBundle) -> bytes:
    return dump_canonical(to_node(bundle))


# --- grid and CSV readers ------------------------------------------------------


#: The canonical spelling of each cell value, and its inverse.
_CELL_TEXT = tuple(map(str, range(256)))
_CELL_VALUE = dict(zip(_CELL_TEXT, range(256)))

#: The single-digit cells, their digits, and the translations between the two.
_DIGIT_CELLS, _DIGITS = bytes(range(10)), b"0123456789"
_DIGIT_VALUE = bytes.maketrans(_DIGITS, _DIGIT_CELLS)
_DIGIT_TEXT = bytes.maketrans(_DIGIT_CELLS, _DIGITS)

#: The longest header line, its line end included, that ``_digit_grid``
#: reads; a longer one, such as one padded past ``int()``'s digit limit
#: with leading zeros, goes to the row reader.
_HEADER_MAX = 64


def read_grid(data: bytes | str) -> LabeledGrid:
    """Read a ``*.grid`` file.

    A canonical grid of single-digit cells given as ``bytes``, as
    ``write_grid`` writes every mask, is read by whole-buffer byte passes
    (``_digit_grid``).  Anything else goes through the row reader:
    canonical cells (``0``..``255``) through one table lookup each, and
    any other spelling that ``int()`` accepts (``007``, ``+1``, ``1_0``)
    as ``int()`` reads it, then checked cell by cell, as is a grid with a
    ragged row.  Both readers give the same grid for the same bytes.
    """
    if isinstance(data, bytes):
        grid = _digit_grid(data)
        if grid:
            return grid
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


def _digit_grid(data: bytes) -> LabeledGrid | None:
    """``data`` read as a grid whose text is exactly the header ``H W``
    (ASCII digits, each at least 1) and ``H`` lines of ``W`` single digits
    joined by one space, each line ended by ``\\n``; ``None`` for any other
    text.  The body's even offsets hold the digits and its odd offsets the
    separators, so a strided slice of each and a few C-level passes over
    them check and read every cell."""
    end = data.find(b"\n", 0, _HEADER_MAX)
    header = data[: max(end, 0)].split(b" ")
    if len(header) != 2 or not all(map(bytes.isdigit, header)):
        return None
    height, width = map(int, header)
    start = end + 1
    if not height or not width or len(data) - start != 2 * height * width:
        return None
    separators, digits = data[start + 1 :: 2], data[start::2]
    if (
        separators.count(b" ") != height * (width - 1)
        or separators[width - 1 :: width].count(b"\n") != height
        or digits.translate(None, _DIGITS)
    ):
        return None
    return LabeledGrid.from_bytes(height, width, digits.translate(_DIGIT_VALUE))


def write_grid(grid: LabeledGrid) -> bytes:
    """The canonical ``*.grid`` text of ``grid``: the header ``H W``, then
    one line per row, its cells in decimal joined by one space.  A grid of
    single-digit cells (every mask) is written by whole-buffer byte passes:
    the digits go to the even offsets of the body and the separators to
    the odd ones; any other grid row by row."""
    cells, height, width, spell = grid.cells, grid.height, grid.width, _CELL_TEXT
    if not cells.translate(None, _DIGIT_CELLS):
        header = f"{height} {width}\n".encode()
        start = len(header)
        text = bytearray(start + 2 * len(cells))
        text[:start] = header
        text[start::2] = cells.translate(_DIGIT_TEXT)
        text[start + 1 :: 2] = (b" " * (width - 1) + b"\n") * height
        return bytes(text)
    lines = [f"{height} {width}"]
    for start in range(0, len(cells), width):
        lines.append(" ".join([spell[value] for value in cells[start : start + width]]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _header(lead: tuple[str, ...], prefix: str, count: int) -> list[str]:
    return [*lead, *(f"{prefix}_{k}" for k in range(count))]


#: About how many bytes of a table the C-level passes decode and split at
#: once; a chunk's text, lines and fields live only while it is read.
_CHUNK = 1 << 14


def _read_table(data: bytes | str, lead: tuple[str, ...], prefix: str, minimum: int) -> tuple:
    """Read a CSV table whose header is the ``lead`` columns, then
    ``{prefix}_0..{prefix}_{N-1}`` with ``N >= minimum``.  The first lead
    column is a row's id, and a second one its integer label.

    Returns ``N``, the ids, the labels (none without a label column) and
    the numbers of every row, row-major, as the bytes of their doubles.
    Lines end in ``\\n`` or ``\\r\\n``.  The rows are read by C-level passes
    over chunks of about ``_CHUNK`` bytes, each cut after a ``\\n``; a chunk
    that a pass refuses is searched row by row by ``_row_fault``, rows
    numbered across chunks, and its first fault is raised.
    """
    raw = _encoded(data)
    data = raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw
    expected = f"{','.join(lead)},{prefix}_0..{prefix}_{{N-1}} with N >= {minimum}"
    if not data:
        raise InputSyntaxError(f"empty table, expected the header {expected}")
    start = data.find(b"\n") + 1 or len(data)
    # No line end comes before a byte of the header, so its offset is the same in ``raw``.
    header = decode_utf8(data[:start]).removesuffix("\n").split(",")
    count = len(header) - len(lead)
    if count < minimum or header != _header(lead, prefix, count):
        raise SchemaError("header", expected, ",".join(header))
    width = len(header)
    ids, labels, pieces = [], [], []
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK) + 1 or len(data)
        chunk, start = data[start:end], end
        try:
            text = chunk.decode("utf-8")
            lines = text.removesuffix("\n").split("\n")
            if any(map(text.__contains__, _REFUSED)) or set(map(methodcaller("count", ","), lines)) != {width - 1}:
                raise ValueError
            fields = ",".join(lines).split(",")
            if len(lead) > 1:
                labels += map(int, fields[1::width])
            chunk_ids = fields[::width]
            for column in range(len(lead)):
                del fields[:: width - column]
            pieces.append(array("d", list(map(float, fields))))
        except ValueError:  # UnicodeDecodeError is one too
            raise _row_fault(raw, chunk, len(ids), width, len(lead)) from None
        ids += chunk_ids
    return count, ids, labels, b"".join(pieces)


def _encoded(data: bytes | str) -> bytes:
    """``data`` as UTF-8; a ``str`` holding a lone surrogate, which no UTF-8
    writer can encode, is a syntax error in the words of ``load_json``."""
    if isinstance(data, bytes):
        return data
    try:
        return data.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputSyntaxError(f"lone surrogate {exc.object[exc.start]!r}") from None


def _row_fault(raw: bytes, chunk: bytes, row: int, width: int, leading: int) -> Exception | None:
    """The first fault of the lines of ``chunk``, a chunk that a pass of
    ``_read_table`` refused, so one that holds a fault; its lines are data
    rows ``row`` on of the table ``raw`` with ``leading`` lead columns.
    Each line is checked in this order: bytes that are not UTF-8, raised at
    their offset in ``raw``; a character of ``_REFUSED``, an
    :class:`InputSyntaxError`; a number of fields other than ``width`` (a
    blank line has none), a :class:`DimensionMismatch`; a label that
    ``int()`` or a number that ``float()`` refuses, a
    :class:`ValueOutOfRange`."""
    for row, line in enumerate(chunk.removesuffix(b"\n").split(b"\n"), row):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return decode_utf8(raw)  # raises: the first bad byte of ``raw`` is on this line
        refused = next(filter(_REFUSED.__contains__, text), None)
        if refused:
            return InputSyntaxError(f"data row {row}: a table field may not hold {refused!r}")
        fields = text.split(",") if text else []
        if len(fields) != width:
            return DimensionMismatch(f"data row {row}: expected {width} fields, got {len(fields)}")
        try:
            list(map(int, fields[1:leading]))
            list(map(float, fields[leading:]))
        except ValueError as exc:
            return ValueOutOfRange(f"data row {row}: {exc}")


def _write_table(lead: tuple[str, ...], prefix: str, count: int, rows) -> bytes:
    """The header, then one line per row of ``rows``, each a list of its fields' text."""
    lines = [",".join(_header(lead, prefix, count)), *map(",".join, rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


#: The leading columns of each table and the prefix of its numbered ones.
_PROB_COLUMNS = (("instance_id", "label"), "p")
_ACTIVATION_COLUMNS = (("sample_id",), "a")


def read_prob_table(data: bytes | str) -> ProbabilityTable:
    return ProbabilityTable._read(*_read_table(data, *_PROB_COLUMNS, 2))


def write_prob_table(table: ProbabilityTable) -> bytes:
    rows = _rows_of(table.flat, table.num_classes)
    lines = ([i, repr(label), *map(repr, probs)] for i, label, probs in zip(table.ids, table.labels, rows))
    return _write_table(*_PROB_COLUMNS, table.num_classes, lines)


def read_activations(data: bytes | str) -> ActivationTable:
    num_neurons, ids, _, numbers = _read_table(data, *_ACTIVATION_COLUMNS, 1)
    return ActivationTable._read(num_neurons, ids, numbers)


def write_activations(table: ActivationTable) -> bytes:
    lines = ([i, *map(repr, acts)] for i, acts in zip(table.ids, _rows_of(table.flat, table.num_neurons)))
    return _write_table(*_ACTIVATION_COLUMNS, table.num_neurons, lines)
