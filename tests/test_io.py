from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_activation_table,
    random_bundle,
    random_landscape,
    random_prob_table,
    schema_mutations,
    single_vr_landscape,
    table_rule_error,
)
from laisc import fixtures
from laisc.errors import (
    DimensionMismatch,
    InputSyntaxError,
    InvalidTimestamp,
    LaiscError,
    NotNormalized,
    SchemaError,
    UnsupportedFormat,
    ValueOutOfRange,
)
from laisc.io import (
    ActivationTable,
    LabeledGrid,
    ProbabilityTable,
    parse_evidence,
    parse_landscape,
    parse_timestamp,
    read_activations,
    read_grid,
    read_prob_table,
    serialize_evidence,
    serialize_landscape,
    write_activations,
    write_grid,
    write_prob_table,
)
from laisc.model import (
    Comparator,
    Landscape,
    MetricGap,
    MetricThreshold,
    ReviewFraction,
    build_landscape,
    fingerprint,
)
from laisc.report import serialize_report

FIXTURE_TEXT = fixtures.fixture_path().read_bytes()
EVIDENCE_TEXT = fixtures.fixture_path(fixtures.EVIDENCE_FILENAME).read_bytes()


# --- landscape ----------------------------------------------------------------


def test_shipped_fixture_content_is_pinned():
    """The fixture files are the only copy of the case study: an edit to
    either one must show up here."""
    assert fingerprint(fixtures.track_detector_landscape()) == (
        "sha256:af41ba926ad5f93d33927a53cde8238ffcd1546bced54ed6e0e3122fa18785f2"
    )
    assert hashlib.sha256(FIXTURE_TEXT).hexdigest() == (
        "1007b063dfc10301bd89176cbcc458b6e98b8759505f8776be22a4f91c9e9235"
    )
    assert hashlib.sha256(EVIDENCE_TEXT).hexdigest() == (
        "b075ab2d96604c4d862b62c8f10877edb41400fc574d48779ea3c30e7f4106f7"
    )


def test_shipped_fixture_file_is_canonical():
    assert serialize_landscape(parse_landscape(FIXTURE_TEXT)) == FIXTURE_TEXT


def test_landscape_round_trip_identity():
    landscape = fixtures.track_detector_landscape()
    assert parse_landscape(serialize_landscape(landscape)) == landscape


def test_unknown_comparator_rejected():
    node = json.loads(FIXTURE_TEXT)
    vr = next(v for v in node["vrs"] if v["id"] == "VR3.3")
    vr["payload"]["comparator"] = "EQ"
    with pytest.raises(SchemaError, match="GE"):
        parse_landscape(json.dumps(node))


@pytest.mark.parametrize(
    "parse,text,collection",
    [(parse_landscape, FIXTURE_TEXT, "vrs"), (parse_evidence, EVIDENCE_TEXT, "records")],
    ids=["vr", "evidence"],
)
def test_unknown_kind_rejected_at_its_key(parse, text, collection):
    node = json.loads(text)
    node[collection][2]["kind"] = "Hunch"
    with pytest.raises(SchemaError) as excinfo:
        parse(json.dumps(node))
    assert excinfo.value.path == f"$.{collection}[2].kind"
    assert excinfo.value.got == "Hunch"
    assert node[collection][0]["kind"] in excinfo.value.expected


def test_serialized_landscape_ignores_construction_order():
    rng = random.Random(2028)
    for _ in range(25):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
        parts = {f.name: getattr(landscape, f.name) for f in fields(Landscape)}
        for name, value in parts.items():
            if isinstance(value, tuple):
                parts[name] = rng.sample(value, len(value))
        parts["datasets"] = dict(parts["datasets"])
        assert serialize_landscape(build_landscape(**parts)) == serialize_landscape(landscape)


def test_truncated_file_reports_offset():
    with pytest.raises(InputSyntaxError, match="byte offset") as excinfo:
        parse_landscape(FIXTURE_TEXT[: len(FIXTURE_TEXT) // 2])
    assert excinfo.value.offset is not None


def test_unknown_top_level_key_rejected():
    node = json.loads(FIXTURE_TEXT)
    node["surprise"] = 1
    with pytest.raises(SchemaError):
        parse_landscape(json.dumps(node))


@pytest.mark.parametrize(
    "parse,text,member,first",
    [
        # VR3.3's payload with a second threshold: a reader would see 0.5, the verdicts would use 0.75.
        (parse_landscape, FIXTURE_TEXT, '"threshold": 0.75', '"threshold": 0.5,\n        '),
        (parse_landscape, FIXTURE_TEXT, '"d-train": {', '"d-train": {"format": "grid-dir", "path": "x", "role": ""},\n    '),
        (parse_evidence, EVIDENCE_TEXT, '"vr_id": "VR1.1.1"', '"vr_id": "VR1.1.1",\n      '),
    ],
    ids=["payload-threshold", "dataset-id", "equal-values"],
)
def test_duplicate_key_rejected(parse, text, member, first):
    text = text.decode("utf-8")
    key = member.split('"')[1]
    with pytest.raises(InputSyntaxError, match=f"duplicate key {key!r}"):
        parse(text.replace(member, first + member, 1))


def test_non_finite_constant_rejected():
    node_text = FIXTURE_TEXT.decode("utf-8").replace("0.75", "NaN", 1)
    with pytest.raises(InputSyntaxError):
        parse_landscape(node_text)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_generated_landscape_round_trips(rng):
    landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
    data = serialize_landscape(landscape)
    assert parse_landscape(data) == landscape
    assert serialize_landscape(parse_landscape(data)) == data


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_generated_bundle_round_trips(rng):
    bundle = random_bundle(rng)
    data = serialize_evidence(bundle)
    assert parse_evidence(data) == bundle
    assert serialize_evidence(parse_evidence(data)) == data


def test_seeded_bundles_round_trip_nested_flag_entries():
    """A single drawn bundle may resolve no flags; 25 seeded ones must
    round-trip some nested ``FlagEntry`` values."""
    rng = random.Random(2027)
    resolved = 0
    for _ in range(25):
        bundle = random_bundle(rng)
        data = serialize_evidence(bundle)
        assert parse_evidence(data) == bundle
        assert serialize_evidence(parse_evidence(data)) == data
        resolved += sum(len(getattr(r.payload, "entries", ())) for r in bundle.records)
    assert resolved > 0


@pytest.mark.parametrize(
    "payload",
    [
        lambda x: MetricThreshold("miou", "ds-a", Comparator.GE, x),
        lambda x: MetricGap("miou", "ds-a", "ds-b", x),
        lambda x: ReviewFraction("ds-a", x),
    ],
    ids=["threshold", "epsilon", "min_fraction"],
)
def test_integral_number_fields_fingerprint_and_serialize_alike(payload):
    as_int, as_float = single_vr_landscape(payload(1)), single_vr_landscape(payload(1.0))
    assert as_int == as_float
    assert fingerprint(as_int) == fingerprint(as_float)
    assert serialize_landscape(as_int) == serialize_landscape(as_float)


@pytest.mark.parametrize("parse", [parse_landscape, parse_evidence], ids=["landscape", "evidence"])
def test_schema_mutations_raise_schema_error_at_their_path(parse):
    """Every wrong-type, missing-key and unknown-key mutation of the shipped
    fixture is a SchemaError naming the mutated field or its object."""
    text = FIXTURE_TEXT if parse is parse_landscape else EVIDENCE_TEXT
    count = 0
    for mutated, field, parent in schema_mutations(json.loads(text)):
        with pytest.raises(SchemaError) as excinfo:
            parse(mutated)
        message = str(excinfo.value)
        assert re.match(rf"{re.escape(field)}(\[\d+\])?: ", message) or message.startswith(f"{parent}: "), (
            field,
            message,
        )
        count += 1
    assert count > 1000


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_fixture_never_yields_invalid_object(data):
    """Random single-character mutations either parse to a valid landscape
    or raise a library error, never anything else."""
    text = bytearray(FIXTURE_TEXT)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, len(text) - 1))
        text[pos] = data.draw(st.integers(0, 255))
    try:
        landscape = parse_landscape(bytes(text).decode("utf-8", errors="replace"))
    except LaiscError:
        return
    # Parsed successfully: the object passed construction-time invariants,
    # so a re-serialize/re-parse round trip must agree.
    assert parse_landscape(serialize_landscape(landscape)) == landscape


# --- evidence ---------------------------------------------------------------------


def test_shipped_evidence_parses_and_is_canonical():
    bundle = parse_evidence(EVIDENCE_TEXT)
    assert len(bundle.records) == 24
    assert serialize_evidence(bundle) == EVIDENCE_TEXT


def test_single_metric_result_bundle():
    data = {
        "source": "",
        "records": [
            {
                "id": "r1",
                "vr_id": "VR2.1",
                "kind": "MetricResult",
                "landscape_fingerprint": "sha256:abc",
                "timestamp": "2026-01-01T00:00:00Z",
                "payload": {"metric_id": "miou", "dataset_ids": ["d"], "value": 0.03, "config_note": ""},
            }
        ],
    }
    bundle = parse_evidence(json.dumps(data))
    assert len(bundle.records) == 1
    assert bundle.records[0].payload.value == 0.03


def test_review_log_reviewed_exceeding_total_rejected():
    data = {
        "source": "",
        "records": [
            {
                "id": "r1",
                "vr_id": "VR1.2.1",
                "kind": "ReviewLog",
                "landscape_fingerprint": "sha256:abc",
                "timestamp": "2026-01-01T00:00:00Z",
                "payload": {"dataset_id": "d", "total_items": 100, "reviewed_items": 120},
            }
        ],
    }
    with pytest.raises(SchemaError, match="reviewed"):
        parse_evidence(json.dumps(data))


def test_empty_record_list_is_valid():
    bundle = parse_evidence(json.dumps({"source": "", "records": []}))
    assert bundle.records == ()


def test_duplicate_record_ids_rejected():
    node = json.loads(EVIDENCE_TEXT)
    node["records"][1]["id"] = node["records"][0]["id"]
    with pytest.raises(SchemaError, match="unique"):
        parse_evidence(json.dumps(node))


def test_unknown_vr_id_allowed_at_parse_time():
    node = json.loads(EVIDENCE_TEXT)
    node["records"][0]["vr_id"] = "VR-NOT-IN-ANY-LANDSCAPE"
    parse_evidence(json.dumps(node))


@pytest.mark.parametrize("stamp", ["2026-01-01T00:00:00", "yesterday", "2026-13-01T00:00:00Z"])
def test_bad_timestamps_rejected(stamp):
    with pytest.raises(InvalidTimestamp):
        parse_timestamp(stamp)


def test_naive_timestamp_in_evidence_rejected():
    node = json.loads(EVIDENCE_TEXT)
    node["records"][0]["timestamp"] = "2026-01-01T00:00:00"
    with pytest.raises(InvalidTimestamp):
        parse_evidence(json.dumps(node))


def test_offset_timestamps_normalize_to_utc():
    assert parse_timestamp("2026-01-01T02:30:00+02:30") == parse_timestamp("2026-01-01T00:00:00Z")


# --- grids --------------------------------------------------------------------------


def test_grid_happy_path():
    grid = read_grid("2 2\n1 0\n0 1\n")
    assert (grid.height, grid.width) == (2, 2)
    assert grid.values == ((1, 0), (0, 1))


def test_grid_write_read_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        values = tuple(
            tuple(rng.randint(0, 255) for _ in range(rng.randint(1, 6)))
            for _ in range(1)
        )
        height = rng.randint(1, 6)
        width = len(values[0])
        values = tuple(tuple(rng.randint(0, 255) for _ in range(width)) for _ in range(height))
        grid = LabeledGrid(height, width, values)
        assert read_grid(write_grid(grid)) == grid
        canonical = "\n".join([f"{height} {width}", *(" ".join(map(str, row)) for row in values)]) + "\n"
        assert write_grid(grid) == canonical.encode("ascii")


#: The exact message of each malformed grid; a case's exception type and
#: message are part of the format's contract.
GRID_ERRORS = {
    "": "empty grid file",
    "2\n1 0\n": "grid header must be 'H W', got '2'",
    "x y\n": "grid header must be two integers, got 'x y'",
    "2 2\n1 0\n": "expected 2 data rows, got 1",
    "1 2\n1 zebra\n": "row 0: non-integer cell in '1 zebra'",
    "1 2\n1 0 1\n": "row 0: expected 2 values, got 3",
    "1 1\n300\n": "row 0: cell value 300 outside [0, 255]",
    "1 1\n-3\n": "row 0: cell value -3 outside [0, 255]",
    "0 0\n": "grid must be at least 1x1, got 0x0",
    "2 0\n1\n1\n": "grid must be at least 1x1, got 2x0",
    "-1 2\n": "expected -1 data rows, got 0",
    "1 1\n256\n": "row 0: cell value 256 outside [0, 255]",
    "1 1\n1.0\n": "row 0: non-integer cell in '1.0'",
    # A non-integer anywhere is reported before a ragged or out-of-range row.
    "2 2\n1 0 1\n0 x\n": "row 1: non-integer cell in '0 x'",
    # Otherwise rows are checked in order, each for its length, then its cells.
    "2 2\n1 0 1\n0 300\n": "row 0: expected 2 values, got 3",
    "2 2\n1 300\n0 1 1\n": "row 0: cell value 300 outside [0, 255]",
    # A form feed breaks the line, as in ``str.splitlines``.
    "1 2\n1\x0c0\n": "expected 1 data rows, got 2",
}


@pytest.mark.parametrize(
    "text, error",
    [
        ("", InputSyntaxError),
        ("2\n1 0\n", InputSyntaxError),
        ("x y\n", InputSyntaxError),
        ("2 2\n1 0\n", DimensionMismatch),
        ("1 2\n1 zebra\n", ValueOutOfRange),
        ("1 2\n1 0 1\n", DimensionMismatch),
        ("1 1\n300\n", ValueOutOfRange),
        ("1 1\n-3\n", ValueOutOfRange),
        ("0 0\n", DimensionMismatch),
        ("2 0\n1\n1\n", DimensionMismatch),
        ("-1 2\n", DimensionMismatch),
        ("1 1\n256\n", ValueOutOfRange),
        ("1 1\n1.0\n", ValueOutOfRange),
        ("2 2\n1 0 1\n0 x\n", ValueOutOfRange),
        ("2 2\n1 0 1\n0 300\n", DimensionMismatch),
        ("2 2\n1 300\n0 1 1\n", ValueOutOfRange),
        ("1 2\n1\x0c0\n", DimensionMismatch),
    ],
)
def test_grid_rejects_malformed_input(text, error):
    with pytest.raises(error) as caught:
        read_grid(text)
    assert type(caught.value) is error
    assert str(caught.value) == GRID_ERRORS[text]


@pytest.mark.parametrize(
    "text, rows",
    [
        ("1 3\n007 +1 1_0\n", ((7, 1, 10),)),
        ("1 3\n-0 +0 0_0\n", ((0, 0, 0),)),
        ("1 2\n\u0663 255\n", ((3, 255),)),  # int() reads any Unicode decimal digit
        ("2 2\r\n1\t0 \r\n\r\n  0 1\t\r\n", ((1, 0), (0, 1))),
        ("\n \n 2  1 \n\n3\n\t\n4   \n\n\n", ((3,), (4,))),
        ("1 1\n5", ((5,),)),
        ("+1 02\n9 9\n", ((9, 9),)),
    ],
)
def test_grid_reads_lenient_spellings_and_whitespace(text, rows):
    grid = read_grid(text)
    assert (grid.height, grid.width) == (len(rows), len(rows[0]))
    assert grid.values == rows
    assert read_grid(text.encode("utf-8")) == grid


@pytest.mark.parametrize(
    "height, width, rows, error, message",
    [
        (1, 2, ((1, True),), ValueOutOfRange, "row 0: non-integer cell True"),
        (1, 1, ((1.0,),), ValueOutOfRange, "row 0: non-integer cell 1.0"),
        (1, 2, ((1, 300),), ValueOutOfRange, "row 0: cell value 300 outside [0, 255]"),
        (1, 1, ((-1,),), ValueOutOfRange, "row 0: cell value -1 outside [0, 255]"),
        (1, 2, ((1, 2, 3),), DimensionMismatch, "row 0: expected 2 values, got 3"),
        (2, 1, ((1,),), DimensionMismatch, "expected 2 rows, got 1"),
        (0, 1, (), DimensionMismatch, "grid must be at least 1x1, got 0x1"),
        (2, 2, ((1, 300), (1,)), ValueOutOfRange, "row 0: cell value 300 outside [0, 255]"),
        (2, 2, ((1,), (True, 0)), DimensionMismatch, "row 0: expected 2 values, got 1"),
    ],
    ids=["bool", "float", "above-255", "negative", "ragged", "row-count", "empty", "range-first", "length-first"],
)
def test_grid_constructor_rejects_bad_cells(height, width, rows, error, message):
    with pytest.raises(error) as caught:
        LabeledGrid(height, width, rows)
    assert type(caught.value) is error
    assert str(caught.value) == message


# --- probability tables ----------------------------------------------------------------


def test_prob_table_happy_path():
    table = read_prob_table("instance_id,label,p_0,p_1\nx1,1,0.3,0.7\n")
    assert table.num_classes == 2
    assert table.rows[0] == ("x1", 1, (0.3, 0.7))


def test_prob_table_round_trip():
    table = read_prob_table("instance_id,label,p_0,p_1,p_2\na,0,0.2,0.5,0.3\nb,2,0.1,0.2,0.7\n")
    assert read_prob_table(write_prob_table(table)) == table
    rng = random.Random(2029)
    for _ in range(20):
        table = random_prob_table(rng, rng.randint(2, 5), rng.randint(0, 12))
        assert read_prob_table(write_prob_table(table)) == table


@pytest.mark.parametrize("label", [1.0, True, "1", None], ids=["float", "bool", "str", "none"])
def test_prob_table_rejects_a_label_that_is_not_an_int(label):
    with pytest.raises(ValueOutOfRange) as caught:
        ProbabilityTable(2, (("x0", 0, (0.5, 0.5)), ("x1", label, (0.25, 0.75))))
    assert type(caught.value) is ValueOutOfRange
    assert str(caught.value) == f"row 1 (x1): label {label!r} is not an integer"


def test_prob_row_not_normalized():
    with pytest.raises(NotNormalized):
        read_prob_table("instance_id,label,p_0,p_1\nx1,0,0.5,0.6\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("instance_id,label,p_0\nx,0,1.0\n", SchemaError),
        ("id,label,p_0,p_1\nx,0,0.5,0.5\n", SchemaError),
        ("instance_id,label,p_0,p_1\nx,5,0.5,0.5\n", ValueOutOfRange),
        ("instance_id,label,p_0,p_1\nx,0,1.5,-0.5\n", ValueOutOfRange),
        ("instance_id,label,p_0,p_1\nx,0,0.5\n", DimensionMismatch),
        ("instance_id,label,p_0,p_1\nx,0,nan,0.5\n", ValueOutOfRange),
        ("instance_id,label,p_0,p_1\nx,0,inf,0.5\n", ValueOutOfRange),
        ("instance_id,label,p_0,p_1\nx,0,1e400,0.5\n", ValueOutOfRange),
        ("instance_id,label,p_0,p_1\nx,0,wild,0.5\n", ValueOutOfRange),
        ("instance_id,label,p_0,p_1\nx,0,,0.5\n", ValueOutOfRange),
        ("instance_id,label,p_0,p_1\nx,0,0.5,0.5\n\ny,1,0.5,0.5\n", DimensionMismatch),
    ],
)
def test_prob_table_rejects_malformed_input(text, error):
    with pytest.raises(error) as caught:
        read_prob_table(text)
    assert type(caught.value) is error


# --- activation tables --------------------------------------------------------------------


def test_activation_table_happy_path():
    table = read_activations("sample_id,a_0,a_1\ns1,0.5,-1.25\n")
    assert table.num_neurons == 2
    assert table.rows[0] == ("s1", (0.5, -1.25))


def test_activation_table_round_trip():
    table = read_activations("sample_id,a_0\ns1,1e-3\ns2,2.5\n")
    assert read_activations(write_activations(table)) == table
    rng = random.Random(2030)
    for _ in range(20):
        table = random_activation_table(rng, rng.randint(1, 6), rng.randint(0, 12))
        assert read_activations(write_activations(table)) == table


@pytest.mark.parametrize(
    "token, error",
    [
        ("nan", ValueOutOfRange),
        ("inf", ValueOutOfRange),
        ("-inf", ValueOutOfRange),
        ("wild", ValueOutOfRange),
        ("1e400", ValueOutOfRange),
        ("", ValueOutOfRange),
        ("0.5\n\ns2,0.5", DimensionMismatch),
    ],
    ids=["nan", "inf", "-inf", "wild", "1e400", "empty-field", "blank-line"],
)
def test_activation_non_finite_rejected(token, error):
    with pytest.raises(error) as caught:
        read_activations(f"sample_id,a_0\ns1,{token}\n")
    assert type(caught.value) is error


def test_tables_read_alike_from_text_bytes_and_crlf_bytes():
    acts = "sample_id,a_0,a_1\nß1,0.5,-1.25\ns2,1e-3,2.5\n"
    probs = "instance_id,label,p_0,p_1\nx1,1,0.3,0.7\nñ2,0,0.9,0.1\n"
    for read, text in ((read_activations, acts), (read_prob_table, probs)):
        table = read(text)
        assert read(text.encode("utf-8")) == table
        assert read(text.replace("\n", "\r\n").encode("utf-8")) == table


def test_activation_width_mismatch():
    with pytest.raises(DimensionMismatch):
        read_activations("sample_id,a_0,a_1\ns1,0.5\n")


# --- table checks against the per-row rules -------------------------------------------------


class _Half(float):
    """A float subclass: the per-row rules accept it like a float."""


#: Each defect replaces one value, or changes the row's width, label or sum.
_VALUE_DEFECTS = {
    "nan": lambda value: math.nan,
    "inf": lambda value: math.inf,
    "-inf": lambda value: -math.inf,
    "huge-int": lambda value: 10**400,
    "bool": lambda value: True,
    "float-subclass": lambda value: _Half(value if type(value) is float else 0.5),
    "int": lambda value: 1,
}
_ROW_DEFECTS = ("wider", "narrower", "label-high", "label-negative", "sum")


@st.composite
def _defective_table(draw):
    table_type = draw(st.sampled_from((ProbabilityTable, ActivationTable)))
    size = draw(st.integers(1, 4) if table_type is ActivationTable else st.integers(2, 4))
    rows = []
    for index in range(draw(st.integers(0, 6))):
        if table_type is ProbabilityTable:
            weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
            total = math.fsum(weights)
            rows.append([f"x{index}", draw(st.integers(0, size - 1)), [w / total for w in weights]])
        else:
            values = draw(st.lists(st.floats(-1e3, 1e3) | st.integers(-9, 9), min_size=size, max_size=size))
            rows.append([f"s{index}", values])
    defects = st.sampled_from(sorted(_VALUE_DEFECTS) + list(_ROW_DEFECTS))
    for defect in draw(st.lists(defects, max_size=3)) if rows else ():
        row = draw(st.sampled_from(rows))
        values = row[-1]
        if defect == "wider":
            values.append(0.0)
        elif not values:
            continue  # a row narrowed to nothing has no value left to change
        elif defect == "narrower":
            values.pop()
        elif defect in _VALUE_DEFECTS:
            column = draw(st.integers(0, len(values) - 1))
            values[column] = _VALUE_DEFECTS[defect](values[column])
        elif table_type is ActivationTable:
            continue  # activation rows have no label or sum
        elif defect == "sum":
            values[draw(st.integers(0, len(values) - 1))] = 0.0
        else:
            row[1] = size if defect == "label-high" else -1
    return table_type, size, tuple(tuple(row[:-1]) + (tuple(row[-1]),) for row in rows)


@settings(max_examples=400, deadline=None)
@given(_defective_table())
def test_table_checks_raise_the_first_per_row_error(drawn):
    table_type, size, rows = drawn
    expected = table_rule_error(table_type, size, rows)
    try:
        table = table_type(size, rows)
    except (LaiscError, OverflowError) as exc:
        assert expected is not None, f"rejected a table the rules accept: {exc!r}"
        assert (type(exc), str(exc)) == (type(expected), str(expected))
    else:
        assert expected is None, f"accepted a table the rules reject with {expected!r}"
        assert table.rows == rows


# --- report serialization ---------------------------------------------------------------------


def test_unsupported_report_format(fixture_landscape, demo_bundle):
    from laisc.evaluation import evaluate

    report = evaluate(fixture_landscape, demo_bundle)
    with pytest.raises(UnsupportedFormat):
        serialize_report(report, "pdf")
