from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_bundle, random_landscape, schema_mutations, single_vr_landscape
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
    LabeledGrid,
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
from laisc.model import Comparator, MetricGap, MetricThreshold, ReviewFraction, fingerprint
from laisc.report import serialize_report

FIXTURE_TEXT = fixtures.fixture_path().read_bytes()
EVIDENCE_TEXT = fixtures.fixture_path(fixtures.EVIDENCE_FILENAME).read_bytes()


# --- landscape ----------------------------------------------------------------


def test_shipped_fixture_parses_to_expected_landscape():
    assert parse_landscape(FIXTURE_TEXT) == fixtures.track_detector_landscape()


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


def test_truncated_file_reports_offset():
    with pytest.raises(InputSyntaxError, match="byte offset") as excinfo:
        parse_landscape(FIXTURE_TEXT[: len(FIXTURE_TEXT) // 2])
    assert excinfo.value.offset is not None


def test_unknown_top_level_key_rejected():
    node = json.loads(FIXTURE_TEXT)
    node["surprise"] = 1
    with pytest.raises(SchemaError):
        parse_landscape(json.dumps(node))


def test_non_finite_constant_rejected():
    node_text = FIXTURE_TEXT.decode("utf-8").replace("0.75", "NaN", 1)
    with pytest.raises(InputSyntaxError):
        parse_landscape(node_text)


def test_generated_landscape_round_trips():
    rng = random.Random(2026)
    for _ in range(25):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
        data = serialize_landscape(landscape)
        assert parse_landscape(data) == landscape
        assert serialize_landscape(parse_landscape(data)) == data


def test_generated_bundle_round_trips():
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
    ],
)
def test_grid_rejects_malformed_input(text, error):
    with pytest.raises(error):
        read_grid(text)


# --- probability tables ----------------------------------------------------------------


def test_prob_table_happy_path():
    table = read_prob_table("instance_id,label,p_0,p_1\nx1,1,0.3,0.7\n")
    assert table.num_classes == 2
    assert table.rows[0] == ("x1", 1, (0.3, 0.7))


def test_prob_table_round_trip():
    table = read_prob_table("instance_id,label,p_0,p_1,p_2\na,0,0.2,0.5,0.3\nb,2,0.1,0.2,0.7\n")
    assert read_prob_table(write_prob_table(table)) == table


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
    ],
)
def test_prob_table_rejects_malformed_input(text, error):
    with pytest.raises(error):
        read_prob_table(text)


# --- activation tables --------------------------------------------------------------------


def test_activation_table_happy_path():
    table = read_activations("sample_id,a_0,a_1\ns1,0.5,-1.25\n")
    assert table.num_neurons == 2
    assert table.rows[0] == ("s1", (0.5, -1.25))


def test_activation_table_round_trip():
    table = read_activations("sample_id,a_0\ns1,1e-3\ns2,2.5\n")
    assert read_activations(write_activations(table)) == table


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "wild"])
def test_activation_non_finite_rejected(token):
    with pytest.raises(ValueOutOfRange):
        read_activations(f"sample_id,a_0\ns1,{token}\n")


def test_activation_width_mismatch():
    with pytest.raises(DimensionMismatch):
        read_activations("sample_id,a_0,a_1\ns1,0.5\n")


# --- report serialization ---------------------------------------------------------------------


def test_unsupported_report_format(fixture_landscape, demo_bundle):
    from laisc.evaluation import evaluate

    report = evaluate(fixture_landscape, demo_bundle)
    with pytest.raises(UnsupportedFormat):
        serialize_report(report, "pdf")
