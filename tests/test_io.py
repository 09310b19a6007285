from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from datetime import datetime, timedelta, timezone
from enum import Enum, IntEnum
from functools import cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    generated_pair,
    random_activation_table,
    random_bundle,
    random_landscape,
    random_prob_table,
    record,
    schema_mutations,
    single_vr_landscape,
    table_oracle,
    table_rule_error,
)
from laisc import codec, fixtures
from laisc import io as laisc_io
from laisc.codec import dump_canonical, from_node, to_node
from laisc.errors import (
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    InputSyntaxError,
    InvalidPayload,
    InvalidThreshold,
    InvalidTimestamp,
    LaiscError,
    NonFinite,
    NotNormalized,
    SchemaError,
    UnsupportedFormat,
    ValueOutOfRange,
)
from laisc.evaluation import Status, Verdict
from laisc.metrics import ContrastScale, GaussianNoise, Rotate90, clm_flags, performance_gap
from laisc.io import (
    ActivationTable,
    ApprovalRecord,
    DocumentRecord,
    EvidenceBundle,
    EvidenceRecord,
    FlagResolutionLog,
    LabeledGrid,
    MetricResult,
    ProbabilityTable,
    ReviewLog,
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
    DatasetDescriptor,
    Landscape,
    LifecycleStage,
    MetricGap,
    MetricThreshold,
    QualitativeApproval,
    Resolution,
    ReviewFraction,
    SafetyConcern,
    SystemComponent,
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
    vr["payload"]["comparator"] = "GT"
    with pytest.raises(SchemaError) as excinfo:
        parse_landscape(json.dumps(node))
    assert str(excinfo.value) == "$.vrs[9].payload.comparator: expected one of {GE, LE}, got 'GT'"


@pytest.mark.parametrize(
    "parse,text,collection,kinds",
    [
        (
            parse_landscape,
            FIXTURE_TEXT,
            "vrs",
            "MetricThreshold, MetricGap, PerCondition, ReviewFraction, FlagResolution, QualitativeApproval",
        ),
        (
            parse_evidence,
            EVIDENCE_TEXT,
            "records",
            "MetricResult, ApprovalRecord, ReviewLog, FlagResolutionLog, DocumentRecord",
        ),
    ],
    ids=["vr", "evidence"],
)
def test_unknown_kind_rejected_at_its_key(parse, text, collection, kinds):
    node = json.loads(text)
    node[collection][2]["kind"] = "Hunch"
    with pytest.raises(SchemaError) as excinfo:
        parse(json.dumps(node))
    assert excinfo.value.path == f"$.{collection}[2].kind"
    assert excinfo.value.got == "Hunch"
    assert str(excinfo.value) == f"$.{collection}[2].kind: expected one of {{{kinds}}}, got 'Hunch'"


def test_non_iso_timestamp_is_an_invalid_timestamp_naming_it():
    # The reason is the grammar's, the same on every Python version.
    node = json.loads(EVIDENCE_TEXT)
    node["records"][0]["timestamp"] = "yesterday"
    with pytest.raises(InvalidTimestamp) as excinfo:
        parse_evidence(json.dumps(node))
    assert type(excinfo.value) is InvalidTimestamp
    assert excinfo.value.value == "yesterday"
    assert str(excinfo.value) == (
        "invalid timestamp 'yesterday': not YYYY-MM-DDTHH:MM:SS[.fff|.ffffff](Z|+HH:MM|-HH:MM)"
    )


def test_serialized_landscape_ignores_construction_order():
    rng = random.Random(2028)
    for _ in range(25):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
        parts = {f.name: getattr(landscape, f.name) for f in fields(Landscape)}
        for name, value in parts.items():
            if isinstance(value, tuple):
                parts[name] = rng.sample(value, len(value))
        parts["datasets"] = dict(parts["datasets"])
        assert serialize_landscape(Landscape(**parts)) == serialize_landscape(landscape)


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


_NAME = '"name": "train-track-detector"'


@pytest.mark.parametrize(
    "name",
    [r"train-\ud800-track-detector", r"train-\uDC00", r"train-\udbffA", r"\ud83d\\ude00"],
    ids=["high", "low", "high-then-bmp", "high-then-escaped-backslash"],
)
def test_lone_surrogate_escape_is_a_syntax_error(name):
    # Every writer encodes UTF-8, which has no lone surrogate: the reader must refuse it.
    text = FIXTURE_TEXT.decode("utf-8").replace(_NAME, f'"name": "{name}"', 1)
    with pytest.raises(InputSyntaxError, match="lone surrogate"):
        parse_landscape(text.encode("utf-8"))


def test_raw_surrogate_in_text_input_is_a_syntax_error():
    text = FIXTURE_TEXT.decode("utf-8").replace(_NAME, '"name": "train-\ud800"', 1)
    with pytest.raises(InputSyntaxError, match="lone surrogate"):
        parse_landscape(text)


@pytest.mark.parametrize(
    "name, read",
    [(r"train-\ud83d\ude00", "train-😀"), ("train-😀", "train-😀"), (r"train-\\ud800", "train-\\ud800")],
    ids=["escaped-pair", "raw-pair", "escaped-backslash"],
)
def test_surrogate_pairs_and_escaped_backslashes_still_parse(name, read):
    text = FIXTURE_TEXT.decode("utf-8").replace(_NAME, f'"name": "{name}"', 1)
    for data in (text, text.encode("utf-8")):
        assert parse_landscape(data).name == read


def test_non_finite_constant_rejected():
    node_text = FIXTURE_TEXT.decode("utf-8").replace("0.75", "NaN", 1)
    with pytest.raises(InputSyntaxError):
        parse_landscape(node_text)


class _Tint(str, Enum):
    RED = "réd"
    QUOTE = 'a "b" \\ c'


class _Level(IntEnum):
    HIGH = 3


class _Half(float):
    def __repr__(self) -> str:  # json ignores a subclass's repr
        return "half"


_TRICKY_TEXT = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "😀", "", " "])
_JSON_TEXT = st.one_of(st.text(), st.lists(_TRICKY_TEXT | st.text(max_size=3)).map("".join))
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, _Half(0.5), _Level.HIGH]),
    st.sampled_from(list(_Tint)),
    _JSON_TEXT,
)
_JSON_NODES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_NODES)
def test_dump_canonical_writes_the_bytes_of_json_dumps(node):
    expected = (json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    assert dump_canonical(node) == expected


def test_dump_canonical_refuses_a_node_that_is_not_json_as_json_dumps_does():
    with pytest.raises(TypeError) as expected:
        json.dumps({"a": {1}})
    with pytest.raises(TypeError) as caught:
        dump_canonical({"a": {1}})
    assert str(caught.value) == str(expected.value) == "Object of type set is not JSON serializable"


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


def test_verdict_measured_is_an_object_of_numbers():
    verdict = Verdict(Status.VIOLATED, "gap too wide", ("r1",), (("gap", 0.25), ("miou", 1.0)))
    node = to_node(verdict)
    assert node["measured"] == {"gap": 0.25, "miou": 1.0}
    assert from_node(Verdict, node, "$") == verdict
    with pytest.raises(SchemaError, match=re.escape("$.measured.miou: expected finite number")):
        from_node(Verdict, {**node, "measured": {"miou": True}}, "$")


class _DictSubclass(dict):
    pass


#: ``(node, the SchemaError message or None)`` for a ``LifecycleStage``
#: object at ``$.stages[0]``.
_OBJECT_NODES = {
    "exact-keys": ({"id": "s", "name": "S", "order": 0}, None),
    "unknown-key": (
        {"id": "s", "name": "S", "order": 0, "extra": 1},
        "$.stages[0]: expected keys from ['id', 'name', 'order'], got \"unknown keys ['extra']\"",
    ),
    "missing-key": ({"id": "s", "name": "S"}, "$.stages[0]: expected required keys ['order'], got 'absent'"),
    "unknown-before-missing": (
        {"id": "s", "name": "S", "extra": 1},
        "$.stages[0]: expected keys from ['id', 'name', 'order'], got \"unknown keys ['extra']\"",
    ),
    "list": (["s", "S", 0], "$.stages[0]: expected object, got 'list'"),
    "null": (None, "$.stages[0]: expected object, got 'NoneType'"),
    "dict-subclass": (_DictSubclass(id="s", name="S", order=0), None),
    "dict-subclass-missing-key": (
        _DictSubclass(id="s", name="S"),
        "$.stages[0]: expected required keys ['order'], got 'absent'",
    ),
}


@pytest.mark.parametrize("node, message", _OBJECT_NODES.values(), ids=_OBJECT_NODES)
def test_object_keys_are_checked_as_one_set(node, message):
    if message is None:
        assert from_node(LifecycleStage, node, "$.stages[0]") == LifecycleStage("s", "S", 0)
    else:
        with pytest.raises(SchemaError) as excinfo:
            from_node(LifecycleStage, node, "$.stages[0]")
        assert str(excinfo.value) == message


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


@cache
def _mutation_errors(parse) -> tuple[tuple[str, str, SchemaError], ...]:
    """``(field, parent, error)`` for every schema mutation of the shipped
    fixture that ``parse`` reads."""
    text = FIXTURE_TEXT if parse is parse_landscape else EVIDENCE_TEXT
    errors = []
    for mutated, field, parent in schema_mutations(json.loads(text)):
        with pytest.raises(SchemaError) as excinfo:
            parse(mutated)
        errors.append((field, parent, excinfo.value))
    return tuple(errors)


#: The sha256 of ``"{type}: {message}"`` for every schema mutation of the
#: landscape fixture, then of the evidence fixture, joined by newlines.
_MUTATION_MESSAGES_SHA256 = "e38e257b6b25e49cba4d80c4b9525514760fd6f9a610044fc0d2fd0dc5296b53"


@pytest.mark.parametrize("parse", [parse_landscape, parse_evidence], ids=["landscape", "evidence"])
def test_schema_mutations_raise_schema_error_at_their_path(parse):
    """Every wrong-type, missing-key and unknown-key mutation of the shipped
    fixture is a SchemaError naming the mutated field or its object, and the
    type and wording of every such error of both fixtures is pinned."""
    for field, parent, error in _mutation_errors(parse):
        message = str(error)
        assert re.match(rf"{re.escape(field)}(\[\d+\])?: ", message) or message.startswith(f"{parent}: "), (
            field,
            message,
        )
    assert len(_mutation_errors(parse)) > 1000
    lines = [
        f"{type(error).__name__}: {error}"
        for read in (parse_landscape, parse_evidence)
        for _, _, error in _mutation_errors(read)
    ]
    assert len(lines) == 3754
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _MUTATION_MESSAGES_SHA256


# --- the column pass: a list read one field at a time ---------------------------------


def _refuse_columns(cls, nodes, where):
    return [codec.from_node(cls, node, where(index)) for index, node in enumerate(nodes)]


def _outcome(parse, data):
    """What ``parse(data)`` gives: the canonical bytes of its value, or the
    type and message of what it raises."""
    try:
        value = parse(data)
    except Exception as exc:  # noqa: BLE001 - every exception must match
        return type(exc), str(exc)
    return (serialize_landscape if parse is parse_landscape else serialize_evidence)(value), value


def _both_reads(parse, data):
    """``_outcome`` with the column pass, then with every list read object
    by object."""
    column = _outcome(parse, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_objects", _refuse_columns)
        return column, _outcome(parse, data)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_column_read_equals_the_per_object_read(rng, data):
    """On a drawn landscape and bundle, and on one drawn schema mutation of
    each, the column pass gives what ``from_node`` object by object gives:
    equal values and bytes, or the same exception type and message."""
    for parse, document in (
        (parse_landscape, serialize_landscape(random_landscape(rng, delete_links=rng.random() < 0.3))),
        (parse_evidence, serialize_evidence(random_bundle(rng))),
    ):
        column, per_object = _both_reads(parse, document)
        assert column == per_object
        assert not isinstance(column[0], type)
        mutated = list(schema_mutations(json.loads(document)))
        text, _, _ = data.draw(st.sampled_from(mutated))
        column, per_object = _both_reads(parse, text)
        assert column == per_object


@pytest.mark.parametrize("parse", [parse_landscape, parse_evidence], ids=["landscape", "evidence"])
def test_schema_mutations_read_alike_by_column_and_by_object(parse):
    text = FIXTURE_TEXT if parse is parse_landscape else EVIDENCE_TEXT
    for mutated, field, _ in schema_mutations(json.loads(text)):
        column, per_object = _both_reads(parse, mutated)
        assert column == per_object, field
        assert column[0] is SchemaError, field


def test_the_first_fault_in_document_order_is_refused():
    """The column pass meets record 1's ``vr_id`` before record 0's
    ``timestamp``; the refusal names record 0's, the first in the file."""
    node = json.loads(EVIDENCE_TEXT)
    node["records"][0]["timestamp"] = "yesterday"
    node["records"][1]["vr_id"] = 5
    with pytest.raises(InvalidTimestamp, match="^invalid timestamp 'yesterday': "):
        parse_evidence(json.dumps(node))
    node["records"][0]["timestamp"] = 5
    with pytest.raises(SchemaError, match=r"^\$\.records\[0\]\.timestamp: expected string, got 5$"):
        parse_evidence(json.dumps(node))
    # Two payload kinds, which the column pass reads apart, and a nested list.
    node = json.loads(EVIDENCE_TEXT)
    node["records"][9]["payload"]["entries"][0]["resolution"] = 5
    node["records"][10]["payload"]["value"] = "x"
    with pytest.raises(SchemaError, match=r"^\$\.records\[9\]\.payload\.entries\[0\]\.resolution: expected string, got 5$"):
        parse_evidence(json.dumps(node))
    node["records"][6]["payload"]["value"] = "x"
    with pytest.raises(SchemaError, match=r"^\$\.records\[6\]\.payload\.value: expected finite number, got 'x'$"):
        parse_evidence(json.dumps(node))


def test_a_column_that_breaks_raises_without_a_second_read(monkeypatch):
    """Only a refusal sends a list to the per-object read: a column that
    raises anything else (here once, so a second read would succeed)
    raises it as it is."""
    calls = []

    def parse_once(value):
        calls.append(value)
        if len(calls) == 1:
            raise RuntimeError("broken column")
        return parse_timestamp(value)

    monkeypatch.setattr(codec, "parse_timestamp", parse_once)
    with pytest.raises(RuntimeError, match="^broken column$"):
        parse_evidence(EVIDENCE_TEXT)
    assert len(calls) == 1


@pytest.mark.parametrize("pair", ["fixture", "audit_gen"])
def test_valid_documents_never_fall_back_to_the_per_object_read(pair, monkeypatch):
    """A silent fallback would give the same objects, only slower: below the
    document's own object, a valid file reads no object with ``from_node``."""
    land, bundle = (FIXTURE_TEXT, EVIDENCE_TEXT) if pair == "fixture" else generated_pair(3, 60)
    calls = []
    read = codec.from_node
    monkeypatch.setattr(codec, "from_node", lambda cls, node, path: calls.append(path) or read(cls, node, path))
    landscape, records = parse_landscape(land), parse_evidence(bundle).records
    assert landscape.vrs and records
    assert calls == []
    with pytest.raises(SchemaError):  # the count sees a fallback
        parse_landscape(land.replace(b'"order": 0', b'"order": "0"', 1))
    assert calls


_FLOAT_MAX_INT = int(sys.float_info.max)


def _number_fault(obj) -> str | None:
    """The words of the first number rule that ``obj`` breaks, or ``None``:
    the number rows of ``obj``'s class run over ``obj`` alone."""
    found = codec.first_fault(codec.number_rows(type(obj), [obj], None, lambda words, _: words))
    return found and found[1]

#: JSON numbers and the values around the edges of the number rule.
_NUMBERS = (
    st.booleans()
    | st.integers()
    | st.builds(lambda sign, offset: sign * (_FLOAT_MAX_INT + offset), st.sampled_from((1, -1)), st.integers(-(2**971), 2**971))
    | st.sampled_from((10**400, -(10**400)))
    | st.floats()
    | st.sampled_from((_Level.HIGH, _Half(0.5)))
)


@settings(max_examples=300, deadline=None)
@given(_NUMBERS)
def test_number_read_from_a_file_follows_the_rule_for_code(value):
    """``from_node`` accepts a number exactly when the number rows accept
    the same value in an object built in code, for a float, an int and a
    bool field."""
    concern = {"id": "c", "name": "C", "description": "", "relevant": True, "relevance_rationale": "x"}
    for cls, node, name in (
        (MetricThreshold, {"metric_id": "miou", "dataset_id": "ds-a", "comparator": "GE", "threshold": 0}, "threshold"),
        (LifecycleStage, {"id": "s", "name": "S", "order": 0}, "order"),
        (SafetyConcern, {**concern, "component_ids": [], "goal_ids": []}, "relevant"),
    ):
        try:
            from_node(cls, {**node, name: value}, "$")
            read = True
        except SchemaError as exc:
            assert str(exc).startswith(f"$.{name}: "), exc
            read = False
        assert read == (_number_fault(replace(from_node(cls, node, "$"), **{name: value})) is None), (cls, value)


#: Objects of classes with number fields and bounds, each built around one number.
_NUMBER_HOLDERS = (
    lambda value: ReviewFraction("d", value),
    lambda value: QualitativeApproval(value),
    lambda value: ContrastScale(value),
    lambda value: GaussianNoise(0.5, value),
    lambda value: Rotate90(value),
    lambda value: MetricResult("miou", ("d",), value),
    lambda value: ReviewLog("d", value, 0),
    lambda value: SafetyConcern("c", "C", relevant=value),
)


def _numbers_hold(objects: list) -> bool:
    """Whether the column tests of the ``number_rows`` of ``objects``, class by class, all hold."""
    groups = codec.by_class(objects)
    return all(holds() for cls, group, at in groups for holds, _ in codec.number_rows(cls, group, at, None))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_NUMBER_HOLDERS), _NUMBERS), max_size=6))
def test_number_columns_follow_number_fault(drawn):
    """The column tests of the number rows pass a list of objects exactly
    when the same rows find no fault in any one of them alone."""
    objects = [build(value) for build, value in drawn]
    assert _numbers_hold(objects) == all(_number_fault(obj) is None for obj in objects)


def test_number_fault_names_the_first_field_then_its_first_rule():
    """A field's type comes before its bounds, so a bound never meets a
    value of another type, and the first field at fault is named."""
    assert _number_fault(GaussianNoise(-1.0, 1.5)) == "sigma must be >= 0, got -1.0"
    assert _number_fault(GaussianNoise(0.5, 1.5)) == "seed must be an integer, got 1.5"
    assert _number_fault(ReviewFraction("d", "0.5")) == "min_fraction must be a finite number, got '0.5'"
    assert _number_fault(ReviewFraction("d", 1.5)) == "min_fraction must be in [0, 1], got 1.5"
    assert _number_fault(ContrastScale(0)) == "factor must be > 0, got 0"
    assert not _numbers_hold([ReviewFraction("d", 0.5), ReviewFraction("d", "0.5")])


@pytest.mark.parametrize("cls", [ReviewFraction, MetricGap, ContrastScale])
def test_a_bound_rule_over_no_values_holds(cls):
    """A class with a bounded number field finds no fault in no objects:
    each bound's column test holds of an empty column."""
    rows = codec.number_rows(cls, [], None, None)
    assert len(rows) >= 2
    assert codec.first_fault(rows) is None
    codec.check_rows(rows)


def test_the_review_log_count_rules_hold_over_no_logs():
    assert all(test([]) for test, _ in laisc_io._COUNT_RULES)
    codec.check_rows(codec.rule_rows([], laisc_io._COUNT_RULES, None))


@codec.record
class _MaybeCount:
    n: int | None


@codec.record
class _Words:
    words: list[str]


@pytest.mark.parametrize(
    ("cls", "node", "message"),
    [
        (_MaybeCount, {"n": 1}, "_MaybeCount.n: codec has no row for the annotation int | None"),
        (_Words, {"words": ["a"]}, "_Words.words: codec has no row for the annotation list[str]"),
    ],
    ids=["int-or-none", "list-of-str"],
)
def test_a_field_annotation_with_no_codec_row_fails_at_plan(cls, node, message):
    """An annotation that the shape table has no row for is refused when
    the class is first read or written, naming the field and the
    annotation, rather than read as a tuple of dataclasses."""
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        from_node(cls, node, "$")
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        to_node(cls(*node.values()))


_HUGE = 10**400

#: Numbers built in code that the one number rule refuses: a ``bool``, an
#: ``int`` or ``float`` subclass and an int past the float range, each with
#: the error it raises and the start of its message.
_CODE_BUILT_NUMBERS = {
    "IntEnum count": (
        lambda: single_vr_landscape(QualitativeApproval(_Level.HIGH)),
        InvalidPayload,
        "invalid payload for v1: required_approvals must be an integer, got",
    ),
    "float-subclass threshold": (
        lambda: single_vr_landscape(MetricThreshold("miou", "ds-a", Comparator.GE, _Half(0.5))),
        InvalidPayload,
        "invalid payload for v1: threshold must be a finite number, got",
    ),
    "IntEnum cell": (lambda: LabeledGrid(1, 1, ((_Level.HIGH,),)), ValueOutOfRange, "row 0: non-integer cell"),
    "bool probability": (
        lambda: ProbabilityTable(2, (("x", 0, (True, False)),)),
        ValueOutOfRange,
        "row 0 (x): probability True outside [0, 1]",
    ),
    "huge activation": (lambda: ActivationTable(1, (("s", (_HUGE,)),)), ValueOutOfRange, "row 0 (s): non-finite activation"),
    "bool gap input": (lambda: performance_gap(True, 0.5), NonFinite, "performance indicator True is not"),
    "huge gap input": (lambda: performance_gap(0.5, _HUGE), NonFinite, "performance indicator 1000"),
    "float stage order": (
        lambda: _replace_first(parse_landscape(FIXTURE_TEXT), "stages", order=0.0),
        InvalidPayload,
        "invalid payload for stage-data-prep: order must be an integer, got 0.0",
    ),
    "int relevance": (
        lambda: _replace_first(parse_landscape(FIXTURE_TEXT), "concerns", relevant=1),
        InvalidPayload,
        "invalid payload for sc1-inaccurate-labels: relevant must be a boolean, got 1",
    ),
    "bool flag threshold": (
        lambda: clm_flags(ProbabilityTable(2, (("x", 0, (0.5, 0.5)),)), True, min_samples=1),
        InvalidThreshold,
        "flag threshold must be in [0, 1], got True",
    ),
}


def _replace_first(landscape: Landscape, collection: str, **changes) -> Landscape:
    """``landscape`` with the first element of ``collection`` changed."""
    first, *rest = getattr(landscape, collection)
    return replace(landscape, **{collection: (replace(first, **changes), *rest)})


@pytest.mark.parametrize("build, error, message", _CODE_BUILT_NUMBERS.values(), ids=list(_CODE_BUILT_NUMBERS))
def test_number_built_in_code_follows_the_rule_for_a_file(build, error, message):
    """A value that no JSON or CSV file can hold is refused with a
    ``LaiscError`` where code builds it, never taken or met with an
    ``OverflowError``."""
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value).startswith(message)


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


def _review_log_bundle(total_items: int, reviewed_items: int) -> str:
    record = {
        "id": "r1",
        "vr_id": "VR1.2.1",
        "kind": "ReviewLog",
        "landscape_fingerprint": "sha256:abc",
        "timestamp": "2026-01-01T00:00:00Z",
        "payload": {"dataset_id": "d", "total_items": total_items, "reviewed_items": reviewed_items},
    }
    return json.dumps({"source": "", "records": [record]})


def test_review_log_reviewed_exceeding_total_rejected():
    with pytest.raises(SchemaError, match="reviewed"):
        parse_evidence(_review_log_bundle(100, 120))


@pytest.mark.parametrize("counts, field", [((-1, 0), "total_items"), ((5, -1), "reviewed_items")], ids=["total", "reviewed"])
def test_review_log_negative_count_is_named_at_its_path(counts, field):
    with pytest.raises(SchemaError) as caught:
        parse_evidence(_review_log_bundle(*counts))
    assert str(caught.value).startswith(f"$.records[0].payload.{field}: ")


def test_empty_record_list_is_valid():
    bundle = parse_evidence(json.dumps({"source": "", "records": []}))
    assert bundle.records == ()


def test_duplicate_record_ids_rejected():
    node = json.loads(EVIDENCE_TEXT)
    node["records"][1]["id"] = node["records"][0]["id"]
    with pytest.raises(SchemaError, match="unique"):
        parse_evidence(json.dumps(node))


def test_empty_record_id_rejected_at_its_path():
    # A verdict citing evidence id "" traces to no record.
    node = json.loads(EVIDENCE_TEXT)
    node["records"][3]["id"] = ""
    with pytest.raises(SchemaError, match=r"^\$\.records\[3\]\.id: expected non-empty string, got ''$"):
        parse_evidence(json.dumps(node))


#: What a record's ``kind`` takes, in the words of the reader.
_EVIDENCE_KINDS = "one of {MetricResult, ApprovalRecord, ReviewLog, FlagResolutionLog, DocumentRecord}"

#: A record that keeps every rule of a bundle, and records built in code
#: that break one, each with the error and message of the bundle's refusal
#: when it follows the first.
_FIRST = record("r0", "v1", MetricResult("miou", ("ds-a",), 0.5), "sha256:x")
_CODE_BUILT_RECORDS = {
    "infinite metric value": (
        record("r1", "v1", MetricResult("miou", ("ds-a",), math.inf), "sha256:x"),
        InvalidPayload,
        "invalid payload for $.records[1]: value must be a finite number, got inf",
    ),
    "repeated id": (
        record("r0", "v2", DocumentRecord("safety-case"), "sha256:x"),
        SchemaError,
        "$.records[1].id: expected unique record id, got 'r0'",
    ),
    "empty vr_id": (
        record("r1", "", DocumentRecord("safety-case"), "sha256:x"),
        SchemaError,
        "$.records[1].vr_id: expected non-empty string, got ''",
    ),
    "negative count": (
        record("r1", "v1", ReviewLog("ds-a", -1, 0), "sha256:x"),
        SchemaError,
        "$.records[1].payload.total_items: expected non-negative count, got -1",
    ),
    "reviewed past total": (
        record("r1", "v1", ReviewLog("ds-a", 3, 4), "sha256:x"),
        SchemaError,
        "$.records[1].payload.reviewed_items: expected at most total_items=3, got 4",
    ),
    "bool count": (
        record("r1", "v1", ReviewLog("ds-a", True, 0), "sha256:x"),
        InvalidPayload,
        "invalid payload for $.records[1]: total_items must be an integer, got True",
    ),
    "int among gap dataset ids": (
        record("r1", "v1", MetricResult("miou", ("ds-a", 1), 0.5, "gap"), "sha256:x"),
        SchemaError,
        "$.records[1].payload.dataset_ids: expected list of strings, got ('ds-a', 1)",
    ),
    "int metric id": (
        record("r1", "v1", MetricResult(3, ("ds-a",), 0.5), "sha256:x"),
        SchemaError,
        "$.records[1].payload.metric_id: expected string, got 3",
    ),
    "int review dataset": (
        record("r1", "v1", ReviewLog(5, 10, 3), "sha256:x"),
        SchemaError,
        "$.records[1].payload.dataset_id: expected string, got 5",
    ),
    "int document kind": (
        record("r1", "v1", DocumentRecord(7), "sha256:x"),
        SchemaError,
        "$.records[1].payload.document_kind: expected string, got 7",
    ),
    "int record id": (
        record(5, "v1", DocumentRecord("safety-case"), "sha256:x"),
        SchemaError,
        "$.records[1].id: expected string, got 5",
    ),
    "int flagged instance": (
        record("r1", "v1", FlagResolutionLog("ds-a", ("i1",), ((1, Resolution.EXCLUDED),)), "sha256:x"),
        SchemaError,
        "$.records[1].payload.entries[0].instance_id: expected string, got 1",
    ),
    "plain approval verdict": (
        record("r1", "v1", ApprovalRecord("rev-1", "Prüfer", "Approved"), "sha256:x"),
        SchemaError,
        "$.records[1].payload.verdict: expected one of {Approved, Rejected}, got 'Approved'",
    ),
    "plain flag resolution": (
        record("r1", "v1", FlagResolutionLog("ds-a", ("i1",), (("i1", "Excluded"),)), "sha256:x"),
        SchemaError,
        "$.records[1].payload.entries[0].resolution: expected one of {Excluded, Revised}, got 'Excluded'",
    ),
    "payload of a VR": (
        record("r1", "v1", MetricThreshold("miou", "ds-a", Comparator.GE, 0.5), "sha256:x"),
        SchemaError,
        f"$.records[1].kind: expected {_EVIDENCE_KINDS}, got 'MetricThreshold'",
    ),
    "int payload": (record("r1", "v1", 5, "sha256:x"), SchemaError, f"$.records[1].kind: expected {_EVIDENCE_KINDS}, got 'int'"),
    "payload in place of a record": (
        DocumentRecord("safety-case"),
        SchemaError,
        "$.records[1]: expected EvidenceRecord, got 'DocumentRecord'",
    ),
    "lone surrogate in a record id": (
        record("r\ud800", "v1", DocumentRecord("safety-case"), "sha256:x"),
        SchemaError,
        "$.records[1].id: expected string without a lone surrogate, got 'r\\ud800'",
    ),
    "lone surrogate in a dataset id": (
        record("r1", "v1", MetricResult("miou", ("ds-a", "d\udfff"), 0.5), "sha256:x"),
        SchemaError,
        "$.records[1].payload.dataset_ids: expected string without a lone surrogate, got ('ds-a', 'd\\udfff')",
    ),
    "no dataset ids": (
        record("r1", "v1", MetricResult("miou", None, 0.5), "sha256:x"),
        SchemaError,
        "$.records[1].payload.dataset_ids: expected list of strings, got None",
    ),
    "int flag entry": (
        record("r1", "v1", FlagResolutionLog("ds-a", ("i1",), (5,)), "sha256:x"),
        SchemaError,
        "$.records[1].payload.entries[0]: expected FlagEntry, got 'int'",
    ),
}


@pytest.mark.parametrize("bad, error, message", _CODE_BUILT_RECORDS.values(), ids=list(_CODE_BUILT_RECORDS))
def test_bundle_built_in_code_keeps_the_rules_of_a_file(bad, error, message):
    """A bundle is checked wherever it is made, by its constructor and by
    ``replace``, so ``serialize_evidence`` never writes one that
    ``parse_evidence`` refuses."""
    good = EvidenceBundle((_FIRST,))
    for build in (lambda: EvidenceBundle((_FIRST, bad)), lambda: replace(good, records=(_FIRST, bad))):
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message


def _doc(record_id: str, vr_id: str = "v1") -> EvidenceRecord:
    return record(record_id, vr_id, DocumentRecord("safety-case"), "sha256:x")


def _log(record_id: str, total, reviewed, vr_id: str = "v1") -> EvidenceRecord:
    return record(record_id, vr_id, ReviewLog("ds-a", total, reviewed), "sha256:x")


_INFINITE = MetricResult("miou", ("ds-a",), math.inf)

#: Records after ``_FIRST`` with two faults, and the refusal.  The text
#: rule runs over the whole bundle first; then the fault of the earlier
#: record is named, and in one record the fault of the rule that comes
#: first (id, uniqueness, ``vr_id``, numbers, then the counts).
_TWO_FAULTS = {
    "count before a later empty id": (
        (_log("r1", 3, 4), _doc("")),
        SchemaError,
        "$.records[1].payload.reviewed_items: expected at most total_items=3, got 4",
    ),
    "count before a later infinite value": (
        (_log("r1", -1, 0), record("r2", "v1", _INFINITE, "sha256:x")),
        SchemaError,
        "$.records[1].payload.total_items: expected non-negative count, got -1",
    ),
    "repeat before a later infinite value": (
        (_doc("r0"), record("r2", "v1", _INFINITE, "sha256:x")),
        SchemaError,
        "$.records[1].id: expected unique record id, got 'r0'",
    ),
    "bool count before a later repeat": (
        (_log("r1", True, 0), _doc("r0")),
        InvalidPayload,
        "invalid payload for $.records[1]: total_items must be an integer, got True",
    ),
    "a later text fault before an empty vr_id": (
        (_doc("r1", ""), _doc(7)),
        SchemaError,
        "$.records[2].id: expected string, got 7",
    ),
    "text before the id": (
        (_doc("", 5),),
        SchemaError,
        "$.records[1].vr_id: expected string, got 5",
    ),
    "empty id before empty vr_id": (
        (_doc("", ""),),
        SchemaError,
        "$.records[1].id: expected non-empty string, got ''",
    ),
    "repeat before a bool count": (
        (_log("r0", True, 0),),
        SchemaError,
        "$.records[1].id: expected unique record id, got 'r0'",
    ),
    "empty vr_id before an infinite value": (
        (record("r1", "", _INFINITE, "sha256:x"),),
        SchemaError,
        "$.records[1].vr_id: expected non-empty string, got ''",
    ),
    "first number field first": (
        (_log("r1", 1.5, True),),
        InvalidPayload,
        "invalid payload for $.records[1]: total_items must be an integer, got 1.5",
    ),
    "number rule before the counts": (
        (_log("r1", True, 5),),
        InvalidPayload,
        "invalid payload for $.records[1]: total_items must be an integer, got True",
    ),
    "first count rule first": (
        (_log("r1", -5, -1),),
        SchemaError,
        "$.records[1].payload.total_items: expected non-negative count, got -5",
    ),
    "negative reviewed count": (
        (_log("r1", 5, -1),),
        SchemaError,
        "$.records[1].payload.reviewed_items: expected non-negative count, got -1",
    ),
    "surrogate before a later payload of a VR": (
        (_doc("r\ud800"), record("r2", "v1", MetricThreshold("miou", "ds-a", Comparator.GE, 0.5), "sha256:x")),
        SchemaError,
        "$.records[1].id: expected string without a lone surrogate, got 'r\\ud800'",
    ),
    "payload of a VR before a later surrogate": (
        (record("r1", "v1", MetricThreshold("miou", "ds-a", Comparator.GE, 0.5), "sha256:x"), _doc("r\ud800")),
        SchemaError,
        f"$.records[1].kind: expected {_EVIDENCE_KINDS}, got 'MetricThreshold'",
    ),
    "payload in place of a record before a later text fault": (
        (DocumentRecord("safety-case"), _doc(7)),
        SchemaError,
        "$.records[1]: expected EvidenceRecord, got 'DocumentRecord'",
    ),
    "id before the payload's kind": (
        (record(5, "v1", 5, "sha256:x"),),
        SchemaError,
        "$.records[1].id: expected string, got 5",
    ),
}


@pytest.mark.parametrize("records, error, message", _TWO_FAULTS.values(), ids=list(_TWO_FAULTS))
def test_bundle_with_two_faults_names_the_first(records, error, message):
    with pytest.raises(error) as caught:
        EvidenceBundle((_FIRST, *records))
    assert str(caught.value) == message


def test_bundle_without_a_record_list_is_refused_at_its_path():
    with pytest.raises(SchemaError) as caught:
        EvidenceBundle(None)
    assert str(caught.value) == "$.records: expected list, got None"


def test_bundle_source_keeps_the_text_rule():
    with pytest.raises(SchemaError) as caught:
        EvidenceBundle((), source=5)
    assert str(caught.value) == "$.source: expected string, got 5"


def test_bundle_names_its_first_fault_in_record_order():
    """A bundle with several faults names the one in the earliest record,
    whichever rule it breaks."""
    infinite = record("r1", "v1", MetricResult("miou", ("ds-a",), math.inf), "sha256:x")
    unnamed = record("", "v1", DocumentRecord("safety-case"), "sha256:x")
    with pytest.raises(InvalidPayload, match=r"^invalid payload for \$\.records\[1\]: value "):
        EvidenceBundle((_FIRST, infinite, unnamed))
    with pytest.raises(SchemaError, match=r"^\$\.records\[1\]\.id: expected non-empty string, got ''$"):
        EvidenceBundle((_FIRST, unnamed, infinite))


def test_replace_refuses_what_parse_landscape_would():
    """A landscape checks its structure wherever it is made, by ``replace``
    or its constructor, so neither ``serialize_landscape`` nor ``evaluate``
    (whose stage lookup would raise a bare ``KeyError``) meets one that
    ``parse_landscape`` refuses."""
    landscape = parse_landscape(FIXTURE_TEXT)
    vrs = (replace(landscape.vrs[0], stage_id="nowhere"), *landscape.vrs[1:])
    parts = {f.name: getattr(landscape, f.name) for f in fields(Landscape)}
    for make in (lambda: replace(landscape, vrs=vrs), lambda: Landscape(**{**parts, "vrs": vrs})):
        with pytest.raises(DanglingReference) as caught:
            make()
        assert str(caught.value) == "VR VR1.1.1 references unknown id 'nowhere'"


#: What a VR's ``kind`` takes, in the words of the reader.
_VR_KINDS = "one of {MetricThreshold, MetricGap, PerCondition, ReviewFraction, FlagResolution, QualitativeApproval}"


class _Text(str):
    """A ``str`` subclass: a file holds none, so no text field takes one."""


#: A field of the fixture landscape set, by ``replace``, to a value that
#: is not text, or not a member of its ``Enum``, and the refusal that
#: ``parse_landscape`` gives its bytes (``None`` where a file cannot hold it).
_NON_TEXT_FIELDS = {
    "concern name": (
        lambda land: replace(land, concerns=(replace(land.concerns[0], name=5), *land.concerns[1:])),
        lambda node: node["concerns"][0].update(name=5),
        "$.concerns[0].name: expected string, got 5",
    ),
    "measure stage": (
        lambda land: replace(
            land, mitigation_measures=(replace(land.mitigation_measures[0], stage_id=3), *land.mitigation_measures[1:])
        ),
        lambda node: node["mitigation_measures"][0].update(stage_id=3),
        "$.mitigation_measures[0].stage_id: expected string or null, got 3",
    ),
    "landscape version": (
        lambda land: replace(land, version=_Text("1")),
        None,
        "$.version: expected string, got '1'",
    ),
    "payload metric": (
        lambda land: replace(land, vrs=_replace_payload(land.vrs, 9, metric_id=("miou",))),
        lambda node: node["vrs"][9]["payload"].update(metric_id=["miou"]),
        "$.vrs[9].payload.metric_id: expected string, got ('miou',)",
    ),
    "condition id": (
        lambda land: replace(
            land,
            vrs=_replace_payload(
                land.vrs, 8, conditions=(replace(land.vrs[8].payload.conditions[0], condition_id=None),)
            ),
        ),
        lambda node: node["vrs"][8]["payload"]["conditions"][0].update(condition_id=None),
        "$.vrs[8].payload.conditions[0].condition_id: expected string, got None",
    ),
    "dataset path": (
        lambda land: replace(land, datasets=((land.datasets[0][0], DatasetDescriptor(1.5, "grid-dir")),)),
        lambda node: node["datasets"]["d-adverse-lighting"].update(path=1.5),
        "$.datasets.d-adverse-lighting.path: expected string, got 1.5",
    ),
    "plain comparator": (
        lambda land: replace(land, vrs=_replace_payload(land.vrs, 9, comparator="GE")),
        None,
        "$.vrs[9].payload.comparator: expected one of {GE, LE}, got 'GE'",
    ),
    "payload of a record": (
        lambda land: replace(land, vrs=_with_payload(land.vrs, 9, DocumentRecord("safety-case"))),
        lambda node: node["vrs"][9].update(kind="DocumentRecord"),
        f"$.vrs[9].kind: expected {_VR_KINDS}, got 'DocumentRecord'",
    ),
    "int payload": (
        lambda land: replace(land, vrs=_with_payload(land.vrs, 9, 5)),
        None,
        f"$.vrs[9].kind: expected {_VR_KINDS}, got 'int'",
    ),
    "stage among the components": (
        lambda land: replace(land, components=(*land.components, land.stages[0])),
        None,
        "$.components[1]: expected SystemComponent, got 'LifecycleStage'",
    ),
    "lone surrogate in the name": (
        lambda land: replace(land, name="a\ud800"),
        None,
        "$.name: expected string without a lone surrogate, got 'a\\ud800'",
    ),
    "int dataset id": (
        lambda land: replace(land, datasets=((1, land.datasets[0][1]),)),
        None,
        "$.datasets.1: expected string, got 1",
    ),
    "lone surrogate in a dataset id": (
        lambda land: replace(land, datasets=(("a\ud800", land.datasets[0][1]),)),
        None,
        "$.datasets.a\ud800: expected string without a lone surrogate, got 'a\\ud800'",
    ),
    # A landscape keeps its datasets sorted by id: of two ids at fault, the first is named.
    "two dataset ids at fault": (
        lambda land: replace(land, datasets=tuple((key, land.datasets[0][1]) for key in ("d", "c\udc00", "b\ud800"))),
        None,
        "$.datasets.b\ud800: expected string without a lone surrogate, got 'b\\ud800'",
    ),
    # A value of the wrong shape that no sort or conversion takes is kept as
    # given, so the text rule names it, and the ids of mixed types keep
    # their order.
    "no measure list": (
        lambda land: replace(land, vrs=_with(land.vrs, 0, mm_ids=None)),
        lambda node: node["vrs"][0].update(mm_ids=None),
        "$.vrs[0].mm_ids: expected list of strings, got None",
    ),
    "string for a measure list": (
        lambda land: replace(land, vrs=_with(land.vrs, 0, mm_ids="mm-labeling-guidelines")),
        lambda node: node["vrs"][0].update(mm_ids="mm-labeling-guidelines"),
        "$.vrs[0].mm_ids: expected list of strings, got 'mm-labeling-guidelines'",
    ),
    "int among a goal's VR ids": (
        lambda land: replace(land, goals=_with(land.goals, 0, vr_ids=(1, "a"))),
        None,
        "$.goals[0].vr_ids: expected list of strings, got (1, 'a')",
    ),
    "no goal list": (
        lambda land: replace(land, concerns=_with(land.concerns, 0, goal_ids=None)),
        lambda node: node["concerns"][0].update(goal_ids=None),
        "$.concerns[0].goal_ids: expected list of strings, got None",
    ),
    "int component id among strings": (
        lambda land: replace(land, components=(*land.components, SystemComponent(5, "Camera"))),
        lambda node: node["components"].append({"id": 5, "name": "Camera", "description": ""}),
        "$.components[1].id: expected string, got 5",
    ),
    "no VR list": (
        lambda land: replace(land, vrs=None),
        lambda node: node.update(vrs=None),
        "$.vrs: expected list, got None",
    ),
    "no datasets": (lambda land: replace(land, datasets=None), None, "$.datasets: expected object, got None"),
    "no conditions": (
        lambda land: replace(land, vrs=_replace_payload(land.vrs, 8, conditions=None)),
        lambda node: node["vrs"][8]["payload"].update(conditions=None),
        "$.vrs[8].payload.conditions: expected list, got None",
    ),
    "int among required documents": (
        lambda land: replace(land, vrs=_with_payload(land.vrs, 0, QualitativeApproval(1, (1, "a")))),
        None,
        "$.vrs[0].payload.required_documents: expected list of strings, got (1, 'a')",
    ),
}


def _with(items, index: int, **changes):
    return (*items[:index], replace(items[index], **changes), *items[index + 1 :])


def _with_payload(vrs, index: int, payload):
    return _with(vrs, index, payload=payload)


def _replace_payload(vrs, index: int, **changes):
    vr = vrs[index]
    return (*vrs[:index], replace(vr, payload=replace(vr.payload, **changes)), *vrs[index + 1 :])


@pytest.mark.parametrize("make, edit, message", _NON_TEXT_FIELDS.values(), ids=list(_NON_TEXT_FIELDS))
def test_landscape_refuses_a_non_text_value_where_its_reader_would(make, edit, message):
    """A text field, and a dataset id, holds a ``str`` without a lone
    surrogate, an ``Enum`` field a member, a payload one of its classes and
    a tuple of records only records of its class, wherever the landscape
    is made, so ``serialize_landscape`` never meets
    one that ``parse_landscape`` refuses; the refusal has the reader's words."""
    with pytest.raises(SchemaError) as caught:
        make(parse_landscape(FIXTURE_TEXT))
    assert str(caught.value) == message
    if edit is not None:
        node = json.loads(FIXTURE_TEXT)
        edit(node)
        with pytest.raises(SchemaError) as caught:
            parse_landscape(json.dumps(node))
        assert str(caught.value) == message.replace("('miou',)", "['miou']")


def _field_setters(obj, path: str, rebuild):
    """``(JSON path, set)`` for each field of the record ``obj`` at
    ``path``, and of each record that it holds: ``set(value)`` builds the
    document again with that one field set to ``value``, by ``replace``
    from the field's owner up to ``rebuild``, which takes the new owner."""
    for f in fields(obj):
        value, at = getattr(obj, f.name), f"{path}.{f.name}"

        def set_field(new, name=f.name):
            return rebuild(replace(obj, **{name: new}))

        yield at, set_field
        if is_dataclass(value):
            yield from _field_setters(value, at, set_field)
        elif isinstance(value, tuple):
            for k, item in enumerate(value):
                def set_item(new, k=k, value=value, set_field=set_field, key=None):
                    return set_field((*value[:k], new if key is None else (key, new), *value[k + 1 :]))

                if is_dataclass(item):
                    yield from _field_setters(item, f"{at}[{k}]", set_item)
                elif isinstance(item, tuple) and is_dataclass(item[-1]):  # (id, element) pairs
                    yield from _field_setters(item[1], f"{at}.{item[0]}", partial(set_item, key=item[0]))


_DOCUMENTS = (
    (parse_landscape(FIXTURE_TEXT), serialize_landscape, parse_landscape, DocumentRecord("safety-case")),
    (parse_evidence(EVIDENCE_TEXT), serialize_evidence, parse_evidence, MetricThreshold("miou", "d", Comparator.GE, 0.5)),
)
#: Every field reachable from the two documents: ``(path, set, serialize,
#: parse, a payload of the other document)``.
_FIELD_SETTERS = [
    (path, set_field, serialize, parse, other)
    for root, serialize, parse, other in _DOCUMENTS
    for path, set_field in _field_setters(root, "$", lambda new: new)
]
_INDEX = re.compile(r"\[\d+\]")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_FIELD_SETTERS), st.integers(0, 6))
def test_a_wrong_shape_in_any_field_is_refused_at_its_path_or_round_trips(setter, drawn):
    """A field of either document set to a value of a wrong shape either
    gives a ``LaiscError``, a ``SchemaError`` at the field's JSON path (or,
    for a rule that compares it with a sibling or a payload's ``kind``, at
    its owner's; a collection sorted by id may move the element), or gives
    a document that is written and read back equal."""
    path, set_field, serialize, parse, other = setter
    wrong = (None, [7], 7, True, _Text("x"), "a\ud800", other)[drawn]
    try:
        built = set_field(wrong)
    except LaiscError as exc:
        if isinstance(exc, SchemaError):
            owner = _INDEX.sub("[]", path.rsplit(".", 1)[0])
            assert _INDEX.sub("[]", str(exc)).startswith(f"{owner}."), (path, exc)
        return
    assert parse(serialize(built)) == built


def _drop(items, item):
    items.remove(item)


def _payload(land, vr_id: str) -> dict:
    """The payload node of the VR ``vr_id`` in the landscape node ``land``."""
    return next(vr["payload"] for vr in land["vrs"] if vr["id"] == vr_id)


#: One edit of a shipped fixture per structural rule, and the error it gives.
_STRUCTURAL_FAULTS = {
    "empty id": (
        lambda land, _: land["components"][0].update(id=""),
        InvalidPayload,
        "invalid payload for components: empty id",
    ),
    "goal not listed by its concern": (
        lambda land, _: _drop(land["concerns"][0]["goal_ids"], "G1.1"),
        InvalidPayload,
        "invalid payload for G1.1: not listed by its concern sc1-inaccurate-labels",
    ),
    "goal lists an unknown VR": (
        lambda land, _: land["goals"][0]["vr_ids"].append("VR9"),
        DanglingReference,
        "goal G1.1 references unknown id 'VR9'",
    ),
    "VR names an unknown goal": (
        lambda land, _: (land["vrs"][0].update(goal_id="G9"), _drop(land["goals"][0]["vr_ids"], "VR1.1.1")),
        DanglingReference,
        "VR VR1.1.1 references unknown id 'G9'",
    ),
    "VR not listed by its goal": (
        lambda land, _: _drop(land["goals"][0]["vr_ids"], "VR1.1.1"),
        InvalidPayload,
        "invalid payload for VR1.1.1: not listed by its goal G1.1",
    ),
    "VR names an unknown measure": (
        lambda land, _: land["vrs"][0]["mm_ids"].append("mm-none"),
        DanglingReference,
        "VR VR1.1.1 references unknown id 'mm-none'",
    ),
    "measure names an unknown stage": (
        lambda land, _: land["mitigation_measures"][0].update(stage_id="stage-none"),
        DanglingReference,
        "mitigation measure mm-annotator-knowledge-test references unknown id 'stage-none'",
    ),
    "concern lists a component twice": (
        lambda land, _: land["concerns"][0]["component_ids"].append("comp-track-detector"),
        DuplicateId,
        "duplicate id 'comp-track-detector' in concern sc1-inaccurate-labels component_ids",
    ),
    "concern lists a goal twice": (
        lambda land, _: land["concerns"][0]["goal_ids"].append("G1.1"),
        DuplicateId,
        "duplicate id 'G1.1' in concern sc1-inaccurate-labels goal_ids",
    ),
    "goal lists a VR twice": (
        lambda land, _: land["goals"][0]["vr_ids"].append("VR1.1.1"),
        DuplicateId,
        "duplicate id 'VR1.1.1' in goal G1.1 vr_ids",
    ),
    "VR lists a measure twice": (
        lambda land, _: land["vrs"][0]["mm_ids"].append("mm-labeling-guidelines"),
        DuplicateId,
        "duplicate id 'mm-labeling-guidelines' in VR VR1.1.1 mm_ids",
    ),
    "dataset with the empty id": (
        lambda land, _: land["datasets"].update({"": {"format": "grid-dir", "path": "data/x", "role": ""}}),
        InvalidPayload,
        "invalid payload for datasets: empty id",
    ),
    "VR lists a document kind twice": (
        lambda land, _: land["vrs"][0]["payload"]["required_documents"].append("labeling-guidelines"),
        InvalidPayload,
        "invalid payload for VR1.1.1: duplicate document kind 'labeling-guidelines'",
    ),
    "concern lists an unknown goal": (
        lambda land, _: land["concerns"][0]["goal_ids"].append("G9"),
        DanglingReference,
        "concern sc1-inaccurate-labels references unknown id 'G9'",
    ),
    "gap side b on an unknown dataset": (
        lambda land, _: _payload(land, "VR2.1").update(dataset_id_b="d-nowhere"),
        DanglingReference,
        "VR VR2.1 dataset binding references unknown id 'd-nowhere'",
    ),
    "condition on an unknown dataset": (
        lambda land, _: _payload(land, "VR3.2")["conditions"][3].update(dataset_id="d-nowhere"),
        DanglingReference,
        "VR VR3.2 dataset binding references unknown id 'd-nowhere'",
    ),
    "both gap sides unknown, side a sorting last": (
        lambda land, _: _payload(land, "VR2.1").update(dataset_id_a="d-nowhere", dataset_id_b="d-elsewhere"),
        DanglingReference,
        "VR VR2.1 dataset binding references unknown id 'd-nowhere'",
    ),
    "empty vr_id": (
        lambda _, bundle: bundle["records"][2].update(vr_id=""),
        SchemaError,
        "$.records[2].vr_id: expected non-empty string, got ''",
    ),
}


@pytest.mark.parametrize("edit, error, message", _STRUCTURAL_FAULTS.values(), ids=list(_STRUCTURAL_FAULTS))
def test_structural_errors_are_pinned(edit, error, message):
    """Each structural rule of a landscape or bundle raises its own type
    with its full message."""
    land, bundle = json.loads(FIXTURE_TEXT), json.loads(EVIDENCE_TEXT)
    edit(land, bundle)
    with pytest.raises(error) as caught:
        parse_landscape(json.dumps(land))
        parse_evidence(json.dumps(bundle))
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_timestamp_that_is_not_a_string_rejected():
    with pytest.raises(InvalidTimestamp) as caught:
        parse_timestamp(5)
    assert str(caught.value) == "invalid timestamp '5': not a string"


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


def test_timestamp_that_is_not_a_datetime_rejected_in_code():
    with pytest.raises(InvalidTimestamp) as caught:
        EvidenceRecord("r1", "v1", "sha256:x", "2026", DocumentRecord("safety-case"))
    assert str(caught.value) == "invalid timestamp '2026': not a datetime"


def test_naive_timestamp_in_code_rejected():
    # The reader's rule holds for a record built in code: a naive datetime
    # would compare with no parsed timestamp and serialize in host-local time.
    with pytest.raises(InvalidTimestamp, match="'2026-03-01T09:00:00': missing UTC offset"):
        EvidenceRecord("r1", "v1", "sha256:x", datetime(2026, 3, 1, 9), DocumentRecord("safety-case"))


def test_timestamp_that_utc_cannot_hold_in_code_rejected():
    # serialize_evidence writes the timestamp in UTC, which has no room for it.
    stamp = datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
    with pytest.raises(InvalidTimestamp, match=r"^invalid timestamp '0001-01-01T00:00:00\+01:00': date value out of range$"):
        EvidenceRecord("r1", "v1", "sha256:x", stamp, DocumentRecord("safety-case"))


def test_offset_timestamps_normalize_to_utc():
    assert parse_timestamp("2026-01-01T02:30:00+02:30") == parse_timestamp("2026-01-01T00:00:00Z")


#: Timestamp spellings and whether they are read: one grammar,
#: ``YYYY-MM-DDTHH:MM:SS[.fff|.ffffff](Z|±HH:MM)``, on every supported
#: Python, though ``datetime.fromisoformat`` takes more from 3.11 on.
_SPELLINGS = {
    "2026-01-05T08:00:00Z": True,
    "2026-01-05T08:00:00+00:00": True,
    "2026-01-05T08:00:00-00:00": True,
    "2026-01-05T13:30:00+05:30": True,
    "2026-01-05T08:00:00.123Z": True,
    "2026-01-05T08:00:00.123456-01:00": True,
    "0001-01-01T00:00:00Z": True,
    "9999-12-31T23:59:59Z": True,
    "2026-W02-1T08:00:00+00:00": False,  # ISO week date: read by 3.11+
    "20260105T080000+0000": False,  # basic format: 3.11+
    "2026-01-05T08:00:00+0000": False,  # offset without a colon: 3.11+
    "2026-01-05T08:00:00.5+00:00": False,  # one fraction digit: 3.11+
    "2026-01-05T08:00:00.12345+00:00": False,  # five fraction digits: 3.11+
    "2026-01-05 08:00:00+00:00": False,  # space separator: every version
    "2026-01-05T08:00+00:00": False,  # no seconds: every version
    "2026-01-05T08:00:00+00:00:00": False,  # offset seconds: every version
    "2026-01-05t08:00:00z": False,
    "2026-01-05T08:00:00": False,  # no offset
    "2026-01-05": False,
    "2026-01-05T08:00:00Z\n": False,
    "٢٠٢٦-01-05T08:00:00Z": False,  # Arabic-Indic digits
    "2026-13-05T08:00:00Z": False,
    "2026-01-05T24:00:00Z": False,
    "2026-01-05T08:00:00+24:00": False,
    "0001-01-01T00:00:00+01:00": False,  # before datetime.min in UTC
    "9999-12-31T23:59:59-01:00": False,  # after datetime.max in UTC
}


@pytest.mark.parametrize("stamp, read", _SPELLINGS.items(), ids=list(map(repr, _SPELLINGS)))
def test_one_timestamp_grammar(stamp, read):
    """The one-value reader, and the column that reads a bundle's stamps."""
    node = json.loads(EVIDENCE_TEXT)
    node["records"][0]["timestamp"] = stamp
    if read:
        assert parse_evidence(json.dumps(node)).records[0].timestamp == parse_timestamp(stamp)
        assert parse_timestamp(stamp).utcoffset() == timedelta(0)
    else:
        with pytest.raises(InvalidTimestamp, match=re.escape(repr(stamp))):
            parse_timestamp(stamp)
        with pytest.raises(InvalidTimestamp, match=re.escape(repr(stamp))):
            parse_evidence(json.dumps(node))


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
    # So does a carriage return, here in a header before a canonical body.
    "3 \r3\n0 0 0\n0 0 0\n0 0 0\n": "grid header must be 'H W', got '3 '",
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
        ("3 \r3\n0 0 0\n0 0 0\n0 0 0\n", InputSyntaxError),
    ],
)
def test_grid_rejects_malformed_input(text, error):
    for data in (text, text.encode("utf-8")):
        with pytest.raises(error) as caught:
            read_grid(data)
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


def _grid_text(grid: LabeledGrid) -> str:
    """The canonical text of ``grid``, spelled out cell by cell."""
    rows = [" ".join(map(str, row)) for row in grid.values]
    return "\n".join([f"{grid.height} {grid.width}", *rows]) + "\n"


def _grid_read(data: bytes | str):
    """``read_grid(data)``, or the type and message of what it raises."""
    try:
        return read_grid(data)
    except LaiscError as exc:
        return type(exc), str(exc)


#: What a one-byte edit of a grid's text inserts or puts in a byte's place.
_GRID_EDITS = (" ", "\t", "\r", "\x0c", "\x1c", "0", "10", "+")


@st.composite
def _grids(draw) -> LabeledGrid:
    """A grid of 1 to 12 rows and columns, its cells all in 0..9 or in 0..255."""
    height, width, top = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.sampled_from((9, 255)))
    cells = draw(st.lists(st.integers(0, top), min_size=height * width, max_size=height * width))
    return LabeledGrid.from_bytes(height, width, bytes(cells))


@settings(max_examples=300, deadline=None)
@given(
    grid=_grids(),
    edits=st.lists(
        st.tuples(st.sampled_from(("insert", "replace", "delete")), st.integers(0), st.sampled_from(_GRID_EDITS)),
        max_size=4,
    ),
)
# "3 \r3\n...": ``str.splitlines`` breaks the header at the carriage return.
@example(grid=LabeledGrid.from_bytes(3, 3, bytes(9)), edits=[("insert", 2, "\r")])
def test_grid_text_and_bytes_read_alike(grid, edits):
    """``write_grid`` writes the canonical text and reads it back, and that
    text and each one-byte edit of it, the header included, read alike as
    ``bytes`` and as ``str``: the same grid or the same error."""
    text = _grid_text(grid)
    assert write_grid(grid) == text.encode("ascii")
    assert read_grid(write_grid(grid)) == grid
    texts = [text]
    for kind, at, edit in edits:
        at %= len(text) + (kind == "insert")
        texts.append(text[:at] + ("" if kind == "delete" else edit) + text[at + (kind != "insert") :])
    for edited in texts:
        assert _grid_read(edited.encode("utf-8")) == _grid_read(edited)


def test_grid_header_padded_past_the_int_digit_limit_reads_alike():
    """``int()`` refuses more than 4300 digits, leading zeros included; such
    a header is the row reader's to word, from ``bytes`` as from ``str``."""
    text = "0" * 5000 + "1 1\n5\n"
    assert _grid_read(text.encode("ascii")) == _grid_read(text)


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
        # a bool size would be written as "True", which read_grid refuses
        (True, 1, ((0,),), DimensionMismatch, "grid must be at least 1x1, got Truex1"),
        (1.0, 1, ((0,),), DimensionMismatch, "grid must be at least 1x1, got 1.0x1"),
        ("1", 1, ((0,),), DimensionMismatch, "grid must be at least 1x1, got '1'x1"),
        (1, True, ((0,),), DimensionMismatch, "grid must be at least 1x1, got 1xTrue"),
        (1, 1, [5], DimensionMismatch, "row 0: expected a row of cells, got 5"),
        (1, 1, None, DimensionMismatch, "expected an iterable of rows, got None"),
    ],
    ids=[
        "bool",
        "float",
        "above-255",
        "negative",
        "ragged",
        "row-count",
        "empty",
        "range-first",
        "length-first",
        "bool-height",
        "float-height",
        "str-height",
        "bool-width",
        "int-row",
        "no-rows",
    ],
)
def test_grid_constructor_rejects_bad_cells(height, width, rows, error, message):
    with pytest.raises(error) as caught:
        LabeledGrid(height, width, rows)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "height, width, cells, error, message",
    [
        (0, 2, b"", DimensionMismatch, "grid must be at least 1x1, got 0x2"),
        (2, 2, b"\x00\x01\x00", DimensionMismatch, "expected 4 cells, got 3"),
        (True, 1, b"\x00", DimensionMismatch, "grid must be at least 1x1, got Truex1"),
        (1, 1.0, b"\x00", DimensionMismatch, "grid must be at least 1x1, got 1x1.0"),
        (1, 1, "a", ValueOutOfRange, "cells must be bytes or ints in [0, 255], got 'a'"),
        (1, 1, [300], ValueOutOfRange, "cells must be bytes or ints in [0, 255], got [300]"),
        # bytes(1) would be one zero cell
        (1, 1, 1, ValueOutOfRange, "cells must be bytes or ints in [0, 255], got 1"),
    ],
    ids=["empty", "cell-count", "bool-height", "float-width", "str-cells", "cell-above-255", "int-cells"],
)
def test_grid_from_bytes_rejects_a_bad_shape(height, width, cells, error, message):
    with pytest.raises(error) as caught:
        LabeledGrid.from_bytes(height, width, cells)
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


def test_tables_built_from_lists_store_tuples():
    assert ProbabilityTable(2, [["x1", 1, [0.3, 0.7]]]).rows == (("x1", 1, (0.3, 0.7)),)
    assert ActivationTable(2, [["s1", [0.5, -1.25]]]).rows == (("s1", (0.5, -1.25)),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProbabilityTable(1, ()), "need at least 2 classes, got 1"),
        (lambda: ActivationTable(0, ()), "need at least 1 neuron, got 0"),
        (lambda: ProbabilityTable("2", ()), "need at least 2 classes, got '2'"),
        (lambda: ProbabilityTable(2.0, (("x", 0, (1, 0)),)), "need at least 2 classes, got 2.0"),
        (lambda: ActivationTable("2", ()), "need at least 1 neuron, got '2'"),
        (lambda: ActivationTable(True, (("s", (0.5,)),)), "need at least 1 neuron, got True"),
    ],
    ids=["classes", "neurons", "str-classes", "float-classes", "str-neurons", "bool-neurons"],
)
def test_tables_below_their_minimum_size_rejected(build, message):
    with pytest.raises(ValueOutOfRange) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProbabilityTable(2, [("x", 0)]), "row 0: expected (instance_id, label, probabilities), got ('x', 0)"),
        (lambda: ProbabilityTable(2, None), "expected an iterable of rows, got None"),
        (lambda: ActivationTable(1, [("s", 0.5)]), "row 0: expected (sample_id, activations), got ('s', 0.5)"),
        (
            lambda: ActivationTable(1, [("s", (0.5,)), ("t", (0.5,), ())]),
            "row 1: expected (sample_id, activations), got ('t', (0.5,), ())",
        ),
    ],
    ids=["short-row", "no-rows", "number-for-activations", "long-second-row"],
)
def test_tables_reject_a_row_of_the_wrong_shape(build, message):
    with pytest.raises(DimensionMismatch) as caught:
        build()
    assert type(caught.value) is DimensionMismatch
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "read, header",
    [
        (read_prob_table, "instance_id,label,p_0..p_{N-1} with N >= 2"),
        (read_activations, "sample_id,a_0..a_{N-1} with N >= 1"),
    ],
    ids=["probs", "activations"],
)
@pytest.mark.parametrize("data", ["", b""], ids=["text", "bytes"])
def test_empty_table_names_the_header_it_expected(read, header, data):
    with pytest.raises(InputSyntaxError) as caught:
        read(data)
    assert str(caught.value) == f"empty table, expected the header {header}"


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


_TABLE_BUILDS = {
    "activations": lambda row_id: ActivationTable(1, (("s", (0.5,)), (row_id, (0.25,)))),
    "probabilities": lambda row_id: ProbabilityTable(2, (("x", 0, (1.0, 0.0)), (row_id, 1, (0.25, 0.75)))),
}


@pytest.mark.parametrize("build", _TABLE_BUILDS.values(), ids=_TABLE_BUILDS)
@pytest.mark.parametrize("row_id", [None, 1, 2.5, b"s", ("s",), _Tint.RED], ids=repr)
def test_table_built_in_code_refuses_an_id_that_is_not_a_string(build, row_id):
    """The text rule: an id was written as ``str(id)`` and read back as a
    different value (``None`` as ``'None'``)."""
    with pytest.raises(SchemaError) as caught:
        build(row_id)
    assert str(caught.value) == f"rows[1][0]: expected string, got {row_id!r}"


@pytest.mark.parametrize("build", _TABLE_BUILDS.values(), ids=_TABLE_BUILDS)
def test_table_built_in_code_refuses_an_id_with_a_lone_surrogate(build):
    """No UTF-8 writer can write a lone surrogate, and the reader of a
    file never meets one."""
    with pytest.raises(SchemaError) as caught:
        build("s\ud800")
    assert str(caught.value) == "rows[1][0]: expected string without a lone surrogate, got 's\\ud800'"


#: Tables with two faults, and the refusal: the fault of the earlier row,
#: and in one row the fault of the rule that comes first (width, label
#: type, label range, each value in order, the sum).
_TABLE_TWO_FAULTS = {
    "sum before a later label": (
        lambda: ProbabilityTable(2, (("a", 0, (0.5, 0.5)), ("b", 0, (0.5, 0.6)), ("c", 5, (0.5, 0.5)))),
        NotNormalized,
        "probability row 1 sums to 1.1, not 1",
    ),
    "label before a later width": (
        lambda: ProbabilityTable(2, (("a", 0, (0.5, 0.5)), ("b", 1.0, (0.5, 0.5)), ("c", 0, (1.0,)))),
        ValueOutOfRange,
        "row 1 (b): label 1.0 is not an integer",
    ),
    "width before the label": (
        lambda: ProbabilityTable(2, (("a", "x", (1.0,)),)),
        DimensionMismatch,
        "row 0 (a): expected 2 probabilities, got 1",
    ),
    "label range before the sum": (
        lambda: ProbabilityTable(2, (("a", 7, (0.5, 0.6)),)),
        ValueOutOfRange,
        "row 0 (a): label 7 outside [0, 2)",
    ),
    "first probability of a row": (
        lambda: ProbabilityTable(2, (("a", 0, (1.5, -0.5)),)),
        ValueOutOfRange,
        "row 0 (a): probability 1.5 outside [0, 1]",
    ),
    "probability before the sum": (
        lambda: ProbabilityTable(2, (("a", 0, (0.5, True)),)),
        ValueOutOfRange,
        "row 0 (a): probability True outside [0, 1]",
    ),
    "read: sum before a later label": (
        lambda: read_prob_table("instance_id,label,p_0,p_1\nx,0,0.5,0.6\ny,5,0.5,0.5\n"),
        NotNormalized,
        "probability row 0 sums to 1.1, not 1",
    ),
    "activation before a later width": (
        lambda: ActivationTable(2, (("a", (math.inf, 0.5)), ("b", (0.5,)))),
        ValueOutOfRange,
        "row 0 (a): non-finite activation inf",
    ),
    "width before a later activation": (
        lambda: ActivationTable(2, (("a", (0.5, 0.5)), ("b", (0.5,)), ("c", (math.nan, 0.5)))),
        DimensionMismatch,
        "row 1 (b): expected 2 activations, got 1",
    ),
    "read: first activation of a row": (
        lambda: read_activations("sample_id,a_0,a_1\ns1,0.5,0.5\ns2,nan,inf\n"),
        ValueOutOfRange,
        "row 1 (s2): non-finite activation nan",
    ),
}


@pytest.mark.parametrize("build, error, message", _TABLE_TWO_FAULTS.values(), ids=list(_TABLE_TWO_FAULTS))
def test_table_with_two_faults_names_the_first(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("build", _TABLE_BUILDS.values(), ids=_TABLE_BUILDS)
@pytest.mark.parametrize("row_id", ["a,b", 'say "hi"', "a\rb", "a\nb", "\r\n", '"', "x\r", "x\0y", "\0", 'a,"\0'])
def test_table_built_in_code_refuses_an_id_its_reader_would_refuse(build, row_id):
    """A table has no quoting: an id that holds a separator, a quote, a
    carriage return or NUL would not read back as one field."""
    with pytest.raises(SchemaError) as caught:
        build(row_id)
    assert str(caught.value) == f"rows[1][0]: expected string without ',', '\"', '\\r', '\\n' or '\\x00', got {row_id!r}"


def test_tables_round_trip_an_empty_id():
    activations = ActivationTable(2, (("", (0.5, -1.0)), ("s", (1.0, 2.0))))
    assert write_activations(activations) == b"sample_id,a_0,a_1\n,0.5,-1.0\ns,1.0,2.0\n"
    assert read_activations(write_activations(activations)) == activations
    probabilities = ProbabilityTable(2, (("x", 0, (1.0, 0.0)), ("", 1, (0.25, 0.75))))
    assert read_prob_table(write_prob_table(probabilities)) == probabilities


def test_an_id_past_the_csv_modules_field_limit_reads():
    """131072 characters was the ``csv`` module's limit, not the dialect's."""
    long_id = "x" * (131072 + 1)
    activations = read_activations(f"sample_id,a_0\ns,0.5\n{long_id},1.0\n".encode())
    assert activations.ids == ("s", long_id)
    probabilities = read_prob_table(f"instance_id,label,p_0,p_1\n{long_id},1,0.25,0.75\n".encode())
    assert probabilities.ids == (long_id,)
    assert read_prob_table(write_prob_table(probabilities)) == probabilities


@pytest.mark.parametrize(
    "read, header",
    [(read_activations, "sample_id,a_0"), (read_prob_table, "instance_id,label,p_0,p_1")],
    ids=["activations", "probabilities"],
)
def test_table_read_from_a_str_with_a_lone_surrogate_is_a_syntax_error(read, header):
    """No UTF-8 writer can encode a lone surrogate, so the text is refused
    in the words of ``load_json``, not with a bare ``UnicodeEncodeError``."""
    row = "\ud800,0.5" if read is read_activations else "\ud800,0,0.5,0.5"
    with pytest.raises(InputSyntaxError) as caught:
        read(f"{header}\n{row}\n")
    assert str(caught.value) == "lone surrogate '\\ud800'"


@pytest.mark.parametrize(
    "last, message",
    [
        ('"s",0.5', "data row {}: a table field may not hold '\"'"),
        ("s\0,0.5", "data row {}: a table field may not hold '\\x00'"),
        ("s\r,0.5", "data row {}: a table field may not hold '\\r'"),
    ],
    ids=["quote", "NUL", "CR"],
)
def test_a_refused_character_in_a_later_chunk_names_its_data_row(last, message):
    """Rows are numbered across the chunks that the reader splits; a width,
    label or number fault there is held to ``table_oracle`` below."""
    data = _long_table(last)
    rows = data.count(b"\n") - 2  # the header, and the last row's own line end
    assert rows > 2 * laisc_io._CHUNK // 6
    with pytest.raises(LaiscError) as caught:
        read_activations(data)
    assert str(caught.value) == message.format(rows)


# --- the table reader against a whole-table row oracle --------------------------------------

#: What a drawn table is spelled with: number characters, the two
#: separators, a space, a non-ASCII letter, and the characters that the
#: reader refuses in a field (a quote, a carriage return and NUL).
_TABLE_CHARACTERS = '0123456789,.-e \u00e9"\r\n\0'
_PLAIN_CHARACTERS = "0123456789.-e \u00e9"


@st.composite
def _drawn_table(draw) -> tuple[bytes, tuple]:
    """Bytes of a table and its ``(lead, prefix, minimum)``.  The header and
    most rows are well formed; a drawn row may be blank, ragged, a line of
    any of ``_TABLE_CHARACTERS``, or hold a field that ``int()`` or
    ``float()`` refuses.  A table may repeat one row over two chunks before
    the drawn rows, may end its lines in CRLF, and may end in a byte that
    is not UTF-8."""
    lead, prefix, minimum = columns = draw(
        st.sampled_from(((*laisc_io._PROB_COLUMNS, 2), (*laisc_io._ACTIVATION_COLUMNS, 1)))
    )
    count = draw(st.integers(minimum, 3))
    rare = st.integers(0, 7).map((0).__eq__)  # true one time in eight
    wild = st.text(_TABLE_CHARACTERS, max_size=12)
    text = st.text(_PLAIN_CHARACTERS, max_size=4)

    def row() -> str:
        labels = [draw(text if draw(rare) else st.integers(0, 3).map(str)) for _ in lead[1:]]
        numbers = [draw(text if draw(rare) else st.floats(-1e3, 1e3).map(repr)) for _ in range(count)]
        return ",".join([draw(text), *labels, *numbers])

    header = ",".join(laisc_io._header(lead, prefix, count))
    lines = [draw(st.sampled_from((header, header + "\r")) | wild) if draw(rare) else header]
    filler = ",".join(["s", *["0"] * (len(lead) - 1), "1.0", *["0.0"] * (count - 1)])
    lines += [filler] * draw(st.sampled_from((0, 2 * laisc_io._CHUNK // len(filler))))
    for _ in range(draw(st.integers(0, 5))):
        defect = draw(st.sampled_from(("none",) * 5 + ("blank", "wider", "narrower", "wild")))
        if defect == "blank":
            lines.append("")
        elif defect == "wild":
            lines.append(draw(wild))
        else:
            line = row()
            lines.append({"wider": line + ",0.5", "narrower": line.rpartition(",")[0]}.get(defect, line))
    data = ("\n".join(lines) + draw(st.sampled_from(("\n", "")))).encode("utf-8")
    if draw(rare):
        data = data.replace(b"\n", b"\r\n")
    if draw(rare):  # a byte that is not UTF-8, in the last line
        data = data[:-1] + b"\xff"
    return data, columns


def _read_outcome(read, data: bytes, columns: tuple):
    """What ``read`` returns for ``data``, or the type and message of the
    error it raises."""
    try:
        return read(data, *columns)
    except LaiscError as exc:
        return type(exc), str(exc)


def _long_table(last: str) -> bytes:
    """An activation table whose rows span three chunks, then the line ``last``."""
    return b"sample_id,a_0\n" + b"s,0.5\n" * (3 * laisc_io._CHUNK // 6) + last.encode("utf-8") + b"\n"


_ACTIVATIONS = (*laisc_io._ACTIVATION_COLUMNS, 1)


@settings(max_examples=300, deadline=None)
@given(_drawn_table())
@example((_long_table("s,0.5"), _ACTIVATIONS))
@example((_long_table(""), _ACTIVATIONS))
@example((_long_table("s,0.5,1"), _ACTIVATIONS))
@example((_long_table("s,1e"), _ACTIVATIONS))
@example((_long_table("s,0.5")[:-3] + b"\xff\n", _ACTIVATIONS))
@example((_long_table("s,0.5")[:-3] + b"\xc3\r\n", _ACTIVATIONS))
@example((_long_table("a\rb,0.5"), _ACTIVATIONS))
@example((_long_table('"s",0.5'), _ACTIVATIONS))
@example((_long_table("s,0.5").replace(b"\n", b"\r\n"), _ACTIVATIONS))
@example((b"sample_id,a_0\r\ns,0.5\r\r\n", _ACTIVATIONS))
@example((b"instance_id,label,p_0,p_1\n", (*laisc_io._PROB_COLUMNS, 2)))
def test_table_reader_reads_a_table_as_the_row_oracle_does(drawn):
    """``_read_table`` returns what ``table_oracle``, one loop over the rows
    of the whole table, returns, or raises the same error."""
    data, columns = drawn
    assert _read_outcome(laisc_io._read_table, data, columns) == _read_outcome(table_oracle, data, columns)


# --- table storage --------------------------------------------------------------------------


def _table_text(header: str, rows: int, make_row) -> bytes:
    rng = random.Random(rows)
    return "\n".join([header, *(make_row(rng, i) for i in range(rows))]).encode("utf-8") + b"\n"


def _probability_row(rng: random.Random, index: int) -> str:
    raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
    total = math.fsum(raw)
    return f"i-{index:05d},{rng.randrange(4)}," + ",".join(repr(value / total) for value in raw)


@pytest.mark.parametrize(
    "read, data, limit_mib",
    [
        (
            read_activations,
            _table_text(
                "sample_id," + ",".join(f"a_{k}" for k in range(64)),
                2000,
                lambda rng, i: f"s-{i:05d}," + ",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(64)),
            ),
            1.5,
        ),
        (read_prob_table, _table_text("instance_id,label,p_0,p_1,p_2,p_3", 20000, _probability_row), 2.5),
    ],
    ids=["2000x64 activations", "20000x4 probabilities"],
)
def test_table_read_from_csv_keeps_its_numbers_as_doubles(read, data, limit_mib):
    """A table keeps 8 bytes per number, not a ``float`` object in a row tuple."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = read(data)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.ids
    assert retained < limit_mib * 2**20, f"{retained / 2**20:.2f} MiB retained"


def test_tables_compare_and_hash_their_stored_doubles():
    # A table of 1 stores the double 1.0, as one of 1.0 does; -0.0 is another double.
    zero = read_activations("sample_id,a_0\ns,0.0\n")
    negative_zero = read_activations("sample_id,a_0\ns,-0.0\n")
    one = ActivationTable(1, (("s", (1,)),))
    one_float = ActivationTable(1, (("s", (1.0,)),))
    certain = ProbabilityTable(2, (("x", 0, (1, 0)),))
    certain_float = read_prob_table("instance_id,label,p_0,p_1\nx,0,1.0,0.0\n")
    for a, b in ((one, one_float), (certain, certain_float)):
        assert a == b
        assert hash(a) == hash(b)
    assert zero != negative_zero
    assert certain != read_prob_table("instance_id,label,p_0,p_1\nx,0,1.0,-0.0\n")
    assert zero != one
    assert ActivationTable(1, (("t", (0.0,)),)) != zero


@pytest.mark.parametrize("big", [2**53 + 1, -(2**53 + 1)])
def test_table_built_in_code_refuses_an_int_no_double_holds(big):
    # Stored as its double, it would be written and read back as another value.
    with pytest.raises(ValueOutOfRange) as caught:
        ActivationTable(2, (("s", (0.5, 1)), ("t", (0.25, big))))
    assert str(caught.value) == f"row 1 (t): activation {big} has no exact double"


def test_table_built_in_code_stores_each_number_as_its_double():
    table = ActivationTable(2, (("s", (2**53, 1)),))
    assert table.rows == (("s", (2.0**53, 1.0)),)
    assert set(map(type, table.rows[0][1])) == {float}
    assert write_activations(table) == b"sample_id,a_0,a_1\ns,9007199254740992.0,1.0\n"
    assert write_activations(ActivationTable(1, (("s", (1,)),))) == b"sample_id,a_0\ns,1.0\n"


def test_table_rows_are_a_fresh_copy_on_each_access():
    for table in (
        read_activations("sample_id,a_0,a_1\ns1,0.5,-1.25\n"),
        read_prob_table("instance_id,label,p_0,p_1\nx1,1,0.3,0.7\n"),
        ActivationTable(1, (("s", (1,)),)),
    ):
        first, second = table.rows, table.rows
        assert first == second
        assert first is not second
        assert first[0] is not second[0]


# --- table checks against the per-row rules -------------------------------------------------


class _Half(float):
    """A float subclass: the per-row rules refuse it like a ``bool``."""


#: Each defect replaces one value, or changes the row's width, label or sum.
_VALUE_DEFECTS = {
    "nan": lambda value: math.nan,
    "inf": lambda value: math.inf,
    "-inf": lambda value: -math.inf,
    "huge-int": lambda value: 10**400,
    "inexact-int": lambda value: 2**53 + 1,
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
    except LaiscError as exc:
        assert expected is not None, f"rejected a table the rules accept: {exc!r}"
        assert (type(exc), str(exc)) == (type(expected), str(expected))
    else:
        assert expected is None, f"accepted a table the rules reject with {expected!r}"
        assert table.rows == rows


#: Ids the writer takes: any text without NUL or a lone surrogate.
_WRITABLE_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=4)


@st.composite
def _built_table(draw):
    """A table built in code, with numbers of either type, ints past 2**53 among them."""
    rows = []
    if draw(st.booleans()):
        size = draw(st.integers(2, 4))
        for _ in range(draw(st.integers(0, 5))):
            label = draw(st.integers(0, size - 1))
            if draw(st.booleans()):
                probs = [int(j == label) for j in range(size)]
            else:
                weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
                probs = [w / math.fsum(weights) for w in weights]
            rows.append((draw(_WRITABLE_IDS), label, tuple(probs)))
        return ProbabilityTable, read_prob_table, write_prob_table, size, tuple(rows)
    size = draw(st.integers(1, 4))
    numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**54), 2**54)
    for _ in range(draw(st.integers(0, 5))):
        rows.append((draw(_WRITABLE_IDS), tuple(draw(st.lists(numbers, min_size=size, max_size=size)))))
    return ActivationTable, read_activations, write_activations, size, tuple(rows)


@settings(max_examples=300, deadline=None)
@given(_built_table())
def test_every_table_built_in_code_reads_back_as_written(drawn):
    table_type, read, write, size, rows = drawn
    try:
        table = table_type(size, rows)
    except LaiscError:
        return  # refused: nothing is written
    assert read(write(table)) == table


#: The numbers the equality property draws: two spellings of the double
#: 1.0, the two zeros, and 2**53, an int that a double holds.
_EQUALITY_POOL = (0.0, -0.0, 1, 1.0, 2**53)


@st.composite
def _pooled_table(draw):
    """A small table of numbers from ``_EQUALITY_POOL`` and its writer: built
    in code, or read from CSV text that spells each number as ``str`` does."""
    rows = []
    if draw(st.booleans()):
        table_type, read, write, size = ProbabilityTable, read_prob_table, write_prob_table, 2
        for _ in range(draw(st.integers(0, 2))):
            # a row of the pool's numbers that sums to 1: a one and a zero
            one, zero = draw(st.sampled_from((1, 1.0))), draw(st.sampled_from((0.0, -0.0)))
            numbers = (one, zero) if draw(st.booleans()) else (zero, one)
            rows.append((draw(st.sampled_from("st")), draw(st.integers(0, 1)), numbers))
    else:
        table_type, read, write = ActivationTable, read_activations, write_activations
        size = draw(st.integers(1, 2))
        numbers = st.lists(st.sampled_from(_EQUALITY_POOL), min_size=size, max_size=size).map(tuple)
        for _ in range(draw(st.integers(0, 2))):
            rows.append((draw(st.sampled_from("st")), draw(numbers)))
    if draw(st.booleans()):
        return table_type(size, rows), write
    columns = laisc_io._PROB_COLUMNS if table_type is ProbabilityTable else laisc_io._ACTIVATION_COLUMNS
    lines = [",".join(laisc_io._header(*columns, size)), *(",".join(map(str, (*row[:-1], *row[-1]))) for row in rows)]
    return read("\n".join(lines) + "\n"), write


@settings(max_examples=300, deadline=None)
@given(_pooled_table(), _pooled_table())
@example(
    (read_activations("sample_id,a_0\ns,0.0\n"), write_activations),
    (ActivationTable(1, (("s", (-0.0,)),)), write_activations),
)
def test_tables_are_equal_exactly_when_they_write_the_same_bytes(first, second):
    (a, write_a), (b, write_b) = first, second
    assert (a == b) == (write_a(a) == write_b(b))
    if a == b:
        assert hash(a) == hash(b)


# --- report serialization ---------------------------------------------------------------------


def test_unsupported_report_format(fixture_landscape, demo_bundle):
    from laisc.evaluation import evaluate

    report = evaluate(fixture_landscape, demo_bundle)
    with pytest.raises(UnsupportedFormat):
        serialize_report(report, "pdf")
