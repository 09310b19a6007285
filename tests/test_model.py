from __future__ import annotations

import json
import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_landscape, single_vr_landscape
from laisc import fixtures
from laisc.errors import DanglingReference, DuplicateId, InvalidPayload
from laisc.io import serialize_landscape
from laisc.model import (
    Comparator,
    Condition,
    DatasetDescriptor,
    FlagResolution,
    Goal,
    Landscape,
    LifecycleStage,
    MetricGap,
    MetricThreshold,
    MitigationMeasure,
    PerCondition,
    QualitativeApproval,
    ReviewFraction,
    SafetyConcern,
    VerifiableRequirement,
    build_landscape,
    fingerprint,
    rows,
)

DATASETS = {name: DatasetDescriptor(f"data/{name}", "grid-dir", "") for name in ("ds-a", "ds-b")}


def test_fixture_landscape_shape():
    landscape = fixtures.track_detector_landscape()
    assert len(landscape.concerns) == 3
    assert len(landscape.goals) == 8
    assert len(landscape.vrs) == 10
    assert len(rows(landscape)) == 10


def test_empty_definition_is_valid():
    landscape = build_landscape(name="empty")
    assert rows(landscape) == []


def test_landscape_built_directly_is_canonical():
    """Canonical order is decided by the Landscape itself, so a parser or a
    caller that builds one directly gets the same object as build_landscape."""
    rng = random.Random(2031)
    for _ in range(25):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
        parts = {f.name: getattr(landscape, f.name) for f in fields(Landscape)}
        for name, value in parts.items():
            if isinstance(value, tuple):
                parts[name] = tuple(rng.sample(value, len(value)))
        assert Landscape(**parts) == build_landscape(**parts) == landscape


def test_dangling_goal_concern_reference():
    with pytest.raises(DanglingReference):
        build_landscape(
            name="broken",
            stages=[LifecycleStage("st1", "S", 0)],
            concerns=[],
            goals=[Goal("g1", "SC-X", "statement", ())],
        )


def test_duplicate_vr_id():
    base = single_vr_landscape(ReviewFraction("ds-a", 0.5))
    with pytest.raises(DuplicateId):
        build_landscape(
            name="dup",
            stages=base.stages,
            components=base.components,
            concerns=base.concerns,
            goals=[Goal("g1", "c1", "Goal statement", ("v1",))],
            vrs=base.vrs + base.vrs,
            mitigation_measures=base.mitigation_measures,
            datasets=dict(base.datasets),
        )


def test_goal_listed_under_wrong_concern_rejected():
    with pytest.raises(InvalidPayload):
        build_landscape(
            name="broken",
            stages=[LifecycleStage("st1", "S", 0)],
            concerns=[
                SafetyConcern(id="c1", name="One", goal_ids=("g1",)),
                SafetyConcern(id="c2", name="Two", goal_ids=("g1",)),
            ],
            goals=[Goal("g1", "c1", "statement", ())],
        )


def test_vr_shared_by_two_goals_rejected():
    vr = VerifiableRequirement(
        id="v1", goal_id="g1", payload=ReviewFraction("ds-a", 0.5), stage_id="st1"
    )
    with pytest.raises(InvalidPayload):
        build_landscape(
            name="broken",
            stages=[LifecycleStage("st1", "S", 0)],
            concerns=[SafetyConcern(id="c1", name="One", goal_ids=("g1", "g2"))],
            goals=[Goal("g1", "c1", "a", ("v1",)), Goal("g2", "c1", "b", ("v1",))],
            vrs=[vr],
            datasets=DATASETS,
        )


def test_stage_orders_must_be_contiguous():
    with pytest.raises(InvalidPayload):
        build_landscape(
            name="broken",
            stages=[LifecycleStage("st1", "S", 0), LifecycleStage("st2", "T", 2)],
        )


def test_irrelevant_concern_requires_rationale():
    with pytest.raises(InvalidPayload):
        build_landscape(
            name="broken",
            concerns=[SafetyConcern(id="c1", name="One", relevant=False, relevance_rationale="  ")],
        )


@pytest.mark.parametrize(
    "payload",
    [
        MetricGap("miou", "ds-a", "ds-b", -0.01),
        MetricThreshold("miou", "ds-a", Comparator.GE, float("inf")),
        ReviewFraction("ds-a", 1.5),
        QualitativeApproval(0),
        MetricThreshold("not-a-metric", "ds-a", Comparator.GE, 0.5),
        PerCondition("miou", ()),
        PerCondition("miou", (Condition("c", "ds-a", 0.1), Condition("c", "ds-b", 0.2))),
        MetricGap("miou", "ds-a", "ds-a", 0.05),
    ],
)
def test_invalid_payloads_rejected(payload):
    with pytest.raises(InvalidPayload):
        single_vr_landscape(payload)


_NUMBER_FAULTS = [
    (MetricThreshold("miou", "ds-a", Comparator.GE, math.inf), "threshold must be a finite number, got inf"),
    (MetricThreshold("miou", "ds-a", Comparator.GE, True), "threshold must be a finite number, got True"),
    (MetricGap("miou", "ds-a", "ds-b", "0.1"), "epsilon must be a finite number, got '0.1'"),
    (ReviewFraction("ds-a", None), "min_fraction must be a finite number, got None"),
    (FlagResolution("clm_flags", "ds-a", math.nan), "flag_threshold must be a finite number, got nan"),
    (PerCondition("miou", (Condition("c", "ds-a", "high"),)), "condition 'c': threshold must be a finite number, got 'high'"),
    (QualitativeApproval(1.5), "required_approvals must be an integer, got 1.5"),
    (QualitativeApproval(True), "required_approvals must be an integer, got True"),
]


@pytest.mark.parametrize("payload, message", _NUMBER_FAULTS, ids=[repr(payload) for payload, _ in _NUMBER_FAULTS])
def test_payload_number_fields_follow_their_annotation(payload, message):
    with pytest.raises(InvalidPayload) as caught:
        single_vr_landscape(payload)
    assert str(caught.value) == f"invalid payload for v1: {message}"


def test_payload_number_fields_accept_ints_for_floats():
    landscape = single_vr_landscape(MetricGap("miou", "ds-a", "ds-b", 0))
    assert landscape.vrs[0].payload.epsilon == 0


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_vr_kind_is_the_serialized_kind_key(rng):
    for landscape in (fixtures.track_detector_landscape(), random_landscape(rng, delete_links=rng.random() < 0.4)):
        node = json.loads(serialize_landscape(landscape))
        assert [vr.kind for vr in landscape.vrs] == [vr_node["kind"] for vr_node in node["vrs"]]
        assert all(type(vr.kind) is str for vr in landscape.vrs)


def test_undeclared_dataset_rejected():
    with pytest.raises(DanglingReference):
        single_vr_landscape(ReviewFraction("ds-unknown", 0.5))


# --- rows -------------------------------------------------------------------


def test_fixture_first_row_cells():
    first = rows(fixtures.track_detector_landscape())[0]
    assert first.concern_name == "Inaccurate data labels"
    assert first.stage_name == "Data collection & preparation"
    assert first.decomposition == "Quality assured labeling process (G1.1)"
    assert first.vr_id == "VR1.1.1"
    assert first.mm_name == "Labeling guidelines"


def _landscape_with_mm_ids(mm_ids: tuple[str, ...]):
    return build_landscape(
        name="rows",
        stages=[LifecycleStage("st1", "S", 0)],
        concerns=[SafetyConcern(id="c1", name="One", goal_ids=("g1",))],
        goals=[Goal("g1", "c1", "Goal", ("v1",))],
        vrs=[
            VerifiableRequirement(
                id="v1", goal_id="g1", payload=ReviewFraction("ds-a", 0.5), stage_id="st1", mm_ids=mm_ids
            )
        ],
        mitigation_measures=[MitigationMeasure(f"m{i}", f"Measure {i}", "", "st1") for i in (1, 2)],
        datasets=DATASETS,
    )


def test_vr_with_two_measures_yields_two_rows():
    out = rows(_landscape_with_mm_ids(("m1", "m2")))
    assert [(r.vr_id, r.mm_id) for r in out] == [("v1", "m1"), ("v1", "m2")]


def test_vr_without_measures_yields_one_row_with_empty_cell():
    out = rows(_landscape_with_mm_ids(()))
    assert len(out) == 1
    assert out[0].mm_id == "" and out[0].mm_name == ""


def test_rows_deterministic():
    landscape = fixtures.track_detector_landscape()
    assert rows(landscape) == rows(landscape)


def test_rows_are_sorted_canonically():
    rng = random.Random(7)
    for _ in range(20):
        landscape = random_landscape(rng)
        out = rows(landscape)
        stage_order = {s.id: s.order for s in landscape.stages}
        keys = [(r.concern_id, stage_order[r.stage_id], r.goal_id, r.vr_id, r.mm_id) for r in out]
        assert keys == sorted(keys)
        expected_count = sum(max(1, len(vr.mm_ids)) for vr in landscape.vrs)
        assert len(out) == expected_count


# --- fingerprint ----------------------------------------------------------------


def test_fingerprint_deterministic():
    landscape = fixtures.track_detector_landscape()
    assert fingerprint(landscape) == fingerprint(fixtures.track_detector_landscape())


def _rebuild(landscape, **overrides):
    parts = dict(
        name=landscape.name,
        version=landscape.version,
        stages=landscape.stages,
        components=landscape.components,
        concerns=landscape.concerns,
        goals=landscape.goals,
        vrs=landscape.vrs,
        mitigation_measures=landscape.mitigation_measures,
        datasets=dict(landscape.datasets),
    )
    parts.update(overrides)
    return build_landscape(**parts)


def test_fingerprint_changes_on_payload_edit():
    landscape = fixtures.track_detector_landscape()
    new_vrs = tuple(
        vr
        if vr.id != "VR2.1"
        else VerifiableRequirement(
            id=vr.id,
            goal_id=vr.goal_id,
            payload=MetricGap("miou", "d-real", "d-synth", 0.04),
            stage_id=vr.stage_id,
            mm_ids=vr.mm_ids,
        )
        for vr in landscape.vrs
    )
    modified = _rebuild(landscape, vrs=new_vrs)
    assert fingerprint(modified) != fingerprint(landscape)


def test_fingerprint_ignores_prose_edits():
    landscape = fixtures.track_detector_landscape()
    new_concerns = tuple(
        SafetyConcern(
            id=c.id,
            name=c.name,
            description="entirely reworded description",
            relevant=c.relevant,
            relevance_rationale=c.relevance_rationale,
            component_ids=c.component_ids,
            goal_ids=c.goal_ids,
        )
        for c in landscape.concerns
    )
    assert fingerprint(_rebuild(landscape, concerns=new_concerns)) == fingerprint(landscape)


def test_fingerprint_ignores_dataset_path_edits():
    landscape = fixtures.track_detector_landscape()
    moved = {
        dataset_id: DatasetDescriptor("elsewhere/" + d.path, d.format, d.role)
        for dataset_id, d in landscape.datasets
    }
    assert fingerprint(_rebuild(landscape, datasets=moved)) == fingerprint(landscape)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_fingerprint_equal_exactly_when_vr_content_is_equal(rng, data):
    """Edit a random landscape's VRs (new id, another VR's payload, other
    links, or nothing); the fingerprints agree exactly when every VR's id
    and payload still do."""
    landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
    payloads = [vr.payload for vr in landscape.vrs]
    edited = []
    for vr in landscape.vrs:
        edit = data.draw(st.sampled_from(("none", "links", "id", "payload")))
        if edit == "links":
            vr = replace(vr, goal_id="elsewhere", stage_id="elsewhere", mm_ids=())
        elif edit == "id":
            vr = replace(vr, id=vr.id + "-renamed")
        elif edit == "payload":
            vr = replace(vr, payload=data.draw(st.sampled_from(payloads)))
        edited.append(vr)
    other = replace(landscape, vrs=tuple(edited))
    same_content = [(vr.id, vr.payload) for vr in landscape.vrs] == [(vr.id, vr.payload) for vr in other.vrs]
    assert (fingerprint(other) == fingerprint(landscape)) is same_content


def test_tree_shape_on_generated_landscapes():
    rng = random.Random(99)
    for _ in range(30):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.5)
        for goal in landscape.goals:
            owners = [c.id for c in landscape.concerns if goal.id in c.goal_ids]
            assert owners == [goal.concern_id]
        for vr in landscape.vrs:
            owners = [g.id for g in landscape.goals if vr.id in g.vr_ids]
            assert owners == [vr.goal_id]
