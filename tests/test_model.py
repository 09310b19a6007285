from __future__ import annotations

import json
import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bound_datasets, fingerprint_oracle, random_landscape, single_vr_landscape
from laisc import fixtures
from laisc.evaluation import evaluate
from laisc.errors import DanglingReference, DuplicateId, InvalidPayload
from laisc.io import EvidenceBundle, parse_landscape, serialize_landscape
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
    fingerprint,
    rows,
    slots,
)
from laisc.report import render_json

DATASETS = {name: DatasetDescriptor(f"data/{name}", "grid-dir", "") for name in ("ds-a", "ds-b")}


def test_fixture_landscape_shape():
    landscape = fixtures.track_detector_landscape()
    assert len(landscape.concerns) == 3
    assert len(landscape.goals) == 8
    assert len(landscape.vrs) == 10
    assert len(rows(landscape)) == 10


def test_empty_definition_is_valid():
    landscape = Landscape(name="empty")
    assert rows(landscape) == []


def test_landscape_built_directly_is_canonical():
    """Canonical order is decided by the Landscape itself, so a parser and
    a caller that builds one in any order get the same object."""
    rng = random.Random(2031)
    for _ in range(25):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
        parts = {f.name: getattr(landscape, f.name) for f in fields(Landscape)}
        for name, value in parts.items():
            if isinstance(value, tuple):
                parts[name] = tuple(rng.sample(value, len(value)))
        assert Landscape(**parts) == landscape


def test_dangling_goal_concern_reference():
    with pytest.raises(DanglingReference):
        Landscape(
            name="broken",
            stages=[LifecycleStage("st1", "S", 0)],
            concerns=[],
            goals=[Goal("g1", "SC-X", "statement", ())],
        )


def test_duplicate_vr_id():
    base = single_vr_landscape(ReviewFraction("ds-a", 0.5))
    with pytest.raises(DuplicateId):
        Landscape(
            name="dup",
            stages=base.stages,
            components=base.components,
            concerns=base.concerns,
            goals=[Goal("g1", "c1", "Goal statement", ("v1",))],
            vrs=base.vrs + base.vrs,
            mitigation_measures=base.mitigation_measures,
            datasets=dict(base.datasets),
        )


def test_datasets_given_as_pairs_with_a_repeated_id_rejected():
    base = single_vr_landscape(ReviewFraction("ds-a", 0.5))
    pairs = (*base.datasets, ("ds-a", DatasetDescriptor("elsewhere/ds-a", "grid-dir")))
    with pytest.raises(DuplicateId, match=r"^duplicate id 'ds-a' in datasets$"):
        replace(base, datasets=pairs)


def test_goal_listed_under_wrong_concern_rejected():
    with pytest.raises(InvalidPayload):
        Landscape(
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
        Landscape(
            name="broken",
            stages=[LifecycleStage("st1", "S", 0)],
            concerns=[SafetyConcern(id="c1", name="One", goal_ids=("g1", "g2"))],
            goals=[Goal("g1", "c1", "a", ("v1",)), Goal("g2", "c1", "b", ("v1",))],
            vrs=[vr],
            datasets=DATASETS,
        )


def test_stage_orders_must_be_contiguous():
    with pytest.raises(InvalidPayload):
        Landscape(
            name="broken",
            stages=[LifecycleStage("st1", "S", 0), LifecycleStage("st2", "T", 2)],
        )


def test_irrelevant_concern_requires_rationale():
    with pytest.raises(InvalidPayload):
        Landscape(
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
    (MetricGap("miou", "ds-a", "ds-b", -0.01), "epsilon must be >= 0, got -0.01"),
    (ReviewFraction("ds-a", 1.5), "min_fraction must be in [0, 1], got 1.5"),
    (ReviewFraction("ds-a", -0.5), "min_fraction must be in [0, 1], got -0.5"),
    (FlagResolution("clm_flags", "ds-a", 1.5), "flag_threshold must be in [0, 1], got 1.5"),
    (FlagResolution("clm_flags", "ds-a", -0.1), "flag_threshold must be in [0, 1], got -0.1"),
    (QualitativeApproval(0), "required_approvals must be >= 1, got 0"),
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


def _first_seen(dataset_ids) -> list[str]:
    return list(dict.fromkeys(dataset_ids))


def test_slot_keys_bind_the_datasets_of_the_payload_fields():
    """The dataset ids of a VR's slot keys, in order of first mention, are
    those its payload fields name, in field order: so the structure check,
    which reads them from the keys, refuses the first undeclared one."""
    rng = random.Random(2207)
    landscapes = [fixtures.track_detector_landscape()] + [random_landscape(rng) for _ in range(200)]
    for landscape in landscapes:
        for vr in landscape.vrs:
            keyed = [dataset_id for _, bound, *_ in slots(vr.payload).values() for dataset_id in bound]
            assert _first_seen(keyed) == _first_seen(bound_datasets(vr.payload)), vr


@pytest.mark.parametrize("datasets", [("d-nowhere", "ds-a"), ("ds-a", "d-nowhere")])
def test_repeated_condition_id_is_refused_whatever_its_copies_bind(datasets):
    """A repeated condition id names one slot, so a copy's dataset may go
    unchecked; the repetition itself is still refused."""
    conditions = tuple(Condition("fog", dataset_id, 0.8) for dataset_id in datasets)
    with pytest.raises((DanglingReference, InvalidPayload)):
        single_vr_landscape(PerCondition("miou", conditions), datasets=DATASETS)


def test_fixture_first_row_cells():
    first = rows(fixtures.track_detector_landscape())[0]
    assert first.concern_name == "Inaccurate data labels"
    assert first.stage_name == "Data collection & preparation"
    assert first.decomposition == "Quality assured labeling process (G1.1)"
    assert first.vr_id == "VR1.1.1"
    assert first.mm_name == "Labeling guidelines"


def _landscape_with_mm_ids(mm_ids: tuple[str, ...]):
    return Landscape(
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


def test_rows_deterministic_and_a_new_list_on_each_call():
    landscape = fixtures.track_detector_landscape()
    first = rows(landscape)
    expected = list(first)
    assert first == rows(fixtures.track_detector_landscape())
    first.reverse()
    first.pop()
    again = rows(landscape)
    assert again == expected and again is not first


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


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_fingerprint_matches_the_oracle_before_and_after_an_evaluate(rng):
    landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
    expected = fingerprint_oracle(landscape)
    assert fingerprint(landscape) == expected
    assert json.loads(render_json(evaluate(landscape, EvidenceBundle(()))))["fingerprint"] == expected
    assert fingerprint(landscape) == expected
    # A landscape first used by an evaluate.
    fresh = replace(landscape)
    assert json.loads(render_json(evaluate(fresh, EvidenceBundle(()))))["fingerprint"] == expected
    assert fingerprint(fresh) == expected


def test_landscape_equality_and_hash_ignore_the_cached_views():
    data = fixtures.fixture_path().read_bytes()
    cold, warm = parse_landscape(data), parse_landscape(data)
    fingerprint(warm), rows(warm)
    assert vars(warm).keys() > vars(cold).keys()
    assert cold == warm and hash(cold) == hash(warm)


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
    return Landscape(**parts)


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
    and payload still do.  Each goal then lists the VRs that name it, so
    the edited landscape is valid."""
    landscape = random_landscape(rng, delete_links=rng.random() < 0.4)
    before = fingerprint(landscape)  # a replaced copy must not inherit it
    payloads = [vr.payload for vr in landscape.vrs]
    goal_ids = [goal.id for goal in landscape.goals]
    stage_ids = [stage.id for stage in landscape.stages]
    edited = []
    for vr in landscape.vrs:
        edit = data.draw(st.sampled_from(("none", "links", "id", "payload")))
        if edit == "links":
            goal_id, stage_id = data.draw(st.sampled_from(goal_ids)), data.draw(st.sampled_from(stage_ids))
            vr = replace(vr, goal_id=goal_id, stage_id=stage_id, mm_ids=())
        elif edit == "id":
            vr = replace(vr, id=vr.id + "-renamed")
        elif edit == "payload":
            vr = replace(vr, payload=data.draw(st.sampled_from(payloads)))
        edited.append(vr)
    goals = tuple(
        replace(goal, vr_ids=tuple(vr.id for vr in edited if vr.goal_id == goal.id)) for goal in landscape.goals
    )
    other = replace(landscape, goals=goals, vrs=tuple(edited))
    same_content = [(vr.id, vr.payload) for vr in landscape.vrs] == [(vr.id, vr.payload) for vr in other.vrs]
    assert (fingerprint(other) == before) is same_content
    assert fingerprint(other) == fingerprint_oracle(other)


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
