from __future__ import annotations

import json
import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bound_datasets,
    fingerprint_oracle,
    landscape_fault_oracle,
    random_landscape,
    single_vr_landscape,
)
from laisc import fixtures
from laisc.evaluation import evaluate
from laisc.errors import DanglingReference, DuplicateId, InvalidPayload, LaiscError, SchemaError
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


# --- structure: the first fault ---------------------------------------------


def _at(items, index: int, **changes) -> tuple:
    """``items`` with the item at ``index`` changed by ``replace``."""
    return (*items[:index], replace(items[index], **changes), *items[index + 1 :])


def _payload_at(vrs, index: int, **changes) -> tuple:
    return _at(vrs, index, payload=replace(vrs[index].payload, **changes))


def _conditions(*edits: dict) -> tuple:
    """The first ``len(edits)`` of the fixture's VR3.2 conditions, each
    changed by its ``edits`` entry (``_SAME`` for none)."""
    first = fixtures.track_detector_landscape().vrs[8].payload.conditions
    return tuple(replace(condition, **changes) for condition, changes in zip(first, edits))


_SAME: dict = {}

#: Edits of the fixture landscape with two faults, and the refusal.  The
#: phases run in order (text and dataset ids, ids, numbers, stage orders,
#: concerns, goals, VRs, measures); in one phase the element that comes
#: first is named, and in one element the rule that comes first.  A
#: listed goal or VR that is unknown or names another parent, and a
#: condition that repeats or breaks its numbers, are one rule each: the
#: first reference at fault is named.
_LANDSCAPE_TWO_FAULTS = {
    "dataset id text before an empty component id": (
        lambda land: replace(land, datasets=((1, land.datasets[0][1]),), components=_at(land.components, 0, id="")),
        SchemaError,
        "$.datasets.1: expected string, got 1",
    ),
    "ids before numbers": (
        lambda land: replace(land, stages=_at(land.stages, 0, order=0.0), mitigation_measures=_at(land.mitigation_measures, 0, id="")),
        InvalidPayload,
        "invalid payload for mitigation_measures: empty id",
    ),
    "vrs before measures": (
        lambda land: replace(land, vrs=_at(land.vrs, 9, id=""), mitigation_measures=(*land.mitigation_measures, land.mitigation_measures[0])),
        InvalidPayload,
        "invalid payload for vrs: empty id",
    ),
    "empty id before a repeated one": (
        lambda land: replace(land, components=(*land.components, *land.components, replace(land.components[0], id=""))),
        InvalidPayload,
        "invalid payload for components: empty id",
    ),
    "stage order type before a concern's relevance": (
        lambda land: replace(land, stages=_at(land.stages, 1, order=1.0), concerns=_at(land.concerns, 0, relevant=1)),
        InvalidPayload,
        "invalid payload for stage-modeling: order must be an integer, got 1.0",
    ),
    "numbers before the stage orders": (
        lambda land: replace(land, stages=_at(land.stages, 1, order=5), concerns=_at(land.concerns, 2, relevant=None)),
        InvalidPayload,
        "invalid payload for sc3-robustness: relevant must be a boolean, got None",
    ),
    "a later concern before a goal": (
        lambda land: replace(
            land,
            concerns=_at(land.concerns, 2, relevant=False, relevance_rationale=" "),
            goals=_at(land.goals, 0, vr_ids=(*land.goals[0].vr_ids, "VR9")),
        ),
        InvalidPayload,
        "invalid payload for sc3-robustness: a concern marked not relevant needs a rationale",
    ),
    "a later goal before a VR": (
        lambda land: replace(land, goals=_at(land.goals, 7, vr_ids=("VR3.3", "VR9")), vrs=_at(land.vrs, 0, stage_id="nowhere")),
        DanglingReference,
        "goal G3.3 references unknown id 'VR9'",
    ),
    "a later VR's payload before a measure": (
        lambda land: replace(
            land,
            vrs=_payload_at(land.vrs, 9, threshold=math.inf),
            mitigation_measures=_at(land.mitigation_measures, 0, stage_id="nowhere"),
        ),
        InvalidPayload,
        "invalid payload for VR3.3: threshold must be a finite number, got inf",
    ),
    "an earlier VR's payload before a later VR's stage": (
        lambda land: replace(land, vrs=_at(_payload_at(land.vrs, 2, min_fraction=1.5), 5, stage_id="nowhere")),
        InvalidPayload,
        "invalid payload for VR1.2.1: min_fraction must be in [0, 1], got 1.5",
    ),
    "an earlier VR's stage before a later VR's payload": (
        lambda land: replace(land, vrs=_payload_at(_at(land.vrs, 2, stage_id="nowhere"), 5, epsilon=-1)),
        DanglingReference,
        "VR VR1.2.1 references unknown id 'nowhere'",
    ),
    "an earlier VR's late rule before a later VR's early one": (
        lambda land: replace(
            land,
            vrs=_payload_at(
                _payload_at(land.vrs, 0, required_documents=("a", "a")), 9, metric_id="nope"
            ),
        ),
        InvalidPayload,
        "invalid payload for VR1.1.1: duplicate document kind 'a'",
    ),
    "an earlier binding before a later number": (
        lambda land: replace(land, vrs=_payload_at(_payload_at(land.vrs, 3, dataset_id_b="d-nowhere"), 9, threshold=-math.inf)),
        DanglingReference,
        "VR VR1.2.2 dataset binding references unknown id 'd-nowhere'",
    ),
    "concern: rationale before a repeated component": (
        lambda land: replace(
            land,
            concerns=_at(
                land.concerns, 0, relevant=False, relevance_rationale="", component_ids=("comp-track-detector",) * 2
            ),
        ),
        InvalidPayload,
        "invalid payload for sc1-inaccurate-labels: a concern marked not relevant needs a rationale",
    ),
    "concern: a repeated goal before an unknown component": (
        lambda land: replace(land, concerns=_at(land.concerns, 0, component_ids=("comp-x",), goal_ids=(*land.concerns[0].goal_ids, "G1.1"))),
        DuplicateId,
        "duplicate id 'G1.1' in concern sc1-inaccurate-labels goal_ids",
    ),
    "concern: an unknown component before an unknown goal": (
        lambda land: replace(land, concerns=_at(land.concerns, 0, component_ids=("comp-x",), goal_ids=(*land.concerns[0].goal_ids, "G0"))),
        DanglingReference,
        "concern sc1-inaccurate-labels references unknown id 'comp-x'",
    ),
    "concern: a goal of another concern before a later unknown one": (
        lambda land: replace(land, concerns=_at(land.concerns, 0, goal_ids=(*land.concerns[0].goal_ids, "G2.1", "G9"))),
        InvalidPayload,
        "invalid payload for G2.1: listed under concern sc1-inaccurate-labels but declares concern sc2-synthetic-data",
    ),
    "concern: an unknown goal before a later one of another concern": (
        lambda land: replace(land, concerns=_at(land.concerns, 0, goal_ids=(*land.concerns[0].goal_ids, "G1.0", "G2.1"))),
        DanglingReference,
        "concern sc1-inaccurate-labels references unknown id 'G1.0'",
    ),
    "goal: unknown concern before a repeated VR": (
        lambda land: replace(land, goals=_at(land.goals, 0, concern_id="sc9", vr_ids=("VR1.1.1",) * 2), concerns=_at(land.concerns, 0, goal_ids=("G1.2", "G1.3"))),
        DanglingReference,
        "goal G1.1 references unknown id 'sc9'",
    ),
    "goal: not listed by its concern before a repeated VR": (
        lambda land: replace(land, goals=_at(land.goals, 0, vr_ids=("VR1.1.1",) * 2), concerns=_at(land.concerns, 0, goal_ids=("G1.2", "G1.3"))),
        InvalidPayload,
        "invalid payload for G1.1: not listed by its concern sc1-inaccurate-labels",
    ),
    "goal: a repeated VR before an unknown one": (
        lambda land: replace(land, goals=_at(land.goals, 0, vr_ids=("VR0", "VR1.1.1", "VR1.1.1"))),
        DuplicateId,
        "duplicate id 'VR1.1.1' in goal G1.1 vr_ids",
    ),
    "goal: an unknown VR before a later one of another goal": (
        lambda land: replace(land, goals=_at(land.goals, 0, vr_ids=(*land.goals[0].vr_ids, "VR1.0", "VR2.1"))),
        DanglingReference,
        "goal G1.1 references unknown id 'VR1.0'",
    ),
    "goal: a VR of another goal before a later unknown one": (
        lambda land: replace(land, goals=_at(land.goals, 0, vr_ids=(*land.goals[0].vr_ids, "VR1.2.1", "VR9"))),
        InvalidPayload,
        "invalid payload for VR1.2.1: listed under goal G1.1 but declares goal G1.2",
    ),
    "VR: unknown goal before unknown stage": (
        lambda land: replace(land, goals=_at(land.goals, 0, vr_ids=("VR1.1.2",)), vrs=_at(land.vrs, 0, goal_id="G9", stage_id="nowhere")),
        DanglingReference,
        "VR VR1.1.1 references unknown id 'G9'",
    ),
    "VR: not listed by its goal before unknown stage": (
        lambda land: replace(land, goals=_at(land.goals, 0, vr_ids=("VR1.1.2",)), vrs=_at(land.vrs, 0, goal_id="G1.2", stage_id="nowhere")),
        InvalidPayload,
        "invalid payload for VR1.1.1: not listed by its goal G1.2",
    ),
    "VR: unknown stage before a repeated measure": (
        lambda land: replace(land, vrs=_at(land.vrs, 0, stage_id="nowhere", mm_ids=("mm-labeling-guidelines",) * 2)),
        DanglingReference,
        "VR VR1.1.1 references unknown id 'nowhere'",
    ),
    "VR: a repeated measure before an unknown one": (
        lambda land: replace(land, vrs=_at(land.vrs, 0, mm_ids=("mm-x", "mm-x"))),
        DuplicateId,
        "duplicate id 'mm-x' in VR VR1.1.1 mm_ids",
    ),
    "VR: an unknown measure before the payload": (
        lambda land: replace(land, vrs=_at(_payload_at(land.vrs, 0, required_approvals=0), 0, mm_ids=("mm-none",))),
        DanglingReference,
        "VR VR1.1.1 references unknown id 'mm-none'",
    ),
    "payload: binding before metric": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 9, dataset_id="d-x", metric_id="nope")),
        DanglingReference,
        "VR VR3.3 dataset binding references unknown id 'd-x'",
    ),
    "payload: metric before numbers": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 9, metric_id="nope", threshold=math.inf)),
        InvalidPayload,
        "invalid payload for VR3.3: unknown metric id 'nope'",
    ),
    "gap: numbers before the same dataset twice": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 5, epsilon=-1, dataset_id_b="d-real")),
        InvalidPayload,
        "invalid payload for VR2.1: epsilon must be >= 0, got -1",
    ),
    "conditions: metric before none": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 8, metric_id="nope", conditions=())),
        InvalidPayload,
        "invalid payload for VR3.2: unknown metric id 'nope'",
    ),
    "conditions: a repeat before a later condition's number": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 8, conditions=_conditions(_SAME, _SAME, {"threshold": math.inf}) + _conditions(_SAME))),
        InvalidPayload,
        "invalid payload for VR3.2: duplicate condition 'adverse-lighting'",
    ),
    "conditions: a number before a later repeat": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 8, conditions=_conditions({"threshold": True}, _SAME) + _conditions(_SAME, _SAME))),
        InvalidPayload,
        "invalid payload for VR3.2: condition 'adverse-lighting': threshold must be a finite number, got True",
    ),
    "conditions: a repeat before its own number": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 8, conditions=_conditions(_SAME) + _conditions({"threshold": "x"}))),
        InvalidPayload,
        "invalid payload for VR3.2: duplicate condition 'adverse-lighting'",
    ),
    "approval: number before a repeated document": (
        lambda land: replace(land, vrs=_payload_at(land.vrs, 0, required_approvals=0, required_documents=("a", "a"))),
        InvalidPayload,
        "invalid payload for VR1.1.1: required_approvals must be >= 1, got 0",
    ),
    "two measures on unknown stages": (
        lambda land: replace(
            land, mitigation_measures=_at(_at(land.mitigation_measures, 3, stage_id="s9"), 0, stage_id="s8")
        ),
        DanglingReference,
        "mitigation measure mm-annotator-knowledge-test references unknown id 's8'",
    ),
}


@pytest.mark.parametrize("edit, error, message", _LANDSCAPE_TWO_FAULTS.values(), ids=list(_LANDSCAPE_TWO_FAULTS))
def test_landscape_with_two_faults_names_the_first(edit, error, message):
    with pytest.raises(error) as caught:
        edit(fixtures.track_detector_landscape())
    assert type(caught.value) is error
    assert str(caught.value) == message


_COLLECTIONS = ("stages", "components", "concerns", "goals", "vrs", "mitigation_measures")


def _edit(rng: random.Random, items: list, change) -> None:
    """Set one of ``items``, drawn by ``rng``, to ``change`` of it."""
    if items:
        index = rng.randrange(len(items))
        items[index] = change(items[index])


def _broken_payload(rng: random.Random, p):
    """``p`` with one of the faults that a landscape refuses in a payload."""
    fault = rng.choice(("dataset", "metric", "number", "kind"))
    dataset_fields = [name for name in ("dataset_id", "dataset_id_a", "dataset_id_b") if hasattr(p, name)]
    number = {
        MetricThreshold: "threshold",
        MetricGap: "epsilon",
        ReviewFraction: "min_fraction",
        FlagResolution: "flag_threshold",
        QualitativeApproval: "required_approvals",
    }.get(type(p))
    if fault == "dataset" and dataset_fields:
        return replace(p, **{rng.choice(dataset_fields): "d-nowhere"})
    if fault == "metric" and hasattr(p, "metric_id"):
        return replace(p, metric_id="nope")
    if fault == "number" and number:
        return replace(p, **{number: rng.choice((math.inf, -1, 2, 0, True, "0.5", None))})
    if isinstance(p, MetricGap):
        return replace(p, dataset_id_b=p.dataset_id_a)
    if isinstance(p, QualitativeApproval):
        return replace(p, required_documents=(*p.required_documents, "doc-kind"))
    if isinstance(p, PerCondition) and p.conditions:
        first = p.conditions[0]
        return replace(
            p,
            conditions=rng.choice(
                (
                    (),
                    (*p.conditions, replace(first, dataset_id=rng.choice((first.dataset_id, "d-nowhere")))),
                    (*p.conditions[1:], replace(first, threshold=rng.choice((math.nan, "0.5", False)))),
                    (*p.conditions, replace(first, condition_id="cond0", threshold=math.inf)),
                )
            ),
        )
    return p


def _twice(ids: tuple) -> tuple:
    """``ids`` with its first id listed again, or one new id listed twice."""
    return (*ids, ids[0]) if ids else ("x", "x")


def _inject(rng: random.Random, parts: dict) -> None:
    """Give ``parts``, the fields of a landscape as lists, one fault of a
    kind that the structure check refuses, drawn by ``rng``."""
    # The kinds of the later phases are drawn more often, as a fault of an earlier one hides them.
    kind = rng.choice(
        ("empty id", "repeated id", "dataset id", "number", "rationale", "listed twice", "text")
        + ("unknown", "other parent", "unlisted") * 2
        + ("payload",) * 5
    )
    items = parts[rng.choice(_COLLECTIONS)]
    concerns, goals, vrs = parts["concerns"], parts["goals"], parts["vrs"]
    if kind == "empty id":
        _edit(rng, items, lambda item: replace(item, id=""))
    elif kind == "repeated id" and items:
        items.append(rng.choice(items))
    elif kind == "dataset id":
        parts["datasets"].append(rng.choice((("", parts["datasets"][0][1]), parts["datasets"][0])))
    elif kind == "number":
        _edit(rng, parts["stages"], lambda stage: replace(stage, order=rng.choice((stage.order + 5, -1, float(stage.order), True))))
        _edit(rng, concerns, lambda concern: replace(concern, relevant=rng.choice((1, 0, None))))
    elif kind == "rationale":
        _edit(rng, concerns, lambda concern: replace(concern, relevant=False, relevance_rationale=" "))
    elif kind == "listed twice":
        owners, name = rng.choice(((concerns, "component_ids"), (concerns, "goal_ids"), (goals, "vr_ids"), (vrs, "mm_ids")))
        _edit(rng, owners, lambda owner: replace(owner, **{name: _twice(getattr(owner, name))}))
    elif kind == "unknown":
        owners, name = rng.choice(
            ((concerns, "component_ids"), (concerns, "goal_ids"), (goals, "vr_ids"), (vrs, "mm_ids"), (goals, "concern_id"),
             (vrs, "goal_id"), (vrs, "stage_id"), (parts["mitigation_measures"], "stage_id"))
        )
        _edit(rng, owners, lambda owner: replace(owner, **{name: (*getattr(owner, name), "nowhere") if name.endswith("s") else "nowhere"}))
    elif kind == "other parent":
        owners, name, children = rng.choice(((concerns, "goal_ids", goals), (goals, "vr_ids", vrs)))
        if children:
            child = rng.choice(children).id
            _edit(rng, owners, lambda owner: replace(owner, **{name: (*getattr(owner, name), child)}))
    elif kind == "unlisted":
        owners, name = rng.choice(((concerns, "goal_ids"), (goals, "vr_ids")))
        _edit(rng, owners, lambda owner: replace(owner, **{name: getattr(owner, name)[1:]}))
    elif kind == "payload":
        _edit(rng, vrs, lambda vr: replace(vr, payload=_broken_payload(rng, vr.payload)))
    else:
        _edit(rng, rng.choice((concerns, vrs)), lambda item: replace(item, name=5) if hasattr(item, "name") else replace(item, stage_id=5))


def _outcome(build) -> tuple[type, str] | None:
    try:
        build()
    except LaiscError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_landscape_check_names_the_fault_an_element_walk_names(rng):
    """A landscape with one to three faults of the kinds its structure
    check refuses raises what a walk of every element in turn, one rule
    after another, raises."""
    landscape = random_landscape(rng, delete_links=rng.random() < 0.3)
    parts = {f.name: getattr(landscape, f.name) for f in fields(Landscape)}
    parts.update({name: list(value) for name, value in parts.items() if isinstance(value, tuple)})
    for _ in range(rng.randint(1, 3)):
        _inject(rng, parts)
    expected = _outcome(lambda: landscape_fault_oracle(parts))
    assert _outcome(lambda: Landscape(**parts)) == expected


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
