from __future__ import annotations

import json
import random
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coverage_oracle,
    gaps_as_pairs,
    generated_pair,
    random_bundle,
    random_fitting_payload,
    random_landscape,
    record,
    single_vr_landscape,
    verdict_oracle,
)
from laisc.codec import load_json
from laisc.errors import InvalidTimestamp, LaiscError, UnknownFilterKey
from laisc.evaluation import (
    Filter,
    GapKind,
    Status,
    Verdict,
    apply_filter,
    coverage,
    evaluate,
    evaluate_vr,
    reads,
    rollup,
)
from laisc.io import (
    ApprovalRecord,
    ApprovalVerdict,
    DocumentRecord,
    EvidenceBundle,
    FlagResolutionLog,
    MetricResult,
    ReviewLog,
    parse_evidence,
    parse_landscape,
    serialize_evidence,
    serialize_landscape,
)
from laisc.model import (
    KNOWN_METRIC_IDS,
    Comparator,
    Condition,
    Landscape,
    MetricGap,
    MetricThreshold,
    MitigationMeasure,
    PerCondition,
    QualitativeApproval,
    Resolution,
    ReviewFraction,
    VerifiableRequirement,
    VrPayload,
    fingerprint,
)
from laisc.report import render_json

APPROVED = ApprovalVerdict.APPROVED
REJECTED = ApprovalVerdict.REJECTED


def _eval(landscape, *payloads_with_meta):
    """Evaluate the landscape's single VR against ad-hoc records.

    Each entry is (payload,) or (payload, {'stale': bool, 'minute': int}).
    """
    fp = fingerprint(landscape)
    records = []
    for index, entry in enumerate(payloads_with_meta):
        payload, meta = entry if isinstance(entry, tuple) else (entry, {})
        records.append(
            record(
                f"r{index}",
                "v1",
                payload,
                "sha256:outdated" if meta.get("stale") else fp,
                minute=meta.get("minute", index),
            )
        )
    return evaluate_vr(landscape.vr("v1"), EvidenceBundle(tuple(records)), fp)


# --- supersession and staleness ---------------------------------------------------


def test_most_recent_record_wins():
    landscape = single_vr_landscape(MetricThreshold("miou", "ds-a", Comparator.GE, 0.8))
    verdict = _eval(
        landscape,
        (MetricResult("miou", ("ds-a",), 0.70), {"minute": 1}),
        (MetricResult("miou", ("ds-a",), 0.90), {"minute": 2}),
    )
    assert verdict.status is Status.SATISFIED
    assert verdict.evidence_ids == ("r1",)


def test_timestamp_tie_breaks_by_record_id():
    landscape = single_vr_landscape(MetricThreshold("miou", "ds-a", Comparator.GE, 0.8))
    verdict = _eval(
        landscape,
        (MetricResult("miou", ("ds-a",), 0.70), {"minute": 5}),
        (MetricResult("miou", ("ds-a",), 0.90), {"minute": 5}),
    )
    assert verdict.evidence_ids == ("r1",)
    assert verdict.status is Status.SATISFIED


def test_stale_record_ignored_when_fresh_exists():
    landscape = single_vr_landscape(MetricThreshold("miou", "ds-a", Comparator.GE, 0.8))
    verdict = _eval(
        landscape,
        (MetricResult("miou", ("ds-a",), 0.70), {"stale": True, "minute": 9}),
        (MetricResult("miou", ("ds-a",), 0.90), {"minute": 1}),
    )
    assert verdict.status is Status.SATISFIED


def test_only_stale_records_is_error():
    landscape = single_vr_landscape(MetricThreshold("miou", "ds-a", Comparator.GE, 0.8))
    verdict = _eval(landscape, (MetricResult("miou", ("ds-a",), 0.95), {"stale": True}))
    assert verdict.status is Status.ERROR
    assert "stale" in verdict.explanation


def test_wrong_kind_evidence_is_error():
    landscape = single_vr_landscape(MetricThreshold("miou", "ds-a", Comparator.GE, 0.8))
    verdict = _eval(landscape, ApprovalRecord("a", "role", APPROVED, "doc"))
    assert verdict.status is Status.ERROR
    assert "unusable" in verdict.explanation


@pytest.mark.parametrize(
    "payload",
    [PerCondition("miou", (Condition("fog", "ds-a", 0.8), Condition("rain", "ds-a", 0.7)))],
    ids=["conditions"],
)
@pytest.mark.parametrize("stale", [False, True])
def test_record_filling_two_slots_is_listed_once(payload, stale):
    landscape = single_vr_landscape(payload)
    verdict = _eval(landscape, (MetricResult("miou", ("ds-a",), 0.9), {"stale": stale}))
    assert verdict.status is (Status.ERROR if stale else Status.SATISFIED)
    assert verdict.evidence_ids == ("r0",)


def test_no_records_is_pending():
    landscape = single_vr_landscape(MetricThreshold("miou", "ds-a", Comparator.GE, 0.8))
    verdict = evaluate_vr(landscape.vr("v1"), EvidenceBundle(()), fingerprint(landscape))
    assert verdict.status is Status.PENDING


def test_gap_symmetry_under_dataset_swap():
    rng = random.Random(13)
    for _ in range(30):
        eps = rng.uniform(0, 0.2)
        forward = single_vr_landscape(MetricGap("miou", "ds-a", "ds-b", eps))
        backward = single_vr_landscape(MetricGap("miou", "ds-b", "ds-a", eps))
        value_a, value_b = rng.random(), rng.random()
        records = [
            MetricResult("miou", ("ds-a",), value_a),
            MetricResult("miou", ("ds-b",), value_b),
        ]
        assert _eval(forward, *records).status == _eval(backward, *records).status


def test_gap_record_preferred_over_pair():
    landscape = single_vr_landscape(MetricGap("miou", "ds-a", "ds-b", 0.05))
    verdict = _eval(
        landscape,
        MetricResult("miou", ("ds-a",), 0.5),
        MetricResult("miou", ("ds-b",), 0.9),
        MetricResult("miou", ("ds-a", "ds-b"), 0.01, "gap"),
    )
    assert verdict.status is Status.SATISFIED
    assert verdict.evidence_ids == ("r2",)


def test_gap_past_the_float_range_is_violated_and_its_report_reads_back():
    """Two finite values 1e308 and -1e308 differ by inf: the verdict says so
    in words, and its ``measured`` holds only what JSON can, so the JSON
    report reads back."""
    landscape = single_vr_landscape(MetricGap("miou", "ds-a", "ds-b", 0.05))
    fp = fingerprint(landscape)
    bundle = EvidenceBundle(
        (
            record("r0", "v1", MetricResult("miou", ("ds-a",), 1e308), fp),
            record("r1", "v1", MetricResult("miou", ("ds-b",), -1e308), fp),
        )
    )
    report = evaluate(landscape, bundle, now=NOW)
    assert report.vr_verdicts["v1"].status is Status.VIOLATED
    assert "= inf > epsilon 0.05" in report.vr_verdicts["v1"].explanation
    node = load_json(render_json(report))
    assert node["verdicts"]["v1"]["measured"] == {"epsilon": 0.05, "value_a": 1e308, "value_b": -1e308}


# --- roll-ups -----------------------------------------------------------------------


def _three_goal_landscape(relevant=True):
    from laisc.model import DatasetDescriptor, Goal, LifecycleStage, SafetyConcern

    datasets = {n: DatasetDescriptor(f"d/{n}", "grid-dir", "") for n in ("ds-a", "ds-b")}
    vr = lambda i, g: VerifiableRequirement(  # noqa: E731
        id=f"v{i}", goal_id=g, payload=ReviewFraction("ds-a", 0.5), stage_id="st1", mm_ids=("m1",)
    )
    return Landscape(
        name="rollup",
        stages=[LifecycleStage("st1", "S", 0)],
        concerns=[
            SafetyConcern(
                id="c1",
                name="Concern",
                relevant=relevant,
                relevance_rationale="" if relevant else "argued away",
                goal_ids=("g1", "g2", "g3"),
            )
        ],
        goals=[
            Goal("g1", "c1", "one", ("v1",)),
            Goal("g2", "c1", "two", ("v2",)),
            Goal("g3", "c1", "three", ("v3",)),
        ],
        vrs=[vr(1, "g1"), vr(2, "g2"), vr(3, "g3")],
        mitigation_measures=[MitigationMeasure("m1", "M", "", "st1")],
        datasets=datasets,
    )


def _verdict(status):
    from laisc.evaluation import Verdict

    return Verdict(status, "test")


def test_rollup_all_satisfied(fixture_landscape, demo_bundle):
    report = evaluate(fixture_landscape, demo_bundle)
    assert all(r.status is Status.SATISFIED for r in report.goal_rollups.values())
    assert all(r.status is Status.SATISFIED for r in report.concern_rollups.values())


def test_rollup_precedence_violated_wins():
    landscape = _three_goal_landscape()
    goal_rollups, concern_rollups = rollup(
        landscape,
        {"v1": _verdict(Status.SATISFIED), "v2": _verdict(Status.VIOLATED), "v3": _verdict(Status.PENDING)},
    )
    assert goal_rollups["g1"].status is Status.SATISFIED
    assert goal_rollups["g2"].status is Status.VIOLATED
    assert goal_rollups["g3"].status is Status.PENDING
    assert concern_rollups["c1"].status is Status.VIOLATED


def test_rollup_fixture_robustness_concern_violated(fixture_landscape, demo_bundle):
    # VR3.1 stays satisfied, VR3.2 gets a failing re-measurement, VR3.3
    # loses its evidence: the whole concern must report the violation.
    fp = fingerprint(fixture_landscape)
    kept = tuple(r for r in demo_bundle.records if r.vr_id != "VR3.3")
    failing = record("r-fail", "VR3.2", MetricResult("miou", ("d-sensor-noise",), 0.5), fp, minute=59)
    report = evaluate(fixture_landscape, EvidenceBundle(kept + (failing,)))
    assert report.vr_verdicts["VR3.1"].status is Status.SATISFIED
    assert report.vr_verdicts["VR3.2"].status is Status.VIOLATED
    assert report.vr_verdicts["VR3.3"].status is Status.PENDING
    assert report.concern_rollups["sc3-robustness"].status is Status.VIOLATED


def test_rollup_not_applicable_concern():
    landscape = _three_goal_landscape(relevant=False)
    _, concern_rollups = rollup(
        landscape,
        {"v1": _verdict(Status.VIOLATED), "v2": _verdict(Status.VIOLATED), "v3": _verdict(Status.VIOLATED)},
    )
    assert concern_rollups["c1"].status is Status.NOT_APPLICABLE
    assert "argued away" in concern_rollups["c1"].note


_STATUS_VALUES = (Status.SATISFIED, Status.VIOLATED, Status.PENDING, Status.ERROR)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_STATUS_VALUES), min_size=1, max_size=8))
def test_rollup_precedence_property(statuses):
    from laisc.evaluation import _aggregate

    result = _aggregate(list(statuses), "empty")
    if Status.VIOLATED in statuses:
        assert result.status is Status.VIOLATED
    elif Status.ERROR in statuses:
        assert result.status is Status.ERROR
    elif Status.PENDING in statuses:
        assert result.status is Status.PENDING
    else:
        assert result.status is Status.SATISFIED


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_STATUS_VALUES), min_size=1, max_size=8))
def test_adding_satisfied_never_worsens_rollup(statuses):
    from laisc.evaluation import _aggregate

    order = [Status.SATISFIED, Status.PENDING, Status.ERROR, Status.VIOLATED]
    before = _aggregate(list(statuses), "empty")
    after = _aggregate(list(statuses) + [Status.SATISFIED], "empty")
    assert order.index(after.status) <= order.index(before.status)


# --- coverage ------------------------------------------------------------------------


def test_fixture_coverage_is_empty(fixture_landscape):
    assert coverage(fixture_landscape) == []


def test_missing_measure_link_reported(fixture_landscape):
    vrs = tuple(
        vr
        if vr.id != "VR2.2"
        else VerifiableRequirement(
            id=vr.id, goal_id=vr.goal_id, payload=vr.payload, stage_id=vr.stage_id, mm_ids=()
        )
        for vr in fixture_landscape.vrs
    )
    modified = Landscape(
        name=fixture_landscape.name,
        version=fixture_landscape.version,
        stages=fixture_landscape.stages,
        components=fixture_landscape.components,
        concerns=fixture_landscape.concerns,
        goals=fixture_landscape.goals,
        vrs=vrs,
        mitigation_measures=fixture_landscape.mitigation_measures,
        datasets=dict(fixture_landscape.datasets),
    )
    assert gaps_as_pairs(coverage(modified)) == {(GapKind.VR_WITHOUT_MM.value, "VR2.2")}


def test_relevant_concern_without_goals_reported():
    from laisc.model import SafetyConcern

    landscape = Landscape(
        name="gaps", concerns=[SafetyConcern(id="c1", name="Concern", goal_ids=())]
    )
    assert gaps_as_pairs(coverage(landscape)) == {(GapKind.CONCERN_WITHOUT_GOAL.value, "c1")}


def test_irrelevant_concern_produces_no_gaps():
    from laisc.model import SafetyConcern

    landscape = Landscape(
        name="gaps",
        concerns=[
            SafetyConcern(
                id="c1", name="Concern", relevant=False, relevance_rationale="not in scope", goal_ids=()
            )
        ],
    )
    assert coverage(landscape) == []


def test_measure_without_stage_reported():
    landscape = single_vr_landscape(ReviewFraction("ds-a", 0.5))
    modified = Landscape(
        name=landscape.name,
        stages=landscape.stages,
        components=landscape.components,
        concerns=landscape.concerns,
        goals=landscape.goals,
        vrs=landscape.vrs,
        mitigation_measures=[MitigationMeasure("m1", "Measure", "", None)],
        datasets=dict(landscape.datasets),
    )
    assert gaps_as_pairs(coverage(modified)) == {(GapKind.MM_WITHOUT_STAGE.value, "m1")}


def test_coverage_matches_oracle_on_random_landscapes():
    rng = random.Random(2024)
    for _ in range(100):
        landscape = random_landscape(rng, delete_links=True)
        assert gaps_as_pairs(coverage(landscape)) == coverage_oracle(landscape)


# --- filters -------------------------------------------------------------------------


def test_filter_by_stage_name(fixture_landscape):
    assert len(apply_filter(fixture_landscape, Filter(stage="Modeling"))) == 3


def test_filter_by_concern_name(fixture_landscape):
    assert len(apply_filter(fixture_landscape, Filter(concern="Inaccurate data labels"))) == 5


def test_filter_by_concern_id(fixture_landscape):
    assert len(apply_filter(fixture_landscape, Filter(concern="sc1-inaccurate-labels"))) == 5


def test_empty_filter_is_identity(fixture_landscape):
    assert len(apply_filter(fixture_landscape, Filter())) == 10


def test_filter_by_component(fixture_landscape):
    assert len(apply_filter(fixture_landscape, Filter(component="comp-track-detector"))) == 10


def test_conjunctive_filter(fixture_landscape):
    flt = Filter(concern="Lack of robustness", stage="Data collection & preparation")
    assert apply_filter(fixture_landscape, flt) == []


def test_unknown_filter_key(fixture_landscape):
    with pytest.raises(UnknownFilterKey):
        apply_filter(fixture_landscape, Filter(stage="Retirement"))
    with pytest.raises(UnknownFilterKey):
        apply_filter(fixture_landscape, Filter(status="maybe"))


@pytest.mark.parametrize(
    "key, value", [("status", 5), ("concern", ["x"]), ("stage", b"Modeling"), ("component", 1.5)]
)
def test_filter_value_that_is_no_str_is_an_unknown_filter_key(fixture_landscape, demo_bundle, key, value):
    with pytest.raises(UnknownFilterKey) as caught:
        evaluate(fixture_landscape, demo_bundle, flt=Filter(**{key: value}))
    assert (caught.value.key, caught.value.value) == (key, value)
    assert str(caught.value) == f"filter {key}={value!r} matches no id or name in the landscape"


def test_status_filter(fixture_landscape, demo_bundle):
    report = evaluate(fixture_landscape, demo_bundle, flt=Filter(status="satisfied"))
    assert len(report.rows) == 10
    report = evaluate(fixture_landscape, demo_bundle, flt=Filter(status="Violated"))
    assert report.rows == ()


def test_filter_soundness(fixture_landscape, demo_bundle):
    now = datetime(2026, 2, 1, tzinfo=timezone.utc)
    full = evaluate(fixture_landscape, demo_bundle, now=now)
    filtered = evaluate(fixture_landscape, demo_bundle, flt=Filter(stage="Modeling"), now=now)
    assert filtered.vr_verdicts == full.vr_verdicts
    for row in filtered.rows:
        assert filtered.vr_verdicts[row.vr_id] == full.vr_verdicts[row.vr_id]


# --- whole-report properties --------------------------------------------------------------


def test_report_independent_of_record_order(fixture_landscape, demo_bundle):
    now = datetime(2026, 2, 1, tzinfo=timezone.utc)
    rng = random.Random(47)
    shuffled = list(demo_bundle.records)
    rng.shuffle(shuffled)
    reshuffled_bundle = EvidenceBundle(tuple(shuffled), source=demo_bundle.source)
    a = evaluate(fixture_landscape, demo_bundle, now=now)
    b = evaluate(fixture_landscape, reshuffled_bundle, now=now)
    assert a.vr_verdicts == b.vr_verdicts
    assert a.goal_rollups == b.goal_rollups
    assert a.concern_rollups == b.concern_rollups


def test_naive_now_rejected(fixture_landscape, demo_bundle):
    # A naive clock would be read in host-local time when the report is written.
    with pytest.raises(InvalidTimestamp, match="'2026-02-01T12:00:00': missing UTC offset"):
        evaluate(fixture_landscape, demo_bundle, now=datetime(2026, 2, 1, 12))


def test_now_that_is_not_a_datetime_rejected(fixture_landscape, demo_bundle):
    with pytest.raises(InvalidTimestamp) as caught:
        evaluate(fixture_landscape, demo_bundle, now="2026")
    assert str(caught.value) == "invalid timestamp '2026': not a datetime"


def test_now_that_utc_cannot_hold_rejected(fixture_landscape, demo_bundle):
    # The report writes its time in UTC, which has no room for this one.
    now = datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
    with pytest.raises(InvalidTimestamp, match=r"^invalid timestamp '0001-01-01T00:00:00\+01:00': date value out of range$"):
        evaluate(fixture_landscape, demo_bundle, now=now)


def test_orphaned_evidence_reported(fixture_landscape, demo_bundle):
    orphan = record("orphan-1", "VR-GHOST", ReviewLog("d-train", 10, 10), "sha256:x")
    bundle = EvidenceBundle(demo_bundle.records + (orphan,), source="")
    report = evaluate(fixture_landscape, bundle)
    assert report.orphaned_evidence_ids == ("orphan-1",)


_PAYLOAD_FACTORIES = [
    lambda: MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
    lambda: MetricGap("miou", "ds-a", "ds-b", 0.05),
    lambda: PerCondition("miou", (Condition("one", "ds-a", 0.8), Condition("two", "ds-b", 0.8))),
    lambda: ReviewFraction("ds-a", 0.9),
    lambda: FlagResolutionPayload(),
    lambda: QualitativeApproval(2, ("doc-kind",)),
]


def FlagResolutionPayload():
    from laisc.model import FlagResolution

    return FlagResolution("clm_flags", "ds-a", 0.5)


def _random_record_payload(rng):
    choice = rng.randrange(6)
    if choice == 0:
        return MetricResult("miou", (rng.choice(("ds-a", "ds-b")),), rng.random())
    if choice == 1:
        return MetricResult("miou", ("ds-a", "ds-b"), rng.random(), "gap")
    if choice == 2:
        return ReviewLog("ds-a", rng.randint(0, 20), 0)
    if choice == 3:
        return FlagResolutionLog(
            "ds-a",
            flagged_ids=tuple(f"i{i}" for i in range(rng.randint(0, 3))),
            entries=tuple((f"i{i}", Resolution.EXCLUDED) for i in range(rng.randint(0, 3))),
        )
    if choice == 4:
        return ApprovalRecord(f"rev-{rng.randint(0, 3)}", "role", rng.choice((APPROVED, REJECTED)), "doc")
    return DocumentRecord("doc-kind", "ref")


def test_added_record_never_moves_satisfied_to_pending():
    rng = random.Random(53)
    for _ in range(300):
        landscape = single_vr_landscape(rng.choice(_PAYLOAD_FACTORIES)())
        fp = fingerprint(landscape)
        base_records = [
            record(f"r{i}", "v1", _random_record_payload(rng), fp if rng.random() < 0.8 else "sha256:old", minute=i)
            for i in range(rng.randint(0, 4))
        ]
        vr = landscape.vr("v1")
        before = evaluate_vr(vr, EvidenceBundle(tuple(base_records)), fp)
        extra = record(
            "r-extra", "v1", _random_record_payload(rng), fp if rng.random() < 0.8 else "sha256:old", minute=9
        )
        after = evaluate_vr(vr, EvidenceBundle(tuple(base_records + [extra])), fp)
        if before.status is Status.SATISFIED:
            assert after.status is not Status.PENDING, (before, extra, after)


def test_stale_records_never_outrank_fresh_ones():
    """A stale copy of a fresh record (new id, old fingerprint) never changes
    the verdict status, and no stale record flips Satisfied and Violated."""
    rng = random.Random(61)
    decided = {Status.SATISFIED, Status.VIOLATED}
    for _ in range(2000):
        landscape = single_vr_landscape(rng.choice(_PAYLOAD_FACTORIES)())
        fp = fingerprint(landscape)
        vr = landscape.vr("v1")
        base = [
            record(f"r{i}", "v1", _random_record_payload(rng), fp if rng.random() < 0.8 else "sha256:old", minute=i)
            for i in range(rng.randint(0, 4))
        ]
        before = evaluate_vr(vr, EvidenceBundle(tuple(base)), fp).status
        fresh = [r for r in base if r.landscape_fingerprint == fp]
        if fresh:
            copy = replace(rng.choice(fresh), id="r-copy", landscape_fingerprint="sha256:old")
            after = evaluate_vr(vr, EvidenceBundle(tuple(base + [copy])), fp).status
            assert after is before, (base, copy, after)
        extra = record("r-extra", "v1", _random_record_payload(rng), "sha256:old", minute=rng.randint(0, 9))
        after = evaluate_vr(vr, EvidenceBundle(tuple(base + [extra])), fp).status
        if before in decided and after in decided:
            assert after is before, (base, extra, after)


def _addressed_bundle(rng: random.Random, landscape) -> EvidenceBundle:
    """A random bundle addressed to the landscape's VRs and to two ghost
    VRs, mostly fresh and partly stale."""
    fp = fingerprint(landscape)
    targets = [vr.id for vr in landscape.vrs] + ["ghost-1", "ghost-2"]
    return EvidenceBundle(
        tuple(
            replace(r, vr_id=rng.choice(targets), landscape_fingerprint=rng.choice((fp, fp, "sha256:old")))
            for r in random_bundle(rng).records
        )
    )


def test_evaluate_agrees_with_evaluate_vr_on_random_landscapes():
    """One pass over a whole bundle gives each VR the verdict ``evaluate_vr``
    gives it alone, orphans exactly the records addressed to no VR, and
    reports NotApplicable exactly for VRs of concerns not relevant."""
    rng = random.Random(61)
    for _ in range(80):
        landscape = random_landscape(rng)
        fp = fingerprint(landscape)
        bundle = _addressed_bundle(rng, landscape)
        report = evaluate(landscape, bundle)
        for vr in landscape.vrs:
            assert report.vr_verdicts[vr.id] == evaluate_vr(vr, bundle, fp)
        assert report.orphaned_evidence_ids == tuple(
            sorted(r.id for r in bundle.records if r.vr_id.startswith("ghost-"))
        )
        verdicts = json.loads(render_json(report))["verdicts"]
        for vr in landscape.vrs:
            relevant = landscape.concern(landscape.goal(vr.goal_id).concern_id).relevant
            expected = report.vr_verdicts[vr.id].status if relevant else Status.NOT_APPLICABLE
            assert verdicts[vr.id]["effective_status"] == expected.value


def test_every_vr_gets_exactly_one_verdict(fixture_landscape, demo_bundle):
    report = evaluate(fixture_landscape, demo_bundle)
    assert set(report.vr_verdicts) == {vr.id for vr in fixture_landscape.vrs}


# --- a bundle judged once per landscape fingerprint ---------------------------------------

NOW = datetime(2026, 2, 1, tzinfo=timezone.utc)


def _unjudged(bundle: EvidenceBundle) -> EvidenceBundle:
    """A freshly parsed copy of ``bundle``, never evaluated."""
    return parse_evidence(serialize_evidence(bundle))


def _fresh_report(landscape, bundle, flt=None):
    """``evaluate`` on freshly parsed copies of both inputs."""
    return evaluate(parse_landscape(serialize_landscape(landscape)), _unjudged(bundle), flt=flt, now=NOW)


def test_reevaluating_one_bundle_equals_a_fresh_evaluation_under_every_filter(fixture_landscape, demo_bundle):
    rng = random.Random(71)
    cases = [(fixture_landscape, demo_bundle)]
    for _ in range(12):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.3)
        cases.append((landscape, _addressed_bundle(rng, landscape)))
    for landscape, bundle in cases:
        filters = (
            [Filter()]
            + [Filter(concern=concern.id) for concern in landscape.concerns]
            + [Filter(stage=stage.id) for stage in landscape.stages]
            + [Filter(component=component.id) for component in landscape.components]
            + [Filter(status=status.value) for status in Status]
        )
        for flt in filters:
            assert evaluate(landscape, bundle, flt=flt, now=NOW) == _fresh_report(landscape, bundle, flt), flt


def test_verdicts_follow_the_landscape_fingerprint(fixture_landscape, demo_bundle):
    vr = next(vr for vr in fixture_landscape.vrs if isinstance(vr.payload, MetricThreshold))
    edited_vr = replace(vr, payload=replace(vr.payload, threshold=vr.payload.threshold / 2))
    edited = replace(fixture_landscape, vrs=[edited_vr if v is vr else v for v in fixture_landscape.vrs])
    assert fingerprint(edited) != fingerprint(fixture_landscape)
    bundle = _unjudged(demo_bundle)
    reports = [evaluate(landscape, bundle, now=NOW) for landscape in (fixture_landscape, edited, fixture_landscape)]
    for landscape, report in zip((fixture_landscape, edited, fixture_landscape), reports):
        assert report == _fresh_report(landscape, bundle)
    # Under the edited fingerprint every record is stale.
    assert {verdict.status for verdict in reports[1].vr_verdicts.values()} == {Status.ERROR}
    assert reports[0].vr_verdicts != reports[1].vr_verdicts


def test_a_landscape_differing_only_in_relevance_gets_its_own_statuses(fixture_landscape, demo_bundle):
    concern = fixture_landscape.concerns[0]
    dropped = replace(concern, relevant=False, relevance_rationale="out of scope")
    irrelevant = replace(fixture_landscape, concerns=[dropped if c is concern else c for c in fixture_landscape.concerns])
    assert fingerprint(irrelevant) == fingerprint(fixture_landscape)
    bundle = _unjudged(demo_bundle)
    relevant_report = evaluate(fixture_landscape, bundle, now=NOW)
    report = evaluate(irrelevant, bundle, now=NOW)
    assert report == _fresh_report(irrelevant, bundle)
    assert report.vr_verdicts == relevant_report.vr_verdicts
    assert report.concern_rollups[concern.id].status is Status.NOT_APPLICABLE
    vr_ids = [vr_id for goal_id in concern.goal_ids for vr_id in irrelevant.goal(goal_id).vr_ids]
    assert vr_ids and {report.effective_statuses[vr_id] for vr_id in vr_ids} == {Status.NOT_APPLICABLE}
    assert relevant_report.concern_rollups[concern.id].status is Status.SATISFIED


def test_each_report_has_its_own_verdicts(fixture_landscape, demo_bundle):
    bundle = _unjudged(demo_bundle)
    first = evaluate(fixture_landscape, bundle, now=NOW)
    vr_id = fixture_landscape.vrs[0].id
    first.vr_verdicts[vr_id] = Verdict(Status.VIOLATED, "edited by a caller")
    del first.vr_verdicts[fixture_landscape.vrs[1].id]
    assert evaluate(fixture_landscape, bundle, now=NOW) == _fresh_report(fixture_landscape, bundle)


def test_bundle_equality_hash_and_replace_ignore_its_verdicts(fixture_landscape, demo_bundle):
    judged = _unjudged(demo_bundle)
    full = evaluate(fixture_landscape, judged, now=NOW)
    unjudged = _unjudged(demo_bundle)
    assert judged == unjudged and hash(judged) == hash(unjudged)
    shorter = replace(judged, records=judged.records[1:])
    report = evaluate(fixture_landscape, shorter, now=NOW)
    assert report == _fresh_report(fixture_landscape, shorter)
    assert report.vr_verdicts != full.vr_verdicts


# --- verdicts against an independent oracle ------------------------------------------------


def _audit_draw(rng: random.Random) -> tuple[Landscape, EvidenceBundle]:
    """A random landscape and a bundle for it, parsed from its bytes so that
    no verdict is kept on it: ``random_bundle``'s records of every kind and
    records that each VR reads or nearly reads, addressed mostly to their
    own VR, else to any VR or to a ghost; fresh or stale, at four distinct
    times so that times tie, in an order unlike that of their ids."""
    landscape = random_landscape(rng)
    current = fingerprint(landscape)
    targets = [vr.id for vr in landscape.vrs] + ["ghost"]
    addressed = [(rng.choice(targets), r.payload) for r in random_bundle(rng).records]
    for vr in landscape.vrs:
        for _ in range(rng.randint(0, 8)):
            vr_id = vr.id if rng.random() < 0.9 else rng.choice(targets)
            addressed.append((vr_id, random_fitting_payload(rng, vr.payload)))
    fingerprints = (current, current, "sha256:old")
    records = [
        record(f"rec-{index:04d}", vr_id, payload, rng.choice(fingerprints), minute=rng.randint(0, 3))
        for index, (vr_id, payload) in enumerate(addressed)
    ]
    rng.shuffle(records)
    return landscape, _unjudged(EvidenceBundle(tuple(records)))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_verdicts_agree_with_the_oracle(seed):
    landscape, bundle = _audit_draw(random.Random(seed))
    current = fingerprint(landscape)
    report = evaluate(landscape, bundle, now=NOW)
    for vr in landscape.vrs:
        verdict = report.vr_verdicts[vr.id]
        expected = verdict_oracle(vr.payload, [r for r in bundle.records if r.vr_id == vr.id], current)
        assert (verdict.status.value, verdict.evidence_ids) == expected, (vr, verdict)
    ghosts = sorted(r.id for r in bundle.records if r.vr_id == "ghost")
    assert report.orphaned_evidence_ids == tuple(ghosts)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_report_does_not_depend_on_record_order(seed):
    rng = random.Random(seed)
    landscape, bundle = _audit_draw(rng)
    shuffled = list(bundle.records)
    rng.shuffle(shuffled)
    reordered = _unjudged(EvidenceBundle(tuple(shuffled)))
    assert evaluate(landscape, bundle, now=NOW) == evaluate(landscape, reordered, now=NOW)


# --- every payload field is read ------------------------------------------------------------

#: VR payload fields that no verdict rule and no slot test reads.  The
#: test below fails for a field on this list that a rule starts to read,
#: so the list cannot go stale.
_UNREAD_FIELDS = {
    # Only ``metric clm`` reads it, to flag at it: a flag-resolution log
    # does not record the threshold it was made under (ROADMAP item 11).
    "FlagResolution.flag_threshold",
    # Nor does the log record the metric that flagged.
    "FlagResolution.metric_id",
    # A label: it names its condition in the explanation and in ``measured``.
    "PerCondition.conditions.condition_id",
}


def _field_paths(cls, prefix: str):
    """Every field path of the payload class ``cls``, nested conditions included."""
    for f in fields(cls):
        if f.name == "conditions":
            yield from _field_paths(Condition, f"{prefix}.conditions")
        else:
            yield f"{prefix}.{f.name}"


def _others(name: str, value, dataset_ids: frozenset[str]) -> list:
    """Other values that a landscape may give the payload field ``name``."""
    if isinstance(value, Enum):
        return [member for member in type(value) if member is not value]
    if name == "metric_id":
        return sorted(KNOWN_METRIC_IDS - {value})
    if name.startswith("dataset_id"):
        return sorted(dataset_ids - {value})
    if isinstance(value, float):
        return [bound for bound in (0.0, 1.0) if bound != value]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, tuple):  # required documents
        return [value + ("another-document",)] + ([value[1:]] if value else [])
    return [f"{value}-renamed"]  # a condition id


def _mutants(payload, dataset_ids: frozenset[str], prefix: str):
    """``(field path, payload with that one field changed)`` for each other value."""
    for f in fields(payload):
        value = getattr(payload, f.name)
        if f.name == "conditions":
            for index, condition in enumerate(value):
                for path, mutant in _mutants(condition, dataset_ids, f"{prefix}.conditions"):
                    yield path, replace(payload, conditions=value[:index] + (mutant,) + value[index + 1 :])
        else:
            for other in _others(f.name, value, dataset_ids):
                yield f"{prefix}.{f.name}", replace(payload, **{f.name: other})


def test_every_vr_payload_field_decides_a_verdict_or_a_read():
    """Changing a field to another valid value changes the VR's verdict
    status (its records held fresh under their own fingerprint) or whether
    the VR reads one of the bundle's records, on some VR of a generated
    landscape; else the field is on ``_UNREAD_FIELDS``."""
    land, evidence = generated_pair(3, 60)
    landscape, bundle = parse_landscape(land), parse_evidence(evidence)
    current, dataset_ids = fingerprint(landscape), landscape.dataset_ids()
    live: set[str] = set()
    for vr in landscape.vrs:
        status = evaluate_vr(vr, bundle, current).status
        read = [reads(vr.payload, r.payload) for r in bundle.records]
        for path, mutant in _mutants(vr.payload, dataset_ids, vr.kind):
            changed = replace(vr, payload=mutant)
            if path in live or _refused(landscape, changed):
                continue
            if (
                evaluate_vr(changed, bundle, current).status != status
                or [reads(mutant, r.payload) for r in bundle.records] != read
            ):
                live.add(path)
    every = {path for cls in get_args(VrPayload) for path in _field_paths(cls, cls.__name__)}
    assert _UNREAD_FIELDS <= every
    assert live == every - _UNREAD_FIELDS


def _refused(landscape: Landscape, vr: VerifiableRequirement) -> bool:
    """Whether ``landscape`` refuses ``vr`` in place of its VR of the same id."""
    try:
        replace(landscape, vrs=tuple(vr if other.id == vr.id else other for other in landscape.vrs))
    except LaiscError:
        return True
    return False
