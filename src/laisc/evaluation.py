"""Binary evaluation of verifiable requirements against evidence.

Each VR gets exactly one :class:`Verdict`:

* ``Satisfied`` / ``Violated`` -- matching, non-stale evidence exists and
  the kind's rule passed / failed
* ``Pending``  -- required evidence is missing (entirely or in part)
* ``Error``    -- evidence exists for the VR but none of it can be used:
  stale fingerprint, mismatched kind or binding, or a degenerate input
  such as an empty review population

A record is fresh when its landscape fingerprint matches the current
one, stale otherwise.  :func:`laisc.model.slots` states once which
records each kind reads, as one key per slot; :func:`_key` gives the one
key a record's payload can fill, and :func:`reads` asks whether it is a
key of the VR.  :func:`_fill` decides every kind's slots, once per VR,
in :func:`_evaluate_records`: the most recent fresh record of a slot's
key wins it (ties broken by record id), so re-measuring after a
mitigation supersedes the old result, and QualitativeApproval counts
every fresh record of its two slots.  A stale record never outranks a
fresh one in its slot; it makes the verdict ``Error`` only when its slot
has no fresh record.  A VR with no slot filled is judged there too, so
the evaluators run only on filled slots.
Verdicts roll up with the precedence Violated > Error > Pending >
Satisfied: a proven failure is never masked by missing data.  Concerns
marked not relevant report ``NotApplicable`` and stay out of the failure
counts.
"""

from __future__ import annotations

from collections.abc import Iterable
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter

from laisc.codec import check_aware, gc_paused, is_number, record
from laisc.errors import UnknownFilterKey
from laisc.io import (
    ApprovalVerdict,
    EvidenceBundle,
    EvidenceRecord,
    FlagResolutionLog,
    MetricResult,
    ReviewLog,
)
from laisc.model import (
    FlagResolution,
    Landscape,
    LandscapeRow,
    MetricGap,
    MetricThreshold,
    PerCondition,
    QualitativeApproval,
    ReviewFraction,
    SlotKey,
    VerifiableRequirement,
    VrPayload,
    fingerprint,
    rows,
    slots,
)


class Status(str, Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    PENDING = "Pending"
    ERROR = "Error"
    NOT_APPLICABLE = "NotApplicable"


#: Roll-up precedence: the leftmost status present wins.
_PRECEDENCE = (Status.VIOLATED, Status.ERROR, Status.PENDING, Status.SATISFIED)


def _worst(statuses) -> Status:
    """The leftmost status of ``_PRECEDENCE`` in ``statuses``; Satisfied
    when none is (every status NotApplicable, or none at all)."""
    return next((s for s in _PRECEDENCE if s in statuses), Status.SATISFIED)


@record
class Verdict:
    """A VR's status, why, the records it rests on and the values measured."""

    status: Status
    explanation: str
    evidence_ids: tuple[str, ...] = ()
    measured: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence_ids", tuple(self.evidence_ids))
        object.__setattr__(self, "measured", tuple(self.measured))


@record
class Rollup:
    """The status of a goal or concern rolled up from its VRs, with a note saying why."""

    status: Status
    note: str


class GapKind(str, Enum):
    CONCERN_WITHOUT_GOAL = "ConcernWithoutGoal"
    GOAL_WITHOUT_VR = "GoalWithoutVR"
    VR_WITHOUT_MM = "VRWithoutMM"
    MM_WITHOUT_STAGE = "MMWithoutStage"


@record
class CoverageGap:
    """A missing decomposition link: ``subject_id`` lacks what ``kind`` names."""

    kind: GapKind
    subject_id: str


@record
class Filter:
    """Conjunctive row filter; every field is optional and the empty
    filter is the identity.  Keys match element ids first, then unique
    display names."""

    concern: str | None = None
    stage: str | None = None
    component: str | None = None
    status: str | None = None

    def describe(self) -> str:
        parts = [
            f"{key}={value}"
            for key, value in (
                ("concern", self.concern),
                ("stage", self.stage),
                ("component", self.component),
                ("status", self.status),
            )
            if value is not None
        ]
        return ", ".join(parts) if parts else "(none)"


@record
class EvaluationReport:
    """Everything a renderer emits, decided once by :func:`evaluate`.

    ``effective_statuses`` holds every VR's reported status: its verdict
    status, or ``NotApplicable`` when its concern is not relevant.
    """

    landscape: Landscape
    generated_at: datetime
    filter: Filter
    rows: tuple[LandscapeRow, ...]
    vr_verdicts: dict[str, Verdict]
    effective_statuses: dict[str, Status]
    goal_rollups: dict[str, Rollup]
    concern_rollups: dict[str, Rollup]
    coverage_gaps: tuple[CoverageGap, ...]
    orphaned_evidence_ids: tuple[str, ...]

    def visible_vr_ids(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(row.vr_id for row in self.rows))

    def status_counts(self) -> dict[Status, int]:
        counts = {status: 0 for status in Status}
        for vr_id in self.visible_vr_ids():
            counts[self.effective_statuses[vr_id]] += 1
        return counts

    def worst_status(self) -> Status:
        return _worst({self.effective_statuses[vr_id] for vr_id in self.visible_vr_ids()})


# --- evidence slots ----------------------------------------------------------------


_recency = attrgetter("timestamp", "id")


def _key(evidence) -> SlotKey:
    """The one slot key that the record payload ``evidence`` can fill.  A
    result is a precomputed gap when the first ``;``-separated token of its
    ``config_note`` is ``gap``; further notes (e.g. sample-size warnings)
    may follow."""
    kind = type(evidence).__name__
    if isinstance(evidence, MetricResult):
        if evidence.config_note.partition(";")[0] == "gap":
            return kind, tuple(sorted(evidence.dataset_ids)), evidence.metric_id, True
        return kind, evidence.dataset_ids, evidence.metric_id, False
    if isinstance(evidence, (ReviewLog, FlagResolutionLog)):
        return kind, (evidence.dataset_id,)
    return kind, ()


def reads(payload: VrPayload, evidence) -> bool:
    """True when a VR with ``payload`` reads a record whose payload is
    ``evidence``: its key is the key of some slot of the VR."""
    return _key(evidence) in slots(payload).values()


def _fill(
    keys: dict[str, SlotKey], fresh: list[EvidenceRecord], stale: list[EvidenceRecord]
) -> tuple[dict[str, list[EvidenceRecord]], list[EvidenceRecord]]:
    """Decide the evidence slots ``keys`` (label -> key) of one VR; return
    ``(matched, stale_matching)``.

    ``matched`` maps each filled label to the fresh records of its key in
    recency order, so the last one wins (ties go to the greatest record
    id).  ``stale_matching`` holds the stale records whose key is that of
    a slot no fresh record fills: a filled slot supersedes its stale ones.
    """
    by_key: dict[SlotKey, list[EvidenceRecord]] = {}
    for record in sorted(fresh, key=_recency):
        by_key.setdefault(_key(record.payload), []).append(record)
    matched = {label: by_key[key] for label, key in keys.items() if key in by_key}
    open_keys = {key for label, key in keys.items() if label not in matched}
    return matched, [r for r in stale if _key(r.payload) in open_keys]


def _ids(records: Iterable[EvidenceRecord]) -> tuple[str, ...]:
    """Sorted ids, each once: one record may fill several slots."""
    return tuple(sorted({r.id for r in records}))


def _stale(stale_matching: list[EvidenceRecord]) -> Verdict:
    """The verdict when stale records match a slot that no fresh one fills."""
    ids = _ids(stale_matching)
    return Verdict(
        Status.ERROR,
        f"stale evidence: record(s) predate the current VR definitions ({', '.join(ids)})",
        evidence_ids=ids,
    )


def _judge(ok: bool, explanation: str, evidence_ids, measured=()) -> Verdict:
    """The verdict of a rule that ran: Satisfied when it held, else Violated."""
    return Verdict(Status.SATISFIED if ok else Status.VIOLATED, explanation, evidence_ids, measured)


# --- per-kind evaluation, once some slot is filled: _fill's output -> Verdict ------


def _eval_metric_threshold(p: MetricThreshold, matched, stale_matching) -> Verdict:
    winner = matched["value"][-1]
    value = winner.payload.value
    ok = value >= p.threshold if p.comparator.value == "GE" else value <= p.threshold
    relation = ">=" if p.comparator.value == "GE" else "<="
    return _judge(
        ok,
        f"{p.metric_id}({p.dataset_id}) = {value:g} {relation} {p.threshold:g} "
        f"{'holds' if ok else 'fails'}",
        (winner.id,),
        (("value", value), ("threshold", p.threshold)),
    )


def _eval_metric_gap(p: MetricGap, matched, stale_matching) -> Verdict:
    # A precomputed two-dataset distance is the direct measurement and
    # takes precedence over recombining single-dataset values.
    if "gap" in matched:
        winner = matched["gap"][-1]
        gap = abs(winner.payload.value)
        ok = gap <= p.epsilon
        return _judge(
            ok,
            f"{p.metric_id} gap between {p.dataset_id_a} and {p.dataset_id_b} "
            f"= {gap:g} {'<=' if ok else '>'} epsilon {p.epsilon:g}",
            (winner.id,),
            (("gap", gap), ("epsilon", p.epsilon)),
        )

    # One slot per side, "a" and "b".
    if "a" in matched and "b" in matched:
        won_a, won_b = matched["a"][-1], matched["b"][-1]
        value_a, value_b = won_a.payload.value, won_b.payload.value
        gap = abs(value_a - value_b)
        ok = gap <= p.epsilon
        shown_gap = (("gap", gap),) if is_number(gap) else ()  # JSON has no inf, the gap of 1e308 and -1e308
        return _judge(
            ok,
            f"|{p.metric_id}({p.dataset_id_a}) - {p.metric_id}({p.dataset_id_b})| "
            f"= |{value_a:g} - {value_b:g}| = {gap:g} {'<=' if ok else '>'} epsilon {p.epsilon:g}",
            _ids((won_a, won_b)),
            (("epsilon", p.epsilon), *shown_gap, ("value_a", value_a), ("value_b", value_b)),
        )

    if stale_matching:
        return _stale(stale_matching)
    missing = [
        f"no {p.metric_id} measurement on {dataset_id}"
        for label, dataset_id in (("a", p.dataset_id_a), ("b", p.dataset_id_b))
        if label not in matched
    ]
    return Verdict(Status.PENDING, "missing evidence: " + "; ".join(missing))


def _eval_per_condition(p: PerCondition, matched, stale_matching) -> Verdict:
    failing: list[str] = []
    missing: list[str] = []
    measured: list[tuple[str, float]] = []
    for condition in p.conditions:
        if condition.condition_id not in matched:
            missing.append(condition.condition_id)
            continue
        value = matched[condition.condition_id][-1].payload.value
        measured.append((condition.condition_id, value))
        if value < condition.threshold:
            failing.append(condition.condition_id)
    used = _ids(matches[-1] for matches in matched.values())

    if failing:
        # A measured failure outranks incomplete coverage.
        return Verdict(
            Status.VIOLATED,
            f"conditions below threshold: {', '.join(failing)}"
            + (f"; not yet measured: {', '.join(missing)}" if missing else ""),
            evidence_ids=used,
            measured=measured,
        )
    if missing:
        if stale_matching:
            return _stale(stale_matching)
        return Verdict(
            Status.PENDING,
            f"conditions not yet measured: {', '.join(missing)}",
            evidence_ids=used,
            measured=measured,
        )
    return Verdict(
        Status.SATISFIED,
        f"all {len(p.conditions)} conditions meet their thresholds",
        evidence_ids=used,
        measured=measured,
    )


def _eval_review_fraction(p: ReviewFraction, matched, stale_matching) -> Verdict:
    winner = matched["log"][-1]
    log: ReviewLog = winner.payload
    if log.total_items == 0:
        return Verdict(
            Status.ERROR,
            f"empty dataset: review log for {p.dataset_id} covers 0 items",
            evidence_ids=(winner.id,),
        )
    ratio = log.reviewed_items / log.total_items
    ok = ratio >= p.min_fraction
    return _judge(
        ok,
        f"{log.reviewed_items}/{log.total_items} items reviewed "
        f"({ratio:.4g} {'>=' if ok else '<'} required {p.min_fraction:g})",
        (winner.id,),
        (("min_fraction", p.min_fraction), ("reviewed_fraction", ratio)),
    )


def _eval_flag_resolution(p: FlagResolution, matched, stale_matching) -> Verdict:
    winner = matched["log"][-1]
    log: FlagResolutionLog = winner.payload
    resolved = {entry.instance_id for entry in log.entries}
    unresolved = sorted(set(log.flagged_ids) - resolved)
    return _judge(
        not unresolved,
        f"flagged instances without resolution: {', '.join(unresolved)}"
        if unresolved
        else f"all {len(log.flagged_ids)} flagged instances excluded or revised",
        (winner.id,),
        (("flagged", float(len(log.flagged_ids))), ("unresolved", float(len(unresolved)))),
    )


def _eval_qualitative_approval(p: QualitativeApproval, matched, stale_matching) -> Verdict:
    # Every fresh approval and document counts, not only each slot's winner.
    approvals, documents = matched.get("approvals", []), matched.get("documents", [])
    rejections = [r for r in approvals if r.payload.verdict is ApprovalVerdict.REJECTED]
    if rejections:
        rejectors = sorted({r.payload.approver_id for r in rejections})
        return Verdict(Status.VIOLATED, f"rejected by {', '.join(rejectors)}", evidence_ids=_ids(rejections))

    # Independence is operationalized as distinct approver ids; anything
    # beyond that (organizational independence) is not checkable from data.
    approvers = sorted({r.payload.approver_id for r in approvals})
    present_kinds = {r.payload.document_kind for r in documents}
    missing_docs = sorted(set(p.required_documents) - present_kinds)
    shortfalls = []
    if len(approvers) < p.required_approvals:
        shortfalls.append(f"{len(approvers)} distinct approver(s) of {p.required_approvals} required")
    if missing_docs:
        shortfalls.append(f"missing document kind(s): {', '.join(missing_docs)}")
    contributing = _ids(approvals + documents)
    if shortfalls:
        return Verdict(Status.PENDING, "; ".join(shortfalls), evidence_ids=contributing)
    return Verdict(
        Status.SATISFIED,
        f"approved by {len(approvers)} independent expert(s): {', '.join(approvers)}"
        + (f"; documents present: {', '.join(p.required_documents)}" if p.required_documents else ""),
        evidence_ids=contributing,
    )


_EVALUATORS = {
    MetricThreshold: _eval_metric_threshold,
    MetricGap: _eval_metric_gap,
    PerCondition: _eval_per_condition,
    ReviewFraction: _eval_review_fraction,
    FlagResolution: _eval_flag_resolution,
    QualitativeApproval: _eval_qualitative_approval,
}


def evaluate_vr(
    vr: VerifiableRequirement, bundle: EvidenceBundle, landscape_fingerprint: str
) -> Verdict:
    """Evaluate one VR to a verdict; never raises, all failure modes are
    encoded in the verdict status."""
    records = [r for r in bundle.records if r.vr_id == vr.id]
    return _evaluate_records(vr, records, landscape_fingerprint)


def _evaluate_records(
    vr: VerifiableRequirement, records: list[EvidenceRecord], landscape_fingerprint: str
) -> Verdict:
    """:func:`evaluate_vr` on the records already addressed to ``vr``: the
    one place that fills a VR's slots and judges a VR with none filled."""
    if not records:
        return Verdict(Status.PENDING, "no evidence recorded for this VR")
    fresh = [r for r in records if r.landscape_fingerprint == landscape_fingerprint]
    stale = [r for r in records if r.landscape_fingerprint != landscape_fingerprint]
    p = vr.payload
    matched, stale_matching = _fill(slots(p), fresh, stale)
    if matched:
        return _EVALUATORS[type(p)](p, matched, stale_matching)
    if stale_matching:
        return _stale(stale_matching)
    if isinstance(p, FlagResolution):
        # Companion records (e.g. the flagging metric's own result) are
        # expected alongside this VR, so their presence is not an error.
        return Verdict(Status.PENDING, f"no flag-resolution log for {p.dataset_id}")
    ids = _ids(records)
    return Verdict(
        Status.ERROR,
        "unusable evidence: records exist for this VR but none matches its "
        f"kind and dataset binding ({', '.join(ids)})",
        evidence_ids=ids,
    )


# --- roll-ups ----------------------------------------------------------------------


def _aggregate(statuses: list[Status], empty_note: str) -> Rollup:
    if not statuses:
        return Rollup(Status.PENDING, empty_note)
    counts = {status: statuses.count(status) for status in _PRECEDENCE}
    note = ", ".join(f"{counts[s]} {s.value.lower()}" for s in _PRECEDENCE if counts[s])
    return Rollup(_worst(statuses), note)


def rollup(
    landscape: Landscape, vr_verdicts: dict[str, Verdict]
) -> tuple[dict[str, Rollup], dict[str, Rollup]]:
    """Aggregate VR verdicts to goal and concern statuses."""
    goal_rollups: dict[str, Rollup] = {}
    concern_rollups: dict[str, Rollup] = {}
    for concern in landscape.concerns:
        if not concern.relevant:
            note = f"not relevant: {concern.relevance_rationale}"
            concern_rollups[concern.id] = Rollup(Status.NOT_APPLICABLE, note)
            for goal_id in concern.goal_ids:
                goal_rollups[goal_id] = Rollup(Status.NOT_APPLICABLE, "concern not relevant")
            continue
        goal_statuses: list[Status] = []
        for goal_id in concern.goal_ids:
            goal = landscape.goal(goal_id)
            statuses = [vr_verdicts[vr_id].status for vr_id in goal.vr_ids]
            goal_rollups[goal_id] = _aggregate(statuses, "no VRs attached to this goal")
            goal_statuses.append(goal_rollups[goal_id].status)
        concern_rollups[concern.id] = _aggregate(goal_statuses, "no goals attached to this concern")
    return goal_rollups, concern_rollups


# --- coverage ------------------------------------------------------------------------


def coverage(landscape: Landscape) -> list[CoverageGap]:
    """Structural blind spots along every relevant concern's chain.

    A complete chain runs concern -> goal -> VR -> measure -> stage; any
    missing link in a relevant concern's chain is reported once.  Measures
    never referenced from a relevant chain are inert and not reported.
    """
    gaps: list[CoverageGap] = []
    stageless_measures: set[str] = set()
    for concern in landscape.concerns:
        if not concern.relevant:
            continue
        if not concern.goal_ids:
            gaps.append(CoverageGap(GapKind.CONCERN_WITHOUT_GOAL, concern.id))
            continue
        for goal_id in concern.goal_ids:
            goal = landscape.goal(goal_id)
            if not goal.vr_ids:
                gaps.append(CoverageGap(GapKind.GOAL_WITHOUT_VR, goal.id))
                continue
            for vr_id in goal.vr_ids:
                vr = landscape.vr(vr_id)
                if not vr.mm_ids:
                    gaps.append(CoverageGap(GapKind.VR_WITHOUT_MM, vr.id))
                    continue
                for mm_id in vr.mm_ids:
                    if landscape.mitigation_measure(mm_id).stage_id is None:
                        stageless_measures.add(mm_id)
    gaps.extend(CoverageGap(GapKind.MM_WITHOUT_STAGE, mm_id) for mm_id in sorted(stageless_measures))
    return gaps


# --- filters -------------------------------------------------------------------------


def _resolve_key(key: str, value: str, items) -> str:
    by_id = {item.id for item in items}
    if value in by_id:
        return value
    by_name = [item.id for item in items if getattr(item, "name", None) == value]
    if len(by_name) == 1:
        return by_name[0]
    raise UnknownFilterKey(key, value)


def resolve_filter(landscape: Landscape, flt: Filter) -> Filter:
    """Normalize filter values to element ids; raises on unknown keys."""
    concern = stage = component = status = None
    if flt.concern is not None:
        concern = _resolve_key("concern", flt.concern, landscape.concerns)
    if flt.stage is not None:
        stage = _resolve_key("stage", flt.stage, landscape.stages)
    if flt.component is not None:
        component = _resolve_key("component", flt.component, landscape.components)
    if flt.status is not None:
        match = next((s for s in Status if s.value.lower() == flt.status.lower()), None)
        if match is None:
            raise UnknownFilterKey("status", flt.status)
        status = match.value
    return Filter(concern=concern, stage=stage, component=component, status=status)


def apply_filter(
    landscape: Landscape,
    flt: Filter,
    vr_statuses: dict[str, Status] | None = None,
) -> list[LandscapeRow]:
    """Rows passing the filter, in canonical order.

    Filtering affects visibility only; it never changes a verdict.  The
    ``status`` key needs ``vr_statuses`` (from an evaluation) to resolve.
    """
    resolved = resolve_filter(landscape, flt)
    out = []
    for row in rows(landscape):
        if resolved.concern is not None and row.concern_id != resolved.concern:
            continue
        if resolved.stage is not None and row.stage_id != resolved.stage:
            continue
        if resolved.component is not None:
            concern = landscape.concern(row.concern_id)
            if resolved.component not in concern.component_ids:
                continue
        if resolved.status is not None:
            if vr_statuses is None or vr_statuses.get(row.vr_id) != Status(resolved.status):
                continue
        out.append(row)
    return out


# --- full evaluation -------------------------------------------------------------------


def _judge_bundle(
    landscape: Landscape, bundle: EvidenceBundle, current: str
) -> tuple[dict[str, Verdict], tuple[str, ...]]:
    """Every VR's verdict and the sorted ids of the orphaned records.

    Both depend only on the bundle and on each VR's id, kind and payload,
    which is what the fingerprint ``current`` hashes.  So the bundle keeps
    the last result with its fingerprint, and a landscape with the same
    fingerprint reuses it; callers copy the dict before handing it out.
    """
    memo = vars(bundle).get("_judged")
    if memo is not None and memo[0] == current:
        return memo[1]
    addressed: dict[str, list[EvidenceRecord]] = {vr.id: [] for vr in landscape.vrs}
    orphans: list[EvidenceRecord] = []
    for record in bundle.records:
        # A record addressed to no VR of this landscape is an orphan.
        addressed.get(record.vr_id, orphans).append(record)
    judged = (
        {vr.id: _evaluate_records(vr, addressed[vr.id], current) for vr in landscape.vrs},
        tuple(sorted(r.id for r in orphans)),
    )
    object.__setattr__(bundle, "_judged", (current, judged))
    return judged


@gc_paused()
def evaluate(
    landscape: Landscape,
    bundle: EvidenceBundle,
    *,
    flt: Filter | None = None,
    now: datetime | None = None,
) -> EvaluationReport:
    """Evaluate every VR, roll up, and assemble the deterministic report.

    The result is independent of record order in the bundle; two
    evaluations of the same inputs with the same ``now`` are equal.  A
    naive ``now`` is an ``InvalidTimestamp``.  Evaluating one bundle again
    under another filter, or against a landscape that differs only outside
    its fingerprint, reuses the bundle's verdicts; roll-ups, statuses,
    coverage and rows are derived from ``landscape`` on every call.
    """
    flt = flt or Filter()
    generated_at = datetime.now(timezone.utc) if now is None else check_aware(now)
    current = fingerprint(landscape)
    judged, orphan_ids = _judge_bundle(landscape, bundle, current)
    vr_verdicts = dict(judged)
    goal_rollups, concern_rollups = rollup(landscape, vr_verdicts)

    effective: dict[str, Status] = {}
    for vr in landscape.vrs:
        concern = landscape.concern(landscape.goal(vr.goal_id).concern_id)
        effective[vr.id] = (
            Status.NOT_APPLICABLE if not concern.relevant else vr_verdicts[vr.id].status
        )

    resolved = resolve_filter(landscape, flt)
    visible_rows = apply_filter(landscape, resolved, effective)

    return EvaluationReport(
        landscape=landscape,
        generated_at=generated_at,
        filter=resolved,
        rows=tuple(visible_rows),
        vr_verdicts=vr_verdicts,
        effective_statuses=effective,
        goal_rollups=goal_rollups,
        concern_rollups=concern_rollups,
        coverage_gaps=tuple(coverage(landscape)),
        orphaned_evidence_ids=orphan_ids,
    )
