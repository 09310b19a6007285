"""Binary evaluation of verifiable requirements against evidence.

Each VR gets exactly one :class:`Verdict`:

* ``Satisfied`` / ``Violated`` -- matching, non-stale evidence exists and
  the kind's rule passed / failed
* ``Pending``  -- required evidence is missing (entirely or in part)
* ``Error``    -- evidence exists for the VR but none of it can be used:
  stale fingerprint, mismatched kind or binding, or a degenerate input
  such as an empty review population

Whenever several records could fill the same slot, the most recent
non-stale one wins (ties broken by record id), so re-measuring after a
mitigation supersedes the old result.  Verdicts roll up with the
precedence Violated > Error > Pending > Satisfied: a proven failure is
never masked by missing data.  Concerns marked not relevant report
``NotApplicable`` and stay out of the failure counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum

from laisc.errors import UnknownFilterKey
from laisc.io import (
    ApprovalRecord,
    ApprovalVerdict,
    DocumentRecord,
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
    VerifiableRequirement,
    fingerprint,
    rows,
)


class Status(str, Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    PENDING = "Pending"
    ERROR = "Error"
    NOT_APPLICABLE = "NotApplicable"


#: Roll-up precedence: the leftmost status present wins.
_PRECEDENCE = (Status.VIOLATED, Status.ERROR, Status.PENDING, Status.SATISFIED)


@dataclass(frozen=True, slots=True)
class Verdict:
    status: Status
    explanation: str
    evidence_ids: tuple[str, ...] = ()
    measured: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence_ids", tuple(self.evidence_ids))
        object.__setattr__(self, "measured", tuple(self.measured))


@dataclass(frozen=True, slots=True)
class Rollup:
    status: Status
    note: str


class GapKind(str, Enum):
    CONCERN_WITHOUT_GOAL = "ConcernWithoutGoal"
    GOAL_WITHOUT_VR = "GoalWithoutVR"
    VR_WITHOUT_MM = "VRWithoutMM"
    MM_WITHOUT_STAGE = "MMWithoutStage"


@dataclass(frozen=True, slots=True)
class CoverageGap:
    kind: GapKind
    subject_id: str


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    landscape: Landscape
    landscape_fingerprint: str
    generated_at: datetime
    filter: Filter
    rows: tuple[LandscapeRow, ...]
    vr_verdicts: dict[str, Verdict]
    goal_rollups: dict[str, Rollup]
    concern_rollups: dict[str, Rollup]
    coverage_gaps: tuple[CoverageGap, ...]
    orphaned_evidence_ids: tuple[str, ...]

    def effective_status(self, vr_id: str) -> Status:
        """Verdict status, overridden to NotApplicable for VRs whose
        concern was filtered out as not relevant."""
        vr = self.landscape.vr(vr_id)
        concern = self.landscape.concern(self.landscape.goal(vr.goal_id).concern_id)
        if not concern.relevant:
            return Status.NOT_APPLICABLE
        return self.vr_verdicts[vr_id].status

    def visible_vr_ids(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.rows:
            if row.vr_id not in seen:
                seen.append(row.vr_id)
        return tuple(seen)

    def status_counts(self) -> dict[Status, int]:
        counts = {status: 0 for status in Status}
        for vr_id in self.visible_vr_ids():
            counts[self.effective_status(vr_id)] += 1
        return counts

    def worst_status(self) -> Status:
        statuses = {self.effective_status(vr_id) for vr_id in self.visible_vr_ids()}
        for status in _PRECEDENCE:
            if status in statuses:
                return status
        return Status.SATISFIED


# --- record selection helpers ---------------------------------------------------


def _pick(records: list[EvidenceRecord]) -> EvidenceRecord:
    """Most recent record; equal timestamps fall back to the greatest id."""
    return max(records, key=lambda r: (r.timestamp, r.id))


def _fmt_ids(records: list[EvidenceRecord]) -> str:
    return ", ".join(sorted(r.id for r in records))


def _unfillable(
    missing: list[str],
    stale_matching: list[EvidenceRecord],
    fresh_any: list[EvidenceRecord],
    stale_any: list[EvidenceRecord],
    any_slot_filled: bool,
) -> Verdict:
    """Shared resolution when one or more evidence slots cannot be filled."""
    if stale_matching:
        return Verdict(
            Status.ERROR,
            "stale evidence: record(s) predate the current VR definitions "
            f"({_fmt_ids(stale_matching)})",
            evidence_ids=tuple(sorted(r.id for r in stale_matching)),
        )
    if not any_slot_filled and (fresh_any or stale_any):
        return Verdict(
            Status.ERROR,
            "unusable evidence: records exist for this VR but none matches its "
            f"kind and dataset binding ({_fmt_ids(fresh_any + stale_any)})",
            evidence_ids=tuple(sorted(r.id for r in fresh_any + stale_any)),
        )
    return Verdict(Status.PENDING, "missing evidence: " + "; ".join(missing))


# --- per-kind evaluation ----------------------------------------------------------


def _is_gap_note(note: str) -> bool:
    """True when a result carries a precomputed two-dataset gap.

    The marker is the leading ``gap`` token of ``config_note``; further
    notes (e.g. sample-size warnings) may follow after a semicolon.
    """
    return note == "gap" or note.startswith("gap;")


def _single(record: EvidenceRecord, metric_id: str, dataset_id: str) -> bool:
    """True for a single-dataset ``metric_id`` measurement on exactly ``dataset_id``."""
    return (
        isinstance(record.payload, MetricResult)
        and record.payload.metric_id == metric_id
        and not _is_gap_note(record.payload.config_note)
        and record.payload.dataset_ids == (dataset_id,)
    )


def _eval_metric_threshold(vr, fresh, stale) -> Verdict:
    p: MetricThreshold = vr.payload
    candidates = [r for r in fresh if _single(r, p.metric_id, p.dataset_id)]
    if not candidates:
        return _unfillable(
            [f"no {p.metric_id} measurement on {p.dataset_id}"],
            [r for r in stale if _single(r, p.metric_id, p.dataset_id)],
            fresh,
            stale,
            any_slot_filled=False,
        )
    winner = _pick(candidates)
    value = winner.payload.value
    ok = value >= p.threshold if p.comparator.value == "GE" else value <= p.threshold
    relation = ">=" if p.comparator.value == "GE" else "<="
    return Verdict(
        Status.SATISFIED if ok else Status.VIOLATED,
        f"{p.metric_id}({p.dataset_id}) = {value:g} {relation} {p.threshold:g} "
        f"{'holds' if ok else 'fails'}",
        evidence_ids=(winner.id,),
        measured=(("value", value), ("threshold", p.threshold)),
    )


def _eval_metric_gap(vr, fresh, stale) -> Verdict:
    p: MetricGap = vr.payload
    pair = {p.dataset_id_a, p.dataset_id_b}

    def gap_record(record: EvidenceRecord) -> bool:
        return (
            isinstance(record.payload, MetricResult)
            and record.payload.metric_id == p.metric_id
            and _is_gap_note(record.payload.config_note)
            and pair <= set(record.payload.dataset_ids)
        )

    gap_candidates = [r for r in fresh if gap_record(r)]
    if gap_candidates:
        # A precomputed two-dataset distance is the direct measurement and
        # takes precedence over recombining single-dataset values.
        winner = _pick(gap_candidates)
        gap = abs(winner.payload.value)
        ok = gap <= p.epsilon
        return Verdict(
            Status.SATISFIED if ok else Status.VIOLATED,
            f"{p.metric_id} gap between {p.dataset_id_a} and {p.dataset_id_b} "
            f"= {gap:g} {'<=' if ok else '>'} epsilon {p.epsilon:g}",
            evidence_ids=(winner.id,),
            measured=(("gap", gap), ("epsilon", p.epsilon)),
        )

    side_a = [r for r in fresh if _single(r, p.metric_id, p.dataset_id_a)]
    side_b = [r for r in fresh if _single(r, p.metric_id, p.dataset_id_b)]
    if side_a and side_b:
        winner_a, winner_b = _pick(side_a), _pick(side_b)
        value_a, value_b = winner_a.payload.value, winner_b.payload.value
        gap = abs(value_a - value_b)
        ok = gap <= p.epsilon
        return Verdict(
            Status.SATISFIED if ok else Status.VIOLATED,
            f"|{p.metric_id}({p.dataset_id_a}) - {p.metric_id}({p.dataset_id_b})| "
            f"= |{value_a:g} - {value_b:g}| = {gap:g} {'<=' if ok else '>'} epsilon {p.epsilon:g}",
            evidence_ids=tuple(sorted((winner_a.id, winner_b.id))),
            measured=(
                ("epsilon", p.epsilon),
                ("gap", gap),
                ("value_a", value_a),
                ("value_b", value_b),
            ),
        )

    missing = [
        f"no {p.metric_id} measurement on {dataset_id}"
        for dataset_id, found in ((p.dataset_id_a, side_a), (p.dataset_id_b, side_b))
        if not found
    ]
    stale_matching = [
        r
        for r in stale
        if gap_record(r) or _single(r, p.metric_id, p.dataset_id_a) or _single(r, p.metric_id, p.dataset_id_b)
    ]
    return _unfillable(missing, stale_matching, fresh, stale, any_slot_filled=bool(side_a or side_b))


def _eval_per_condition(vr, fresh, stale) -> Verdict:
    p: PerCondition = vr.payload
    failing: list[str] = []
    missing: list[str] = []
    used: list[str] = []
    measured: list[tuple[str, float]] = []
    stale_matching: list[EvidenceRecord] = []
    for condition in p.conditions:
        candidates = [r for r in fresh if _single(r, p.metric_id, condition.dataset_id)]
        if not candidates:
            missing.append(condition.condition_id)
            stale_matching.extend(r for r in stale if _single(r, p.metric_id, condition.dataset_id))
            continue
        winner = _pick(candidates)
        used.append(winner.id)
        measured.append((condition.condition_id, winner.payload.value))
        if winner.payload.value < condition.threshold:
            failing.append(condition.condition_id)

    if failing:
        # A measured failure outranks incomplete coverage.
        return Verdict(
            Status.VIOLATED,
            f"conditions below threshold: {', '.join(failing)}"
            + (f"; not yet measured: {', '.join(missing)}" if missing else ""),
            evidence_ids=tuple(sorted(used)),
            measured=tuple(measured),
        )
    if missing:
        if stale_matching or not used:
            return _unfillable(
                [f"conditions not measured: {', '.join(missing)}"],
                stale_matching,
                fresh,
                stale,
                any_slot_filled=bool(used),
            )
        return Verdict(
            Status.PENDING,
            f"conditions not yet measured: {', '.join(missing)}",
            evidence_ids=tuple(sorted(used)),
            measured=tuple(measured),
        )
    return Verdict(
        Status.SATISFIED,
        f"all {len(p.conditions)} conditions meet their thresholds",
        evidence_ids=tuple(sorted(used)),
        measured=tuple(measured),
    )


def _eval_review_fraction(vr, fresh, stale) -> Verdict:
    p: ReviewFraction = vr.payload

    def matches(record: EvidenceRecord) -> bool:
        return isinstance(record.payload, ReviewLog) and record.payload.dataset_id == p.dataset_id

    candidates = [r for r in fresh if matches(r)]
    if not candidates:
        return _unfillable(
            [f"no review log for {p.dataset_id}"],
            [r for r in stale if matches(r)],
            fresh,
            stale,
            any_slot_filled=False,
        )
    winner = _pick(candidates)
    log: ReviewLog = winner.payload
    if log.total_items == 0:
        return Verdict(
            Status.ERROR,
            f"empty dataset: review log for {p.dataset_id} covers 0 items",
            evidence_ids=(winner.id,),
        )
    ratio = log.reviewed_items / log.total_items
    ok = ratio >= p.min_fraction
    return Verdict(
        Status.SATISFIED if ok else Status.VIOLATED,
        f"{log.reviewed_items}/{log.total_items} items reviewed "
        f"({ratio:.4g} {'>=' if ok else '<'} required {p.min_fraction:g})",
        evidence_ids=(winner.id,),
        measured=(("min_fraction", p.min_fraction), ("reviewed_fraction", ratio)),
    )


def _eval_flag_resolution(vr, fresh, stale) -> Verdict:
    p: FlagResolution = vr.payload

    def matches(record: EvidenceRecord) -> bool:
        return (
            isinstance(record.payload, FlagResolutionLog)
            and record.payload.dataset_id == p.dataset_id
        )

    candidates = [r for r in fresh if matches(r)]
    if not candidates:
        stale_matching = [r for r in stale if matches(r)]
        if stale_matching:
            return _unfillable([], stale_matching, fresh, stale, any_slot_filled=False)
        # Companion records (e.g. the flagging metric's own result) are
        # expected alongside this VR, so their presence is not an error.
        return Verdict(Status.PENDING, f"no flag-resolution log for {p.dataset_id}")
    winner = _pick(candidates)
    log: FlagResolutionLog = winner.payload
    resolved = {entry.instance_id for entry in log.entries}
    unresolved = sorted(set(log.flagged_ids) - resolved)
    if unresolved:
        return Verdict(
            Status.VIOLATED,
            f"flagged instances without resolution: {', '.join(unresolved)}",
            evidence_ids=(winner.id,),
            measured=(("flagged", float(len(log.flagged_ids))), ("unresolved", float(len(unresolved)))),
        )
    return Verdict(
        Status.SATISFIED,
        f"all {len(log.flagged_ids)} flagged instances excluded or revised",
        evidence_ids=(winner.id,),
        measured=(("flagged", float(len(log.flagged_ids))), ("unresolved", 0.0)),
    )


def _eval_qualitative_approval(vr, fresh, stale) -> Verdict:
    p: QualitativeApproval = vr.payload
    approvals = [r for r in fresh if isinstance(r.payload, ApprovalRecord)]
    documents = [r for r in fresh if isinstance(r.payload, DocumentRecord)]
    if not approvals and not documents:
        return _unfillable(
            [f"no approval records (need {p.required_approvals})"],
            [r for r in stale if isinstance(r.payload, (ApprovalRecord, DocumentRecord))],
            fresh,
            stale,
            any_slot_filled=False,
        )

    rejections = [r for r in approvals if r.payload.verdict is ApprovalVerdict.REJECTED]
    if rejections:
        rejectors = sorted({r.payload.approver_id for r in rejections})
        return Verdict(
            Status.VIOLATED,
            f"rejected by {', '.join(rejectors)}",
            evidence_ids=tuple(sorted(r.id for r in rejections)),
        )

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
    contributing = tuple(sorted(r.id for r in approvals + documents))
    if shortfalls:
        return Verdict(Status.PENDING, "; ".join(shortfalls), evidence_ids=contributing)
    return Verdict(
        Status.SATISFIED,
        f"approved by {len(approvers)} independent expert(s): {', '.join(approvers)}"
        + (f"; documents present: {', '.join(sorted(p.required_documents))}" if p.required_documents else ""),
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
    if not records:
        return Verdict(Status.PENDING, "no evidence recorded for this VR")
    fresh = [r for r in records if r.landscape_fingerprint == landscape_fingerprint]
    stale = [r for r in records if r.landscape_fingerprint != landscape_fingerprint]
    return _EVALUATORS[type(vr.payload)](vr, fresh, stale)


# --- roll-ups ----------------------------------------------------------------------


def _aggregate(statuses: list[Status], empty_note: str) -> Rollup:
    if not statuses:
        return Rollup(Status.PENDING, empty_note)
    counts = {status: statuses.count(status) for status in _PRECEDENCE}
    note = ", ".join(f"{counts[s]} {s.value.lower()}" for s in _PRECEDENCE if counts[s])
    for status in _PRECEDENCE:
        if counts[status]:
            return Rollup(status, note)
    return Rollup(Status.SATISFIED, note)  # pragma: no cover


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
    stageless_measures: list[str] = []
    for concern in sorted(landscape.concerns, key=lambda c: c.id):
        if not concern.relevant:
            continue
        if not concern.goal_ids:
            gaps.append(CoverageGap(GapKind.CONCERN_WITHOUT_GOAL, concern.id))
            continue
        for goal_id in sorted(concern.goal_ids):
            goal = landscape.goal(goal_id)
            if not goal.vr_ids:
                gaps.append(CoverageGap(GapKind.GOAL_WITHOUT_VR, goal.id))
                continue
            for vr_id in sorted(goal.vr_ids):
                vr = landscape.vr(vr_id)
                if not vr.mm_ids:
                    gaps.append(CoverageGap(GapKind.VR_WITHOUT_MM, vr.id))
                    continue
                for mm_id in sorted(vr.mm_ids):
                    if landscape.mitigation_measure(mm_id).stage_id is None:
                        if mm_id not in stageless_measures:
                            stageless_measures.append(mm_id)
    gaps.extend(CoverageGap(GapKind.MM_WITHOUT_STAGE, mm_id) for mm_id in sorted(stageless_measures))
    return gaps


# --- filters -------------------------------------------------------------------------


def _resolve_key(landscape: Landscape, key: str, value: str, items) -> str:
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
        concern = _resolve_key(landscape, "concern", flt.concern, landscape.concerns)
    if flt.stage is not None:
        stage = _resolve_key(landscape, "stage", flt.stage, landscape.stages)
    if flt.component is not None:
        component = _resolve_key(landscape, "component", flt.component, landscape.components)
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


def evaluate(
    landscape: Landscape,
    bundle: EvidenceBundle,
    *,
    flt: Filter | None = None,
    now: datetime | None = None,
) -> EvaluationReport:
    """Evaluate every VR, roll up, and assemble the deterministic report.

    The result is independent of record order in the bundle; two
    evaluations of the same inputs with the same ``now`` are equal.
    """
    flt = flt or Filter()
    current = fingerprint(landscape)
    vr_verdicts = {vr.id: evaluate_vr(vr, bundle, current) for vr in landscape.vrs}
    goal_rollups, concern_rollups = rollup(landscape, vr_verdicts)

    effective: dict[str, Status] = {}
    for vr in landscape.vrs:
        concern = landscape.concern(landscape.goal(vr.goal_id).concern_id)
        effective[vr.id] = (
            Status.NOT_APPLICABLE if not concern.relevant else vr_verdicts[vr.id].status
        )

    resolved = resolve_filter(landscape, flt)
    visible_rows = apply_filter(landscape, resolved, effective)
    known_vrs = {vr.id for vr in landscape.vrs}
    orphaned = tuple(sorted(r.id for r in bundle.records if r.vr_id not in known_vrs))

    return EvaluationReport(
        landscape=landscape,
        landscape_fingerprint=current,
        generated_at=now or datetime.now(timezone.utc),
        filter=resolved,
        rows=tuple(visible_rows),
        vr_verdicts=vr_verdicts,
        goal_rollups=goal_rollups,
        concern_rollups=concern_rollups,
        coverage_gaps=tuple(coverage(landscape)),
        orphaned_evidence_ids=orphaned,
    )
