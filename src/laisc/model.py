"""Domain model for a landscape of AI safety concerns.

A landscape ties together four kinds of elements: safety concerns, the
decomposition goals that make each concern arguable, the verifiable
requirements (VRs) that make each goal checkable against evidence, and the
metrics / mitigation measures that produce that evidence at a given life
cycle stage.  Everything here is immutable after construction; a
:class:`Landscape` stores its collections in canonical order and checks
its structure wherever it is made (a file, library code,
``dataclasses.replace``), so no landscape with a broken link exists.

VRs come in six closed kinds, one per evaluation pattern:

* ``MetricThreshold`` -- a metric value compared against a bound
* ``MetricGap``       -- the absolute difference of two measurements bounded
  by a tolerance
* ``PerCondition``    -- one threshold per named operating condition
* ``ReviewFraction``  -- a minimum fraction of items manually reviewed
* ``FlagResolution``  -- every automatically flagged item excluded or revised
* ``QualitativeApproval`` -- counted independent expert approvals plus
  required documents

A VR's kind is its payload's class name, the codec's ``kind`` key.
:func:`slots` states once which records a VR of each kind reads: each
evidence slot's key (:data:`SlotKey`) names an evidence kind, its datasets
and, for a metric result, the metric and whether it is a precomputed
gap.  Evaluation fills the slots, ``laisc metric`` refuses an append no
slot takes, and the structure check takes a VR's dataset bindings from
the keys.  The rest of a payload is checked by field: ``metric_id``
known, numbers and their bounds (``epsilon >= 0``, say) as
:func:`laisc.codec.number_fault` reads them from the fields; only the
rules no field states are checked per kind.

New measurable requirements are expressed by registering metric ids inside
the metric-bearing kinds, not by adding kinds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import field
from enum import Enum
from functools import cached_property
from operator import attrgetter, itemgetter

from laisc.codec import check_ids, check_text, number_fault, record, to_node
from laisc.errors import DanglingReference, DuplicateId, InvalidPayload

#: Closed registry of metric ids a landscape may reference.  The metrics
#: module provides the matching implementations.
KNOWN_METRIC_IDS = frozenset({"miou", "gap", "nap_distance", "clm_flags"})


class Comparator(str, Enum):
    GE = "GE"
    LE = "LE"


class Resolution(str, Enum):
    """Allowed outcomes for an automatically flagged instance."""

    EXCLUDED = "Excluded"
    REVISED = "Revised"


# --- element types ---------------------------------------------------------


@record
class LifecycleStage:
    """One phase of the AI life cycle; ``order`` is a 0-based rank."""

    id: str
    name: str
    order: int


@record
class SystemComponent:
    """A part of the AI-based system that a concern can affect."""

    id: str
    name: str
    description: str = ""


@record
class SafetyConcern:
    """An AI-specific issue that may negatively impact system safety.

    Concerns judged not relevant for the use case are kept in the model
    with a justification so the filtering decision stays auditable.
    """

    id: str
    name: str
    description: str = ""
    relevant: bool = True
    relevance_rationale: str = ""
    component_ids: tuple[str, ...] = ()
    goal_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Reference lists are sets semantically; stored sorted so equal
        # landscapes compare equal regardless of construction order.
        object.__setattr__(self, "component_ids", tuple(sorted(self.component_ids)))
        object.__setattr__(self, "goal_ids", tuple(sorted(self.goal_ids)))


@record
class Goal:
    """A concern decomposed far enough for requirements to attach."""

    id: str
    concern_id: str
    statement: str
    vr_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vr_ids", tuple(sorted(self.vr_ids)))


# --- VR payloads, one dataclass per kind ------------------------------------


@record
class MetricThreshold:
    """The metric on ``dataset_id`` must be ``GE`` or ``LE`` ``threshold``."""

    metric_id: str
    dataset_id: str
    comparator: Comparator
    threshold: float


@record
class MetricGap:
    """|value(dataset_a) - value(dataset_b)| must not exceed ``epsilon``."""

    metric_id: str
    dataset_id_a: str
    dataset_id_b: str
    epsilon: float = field(metadata={"min": 0})


@record
class Condition:
    """One operating condition of a :class:`PerCondition`: its dataset and threshold."""

    condition_id: str
    dataset_id: str
    threshold: float


@record
class PerCondition:
    """The metric must reach each condition's threshold on its dataset."""

    metric_id: str
    conditions: tuple[Condition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "conditions", tuple(sorted(self.conditions, key=lambda c: c.condition_id))
        )


@record
class ReviewFraction:
    """At least ``min_fraction`` of ``dataset_id``'s items must be reviewed by hand."""

    dataset_id: str
    min_fraction: float = field(metadata={"min": 0, "max": 1})


@record
class FlagResolution:
    """Instances scored below ``flag_threshold`` need an explicit resolution."""

    metric_id: str
    dataset_id: str
    flag_threshold: float = field(metadata={"min": 0, "max": 1})


@record
class QualitativeApproval:
    """``required_approvals`` independent expert approvals, plus one document
    of each ``required_documents`` kind."""

    required_approvals: int = field(metadata={"min": 1})
    required_documents: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "required_documents", tuple(sorted(self.required_documents)))


VrPayload = (
    MetricThreshold
    | MetricGap
    | PerCondition
    | ReviewFraction
    | FlagResolution
    | QualitativeApproval
)


#: What one evidence slot of a VR takes: ``(kind, dataset_ids)``, a record
#: payload of the evidence kind ``kind`` (its class name, the codec's
#: ``kind`` key) on exactly ``dataset_ids``.  A ``MetricResult`` key adds
#: the metric and whether the result is a precomputed gap; a gap's two ids
#: are sorted, for a gap is read in either order.
SlotKey = tuple


def slots(p: VrPayload) -> dict[str, SlotKey]:
    """The evidence slots of the VR payload ``p``, label -> key: the one
    statement of which records a VR of each kind reads.  MetricGap lists
    its sides ``a`` and ``b`` before ``gap``, so the keys name the bound
    datasets in field order."""
    if isinstance(p, MetricThreshold):
        return {"value": ("MetricResult", (p.dataset_id,), p.metric_id, False)}
    if isinstance(p, MetricGap):
        pair = tuple(sorted((p.dataset_id_a, p.dataset_id_b)))
        return {
            "a": ("MetricResult", (p.dataset_id_a,), p.metric_id, False),
            "b": ("MetricResult", (p.dataset_id_b,), p.metric_id, False),
            "gap": ("MetricResult", pair, p.metric_id, True),
        }
    if isinstance(p, PerCondition):
        return {c.condition_id: ("MetricResult", (c.dataset_id,), p.metric_id, False) for c in p.conditions}
    if isinstance(p, ReviewFraction):
        return {"log": ("ReviewLog", (p.dataset_id,))}
    if isinstance(p, FlagResolution):
        return {"log": ("FlagResolutionLog", (p.dataset_id,))}
    return {"approvals": ("ApprovalRecord", ()), "documents": ("DocumentRecord", ())}


@record
class VerifiableRequirement:
    """A requirement stated so that evidence yields a pass/fail verdict."""

    id: str
    goal_id: str
    payload: VrPayload
    stage_id: str
    mm_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mm_ids", tuple(sorted(self.mm_ids)))

    @property
    def kind(self) -> str:
        return type(self.payload).__name__


@record
class MitigationMeasure:
    """A method that quantifies or mitigates a concern, producing evidence.

    ``stage_id`` may be ``None`` while a landscape is being drafted; the
    coverage check reports such measures as blind spots.
    """

    id: str
    name: str
    description: str = ""
    stage_id: str | None = None


@record
class DatasetDescriptor:
    """Where a dataset bound by VRs lives, its format and its role."""

    path: str
    format: str
    role: str = ""


#: The collections of a :class:`Landscape` whose elements are keyed by id.
_COLLECTIONS = ("stages", "components", "concerns", "goals", "vrs", "mitigation_measures")


@record(slots=False)
class Landscape:
    """The concerns, goals, VRs and measures of one use case, with the
    life cycle stages, components and datasets they refer to."""

    name: str
    version: str = "1"
    stages: tuple[LifecycleStage, ...] = ()
    components: tuple[SystemComponent, ...] = ()
    concerns: tuple[SafetyConcern, ...] = ()
    goals: tuple[Goal, ...] = ()
    vrs: tuple[VerifiableRequirement, ...] = ()
    mitigation_measures: tuple[MitigationMeasure, ...] = ()
    datasets: tuple[tuple[str, DatasetDescriptor], ...] = ()

    def __post_init__(self) -> None:
        # Collections are stored in canonical order (stages by rank, the rest
        # by id) so construction order never leaks into equality or output.
        # ``datasets`` may also be given as a dict.
        object.__setattr__(self, "stages", tuple(sorted(self.stages, key=lambda s: (s.order, s.id))))
        object.__setattr__(self, "components", tuple(sorted(self.components, key=lambda c: c.id)))
        object.__setattr__(self, "concerns", tuple(sorted(self.concerns, key=lambda c: c.id)))
        object.__setattr__(self, "goals", tuple(sorted(self.goals, key=lambda g: g.id)))
        object.__setattr__(self, "vrs", tuple(sorted(self.vrs, key=lambda v: v.id)))
        object.__setattr__(self, "mitigation_measures", tuple(sorted(self.mitigation_measures, key=lambda m: m.id)))
        pairs = self.datasets.items() if isinstance(self.datasets, dict) else self.datasets
        object.__setattr__(self, "datasets", tuple(sorted(pairs, key=itemgetter(0))))
        _check_landscape(self)

    @cached_property
    def _by_id(self) -> dict[str, dict]:
        """One id -> element map per collection, built on first read;
        :func:`_check_landscape` checks that ids are unique before that."""
        return {
            collection: {item.id: item for item in getattr(self, collection)} for collection in _COLLECTIONS
        }

    @cached_property
    def _fingerprint(self) -> str:
        """:func:`fingerprint`, computed once."""
        content = [{"id": vr.id, "kind": vr.kind, "payload": to_node(vr.payload)} for vr in self.vrs]
        digest = hashlib.sha256(json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        return f"sha256:{digest.hexdigest()}"

    @cached_property
    def _rows(self) -> tuple[LandscapeRow, ...]:
        """:func:`rows`, built once; the sort reads each stage's rank from
        one dict."""
        rank = {stage.id: stage.order for stage in self.stages}
        out: list[LandscapeRow] = []
        for vr in self.vrs:
            goal = self.goal(vr.goal_id)
            concern = self.concern(goal.concern_id)
            stage = self.stage(vr.stage_id)
            for mm_id in vr.mm_ids or ("",):
                mm_name = self.mitigation_measure(mm_id).name if mm_id else ""
                out.append(
                    LandscapeRow(
                        concern_id=concern.id,
                        concern_name=concern.name,
                        stage_id=stage.id,
                        stage_name=stage.name,
                        goal_id=goal.id,
                        decomposition=f"{goal.statement} ({goal.id})",
                        vr_id=vr.id,
                        mm_id=mm_id,
                        mm_name=mm_name,
                    )
                )
        out.sort(key=lambda r: (r.concern_id, rank[r.stage_id], r.goal_id, r.vr_id, r.mm_id))
        return tuple(out)

    def stage(self, stage_id: str) -> LifecycleStage:
        return self._by_id["stages"][stage_id]

    def concern(self, concern_id: str) -> SafetyConcern:
        return self._by_id["concerns"][concern_id]

    def goal(self, goal_id: str) -> Goal:
        return self._by_id["goals"][goal_id]

    def vr(self, vr_id: str) -> VerifiableRequirement:
        return self._by_id["vrs"][vr_id]

    def mitigation_measure(self, mm_id: str) -> MitigationMeasure:
        return self._by_id["mitigation_measures"][mm_id]

    def dataset_ids(self) -> frozenset[str]:
        return frozenset(dataset_id for dataset_id, _ in self.datasets)


@record
class LandscapeRow:
    """One (VR, mitigation measure) pair flattened for tabular display.

    VRs without any measure contribute a single row with an empty measure
    cell, so nothing disappears from the table.
    """

    concern_id: str
    concern_name: str
    stage_id: str
    stage_name: str
    goal_id: str
    decomposition: str
    vr_id: str
    mm_id: str
    mm_name: str


# --- construction -----------------------------------------------------------


def _check_unique(ids, collection: str) -> None:
    seen: set[str] = set()
    for id_ in ids:
        if not id_:
            raise InvalidPayload(collection, "empty id")
        if id_ in seen:
            raise DuplicateId(id_, collection)
        seen.add(id_)


def _check_listed_once(ids, where: str) -> None:
    """Refuse an id that the sorted list ``ids`` names twice."""
    for first, second in zip(ids, ids[1:]):
        if first == second:
            raise DuplicateId(first, where)


def _check_payload(vr: VerifiableRequirement, dataset_ids: frozenset[str]) -> None:
    p = vr.payload

    for _, bound, *_ in slots(p).values():
        for dataset_id in bound:
            if dataset_id not in dataset_ids:
                raise DanglingReference(dataset_id, f"VR {vr.id} dataset binding")
    if hasattr(p, "metric_id") and p.metric_id not in KNOWN_METRIC_IDS:
        raise InvalidPayload(vr.id, f"unknown metric id {p.metric_id!r}")
    fault = number_fault(p)
    if fault:
        raise InvalidPayload(vr.id, fault)

    if isinstance(p, MetricGap) and p.dataset_id_a == p.dataset_id_b:
        raise InvalidPayload(vr.id, f"the gap needs two different datasets, got {p.dataset_id_a!r} twice")
    if isinstance(p, PerCondition):
        if not p.conditions:
            raise InvalidPayload(vr.id, "PerCondition needs at least one condition")
        seen: set[str] = set()
        for cond in p.conditions:
            if cond.condition_id in seen:
                raise InvalidPayload(vr.id, f"duplicate condition {cond.condition_id!r}")
            seen.add(cond.condition_id)
            fault = number_fault(cond)
            if fault:
                raise InvalidPayload(vr.id, f"condition {cond.condition_id!r}: {fault}")
    if isinstance(p, QualitativeApproval):
        documents = p.required_documents
        for first, second in zip(documents, documents[1:]):
            if first == second:
                raise InvalidPayload(vr.id, f"duplicate document kind {first!r}")


def _check_landscape(landscape: Landscape) -> None:
    """Check the structure of ``landscape``; ``Landscape.__post_init__``
    is the one caller.

    Raises :class:`DuplicateId`, :class:`DanglingReference`, or
    :class:`InvalidPayload` on the first structural violation found, after
    a :class:`SchemaError` at the JSON path of a field that
    :func:`~laisc.codec.check_text` finds or of a dataset id that
    :func:`~laisc.codec.check_ids` refuses.  Missing decomposition links (a
    concern without goals, a VR without measures, a measure without a
    stage) are allowed here; they surface through the coverage check
    instead.
    """
    check_text([landscape], ("$",).__getitem__)
    check_ids([key for key, _ in landscape.datasets], lambda _, key: f"$.datasets.{key}")
    for collection in _COLLECTIONS:
        _check_unique(map(attrgetter("id"), getattr(landscape, collection)), collection)
    _check_unique(map(itemgetter(0), landscape.datasets), "datasets")
    # The number and bool fields outside the VR payloads: a stage's order, a concern's relevance.
    for element in (*landscape.stages, *landscape.concerns):
        fault = number_fault(element)
        if fault:
            raise InvalidPayload(element.id, fault)

    orders = [stage.order for stage in landscape.stages]
    if orders != list(range(len(orders))):
        raise InvalidPayload("stages", f"order values must be 0..{len(orders) - 1} without gaps, got {orders}")

    by_id = landscape._by_id
    stage_ids, component_ids, mm_ids = by_id["stages"], by_id["components"], by_id["mitigation_measures"]
    concern_index, goal_index, vr_index = by_id["concerns"], by_id["goals"], by_id["vrs"]
    dataset_ids = landscape.dataset_ids()

    for concern in landscape.concerns:
        if not concern.relevant and not concern.relevance_rationale.strip():
            raise InvalidPayload(concern.id, "a concern marked not relevant needs a rationale")
        _check_listed_once(concern.component_ids, f"concern {concern.id} component_ids")
        _check_listed_once(concern.goal_ids, f"concern {concern.id} goal_ids")
        for component_id in concern.component_ids:
            if component_id not in component_ids:
                raise DanglingReference(component_id, f"concern {concern.id}")
        for goal_id in concern.goal_ids:
            if goal_id not in goal_index:
                raise DanglingReference(goal_id, f"concern {concern.id}")
            if goal_index[goal_id].concern_id != concern.id:
                raise InvalidPayload(
                    goal_id,
                    f"listed under concern {concern.id} but declares concern {goal_index[goal_id].concern_id}",
                )

    # Goals and VRs form a strict tree: each child has exactly one parent and
    # the parent's child list must agree with it.
    for goal in landscape.goals:
        if goal.concern_id not in concern_index:
            raise DanglingReference(goal.concern_id, f"goal {goal.id}")
        if goal.id not in concern_index[goal.concern_id].goal_ids:
            raise InvalidPayload(goal.id, f"not listed by its concern {goal.concern_id}")
        _check_listed_once(goal.vr_ids, f"goal {goal.id} vr_ids")
        for vr_id in goal.vr_ids:
            if vr_id not in vr_index:
                raise DanglingReference(vr_id, f"goal {goal.id}")
            if vr_index[vr_id].goal_id != goal.id:
                raise InvalidPayload(
                    vr_id, f"listed under goal {goal.id} but declares goal {vr_index[vr_id].goal_id}"
                )

    for vr in landscape.vrs:
        if vr.goal_id not in goal_index:
            raise DanglingReference(vr.goal_id, f"VR {vr.id}")
        if vr.id not in goal_index[vr.goal_id].vr_ids:
            raise InvalidPayload(vr.id, f"not listed by its goal {vr.goal_id}")
        if vr.stage_id not in stage_ids:
            raise DanglingReference(vr.stage_id, f"VR {vr.id}")
        _check_listed_once(vr.mm_ids, f"VR {vr.id} mm_ids")
        for mm_id in vr.mm_ids:
            if mm_id not in mm_ids:
                raise DanglingReference(mm_id, f"VR {vr.id}")
        _check_payload(vr, dataset_ids)

    for mm in landscape.mitigation_measures:
        if mm.stage_id is not None and mm.stage_id not in stage_ids:
            raise DanglingReference(mm.stage_id, f"mitigation measure {mm.id}")


# --- derived views -----------------------------------------------------------


def rows(landscape: Landscape) -> list[LandscapeRow]:
    """Flatten the landscape into its canonical row set, as a new list.

    Order is fixed: concern id, stage order, goal id, VR id, measure id.
    The decomposition cell carries the goal statement with the goal id
    appended so rows stay traceable without an extra column.  The rows
    are built on the first call and kept on the immutable landscape.
    """
    return list(landscape._rows)


def fingerprint(landscape: Landscape) -> str:
    """Content hash over everything that affects how evidence is judged.

    Covers VR ids, kinds, and payloads (thresholds, tolerances, dataset
    bindings, approval counts): the sha256 of the compact, key-sorted JSON
    list of ``{"id", "kind", "payload"}`` per VR in id order.  Display
    names, descriptions, and other prose are deliberately excluded so that
    cosmetic edits never mark previously collected evidence as stale.  The
    digest is computed on the first call and kept on the immutable
    landscape.
    """
    return landscape._fingerprint
