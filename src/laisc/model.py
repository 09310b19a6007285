"""Domain model for a landscape of AI safety concerns.

A landscape ties together four kinds of elements: safety concerns, the
decomposition goals that make each concern arguable, the verifiable
requirements (VRs) that make each goal checkable against evidence, and the
metrics / mitigation measures that produce that evidence at a given life
cycle stage.  Everything here is immutable after construction; a
:class:`Landscape` stores its collections in canonical order, and
:func:`check_landscape` is the single place that enforces the structural
invariants (:func:`build_landscape` calls it).

VRs come in six closed kinds, one per evaluation pattern:

* ``MetricThreshold`` -- a metric value compared against a bound
* ``MetricGap``       -- the absolute difference of two measurements bounded
  by a tolerance
* ``PerCondition``    -- one threshold per named operating condition
* ``ReviewFraction``  -- a minimum fraction of items manually reviewed
* ``FlagResolution``  -- every automatically flagged item excluded or revised
* ``QualitativeApproval`` -- counted independent expert approvals plus
  required documents

A VR's kind is its payload's class name, the codec's ``kind`` key.  The
payload's fields are checked by field: ``dataset_id*`` must be declared,
``metric_id`` known, numbers as :func:`laisc.codec.number_fault` says;
only the rules no annotation states are checked per kind.

New measurable requirements are expressed by registering metric ids inside
the metric-bearing kinds, not by adding kinds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cached_property

from laisc.codec import number_fault, to_node
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


@dataclass(frozen=True, slots=True)
class LifecycleStage:
    """One phase of the AI life cycle; ``order`` is a 0-based rank."""

    id: str
    name: str
    order: int


@dataclass(frozen=True, slots=True)
class SystemComponent:
    id: str
    name: str
    description: str = ""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Goal:
    """A concern decomposed far enough for requirements to attach."""

    id: str
    concern_id: str
    statement: str
    vr_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vr_ids", tuple(sorted(self.vr_ids)))


# --- VR payloads, one dataclass per kind ------------------------------------


@dataclass(frozen=True, slots=True)
class MetricThreshold:
    metric_id: str
    dataset_id: str
    comparator: Comparator
    threshold: float


@dataclass(frozen=True, slots=True)
class MetricGap:
    """|value(dataset_a) - value(dataset_b)| must not exceed ``epsilon``."""

    metric_id: str
    dataset_id_a: str
    dataset_id_b: str
    epsilon: float


@dataclass(frozen=True, slots=True)
class Condition:
    condition_id: str
    dataset_id: str
    threshold: float


@dataclass(frozen=True, slots=True)
class PerCondition:
    """The metric must reach each condition's threshold on its dataset."""

    metric_id: str
    conditions: tuple[Condition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "conditions", tuple(sorted(self.conditions, key=lambda c: c.condition_id))
        )


@dataclass(frozen=True, slots=True)
class ReviewFraction:
    dataset_id: str
    min_fraction: float


@dataclass(frozen=True, slots=True)
class FlagResolution:
    """Instances scored below ``flag_threshold`` need an explicit resolution."""

    metric_id: str
    dataset_id: str
    flag_threshold: float


@dataclass(frozen=True, slots=True)
class QualitativeApproval:
    required_approvals: int
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

@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class MitigationMeasure:
    """A method that quantifies or mitigates a concern, producing evidence.

    ``stage_id`` may be ``None`` while a landscape is being drafted; the
    coverage check reports such measures as blind spots.
    """

    id: str
    name: str
    description: str = ""
    stage_id: str | None = None


@dataclass(frozen=True, slots=True)
class DatasetDescriptor:
    path: str
    format: str
    role: str = ""


#: The collections of a :class:`Landscape` whose elements are keyed by id.
_COLLECTIONS = ("stages", "components", "concerns", "goals", "vrs", "mitigation_measures")


@dataclass(frozen=True)
class Landscape:
    name: str
    version: str
    stages: tuple[LifecycleStage, ...]
    components: tuple[SystemComponent, ...]
    concerns: tuple[SafetyConcern, ...]
    goals: tuple[Goal, ...]
    vrs: tuple[VerifiableRequirement, ...]
    mitigation_measures: tuple[MitigationMeasure, ...]
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
        object.__setattr__(self, "datasets", tuple(sorted(dict(self.datasets).items())))

    @cached_property
    def _by_id(self) -> dict[str, dict]:
        """One id -> element map per collection, built on first read;
        :func:`check_landscape` checks that ids are unique before that."""
        return {
            collection: {item.id: item for item in getattr(self, collection)} for collection in _COLLECTIONS
        }

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


@dataclass(frozen=True, slots=True)
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


def _check_unique(items, collection: str) -> None:
    seen: set[str] = set()
    for item in items:
        if not item.id:
            raise InvalidPayload(collection, "empty id")
        if item.id in seen:
            raise DuplicateId(item.id, collection)
        seen.add(item.id)


def bound_datasets(payload) -> tuple[str, ...]:
    """The dataset ids a VR payload binds, in field order: the value of
    every ``dataset_id*`` field, also of the nested :class:`Condition` rows."""
    bound: list[str] = []
    for f in fields(payload):
        value = getattr(payload, f.name)
        if f.name.startswith("dataset_id"):
            bound.append(value)
        elif isinstance(value, tuple):
            for item in value:
                if is_dataclass(item):
                    bound.extend(bound_datasets(item))
    return tuple(bound)


def _check_payload(vr: VerifiableRequirement, dataset_ids: frozenset[str]) -> None:
    p = vr.payload

    for dataset_id in bound_datasets(p):
        if dataset_id not in dataset_ids:
            raise DanglingReference(dataset_id, f"VR {vr.id} dataset binding")
    if hasattr(p, "metric_id") and p.metric_id not in KNOWN_METRIC_IDS:
        raise InvalidPayload(vr.id, f"unknown metric id {p.metric_id!r}")
    fault = number_fault(p)
    if fault:
        raise InvalidPayload(vr.id, fault)

    if isinstance(p, MetricGap):
        if p.dataset_id_a == p.dataset_id_b:
            raise InvalidPayload(vr.id, f"the gap needs two different datasets, got {p.dataset_id_a!r} twice")
        if p.epsilon < 0:
            raise InvalidPayload(vr.id, f"epsilon must be >= 0, got {p.epsilon!r}")
    elif isinstance(p, PerCondition):
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
    elif isinstance(p, ReviewFraction):
        if not 0.0 <= p.min_fraction <= 1.0:
            raise InvalidPayload(vr.id, f"min_fraction must be in [0, 1], got {p.min_fraction!r}")
    elif isinstance(p, QualitativeApproval):
        if p.required_approvals < 1:
            raise InvalidPayload(vr.id, f"required_approvals must be >= 1, got {p.required_approvals}")


def build_landscape(
    *,
    name: str,
    version: str = "1",
    stages: tuple[LifecycleStage, ...] | list[LifecycleStage] = (),
    components: tuple[SystemComponent, ...] | list[SystemComponent] = (),
    concerns: tuple[SafetyConcern, ...] | list[SafetyConcern] = (),
    goals: tuple[Goal, ...] | list[Goal] = (),
    vrs: tuple[VerifiableRequirement, ...] | list[VerifiableRequirement] = (),
    mitigation_measures: tuple[MitigationMeasure, ...] | list[MitigationMeasure] = (),
    datasets: dict[str, DatasetDescriptor] | tuple[tuple[str, DatasetDescriptor], ...] | None = None,
) -> Landscape:
    """Assemble a landscape from already-typed elements and check it with
    :func:`check_landscape`."""
    return check_landscape(
        Landscape(name, version, stages, components, concerns, goals, vrs, mitigation_measures, datasets or ())
    )


def check_landscape(landscape: Landscape) -> Landscape:
    """Return ``landscape`` after checking its structure.

    Raises :class:`DuplicateId`, :class:`DanglingReference`, or
    :class:`InvalidPayload` on the first structural violation found.
    Missing decomposition links (a concern without goals, a VR without
    measures, a measure without a stage) are allowed here; they surface
    through the coverage check instead.
    """
    for collection in _COLLECTIONS:
        _check_unique(getattr(landscape, collection), collection)

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
        for mm_id in vr.mm_ids:
            if mm_id not in mm_ids:
                raise DanglingReference(mm_id, f"VR {vr.id}")
        _check_payload(vr, dataset_ids)

    for mm in landscape.mitigation_measures:
        if mm.stage_id is not None and mm.stage_id not in stage_ids:
            raise DanglingReference(mm.stage_id, f"mitigation measure {mm.id}")

    return landscape


# --- derived views -----------------------------------------------------------


def rows(landscape: Landscape) -> list[LandscapeRow]:
    """Flatten the landscape into its canonical row set.

    Order is fixed: concern id, stage order, goal id, VR id, measure id.
    The decomposition cell carries the goal statement with the goal id
    appended so rows stay traceable without an extra column.
    """
    out: list[LandscapeRow] = []
    for vr in landscape.vrs:
        goal = landscape.goal(vr.goal_id)
        concern = landscape.concern(goal.concern_id)
        stage = landscape.stage(vr.stage_id)
        for mm_id in vr.mm_ids or ("",):
            mm_name = landscape.mitigation_measure(mm_id).name if mm_id else ""
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
    out.sort(key=lambda r: (r.concern_id, landscape.stage(r.stage_id).order, r.goal_id, r.vr_id, r.mm_id))
    return out


def fingerprint(landscape: Landscape) -> str:
    """Content hash over everything that affects how evidence is judged.

    Covers VR ids, kinds, and payloads (thresholds, tolerances, dataset
    bindings, approval counts).  Display names, descriptions, and other
    prose are deliberately excluded so that cosmetic edits never mark
    previously collected evidence as stale.
    """
    content = [{"id": vr.id, "kind": vr.kind, "payload": to_node(vr.payload)} for vr in landscape.vrs]
    digest = hashlib.sha256(
        json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return f"sha256:{digest}"
