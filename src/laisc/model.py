"""Domain model for a landscape of AI safety concerns.

A landscape ties together four kinds of elements: safety concerns, the
decomposition goals that make each concern arguable, the verifiable
requirements (VRs) that make each goal checkable against evidence, and the
metrics / mitigation measures that produce that evidence at a given life
cycle stage.  Everything here is immutable after construction; the single
entry point that enforces the structural invariants is
:func:`build_landscape`.

VRs come in six closed kinds, one per evaluation pattern:

* ``MetricThreshold`` -- a metric value compared against a bound
* ``MetricGap``       -- the absolute difference of two measurements bounded
  by a tolerance
* ``PerCondition``    -- one threshold per named operating condition
* ``ReviewFraction``  -- a minimum fraction of items manually reviewed
* ``FlagResolution``  -- every automatically flagged item excluded or revised
* ``QualitativeApproval`` -- counted independent expert approvals plus
  required documents

New measurable requirements are expressed by registering metric ids inside
the metric-bearing kinds, not by adding kinds.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cache
from operator import attrgetter
from typing import get_args, get_origin, get_type_hints

from laisc.errors import DanglingReference, DuplicateId, InvalidPayload

#: Closed registry of metric ids a landscape may reference.  The metrics
#: module provides the matching implementations.
KNOWN_METRIC_IDS = frozenset({"miou", "gap", "nap_distance", "clm_flags"})


class Comparator(str, Enum):
    GE = "GE"
    LE = "LE"


class VrKind(str, Enum):
    METRIC_THRESHOLD = "MetricThreshold"
    METRIC_GAP = "MetricGap"
    PER_CONDITION = "PerCondition"
    REVIEW_FRACTION = "ReviewFraction"
    FLAG_RESOLUTION = "FlagResolution"
    QUALITATIVE_APPROVAL = "QualitativeApproval"


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

_PAYLOAD_KINDS: dict[type, VrKind] = {
    MetricThreshold: VrKind.METRIC_THRESHOLD,
    MetricGap: VrKind.METRIC_GAP,
    PerCondition: VrKind.PER_CONDITION,
    ReviewFraction: VrKind.REVIEW_FRACTION,
    FlagResolution: VrKind.FLAG_RESOLUTION,
    QualitativeApproval: VrKind.QUALITATIVE_APPROVAL,
}


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
    def kind(self) -> VrKind:
        return _PAYLOAD_KINDS[type(self.payload)]


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


@dataclass(frozen=True, slots=True)
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

    def stage(self, stage_id: str) -> LifecycleStage:
        return _index(self.stages)[stage_id]

    def concern(self, concern_id: str) -> SafetyConcern:
        return _index(self.concerns)[concern_id]

    def goal(self, goal_id: str) -> Goal:
        return _index(self.goals)[goal_id]

    def vr(self, vr_id: str) -> VerifiableRequirement:
        return _index(self.vrs)[vr_id]

    def mitigation_measure(self, mm_id: str) -> MitigationMeasure:
        return _index(self.mitigation_measures)[mm_id]

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


def _index(items) -> dict:
    return {item.id: item for item in items}


# --- construction -----------------------------------------------------------


def _check_unique(items, collection: str) -> None:
    seen: set[str] = set()
    for item in items:
        if not item.id:
            raise InvalidPayload(collection, "empty id")
        if item.id in seen:
            raise DuplicateId(item.id, collection)
        seen.add(item.id)


def _check_payload(vr: VerifiableRequirement, dataset_ids: frozenset[str]) -> None:
    p = vr.payload

    def metric(metric_id: str) -> None:
        if metric_id not in KNOWN_METRIC_IDS:
            raise InvalidPayload(vr.id, f"unknown metric id {metric_id!r}")

    def dataset(dataset_id: str) -> None:
        if dataset_id not in dataset_ids:
            raise DanglingReference(dataset_id, f"VR {vr.id} dataset binding")

    def finite(value: float, label: str) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise InvalidPayload(vr.id, f"{label} must be finite, got {value!r}")

    if isinstance(p, MetricThreshold):
        metric(p.metric_id)
        dataset(p.dataset_id)
        finite(p.threshold, "threshold")
    elif isinstance(p, MetricGap):
        metric(p.metric_id)
        dataset(p.dataset_id_a)
        dataset(p.dataset_id_b)
        finite(p.epsilon, "epsilon")
        if p.epsilon < 0:
            raise InvalidPayload(vr.id, f"epsilon must be >= 0, got {p.epsilon!r}")
    elif isinstance(p, PerCondition):
        metric(p.metric_id)
        if not p.conditions:
            raise InvalidPayload(vr.id, "PerCondition needs at least one condition")
        seen: set[str] = set()
        for cond in p.conditions:
            if cond.condition_id in seen:
                raise InvalidPayload(vr.id, f"duplicate condition {cond.condition_id!r}")
            seen.add(cond.condition_id)
            dataset(cond.dataset_id)
            finite(cond.threshold, f"threshold for {cond.condition_id}")
    elif isinstance(p, ReviewFraction):
        dataset(p.dataset_id)
        finite(p.min_fraction, "min_fraction")
        if not 0.0 <= p.min_fraction <= 1.0:
            raise InvalidPayload(vr.id, f"min_fraction must be in [0, 1], got {p.min_fraction!r}")
    elif isinstance(p, FlagResolution):
        metric(p.metric_id)
        dataset(p.dataset_id)
        finite(p.flag_threshold, "flag_threshold")
    elif isinstance(p, QualitativeApproval):
        if not isinstance(p.required_approvals, int) or isinstance(p.required_approvals, bool):
            raise InvalidPayload(vr.id, "required_approvals must be an integer")
        if p.required_approvals < 1:
            raise InvalidPayload(vr.id, f"required_approvals must be >= 1, got {p.required_approvals}")
    else:  # pragma: no cover - unreachable with the closed union
        raise InvalidPayload(vr.id, f"unknown payload type {type(p).__name__}")


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
    datasets: dict[str, DatasetDescriptor] | None = None,
) -> Landscape:
    """Assemble and validate a landscape from already-typed elements.

    Raises :class:`DuplicateId`, :class:`DanglingReference`, or
    :class:`InvalidPayload` on the first structural violation found.
    Missing decomposition links (a concern without goals, a VR without
    measures, a measure without a stage) are allowed here; they surface
    through the coverage check instead.
    """
    # Collections are stored in canonical order (stages by rank, the rest
    # by id) so construction order never leaks into equality or output.
    landscape = Landscape(
        name=name,
        version=version,
        stages=tuple(sorted(stages, key=lambda s: (s.order, s.id))),
        components=tuple(sorted(components, key=lambda c: c.id)),
        concerns=tuple(sorted(concerns, key=lambda c: c.id)),
        goals=tuple(sorted(goals, key=lambda g: g.id)),
        vrs=tuple(sorted(vrs, key=lambda v: v.id)),
        mitigation_measures=tuple(sorted(mitigation_measures, key=lambda m: m.id)),
        datasets=tuple(sorted((datasets or {}).items())),
    )

    for collection, items in (
        ("stages", landscape.stages),
        ("components", landscape.components),
        ("concerns", landscape.concerns),
        ("goals", landscape.goals),
        ("vrs", landscape.vrs),
        ("mitigation_measures", landscape.mitigation_measures),
    ):
        _check_unique(items, collection)

    orders = sorted(stage.order for stage in landscape.stages)
    if orders != list(range(len(orders))):
        raise InvalidPayload("stages", f"order values must be 0..{len(orders) - 1} without gaps, got {orders}")

    stage_ids = {s.id for s in landscape.stages}
    component_ids = {c.id for c in landscape.components}
    concern_index = _index(landscape.concerns)
    goal_index = _index(landscape.goals)
    vr_index = _index(landscape.vrs)
    mm_ids = {m.id for m in landscape.mitigation_measures}
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
    stage_index = _index(landscape.stages)
    concern_index = _index(landscape.concerns)
    goal_index = _index(landscape.goals)
    mm_index = _index(landscape.mitigation_measures)

    out: list[LandscapeRow] = []
    for vr in landscape.vrs:
        goal = goal_index[vr.goal_id]
        concern = concern_index[goal.concern_id]
        stage = stage_index[vr.stage_id]
        for mm_id in sorted(vr.mm_ids) or [""]:
            mm_name = mm_index[mm_id].name if mm_id else ""
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
    out.sort(key=lambda r: (r.concern_id, stage_index[r.stage_id].order, r.goal_id, r.vr_id, r.mm_id))
    return out


# --- JSON codec, writer half ---------------------------------------------------
#
# A domain dataclass's field annotations are its JSON schema; ``laisc.io``
# holds the matching reader.


def _writer(annotation) -> Callable | None:
    """Converter from a field value to its JSON value; ``None`` keeps it as is."""
    if annotation is float:
        return float
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return attrgetter("value")
    if get_origin(annotation) is tuple:
        item = _writer(get_args(annotation)[0])
        return list if item is None else lambda values: [item(value) for value in values]
    if is_dataclass(annotation):
        return to_node
    return None


@cache
def _field_writers(cls: type) -> tuple[tuple[str, Callable | None], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, _writer(hints[f.name])) for f in fields(cls))


def to_node(obj) -> dict:
    """The JSON object of a domain dataclass: one key per field.

    Enums are written as their value, tuples as lists, nested dataclasses
    as objects, and fields declared ``float`` through ``float()``, so a
    threshold of ``1`` and one of ``1.0`` give the same bytes.
    """
    return {
        name: getattr(obj, name) if write is None else write(getattr(obj, name))
        for name, write in _field_writers(type(obj))
    }


def fingerprint(landscape: Landscape) -> str:
    """Content hash over everything that affects how evidence is judged.

    Covers VR ids, kinds, and payloads (thresholds, tolerances, dataset
    bindings, approval counts).  Display names, descriptions, and other
    prose are deliberately excluded so that cosmetic edits never mark
    previously collected evidence as stale.
    """
    content = [
        {"id": vr.id, "kind": vr.kind.value, "payload": to_node(vr.payload)}
        for vr in sorted(landscape.vrs, key=lambda v: v.id)
    ]
    digest = hashlib.sha256(
        json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return f"sha256:{digest}"
