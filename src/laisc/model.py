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
Each side of an evidence slot's key (:data:`SlotKey`) is stated here
once: :func:`slots` gives the keys a VR of each kind reads, and
:func:`slot_key` the one key a record's payload can fill.  A key names an
evidence kind, its datasets and, for a metric result, the metric and
whether it is a precomputed gap.  Evaluation fills the slots, ``laisc
metric`` refuses an append no slot takes, and the structure check takes
a VR's dataset bindings from the keys.  The rest of a payload is checked
by field: ``metric_id`` known, numbers and their bounds (``epsilon >=
0``, say) as :func:`laisc.codec.number_rows` reads them from the fields;
only the rules no field states are checked per kind (``_KIND_RULES``).  Every
structure rule is one ``codec.check_rows`` row over one collection, as
the rules of an evidence bundle are.

New measurable requirements are expressed by registering metric ids inside
the metric-bearing kinds, not by adding kinds.
"""

from __future__ import annotations

import json
from dataclasses import field
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import attrgetter, eq, itemgetter, ne, not_

from laisc.codec import (
    as_tuple, by_class, check_ids, check_rows, check_text, first_fault,
    number_rows, record, rule_rows, to_node, unique_row,
)
from laisc.errors import DanglingReference, DuplicateId, InvalidPayload, LaiscError

# hashlib loads OpenSSL (libcrypto, about 4 MB resident) into every laisc
# process; the interpreter's built-in sha256 gives the same digest without
# it.  The last import serves a build compiled without the built-in hashes.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

#: Closed registry of metric ids a landscape may reference.  The metrics
#: module provides the matching implementations.
KNOWN_METRIC_IDS = frozenset({"miou", "gap", "nap_distance", "clm_flags"})

_ID, _CONDITION_ID = attrgetter("id"), attrgetter("condition_id")


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
        object.__setattr__(self, "component_ids", as_tuple(self.component_ids))
        object.__setattr__(self, "goal_ids", as_tuple(self.goal_ids))


@record
class Goal:
    """A concern decomposed far enough for requirements to attach."""

    id: str
    concern_id: str
    statement: str
    vr_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vr_ids", as_tuple(self.vr_ids))


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
        object.__setattr__(self, "conditions", as_tuple(self.conditions, _CONDITION_ID))


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
        object.__setattr__(self, "required_documents", as_tuple(self.required_documents))


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
#: are sorted, for a gap is read in either order.  Both sides of a key are
#: stated here only: :func:`slots` gives a VR's, :func:`slot_key` a record's.
SlotKey = tuple

#: The first ``;``-separated token of the ``config_note`` of a
#: ``MetricResult`` that carries a precomputed two-dataset gap: ``laisc
#: metric gap`` and ``laisc metric nap`` write it, :func:`slot_key` reads it.
_GAP_NOTE = "gap"


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


def slot_key(evidence) -> SlotKey:
    """The one slot key that the record payload ``evidence`` can fill: the
    record side of :func:`slots`.  It reads the payload's class name, as a
    key does, for the evidence classes live in :mod:`laisc.io`.  A result is
    a precomputed gap when the first ``;``-separated token of its
    ``config_note`` is :data:`_GAP_NOTE`; further notes (e.g. sample-size
    warnings) may follow."""
    kind = type(evidence).__name__
    if kind == "MetricResult":
        if evidence.config_note.partition(";")[0] == _GAP_NOTE:
            return kind, tuple(sorted(evidence.dataset_ids)), evidence.metric_id, True
        return kind, evidence.dataset_ids, evidence.metric_id, False
    if kind in ("ReviewLog", "FlagResolutionLog"):
        return kind, (evidence.dataset_id,)
    return kind, ()


@record
class VerifiableRequirement:
    """A requirement stated so that evidence yields a pass/fail verdict."""

    id: str
    goal_id: str
    payload: VrPayload
    stage_id: str
    mm_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mm_ids", as_tuple(self.mm_ids))

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
        for collection in _COLLECTIONS:
            key = attrgetter("order", "id") if collection == "stages" else _ID
            object.__setattr__(self, collection, as_tuple(getattr(self, collection), key))
        pairs = self.datasets.items() if isinstance(self.datasets, dict) else self.datasets
        object.__setattr__(self, "datasets", as_tuple(pairs, itemgetter(0)))
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
        digest = sha256(json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8"))
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
#
# Each structure rule is one ``codec.check_rows`` row over one collection:
# a column test over every element, and the words of its fault, found on a
# collection that fails by the same test run on one value at a time.  The
# ids of a reference list are flattened, each mapped to its owner's index.


def _id_rows(ids: list, collection: str) -> list:
    """The rows of the ids of ``collection``: each non-empty, then unique."""
    return [
        *rule_rows(ids, ((all, "empty id"),), lambda words, at, _: InvalidPayload(collection, words)),
        unique_row(ids, lambda at, id_: DuplicateId(id_, collection)),
    ]


def _refs(owners: tuple, name: str) -> tuple[list, object]:
    """The ids of the ``name`` list of each of ``owners``, in order, and a
    function that gives the index of each one's owner."""
    lists = list(map(attrgetter(name), owners))
    return list(chain.from_iterable(lists)), lambda: chain.from_iterable(map(repeat, count(), map(len, lists)))


def _known_rows(owners, refs: list, positions, known: frozenset, referrer: str) -> list:
    """The row of the rule that each of ``refs``, of the owner at
    ``positions()`` (at its own index if ``None``), is ``known``: a
    ``DanglingReference`` from ``referrer``, formatted with the owner's id."""
    fault = lambda words, at, ref: DanglingReference(ref, words.format(owners[at].id))
    return rule_rows(refs, ((known.issuperset, referrer),), fault, positions)


def _distinct(lists) -> bool:
    """Whether no one of the tuples ``lists`` holds a value twice."""
    lists = list(lists)
    return all(map(eq, map(len, map(set, lists)), map(len, lists)))


def _repeat(ids: tuple) -> str:
    """The first id that the sorted ``ids`` holds twice."""
    return next(first for first, second in zip(ids, ids[1:]) if first == second)


def _once_rows(owners, name: str, kind: str) -> list:
    """The row of the rule that the ``name`` list of each of ``owners``, of
    ``kind``, names each id once."""
    fault = lambda words, at, ids: DuplicateId(_repeat(ids), words.format(owners[at].id))
    return rule_rows(list(map(attrgetter(name), owners)), ((_distinct, f"{kind} {{}} {name}"),), fault)


def _tree_rows(parents: dict, name: str, kind: str, children: dict, child_kind: str) -> tuple[list, list]:
    """The rows of the rule that the ``name`` lists of ``parents`` (by id),
    of ``kind``, and the links of ``children`` to them agree, as ``(parent
    id, child id)`` pairs: the row of the parents' lists, each child known
    and naming that parent, and the row of the children, each parent known
    and listing that child.  An unknown id is a ``DanglingReference``, a
    link that the other side does not make an ``InvalidPayload``."""
    parent = attrgetter(f"{kind}_id")
    refs, positions = _refs(tuple(parents.values()), name)
    listed = list(zip(map(list(parents).__getitem__, positions()), refs))
    named = list(zip(map(parent, children.values()), children))

    def unnamed(_, at: int, pair: tuple) -> LaiscError:
        parent_id, child_id = pair
        if child_id not in children:
            return DanglingReference(child_id, f"{kind} {parent_id}")
        declared = parent(children[child_id])
        return InvalidPayload(child_id, f"listed under {kind} {parent_id} but declares {kind} {declared}")

    def unlisted(_, at: int, pair: tuple) -> LaiscError:
        parent_id, child_id = pair
        if parent_id not in parents:
            return DanglingReference(parent_id, f"{child_kind} {child_id}")
        return InvalidPayload(child_id, f"not listed by its {kind} {parent_id}")

    return (
        rule_rows(listed, ((frozenset(named).issuperset, None),), unnamed, positions),
        rule_rows(named, ((frozenset(listed).issuperset, None),), unlisted),
    )


def _rationales(concerns: list) -> bool:
    """Whether each concern marked not relevant has a rationale."""
    skipped = compress(concerns, map(not_, map(attrgetter("relevant"), concerns)))
    return all(map(str.strip, map(attrgetter("relevance_rationale"), skipped)))


def _condition_rows(payloads: list) -> list:
    """The rows of the conditions of the PerCondition ``payloads``: each
    id once in its payload, then the number rule of each; the error of a
    fault is its words."""
    lists = list(map(_CONDITIONS, payloads))
    conditions = list(chain.from_iterable(lists))
    owned = list(zip(chain.from_iterable(map(repeat, count(), map(len, lists))), map(_CONDITION_ID, conditions)))
    named = lambda at: f"condition {conditions[at].condition_id!r}"
    return [
        unique_row(owned, lambda at, _: f"duplicate {named(at)}"),
        *number_rows(Condition, conditions, None, lambda words, at: f"{named(at)}: {words}"),
    ]


def _two_datasets(gaps: list) -> bool:
    """Whether each MetricGap of ``gaps`` binds two different datasets."""
    return all(map(ne, map(attrgetter("dataset_id_a"), gaps), map(attrgetter("dataset_id_b"), gaps)))


_METRIC, _CONDITIONS, _DOCUMENTS = map(attrgetter, ("metric_id", "conditions", "required_documents"))

#: The rules of a VR payload, by class, that compare its fields with each
#: other: a test over a list of payloads, and the words of one at fault.
#: Of one PerCondition's conditions, the first at fault is named, and of
#: one that repeats an id and breaks the number rule, the repeat.
_KIND_RULES = {
    MetricGap: ((_two_datasets, lambda gap: f"the gap needs two different datasets, got {gap.dataset_id_a!r} twice"),),
    PerCondition: (
        (lambda ps: all(map(len, map(_CONDITIONS, ps))), lambda _: "PerCondition needs at least one condition"),
        (lambda ps: not first_fault(_condition_rows(ps)), lambda p: first_fault(_condition_rows([p]))[1]),
    ),
    QualitativeApproval: (
        (lambda ps: _distinct(map(_DOCUMENTS, ps)), lambda p: f"duplicate document kind {_repeat(_DOCUMENTS(p))!r}"),
    ),
}
#: The rule of a payload's ``metric_id``, which every kind that has one keeps.
_METRIC_RULE = (
    lambda ps: KNOWN_METRIC_IDS.issuperset(map(_METRIC, ps)), lambda p: f"unknown metric id {p.metric_id!r}"
)


def _bound_ids(payloads) -> list:
    """The dataset ids that the slots of the VR ``payloads`` bind, in order."""
    return list(chain.from_iterable(map(itemgetter(1), chain.from_iterable(map(dict.values, map(slots, payloads))))))


def _payload_rows(cls: type, payloads: list, positions, vrs: tuple, dataset_ids: frozenset) -> list:
    """The rows of ``payloads``, the VR payloads of class ``cls``, of the
    VRs at ``positions()`` of ``vrs``, in order: each dataset that their
    slots bind known, the metric known, the number rule, then the rules of
    their kind."""
    # Each payload's count of bound ids is needed only to name a fault's owner.
    owners = lambda: chain.from_iterable(map(repeat, positions(), (len(_bound_ids((p,))) for p in payloads)))
    rows = _known_rows(vrs, _bound_ids(payloads), owners, dataset_ids, "VR {} dataset binding")
    fault = lambda words, at, payload: InvalidPayload(vrs[at].id, words(payload))
    if hasattr(cls, "metric_id"):
        rows += rule_rows(payloads, (_METRIC_RULE,), fault, positions)
    rows += number_rows(cls, payloads, positions, lambda words, at: InvalidPayload(vrs[at].id, words))
    return rows + rule_rows(payloads, _KIND_RULES.get(cls, ()), fault, positions)


def _check_landscape(landscape: Landscape) -> None:
    """Check the structure of ``landscape``; ``Landscape.__post_init__``
    is the one caller.

    Raises :class:`DuplicateId`, :class:`DanglingReference`, or
    :class:`InvalidPayload` on the first structural violation found, after
    a :class:`SchemaError` at the JSON path of a field that
    :func:`~laisc.codec.check_text` finds or of a dataset id that
    :func:`~laisc.codec.check_ids` refuses.  The phases run in order: ids,
    the numbers of stages and concerns, stage orders, then concerns, goals,
    VRs and measures, each one ``check_rows`` call over its collection, so
    the first element at fault is named, and of its faults the first
    rule's.  Missing decomposition links (a concern without goals, a VR
    without measures, a measure without a stage) are allowed here; they
    surface through the coverage check instead.
    """
    check_text([landscape], ("$",).__getitem__)
    check_ids([key for key, _ in landscape.datasets], lambda _, key: f"$.datasets.{key}")
    for collection in _COLLECTIONS:
        check_rows(_id_rows(list(map(_ID, getattr(landscape, collection))), collection))
    check_rows(_id_rows(list(map(itemgetter(0), landscape.datasets)), "datasets"))
    # The number and bool fields outside the VR payloads: a stage's order, a concern's relevance.
    for cls, items in ((LifecycleStage, landscape.stages), (SafetyConcern, landscape.concerns)):
        check_rows(number_rows(cls, items, None, lambda words, at, items=items: InvalidPayload(items[at].id, words)))

    orders = [stage.order for stage in landscape.stages]
    if orders != list(range(len(orders))):
        raise InvalidPayload("stages", f"order values must be 0..{len(orders) - 1} without gaps, got {orders}")

    by_id = landscape._by_id
    known = {collection: frozenset(index) for collection, index in by_id.items()}
    concerns, goals, vrs, measures = landscape.concerns, landscape.goals, landscape.vrs, landscape.mitigation_measures
    # Goals and VRs form a strict tree: each child has exactly one parent and
    # the parent's child list must agree with it.
    goals_listed, goals_named = _tree_rows(by_id["concerns"], "goal_ids", "concern", by_id["goals"], "goal")
    vrs_listed, vrs_named = _tree_rows(by_id["goals"], "vr_ids", "goal", by_id["vrs"], "VR")
    rationale = ((_rationales, "a concern marked not relevant needs a rationale"),)
    check_rows(
        [
            *rule_rows(concerns, rationale, lambda words, _, concern: InvalidPayload(concern.id, words)),
            *_once_rows(concerns, "component_ids", "concern"),
            *_once_rows(concerns, "goal_ids", "concern"),
            *_known_rows(concerns, *_refs(concerns, "component_ids"), known["components"], "concern {}"),
            *goals_listed,
        ]
    )
    check_rows([*goals_named, *_once_rows(goals, "vr_ids", "goal"), *vrs_listed])
    rows = [
        *vrs_named,
        *_known_rows(vrs, list(map(attrgetter("stage_id"), vrs)), None, known["stages"], "VR {}"),
        *_once_rows(vrs, "mm_ids", "VR"),
        *_known_rows(vrs, *_refs(vrs, "mm_ids"), known["mitigation_measures"], "VR {}"),
    ]
    dataset_ids = landscape.dataset_ids()
    for cls, group, positions in by_class(list(map(attrgetter("payload"), vrs))):
        rows += _payload_rows(cls, group, positions, vrs, dataset_ids)
    check_rows(rows)
    stage_ids = list(map(attrgetter("stage_id"), measures))
    check_rows(_known_rows(measures, stage_ids, None, known["stages"] | {None}, "mitigation measure {}"))


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
