"""Shared test utilities: independent oracles and data generators.

The oracles here deliberately re-derive expected values through different
code paths than the library (set arithmetic for mask overlap, literal
re-enumeration for the confident joint, a fresh structural walk for
coverage, an element-by-element walk of a landscape's structure rules,
each VR kind's verdict rule restated from the README,
a field-by-field walk of each VR payload for the fingerprint, one cell
at a time over ``LabeledGrid.values`` for morphology, geometry and
pixel arithmetic) so tests compare two independent computations.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
import sys
from dataclasses import fields, is_dataclass
from datetime import datetime, timedelta, timezone
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from pathlib import Path

from laisc import codec
from laisc.errors import (
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    InvalidPayload,
    LaiscError,
    NotNormalized,
    ValueOutOfRange,
)
from laisc.evaluation import CoverageGap, GapKind
from laisc.io import (
    ActivationTable,
    ApprovalRecord,
    ApprovalVerdict,
    DocumentRecord,
    EvidenceBundle,
    EvidenceRecord,
    FlagResolutionLog,
    LabeledGrid,
    MetricResult,
    ProbabilityTable,
    ReviewLog,
    parse_landscape,
)
from laisc.model import (
    KNOWN_METRIC_IDS,
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
    Resolution,
    ReviewFraction,
    SafetyConcern,
    SystemComponent,
    VerifiableRequirement,
    fingerprint,
    slots,
)

UTC = timezone.utc


def generated_pair(seed: int, n_vrs: int) -> tuple[bytes, bytes]:
    """The landscape and evidence bytes that ``bench/audit_gen.py``, the
    seeded generator of large landscapes, writes for ``seed``; fresh
    records carry the landscape's fingerprint."""
    path = Path(__file__).resolve().parents[1] / "bench" / "audit_gen.py"
    spec = importlib.util.spec_from_file_location("audit_gen", path)
    audit_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit_gen)
    land, facts = audit_gen.landscape(seed, n_vrs)
    bundle, _ = audit_gen.evidence(seed, facts, fingerprint(parse_landscape(land)))
    return land, bundle


# --- independent oracles -----------------------------------------------------


def brute_force_iou(pred: LabeledGrid, truth: LabeledGrid) -> float:
    """Set-based IoU: coordinates of 1-pixels, |A & B| / |A | B|."""
    ones_pred = {(r, c) for r, row in enumerate(pred.values) for c, v in enumerate(row) if v}
    ones_truth = {(r, c) for r, row in enumerate(truth.values) for c, v in enumerate(row) if v}
    union = ones_pred | ones_truth
    if not union:
        return 1.0
    return len(ones_pred & ones_truth) / len(union)


def morphology_oracle(mask: LabeledGrid, radius: int, *, erode: bool) -> tuple[tuple[int, ...], ...]:
    """Square window of side 2*radius+1 around each cell, clipped to the
    grid: dilation is 1 where any cell in it is 1; erosion is 1 where the
    window lies wholly inside the grid and every cell in it is 1."""
    rows = mask.values
    out = []
    for r in range(mask.height):
        out_row = []
        for c in range(mask.width):
            window = [
                rows[rr][cc]
                for rr in range(max(0, r - radius), min(mask.height, r + radius + 1))
                for cc in range(max(0, c - radius), min(mask.width, c + radius + 1))
            ]
            if erode:
                inside = radius <= r < mask.height - radius and radius <= c < mask.width - radius
                out_row.append(int(inside and all(window)))
            else:
                out_row.append(int(any(window)))
        out.append(tuple(out_row))
    return tuple(out)


def _moved(rows, height: int, width: int, target) -> tuple[tuple[int, ...], ...]:
    """Send each cell ``(r, c)`` of ``rows`` to ``target(r, c)`` in a
    ``height x width`` grid of zeros; targets outside it are dropped."""
    out = [[0] * width for _ in range(height)]
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            rr, cc = target(r, c)
            if 0 <= rr < height and 0 <= cc < width:
                out[rr][cc] = value
    return tuple(map(tuple, out))


def rot90_oracle(grid: LabeledGrid, k: int) -> tuple[tuple[int, ...], ...]:
    """``k`` counterclockwise quarter turns, one cell at a time."""
    rows, height, width = grid.values, grid.height, grid.width
    for _ in range(k):
        rows = _moved(rows, width, height, lambda r, c, w=width: (w - 1 - c, r))
        height, width = width, height
    return rows


def hflip_oracle(grid: LabeledGrid) -> tuple[tuple[int, ...], ...]:
    return _moved(grid.values, grid.height, grid.width, lambda r, c: (r, grid.width - 1 - c))


def translate_oracle(mask: LabeledGrid, dx: int, dy: int) -> tuple[tuple[int, ...], ...]:
    return _moved(mask.values, mask.height, mask.width, lambda r, c: (r + dy, c + dx))


def occlusion_oracle(image: LabeledGrid, x: int, y: int, w: int, h: int) -> tuple[tuple[int, ...], ...]:
    patch = {(r, c) for r in range(y, y + h) for c in range(x, x + w)}
    return tuple(
        tuple(0 if (r, c) in patch else value for c, value in enumerate(row)) for r, row in enumerate(image.values)
    )


def _byte(value: int) -> int:
    return min(255, max(0, value))


def brightness_oracle(image: LabeledGrid, delta: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(_byte(value + delta) for value in row) for row in image.values)


def contrast_oracle(image: LabeledGrid, factor: float) -> tuple[tuple[int, ...], ...]:
    """Distance from the mean scaled by ``factor``, each pixel rounded half
    away from zero (``Decimal`` ``ROUND_HALF_UP``) and clamped."""
    cells = [value for row in image.values for value in row]
    mean = math.fsum(cells) / len(cells)

    def scaled(value: int) -> int:
        return _byte(int(Decimal(mean + factor * (value - mean)).quantize(Decimal(1), rounding=ROUND_HALF_UP)))

    return tuple(tuple(scaled(value) for value in row) for row in image.values)


def _splitmix64_units(seed: int):
    """The uniforms of the ``laisc.metrics`` stream spec, written from the
    spec: splitmix64 outputs ``z``, each mapped to ``((z >> 11) + 1) / 2**53``."""
    state = seed % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        z ^= z >> 31
        yield ((z >> 11) + 1) / 2**53


def noise_oracle(image: LabeledGrid, sigma: float, seed: int) -> tuple[tuple[int, ...], ...]:
    """Each pixel plus ``sigma`` times one Box-Muller normal, in row-major
    order: a pair of uniforms ``(u1, u2)`` gives ``r cos(2 pi u2)`` for one
    pixel and ``r sin(2 pi u2)`` for the next, ``r = sqrt(-2 ln u1)``.  The
    sum is clamped to [0, 255] and rounded half away from zero."""
    units = _splitmix64_units(seed)
    normals = []
    while len(normals) < image.height * image.width:
        u1, u2 = next(units), next(units)
        radius, angle = math.sqrt(-2.0 * math.log(u1)), 2.0 * math.pi * u2
        normals += [radius * math.cos(angle), radius * math.sin(angle)]
    normals.reverse()

    def noisy(value: int) -> int:
        clamped = min(255.0, max(0.0, value + normals.pop() * sigma))
        return int(Decimal(clamped).quantize(Decimal(1), rounding=ROUND_HALF_UP))

    return tuple(tuple(noisy(value) for value in row) for row in image.values)


def pixel_flip_oracle(mask: LabeledGrid, rate: float, seed: int) -> tuple[tuple[int, ...], ...]:
    """Each cell, in row-major order, flipped where its uniform is at most ``rate``."""
    units = _splitmix64_units(seed)
    return tuple(tuple(1 - value if next(units) <= rate else value for value in row) for row in mask.values)


def nap_oracle(a: ActivationTable, b: ActivationTable) -> float:
    """Mean per-neuron Hellinger distance, each value binned on its own with
    the literal formula ``min(31, int(32 * (v - lo) / (hi - lo)))``; if that
    overflows for any value of the neuron, every value, ``lo`` and ``hi``
    are first multiplied by ``2**-6``."""
    total = 0.0
    for neuron in range(a.num_neurons):
        columns = [[acts[neuron] for _, acts in table.rows] for table in (a, b)]
        lo = min(min(columns[0]), min(columns[1]))
        hi = max(max(columns[0]), max(columns[1]))
        if hi - lo == 0:
            continue  # constant: distance 0
        try:
            bins = [[min(31, int(32 * (v - lo) / (hi - lo))) for v in column] for column in columns]
        except (OverflowError, ValueError):
            small = [[v * 2.0**-6 for v in column] for column in columns]
            lo, hi = lo * 2.0**-6, hi * 2.0**-6
            bins = [[min(31, int(32 * (v - lo) / (hi - lo))) for v in column] for column in small]
        spread = 0.0
        for k in range(32):
            p, q = (column.count(k) / len(column) for column in bins)
            diff = math.sqrt(p) - math.sqrt(q)
            spread += diff * diff
        total += min(1.0, math.sqrt(0.5 * spread))
    return total / a.num_neurons


def table_rule_error(table_type: type, size: int, rows) -> LaiscError | None:
    """The first error the per-row rules of ``table_type`` find, or None.

    Rows are checked in order; within a row, its width, then (for a
    ``ProbabilityTable``) its label, then each value, then its sum.  A
    value is a number of the exact type ``int`` or ``float``, never a
    ``bool`` or a subclass; an activation is also in the float range, and
    then, in a second pass over the row, one that a double holds exactly.
    """
    try:
        if table_type is ProbabilityTable:
            if size < 2:
                raise ValueOutOfRange(f"need at least 2 classes, got {size}")
            for index, (instance_id, label, probs) in enumerate(rows):
                where = f"row {index} ({instance_id})"
                if len(probs) != size:
                    raise DimensionMismatch(f"{where}: expected {size} probabilities, got {len(probs)}")
                if type(label) is not int:
                    raise ValueOutOfRange(f"{where}: label {label!r} is not an integer")
                if label < 0 or label >= size:
                    raise ValueOutOfRange(f"{where}: label {label} outside [0, {size})")
                for p in probs:
                    if type(p) not in (int, float) or not 0.0 <= p <= 1.0:
                        raise ValueOutOfRange(f"{where}: probability {p!r} outside [0, 1]")
                total = math.fsum(probs)
                if abs(total - 1.0) > 1e-6:
                    raise NotNormalized(index, total)
        else:
            if size < 1:
                raise ValueOutOfRange(f"need at least 1 neuron, got {size}")
            for index, (sample_id, acts) in enumerate(rows):
                where = f"row {index} ({sample_id})"
                if len(acts) != size:
                    raise DimensionMismatch(f"{where}: expected {size} activations, got {len(acts)}")
                for value in acts:
                    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                        raise ValueOutOfRange(f"{where}: non-finite activation {value!r}")
                for value in acts:
                    if float(value) != value:
                        raise ValueOutOfRange(f"{where}: activation {value!r} has no exact double")
    except LaiscError as exc:
        return exc
    return None


def brute_force_confident_joint(table: ProbabilityTable) -> list[list[int]]:
    """Literal re-enumeration of the threshold-and-count rules."""
    k = table.num_classes
    thresholds = []
    for j in range(k):
        scores = [probs[j] for _, label, probs in table.rows if label == j]
        if scores:
            total = 0.0
            for score in scores:
                total += score
            thresholds.append(total / len(scores))
        else:
            thresholds.append(math.inf)
    joint = [[0] * k for _ in range(k)]
    for _, label, probs in table.rows:
        qualifying = [j for j in range(k) if probs[j] >= thresholds[j]]
        if not qualifying:
            continue
        best = qualifying[0]
        for j in qualifying[1:]:
            if probs[j] > probs[best]:
                best = j
        joint[label][best] += 1
    return joint


def coverage_oracle(landscape: Landscape) -> set[tuple[str, str]]:
    """Fresh walk of the four blind-spot rules, as (kind, subject) pairs."""
    expected: set[tuple[str, str]] = set()
    for concern in landscape.concerns:
        if not concern.relevant:
            continue
        if not concern.goal_ids:
            expected.add((GapKind.CONCERN_WITHOUT_GOAL.value, concern.id))
            continue
        for goal_id in concern.goal_ids:
            goal = landscape.goal(goal_id)
            if not goal.vr_ids:
                expected.add((GapKind.GOAL_WITHOUT_VR.value, goal.id))
                continue
            for vr_id in goal.vr_ids:
                vr = landscape.vr(vr_id)
                if not vr.mm_ids:
                    expected.add((GapKind.VR_WITHOUT_MM.value, vr.id))
                    continue
                for mm_id in vr.mm_ids:
                    if landscape.mitigation_measure(mm_id).stage_id is None:
                        expected.add((GapKind.MM_WITHOUT_STAGE.value, mm_id))
    return expected


def gaps_as_pairs(gaps: list[CoverageGap]) -> set[tuple[str, str]]:
    return {(gap.kind.value, gap.subject_id) for gap in gaps}


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


def _is_gap(result: MetricResult) -> bool:
    """Whether ``result`` carries a precomputed gap: its note reads ``gap``
    up to the first ``;``."""
    return result.config_note.split(";")[0] == "gap"


def _measures(evidence, metric_id: str, dataset_id: str) -> bool:
    """Whether ``evidence`` is one ``metric_id`` measurement on ``dataset_id``."""
    return (
        isinstance(evidence, MetricResult)
        and evidence.metric_id == metric_id
        and list(evidence.dataset_ids) == [dataset_id]
        and not _is_gap(evidence)
    )


def _needs(p) -> dict:
    """What a VR with payload ``p`` takes, need -> test of a record
    payload, as the README's "VR kinds" table words each kind."""
    if isinstance(p, MetricThreshold):
        return {"value": lambda e: _measures(e, p.metric_id, p.dataset_id)}
    if isinstance(p, MetricGap):
        pair = {p.dataset_id_a, p.dataset_id_b}
        return {
            "a": lambda e: _measures(e, p.metric_id, p.dataset_id_a),
            "b": lambda e: _measures(e, p.metric_id, p.dataset_id_b),
            "gap": lambda e: isinstance(e, MetricResult) and e.metric_id == p.metric_id and _is_gap(e)
            and len(e.dataset_ids) == 2 and set(e.dataset_ids) == pair,
        }
    if isinstance(p, PerCondition):
        return {c.condition_id: (lambda e, c=c: _measures(e, p.metric_id, c.dataset_id)) for c in p.conditions}
    if isinstance(p, ReviewFraction):
        return {"log": lambda e: isinstance(e, ReviewLog) and e.dataset_id == p.dataset_id}
    if isinstance(p, FlagResolution):
        return {"log": lambda e: isinstance(e, FlagResolutionLog) and e.dataset_id == p.dataset_id}
    return {"approvals": lambda e: isinstance(e, ApprovalRecord), "documents": lambda e: isinstance(e, DocumentRecord)}


def verdict_oracle(payload, records, current: str) -> tuple[str, tuple[str, ...]]:
    """The status value and the sorted evidence ids of the verdict of a VR
    with ``payload`` on ``records``, the records addressed to it, where
    ``current`` is the landscape's fingerprint.  Restated from the README's
    "VR kinds" table and its stale rule, one kind at a time, without
    ``laisc.model.slots``, ``slot_key`` or any ``laisc.evaluation`` helper:

    * a record is fresh when its fingerprint is ``current``; among the fresh
      records that meet one need of the VR, the latest wins, a tie going to
      the greatest id;
    * a need that no fresh record meets but a stale one does makes the
      verdict Error (naming those stale records) unless the needs met decide
      it: a failed condition, a MetricGap's gap record or its two sides; a
      QualitativeApproval with any fresh approval or document counts only
      the fresh ones;
    * with no need met and no stale record, records that meet no need make
      the verdict Error (naming them all), except for a FlagResolution,
      which stays Pending; no record at all is Pending.
    """
    fresh = [r for r in records if r.landscape_fingerprint == current]
    needs = _needs(payload)
    met = {need: [r for r in fresh if test(r.payload)] for need, test in needs.items()}
    met = {need: found for need, found in met.items() if found}
    latest = {need: max(found, key=lambda r: (r.timestamp, r.id)) for need, found in met.items()}
    stale = {
        r.id
        for need, test in needs.items()
        if need not in met
        for r in records
        if r.landscape_fingerprint != current and test(r.payload)
    }
    ids = lambda found: tuple(sorted({r.id for r in found}))
    decided = lambda ok, found: ("Satisfied" if ok else "Violated", ids(found))
    if isinstance(payload, MetricThreshold) and latest:
        value = latest["value"].payload.value
        ok = value >= payload.threshold if payload.comparator == Comparator.GE else value <= payload.threshold
        return decided(ok, latest.values())
    if isinstance(payload, MetricGap):
        if "gap" in latest:
            return decided(abs(latest["gap"].payload.value) <= payload.epsilon, [latest["gap"]])
        if "a" in latest and "b" in latest:
            difference = abs(latest["a"].payload.value - latest["b"].payload.value)
            return decided(difference <= payload.epsilon, [latest["a"], latest["b"]])
        if latest and not stale:
            return "Pending", ()
    if isinstance(payload, PerCondition) and latest:
        measured = [c for c in payload.conditions if c.condition_id in latest]
        if any(latest[c.condition_id].payload.value < c.threshold for c in measured):
            return "Violated", ids(latest.values())
        if len(latest) == len(payload.conditions):
            return "Satisfied", ids(latest.values())
        if not stale:
            return "Pending", ids(latest.values())
    if isinstance(payload, ReviewFraction) and latest:
        log = latest["log"].payload
        if log.total_items == 0:
            return "Error", ids(latest.values())
        return decided(log.reviewed_items / log.total_items >= payload.min_fraction, latest.values())
    if isinstance(payload, FlagResolution) and latest:
        log = latest["log"].payload
        resolved = {entry.instance_id for entry in log.entries}
        return decided(all(flagged in resolved for flagged in log.flagged_ids), latest.values())
    if isinstance(payload, QualitativeApproval) and met:
        approvals, documents = met.get("approvals", []), met.get("documents", [])
        rejections = [r for r in approvals if r.payload.verdict == ApprovalVerdict.REJECTED]
        if rejections:
            return "Violated", ids(rejections)
        enough = len({r.payload.approver_id for r in approvals}) >= payload.required_approvals
        documented = set(payload.required_documents) <= {r.payload.document_kind for r in documents}
        return "Satisfied" if enough and documented else "Pending", ids(approvals + documents)
    if stale:
        return "Error", tuple(sorted(stale))
    if isinstance(payload, FlagResolution) or not records:
        return "Pending", ()
    return "Error", ids(records)


def _plain(value):
    """A payload value as plain JSON data: a dataclass as an object of its
    fields, an enum as its value, a tuple as a list."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def fingerprint_oracle(landscape: Landscape) -> str:
    """The documented fingerprint: the sha256 of the compact, key-sorted
    JSON list of ``{"id", "kind", "payload"}`` per VR in id order, with
    the payload walked field by field (float fields must hold floats)."""
    content = [
        {"id": vr.id, "kind": type(vr.payload).__name__, "payload": _plain(vr.payload)}
        for vr in sorted(landscape.vrs, key=lambda vr: vr.id)
    ]
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return f"sha256:{hashlib.sha256(text.encode('utf-8')).hexdigest()}"


# --- landscape structure ----------------------------------------------------------


def _number_fault(obj) -> str | None:
    """The words of the first number rule that ``obj`` breaks: each rule of
    ``codec._plan``'s number rows of each field, run on ``obj``'s value."""
    for name, rules in codec._plan(type(obj))[2]:
        value = getattr(obj, name)
        for test, words in rules:
            if not test((value,)):
                return words.format(value)
    return None


def _listed_once(ids, where: str) -> None:
    for first, second in zip(ids, ids[1:]):
        if first == second:
            raise DuplicateId(first, where)


def _unique(ids, collection: str) -> None:
    seen: set[str] = set()
    for id_ in ids:
        if not id_:
            raise InvalidPayload(collection, "empty id")
        if id_ in seen:
            raise DuplicateId(id_, collection)
        seen.add(id_)


def _payload_fault(vr: VerifiableRequirement, dataset_ids: set[str]) -> None:
    p = vr.payload
    for _, bound, *_ in slots(p).values():
        for dataset_id in bound:
            if dataset_id not in dataset_ids:
                raise DanglingReference(dataset_id, f"VR {vr.id} dataset binding")
    if hasattr(p, "metric_id") and p.metric_id not in KNOWN_METRIC_IDS:
        raise InvalidPayload(vr.id, f"unknown metric id {p.metric_id!r}")
    fault = _number_fault(p)
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
            fault = _number_fault(cond)
            if fault:
                raise InvalidPayload(vr.id, f"condition {cond.condition_id!r}: {fault}")
    if isinstance(p, QualitativeApproval):
        documents = p.required_documents
        for first, second in zip(documents, documents[1:]):
            if first == second:
                raise InvalidPayload(vr.id, f"duplicate document kind {first!r}")


def landscape_fault_oracle(parts: dict) -> None:
    """Raise what building ``Landscape(**parts)`` raises, by a walk of
    every element in turn, one rule after another: no ``laisc.model``
    check runs.  The collections are put in the landscape's canonical
    order first, and the numbers are held to ``codec._plan``'s rows one
    value at a time."""
    land = object.__new__(Landscape)
    order = {"stages": lambda s: (s.order, s.id), "datasets": lambda pair: pair[0]}
    for name, value in parts.items():
        if isinstance(value, (list, tuple, dict)):
            items = value.items() if isinstance(value, dict) else value
            value = tuple(sorted(items, key=order.get(name, lambda element: element.id)))
        object.__setattr__(land, name, value)
    codec.check_text([land], ("$",).__getitem__)
    codec.check_ids([key for key, _ in land.datasets], lambda _, key: f"$.datasets.{key}")
    collections = ("stages", "components", "concerns", "goals", "vrs", "mitigation_measures")
    for collection in collections:
        _unique([element.id for element in getattr(land, collection)], collection)
    _unique([key for key, _ in land.datasets], "datasets")
    for element in (*land.stages, *land.concerns):
        fault = _number_fault(element)
        if fault:
            raise InvalidPayload(element.id, fault)
    orders = [stage.order for stage in land.stages]
    if orders != list(range(len(orders))):
        raise InvalidPayload("stages", f"order values must be 0..{len(orders) - 1} without gaps, got {orders}")
    stage_ids = {stage.id for stage in land.stages}
    component_ids = {component.id for component in land.components}
    mm_ids = {mm.id for mm in land.mitigation_measures}
    concern_index, goal_index, vr_index = ({e.id: e for e in getattr(land, c)} for c in ("concerns", "goals", "vrs"))
    dataset_ids = {key for key, _ in land.datasets}
    for concern in land.concerns:
        if not concern.relevant and not concern.relevance_rationale.strip():
            raise InvalidPayload(concern.id, "a concern marked not relevant needs a rationale")
        _listed_once(concern.component_ids, f"concern {concern.id} component_ids")
        _listed_once(concern.goal_ids, f"concern {concern.id} goal_ids")
        for component_id in concern.component_ids:
            if component_id not in component_ids:
                raise DanglingReference(component_id, f"concern {concern.id}")
        for goal_id in concern.goal_ids:
            if goal_id not in goal_index:
                raise DanglingReference(goal_id, f"concern {concern.id}")
            if goal_index[goal_id].concern_id != concern.id:
                raise InvalidPayload(
                    goal_id, f"listed under concern {concern.id} but declares concern {goal_index[goal_id].concern_id}"
                )
    for goal in land.goals:
        if goal.concern_id not in concern_index:
            raise DanglingReference(goal.concern_id, f"goal {goal.id}")
        if goal.id not in concern_index[goal.concern_id].goal_ids:
            raise InvalidPayload(goal.id, f"not listed by its concern {goal.concern_id}")
        _listed_once(goal.vr_ids, f"goal {goal.id} vr_ids")
        for vr_id in goal.vr_ids:
            if vr_id not in vr_index:
                raise DanglingReference(vr_id, f"goal {goal.id}")
            if vr_index[vr_id].goal_id != goal.id:
                raise InvalidPayload(vr_id, f"listed under goal {goal.id} but declares goal {vr_index[vr_id].goal_id}")
    for vr in land.vrs:
        if vr.goal_id not in goal_index:
            raise DanglingReference(vr.goal_id, f"VR {vr.id}")
        if vr.id not in goal_index[vr.goal_id].vr_ids:
            raise InvalidPayload(vr.id, f"not listed by its goal {vr.goal_id}")
        if vr.stage_id not in stage_ids:
            raise DanglingReference(vr.stage_id, f"VR {vr.id}")
        _listed_once(vr.mm_ids, f"VR {vr.id} mm_ids")
        for mm_id in vr.mm_ids:
            if mm_id not in mm_ids:
                raise DanglingReference(mm_id, f"VR {vr.id}")
        _payload_fault(vr, dataset_ids)
    for mm in land.mitigation_measures:
        if mm.stage_id is not None and mm.stage_id not in stage_ids:
            raise DanglingReference(mm.stage_id, f"mitigation measure {mm.id}")


# --- grid generators ---------------------------------------------------------


def random_mask(rng: random.Random, max_side: int = 8) -> LabeledGrid:
    height = rng.randint(1, max_side)
    width = rng.randint(1, max_side)
    values = tuple(tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(height))
    return LabeledGrid(height, width, values)


def random_image(rng: random.Random, height: int, width: int) -> LabeledGrid:
    values = tuple(tuple(rng.randint(0, 255) for _ in range(width)) for _ in range(height))
    return LabeledGrid(height, width, values)


def random_activation_table(rng: random.Random, num_neurons: int, num_rows: int) -> ActivationTable:
    rows = tuple(
        (f"s{i}", tuple(rng.uniform(-5.0, 5.0) for _ in range(num_neurons)))
        for i in range(num_rows)
    )
    return ActivationTable(num_neurons, rows)


def random_prob_table(rng: random.Random, num_classes: int, num_rows: int) -> ProbabilityTable:
    rows = []
    for i in range(num_rows):
        raw = [rng.uniform(0.05, 1.0) for _ in range(num_classes)]
        total = sum(raw)
        probs = tuple(value / total for value in raw)
        rows.append((f"x{i}", rng.randrange(num_classes), probs))
    return ProbabilityTable(num_classes, tuple(rows))


# --- landscape builders --------------------------------------------------------


def single_vr_landscape(payload, *, datasets: dict[str, DatasetDescriptor] | None = None,
                        relevant: bool = True, mm_ids: tuple[str, ...] = ("m1",)) -> Landscape:
    """Minimal one-concern/one-goal/one-VR landscape around ``payload``."""
    if datasets is None:
        datasets = {
            name: DatasetDescriptor(f"data/{name}", "grid-dir", "test data")
            for name in ("ds-a", "ds-b", "ds-c")
        }
    return Landscape(
        name="unit",
        stages=[LifecycleStage("st1", "Stage one", 0)],
        components=[SystemComponent("cp1", "Component")],
        concerns=[
            SafetyConcern(
                id="c1",
                name="Concern",
                relevant=relevant,
                relevance_rationale="" if relevant else "out of scope for tests",
                component_ids=("cp1",),
                goal_ids=("g1",),
            )
        ],
        goals=[Goal("g1", "c1", "Goal statement", ("v1",))],
        vrs=[VerifiableRequirement(id="v1", goal_id="g1", payload=payload, stage_id="st1", mm_ids=mm_ids)],
        mitigation_measures=[MitigationMeasure("m1", "Measure", "", "st1")],
        datasets=datasets,
    )


def record(
    record_id: str,
    vr_id: str,
    payload,
    fingerprint_value: str,
    *,
    minute: int = 0,
) -> EvidenceRecord:
    return EvidenceRecord(
        id=record_id,
        vr_id=vr_id,
        landscape_fingerprint=fingerprint_value,
        timestamp=datetime(2026, 3, 1, 9, minute, 0, tzinfo=UTC),
        payload=payload,
    )


_PAYLOAD_CHOICES = ("threshold", "gap", "per_condition", "review", "flags", "approval")


def random_landscape(rng: random.Random, *, delete_links: bool = False) -> Landscape:
    """A structurally valid landscape of random shape.

    With ``delete_links`` some chains are left incomplete (concerns without
    goals, goals without VRs, VRs without measures, measures without a
    stage), which the coverage check should report.
    """
    num_stages = rng.randint(1, 3)
    stages = [LifecycleStage(f"st{i}", f"Stage {i}", i) for i in range(num_stages)]
    components = [SystemComponent(f"cp{i}", f"Component {i}") for i in range(rng.randint(0, 2))]

    dataset_names = [f"ds{i}" for i in range(4)]
    datasets = {name: DatasetDescriptor(f"data/{name}", "grid-dir", "generated") for name in dataset_names}

    num_measures = rng.randint(1, 4)
    measures = [
        MitigationMeasure(
            f"m{i}",
            f"Measure {i}",
            "",
            None if (delete_links and rng.random() < 0.3) else rng.choice(stages).id,
        )
        for i in range(num_measures)
    ]

    concerns: list[SafetyConcern] = []
    goals: list[Goal] = []
    vrs: list[VerifiableRequirement] = []
    for ci in range(rng.randint(1, 3)):
        goal_ids: list[str] = []
        num_goals = 0 if (delete_links and rng.random() < 0.25) else rng.randint(1, 2)
        for gi in range(num_goals):
            goal_id = f"c{ci}-g{gi}"
            vr_ids: list[str] = []
            num_vrs = 0 if (delete_links and rng.random() < 0.25) else rng.randint(1, 2)
            for vi in range(num_vrs):
                vr_id = f"c{ci}-g{gi}-v{vi}"
                kind = rng.choice(_PAYLOAD_CHOICES)
                if kind == "threshold":
                    payload = MetricThreshold(
                        "miou", rng.choice(dataset_names), rng.choice(list(Comparator)), rng.uniform(0, 1)
                    )
                elif kind == "gap":
                    first, second = rng.choice(dataset_names), rng.choice(dataset_names)
                    if second == first:  # a gap needs two different datasets
                        second = dataset_names[(dataset_names.index(first) + 1) % len(dataset_names)]
                    payload = MetricGap("miou", first, second, rng.uniform(0, 0.3))
                elif kind == "per_condition":
                    payload = PerCondition(
                        "miou",
                        tuple(
                            Condition(f"cond{i}", rng.choice(dataset_names), rng.uniform(0, 1))
                            for i in range(rng.randint(1, 3))
                        ),
                    )
                elif kind == "review":
                    payload = ReviewFraction(rng.choice(dataset_names), rng.uniform(0, 1))
                elif kind == "flags":
                    payload = FlagResolution("clm_flags", rng.choice(dataset_names), rng.uniform(0, 1))
                else:
                    payload = QualitativeApproval(rng.randint(1, 3), ("doc-kind",))
                mm_ids = (
                    ()
                    if (delete_links and rng.random() < 0.3)
                    else tuple(
                        sorted(rng.sample([m.id for m in measures], rng.randint(1, len(measures))))
                    )
                )
                vrs.append(
                    VerifiableRequirement(
                        id=vr_id,
                        goal_id=goal_id,
                        payload=payload,
                        stage_id=rng.choice(stages).id,
                        mm_ids=mm_ids,
                    )
                )
                vr_ids.append(vr_id)
            goals.append(Goal(goal_id, f"c{ci}", f"Goal {goal_id}", tuple(vr_ids)))
            goal_ids.append(goal_id)
        relevant = rng.random() >= 0.2
        concerns.append(
            SafetyConcern(
                id=f"c{ci}",
                name=f"Concern {ci}",
                relevant=relevant,
                relevance_rationale="" if relevant else "not applicable in this configuration",
                component_ids=tuple(sorted(rng.sample([c.id for c in components], rng.randint(0, len(components))))),
                goal_ids=tuple(goal_ids),
            )
        )

    return Landscape(
        name=f"generated-{rng.randint(0, 10**6)}",
        version="1",
        stages=stages,
        components=components,
        concerns=concerns,
        goals=goals,
        vrs=vrs,
        mitigation_measures=measures,
        datasets=datasets,
    )


def _random_evidence_payload(rng: random.Random, kind: str):
    if kind == "MetricResult":
        dataset_ids = tuple(rng.sample(["ds0", "ds1", "ds2"], rng.randint(1, 2)))
        return MetricResult(rng.choice(("miou", "nap_distance")), dataset_ids, rng.uniform(-1, 1),
                            rng.choice(("", "gap", "run=ü")))
    if kind == "ApprovalRecord":
        return ApprovalRecord(f"rev-{rng.randint(0, 3)}", "Prüfer", rng.choice(list(ApprovalVerdict)),
                              rng.choice(("", "doc/review")))
    if kind == "ReviewLog":
        total = rng.randint(0, 500)
        return ReviewLog(f"ds{rng.randint(0, 2)}", total, rng.randint(0, total))
    if kind == "FlagResolutionLog":
        flagged = tuple(f"img-{i}" for i in rng.sample(range(100), rng.randint(0, 4)))
        entries = tuple((instance_id, rng.choice(list(Resolution))) for instance_id in flagged if rng.random() < 0.7)
        return FlagResolutionLog(f"ds{rng.randint(0, 2)}", flagged, entries)
    return DocumentRecord(rng.choice(("safety-case", "test-report")), rng.choice(("", "doc/x")))


_EVIDENCE_KINDS = ("MetricResult", "ApprovalRecord", "ReviewLog", "FlagResolutionLog", "DocumentRecord")


def random_bundle(rng: random.Random) -> EvidenceBundle:
    """A bundle with a record of every evidence kind plus random extras."""
    kinds = list(_EVIDENCE_KINDS) + [rng.choice(_EVIDENCE_KINDS) for _ in range(rng.randint(0, 8))]
    rng.shuffle(kinds)
    start = datetime(2026, 1, 1, tzinfo=UTC)
    return EvidenceBundle(
        tuple(
            EvidenceRecord(
                id=f"rec-{index:04d}",
                vr_id=f"v{rng.randint(0, 3)}",
                landscape_fingerprint=rng.choice(("sha256:aa", "sha256:bb")),
                timestamp=start + timedelta(seconds=rng.randint(0, 10**7)),
                payload=_random_evidence_payload(rng, kind),
            )
            for index, kind in enumerate(kinds)
        ),
        source=rng.choice(("", "generated")),
    )


def random_fitting_payload(rng: random.Random, payload):
    """A record payload that a VR with ``payload`` reads, or one a step
    away: another dataset or metric, a gap note where none belongs, a gap
    over the VR's two datasets in either order, an empty review log, a
    rejection, a document of another kind."""
    metric = getattr(payload, "metric_id", "miou") if rng.random() < 0.9 else "nap_distance"
    bound = list(bound_datasets(payload)) or ["ds0"]
    dataset = rng.choice(bound) if rng.random() < 0.9 else f"ds{rng.randint(0, 3)}"
    if isinstance(payload, ReviewFraction):
        total = rng.choice((0, 10, 100))
        return ReviewLog(dataset, total, rng.randint(0, total))
    if isinstance(payload, FlagResolution):
        if rng.random() < 0.3:
            return MetricResult("clm_flags", (dataset,), rng.random(), "threshold=0.5")
        flagged = tuple(f"img-{i}" for i in rng.sample(range(6), rng.randint(0, 3)))
        entries = tuple((i, rng.choice(list(Resolution))) for i in flagged if rng.random() < 0.7)
        return FlagResolutionLog(dataset, flagged, entries)
    if isinstance(payload, QualitativeApproval):
        if rng.random() < 0.5:
            verdict = ApprovalVerdict.REJECTED if rng.random() < 0.15 else ApprovalVerdict.APPROVED
            return ApprovalRecord(f"rev-{rng.randint(0, 3)}", "reviewer", verdict, "")
        return DocumentRecord(rng.choice(("doc-kind", "doc-kind", "other-kind")), "")
    if rng.random() < (0.4 if isinstance(payload, MetricGap) else 0.1):
        # A precomputed gap over two datasets, most often the VR's own pair.
        pair = bound[:2] if len(bound) >= 2 and rng.random() < 0.8 else rng.sample([f"ds{i}" for i in range(4)], 2)
        rng.shuffle(pair)
        return MetricResult(metric, tuple(pair), rng.uniform(-0.4, 0.4), rng.choice(("gap", "gap; warning: n=3")))
    # A value of 1 meets every GE bound, so one failed condition decides a PerCondition less often.
    value = rng.choice((rng.random(), 1.0))
    return MetricResult(metric, (dataset,), value, rng.choice(("", "", "pairs=4", "run=2", "gap")))


# --- schema mutations ------------------------------------------------------------

#: One value of each JSON type; ``[7]`` stands for a list of the wrong items.
_WRONG_VALUES = (None, True, 7, 2.5, "s", [7], {})


def _json_type(value) -> str:
    if isinstance(value, list):
        return "list of integers" if value and isinstance(value[0], int) else "list"
    return {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"}.get(
        type(value), "null"
    )


def schema_mutations(root, free_paths=("$.datasets",)):
    """Yield ``(text, field_path, parent_path)`` for every single-key
    mutation of the JSON document ``root``: each field replaced by a value
    of a type it cannot take, each float field by an integer past the
    float range, each key of a fixed-schema object removed, and an unknown
    key added to each of those objects.

    Objects at ``free_paths`` are maps rather than fixed schemas, so their
    entries are only given wrong types.  ``root`` is mutated in place and
    restored after each mutation.
    """

    def walk(node, path):
        if isinstance(node, list):
            for index, item in enumerate(node):
                yield from walk(item, f"{path}[{index}]")
            return
        if not isinstance(node, dict):
            return
        fixed = path not in free_paths
        for key, value in list(node.items()):
            field = f"{path}.{key}"
            accepted = {_json_type(value)}
            if isinstance(value, float):
                accepted.add("integer")
            if key == "stage_id" and path.startswith("$.mitigation_measures["):
                accepted |= {"string", "null"}
            for wrong in _WRONG_VALUES:
                if _json_type(wrong) not in accepted:
                    node[key] = wrong
                    yield json.dumps(root), field, path
            if isinstance(value, float):
                node[key] = 10**400
                yield json.dumps(root), field, path
            node[key] = value
            if fixed:
                del node[key]
                yield json.dumps(root), field, path
                node[key] = value
            yield from walk(value, field)
        if fixed:
            node["zz_unknown"] = 1
            yield json.dumps(root), f"{path}.zz_unknown", path
            del node["zz_unknown"]

    yield from walk(root, "$")
