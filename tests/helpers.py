"""Shared test utilities: independent oracles and data generators.

The oracles here deliberately re-derive expected values through different
code paths than the library (set arithmetic for mask overlap, literal
re-enumeration for the confident joint, a fresh structural walk for
coverage) so tests compare two independent computations.
"""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone

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
)
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
    Resolution,
    ReviewFraction,
    SafetyConcern,
    SystemComponent,
    VerifiableRequirement,
    build_landscape,
)

UTC = timezone.utc


# --- independent oracles -----------------------------------------------------


def brute_force_iou(pred: LabeledGrid, truth: LabeledGrid) -> float:
    """Set-based IoU: coordinates of 1-pixels, |A & B| / |A | B|."""
    ones_pred = {(r, c) for r, row in enumerate(pred.values) for c, v in enumerate(row) if v}
    ones_truth = {(r, c) for r, row in enumerate(truth.values) for c, v in enumerate(row) if v}
    union = ones_pred | ones_truth
    if not union:
        return 1.0
    return len(ones_pred & ones_truth) / len(union)


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
    return build_landscape(
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
                    payload = MetricGap("miou", rng.choice(dataset_names), rng.choice(dataset_names), rng.uniform(0, 0.3))
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

    return build_landscape(
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
    of a type it cannot take, each key of a fixed-schema object removed,
    and an unknown key added to each of those objects.

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
