"""Seeded generator of a large landscape and evidence bundle with known verdicts.

The generator decides, for every VR, the raw verdict status it intends
(Satisfied, Violated, Pending or Error) and writes records that produce
it under the rules documented in ``laisc.evaluation``: the most recent
fresh record matching a slot wins; stale, superseded and wrong-binding
records must not change the outcome.  It also records the orphaned
record ids and the coverage gaps it planted, so a report can be checked
against facts known by construction rather than against laisc itself.

Everything is stdlib and depends only on ``seed`` and ``n_vrs``.  The
landscape fingerprint that fresh records carry is supplied by the caller.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from datetime import datetime, timedelta, timezone

KINDS = (
    "MetricThreshold",
    "MetricGap",
    "PerCondition",
    "ReviewFraction",
    "FlagResolution",
    "QualitativeApproval",
)
STATUSES = ("Satisfied", "Violated", "Pending", "Error")
_STATUS_WEIGHTS = (50, 20, 15, 15)
_BASE_TIME = datetime(2025, 3, 1, tzinfo=timezone.utc)
_STAGES = (
    "Definition of requirements",
    "Data collection & preparation",
    "Modeling",
    "Verification & validation",
    "Deployment",
    "Operation & monitoring",
)
N_COMPONENTS = 8
N_ORPHANS = 10
RECORDS_PER_VR = 3


def _dump(node: object) -> bytes:
    return (json.dumps(node, sort_keys=True, indent=2) + "\n").encode("utf-8")


def landscape(seed: int, n_vrs: int) -> tuple[bytes, dict]:
    """Landscape bytes plus the structural facts the oracles need.

    Four VRs per goal and five goals per concern; ~10% of the concerns are
    not relevant.  Planted coverage gaps: two relevant concerns without
    goals, two goals without VRs, three VRs without measures, and two
    stage-less measures used by relevant VRs.  Look-alikes that must *not*
    be reported (the same defects under a not-relevant concern, an unused
    stage-less measure) are planted too.
    """
    rng = random.Random(f"audit-landscape-{seed}-{n_vrs}")
    n_goals = n_vrs // 4
    n_concerns = max(2, n_goals // 5)
    n_datasets = max(12, n_vrs // 16)
    n_measures = max(6, n_vrs // 3)

    stages = [{"id": f"st-{i}", "name": name, "order": i} for i, name in enumerate(_STAGES)]
    components = [
        {"id": f"comp-{i}", "name": f"Component {i}", "description": f"subsystem {i}"}
        for i in range(N_COMPONENTS)
    ]
    datasets = {
        f"ds-{i:03d}": {"path": f"data/ds-{i:03d}", "format": "grid-dir", "role": "evaluation set"}
        for i in range(n_datasets)
    }
    dataset_ids = sorted(datasets)
    measures = [
        {"id": f"mm-{i:04d}", "name": f"Measure {i}", "description": "", "stage_id": rng.choice(stages)["id"]}
        for i in range(n_measures)
    ]
    for i in range(4):  # stage-less: 0 and 1 used by relevant VRs, 2 only by a not-relevant one, 3 unused
        measures.append({"id": f"mm-nostage-{i}", "name": f"Draft measure {i}", "description": "", "stage_id": None})

    irrelevant = set(rng.sample(range(n_concerns), max(1, n_concerns // 10)))
    concerns = []
    for i in range(n_concerns):
        concerns.append(
            {
                "id": f"C{i:03d}",
                "name": f"Concern {i}",
                "description": "",
                "relevant": i not in irrelevant,
                "relevance_rationale": "" if i not in irrelevant else "out of scope for this use case",
                "component_ids": sorted(rng.sample([c["id"] for c in components], rng.randint(1, 3))),
                "goal_ids": [],
            }
        )
    for j in range(3):  # goal-less concerns: two relevant (gaps), one not relevant (no gap)
        relevant = j < 2
        concerns.append(
            {
                "id": f"C-empty-{j}",
                "name": f"Undecomposed concern {j}",
                "description": "",
                "relevant": relevant,
                "relevance_rationale": "" if relevant else "not applicable to the operating domain",
                "component_ids": [components[j]["id"]],
                "goal_ids": [],
            }
        )

    goals = []
    for g in range(n_goals):
        concern = concerns[g % n_concerns]
        goal = {"id": f"G{g:04d}", "concern_id": concern["id"], "statement": f"Goal statement {g}", "vr_ids": []}
        concern["goal_ids"].append(goal["id"])
        goals.append(goal)
    relevant_concern_idx = sorted(set(range(n_concerns)) - irrelevant)
    irrelevant_concern_idx = sorted(irrelevant)
    for j, concern_index in enumerate((relevant_concern_idx[0], relevant_concern_idx[-1], irrelevant_concern_idx[0])):
        concern = concerns[concern_index]
        goal = {"id": f"G-empty-{j}", "concern_id": concern["id"], "statement": "Undecomposed goal", "vr_ids": []}
        concern["goal_ids"].append(goal["id"])
        goals.append(goal)

    kinds = [KINDS[i % len(KINDS)] for i in range(n_vrs)]
    rng.shuffle(kinds)
    concern_relevant = {c["id"]: c["relevant"] for c in concerns}
    vrs = []
    for v in range(n_vrs):
        goal = goals[v % n_goals]
        vr_id = f"VR{v:05d}"
        goal["vr_ids"].append(vr_id)
        mm_ids = sorted(rng.sample([m["id"] for m in measures[:n_measures]], rng.randint(1, 2)))
        vrs.append(
            {
                "id": vr_id,
                "goal_id": goal["id"],
                "kind": kinds[v],
                "stage_id": rng.choice(stages)["id"],
                "mm_ids": mm_ids,
                "payload": _payload(rng, kinds[v], dataset_ids),
            }
        )

    goal_concern = {g["id"]: g["concern_id"] for g in goals}
    relevant_vrs = [vr for vr in vrs if concern_relevant[goal_concern[vr["goal_id"]]]]
    irrelevant_vrs = [vr for vr in vrs if not concern_relevant[goal_concern[vr["goal_id"]]]]
    planted = rng.sample(relevant_vrs, 5)
    for vr in planted[:3]:
        vr["mm_ids"] = []
    planted[3]["mm_ids"] = sorted(set(planted[3]["mm_ids"]) | {"mm-nostage-0"})
    planted[4]["mm_ids"] = sorted(set(planted[4]["mm_ids"]) | {"mm-nostage-1"})
    irrelevant_vrs[0]["mm_ids"] = []
    irrelevant_vrs[1]["mm_ids"] = sorted(set(irrelevant_vrs[1]["mm_ids"]) | {"mm-nostage-2"})

    gaps = sorted(
        [["ConcernWithoutGoal", "C-empty-0"], ["ConcernWithoutGoal", "C-empty-1"]]
        + [["GoalWithoutVR", f"G-empty-{j}"] for j in (0, 1)]
        + [["VRWithoutMM", vr["id"]] for vr in planted[:3]]
        + [["MMWithoutStage", "mm-nostage-0"], ["MMWithoutStage", "mm-nostage-1"]]
    )
    facts = {
        "vr_kind": {vr["id"]: vr["kind"] for vr in vrs},
        "vr_payload": {vr["id"]: vr["payload"] for vr in vrs},
        "vr_relevant": {vr["id"]: concern_relevant[goal_concern[vr["goal_id"]]] for vr in vrs},
        "vr_concern": {vr["id"]: goal_concern[vr["goal_id"]] for vr in vrs},
        "vr_stage": {vr["id"]: vr["stage_id"] for vr in vrs},
        "concern_components": {c["id"]: c["component_ids"] for c in concerns},
        "concern_ids": [c["id"] for c in concerns],
        "stage_ids": [s["id"] for s in stages],
        "component_ids": [c["id"] for c in components],
        "coverage_gaps": gaps,
    }
    doc = {
        "name": f"generated-{n_vrs}",
        "version": "1",
        "stages": stages,
        "components": components,
        "concerns": concerns,
        "goals": goals,
        "vrs": vrs,
        "mitigation_measures": measures,
        "datasets": datasets,
    }
    return _dump(doc), facts


def _payload(rng: random.Random, kind: str, dataset_ids: list[str]) -> dict:
    metric = rng.choice(("miou", "nap_distance"))
    if kind == "MetricThreshold":
        return {
            "metric_id": metric,
            "dataset_id": rng.choice(dataset_ids),
            "comparator": rng.choice(("GE", "LE")),
            "threshold": round(rng.uniform(0.3, 0.8), 2),
        }
    if kind == "MetricGap":
        a, b = rng.sample(dataset_ids, 2)
        return {"metric_id": metric, "dataset_id_a": a, "dataset_id_b": b, "epsilon": round(rng.uniform(0.03, 0.1), 3)}
    if kind == "PerCondition":
        chosen = rng.sample(dataset_ids, rng.randint(2, 3))
        return {
            "metric_id": metric,
            "conditions": [
                {"condition_id": f"cond-{i}", "dataset_id": d, "threshold": round(rng.uniform(0.5, 0.8), 2)}
                for i, d in enumerate(chosen)
            ],
        }
    if kind == "ReviewFraction":
        return {"dataset_id": rng.choice(dataset_ids), "min_fraction": round(rng.uniform(0.5, 0.95), 2)}
    if kind == "FlagResolution":
        return {"metric_id": "clm_flags", "dataset_id": rng.choice(dataset_ids), "flag_threshold": 0.5}
    docs = sorted(rng.sample(("guidelines", "test-report", "argumentation", "audit-log"), rng.randint(0, 2)))
    return {"required_approvals": rng.randint(1, 3), "required_documents": docs}


# --- evidence -----------------------------------------------------------------


class _Bundle:
    def __init__(self, rng: random.Random, fresh_fp: str, stale_fp: str) -> None:
        self.rng = rng
        self.fresh_fp = fresh_fp
        self.stale_fp = stale_fp
        self.records: list[dict] = []

    def add(self, vr_id: str, kind: str, payload: dict, *, age: int, fresh: bool = True) -> None:
        """``age`` orders records of one VR: larger is more recent."""
        stamp = _BASE_TIME + timedelta(minutes=len(self.records) % 977, days=age)
        self.records.append(
            {
                "id": "",
                "vr_id": vr_id,
                "kind": kind,
                "landscape_fingerprint": self.fresh_fp if fresh else self.stale_fp,
                "timestamp": stamp.isoformat().replace("+00:00", "Z"),
                "payload": payload,
            }
        )

    def metric(self, vr_id, metric_id, dataset_ids, value, *, age, fresh=True, note="") -> None:
        payload = {"metric_id": metric_id, "dataset_ids": list(dataset_ids), "value": value, "config_note": note}
        self.add(vr_id, "MetricResult", payload, age=age, fresh=fresh)


def _value(rng: random.Random, bound: float, above: bool) -> float:
    """A value clearly on one side of ``bound``, kept inside [0, 1]."""
    if above:
        return round(min(1.0, bound + rng.uniform(0.02, 0.15)), 4)
    return round(max(0.0, bound - rng.uniform(0.02, 0.15)), 4)


def _other(rng: random.Random, dataset_ids: list[str], taken) -> str:
    while True:
        candidate = rng.choice(dataset_ids)
        if candidate not in taken:
            return candidate


def _metric_threshold(b: _Bundle, vr_id, p, status, dataset_ids) -> None:
    rng = b.rng
    ge = p["comparator"] == "GE"
    good = _value(rng, p["threshold"], above=ge)
    bad = _value(rng, p["threshold"], above=not ge)
    m, d = p["metric_id"], (p["dataset_id"],)
    wrong = (_other(rng, dataset_ids, d),)
    if status in ("Satisfied", "Violated"):
        win, lose = (good, bad) if status == "Satisfied" else (bad, good)
        b.metric(vr_id, m, d, win, age=5)
        b.metric(vr_id, m, d, lose, age=2)  # superseded
        b.metric(vr_id, m, d, lose, age=9, fresh=False)  # stale, newer
        if rng.random() < 0.5:
            b.metric(vr_id, m, wrong, lose, age=7)  # wrong binding
    elif status == "Error":
        b.metric(vr_id, m, d, good, age=4, fresh=False)
        if rng.random() < 0.5:
            b.metric(vr_id, m, wrong, good, age=6)


def _metric_gap(b: _Bundle, vr_id, p, status, dataset_ids) -> None:
    rng = b.rng
    m, a, c, eps = p["metric_id"], p["dataset_id_a"], p["dataset_id_b"], p["epsilon"]
    small = round(rng.uniform(0.0, eps - 0.01), 4)
    large = round(eps + rng.uniform(0.01, 0.1), 4)
    if status in ("Satisfied", "Violated"):
        win, lose = (small, large) if status == "Satisfied" else (large, small)
        if rng.random() < 0.5:  # precomputed two-dataset gap record
            b.metric(vr_id, m, (a, c), win, age=5, note="gap")
            b.metric(vr_id, m, (a, c), lose, age=2, note="gap")
        else:  # two single-dataset measurements recombined
            base = round(rng.uniform(0.4, 0.8), 4)
            b.metric(vr_id, m, (a,), base, age=5)
            b.metric(vr_id, m, (c,), round(base + win, 4), age=5)
            b.metric(vr_id, m, (a,), round(base + lose + win, 4), age=1)
        b.metric(vr_id, m, (a, c), lose, age=9, fresh=False, note="gap")
    elif status == "Pending" and rng.random() < 0.5:
        b.metric(vr_id, m, (a,), round(rng.uniform(0.4, 0.8), 4), age=3)  # one side only
    elif status == "Error":
        b.metric(vr_id, m, (a, c), small, age=4, fresh=False, note="gap")


def _per_condition(b: _Bundle, vr_id, p, status, dataset_ids) -> None:
    rng = b.rng
    m, conds = p["metric_id"], p["conditions"]
    if status in ("Satisfied", "Violated"):
        failing = rng.randrange(len(conds)) if status == "Violated" else -1
        for i, cond in enumerate(conds):
            d = (cond["dataset_id"],)
            b.metric(vr_id, m, d, _value(rng, cond["threshold"], above=i != failing), age=5)
        d0 = (conds[0]["dataset_id"],)
        b.metric(vr_id, m, d0, _value(rng, conds[0]["threshold"], above=failing == 0), age=2)
    elif status == "Pending" and rng.random() < 0.5:
        b.metric(vr_id, m, (conds[0]["dataset_id"],), _value(rng, conds[0]["threshold"], True), age=3)
    elif status == "Error":
        for cond in conds:
            b.metric(vr_id, m, (cond["dataset_id"],), 0.9, age=4, fresh=False)


def _review(dataset_id: str, total: int, reviewed: int) -> dict:
    return {"dataset_id": dataset_id, "total_items": total, "reviewed_items": reviewed}


def _review_fraction(b: _Bundle, vr_id, p, status, dataset_ids) -> None:
    rng = b.rng
    d, need = p["dataset_id"], p["min_fraction"]
    total = rng.randint(500, 2000)
    enough = min(total, math.ceil(need * total) + rng.randint(5, 20))
    short = math.floor(need * total) - rng.randint(20, 80)
    if status in ("Satisfied", "Violated"):
        win, lose = (enough, short) if status == "Satisfied" else (short, enough)
        b.add(vr_id, "ReviewLog", _review(d, total, win), age=5)
        b.add(vr_id, "ReviewLog", _review(d, total, lose), age=2)
        b.add(vr_id, "ReviewLog", _review(d, total, lose), age=8, fresh=False)
    elif status == "Error":
        if rng.random() < 0.5:
            b.add(vr_id, "ReviewLog", _review(d, 0, 0), age=5)  # empty population
        else:
            b.add(vr_id, "ReviewLog", _review(d, total, enough), age=4, fresh=False)


def _flag_log(dataset_id: str, flagged: list[str], resolved: list[str]) -> dict:
    entries = [
        {"instance_id": instance_id, "resolution": ("Excluded", "Revised")[i % 2]}
        for i, instance_id in enumerate(resolved)
    ]
    return {"dataset_id": dataset_id, "flagged_ids": flagged, "entries": entries}


def _flag_resolution(b: _Bundle, vr_id, p, status, dataset_ids) -> None:
    rng = b.rng
    d = p["dataset_id"]
    flagged = [f"img-{i:05d}" for i in sorted(rng.sample(range(20000), rng.randint(1, 4)))]
    companion = round(len(flagged) / 20000, 6)
    if status in ("Satisfied", "Violated"):
        resolved = flagged if status == "Satisfied" else flagged[:-1]
        b.metric(vr_id, "clm_flags", (d,), companion, age=5, note="threshold=0.5")
        b.add(vr_id, "FlagResolutionLog", _flag_log(d, flagged, resolved), age=6)
        older = flagged[:-1] if status == "Satisfied" else flagged
        b.add(vr_id, "FlagResolutionLog", _flag_log(d, flagged, older), age=2)
    elif status == "Pending" and rng.random() < 0.5:
        b.metric(vr_id, "clm_flags", (d,), companion, age=5, note="threshold=0.5")  # no log yet
    elif status == "Error":
        b.add(vr_id, "FlagResolutionLog", _flag_log(d, flagged, flagged), age=4, fresh=False)


def _approval(approver: str, verdict: str) -> dict:
    return {"approver_id": approver, "approver_role": "expert", "verdict": verdict, "document_ref": "doc/review"}


def _document(kind: str) -> dict:
    return {"document_kind": kind, "document_ref": f"doc/{kind}"}


def _qualitative_approval(b: _Bundle, vr_id, p, status, dataset_ids) -> None:
    rng = b.rng
    need, docs = p["required_approvals"], p["required_documents"]
    approvers = [f"expert-{i}" for i in rng.sample(range(40), need + 1)]
    if status == "Satisfied":
        for approver in approvers[:need]:
            b.add(vr_id, "ApprovalRecord", _approval(approver, "Approved"), age=5)
        b.add(vr_id, "ApprovalRecord", _approval(approvers[0], "Approved"), age=1)  # repeat, same expert
        for kind in docs:
            b.add(vr_id, "DocumentRecord", _document(kind), age=5)
    elif status == "Violated":
        b.add(vr_id, "ApprovalRecord", _approval(approvers[-1], "Rejected"), age=5)
        for approver in approvers[: need - 1]:
            b.add(vr_id, "ApprovalRecord", _approval(approver, "Approved"), age=4)
    elif status == "Pending" and (need > 1 or docs):
        if need > 1:  # one approver short, documents complete
            for approver in approvers[: need - 1]:
                b.add(vr_id, "ApprovalRecord", _approval(approver, "Approved"), age=5)
            for kind in docs:
                b.add(vr_id, "DocumentRecord", _document(kind), age=5)
        else:  # approvals complete, a document missing
            b.add(vr_id, "ApprovalRecord", _approval(approvers[0], "Approved"), age=5)
    elif status == "Error":
        for approver in approvers[:need]:
            b.add(vr_id, "ApprovalRecord", _approval(approver, "Approved"), age=4, fresh=False)


_WRITERS = {
    "MetricThreshold": _metric_threshold,
    "MetricGap": _metric_gap,
    "PerCondition": _per_condition,
    "ReviewFraction": _review_fraction,
    "FlagResolution": _flag_resolution,
    "QualitativeApproval": _qualitative_approval,
}


def _stale_fingerprint(seed: int) -> str:
    return "sha256:" + hashlib.sha256(f"superseded-definitions-{seed}".encode()).hexdigest()


def evidence(seed: int, facts: dict, fresh_fp: str) -> tuple[bytes, dict]:
    """Bundle bytes (``RECORDS_PER_VR`` records per VR) plus the expected outcomes.

    Records are shuffled, so the verdicts must not depend on file order.
    Satisfied and Violated VRs are topped up with extra stale records,
    which never change a verdict that fresh evidence decides, until the
    bundle has exactly ``RECORDS_PER_VR * n_vrs`` records.
    """
    rng = random.Random(f"audit-evidence-{seed}-{len(facts['vr_kind'])}")
    dataset_ids = sorted({d for p in facts["vr_payload"].values() for d in _payload_datasets(p)})
    b = _Bundle(rng, fresh_fp, _stale_fingerprint(seed))
    intended = {}
    for vr_id, kind in facts["vr_kind"].items():
        status = rng.choices(STATUSES, _STATUS_WEIGHTS)[0]
        _WRITERS[kind](b, vr_id, facts["vr_payload"][vr_id], status, dataset_ids)
        intended[vr_id] = status

    orphans = []
    for i in range(N_ORPHANS):
        b.metric(f"VR-retired-{i}", "miou", (dataset_ids[i % len(dataset_ids)],), 0.5, age=3)
        orphans.append(len(b.records) - 1)

    decided = [vr_id for vr_id, status in intended.items() if status in ("Satisfied", "Violated")]
    target = RECORDS_PER_VR * len(intended)
    while len(b.records) < target:
        vr_id = rng.choice(decided)
        b.add(vr_id, "DocumentRecord", _document("superseded-evidence"), age=10, fresh=False)

    order = list(range(len(b.records)))
    rng.shuffle(order)
    records = [b.records[i] for i in order]
    for number, record in enumerate(records):
        record["id"] = f"E{number:06d}"
    orphan_ids = sorted(b.records[i]["id"] for i in orphans)
    doc = {"source": f"generated evidence, seed {seed}", "records": records}
    expected = {"status": intended, "orphans": orphan_ids, "records": len(records), "fingerprint": fresh_fp}
    return _dump(doc), expected


def _payload_datasets(payload: dict) -> list[str]:
    out = [payload[key] for key in ("dataset_id", "dataset_id_a", "dataset_id_b") if key in payload]
    out.extend(cond["dataset_id"] for cond in payload.get("conditions", ()))
    return out
