"""Acceptance suite: one test per release criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion; a pytest failure on a test IS that criterion's fail line.
"""

from __future__ import annotations

import json
import math
import random
import time
from datetime import datetime, timezone

import pytest

from helpers import (
    brute_force_confident_joint,
    brute_force_iou,
    coverage_oracle,
    gaps_as_pairs,
    random_activation_table,
    random_landscape,
    random_mask,
    random_prob_table,
    record,
    single_vr_landscape,
)
from laisc import fixtures, io, report
from laisc.cli import main
from laisc.evaluation import Filter, Status, apply_filter, coverage, evaluate, evaluate_vr
from laisc.io import (
    ApprovalRecord,
    ApprovalVerdict,
    DocumentRecord,
    EvidenceBundle,
    FlagResolutionLog,
    LabeledGrid,
    MetricResult,
    ProbabilityTable,
    ReviewLog,
)
from laisc.metrics import GaussianNoise, clm_flags, iou, miou, nap_distance, perturb
from laisc.model import (
    Comparator,
    Condition,
    FlagResolution,
    MetricGap,
    MetricThreshold,
    PerCondition,
    QualitativeApproval,
    Resolution,
    ReviewFraction,
    fingerprint,
)

NOW = datetime(2026, 2, 1, 12, 0, 0, tzinfo=timezone.utc)


def _pass(n: int, name: str) -> None:
    print(f"\nACCEPTANCE {n} ({name}): PASS")


# --- criterion 1: case-study table reproduction -----------------------------------

EXPECTED_TABLE = [
    ("Inaccurate data labels", "Data collection & preparation",
     "Quality assured labeling process (G1.1)", "VR1.1.1", "Labeling guidelines"),
    ("Inaccurate data labels", "Data collection & preparation",
     "Quality assured labeling process (G1.1)", "VR1.1.2", "Annotator knowledge test"),
    ("Inaccurate data labels", "Data collection & preparation",
     "Empirical label validation and effect analysis (G1.2)", "VR1.2.1",
     "Sampling-based manual label inspection"),
    ("Inaccurate data labels", "Data collection & preparation",
     "Empirical label validation and effect analysis (G1.2)", "VR1.2.2",
     "Label sensitivity analysis"),
    ("Inaccurate data labels", "Data collection & preparation",
     "Automatic detection of inaccurate labels (G1.3)", "VR1.3", "Confident Learning metric"),
    ("Problems with synthetic data", "Data collection & preparation",
     "Reality gap in the model's performance (G2.1)", "VR2.1", "Reality gap performance test"),
    ("Problems with synthetic data", "Data collection & preparation",
     "Reality gap in the model's perception (G2.2)", "VR2.2", "Neural activation metric"),
    ("Lack of robustness", "Modeling",
     "Lack of adversarial robustness (G3.1)", "VR3.1", "Argumentation"),
    ("Lack of robustness", "Modeling",
     "Lack of robustness against natural variation in the input domain (G3.2)", "VR3.2",
     "Perturbation-based robustness quantification"),
    ("Lack of robustness", "Modeling",
     "Lack of robustness against counterfactuals (G3.3)", "VR3.3", "Counterfactual analysis"),
]


def test_c1_table_reproduction(fixture_landscape, demo_bundle):
    started = time.perf_counter()
    result = evaluate(fixture_landscape, demo_bundle, now=NOW)
    rendered = report.serialize_report(result, "table").decode()
    elapsed = time.perf_counter() - started

    cells = [
        (row.concern_name, row.stage_name, row.decomposition, row.vr_id, row.mm_name)
        for row in result.rows
    ]
    assert cells == EXPECTED_TABLE
    body = [line for line in rendered.splitlines() if line.count("|") == 5][1:]
    assert len(body) == 10
    for line, expected in zip(body, EXPECTED_TABLE):
        rendered_cells = tuple(cell.strip() for cell in line.split("|")[:5])
        assert rendered_cells == expected

    assert len(apply_filter(fixture_landscape, Filter(stage="Modeling"))) == 3
    assert len(apply_filter(fixture_landscape, Filter(concern="Inaccurate data labels"))) == 5
    assert elapsed < 1.0, f"evaluation and rendering took {elapsed:.3f}s"
    _pass(1, "table reproduction")


# --- criterion 2: VR semantics suite ------------------------------------------------

OK = ApprovalVerdict.APPROVED
NO = ApprovalVerdict.REJECTED

# Each case: (case id, VR payload, [(record payload, stale, minute), ...],
#             expected status, substring expected in the explanation)
VR_CASES = [
    # MetricThreshold
    ("threshold-satisfied", MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
     [(MetricResult("miou", ("ds-a",), 0.9), False, 0)], Status.SATISFIED, "holds"),
    ("threshold-boundary", MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
     [(MetricResult("miou", ("ds-a",), 0.8), False, 0)], Status.SATISFIED, "holds"),
    ("threshold-violated", MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
     [(MetricResult("miou", ("ds-a",), 0.7), False, 0)], Status.VIOLATED, "fails"),
    ("threshold-le", MetricThreshold("nap_distance", "ds-a", Comparator.LE, 0.2),
     [(MetricResult("nap_distance", ("ds-a",), 0.1), False, 0)], Status.SATISFIED, "holds"),
    ("threshold-pending", MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
     [], Status.PENDING, "no evidence"),
    ("threshold-stale", MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
     [(MetricResult("miou", ("ds-a",), 0.9), True, 0)], Status.ERROR, "stale"),
    ("threshold-kind-mismatch", MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
     [(ApprovalRecord("a", "role", OK, "doc"), False, 0)], Status.ERROR, "unusable"),
    ("threshold-ignores-gap-record", MetricThreshold("miou", "ds-a", Comparator.GE, 0.8),
     [(MetricResult("miou", ("ds-a",), 0.9), False, 0),
      (MetricResult("miou", ("ds-a", "ds-b"), 0.02, "gap"), False, 1)], Status.SATISFIED, "holds"),
    # MetricGap (includes the worked VR2.1 example)
    ("gap-satisfied", MetricGap("miou", "ds-a", "ds-b", 0.05),
     [(MetricResult("miou", ("ds-a",), 0.86), False, 0),
      (MetricResult("miou", ("ds-b",), 0.88), False, 1)], Status.SATISFIED, "0.02"),
    ("gap-violated", MetricGap("miou", "ds-a", "ds-b", 0.05),
     [(MetricResult("miou", ("ds-a",), 0.9), False, 0),
      (MetricResult("miou", ("ds-b",), 0.7), False, 1)], Status.VIOLATED, "0.2"),
    ("gap-precomputed", MetricGap("nap_distance", "ds-a", "ds-b", 0.1),
     [(MetricResult("nap_distance", ("ds-a", "ds-b"), 0.04, "gap"), False, 0)],
     Status.SATISFIED, "0.04"),
    ("gap-precomputed-with-notes", MetricGap("nap_distance", "ds-a", "ds-b", 0.1),
     [(MetricResult("nap_distance", ("ds-a", "ds-b"), 0.04, "gap; warning: 2 samples"), False, 0)],
     Status.SATISFIED, "0.04"),
    ("gap-partial-pending", MetricGap("miou", "ds-a", "ds-b", 0.05),
     [(MetricResult("miou", ("ds-a",), 0.86), False, 0)], Status.PENDING, "ds-b"),
    ("gap-pending", MetricGap("miou", "ds-a", "ds-b", 0.05), [], Status.PENDING, "no evidence"),
    ("gap-stale-side", MetricGap("miou", "ds-a", "ds-b", 0.05),
     [(MetricResult("miou", ("ds-a",), 0.86), False, 0),
      (MetricResult("miou", ("ds-b",), 0.88), True, 1)], Status.ERROR, "stale"),
    # PerCondition (includes the worked VR3.2 example)
    ("conditions-satisfied",
     PerCondition("miou", (Condition("fog", "ds-a", 0.8), Condition("noise", "ds-b", 0.8))),
     [(MetricResult("miou", ("ds-a",), 0.85), False, 0),
      (MetricResult("miou", ("ds-b",), 0.9), False, 1)], Status.SATISFIED, "2 conditions"),
    ("conditions-violated",
     PerCondition("miou", (Condition("fog", "ds-a", 0.8), Condition("noise", "ds-b", 0.8))),
     [(MetricResult("miou", ("ds-a",), 0.85), False, 0),
      (MetricResult("miou", ("ds-b",), 0.78), False, 1)], Status.VIOLATED, "noise"),
    ("conditions-partial-pending",
     PerCondition("miou", (Condition("fog", "ds-a", 0.8), Condition("noise", "ds-b", 0.8))),
     [(MetricResult("miou", ("ds-a",), 0.85), False, 0)], Status.PENDING, "noise"),
    ("conditions-violated-beats-pending",
     PerCondition("miou", (Condition("fog", "ds-a", 0.8), Condition("noise", "ds-b", 0.8))),
     [(MetricResult("miou", ("ds-a",), 0.5), False, 0)], Status.VIOLATED, "fog"),
    ("conditions-stale",
     PerCondition("miou", (Condition("fog", "ds-a", 0.8),)),
     [(MetricResult("miou", ("ds-a",), 0.85), True, 0)], Status.ERROR, "stale"),
    ("conditions-pending",
     PerCondition("miou", (Condition("fog", "ds-a", 0.8),)), [], Status.PENDING, "no evidence"),
    ("conditions-ignore-gap-record",
     PerCondition("miou", (Condition("fog", "ds-a", 0.8),)),
     [(MetricResult("miou", ("ds-a",), 0.9), False, 0),
      (MetricResult("miou", ("ds-a", "ds-b"), 0.02, "gap"), False, 1)], Status.SATISFIED, "all 1 conditions"),
    # ReviewFraction (includes the worked VR1.2.1 example)
    ("review-satisfied", ReviewFraction("ds-a", 0.9),
     [(ReviewLog("ds-a", 100, 95), False, 0)], Status.SATISFIED, "95/100"),
    ("review-boundary", ReviewFraction("ds-a", 0.9),
     [(ReviewLog("ds-a", 100, 90), False, 0)], Status.SATISFIED, "90/100"),
    ("review-violated", ReviewFraction("ds-a", 0.9),
     [(ReviewLog("ds-a", 100, 80), False, 0)], Status.VIOLATED, "80/100"),
    ("review-empty-dataset", ReviewFraction("ds-a", 0.9),
     [(ReviewLog("ds-a", 0, 0), False, 0)], Status.ERROR, "empty dataset"),
    ("review-pending", ReviewFraction("ds-a", 0.9), [], Status.PENDING, "no evidence"),
    ("review-stale", ReviewFraction("ds-a", 0.9),
     [(ReviewLog("ds-a", 100, 95), True, 0)], Status.ERROR, "stale"),
    # FlagResolution (includes the worked VR1.3 example)
    ("flags-satisfied", FlagResolution("clm_flags", "ds-a", 0.5),
     [(FlagResolutionLog("ds-a", ("img7", "img9"),
                         (("img7", Resolution.EXCLUDED), ("img9", Resolution.REVISED))), False, 0)],
     Status.SATISFIED, "2 flagged"),
    ("flags-unresolved", FlagResolution("clm_flags", "ds-a", 0.5),
     [(FlagResolutionLog("ds-a", ("img7", "img9"), (("img7", Resolution.EXCLUDED),)), False, 0)],
     Status.VIOLATED, "img9"),
    ("flags-none-flagged", FlagResolution("clm_flags", "ds-a", 0.5),
     [(FlagResolutionLog("ds-a", (), ()), False, 0)], Status.SATISFIED, "0 flagged"),
    ("flags-no-log-pending", FlagResolution("clm_flags", "ds-a", 0.5),
     [(MetricResult("clm_flags", ("ds-a",), 0.1), False, 0)], Status.PENDING, "no flag-resolution log"),
    ("flags-stale", FlagResolution("clm_flags", "ds-a", 0.5),
     [(FlagResolutionLog("ds-a", ("img7",), (("img7", Resolution.EXCLUDED),)), True, 0)],
     Status.ERROR, "stale"),
    ("flags-latest-log-wins", FlagResolution("clm_flags", "ds-a", 0.5),
     [(FlagResolutionLog("ds-a", ("img7",), ()), False, 0),
      (FlagResolutionLog("ds-a", ("img7",), (("img7", Resolution.REVISED),)), False, 1)],
     Status.SATISFIED, "1 flagged"),
    # QualitativeApproval (includes the worked VR1.1.1 example)
    ("approval-satisfied", QualitativeApproval(2, ("doc-kind",)),
     [(ApprovalRecord("rev-a", "safety", OK, "d1"), False, 0),
      (ApprovalRecord("rev-b", "domain", OK, "d2"), False, 1),
      (DocumentRecord("doc-kind", "ref"), False, 2)], Status.SATISFIED, "2 independent"),
    ("approval-rejected", QualitativeApproval(2, ()),
     [(ApprovalRecord("rev-a", "safety", OK, "d1"), False, 0),
      (ApprovalRecord("rev-b", "domain", NO, "d2"), False, 1)], Status.VIOLATED, "rejected by rev-b"),
    ("approval-same-approver-pending", QualitativeApproval(2, ()),
     [(ApprovalRecord("rev-a", "safety", OK, "d1"), False, 0),
      (ApprovalRecord("rev-a", "safety", OK, "d2"), False, 1)],
     Status.PENDING, "1 distinct approver(s) of 2 required"),
    ("approval-missing-document", QualitativeApproval(1, ("doc-kind",)),
     [(ApprovalRecord("rev-a", "safety", OK, "d1"), False, 0)], Status.PENDING, "doc-kind"),
    ("approval-pending", QualitativeApproval(2, ()), [], Status.PENDING, "no evidence"),
    ("approval-stale", QualitativeApproval(1, ()),
     [(ApprovalRecord("rev-a", "safety", OK, "d1"), True, 0)], Status.ERROR, "stale"),
    ("approval-kind-mismatch", QualitativeApproval(1, ()),
     [(MetricResult("miou", ("ds-a",), 0.9), False, 0)], Status.ERROR, "unusable"),
]


@pytest.mark.parametrize("case_id,payload,record_specs,expected,needle", VR_CASES,
                         ids=[case[0] for case in VR_CASES])
def test_c2_vr_semantics(case_id, payload, record_specs, expected, needle):
    landscape = single_vr_landscape(payload)
    fp = fingerprint(landscape)
    records = tuple(
        record(f"r{i}", "v1", rec_payload, "sha256:outdated" if stale else fp, minute=minute)
        for i, (rec_payload, stale, minute) in enumerate(record_specs)
    )
    verdict = evaluate_vr(landscape.vr("v1"), EvidenceBundle(records), fp)
    assert verdict.status is expected, f"{case_id}: {verdict}"
    assert needle in verdict.explanation, f"{case_id}: {verdict.explanation!r}"


def test_c2_summary_line():
    kinds = {type(case[1]).__name__ for case in VR_CASES}
    assert len(kinds) == 6
    for kind in kinds:
        assert sum(type(case[1]).__name__ == kind for case in VR_CASES) >= 5
    _pass(2, "VR semantics suite")


# --- criterion 3: IoU / mIoU oracle ---------------------------------------------------


def test_c3_iou_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        pred = random_mask(rng, max_side=8)
        truth = LabeledGrid(
            pred.height,
            pred.width,
            tuple(tuple(rng.randint(0, 1) for _ in row) for row in pred.values),
        )
        assert iou(pred, truth) == brute_force_iou(pred, truth)
    pair_one = LabeledGrid(2, 2, ((1, 1), (0, 1)))
    value = miou(
        [pair_one, LabeledGrid(2, 2, ((1, 1), (0, 0)))],
        [pair_one, LabeledGrid(2, 2, ((1, 0), (0, 0)))],
        min_samples=1,
    )
    assert abs(value - 0.75) <= 1e-12
    _pass(3, "IoU/mIoU oracle")


# --- criterion 4: Hellinger properties --------------------------------------------------


def test_c4_hellinger_properties():
    rng = random.Random(4321)
    for _ in range(100):
        neurons = rng.randint(1, 4)
        a = random_activation_table(rng, neurons, rng.randint(1, 15))
        b = random_activation_table(rng, neurons, rng.randint(1, 15))
        d_aa = nap_distance(a, a, min_samples=1)
        d_ab = nap_distance(a, b, min_samples=1)
        d_ba = nap_distance(b, a, min_samples=1)
        assert abs(d_aa) <= 1e-12
        assert abs(d_ab - d_ba) <= 1e-12
        assert d_ab <= 1.0
    closed_a = io.ActivationTable(1, (("s1", (0.0,)), ("s2", (32.0,))))
    closed_b = io.ActivationTable(1, (("t1", (0.0,)), ("t2", (0.0,))))
    value = nap_distance(closed_a, closed_b, min_samples=1)
    assert abs(value - math.sqrt(1 - math.sqrt(0.5))) <= 1e-12
    assert abs(value - 0.541196) <= 1e-6
    _pass(4, "Hellinger properties")


# --- criterion 5: confident-learning oracle ----------------------------------------------


def test_c5_confident_learning_oracle():
    six = ProbabilityTable(
        2,
        (
            ("a", 0, (0.9, 0.1)),
            ("b", 0, (0.8, 0.2)),
            ("c", 0, (0.4, 0.6)),
            ("d", 1, (0.1, 0.9)),
            ("e", 1, (0.3, 0.7)),
            ("f", 1, (0.4, 0.6)),
        ),
    )
    result = clm_flags(six, 0.5, min_samples=1)
    assert [list(row) for row in result.confident_joint] == brute_force_confident_joint(six)
    assert result.confident_joint == ((2, 0), (0, 1))

    rng = random.Random(5555)
    for _ in range(50):
        table = random_prob_table(rng, rng.randint(2, 3), rng.randint(1, 10))
        result = clm_flags(table, rng.random(), min_samples=1)
        assert [list(row) for row in result.confident_joint] == brute_force_confident_joint(table)
    _pass(5, "confident-learning oracle")


# --- criterion 6: end-to-end determinism ----------------------------------------------------


def test_c6_cli_determinism(fixture_paths, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAISC_NOW", "2026-02-01T12:00:00Z")
    landscape_path, evidence_path = fixture_paths
    for fmt in ("table", "json", "dot"):
        runs = []
        for _ in range(2):
            code = main(
                [
                    "evaluate",
                    "--landscape",
                    str(landscape_path),
                    "--evidence",
                    str(evidence_path),
                    "--format",
                    fmt,
                ]
            )
            assert code == 0
            runs.append(capsys.readouterr().out.encode("utf-8"))
        assert runs[0] == runs[1], f"{fmt} output not byte-identical"

    image = LabeledGrid(3, 3, tuple(tuple((r * 3 + c) * 20 for c in range(3)) for r in range(3)))
    mask = LabeledGrid(3, 3, tuple(tuple((r + c) % 2 for c in range(3)) for r in range(3)))
    first = perturb(image, mask, GaussianNoise(sigma=30.0, seed=99))
    second = perturb(image, mask, GaussianNoise(sigma=30.0, seed=99))
    assert io.write_grid(first[0]) == io.write_grid(second[0])
    assert io.write_grid(first[1]) == io.write_grid(second[1])
    _pass(6, "end-to-end determinism")


# --- criterion 7: coverage property ------------------------------------------------------------


def test_c7_coverage_property():
    rng = random.Random(7777)
    checked_nonempty = 0
    for _ in range(100):
        landscape = random_landscape(rng, delete_links=True)
        expected = coverage_oracle(landscape)
        assert gaps_as_pairs(coverage(landscape)) == expected
        if expected:
            checked_nonempty += 1
    assert checked_nonempty >= 20, "generator produced too few gapped landscapes to be meaningful"
    _pass(7, "coverage property")


# --- criterion 8: roll-up property ---------------------------------------------------------------


def test_c8_rollup_property():
    from laisc.evaluation import _aggregate

    rng = random.Random(8888)
    order = [Status.SATISFIED, Status.PENDING, Status.ERROR, Status.VIOLATED]
    pool = (Status.SATISFIED, Status.VIOLATED, Status.PENDING, Status.ERROR)
    for _ in range(500):
        statuses = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        result = _aggregate(statuses, "empty").status
        if Status.VIOLATED in statuses:
            assert result is Status.VIOLATED
        elif Status.ERROR in statuses:
            assert result is Status.ERROR
        elif Status.PENDING in statuses:
            assert result is Status.PENDING
        else:
            assert result is Status.SATISFIED
        with_satisfied = _aggregate(statuses + [Status.SATISFIED], "empty").status
        assert order.index(with_satisfied) <= order.index(result)
    _pass(8, "roll-up property")


# --- criterion 9: round-trip -----------------------------------------------------------------------


def test_c9_round_trip(fixture_landscape):
    data = io.serialize_landscape(fixture_landscape)
    assert io.parse_landscape(data) == fixture_landscape
    assert io.serialize_landscape(io.parse_landscape(data)) == data
    assert fixtures.fixture_path().read_bytes() == data

    rng = random.Random(9999)
    for _ in range(100):
        landscape = random_landscape(rng, delete_links=rng.random() < 0.5)
        serialized = io.serialize_landscape(landscape)
        assert io.parse_landscape(serialized) == landscape
        assert io.serialize_landscape(io.parse_landscape(serialized)) == serialized
    _pass(9, "round-trip")
