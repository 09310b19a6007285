from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from helpers import random_bundle, random_landscape, single_vr_landscape
from laisc.evaluation import Filter, Status, evaluate
from laisc.io import EvidenceBundle
from laisc.model import ReviewFraction, fingerprint
from laisc.report import render_argument_tree, render_json, render_table, serialize_report

NOW = datetime(2026, 2, 1, 12, 0, 0, tzinfo=timezone.utc)


def _report(landscape, bundle, **kwargs):
    return evaluate(landscape, bundle, now=NOW, **kwargs)


def test_table_header_and_row_count(fixture_landscape, demo_bundle):
    text = render_table(_report(fixture_landscape, demo_bundle)).decode()
    lines = text.splitlines()
    header = [cell.strip() for cell in lines[0].split("|")]
    assert header == ["AI-SC", "Stage in AI Life Cycle", "Decomposition", "VR", "M&M", "Status"]
    body = lines[2 : 2 + 10]
    assert len(body) == 10
    assert "10 satisfied" in text
    assert "coverage gaps: 0" in text


def test_table_filtered_row_counts(fixture_landscape, demo_bundle):
    text = render_table(_report(fixture_landscape, demo_bundle, flt=Filter(stage="Modeling"))).decode()
    assert sum("Modeling" in line for line in text.splitlines()) == 3
    assert "3 satisfied" in text


def test_empty_landscape_table():
    from laisc.model import build_landscape

    landscape = build_landscape(name="empty")
    text = render_table(_report(landscape, EvidenceBundle(()))).decode()
    assert "0 satisfied / 0 violated / 0 pending / 0 error" in text


def test_table_is_byte_deterministic(fixture_landscape, demo_bundle):
    a = render_table(_report(fixture_landscape, demo_bundle))
    b = render_table(_report(fixture_landscape, demo_bundle))
    assert a == b


def test_dot_counts_for_fixture(fixture_landscape, demo_bundle):
    text = render_argument_tree(_report(fixture_landscape, demo_bundle)).decode()
    node_lines = [line for line in text.splitlines() if "[label=" in line]
    edge_lines = [line for line in text.splitlines() if "->" in line]
    assert len(node_lines) == 3 + 8 + 10
    assert len(edge_lines) == 8 + 10
    assert text.startswith("digraph")


def test_dot_single_chain_counts():
    landscape = single_vr_landscape(ReviewFraction("ds-a", 0.5))
    text = render_argument_tree(_report(landscape, EvidenceBundle(()))).decode()
    assert sum("[label=" in line for line in text.splitlines()) == 3
    assert sum("->" in line for line in text.splitlines()) == 2


def test_dot_not_applicable_label():
    landscape = single_vr_landscape(ReviewFraction("ds-a", 0.5), relevant=False)
    text = render_argument_tree(_report(landscape, EvidenceBundle(()))).decode()
    assert "[NotApplicable]" in text


def test_table_footer_counts_not_applicable_rows():
    landscape = single_vr_landscape(ReviewFraction("ds-a", 0.5), relevant=False)
    text = render_table(_report(landscape, EvidenceBundle(()))).decode()
    assert "1 not applicable" in text
    assert "NotApplicable" in text  # the row itself stays visible


def test_json_render_is_deterministic_and_recoverable(fixture_landscape, demo_bundle):
    a = render_json(_report(fixture_landscape, demo_bundle))
    b = render_json(_report(fixture_landscape, demo_bundle))
    assert a == b
    node = json.loads(a)
    assert set(node["verdicts"]) == {vr.id for vr in fixture_landscape.vrs}
    assert all(v["status"] == "Satisfied" for v in node["verdicts"].values())
    assert node["summary"]["satisfied"] == 10


def test_json_filtered_contains_only_filtered_vrs(fixture_landscape, demo_bundle):
    node = json.loads(render_json(_report(fixture_landscape, demo_bundle, flt=Filter(stage="Modeling"))))
    assert set(node["verdicts"]) == {"VR3.1", "VR3.2", "VR3.3"}
    assert set(node["concerns"]) == {"sc3-robustness"}


def test_render_faithfulness(fixture_landscape, demo_bundle):
    report = _report(fixture_landscape, demo_bundle)
    node = json.loads(render_json(report))
    for vr_id, entry in node["verdicts"].items():
        assert entry["status"] == report.vr_verdicts[vr_id].status.value
    table_lines = render_table(report).decode().splitlines()
    for row in report.rows:
        status = report.effective_statuses[row.vr_id]
        line = next(
            line
            for line in table_lines
            if line.count("|") == 5 and line.split("|")[3].strip() == row.vr_id
        )
        assert line.split("|")[5].strip() == status.value


def test_table_rows_match_apply_filter(fixture_landscape, demo_bundle):
    from laisc.evaluation import apply_filter

    flt = Filter(concern="Inaccurate data labels")
    report = _report(fixture_landscape, demo_bundle, flt=flt)
    expected = apply_filter(fixture_landscape, flt)
    assert list(report.rows) == expected


def _seeded_report(seed: int):
    """A report on a random landscape with missing links, addressed by a
    random bundle whose records are fresh, stale or orphaned, filtered to
    the last stage."""
    rng = random.Random(seed)
    landscape = random_landscape(rng, delete_links=True)
    current = fingerprint(landscape)
    targets = [vr.id for vr in landscape.vrs] + ["VR-GHOST"]
    records = tuple(
        replace(r, vr_id=rng.choice(targets), landscape_fingerprint=rng.choice((current, current, "sha256:old")))
        for r in random_bundle(rng).records
    )
    return _report(landscape, EvidenceBundle(records), flt=Filter(stage=landscape.stages[-1].name))


#: sha256 of each report format for ``_seeded_report(seed)``.
_SEEDED_REPORT_SHA256 = {
    (37, "dot"): "02ef12d5489b66bf524de2f0c9a75201054172ad9fd848c93f8c313ba07266c0",
    (37, "json"): "35bb6abbc32e1108a3db197e711a3d93852b403c72e9005481f5d052a5782f2a",
    (37, "table"): "457aebc72c101b823885c8a2df0cfd56a6444f6b8c08a3ec5ac0fb3649ff40f1",
    (81, "dot"): "b2fb41bc8f4be8cd3d2a1d6cfda511fbe6ed7698e6a235c70f8c736299e477ae",
    (81, "json"): "5fa642155d6ea2d25d3275f2c18e14b2be87f55e2de06270a3db5aac60fb78e1",
    (81, "table"): "a6c059072b69dd92d8c26e03023ebfee12dafc976194e4275bd108f44194c774",
    (169, "dot"): "06e06ca6f7b24bd9ad178a03fbefccba6305982a270571847a2c9f6066900f1c",
    (169, "json"): "52824727bfcceb19f7379d25191b42a22c7f136333998edb822ebfa9936d64cd",
    (169, "table"): "12e6ce39a6c8ad26ac752de082f0685cb1beef640048b385877600c0abd140d5",
}


@pytest.mark.parametrize("seed, fmt", sorted(_SEEDED_REPORT_SHA256))
def test_seeded_report_bytes_are_pinned(seed, fmt):
    report = _seeded_report(seed)
    # The seeds are chosen so that the pins cover coverage gaps, orphaned
    # records, a filter that hides part of the landscape and a verdict under
    # a concern that is not relevant.
    assert report.coverage_gaps and report.orphaned_evidence_ids
    assert 0 < len(report.visible_vr_ids()) < len(report.landscape.vrs)
    assert Status.NOT_APPLICABLE in report.effective_statuses.values()
    digest = hashlib.sha256(serialize_report(report, fmt)).hexdigest()
    assert digest == _SEEDED_REPORT_SHA256[seed, fmt]
