from __future__ import annotations

import json
from datetime import datetime, timezone

from helpers import single_vr_landscape
from laisc.evaluation import Filter, Status, evaluate
from laisc.io import EvidenceBundle
from laisc.model import ReviewFraction
from laisc.report import render_argument_tree, render_json, render_table

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
