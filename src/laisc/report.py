"""Renderers for evaluation reports: fixed-width table, DOT tree, JSON.

Renderers never recompute anything; every status they emit is read from
the evaluation report (``vr_verdicts``, ``effective_statuses`` and the
roll-ups), never derived from the landscape, and equal reports render to
equal bytes.  The fingerprint is the one ``evaluate`` computed, which the
landscape caches.
"""

from __future__ import annotations

from laisc.codec import dump_canonical, format_timestamp, gc_paused, to_node
from laisc.errors import UnsupportedFormat
from laisc.evaluation import EvaluationReport, Status
from laisc.model import fingerprint

_TABLE_COLUMNS = ("AI-SC", "Stage in AI Life Cycle", "Decomposition", "VR", "M&M", "Status")


@gc_paused()
def render_table(report: EvaluationReport) -> bytes:
    """Fixed-width text table, one line per visible landscape row, plus a
    roll-up footer."""
    body = [
        (
            row.concern_name,
            row.stage_name,
            row.decomposition,
            row.vr_id,
            row.mm_name,
            report.effective_statuses[row.vr_id].value,
        )
        for row in report.rows
    ]
    widths = [
        max(len(_TABLE_COLUMNS[i]), *(len(line[i]) for line in body)) if body else len(_TABLE_COLUMNS[i])
        for i in range(len(_TABLE_COLUMNS))
    ]

    # One format call per line, each cell left-aligned in its column.
    fmt = " | ".join(f"{{:<{width}}}" for width in widths).format
    lines = [fmt(*_TABLE_COLUMNS).rstrip(), "-+-".join("-" * width for width in widths)]
    lines.extend(fmt(*line).rstrip() for line in body)
    counts = report.status_counts()
    summary = (
        f"{counts[Status.SATISFIED]} satisfied / {counts[Status.VIOLATED]} violated / "
        f"{counts[Status.PENDING]} pending / {counts[Status.ERROR]} error"
    )
    if counts[Status.NOT_APPLICABLE]:
        summary += f" / {counts[Status.NOT_APPLICABLE]} not applicable"
    footer = f"{summary} | coverage gaps: {len(report.coverage_gaps)}"
    if report.orphaned_evidence_ids:
        footer += f" | orphaned evidence records: {len(report.orphaned_evidence_ids)}"
    lines.append("")
    lines.append(f"landscape: {report.landscape.name}  filter: {report.filter.describe()}")
    lines.append(footer)
    return ("\n".join(lines) + "\n").encode("utf-8")


_STATUS_COLORS = {
    Status.SATISFIED: "palegreen",
    Status.VIOLATED: "lightcoral",
    Status.PENDING: "lightyellow",
    Status.ERROR: "orange",
    Status.NOT_APPLICABLE: "lightgray",
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


@gc_paused()
def render_argument_tree(report: EvaluationReport) -> bytes:
    """DOT digraph of the concern -> goal -> VR decomposition with each
    node labeled by its status."""
    landscape = report.landscape
    lines = [
        "digraph landscape {",
        "  rankdir=LR;",
        '  node [shape=box, style=filled, fontname="Helvetica"];',
    ]
    edges: list[str] = []
    for concern in landscape.concerns:
        rollup = report.concern_rollups[concern.id]
        lines.append(
            f'  "{_dot_escape(concern.id)}" [label="{_dot_escape(concern.name)}'
            f'\\n[{rollup.status.value}]", fillcolor={_STATUS_COLORS[rollup.status]}];'
        )
        for goal_id in concern.goal_ids:
            edges.append(f'  "{_dot_escape(concern.id)}" -> "{_dot_escape(goal_id)}";')
    for goal in landscape.goals:
        rollup = report.goal_rollups[goal.id]
        lines.append(
            f'  "{_dot_escape(goal.id)}" [label="{_dot_escape(goal.statement)}'
            f'\\n({_dot_escape(goal.id)}) [{rollup.status.value}]", fillcolor={_STATUS_COLORS[rollup.status]}];'
        )
        for vr_id in goal.vr_ids:
            edges.append(f'  "{_dot_escape(goal.id)}" -> "{_dot_escape(vr_id)}";')
    for vr in landscape.vrs:
        status = report.effective_statuses[vr.id]
        lines.append(
            f'  "{_dot_escape(vr.id)}" [label="{_dot_escape(vr.id)}'
            f'\\n[{status.value}]", fillcolor={_STATUS_COLORS[status]}];'
        )
    lines.extend(edges)
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@gc_paused()
def render_json(report: EvaluationReport) -> bytes:
    """Canonical machine-readable dump of the (possibly filtered) report."""
    visible = report.visible_vr_ids()
    visible_goals = sorted({row.goal_id for row in report.rows})
    visible_concerns = sorted({row.concern_id for row in report.rows})
    counts = report.status_counts()
    node = {
        "landscape": report.landscape.name,
        "fingerprint": fingerprint(report.landscape),
        "generated_at": format_timestamp(report.generated_at),
        "filter": report.filter.describe(),
        "verdicts": {
            vr_id: {**to_node(report.vr_verdicts[vr_id]), "effective_status": report.effective_statuses[vr_id].value}
            for vr_id in visible
        },
        "goals": {goal_id: to_node(report.goal_rollups[goal_id]) for goal_id in visible_goals},
        "concerns": {concern_id: to_node(report.concern_rollups[concern_id]) for concern_id in visible_concerns},
        "coverage_gaps": [to_node(gap) for gap in report.coverage_gaps],
        "orphaned_evidence_ids": list(report.orphaned_evidence_ids),
        "summary": {
            "satisfied": counts[Status.SATISFIED],
            "violated": counts[Status.VIOLATED],
            "pending": counts[Status.PENDING],
            "error": counts[Status.ERROR],
            "not_applicable": counts[Status.NOT_APPLICABLE],
            "coverage_gaps": len(report.coverage_gaps),
        },
    }
    return dump_canonical(node)


_RENDERERS = {"table": render_table, "json": render_json, "dot": render_argument_tree}

REPORT_FORMATS = tuple(_RENDERERS)


def serialize_report(report: EvaluationReport, fmt: str) -> bytes:
    """Render an evaluation report in one of ``table``, ``json``, ``dot``."""
    if fmt not in _RENDERERS:
        raise UnsupportedFormat(fmt, REPORT_FORMATS)
    return _RENDERERS[fmt](report)
