from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import laisc
from laisc import fixtures, io, metrics
from laisc.cli import main
from laisc.evaluation import Status, evaluate
from laisc.io import write_grid, LabeledGrid

PINNED_NOW = "2026-02-01T12:00:00Z"


@pytest.fixture(autouse=True)
def _pin_clock(monkeypatch):
    monkeypatch.setenv("LAISC_NOW", PINNED_NOW)


def _grid_file(tmp_path, name, values):
    grid = LabeledGrid(len(values), len(values[0]), tuple(tuple(r) for r in values))
    path = tmp_path / name
    path.write_bytes(write_grid(grid))
    return path


# --- validate / coverage --------------------------------------------------------


def test_validate_fixture(fixture_paths, capsys):
    landscape_path, _ = fixture_paths
    assert main(["validate", "--landscape", str(landscape_path)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "coverage gaps: 0" in out


def test_validate_reports_gaps(fixture_paths, capsys, tmp_path):
    landscape_path, _ = fixture_paths
    node = json.loads(landscape_path.read_bytes())
    for vr in node["vrs"]:
        if vr["id"] == "VR2.2":
            vr["mm_ids"] = []
    for measure in list(node["mitigation_measures"]):
        if measure["id"] == "mm-neural-activation-metric":
            node["mitigation_measures"].remove(measure)
    gapped = tmp_path / "gapped.laisc.json"
    gapped.write_text(json.dumps(node))
    assert main(["validate", "--landscape", str(gapped)]) == 2
    out = capsys.readouterr().out
    assert "VRWithoutMM: VR2.2" in out


def test_validate_refuses_a_flag_threshold_past_one(fixture_paths, capsys, tmp_path):
    # No score is below a threshold past 1 alone, so every instance would be flagged.
    landscape_path, _ = fixture_paths
    text = landscape_path.read_bytes()
    assert text.count(b'"flag_threshold": 0.5,') == 1
    bad = tmp_path / "flag-threshold.laisc.json"
    bad.write_bytes(text.replace(b'"flag_threshold": 0.5,', b'"flag_threshold": 1.5,'))
    assert main(["validate", "--landscape", str(bad)]) == 3
    assert capsys.readouterr().err == "error: invalid payload for VR1.3: flag_threshold must be in [0, 1], got 1.5\n"


def test_validate_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.laisc.json"
    bad.write_text('{"name": ')
    assert main(["validate", "--landscape", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "evaluate-json"])
def test_lone_surrogate_in_landscape_exits_three(command, fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    data = landscape_path.read_bytes()
    landscape_path.write_bytes(data.replace(b'"train-track', b'"train-\\ud800-track', 1))
    argv = {
        "validate": ["validate", "--landscape", str(landscape_path)],
        "evaluate-json": [
            "evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path), "--format", "json"
        ],
    }[command]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lone surrogate '\\ud800'" in captured.err


def test_empty_record_id_exits_three(fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    node = json.loads(evidence_path.read_bytes())
    node["records"][0]["id"] = ""
    evidence_path.write_text(json.dumps(node))
    argv = ["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path), "--format", "json"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$.records[0].id: expected non-empty string" in captured.err


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_missing_file_is_input_error(command, fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    argv = {
        "validate": ["validate", "--landscape", str(tmp_path / "nope.json")],
        "evaluate": ["evaluate", "--landscape", str(landscape_path), "--evidence", str(tmp_path / "nope.json")],
    }[command]
    assert main(argv) == 3
    assert "nope.json" in capsys.readouterr().err


def test_coverage_fixture(fixture_paths, capsys):
    landscape_path, _ = fixture_paths
    assert main(["coverage", "--landscape", str(landscape_path)]) == 0
    assert "coverage gaps: 0" in capsys.readouterr().out


# --- evaluate ----------------------------------------------------------------------


def test_evaluate_all_satisfied_exits_zero(fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    code = main(["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "10 satisfied / 0 violated / 0 pending / 0 error" in out


def test_evaluate_empty_bundle_is_pending(fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    empty = tmp_path / "empty.evidence.json"
    empty.write_text('{"source": "", "records": []}')
    code = main(["evaluate", "--landscape", str(landscape_path), "--evidence", str(empty)])
    out = capsys.readouterr().out
    assert code == 2
    assert "0 satisfied / 0 violated / 10 pending / 0 error" in out


def test_evaluate_with_failing_condition_exits_one(fixture_paths, tmp_path, capsys):
    landscape_path, evidence_path = fixture_paths
    node = json.loads(evidence_path.read_bytes())
    for entry in node["records"]:
        if entry["payload"].get("dataset_ids") == ["d-sensor-noise"]:
            entry["payload"]["value"] = 0.78
    failing = tmp_path / "failing.evidence.json"
    failing.write_text(json.dumps(node))
    code = main(["evaluate", "--landscape", str(landscape_path), "--evidence", str(failing)])
    out = capsys.readouterr().out
    assert code == 1
    assert "9 satisfied / 1 violated" in out


def test_evaluate_unknown_filter_exits_three(fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    code = main(
        [
            "evaluate",
            "--landscape",
            str(landscape_path),
            "--evidence",
            str(evidence_path),
            "--stage",
            "Retirement",
        ]
    )
    assert code == 3
    assert "matches no id or name" in capsys.readouterr().err


@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", "2026-W02-1T08:00:00+00:00"])
@pytest.mark.parametrize("where", ["evidence", "LAISC_NOW"])
def test_timestamp_outside_the_grammar_or_utc_exits_three(where, stamp, fixture_paths, monkeypatch, capsys):
    """A time UTC cannot hold, or a spelling outside the one grammar, is
    bad input (exit 3) and not a traceback (exit 1, the "violated" code)."""
    landscape_path, evidence_path = fixture_paths
    if where == "evidence":
        text = evidence_path.read_text()
        evidence_path.write_text(text.replace('"2026-01-05T08:00:00+00:00"', f'"{stamp}"', 1))
    else:
        monkeypatch.setenv("LAISC_NOW", stamp)
    assert main(["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid timestamp {stamp!r}: ")


def test_evaluate_outputs_byte_identical_across_runs(fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    outputs = {}
    for fmt in ("table", "json", "dot"):
        runs = []
        for _ in range(2):
            main(
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
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        outputs[fmt] = runs[0]
    assert outputs["json"] != outputs["table"] != outputs["dot"]


#: sha256 of ``evaluate --format <fmt>`` on the shipped fixture at PINNED_NOW.
_FIXTURE_REPORT_SHA256 = {
    "table": "8998e2e99c44b6332a0fe7cebc89baa8e040ea3d5b77cdd70cd8373e0d855f90",
    "json": "d06342204d35112d471965538e1a8fdec06efb08661805efb7ea0c47ce93cd9c",
    "dot": "65e4319f9055d8ddfc97ddf4a5d423d264e3a5d6c1a4241072812b1fa5326532",
}


@pytest.mark.parametrize("fmt", sorted(_FIXTURE_REPORT_SHA256))
def test_fixture_report_bytes_are_pinned(fmt, capsys):
    landscape_path, evidence_path = fixtures.fixture_path(), fixtures.fixture_path(fixtures.EVIDENCE_FILENAME)
    argv = ["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path), "--format", fmt]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == _FIXTURE_REPORT_SHA256[fmt]


#: sha256 of ``evaluate --format <fmt> <flag> <value>`` on the shipped
#: fixture at PINNED_NOW: one filter per key.  The DOT tree draws the whole
#: landscape whatever the filter, so its four digests are the unfiltered one.
_FILTERED_REPORT_SHA256 = {
    ("table", "--concern", "Inaccurate data labels"): (
        "bd2e13431b04c22c1d7f6f011773dccacd7a89dd02a4c0ede3db52d2517479e5"
    ),
    ("table", "--stage", "Modeling"): "cc3837f588bfd3a8c9aa7d8dbaffe64242485c02c19574185aa022811672bd9e",
    ("table", "--component", "comp-track-detector"): "9925db6e43eb69d480762ca8c4b4a6f029cdd1244e9a55bb739638ae9b25466a",
    ("table", "--status", "satisfied"): "2451a1940ccefbbeff0aedbe0dd5b52faf08a3e7f4610dbaa75ebffa9b3e4cdb",
    ("json", "--concern", "Inaccurate data labels"): "64a449a1a7de9bfa95d637f8d49312bb2f7bb4f621ba20246d43d51b7e0be8b9",
    ("json", "--stage", "Modeling"): "0bc3707fe4170b60178e7945ed014d8189295489582689a6c119ba6d07028c7e",
    ("json", "--component", "comp-track-detector"): "3c9727f9da4e1292369aa3648feff1546d493c710a71a9d1714a17e695510411",
    ("json", "--status", "satisfied"): "492bb2ccd8e63a9ad6a1dff53c0f0ca5ab580de3d8c3648e87e9423753a0d821",
    ("dot", "--concern", "Inaccurate data labels"): _FIXTURE_REPORT_SHA256["dot"],
    ("dot", "--stage", "Modeling"): _FIXTURE_REPORT_SHA256["dot"],
    ("dot", "--component", "comp-track-detector"): _FIXTURE_REPORT_SHA256["dot"],
    ("dot", "--status", "satisfied"): _FIXTURE_REPORT_SHA256["dot"],
}


@pytest.mark.parametrize("fmt, flag, value", sorted(_FILTERED_REPORT_SHA256))
def test_filtered_report_bytes_are_pinned(fmt, flag, value, capsys):
    landscape_path, evidence_path = fixtures.fixture_path(), fixtures.fixture_path(fixtures.EVIDENCE_FILENAME)
    argv = ["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path), "--format", fmt]
    assert main([*argv, flag, value]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == _FILTERED_REPORT_SHA256[fmt, flag, value]


def _zurich_landscape(landscape_path) -> None:
    node = json.loads(landscape_path.read_bytes())
    node["name"] += "-Zürich"
    landscape_path.write_bytes(json.dumps(node, ensure_ascii=False).encode("utf-8"))


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("command", ["table", "json", "validate"])
def test_stdout_is_utf8_whatever_the_locale(command, encoding, fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    _zurich_landscape(landscape_path)
    if command == "validate":
        argv = ["validate", "--landscape", str(landscape_path)]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode("utf-8")
    else:
        argv = ["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path), "--format", command]
        result = laisc.evaluate(
            io.parse_landscape(landscape_path.read_bytes()),
            io.parse_evidence(evidence_path.read_bytes()),
            now=io.parse_timestamp(PINNED_NOW),
        )
        expected = laisc.serialize_report(result, command)
    assert "Zürich".encode("utf-8") in expected
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(laisc.__file__).parents[1]),
        "PYTHONIOENCODING": encoding,
        "LAISC_NOW": PINNED_NOW,
    }
    done = subprocess.run([sys.executable, "-m", "laisc.cli", *argv], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert done.stdout == expected


def test_validate_writes_to_a_text_stream_without_a_buffer(fixture_paths):
    # A caller may redirect stdout to an io.StringIO, which has no byte buffer.
    landscape_path, _ = fixture_paths
    _zurich_landscape(landscape_path)
    captured = StringIO()
    with redirect_stdout(captured):
        assert main(["validate", "--landscape", str(landscape_path)]) == 0
    assert captured.getvalue().startswith("landscape 'train-track-detector-Zürich' is valid")


# --- metric subcommands --------------------------------------------------------------


def _two_pair_dirs(tmp_path):
    pred_dir = tmp_path / "pred"
    truth_dir = tmp_path / "truth"
    pred_dir.mkdir()
    truth_dir.mkdir()
    # pair one: identical masks (IoU 1.0); pair two: IoU 0.5
    identical = [[1, 1], [0, 1]]
    _grid_file(pred_dir, "a.grid", identical)
    _grid_file(truth_dir, "a.grid", identical)
    _grid_file(pred_dir, "b.grid", [[1, 1], [0, 0]])
    _grid_file(truth_dir, "b.grid", [[1, 0], [0, 0]])
    return pred_dir, truth_dir


def test_metric_miou_writes_expected_record(fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    pred_dir, truth_dir = _two_pair_dirs(tmp_path)
    out_path = tmp_path / "run.evidence.json"
    code = main(
        [
            "metric",
            "miou",
            "--pred",
            str(pred_dir),
            "--truth",
            str(truth_dir),
            "--dataset",
            "d-counterfactual",
            "--landscape",
            str(landscape_path),
            "--vr",
            "VR3.3",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "miou = 0.75" in capsys.readouterr().out
    bundle = io.parse_evidence(out_path.read_bytes())
    assert len(bundle.records) == 1
    rec = bundle.records[0]
    assert rec.payload.value == 0.75
    assert rec.payload.dataset_ids == ("d-counterfactual",)
    assert "warning" in rec.payload.config_note  # 2 pairs < 30
    assert io.format_timestamp(rec.timestamp) == "2026-02-01T12:00:00+00:00"


@pytest.mark.parametrize(
    "edit, err",
    [
        (lambda pred, truth: (truth / "b.grid").unlink(), "2 prediction grids vs 1 ground-truth grids"),
        (lambda pred, truth: [path.unlink() for path in pred.iterdir()], "no *.grid files in"),
        # pred holds a.grid and c.grid, truth a.grid and b.grid: b.grid comes first
        (lambda pred, truth: (pred / "b.grid").rename(pred / "c.grid"), "b.grid is in {truth} but not in {pred}"),
    ],
    ids=["unequal-counts", "empty-pred-dir", "unpaired-names"],
)
def test_metric_miou_without_paired_grids_exits_three(edit, err, fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    pred_dir, truth_dir = _two_pair_dirs(tmp_path)
    edit(pred_dir, truth_dir)
    out_path = tmp_path / "run.evidence.json"
    argv = ["metric", "miou", "--pred", str(pred_dir), "--truth", str(truth_dir), "--dataset", "d-counterfactual",
            "--landscape", str(landscape_path), "--vr", "VR3.3", "--out", str(out_path)]
    assert main(argv) == 3
    assert err.format(pred=pred_dir, truth=truth_dir) in capsys.readouterr().err
    assert not out_path.exists()


def test_metric_gap_and_evidence_append(fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    out_path = tmp_path / "run.evidence.json"
    args = [
        "metric",
        "gap",
        "--a",
        "0.86",
        "--b",
        "0.88",
        "--metric",
        "miou",
        "--dataset-a",
        "d-real",
        "--dataset-b",
        "d-synth",
        "--landscape",
        str(landscape_path),
        "--vr",
        "VR2.1",
        "--out",
        str(out_path),
    ]
    assert main(args) == 0
    assert main(args) == 0
    bundle = io.parse_evidence(out_path.read_bytes())
    assert [r.id for r in bundle.records] == ["rec-0000", "rec-0001"]
    assert bundle.records[0].payload == bundle.records[1].payload
    assert bundle.records[0].payload.config_note == "gap"
    assert bundle.records[0].payload.value == pytest.approx(0.02, abs=1e-12)


def test_metric_append_skips_a_taken_record_id(fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    out_path = tmp_path / "run.evidence.json"
    argv = _metric_argv("gap", landscape_path, out_path)
    assert main(argv) == 0
    node = json.loads(out_path.read_bytes())
    node["records"][0]["id"] = "rec-0001"
    out_path.write_text(json.dumps(node))
    assert main(argv) == 0
    assert "appended rec-0002" in capsys.readouterr().out
    assert [r.id for r in io.parse_evidence(out_path.read_bytes()).records] == ["rec-0001", "rec-0002"]


def test_metric_gap_records_the_metric_of_its_vr(fixture_paths, tmp_path, capsys):
    """Without --metric, ``metric gap`` records the metric its --vr
    measures; a VR that measures none still gets nothing."""
    landscape_path, _ = fixture_paths
    out_path = tmp_path / "run.evidence.json"
    argv = [
        "metric", "gap", "--a", "0.1", "--b", "0.2", "--dataset-a", "d-real", "--dataset-b", "d-synth",
        "--landscape", str(landscape_path), "--out", str(out_path),
    ]
    assert main([*argv, "--vr", "VR2.1"]) == 0
    assert "miou = " in capsys.readouterr().out
    (rec,) = io.parse_evidence(out_path.read_bytes()).records
    assert (rec.vr_id, rec.payload.metric_id, rec.payload.config_note) == ("VR2.1", "miou", "gap")
    before = out_path.read_bytes()
    assert main([*argv, "--vr", "VR1.1.1"]) == 3
    assert "VR1.1.1" in capsys.readouterr().err
    assert out_path.read_bytes() == before


def test_metric_gap_past_the_float_range_appends_nothing(fixture_paths, capsys):
    """The gap of 1e308 and -1e308 is infinite; its record would make the
    bundle unreadable, so the bundle that would hold it refuses it, naming
    the new record's path, before the file is touched."""
    landscape_path, evidence_path = fixture_paths
    before = evidence_path.read_bytes()
    argv = _metric_argv("gap", landscape_path, evidence_path, a="1e308")
    b = argv.index("--b")
    argv[b : b + 2] = ["--b=-1e308"]  # argparse reads "--b -1e308" as a missing value
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid payload for $.records[24]: value must be a finite number, got inf\n"
    assert evidence_path.read_bytes() == before
    assert main(["validate", "--landscape", str(landscape_path)]) == 0
    assert main(["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path)]) != 3


def test_metric_nap_identical_files_zero(fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    acts = "sample_id,a_0,a_1\ns1,0.5,1.0\ns2,-0.25,2.0\n"
    file_a = tmp_path / "real.acts.csv"
    file_b = tmp_path / "synth.acts.csv"
    file_a.write_text(acts)
    file_b.write_text(acts)
    out_path = tmp_path / "run.evidence.json"
    code = main(
        [
            "metric",
            "nap",
            "--a",
            str(file_a),
            "--b",
            str(file_b),
            "--dataset-a",
            "nap-real",
            "--dataset-b",
            "nap-synth",
            "--landscape",
            str(landscape_path),
            "--vr",
            "VR2.2",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "nap_distance = 0.0" in capsys.readouterr().out


def test_metric_clm_writes_flag_log(fixture_paths, tmp_path, capsys):
    landscape_path, _ = fixture_paths
    probs = "instance_id,label,p_0,p_1\nimg-1,0,0.9,0.1\nimg-2,0,0.3,0.7\nimg-3,1,0.2,0.8\n"
    probs_path = tmp_path / "train.probs.csv"
    probs_path.write_text(probs)
    out_path = tmp_path / "run.evidence.json"
    code = main(
        [
            "metric",
            "clm",
            "--probs",
            str(probs_path),
            "--dataset",
            "d-train",
            "--landscape",
            str(landscape_path),
            "--vr",
            "VR1.3",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flagged: img-2" in out
    bundle = io.parse_evidence(out_path.read_bytes())
    kinds = [r.kind for r in bundle.records]
    assert kinds == ["MetricResult", "FlagResolutionLog"]
    assert bundle.records[1].payload.flagged_ids == ("img-2",)
    assert bundle.records[1].payload.entries == ()


def _metric_argv(command, landscape_path, out_path, **overrides):
    """``laisc metric <command>`` on the fixture with declared ids, except
    for ``overrides`` (flag name with ``_`` for ``-``)."""
    flags = {
        "gap": {
            "a": "0.86", "b": "0.88", "metric": "miou", "dataset_a": "d-real", "dataset_b": "d-synth", "vr": "VR2.1"
        },
        "clm": {"dataset": "d-train", "vr": "VR1.3"},
    }[command]
    flags.update(landscape=str(landscape_path), out=str(out_path), **overrides)
    argv = ["metric", command]
    for name, value in flags.items():
        argv += [f"--{name.replace('_', '-')}", value]
    return argv


@pytest.mark.parametrize(
    "command,override",
    [
        ("gap", {"vr": "VR-nope"}),
        ("gap", {"dataset_a": "d-nowhere"}),
        ("gap", {"dataset_b": "d-nowhere"}),
        ("clm", {"vr": "VR-nope"}),
        ("clm", {"dataset": "d-nowhere"}),
        ("gap", {"vr": "VR1.1.1"}),
        ("gap", {"vr": "VR2.2"}),
        ("clm", {"vr": "VR1.2.1"}),
        ("gap", {"vr": "VR3.2", "dataset_a": "d-adverse-lighting", "dataset_b": "d-adverse-weather"}),
        ("gap", {"vr": "VR3.3", "dataset_a": "d-counterfactual", "dataset_b": "d-counterfactual"}),
        ("gap", {"vr": "VR1.2.2", "dataset_a": "d-test-pred-acc", "dataset_b": "d-test-pred-acc"}),
    ],
    ids=[
        "gap-vr", "gap-dataset-a", "gap-dataset-b", "clm-vr", "clm-dataset",
        "gap-unbound-vr", "gap-other-metric-vr", "clm-metricless-vr",
        "gap-per-condition-vr", "gap-threshold-vr", "gap-one-side-of-gap-vr",
    ],
)
@pytest.mark.parametrize("existing", [True, False], ids=["existing-bundle", "no-bundle"])
def test_metric_with_undeclared_id_exits_three_and_appends_nothing(
    command, override, existing, fixture_paths, tmp_path, capsys
):
    landscape_path, evidence_path = fixture_paths
    probs_path = tmp_path / "train.probs.csv"
    probs_path.write_text("instance_id,label,p_0,p_1\nimg-1,0,0.9,0.1\nimg-2,0,0.3,0.7\n")
    out_path = evidence_path if existing else tmp_path / "new.evidence.json"
    before = evidence_path.read_bytes()
    inputs = {"probs": str(probs_path)} if command == "clm" else {}
    assert main(_metric_argv(command, landscape_path, out_path, **inputs, **override)) == 3
    captured = capsys.readouterr()
    assert all(bad in captured.err for bad in override.values())
    assert captured.out == ""
    assert evidence_path.read_bytes() == before
    assert out_path.exists() is existing


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("miou", ["--pred", "missing.grid", "--truth", "missing.grid", "--dataset", "d-counterfactual"]),
        ("gap", ["--a", "nan", "--b", "0.5", "--dataset-a", "d-real", "--dataset-b", "d-synth"]),
        ("nap", ["--a", "missing.acts.csv", "--b", "missing.acts.csv", "--dataset-a", "nap-real",
                 "--dataset-b", "nap-synth"]),
        ("clm", ["--probs", "missing.probs.csv", "--dataset", "d-train"]),
    ],
)
def test_metric_names_an_unknown_vr_before_reading_its_inputs(command, inputs, fixture_paths, tmp_path, capsys):
    """Every ``metric`` command checks ``--vr`` first, so an unknown VR is
    the refusal even when an input is missing or not a number."""
    landscape_path, evidence_path = fixture_paths
    inputs = [str(tmp_path / value) if value.startswith("missing") else value for value in inputs]
    argv = ["metric", command, *inputs, "--landscape", str(landscape_path), "--vr", "VR-nope",
            "--out", str(evidence_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: --vr 'VR-nope' is not a VR of {landscape_path}\n"


def test_metric_nap_for_a_vr_without_that_pair_exits_three(fixture_paths, tmp_path, capsys):
    landscape_path, evidence_path = fixture_paths
    before = evidence_path.read_bytes()
    acts = tmp_path / "real.acts.csv"
    acts.write_text("sample_id,a_0\ns1,0.5\ns2,1.0\n")
    argv = ["metric", "nap", "--a", str(acts), "--b", str(acts), "--dataset-a", "nap-real", "--dataset-b", "nap-real",
            "--landscape", str(landscape_path), "--vr", "VR2.2", "--out", str(evidence_path)]
    assert main(argv) == 3
    assert "VR2.2" in capsys.readouterr().err
    assert evidence_path.read_bytes() == before


#: Four instances; ``i1`` scores 0.3 on its label, below VR1.3's
#: ``flag_threshold`` of 0.5 and above a threshold of 0.0.
_FOUR_ROWS = "instance_id,label,p_0,p_1\ni1,0,0.3,0.7\ni2,0,0.9,0.1\ni3,1,0.2,0.8\ni4,1,0.4,0.6\n"


def test_metric_clm_on_a_table_with_no_rows_exits_three(fixture_paths, tmp_path, capsys):
    """A header-only table is refused and the bundle left as it was: its
    flag log of no flags would make VR1.3 read Satisfied on no instances."""
    landscape_path, evidence_path = fixture_paths
    probs_path = tmp_path / "header.probs.csv"
    probs_path.write_text("instance_id,label,p_0,p_1\n")
    before = evidence_path.read_bytes()
    assert main(_metric_argv("clm", landscape_path, evidence_path, probs=str(probs_path))) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the probability table needs at least one row\n"
    assert evidence_path.read_bytes() == before


def test_metric_clm_flags_at_the_threshold_of_its_vr(fixture_paths, tmp_path, capsys):
    """No flag of ``metric clm`` decides whether VR1.3 holds: it flags under
    the VR's own ``flag_threshold``, and ``--threshold`` is gone."""
    landscape_path, evidence_path = fixture_paths
    probs_path = tmp_path / "four.probs.csv"
    probs_path.write_text(_FOUR_ROWS)
    argv = _metric_argv("clm", landscape_path, evidence_path, probs=str(probs_path))
    before = evidence_path.read_bytes()
    assert main([*argv, "--threshold", "0.0"]) == 3
    assert "unrecognized arguments: --threshold 0.0" in capsys.readouterr().err
    assert evidence_path.read_bytes() == before

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "flagged: i1" in out and "threshold" not in out
    records = io.parse_evidence(evidence_path.read_bytes()).records
    assert records[-2].payload.config_note.startswith("threshold=0.5; flagged=1/4; warning: ")
    assert records[-1].payload.flagged_ids == ("i1",)
    landscape = io.parse_landscape(landscape_path.read_bytes())
    verdict = evaluate(landscape, io.parse_evidence(evidence_path.read_bytes())).vr_verdicts["VR1.3"]
    assert (verdict.status, verdict.explanation) == (Status.VIOLATED, "flagged instances without resolution: i1")


def test_metric_clm_flags_nothing_under_a_lower_threshold_of_its_vr(fixture_paths, tmp_path, capsys):
    """With VR1.3's ``flag_threshold`` edited to 0.25, ``i1``'s score of 0.3
    is no flag, where the fixture's 0.5 flags it."""
    landscape_path, evidence_path = fixture_paths
    text = landscape_path.read_bytes()
    assert text.count(b'"flag_threshold": 0.5,') == 1
    landscape_path.write_bytes(text.replace(b'"flag_threshold": 0.5,', b'"flag_threshold": 0.25,'))
    probs_path = tmp_path / "four.probs.csv"
    probs_path.write_text(_FOUR_ROWS)
    assert main(_metric_argv("clm", landscape_path, evidence_path, probs=str(probs_path))) == 0
    assert capsys.readouterr().out.startswith("clm_flags = 0.0 (0 flagged)\n")
    records = io.parse_evidence(evidence_path.read_bytes()).records
    assert records[-2].payload.config_note.startswith("threshold=0.25; flagged=0/4; ")
    assert (records[-1].kind, records[-1].payload.flagged_ids) == ("FlagResolutionLog", ())


#: ``metric`` appends that ``evaluation.reads`` decides: ``(edit of the
#: fixture landscape or None, argv after "metric", exit code, stderr)``.
_READS = {
    # A FlagResolution reads flag logs only, whatever metric it names.
    "miou-on-flag-resolution-over-miou": (
        ('"metric_id": "clm_flags"', '"metric_id": "miou"'),
        "miou --pred {grid} --truth {grid} --dataset d-train --vr VR1.3",
        3,
        "error: --vr 'VR1.3' is a FlagResolution that reads none of: MetricResult of miou on 'd-train'\n",
    ),
    "clm-on-flag-resolution-over-miou": (
        ('"metric_id": "clm_flags"', '"metric_id": "miou"'),
        "clm --probs {probs} --dataset d-train --vr VR1.3",
        0,
        "",
    ),
    "clm-on-threshold-over-clm-flags": (
        ('"metric_id": "miou",', '"metric_id": "clm_flags",'),
        "clm --probs {probs} --dataset d-counterfactual --vr VR3.3",
        3,
        "error: --vr 'VR3.3' is a MetricThreshold, which sets no flag_threshold\n",
    ),
    "clm-on-an-unbound-dataset": (
        None,
        "clm --probs {probs} --dataset d-nowhere --vr VR1.3",
        3,
        "error: --vr 'VR1.3' is a FlagResolution that reads none of: "
        "MetricResult of clm_flags on 'd-nowhere'; FlagResolutionLog on 'd-nowhere'\n",
    ),
    "gap-over-another-pair": (
        None,
        "gap --a 0.1 --b 0.2 --dataset-a d-real --dataset-b d-counterfactual --vr VR2.1",
        3,
        "error: --vr 'VR2.1' is a MetricGap that reads none of: "
        "MetricResult of miou on 'd-real' and 'd-counterfactual'\n",
    ),
}


@pytest.mark.parametrize("edit, command, code, err", _READS.values(), ids=_READS)
def test_metric_appends_only_what_its_vr_reads(edit, command, code, err, fixture_paths, tmp_path, capsys):
    landscape_path, evidence_path = fixture_paths
    if edit is not None:
        text = landscape_path.read_text()
        assert text.count(edit[0]) == 1
        landscape_path.write_text(text.replace(*edit))
    paths = {"grid": _grid_file(tmp_path, "mask.grid", [[1, 0], [0, 1]]), "probs": tmp_path / "four.probs.csv"}
    paths["probs"].write_text(_FOUR_ROWS)
    before = evidence_path.read_bytes()
    argv = ["metric", *command.format(**paths).split(), "--landscape", str(landscape_path), "--out", str(evidence_path)]
    assert main(argv) == code
    assert capsys.readouterr().err == err
    if code:
        assert evidence_path.read_bytes() == before
    else:
        kinds = [r.kind for r in io.parse_evidence(evidence_path.read_bytes()).records[-2:]]
        assert kinds == ["MetricResult", "FlagResolutionLog"]


#: ``(edit of the fixture text, what stderr must name)``: a landscape that
#: is well-formed JSON but must not be read.
_UNREADABLE_LANDSCAPES = {
    "duplicate-key": ('"threshold": 0.5,\n        "threshold": 0.75', "duplicate key 'threshold'"),
    "int-past-float-range": ('"threshold": 1' + "0" * 400, "$.vrs[9].payload.threshold"),
    "1e400": ('"threshold": 1e400', "$.vrs[9].payload.threshold"),
}


@pytest.mark.parametrize("edit, fragment", _UNREADABLE_LANDSCAPES.values(), ids=_UNREADABLE_LANDSCAPES)
@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_unreadable_landscape_exits_three(command, edit, fragment, fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    text = landscape_path.read_text()
    landscape_path.write_text(text.replace('"threshold": 0.75', edit, 1))
    argv = {
        "validate": ["validate", "--landscape", str(landscape_path)],
        "evaluate": ["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path)],
    }[command]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""


_ACTS = b"sample_id,a_0\ns1,0.5\ns2,1.0\n"
_PROBS = b"instance_id,label,p_0,p_1\ni1,0,0.9,0.1\ni2,1,0.2,0.8\n"
_OVERSIZED = b"x" * (131072 + 1)  # one past the csv module's default field limit


def _not_utf8(data: bytes, after: bytes) -> bytes:
    """``data`` with one ``0xff`` byte inserted after the first ``after``."""
    return data.replace(after, after + b"\xff", 1)


#: ``(argv, file the command reads first, its new bytes from the old, what
#: stderr must name)``; ``None`` names the offset of the ``0xff`` byte.
_UNDECODABLE_INPUTS = {
    "landscape": (
        "validate --landscape {landscape}", "landscape", lambda data: _not_utf8(data, b'"name": "'), None
    ),
    "evidence": (
        "evaluate --landscape {landscape} --evidence {evidence}",
        "evidence",
        lambda data: _not_utf8(data, b'"source": "'),
        None,
    ),
    "grid": (
        "metric miou --pred {bad} --truth {bad} --dataset d-real --vr VR2.1 --landscape {landscape} --out {evidence}",
        "bad",
        lambda _: _not_utf8(b"2 2\n0 1\n1 0\n", b"1 "),
        None,
    ),
    "activations": (
        "metric nap --a {bad} --b {bad} --dataset-a d-real --dataset-b d-synth --vr VR2.2"
        " --landscape {landscape} --out {evidence}",
        "bad",
        lambda _: _not_utf8(_ACTS, b"s2"),
        None,
    ),
    "probabilities": (
        "metric clm --probs {bad} --dataset d-train --vr VR1.3 --landscape {landscape} --out {evidence}",
        "bad",
        lambda _: _not_utf8(_PROBS, b"i2"),
        None,
    ),
    "activations-oversized-field": (
        "metric nap --a {bad} --b {bad} --dataset-a d-real --dataset-b d-synth --vr VR2.2"
        " --landscape {landscape} --out {evidence}",
        "bad",
        lambda _: _ACTS + _OVERSIZED + b",1.0\n",
        "data row 2: field larger than field limit",
    ),
    "probabilities-oversized-field": (
        "metric clm --probs {bad} --dataset d-train --vr VR1.3 --landscape {landscape} --out {evidence}",
        "bad",
        lambda _: _PROBS.replace(b"i2", _OVERSIZED),
        "data row 1: field larger than field limit",
    ),
}


@pytest.mark.parametrize("argv, target, make, fragment", _UNDECODABLE_INPUTS.values(), ids=_UNDECODABLE_INPUTS)
def test_undecodable_input_exits_three(argv, target, make, fragment, fixture_paths, tmp_path, capsys):
    landscape_path, evidence_path = fixture_paths
    paths = {"landscape": landscape_path, "evidence": evidence_path, "bad": tmp_path / "bad.input"}
    data = make(paths[target].read_bytes() if target != "bad" else b"")
    paths[target].write_bytes(data)
    before = evidence_path.read_bytes()
    assert main([arg.format(**paths) for arg in argv.split()]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (fragment or f"not UTF-8 text: invalid start byte (byte offset {data.index(0xFF)})") in captured.err
    assert evidence_path.read_bytes() == before


def test_metric_append_that_fails_to_replace_leaves_bundle_untouched(fixture_paths, monkeypatch, capsys):
    landscape_path, evidence_path = fixture_paths
    before = evidence_path.read_bytes()
    listing = sorted(evidence_path.parent.iterdir())

    def crash(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", crash)
    assert main(_metric_argv("gap", landscape_path, evidence_path)) == 3
    assert "disk gone" in capsys.readouterr().err
    assert evidence_path.read_bytes() == before
    assert sorted(evidence_path.parent.iterdir()) == listing


_APPEND_MANY = """
import sys
from laisc.cli import main
print("ready", flush=True)
sys.stdin.readline()
argv = sys.argv[1:]
sys.exit(max(main(argv) for _ in range(20)))
"""


def test_concurrent_metric_appends_lose_no_record(fixture_paths, tmp_path):
    landscape_path, _ = fixture_paths
    out_path = tmp_path / "shared.evidence.json"
    env = {**os.environ, "PYTHONPATH": str(Path(laisc.__file__).parents[1])}
    argv = [sys.executable, "-c", _APPEND_MANY, *_metric_argv("gap", landscape_path, out_path)]
    workers = [
        subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    # Both workers have imported laisc before either appends.
    assert [worker.stdout.readline() for worker in workers] == ["ready\n"] * 2
    for worker in workers:
        worker.stdin.write("go\n")
        worker.stdin.flush()
    for worker in workers:
        worker.communicate(timeout=60)
        assert worker.returncode == 0
    ids = [record.id for record in io.parse_evidence(out_path.read_bytes()).records]
    assert len(ids) == len(set(ids)) == 40
    assert sorted(tmp_path.iterdir()) == sorted([*fixture_paths, out_path])


# --- perturb / augment-labels -----------------------------------------------------------


def test_perturb_deterministic_outputs(tmp_path):
    image = _grid_file(tmp_path, "image.grid", [[10, 200], [90, 40]])
    mask = _grid_file(tmp_path, "mask.grid", [[1, 0], [0, 1]])
    outputs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        assert (
            main(
                [
                    "perturb",
                    "--image",
                    str(image),
                    "--mask",
                    str(mask),
                    "--kind",
                    "noise",
                    "--sigma",
                    "25",
                    "--seed",
                    "42",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        outputs.append(
            (
                (out_dir / "image.grid").read_bytes(),
                (out_dir / "mask.grid").read_bytes(),
                (out_dir / "manifest.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    manifest = json.loads(outputs[0][2])
    assert manifest["spec"]["kind"] == "GaussianNoise"
    assert manifest["spec"]["seed"] == 42


def test_perturb_occlusion_out_of_bounds_exits_three(tmp_path, capsys):
    image = _grid_file(tmp_path, "image.grid", [[10, 200]])
    mask = _grid_file(tmp_path, "mask.grid", [[1, 0]])
    code = main(
        [
            "perturb",
            "--image",
            str(image),
            "--mask",
            str(mask),
            "--kind",
            "occlusion",
            "--x",
            "1",
            "--y",
            "0",
            "--w",
            "5",
            "--h",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 3


def test_perturb_hflip_flips_both_consistently(tmp_path):
    image = _grid_file(tmp_path, "image.grid", [[1, 2, 3]])
    mask = _grid_file(tmp_path, "mask.grid", [[1, 0, 0]])
    out_dir = tmp_path / "flipped"
    assert (
        main(
            ["perturb", "--image", str(image), "--mask", str(mask), "--kind", "hflip", "--out", str(out_dir)]
        )
        == 0
    )
    flipped_image = io.read_grid((out_dir / "image.grid").read_bytes())
    flipped_mask = io.read_grid((out_dir / "mask.grid").read_bytes())
    assert flipped_image.values == ((3, 2, 1),)
    assert flipped_mask.values == ((0, 0, 1),)
    assert sum(map(sum, flipped_mask.values)) == 1


def test_perturb_and_augment_labels_say_what_they_wrote(tmp_path, capsys):
    image = _grid_file(tmp_path, "image.grid", [[1, 2, 3]])
    mask = _grid_file(tmp_path, "mask.grid", [[1, 0, 0]])
    out_dir = tmp_path / "out"
    assert main(["perturb", "--image", str(image), "--mask", str(mask), "--kind", "hflip", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == f"wrote image.grid, mask.grid, manifest.json to {out_dir}\n"
    assert main(["augment-labels", "--mask", str(mask), "--kind", "dilate", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == f"wrote mask.grid, manifest.json to {out_dir}\n"
    manifest = json.loads((out_dir / "manifest.json").read_bytes())
    assert manifest == {
        "inputs": {"mask": str(mask)},
        "operation": "augment-labels",
        "spec": {"kind": "MaskDilate", "radius": 1},
    }


def test_augment_labels_flip_rate_one(tmp_path):
    mask = _grid_file(tmp_path, "mask.grid", [[1, 0], [0, 0]])
    out_dir = tmp_path / "aug"
    assert (
        main(
            [
                "augment-labels",
                "--mask",
                str(mask),
                "--kind",
                "flip",
                "--rate",
                "1.0",
                "--seed",
                "3",
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    assert io.read_grid((out_dir / "mask.grid").read_bytes()).values == ((0, 1), (1, 1))


_SPEC_CASES = [
    ("perturb", "brightness", ["--delta", "40"], {"kind": "BrightnessShift", "delta": 40}),
    ("perturb", "contrast", ["--factor", "1.5"], {"kind": "ContrastScale", "factor": 1.5}),
    ("perturb", "noise", ["--sigma", "12.5", "--seed", "9"], {"kind": "GaussianNoise", "sigma": 12.5, "seed": 9}),
    (
        "perturb",
        "occlusion",
        ["--x", "1", "--y", "2", "--w", "3", "--h", "2"],
        {"kind": "OcclusionPatch", "x": 1, "y": 2, "w": 3, "h": 2},
    ),
    ("perturb", "hflip", [], {"kind": "HorizontalFlip"}),
    ("perturb", "rot90", ["--k", "3"], {"kind": "Rotate90", "k": 3}),
    ("augment-labels", "flip", ["--rate", "0.25", "--seed", "4"], {"kind": "RandomPixelFlip", "rate": 0.25, "seed": 4}),
    ("augment-labels", "dilate", ["--radius", "2"], {"kind": "MaskDilate", "radius": 2}),
    ("augment-labels", "erode", ["--radius", "1"], {"kind": "MaskErode", "radius": 1}),
    ("augment-labels", "translate", ["--dx", "-2", "--dy", "1"], {"kind": "MaskTranslate", "dx": -2, "dy": 1}),
]


@pytest.mark.parametrize("command,kind,flags,spec_node", _SPEC_CASES, ids=[case[1] for case in _SPEC_CASES])
def test_every_kind_writes_the_in_process_result_and_its_spec(command, kind, flags, spec_node, tmp_path):
    image = _grid_file(tmp_path, "image.grid", [[(37 * r + 11 * c) % 256 for c in range(5)] for r in range(5)])
    mask = _grid_file(tmp_path, "mask.grid", [[int((r * c) % 3 == 0) for c in range(5)] for r in range(5)])
    image_grid, mask_grid = io.read_grid(image.read_bytes()), io.read_grid(mask.read_bytes())
    spec = getattr(metrics, spec_node["kind"])(**{k: v for k, v in spec_node.items() if k != "kind"})
    if command == "perturb":
        inputs = {"image": str(image), "mask": str(mask)}
        expected = dict(zip(("image.grid", "mask.grid"), metrics.perturb(image_grid, mask_grid, spec)))
    else:
        inputs = {"mask": str(mask)}
        expected = {"mask.grid": metrics.augment_labels(mask_grid, spec)}
    input_flags = [arg for name, path in inputs.items() for arg in (f"--{name}", path)]
    out_dir = tmp_path / "out"

    assert main([command, *input_flags, "--kind", kind, *flags, "--out", str(out_dir)]) == 0
    for name, grid in expected.items():
        assert (out_dir / name).read_bytes() == write_grid(grid)
    manifest = json.loads((out_dir / "manifest.json").read_bytes())
    assert manifest == {"operation": command, "spec": spec_node, "inputs": inputs}


@pytest.mark.parametrize("name", ["mask.grid", "mäsk.grid"], ids=["ascii", "non-ascii"])
def test_manifest_is_canonical_utf8_json(name, tmp_path):
    mask = _grid_file(tmp_path, name, [[1, 0], [0, 1]])
    out_dir = tmp_path / "out"
    assert main(["augment-labels", "--mask", str(mask), "--kind", "dilate", "--radius", "1", "--out", str(out_dir)]) == 0
    node = {"operation": "augment-labels", "spec": {"kind": "MaskDilate", "radius": 1}, "inputs": {"mask": str(mask)}}
    data = (out_dir / "manifest.json").read_bytes()
    # For an ASCII path these are also the bytes of json.dumps with ASCII escaping on.
    assert data == (json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    assert name.encode("utf-8") in data


def test_usage_error_exits_three(capsys):
    assert main(["evaluate", "--landscape"]) == 3
    assert main(["metric", "unknown-metric"]) == 3


def test_importing_the_cli_leaves_the_metric_kernels_unloaded():
    # Only the metric, perturb and augment-labels commands need laisc.metrics.
    code = "import sys, laisc.cli; print('laisc.metrics' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(laisc.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


#: Runs ``evaluate --format json`` and ``validate`` on the landscape and
#: bundle of ``argv`` in one process, then prints the exit codes and which
#: of ``hashlib`` and ``_hashlib`` it loaded.
_EVALUATE_AND_VALIDATE = """
import contextlib, io, sys
from laisc.cli import main
landscape, evidence = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["evaluate", "--landscape", landscape, "--evidence", evidence, "--format", "json"]),
        main(["validate", "--landscape", landscape]),
    ]
print(codes, sorted({"hashlib", "_hashlib"} & sys.modules.keys()))
"""


def test_an_evaluate_and_a_validate_leave_hashlib_unloaded(fixture_paths):
    # hashlib loads OpenSSL; the fingerprint takes the interpreter's built-in sha256.
    env = {**os.environ, "PYTHONPATH": str(Path(laisc.__file__).parents[1])}
    argv = [sys.executable, "-c", _EVALUATE_AND_VALIDATE, *map(str, fixture_paths)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[0, 0] []\n"
