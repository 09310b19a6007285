from __future__ import annotations

import json

import pytest

from laisc import io
from laisc.cli import main
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


def test_validate_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.laisc.json"
    bad.write_text('{"name": ')
    assert main(["validate", "--landscape", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


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
            "--threshold",
            "0.5",
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


def test_usage_error_exits_three(capsys):
    assert main(["evaluate", "--landscape"]) == 3
    assert main(["metric", "unknown-metric"]) == 3
