from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import laisc
from laisc import fixtures, io, metrics
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


def _metric_argv(command, landscape_path, out_path, **overrides):
    """``laisc metric <command>`` on the fixture with declared ids, except
    for ``overrides`` (flag name with ``_`` for ``-``)."""
    flags = {
        "gap": {
            "a": "0.86", "b": "0.88", "metric": "miou", "dataset_a": "d-real", "dataset_b": "d-synth", "vr": "VR2.1"
        },
        "clm": {"threshold": "0.5", "dataset": "d-train", "vr": "VR1.3"},
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


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_duplicate_key_in_landscape_exits_three(command, fixture_paths, capsys):
    landscape_path, evidence_path = fixture_paths
    text = landscape_path.read_text()
    landscape_path.write_text(text.replace('"threshold": 0.75', '"threshold": 0.5,\n        "threshold": 0.75', 1))
    argv = {
        "validate": ["validate", "--landscape", str(landscape_path)],
        "evaluate": ["evaluate", "--landscape", str(landscape_path), "--evidence", str(evidence_path)],
    }[command]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "duplicate key 'threshold'" in captured.err
    assert captured.out == ""


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
