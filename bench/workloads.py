"""The three workloads: input set-up, one op, its output oracle, traced probes.

Each workload class takes its work directory and a ``span`` factory
(``Tracer.span`` or ``tracer.no_span``) and offers:

* ``prepare(i)`` -- untimed preparation of op ``i``;
* ``op(i)``      -- the timed op, calling laisc only through public functions;
* ``check(i, out)`` -- the oracle, returning a list of problems;
* ``probe(i, out)`` -- traced run only: extra public calls that time the
  layers an op reaches only indirectly, returning per-op work counts;
* ``peak_rss_mb()`` -- peak RSS of the process(es) doing the work;
* ``close()`` -- stop whatever the workload started.

``setup(work, seed)`` writes a workload's inputs into ``work``.  It runs in
a fresh process, so its wall time includes importing laisc.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import laisc
from laisc import cli, report
from laisc import metrics as km

import audit_gen
import grid_gen

#: The pinned clock that ``run.child_env`` gives every process.
NOW = datetime.fromisoformat(os.environ["LAISC_NOW"].replace("Z", "+00:00"))
AUDIT_VRS = 1000
_NA = "NotApplicable"


def _json_dump(path: Path, node: object) -> None:
    path.write_text(json.dumps(node, sort_keys=True))


def _mismatches(label: str, pairs) -> list[str]:
    bad = [f"{key}: got {got!r}, want {want!r}" for key, got, want in pairs if got != want]
    if not bad:
        return []
    return [f"{label}: {len(bad)} mismatches, e.g. " + "; ".join(bad[:3])]


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_probes(span, land, bundle, full, flt, effective: dict, sample: int) -> None:
    """Time model and evaluation functions that ``evaluate`` calls internally."""
    vr_ids = [vr.id for vr in land.vrs]
    goal_ids = [goal.id for goal in land.goals]
    concern_ids = [concern.id for concern in land.concerns]
    with span("model.fingerprint"):
        current = laisc.fingerprint(land)
    with span("model.rows"):
        laisc.rows(land)
    picks = [(land.vr, vr_ids), (land.goal, goal_ids), (land.concern, concern_ids)]
    with span("model.lookup", calls=3 * sample):
        for lookup, ids in picks:
            for k in range(sample):
                lookup(ids[k * 7919 % len(ids)])
    chosen = [land.vrs[k * 7919 % len(vr_ids)] for k in range(sample)]
    with span("evaluation.evaluate_vr", calls=len(chosen)):
        for vr in chosen:
            laisc.evaluate_vr(vr, bundle, current)
    with span("evaluation.rollup"):
        laisc.rollup(land, full.vr_verdicts)
    with span("evaluation.coverage"):
        laisc.coverage(land)
    statuses = {vr_id: laisc.Status(status) for vr_id, status in effective.items()}
    with span("evaluation.apply_filter"):
        laisc.apply_filter(land, flt, statuses)


# --- audit-large ------------------------------------------------------------------


def setup_audit(work: Path, seed: int, n_vrs: int = AUDIT_VRS) -> None:
    land_bytes, facts = audit_gen.landscape(seed, n_vrs)
    fresh = laisc.fingerprint(laisc.parse_landscape(land_bytes))
    ev_bytes, expected = audit_gen.evidence(seed, facts, fresh)
    (work / "landscape.laisc.json").write_bytes(land_bytes)
    (work / "bundle.evidence.json").write_bytes(ev_bytes)
    _json_dump(work / "expected.json", {"facts": facts, "expected": expected, "seed": seed})


class AuditLarge:
    """Parse landscape and bundle from bytes, evaluate unfiltered and with a
    rotating filter, render table, JSON and DOT."""

    def __init__(self, work: Path, span) -> None:
        self.span = span
        self.land_bytes = (work / "landscape.laisc.json").read_bytes()
        self.ev_bytes = (work / "bundle.evidence.json").read_bytes()
        spec = json.loads((work / "expected.json").read_text())
        self.facts, self.expected = spec["facts"], spec["expected"]
        self.effective = {
            vr_id: status if self.facts["vr_relevant"][vr_id] else _NA
            for vr_id, status in self.expected["status"].items()
        }
        self.filters = self._filters(spec["seed"])
        self.reference: tuple[bytes, bytes, bytes] | None = None

    peak_rss_mb = staticmethod(_self_peak_rss_mb)

    def close(self) -> None:
        pass

    def _filters(self, seed: int) -> list[tuple[laisc.Filter, set[str]]]:
        rng = random.Random(f"audit-filters-{seed}")
        facts, out = self.facts, []
        vrs = list(facts["vr_kind"])
        for _ in range(10):
            concern = rng.choice(facts["concern_ids"])
            stage = rng.choice(facts["stage_ids"])
            component = rng.choice(facts["component_ids"])
            status = rng.choice(("Satisfied", "Violated", "Pending", "Error", _NA))
            out += [
                (laisc.Filter(concern=concern), {v for v in vrs if facts["vr_concern"][v] == concern}),
                (laisc.Filter(stage=stage), {v for v in vrs if facts["vr_stage"][v] == stage}),
                (
                    laisc.Filter(component=component),
                    {v for v in vrs if component in facts["concern_components"][facts["vr_concern"][v]]},
                ),
                (laisc.Filter(status=status.lower()), {v for v in vrs if self.effective[v] == status}),
            ]
        return out

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        span = self.span
        with span("io.parse_landscape"):
            land = laisc.parse_landscape(self.land_bytes)
        with span("io.parse_evidence"):
            bundle = laisc.parse_evidence(self.ev_bytes)
        with span("evaluation.evaluate"):
            full = laisc.evaluate(land, bundle, now=NOW)
        flt = self.filters[i % len(self.filters)][0]
        with span("evaluation.evaluate"):
            part = laisc.evaluate(land, bundle, flt=flt, now=NOW)
        with span("report.render_table"):
            table = report.render_table(full)
        with span("report.render_json"):
            as_json = report.render_json(full)
        with span("report.render_argument_tree"):
            dot = report.render_argument_tree(full)
        return land, bundle, full, part, (table, as_json, dot)

    def check(self, i: int, out) -> list[str]:
        _, _, _, part, rendered = out
        problems = []
        if rendered != self.reference:
            if self.reference is not None:
                problems.append("report bytes differ from an earlier op on the same inputs")
            problems += self._check_report(*rendered)
            if not problems:
                self.reference = rendered
        flt, want = self.filters[i % len(self.filters)]
        got = {row.vr_id for row in part.rows}
        if got != want:
            problems.append(f"filter {flt.describe()}: {len(got)} visible VRs, want {len(want)}")
        return problems

    def _check_report(self, table: bytes, as_json: bytes, dot: bytes) -> list[str]:
        node = json.loads(as_json)
        expected, effective = self.expected, self.effective
        verdicts = node["verdicts"]
        problems = []
        if set(verdicts) != set(effective):
            return [f"JSON report lists {len(verdicts)} VRs, want {len(effective)}"]
        problems += _mismatches(
            "verdict status", ((v, verdicts[v]["status"], s) for v, s in expected["status"].items())
        )
        problems += _mismatches(
            "effective status", ((v, verdicts[v]["effective_status"], s) for v, s in effective.items())
        )
        gaps = sorted([gap["kind"], gap["subject_id"]] for gap in node["coverage_gaps"])
        counts = {s: 0 for s in ("Satisfied", "Violated", "Pending", "Error", _NA)}
        for status in effective.values():
            counts[status] += 1
        footer = (
            f"{counts['Satisfied']} satisfied / {counts['Violated']} violated / {counts['Pending']} pending"
            f" / {counts['Error']} error / {counts[_NA]} not applicable | coverage gaps: {len(gaps)}"
            f" | orphaned evidence records: {len(expected['orphans'])}"
        )
        problems += _mismatches(
            "report",
            [
                ("fingerprint", node["fingerprint"], expected["fingerprint"]),
                ("orphans", node["orphaned_evidence_ids"], expected["orphans"]),
                ("coverage gaps", gaps, self.facts["coverage_gaps"]),
                ("table footer", table.decode().splitlines()[-1], footer),
            ],
        )
        text = dot.decode()
        problems += _mismatches(
            "DOT node", ((v, f'"{v}" [label="{v}\\n[{s}]"' in text, True) for v, s in effective.items())
        )
        return problems

    def probe(self, i: int, out) -> dict:
        land, bundle, full, _, rendered = out
        flt = self.filters[i % len(self.filters)][0]
        layer_probes(self.span, land, bundle, full, flt, self.effective, sample=100)
        return {
            "io.parse_evidence_records": len(bundle.records),
            "evaluation.vrs": len(land.vrs),
            "report.bytes_out": sum(map(len, rendered)),
        }


# --- cli-fixture --------------------------------------------------------------------

FIXTURES = Path("src", "laisc", "fixtures")
FIXTURE_LANDSCAPE = FIXTURES / "train_track_detector.laisc.json"
FIXTURE_EVIDENCE = FIXTURES / "train_track_detector.evidence.json"


def setup_cli(work: Path, seed: int, root: Path) -> None:
    """Warm laisc's bytecode into the benchmark's own cache prefix (the
    running interpreter writes there, never under src/) and pick the
    seeded arguments."""
    import compileall

    compileall.compile_dir(str(root / "src" / "laisc"), quiet=1)
    rng = random.Random(f"cli-{seed}")
    a = round(rng.uniform(0.8, 0.9), 4)
    b = round(a + rng.uniform(-0.04, 0.04), 4)
    stages = ["stage-data-prep", "stage-modeling"]
    rng.shuffle(stages)
    _json_dump(work / "expected.json", {"a": a, "b": b, "stages": stages, "start": rng.randrange(7)})
    shutil.copyfile(root / FIXTURE_EVIDENCE, work / "pristine.evidence.json")


#: Runs the CLI processes on behalf of the worker.  A process started from
#: the worker would inherit the worker's high-water RSS (fork and vfork copy
#: or share its memory until exec), so a small interpreter starts them and
#: reports its RUSAGE_CHILDREN peak, which is then the CLI's own.
_SPAWNER = """
import json, resource, subprocess, sys
for line in sys.stdin:
    argv = [sys.executable, "-m", "laisc.cli", *json.loads(line)]
    proc = subprocess.run(argv, capture_output=True, encoding="utf-8")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps([proc.returncode, proc.stdout, proc.stderr[-300:], peak_kb]), flush=True)
"""


class CliFixture:
    """One ``python -m laisc.cli`` process per op on the shipped fixture."""

    COMMANDS = ("table", "json", "dot", "stage", "validate", "coverage", "metric-gap")

    def __init__(self, work: Path, span, root: Path, env: dict) -> None:
        self.span = span
        spec = json.loads((work / "expected.json").read_text())
        self.a, self.b, self.stages, self.start = spec["a"], spec["b"], spec["stages"], spec["start"]
        self.land_path = str(root / FIXTURE_LANDSCAPE)
        self.ev_path = str(root / FIXTURE_EVIDENCE)
        self.pristine = (work / "pristine.evidence.json").read_bytes()
        self.before = laisc.parse_evidence(self.pristine)
        self.land_bytes = (root / FIXTURE_LANDSCAPE).read_bytes()
        self.out_path = work / "appended.evidence.json"
        self.peak_kb = 0
        self.spawner = subprocess.Popen(
            [sys.executable, "-c", _SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            encoding="utf-8", env=env, cwd=work,
        )

    def _command(self, i: int) -> tuple[str, list[str]]:
        name = self.COMMANDS[(i + self.start) % len(self.COMMANDS)]
        land = ["--landscape", self.land_path]
        if name in ("validate", "coverage"):
            return name, [name] + land
        if name == "metric-gap":
            return name, [
                "metric", "gap", "--a", repr(self.a), "--b", repr(self.b), "--metric", "miou",
                "--dataset-a", "d-real", "--dataset-b", "d-synth", "--vr", "VR2.1",
                "--out", str(self.out_path),
            ] + land
        argv = ["evaluate", "--evidence", self.ev_path] + land
        if name == "stage":
            return name, argv + ["--stage", self.stages[i % 2]]
        return name, argv + ["--format", name]

    def prepare(self, i: int) -> None:
        if self._command(i)[0] == "metric-gap":
            self.out_path.write_bytes(self.pristine)

    def op(self, i: int):
        name, argv = self._command(i)
        with self.span("cli.invoke"):
            self.spawner.stdin.write(json.dumps(argv) + "\n")
            self.spawner.stdin.flush()
            code, stdout, stderr, self.peak_kb = json.loads(self.spawner.stdout.readline())
            if code != 0:
                raise RuntimeError(f"laisc {name} exited {code}: {stderr}")
        return name, argv, stdout.encode("utf-8")

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)

    def _expected_report(self, i: int, name: str) -> bytes:
        span = self.span
        with span("io.parse_landscape"):
            land = laisc.parse_landscape(self.land_bytes)
        with span("io.parse_evidence"):
            bundle = laisc.parse_evidence(self.pristine)
        flt = laisc.Filter(stage=self.stages[i % 2]) if name == "stage" else None
        with span("evaluation.evaluate"):
            result = laisc.evaluate(land, bundle, flt=flt, now=NOW)
        fmt = "table" if name == "stage" else name
        render = {"table": report.render_table, "json": report.render_json, "dot": report.render_argument_tree}
        with span(f"report.{render[fmt].__name__}"):
            return render[fmt](result)

    def check(self, i: int, out) -> list[str]:
        name, argv, stdout = out
        if name == "metric-gap":
            return self._check_append()
        if name in ("validate", "coverage"):
            captured = stdio.StringIO()
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
            want = captured.getvalue().encode()
            if code != 0:
                return [f"in-process laisc {name} exited {code}"]
        else:
            want = self._expected_report(i, name)
        return [] if stdout == want else [f"laisc {name}: stdout differs from the in-process result"]

    def _check_append(self) -> list[str]:
        data = self.out_path.read_bytes()
        with self.span("io.parse_evidence"):
            after = laisc.parse_evidence(data)
        with self.span("io.parse_landscape"):
            land = laisc.parse_landscape(self.land_bytes)
        with self.span("model.fingerprint"):
            current = laisc.fingerprint(land)
        with self.span("io.serialize_evidence"):
            canonical = laisc.serialize_evidence(after)
        before = self.before.records
        if len(after.records) != len(before) + 1 or after.records[:-1] != before:
            return [f"appended bundle has {len(after.records)} records, want the {len(before)} old ones plus 1"]
        new = after.records[-1]
        want = laisc.MetricResult("miou", ("d-real", "d-synth"), abs(self.a - self.b), "gap")
        return _mismatches(
            "appended record",
            [
                ("vr_id", new.vr_id, "VR2.1"),
                ("payload", new.payload, want),
                ("fingerprint", new.landscape_fingerprint, current),
                ("timestamp", new.timestamp, NOW),
                ("canonical bytes", canonical == data, True),
            ],
        )

    def probe(self, i: int, out) -> dict:
        name, _, stdout = out
        land = laisc.parse_landscape(self.land_bytes)
        bundle = laisc.parse_evidence(self.pristine)
        full = laisc.evaluate(land, bundle, now=NOW)
        relevant = {vr.id: land.concern(land.goal(vr.goal_id).concern_id).relevant for vr in land.vrs}
        effective = {v: (full.vr_verdicts[v].status.value if relevant[v] else _NA) for v in relevant}
        layer_probes(self.span, land, bundle, full, laisc.Filter(stage=self.stages[0]), effective, sample=10)
        counts = {"io.parse_evidence_records": len(bundle.records), "evaluation.vrs": len(land.vrs)}
        if name not in ("validate", "coverage", "metric-gap"):
            counts["report.bytes_out"] = len(stdout)
        return counts


# --- evidence -------------------------------------------------------------------------

CONDITION_PAIRS = ((256, "rails"), (256, "block"), (128, "rails"), (128, "block"), (128, "rails"), (128, "block"))
PAIR_SIDE = 128
ACT_ROWS, ACT_NEURONS, ACT_SHIFTED = 2000, 64, 16
PROB_ROWS, PROB_CLASSES, PROB_FLAGGED = 20000, 4, 1000


def setup_evidence(work: Path, seed: int) -> None:
    rng = random.Random(f"evidence-{seed}")
    dataset = work / "condition"
    dataset.mkdir()
    overlaps = []
    for k, (side, style) in enumerate(CONDITION_PAIRS):
        pred, truth, inter, union = grid_gen.overlap_pair(rng, side, style)
        (dataset / f"{k:02d}.pred.grid").write_bytes(grid_gen.grid_bytes(pred))
        (dataset / f"{k:02d}.truth.grid").write_bytes(grid_gen.grid_bytes(truth))
        overlaps.append([inter, union])
    rects = grid_gen.separated_rects(rng, PAIR_SIDE, 3)
    (work / "image.grid").write_bytes(grid_gen.grid_bytes(grid_gen.random_image(rng, PAIR_SIDE)))
    (work / "mask.grid").write_bytes(grid_gen.grid_bytes(grid_gen.rects_mask(PAIR_SIDE, rects)))
    acts_a, acts_b, distance = grid_gen.activation_tables(rng, ACT_ROWS, ACT_NEURONS, ACT_SHIFTED)
    (work / "a.acts.csv").write_bytes(acts_a)
    (work / "b.acts.csv").write_bytes(acts_b)
    probs, flagged = grid_gen.probability_table(rng, PROB_ROWS, PROB_CLASSES, PROB_FLAGGED)
    (work / "train.probs.csv").write_bytes(probs)
    patch = [rng.randint(0, 60), rng.randint(0, 60), rng.randint(8, 60), rng.randint(8, 60)]
    _json_dump(
        work / "expected.json",
        {
            "overlaps": overlaps,
            "rects": rects,
            "nap": distance,
            "flagged": flagged,
            "noise_seed": rng.randrange(2**63),
            "flip_seed": rng.randrange(2**63),
            "patch": patch,
            "shift": [rng.randint(1, 4), rng.randint(1, 4)],
        },
    )


def _rows(data: bytes) -> list[list[int]]:
    return [[int(cell) for cell in line.split()] for line in data.decode().splitlines()[1:]]


class Evidence:
    """One robustness-study step from files: mIoU over a condition dataset,
    every perturbation and label augmentation of one pair (outputs written
    with ``write_grid``), NAP distance and CLM flags from CSV tables."""

    def __init__(self, work: Path, span) -> None:
        self.span, self.work = span, work
        spec = json.loads((work / "expected.json").read_text())
        self.spec = spec
        self.pairs = [
            (work / "condition" / f"{k:02d}.pred.grid", work / "condition" / f"{k:02d}.truth.grid")
            for k in range(len(CONDITION_PAIRS))
        ]
        self.out_dir = work / "out"
        self.out_dir.mkdir(exist_ok=True)
        x, y, w, h = spec["patch"]
        dx, dy = spec["shift"]
        self.perturbations = {
            "noise": km.GaussianNoise(sigma=grid_gen.NOISE_SIGMA, seed=spec["noise_seed"]),
            "occlusion": km.OcclusionPatch(x=x, y=y, w=w, h=h),
            "rot90": km.Rotate90(k=grid_gen.ROTATE_K),
            "flip": km.HorizontalFlip(),
            "contrast": km.ContrastScale(factor=grid_gen.CONTRAST_FACTOR),
            "brightness": km.BrightnessShift(delta=grid_gen.BRIGHTNESS_DELTA),
        }
        self.augmentations = {
            "pixel_flip": km.RandomPixelFlip(rate=grid_gen.FLIP_RATE, seed=spec["flip_seed"]),
            "dilate": km.MaskDilate(radius=grid_gen.DILATE_RADIUS),
            "erode": km.MaskErode(radius=grid_gen.DILATE_RADIUS),
            "translate": km.MaskTranslate(dx=dx, dy=dy),
        }
        self.expected = self._expected_bytes()

    peak_rss_mb = staticmethod(_self_peak_rss_mb)

    def close(self) -> None:
        pass

    def _expected_bytes(self) -> dict[str, bytes]:
        """Outputs predicted from the input files and the documented rules."""
        spec, g = self.spec, grid_gen
        image = _rows((self.work / "image.grid").read_bytes())
        mask_bytes = (self.work / "mask.grid").read_bytes()
        mask = _rows(mask_bytes)
        x, y, w, h = spec["patch"]
        occluded = [
            [0 if y <= r < y + h and x <= c < x + w else p for c, p in enumerate(row)] for r, row in enumerate(image)
        ]
        dx, dy = spec["shift"]
        shifted = g.rects_mask(PAIR_SIDE, [(t + dy, left + dx, hh, ww) for t, left, hh, ww in spec["rects"]])
        return {
            "mask": mask_bytes,
            "noise": g.grid_bytes(g.expected_noise(image, g.NOISE_SIGMA, spec["noise_seed"])),
            "occlusion": g.grid_bytes(occluded),
            "contrast": g.grid_bytes(g.expected_contrast(image, g.CONTRAST_FACTOR)),
            "brightness": g.grid_bytes([[min(255, p + g.BRIGHTNESS_DELTA) for p in row] for row in image]),
            "pixel_flip": g.grid_bytes(g.expected_pixel_flip(mask, g.FLIP_RATE, spec["flip_seed"])),
            "translate": g.grid_bytes(shifted),
        }

    def prepare(self, i: int) -> None:
        pass

    def _read_grid(self, path: Path):
        with self.span("io.read_grid"):
            return laisc.read_grid(path.read_bytes())

    def _write_grid(self, grid, name: str) -> bytes:
        with self.span("io.write_grid"):
            data = laisc.io.write_grid(grid)
        (self.out_dir / name).write_bytes(data)
        return data

    def op(self, i: int):
        span = self.span
        preds = [self._read_grid(pred) for pred, _ in self.pairs]
        truths = [self._read_grid(truth) for _, truth in self.pairs]
        with span("metrics.miou"):
            miou = km.miou(preds, truths)
        image = self._read_grid(self.work / "image.grid")
        mask = self._read_grid(self.work / "mask.grid")
        perturbed = {}
        for kind, spec in self.perturbations.items():
            with span(f"metrics.perturb.{kind}"):
                new_image, new_mask = km.perturb(image, mask, spec)
            written = (self._write_grid(new_image, f"{kind}.image.grid"), self._write_grid(new_mask, f"{kind}.mask.grid"))
            perturbed[kind] = (new_image, new_mask, written)
        augmented = {}
        for kind, spec in self.augmentations.items():
            with span(f"metrics.augment.{kind}"):
                new_mask = km.augment_labels(mask, spec)
            augmented[kind] = (new_mask, self._write_grid(new_mask, f"{kind}.mask.grid"))
        with span("io.read_activations"):
            acts_a = laisc.read_activations((self.work / "a.acts.csv").read_bytes())
        with span("io.read_activations"):
            acts_b = laisc.read_activations((self.work / "b.acts.csv").read_bytes())
        with span("metrics.nap_distance"):
            nap = km.nap_distance(acts_a, acts_b)
        with span("io.read_prob_table"):
            table = laisc.read_prob_table((self.work / "train.probs.csv").read_bytes())
        with span("metrics.clm_flags"):
            flags = km.clm_flags(table, grid_gen.FLAG_THRESHOLD)
        return preds, truths, miou, image, mask, perturbed, augmented, nap, flags

    def check(self, i: int, out) -> list[str]:
        _, _, miou, image, mask, perturbed, augmented, nap, flags = out
        spec, expected = self.spec, self.expected
        want_miou = sum(inter / union for inter, union in spec["overlaps"]) / len(spec["overlaps"])
        pixels = {kind: sum(map(sum, grid.values)) for kind, (grid, _) in augmented.items()}
        grow = 2 * grid_gen.DILATE_RADIUS
        checks = [
            ("miou", miou if abs(miou - want_miou) > 1e-12 else want_miou, want_miou),
            ("nap_distance", nap if abs(nap - spec["nap"]) > 1e-9 else spec["nap"], spec["nap"]),
            ("clm flagged ids", list(flags.flagged_ids), spec["flagged"]),
            ("dilated pixels", pixels["dilate"], sum((h + grow) * (w + grow) for _, _, h, w in spec["rects"])),
            ("eroded pixels", pixels["erode"], sum((h - grow) * (w - grow) for _, _, h, w in spec["rects"])),
        ]
        for kind in ("noise", "occlusion", "contrast", "brightness"):
            image_bytes, mask_bytes = perturbed[kind][2]
            checks.append((f"{kind} image hash", _sha(image_bytes), _sha(expected[kind])))
            checks.append((f"{kind} mask unchanged", mask_bytes == expected["mask"], True))
        for kind in ("pixel_flip", "translate"):
            checks.append((f"{kind} mask hash", _sha(augmented[kind][1]), _sha(expected[kind])))
        rot_image, rot_mask, _ = perturbed["rot90"]
        back = km.perturb(rot_image, rot_mask, km.Rotate90(k=4 - grid_gen.ROTATE_K))
        checks.append(("Rotate90 four times is the identity", back == (image, mask), True))
        flip_image, flip_mask, _ = perturbed["flip"]
        back = km.perturb(flip_image, flip_mask, km.HorizontalFlip())
        checks.append(("HorizontalFlip twice is the identity", back == (image, mask), True))
        return _mismatches("evidence", checks)

    def probe(self, i: int, out) -> dict:
        preds, truths, _, image, mask, perturbed, augmented, *_ = out
        with self.span("metrics.iou", calls=len(preds)):
            for pred, truth in zip(preds, truths):
                km.iou(pred, truth)
        grids = preds + truths + [image, mask]
        return {"io.read_grid_pixels": sum(g.height * g.width for g in grids)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
