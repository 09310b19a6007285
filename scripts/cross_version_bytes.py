"""Check that every given Python writes the same report and document bytes.

    python3 scripts/cross_version_bytes.py python3.10 python3.11 python3.12 python3.13

Each interpreter runs this script, one after another, with
``PYTHONPATH=src`` and without writing bytecode.  A run prints the sha256
of each of these, as JSON:

* the ``table``, ``json`` and ``dot`` reports, at the pinned ``NOW``, of
  the shipped fixture and of the pairs ``bench/audit_gen.py`` generates
  for seeds 1-3 (1000 VRs, as in the ``audit-large`` workload);
* ``serialize(parse(.))`` of each of those landscapes and bundles;
* the three reports of the fixture and of seed 1's pair under each of
  four filters, one per filter key (``FILTERS``);
* for the CSV tables that ``bench/grid_gen.py`` generates for seeds 1-3
  (at the sizes of the ``evidence`` workload): ``write(read(.))`` of the
  two activation tables and of the probability table, ``repr`` of the NAP
  distance between the activation tables, and ``repr`` of the
  ``clm_flags`` result at ``grid_gen.FLAG_THRESHOLD``;
* for the grids that ``bench/grid_gen.py`` generates for seeds 1-3 (at
  the sizes of the ``evidence`` workload: six condition mask pairs, then a
  mask of separated rectangles and an 8-bit image): ``write(read(.))`` of
  the masks and of the image, and ``write`` of the image and mask that
  each perturbation gives and of the mask that each label augmentation
  gives, at the ``grid_gen`` parameters.

The script then prints the digests of the first interpreter and, for each
other one, whether it wrote the same.  It exits 1 if any two interpreters
differ or one of them fails to run.  Standard library only; nothing under
``bench/`` is written.  With no arguments it checks the running Python.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOW = "2026-02-01T12:00:00Z"
SEEDS = (1, 2, 3)
N_VRS = 1000
FORMATS = ("table", "json", "dot")
#: The table sizes of the ``evidence`` workload: activation rows, neurons,
#: shifted neurons; probability rows, classes, flagged rows.
ACTIVATIONS = (2000, 64, 16)
PROBABILITIES = (20000, 4, 1000)
#: The grid sizes of the ``evidence`` workload: each condition mask pair's
#: side and shape, and the side of the perturbed image and mask.
CONDITION_PAIRS = ((256, "rails"), (256, "block"), (128, "rails"), (128, "block"), (128, "rails"), (128, "block"))
PAIR_SIDE = 128
#: One filter per key, by pair, for the filtered reports: a name, a name,
#: an id and a status in another case, as ``laisc evaluate`` takes them.
FILTERS = {
    "fixture": (
        ("concern", "Inaccurate data labels"),
        ("stage", "Modeling"),
        ("component", "comp-track-detector"),
        ("status", "satisfied"),
    ),
    "audit_gen-1": (("concern", "Concern 4"), ("stage", "Modeling"), ("component", "comp-3"), ("status", "error")),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str]:
    """The sha256 of every report, round-tripped document, table and grid,
    table metric and grid kernel output, by name."""
    sys.path.insert(0, str(ROOT / "bench"))
    import audit_gen
    import grid_gen

    import laisc
    from laisc import fixtures, metrics

    pairs = {
        "fixture": (
            fixtures.fixture_path().read_bytes(),
            fixtures.fixture_path(fixtures.EVIDENCE_FILENAME).read_bytes(),
        )
    }
    for seed in SEEDS:
        land, facts = audit_gen.landscape(seed, N_VRS)
        bundle, _ = audit_gen.evidence(seed, facts, laisc.fingerprint(laisc.parse_landscape(land)))
        pairs[f"audit_gen-{seed}"] = (land, bundle)
    now = laisc.io.parse_timestamp(NOW)
    out = {}
    for name, (land, bundle) in pairs.items():
        landscape, evidence = laisc.parse_landscape(land), laisc.parse_evidence(bundle)
        report = laisc.evaluate(landscape, evidence, now=now)
        for fmt in FORMATS:
            out[f"{name} report.{fmt}"] = _sha256(laisc.serialize_report(report, fmt))
        out[f"{name} landscape"] = _sha256(laisc.serialize_landscape(landscape))
        out[f"{name} evidence"] = _sha256(laisc.serialize_evidence(evidence))
        for key, value in FILTERS.get(name, ()):
            filtered = laisc.evaluate(landscape, evidence, flt=laisc.Filter(**{key: value}), now=now)
            for fmt in FORMATS:
                out[f"{name} report.{fmt} {key}={value}"] = _sha256(laisc.serialize_report(filtered, fmt))
    # Python 3.12 made sum() of floats compensated, and grid_gen scales its
    # probabilities by a sum: generate every table with the left-to-right
    # sum of 3.10 and 3.11, so every interpreter reads the same bytes.
    grid_gen.sum = lambda values: reduce(operator.add, values, 0)
    for seed in SEEDS:
        rng = random.Random(seed)
        acts_a, acts_b, _ = grid_gen.activation_tables(rng, *ACTIVATIONS)
        probs, _ = grid_gen.probability_table(rng, *PROBABILITIES)
        table_a, table_b = laisc.read_activations(acts_a), laisc.read_activations(acts_b)
        table = laisc.read_prob_table(probs)
        name = f"grid_gen-{seed}"
        out[f"{name} activations"] = _sha256(laisc.io.write_activations(table_a) + laisc.io.write_activations(table_b))
        out[f"{name} probabilities"] = _sha256(laisc.io.write_prob_table(table))
        out[f"{name} nap_distance"] = _sha256(repr(metrics.nap_distance(table_a, table_b)).encode())
        out[f"{name} clm_flags"] = _sha256(repr(metrics.clm_flags(table, grid_gen.FLAG_THRESHOLD)).encode())
    for seed in SEEDS:
        out.update(_grid_digests(seed, grid_gen, laisc.io, metrics))
    return out


def _grid_digests(seed: int, grid_gen, io, metrics) -> dict[str, str]:
    """The sha256 of the grids that ``grid_gen`` generates for ``seed``,
    written back after reading, and of the grids that the perturbations and
    label augmentations make of its image and mask, by name."""
    rng = random.Random(seed)
    masks = [rows for side, style in CONDITION_PAIRS for rows in grid_gen.overlap_pair(rng, side, style)[:2]]
    masks.append(grid_gen.rects_mask(PAIR_SIDE, grid_gen.separated_rects(rng, PAIR_SIDE, 3)))
    image = io.read_grid(grid_gen.grid_bytes(grid_gen.random_image(rng, PAIR_SIDE)))
    masks = [io.read_grid(grid_gen.grid_bytes(rows)) for rows in masks]
    perturbations = (
        metrics.GaussianNoise(sigma=grid_gen.NOISE_SIGMA, seed=rng.randrange(2**63)),
        metrics.OcclusionPatch(x=rng.randint(0, 60), y=rng.randint(0, 60), w=rng.randint(8, 60), h=rng.randint(8, 60)),
        metrics.Rotate90(k=grid_gen.ROTATE_K),
        metrics.HorizontalFlip(),
        metrics.ContrastScale(factor=grid_gen.CONTRAST_FACTOR),
        metrics.BrightnessShift(delta=grid_gen.BRIGHTNESS_DELTA),
    )
    augmentations = (
        metrics.RandomPixelFlip(rate=grid_gen.FLIP_RATE, seed=rng.randrange(2**63)),
        metrics.MaskDilate(radius=grid_gen.DILATE_RADIUS),
        metrics.MaskErode(radius=grid_gen.DILATE_RADIUS),
        metrics.MaskTranslate(dx=rng.randint(1, 4), dy=rng.randint(1, 4)),
    )
    mask = masks[-1]
    perturbed = [grid for spec in perturbations for grid in metrics.perturb(image, mask, spec)]
    augmented = [metrics.augment_labels(mask, spec) for spec in augmentations]
    write = lambda grids: _sha256(b"".join(map(io.write_grid, grids)))
    name = f"grid_gen-{seed}"
    return {
        f"{name} masks": write(masks),
        f"{name} image": write([image]),
        f"{name} perturbations": write(perturbed),
        f"{name} augmentations": write(augmented),
    }


def _run(python: str) -> tuple[str, dict[str, str]] | str:
    """``(version, digests)`` from ``python``, or why it failed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [python, str(Path(__file__).resolve()), "--digests"], env=env, capture_output=True, text=True, timeout=600
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return str(exc)
    if run.returncode:
        return (run.stderr.strip().splitlines() or [f"exit {run.returncode}"])[-1]
    result = json.loads(run.stdout)
    return result["version"], result["digests"]


def main(interpreters: list[str]) -> int:
    results, failed = [], False
    for python in interpreters or [sys.executable]:
        result = _run(python)
        if isinstance(result, str):
            print(f"{python}: could not run: {result}")
            failed = True
        else:
            results.append((python, *result))
    if not results:
        return 1
    first, version, expected = results[0]
    print(f"{first} (Python {version}):")
    for name, digest in expected.items():
        print(f"  {digest}  {name}")
    for python, version, found in results[1:]:
        differ = sorted(name for name in expected.keys() | found.keys() if expected.get(name) != found.get(name))
        print(f"{python} (Python {version}): " + (f"DIFFERS in {', '.join(differ)}" if differ else "same bytes"))
        failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        print(json.dumps({"version": sys.version.split()[0], "digests": digests()}))
    else:
        sys.exit(main(sys.argv[1:]))
