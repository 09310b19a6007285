"""Traced-run measurements shared by every workload: interpreter spawn and
per-module import cost, and scaling exponents over input size."""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
from time import perf_counter

import laisc
from laisc import metrics as km
from laisc import report

import audit_gen
import grid_gen
import workloads

LAYER_MODULES = ("cli", "model", "io", "evaluation", "metrics", "report")
AUDIT_SIZES = (250, 500, 1000, 2000)
GRID_SIDES = (64, 128, 256)


def spawn_and_import_ms(env: dict, reps: int) -> dict[str, float]:
    """``cli.spawn_ms`` (``python -c pass``) and each layer's import self
    time from ``python -X importtime``, as medians over ``reps`` runs."""
    spawn, self_us = [], {name: [] for name in LAYER_MODULES}
    imports = ", ".join(f"laisc.{name}" for name in LAYER_MODULES)
    for _ in range(reps):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        spawn.append(perf_counter() - start)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {imports}"],
            env=env, capture_output=True, text=True, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [part.strip() for part in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("laisc."):
                seen[parts[2].removeprefix("laisc.")] = int(parts[0])
        for name in LAYER_MODULES:
            self_us[name].append(seen.get(name, 0))
    out = {"cli.spawn_ms": statistics.median(spawn) * 1e3}
    out.update({f"{name}.import_ms": statistics.median(us) / 1e3 for name, us in self_us.items()})
    return out


def _slope(sizes, times) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _best_of(calls: dict, deadline: float) -> dict[str, float]:
    """Minimum wall time of each call, repeating the set until ``deadline``
    (at least once).  The minimum is the least disturbed by other load."""
    best = {name: math.inf for name in calls}
    while True:
        for name, call in calls.items():
            start = perf_counter()
            call()
            best[name] = min(best[name], perf_counter() - start)
        if perf_counter() >= deadline:
            return best


def scaling_exponents(seed: int, budget_s: float, sizes=AUDIT_SIZES, sides=GRID_SIDES) -> dict[str, float]:
    """Log-log slopes of layer time against VR count (audit layers) and
    against pixel count (grid kernels)."""
    audit = {name: [] for name in ("io.parse_evidence", "evaluation.evaluate", "report.render_table",
                                   "report.render_json", "report.render_argument_tree")}
    share = budget_s / (len(sizes) + len(sides))
    for n_vrs in sizes:
        land_bytes, facts = audit_gen.landscape(seed, n_vrs)
        land = laisc.parse_landscape(land_bytes)
        ev_bytes, _ = audit_gen.evidence(seed, facts, laisc.fingerprint(land))
        bundle = laisc.parse_evidence(ev_bytes)
        result = laisc.evaluate(land, bundle, now=workloads.NOW)
        best = _best_of(
            {
                "io.parse_evidence": lambda: laisc.parse_evidence(ev_bytes),
                "evaluation.evaluate": lambda: laisc.evaluate(land, bundle, now=workloads.NOW),
                "report.render_table": lambda: report.render_table(result),
                "report.render_json": lambda: report.render_json(result),
                "report.render_argument_tree": lambda: report.render_argument_tree(result),
            },
            perf_counter() + share,
        )
        for name, seconds in best.items():
            audit[name].append(seconds)

    grid = {name: [] for name in ("io.read_grid", "metrics.iou", "metrics.augment.dilate")}
    rng = random.Random(f"sweep-{seed}")
    for side in sides:
        pred, truth, _, _ = grid_gen.overlap_pair(rng, side, "block")
        text = grid_gen.grid_bytes(pred)
        a, b = laisc.read_grid(text), laisc.read_grid(grid_gen.grid_bytes(truth))
        dilate = km.MaskDilate(radius=grid_gen.DILATE_RADIUS)
        best = _best_of(
            {
                "io.read_grid": lambda: laisc.read_grid(text),
                "metrics.iou": lambda: km.iou(a, b),
                "metrics.augment.dilate": lambda: km.augment_labels(a, dilate),
            },
            perf_counter() + share,
        )
        for name, seconds in best.items():
            grid[name].append(seconds)

    out = {f"{name}_exp": _slope(sizes, times) for name, times in audit.items()}
    out.update({f"{name}_exp": _slope([s * s for s in sides], times) for name, times in grid.items()})
    return out
