"""Seeded inputs for the robustness-study workload, with answers known by construction.

* Condition datasets: pairs of masks whose IoU follows from geometry --
  thin vertical rails (track-like, ~5% foreground) or a large block
  (~50%), with the prediction shifted by a few pixels.
* A perturbation pair: a random 8-bit image and a mask of separated
  rectangles, so dilation and erosion change the pixel count by a known
  amount and translation keeps it.
* Activation tables whose distance is known: table B is a row
  permutation of table A, except for a set of neurons shifted to a
  disjoint value range (Hellinger distance 1 each, 0 for the others).
* A probability table in which exactly a chosen set of instances gives
  its observed label a probability below the flag threshold.

It also re-implements the seeded streams that ``laisc.metrics``
specifies by algorithm (splitmix64, Box-Muller), so the noise and
pixel-flip outputs can be predicted independently.
"""

from __future__ import annotations

import math
import random

FLAG_THRESHOLD = 0.5
DILATE_RADIUS = 2
NOISE_SIGMA = 12.0
FLIP_RATE = 0.05
CONTRAST_FACTOR = 1.5
BRIGHTNESS_DELTA = 40
ROTATE_K = 1


def grid_bytes(rows: list[list[int]]) -> bytes:
    """The ``*.grid`` text format: an ``H W`` header, then one line per row."""
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


def rects_mask(side: int, rects) -> list[list[int]]:
    rows = [[0] * side for _ in range(side)]
    for top, left, height, width in rects:
        for r in range(top, top + height):
            rows[r][left : left + width] = [1] * width
    return rows


def overlap_pair(rng: random.Random, side: int, style: str) -> tuple[list, list, int, int]:
    """(pred, truth, intersection, union) for one mask pair.

    ``rails``: two full-height strips of width w, prediction shifted right
    by d < w, so I = 2(w-d)H and U = 2(w+d)H.  ``block``: a w x h block,
    prediction shifted by (dy, dx), so I = (w-dx)(h-dy) and U = 2wh - I.
    """
    if style == "rails":
        width = max(2, side // 40)
        shift = rng.randint(1, width - 1)
        gauge = side // 3
        left = rng.randint(1, side - gauge - 2 * width - shift - 1)
        truth = rects_mask(side, [(0, left, side, width), (0, left + gauge, side, width)])
        pred = rects_mask(side, [(0, left + shift, side, width), (0, left + gauge + shift, side, width)])
        return pred, truth, 2 * (width - shift) * side, 2 * (width + shift) * side
    height = side * rng.randint(60, 75) // 100
    width = side * rng.randint(65, 75) // 100
    dy, dx = rng.randint(1, side // 16), rng.randint(1, side // 16)
    top, left = rng.randint(0, side - height - dy), rng.randint(0, side - width - dx)
    truth = rects_mask(side, [(top, left, height, width)])
    pred = rects_mask(side, [(top + dy, left + dx, height, width)])
    inter = (width - dx) * (height - dy)
    return pred, truth, inter, 2 * width * height - inter


def separated_rects(rng: random.Random, side: int, count: int) -> list[tuple[int, int, int, int]]:
    """Rectangles in a row of equal cells, each kept 2r+2 pixels clear of
    the border and of its neighbours, so morphology never merges or clips them."""
    margin = 2 * DILATE_RADIUS + 2
    cell = side // count
    rects = []
    for i in range(count):
        height = rng.randint(2 * DILATE_RADIUS + 3, side - 2 * margin)
        width = rng.randint(2 * DILATE_RADIUS + 3, cell - 2 * margin)
        top = rng.randint(margin, side - margin - height)
        left = i * cell + rng.randint(margin, cell - margin - width)
        rects.append((top, left, height, width))
    return rects


def random_image(rng: random.Random, side: int) -> list[list[int]]:
    return [[rng.randrange(256) for _ in range(side)] for _ in range(side)]


# --- the seeded streams laisc.metrics specifies --------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix_units(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        yield ((z >> 11) + 1) * 2.0**-53


def _round_half_away(value: float) -> int:
    return math.floor(value + 0.5) if value >= 0 else -math.floor(-value + 0.5)


def _clamp(value: int) -> int:
    return min(255, max(0, value))


def expected_noise(image: list[list[int]], sigma: float, seed: int) -> list[list[int]]:
    units = _splitmix_units(seed)
    normals = []

    def normal() -> float:
        if not normals:
            radius = math.sqrt(-2.0 * math.log(next(units)))
            angle = 2.0 * math.pi * next(units)
            normals.append(radius * math.sin(angle) * sigma)
            return radius * math.cos(angle) * sigma
        return normals.pop()

    return [[_clamp(_round_half_away(p + normal())) for p in row] for row in image]


def expected_pixel_flip(mask: list[list[int]], rate: float, seed: int) -> list[list[int]]:
    units = _splitmix_units(seed)
    return [[1 - v if next(units) <= rate else v for v in row] for row in mask]


def expected_contrast(image: list[list[int]], factor: float) -> list[list[int]]:
    mean = sum(p for row in image for p in row) / (len(image) * len(image[0]))
    return [[_clamp(_round_half_away(mean + factor * (p - mean))) for p in row] for row in image]


# --- CSV tables ---------------------------------------------------------------------


def activation_tables(rng: random.Random, rows: int, neurons: int, shifted: int) -> tuple[bytes, bytes, float]:
    """Two ``*.acts.csv`` tables and their expected distance ``shifted / neurons``."""
    moved = set(rng.sample(range(neurons), shifted))
    table = [[rng.random() for _ in range(neurons)] for _ in range(rows)]
    order = list(range(rows))
    rng.shuffle(order)
    header = "sample_id," + ",".join(f"a_{n}" for n in range(neurons))
    lines_a = [header] + [f"s-{i:05d}," + ",".join(map(repr, acts)) for i, acts in enumerate(table)]
    lines_b = [header]
    for i, source in enumerate(order):
        acts = [a + 2.0 if n in moved else a for n, a in enumerate(table[source])]
        lines_b.append(f"t-{i:05d}," + ",".join(map(repr, acts)))
    return ("\n".join(lines_a) + "\n").encode(), ("\n".join(lines_b) + "\n").encode(), shifted / neurons


def probability_table(rng: random.Random, rows: int, classes: int, flagged: int) -> tuple[bytes, list[str]]:
    """A ``*.probs.csv`` table and the ids it must flag, in table order."""
    chosen = set(rng.sample(range(rows), flagged))
    lines = ["instance_id,label," + ",".join(f"p_{k}" for k in range(classes))]
    for i in range(rows):
        label = rng.randrange(classes)
        own = rng.uniform(0.05, 0.35) if i in chosen else rng.uniform(0.6, 0.97)
        weights = [rng.random() + 0.01 for _ in range(classes - 1)]
        scale = (1.0 - own) / sum(weights)
        others = [w * scale for w in weights]
        others[-1] = max(0.0, 1.0 - own - sum(others[:-1]))
        probs = others[:label] + [own] + others[label:]
        lines.append(f"i-{i:05d},{label}," + ",".join(map(repr, probs)))
    return ("\n".join(lines) + "\n").encode(), [f"i-{i:05d}" for i in sorted(chosen)]
