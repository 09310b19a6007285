"""Quantitative measures that turn datasets into evidence values.

All functions here are pure and accumulate floating-point sums in a fixed
left-to-right order, so results are bit-identical across runs and across
any parallel scheduling a caller may add around them.

Randomized operations (noise injection, label flipping) draw from a
self-contained generator specified by algorithm rather than by library,
so the same seed reproduces the same bytes in any implementation:

* raw stream: splitmix64 -- ``state += 0x9E3779B97F4A7C15`` (mod 2^64),
  then ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64)
* uniforms: ``u = ((z >> 11) + 1) * 2^-53``, i.e. uniform on (0, 1]
* normals: Box-Muller in trigonometric form, ``r = sqrt(-2 ln u1)``,
  ``z0 = r cos(2 pi u2)``, ``z1 = r sin(2 pi u2)``; the pair is consumed
  in order z0, z1.

Values are consumed in row-major pixel order: noise adds ``z * sigma``
(evaluated as ``(r * cos(a)) * sigma`` with ``a = (2 pi) * u2``) to each
pixel, so an odd pixel count leaves the last ``z1`` unused; pixel flip
flips a cell whose ``u <= rate``.  Both draw from ``_uniforms``, one
splitmix64 loop held in local variables.

NAP distance bins each neuron's values with
``int(32 * (v - lo) / (hi - lo))``.  That index never decreases as ``v``
grows, so each column is sorted once and each bin's start is found by
bisection rather than by binning every value; see :func:`nap_distance`
for the overflow case.

The table kernels work on a table's ``flat`` numbers, row-major doubles,
never on the derived ``.rows``: NAP takes neuron ``j``'s column
as the strided slice ``flat[j::n]``, and the CLM scores and flags walk
``zip(ids, labels, zip(*[iter(flat)] * k))``, one row tuple at a time.

The grid kernels work on ``LabeledGrid.cells``, the row-major bytes,
never on the derived ``.values``: IoU counts the set bits of the cells
read as one integer, dilation, erosion and translation shift that integer
by whole cells, flip, rot90 and occlusion slice the buffer, and
brightness and contrast translate it through a 256-entry table.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import field
from itertools import islice

from laisc.codec import check_rows, is_number, number_rows, record
from laisc.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyTable,
    InvalidParameter,
    InvalidThreshold,
    NeuronCountMismatch,
    NonFinite,
    PatchOutOfBounds,
    ValueOutOfRange,
)
from laisc.io import ActivationTable, LabeledGrid, ProbabilityTable

#: Datasets smaller than this trigger a statistical-significance warning.
DEFAULT_MIN_SAMPLES = 30

_HISTOGRAM_BINS = 32


class SmallSampleWarning(UserWarning):
    """A metric ran on fewer samples than the configured minimum."""


def _warn_small_sample(what: str, size: int, min_samples: int) -> None:
    if size < min_samples:
        warnings.warn(
            SmallSampleWarning(
                f"{what} computed over {size} samples (< {min_samples}); "
                "result may not be statistically significant"
            ),
            stacklevel=3,
        )


# --- segmentation overlap ------------------------------------------------------


def _require_mask(grid: LabeledGrid, name: str) -> None:
    if not grid.is_binary:
        raise ValueOutOfRange(f"{name} must be a binary mask")


def iou(pred: LabeledGrid, truth: LabeledGrid) -> float:
    """Intersection over union of two binary masks.

    Two empty masks agree perfectly, so the empty-union case is 1.0.
    """
    if (pred.height, pred.width) != (truth.height, truth.width):
        raise DimensionMismatch(
            f"mask shapes differ: {pred.height}x{pred.width} vs {truth.height}x{truth.width}"
        )
    _require_mask(pred, "pred")
    _require_mask(truth, "truth")
    # Each cell is one byte holding 0 or 1, so counting set bits counts cells.
    a = int.from_bytes(pred.cells, "big")
    b = int.from_bytes(truth.cells, "big")
    union = (a | b).bit_count()
    if union == 0:
        return 1.0
    return (a & b).bit_count() / union


def miou(
    preds: list[LabeledGrid],
    truths: list[LabeledGrid],
    *,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> float:
    """Mean IoU over paired masks, accumulated in list order."""
    if len(preds) != len(truths):
        raise DimensionMismatch(f"{len(preds)} predictions vs {len(truths)} ground-truth masks")
    if not preds:
        raise EmptyDataset("mIoU needs at least one mask pair")
    total = 0.0
    for index, (pred, truth) in enumerate(zip(preds, truths)):
        try:
            total += iou(pred, truth)
        except DimensionMismatch as exc:
            raise DimensionMismatch(f"pair {index}: {exc}") from None
    _warn_small_sample("mIoU", len(preds), min_samples)
    return total / len(preds)


def performance_gap(pi_a: float, pi_b: float) -> float:
    """Absolute difference of two performance-indicator values."""
    for value in (pi_a, pi_b):
        if not is_number(value):
            raise NonFinite(f"performance indicator {value!r} is not a finite number")
    return abs(pi_a - pi_b)


# --- activation distribution distance -------------------------------------------


#: Scales a range whose ``32 * (v - lo)`` overflows a float back into range.
_SHRINK = 2.0**-6


def _bin_of(lo: float, hi: float, scaled: bool):
    """The bin index of a value in ``[lo, hi]``, before the top edge is
    folded into the last bin: ``int(32 * (v - lo) / (hi - lo))``, with
    ``v``, ``lo`` and ``hi`` each multiplied by ``2**-6`` first if
    ``scaled``."""
    if not scaled:
        span = hi - lo
        return lambda value: int(_HISTOGRAM_BINS * (value - lo) / span)
    lo, span = lo * _SHRINK, hi * _SHRINK - lo * _SHRINK
    return lambda value: int(_HISTOGRAM_BINS * (value * _SHRINK - lo) / span)


def _bin_counts(column: list, bin_of) -> list[int]:
    # ``column`` is sorted so that the bin index never decreases: each bin
    # starts at the first value whose index is that bin's or more, and the
    # top edge (index 32) closes the last bin.
    starts = [0]
    for k in range(1, _HISTOGRAM_BINS):
        starts.append(bisect_left(column, k, starts[-1], key=bin_of))
    starts.append(len(column))
    return [end - start for start, end in zip(starts, starts[1:])]


def nap_distance(
    a: ActivationTable,
    b: ActivationTable,
    *,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> float:
    """Mean per-neuron Hellinger distance between two activation tables.

    For each neuron the two tables are histogrammed over shared
    equal-width bins spanning their combined value range, normalized to
    probability vectors P and Q, and compared with the Hellinger distance
    ``H = sqrt(1 - sum_k sqrt(P_k Q_k))``, which lies in [0, 1]: 0 for
    identical distributions, 1 for disjoint ones.  It is evaluated in the
    equivalent form ``sqrt(0.5 * sum_k (sqrt(P_k) - sqrt(Q_k))^2)`` so
    that identical histograms yield exactly 0 in floating point.

    A value ``v`` falls in bin ``min(31, int(32 * (v - lo) / (hi - lo)))``
    of the neuron's range ``[lo, hi]``; where that overflows the float
    range for any value of the neuron, ``v``, ``lo`` and ``hi`` are each
    scaled by ``2**-6`` first.  A constant neuron contributes 0.  The bin
    index never decreases as ``v`` grows, so each column is sorted once and
    each bin's start found by bisection.
    """
    if a.num_neurons != b.num_neurons:
        raise NeuronCountMismatch(f"{a.num_neurons} neurons vs {b.num_neurons}")
    if not a.ids or not b.ids:
        raise EmptyTable("both activation tables need at least one row")
    _warn_small_sample("NAP distance", min(len(a.ids), len(b.ids)), min_samples)

    total, n, flat_a, flat_b = 0.0, a.num_neurons, a.flat, b.flat
    for neuron in range(n):
        # The neuron's column is every n-th number of the row-major table.
        column_a, column_b = sorted(flat_a[neuron::n]), sorted(flat_b[neuron::n])
        lo = min(column_a[0], column_b[0])
        # Of equal doubles only 0.0 and -0.0 differ, and the bins do not read hi's sign.
        hi = max(column_a[-1], column_b[-1])
        if hi - lo == 0:
            continue  # one bin holds both columns: adds 0
        # 32 * (v - lo) overflows for some value exactly when it does for hi.
        bin_of = _bin_of(lo, hi, scaled=not _HISTOGRAM_BINS * (hi - lo) < math.inf)
        spread = 0.0
        for count_a, count_b in zip(_bin_counts(column_a, bin_of), _bin_counts(column_b, bin_of)):
            diff = math.sqrt(count_a / len(column_a)) - math.sqrt(count_b / len(column_b))
            spread += diff * diff
        total += min(1.0, math.sqrt(0.5 * spread))
    return total / a.num_neurons


# --- confident-learning label scores ---------------------------------------------


def _table_rows(table: ProbabilityTable):
    """``(instance_id, label, probabilities)`` per row, one at a time."""
    return zip(table.ids, table.labels, zip(*[iter(table.flat)] * table.num_classes))


def clm_scores(
    table: ProbabilityTable,
    *,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> list[tuple[str, float]]:
    """Per-instance label-accuracy score: the predicted probability of the
    observed label (self-confidence)."""
    _warn_small_sample("label-accuracy scores", len(table.ids), min_samples)
    return [(instance_id, probs[label]) for instance_id, label, probs in _table_rows(table)]


@record
class ClmFlagResult:
    """Flagged instances plus the confident-joint count matrix.

    ``confident_joint[y][j]`` counts instances observed-labeled ``y`` whose
    probabilities confidently suggest class ``j``; off-diagonal membership
    is advisory (``off_diagonal_ids``), flagging itself is driven purely by
    the score threshold.  ``class_thresholds`` holds the per-class mean
    self-confidence used for the confident assignment; a class never seen
    among the observed labels gets ``inf`` (nothing can be confidently
    assigned to it).
    """

    flagged_ids: tuple[str, ...]
    confident_joint: tuple[tuple[int, ...], ...]
    class_thresholds: tuple[float, ...]
    off_diagonal_ids: tuple[str, ...]


def clm_flags(
    table: ProbabilityTable,
    threshold: float,
    *,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> ClmFlagResult:
    """Flag instances whose label-accuracy score falls below ``threshold``.

    Alongside the flags, estimates the confident joint: class threshold
    ``t_j`` is the mean self-confidence over instances observed-labeled
    ``j``; an instance with observed label ``y`` is counted in cell
    ``(y, j*)`` where ``j*`` maximizes ``p_j`` among classes with
    ``p_j >= t_j`` (ties broken toward the lowest class index), and is
    left uncounted when no class qualifies.  A table with no rows is an
    ``EmptyTable``: it would flag nothing, as if every instance were clean.
    """
    if not (is_number(threshold) and 0.0 <= threshold <= 1.0):
        raise InvalidThreshold(f"flag threshold must be in [0, 1], got {threshold!r}")
    if not table.ids:
        raise EmptyTable("the probability table needs at least one row")
    scores = clm_scores(table, min_samples=min_samples)
    flagged = tuple(instance_id for (instance_id, score) in scores if score < threshold)

    k = table.num_classes
    sums = [0.0] * k
    counts = [0] * k
    for (_, score), label in zip(scores, table.labels):
        sums[label] += score
        counts[label] += 1
    thresholds = tuple(
        sums[j] / counts[j] if counts[j] else math.inf for j in range(k)
    )

    joint = [[0] * k for _ in range(k)]
    off_diagonal = []
    for instance_id, label, probs in _table_rows(table):
        best: int | None = None
        for j in range(k):
            if probs[j] >= thresholds[j] and (best is None or probs[j] > probs[best]):
                best = j
        if best is None:
            continue
        joint[label][best] += 1
        if best != label:
            off_diagonal.append(instance_id)

    return ClmFlagResult(
        flagged_ids=flagged,
        confident_joint=tuple(tuple(row) for row in joint),
        class_thresholds=thresholds,
        off_diagonal_ids=tuple(off_diagonal),
    )


# --- seeded random streams --------------------------------------------------------


def _uniforms(seed: int):
    """The splitmix64 uniforms on (0, 1] for ``seed``, without end."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield (((z ^ (z >> 31)) >> 11) + 1) * 2.0**-53


# --- image perturbations ------------------------------------------------------------


@record
class BrightnessShift:
    """Add ``delta`` to every pixel of the image."""

    delta: int


@record
class ContrastScale:
    """Scale each pixel's distance from the image mean by ``factor``."""

    factor: float = field(metadata={"above": 0})


@record
class GaussianNoise:
    """Add normal noise of deviation ``sigma``, drawn from ``seed``, to each pixel."""

    sigma: float = field(metadata={"min": 0})
    seed: int


@record
class OcclusionPatch:
    """Set the ``w`` by ``h`` patch whose top left is ``(x, y)`` to 0."""

    x: int
    y: int
    w: int = field(metadata={"min": 1})
    h: int = field(metadata={"min": 1})


@record
class HorizontalFlip:
    """Mirror the image and the mask left to right."""


@record
class Rotate90:
    """Rotate the image and the mask ``k`` quarter turns counterclockwise."""

    k: int = field(metadata={"min": 1, "max": 3})


PerturbationSpec = BrightnessShift | ContrastScale | GaussianNoise | OcclusionPatch | HorizontalFlip | Rotate90


def _check_spec(spec, kinds, what: str) -> None:
    """Reject a spec that is none of ``kinds`` or that breaks a number rule
    of its fields (``number_rows`` over the one spec)."""
    name = type(spec).__name__
    if not isinstance(spec, kinds):
        raise InvalidParameter(f"unknown {what} {name}")
    check_rows(number_rows(type(spec), [spec], None, lambda words, _: InvalidParameter(f"{name}.{words}")))


def _to_byte(value: float) -> int:
    # Half away from zero, not round()'s half to even.  floor(x + 0.5) is off
    # for 0.49999999999999994 (the sum rounds to 1.0); x - floor(x) is exact.
    clamped = min(255.0, max(0.0, value))
    whole = math.floor(clamped)
    return whole + (clamped - whole >= 0.5)


def _flip_horizontal(grid: LabeledGrid) -> LabeledGrid:
    cells, width = grid.cells, grid.width
    rows = [cells[start : start + width][::-1] for start in range(0, len(cells), width)]
    return LabeledGrid.from_bytes(grid.height, width, b"".join(rows))


def _rotate90_once(grid: LabeledGrid) -> LabeledGrid:
    # Counterclockwise: new row r is old column W-1-r, read top to bottom.
    cells, width = grid.cells, grid.width
    columns = [cells[c::width] for c in range(width - 1, -1, -1)]
    return LabeledGrid.from_bytes(width, grid.height, b"".join(columns))


def perturb(
    image: LabeledGrid, mask: LabeledGrid, spec: PerturbationSpec
) -> tuple[LabeledGrid, LabeledGrid]:
    """Apply one perturbation, returning the new (image, mask) pair.

    Geometric kinds (flip, rot90) move image and mask alike; photometric
    kinds touch only the image.  Pixel arithmetic clamps to [0, 255] and
    rounds half away from zero.  The contrast transform scales pixel
    distance from the image mean.  Brightness and contrast map each pixel
    through one 256-entry table (the mean is fixed first); flip, rot90 and
    occlusion slice the cell buffer.
    """
    if (image.height, image.width) != (mask.height, mask.width):
        raise DimensionMismatch(
            f"image {image.height}x{image.width} vs mask {mask.height}x{mask.width}"
        )
    _require_mask(mask, "mask")
    _check_spec(spec, PerturbationSpec, "perturbation")

    if isinstance(spec, BrightnessShift):
        table = bytes(min(255, max(0, p + spec.delta)) for p in range(256))
        return LabeledGrid.from_bytes(image.height, image.width, image.cells.translate(table)), mask

    if isinstance(spec, ContrastScale):
        mean = sum(image.cells) / len(image.cells)
        table = bytes(_to_byte(mean + spec.factor * (p - mean)) for p in range(256))
        return LabeledGrid.from_bytes(image.height, image.width, image.cells.translate(table)), mask

    if isinstance(spec, GaussianNoise):
        units, sigma = _uniforms(spec.seed), spec.sigma
        sqrt, log, cos, sin, turn = math.sqrt, math.log, math.cos, math.sin, 2.0 * math.pi
        noise = []
        # One pair of uniforms per two pixels: the cosine normal, then the sine one.
        for u1, u2 in islice(zip(units, units), (len(image.cells) + 1) // 2):
            radius, angle = sqrt(-2.0 * log(u1)), turn * u2
            noise += (radius * cos(angle) * sigma, radius * sin(angle) * sigma)
        cells = bytes([_to_byte(value + z) for value, z in zip(image.cells, noise)])
        return LabeledGrid.from_bytes(image.height, image.width, cells), mask

    if isinstance(spec, OcclusionPatch):
        if spec.x < 0 or spec.y < 0 or spec.x + spec.w > image.width or spec.y + spec.h > image.height:
            raise PatchOutOfBounds(
                f"patch x={spec.x} y={spec.y} w={spec.w} h={spec.h} "
                f"exceeds {image.width}x{image.height} image"
            )
        cells = bytearray(image.cells)
        for r in range(spec.y, spec.y + spec.h):
            start = r * image.width + spec.x
            cells[start : start + spec.w] = bytes(spec.w)
        return LabeledGrid.from_bytes(image.height, image.width, cells), mask

    if isinstance(spec, HorizontalFlip):
        return _flip_horizontal(image), _flip_horizontal(mask)

    # Rotate90, the one kind left.
    new_image, new_mask = image, mask
    for _ in range(spec.k):
        new_image = _rotate90_once(new_image)
        new_mask = _rotate90_once(new_mask)
    return new_image, new_mask


# --- label augmentations --------------------------------------------------------------


@record
class RandomPixelFlip:
    """Flip each mask cell with probability ``rate``, drawn from ``seed``."""

    rate: float = field(metadata={"min": 0, "max": 1})
    seed: int


@record
class MaskDilate:
    """Dilate the mask by a square of side ``2 * radius + 1``."""

    radius: int = field(metadata={"min": 0})


@record
class MaskErode:
    """Erode the mask by a square of side ``2 * radius + 1``."""

    radius: int = field(metadata={"min": 0})


@record
class MaskTranslate:
    """Move the mask ``dx`` columns right and ``dy`` rows down; cells moved in are 0."""

    dx: int
    dy: int


LabelAugmentationSpec = RandomPixelFlip | MaskDilate | MaskErode | MaskTranslate


def _shifted(bits: int, height: int, width: int, dx: int, dy: int) -> int:
    """The grid ``bits`` moved ``dx`` columns right and ``dy`` rows down;
    cells moved in from outside the grid are 0.

    ``bits`` holds a grid's cells as one big-endian integer, so a move by
    one cell is a shift by 8 bits.  The mask clears the cells that a shift
    wraps in from the neighbouring row, and what a left shift pushes past
    the first cell.
    """
    kept = width - abs(dx)
    if kept <= 0 or abs(dy) >= height:
        return 0
    row = b"\x00" * dx + b"\xff" * kept if dx >= 0 else b"\xff" * kept + b"\x00" * -dx
    offset = 8 * (dy * width + dx)
    moved = bits >> offset if offset >= 0 else bits << -offset
    return moved & int.from_bytes(row * height, "big")


def _morph(mask: LabeledGrid, radius: int, combine) -> LabeledGrid:
    # Square structuring element of side 2*radius+1; outside cells are 0.
    # The square is a row window then a column window; a move by a whole
    # side already brings in only zeros, so longer moves are skipped.
    height, width = mask.height, mask.width
    bits = int.from_bytes(mask.cells, "big")
    for unit_x, unit_y, side in ((1, 0, width), (0, 1, height)):
        window = bits
        for d in range(1, min(radius, side) + 1):
            for step in (d, -d):
                window = combine(window, _shifted(bits, height, width, step * unit_x, step * unit_y))
        bits = window
    return LabeledGrid.from_bytes(height, width, bits.to_bytes(height * width, "big"))


def augment_labels(mask: LabeledGrid, spec: LabelAugmentationSpec) -> LabeledGrid:
    """Introduce a controlled label defect into a binary mask.

    Dilation and erosion are a row pass then a column pass of shifted
    copies of the mask, combined with OR or AND; translation is one such
    shift.
    """
    _require_mask(mask, "mask")
    _check_spec(spec, LabelAugmentationSpec, "augmentation")

    if isinstance(spec, RandomPixelFlip):
        rate = spec.rate
        cells = bytes([1 - value if unit <= rate else value for value, unit in zip(mask.cells, _uniforms(spec.seed))])
        return LabeledGrid.from_bytes(mask.height, mask.width, cells)

    if isinstance(spec, MaskDilate):
        return _morph(mask, spec.radius, int.__or__)

    if isinstance(spec, MaskErode):
        return _morph(mask, spec.radius, int.__and__)

    # MaskTranslate, the one kind left.
    bits = _shifted(int.from_bytes(mask.cells, "big"), mask.height, mask.width, spec.dx, spec.dy)
    return LabeledGrid.from_bytes(mask.height, mask.width, bits.to_bytes(mask.height * mask.width, "big"))
