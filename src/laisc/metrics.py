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

Values are consumed in row-major pixel order.

The grid kernels work on ``LabeledGrid.cells``, the row-major bytes,
never on the derived ``.values``: IoU counts the set bits of the cells
read as one integer, dilation, erosion and translation shift that integer
by whole cells, flip, rot90 and occlusion slice the buffer, and
brightness and contrast translate it through a 256-entry table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

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
        if not math.isfinite(value):
            raise NonFinite(f"performance indicator {value!r} is not finite")
    return abs(pi_a - pi_b)


# --- activation distribution distance -------------------------------------------


def _bin_counts(values: list[float], lo: float, hi: float) -> list[int]:
    # Shared equal-width bins over [lo, hi]; the top edge closes the last bin.
    if hi == lo:
        return [len(values)]
    counts = [0] * _HISTOGRAM_BINS
    span = hi - lo
    for value in values:
        index = int(_HISTOGRAM_BINS * (value - lo) / span)
        if index >= _HISTOGRAM_BINS:
            index = _HISTOGRAM_BINS - 1
        counts[index] += 1
    return counts


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
    """
    if a.num_neurons != b.num_neurons:
        raise NeuronCountMismatch(f"{a.num_neurons} neurons vs {b.num_neurons}")
    if not a.rows or not b.rows:
        raise EmptyTable("both activation tables need at least one row")
    _warn_small_sample("NAP distance", min(len(a.rows), len(b.rows)), min_samples)

    total = 0.0
    for neuron in range(a.num_neurons):
        values_a = [acts[neuron] for _, acts in a.rows]
        values_b = [acts[neuron] for _, acts in b.rows]
        lo = min(min(values_a), min(values_b))
        hi = max(max(values_a), max(values_b))
        counts_a = _bin_counts(values_a, lo, hi)
        counts_b = _bin_counts(values_b, lo, hi)
        spread = 0.0
        for count_a, count_b in zip(counts_a, counts_b):
            diff = math.sqrt(count_a / len(values_a)) - math.sqrt(count_b / len(values_b))
            spread += diff * diff
        total += min(1.0, math.sqrt(0.5 * spread))
    return total / a.num_neurons


# --- confident-learning label scores ---------------------------------------------


def clm_scores(
    table: ProbabilityTable,
    *,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> list[tuple[str, float]]:
    """Per-instance label-accuracy score: the predicted probability of the
    observed label (self-confidence)."""
    _warn_small_sample("label-accuracy scores", len(table.rows), min_samples)
    return [(instance_id, probs[label]) for instance_id, label, probs in table.rows]


@dataclass(frozen=True, slots=True)
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
    left uncounted when no class qualifies.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThreshold(f"flag threshold must be in [0, 1], got {threshold!r}")
    scores = clm_scores(table, min_samples=min_samples)
    flagged = tuple(instance_id for (instance_id, score) in scores if score < threshold)

    k = table.num_classes
    sums = [0.0] * k
    counts = [0] * k
    for _, label, probs in table.rows:
        sums[label] += probs[label]
        counts[label] += 1
    thresholds = tuple(
        sums[j] / counts[j] if counts[j] else math.inf for j in range(k)
    )

    joint = [[0] * k for _ in range(k)]
    off_diagonal = []
    for instance_id, label, probs in table.rows:
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

_MASK64 = (1 << 64) - 1


class _SplitMix64:
    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform on (0, 1], safe as a log argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53


class _GaussianStream:
    """Box-Muller normals over a splitmix64 uniform stream."""

    def __init__(self, seed: int, sigma: float) -> None:
        self._uniforms = _SplitMix64(seed)
        self._sigma = sigma
        self._spare: float | None = None

    def next(self) -> float:
        if self._spare is not None:
            value = self._spare
            self._spare = None
            return value
        u1 = self._uniforms.next_unit()
        u2 = self._uniforms.next_unit()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._spare = radius * math.sin(angle) * self._sigma
        return radius * math.cos(angle) * self._sigma


# --- image perturbations ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BrightnessShift:
    delta: int


@dataclass(frozen=True, slots=True)
class ContrastScale:
    factor: float


@dataclass(frozen=True, slots=True)
class GaussianNoise:
    sigma: float
    seed: int


@dataclass(frozen=True, slots=True)
class OcclusionPatch:
    x: int
    y: int
    w: int
    h: int


@dataclass(frozen=True, slots=True)
class HorizontalFlip:
    pass


@dataclass(frozen=True, slots=True)
class Rotate90:
    k: int


PerturbationSpec = BrightnessShift | ContrastScale | GaussianNoise | OcclusionPatch | HorizontalFlip | Rotate90


def _check_int_fields(spec) -> None:
    """Reject a value that is not an ``int``, or is a ``bool``, in any
    field the spec dataclass declares ``int``."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        # Annotations are strings in this module (``from __future__ import annotations``).
        if field.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
            raise InvalidParameter(f"{type(spec).__name__}.{field.name} must be an integer, got {value!r}")


def _to_byte(value: float) -> int:
    # round() is banker's rounding; evidence needs half away from zero,
    # which is floor(x + 0.5) once x is clamped to [0, 255].
    return math.floor(min(255.0, max(0.0, value)) + 0.5)


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
    if not isinstance(spec, PerturbationSpec):
        raise InvalidParameter(f"unknown perturbation {type(spec).__name__}")
    _check_int_fields(spec)

    if isinstance(spec, BrightnessShift):
        table = bytes(min(255, max(0, p + spec.delta)) for p in range(256))
        return LabeledGrid.from_bytes(image.height, image.width, image.cells.translate(table)), mask

    if isinstance(spec, ContrastScale):
        if not math.isfinite(spec.factor) or spec.factor <= 0:
            raise InvalidParameter(f"contrast factor must be > 0, got {spec.factor!r}")
        mean = sum(image.cells) / len(image.cells)
        table = bytes(_to_byte(mean + spec.factor * (p - mean)) for p in range(256))
        return LabeledGrid.from_bytes(image.height, image.width, image.cells.translate(table)), mask

    if isinstance(spec, GaussianNoise):
        if not math.isfinite(spec.sigma) or spec.sigma < 0:
            raise InvalidParameter(f"noise sigma must be >= 0, got {spec.sigma!r}")
        noise = _GaussianStream(spec.seed, spec.sigma).next
        cells = bytes([_to_byte(value + noise()) for value in image.cells])
        return LabeledGrid.from_bytes(image.height, image.width, cells), mask

    if isinstance(spec, OcclusionPatch):
        if spec.w < 1 or spec.h < 1:
            raise InvalidParameter(f"occlusion patch must be at least 1x1, got {spec.w}x{spec.h}")
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
    if spec.k not in (1, 2, 3):
        raise InvalidParameter(f"rotation count must be 1, 2, or 3, got {spec.k!r}")
    new_image, new_mask = image, mask
    for _ in range(spec.k):
        new_image = _rotate90_once(new_image)
        new_mask = _rotate90_once(new_mask)
    return new_image, new_mask


# --- label augmentations --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RandomPixelFlip:
    rate: float
    seed: int


@dataclass(frozen=True, slots=True)
class MaskDilate:
    radius: int


@dataclass(frozen=True, slots=True)
class MaskErode:
    radius: int


@dataclass(frozen=True, slots=True)
class MaskTranslate:
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
    if not isinstance(spec, LabelAugmentationSpec):
        raise InvalidParameter(f"unknown augmentation {type(spec).__name__}")
    _check_int_fields(spec)

    if isinstance(spec, RandomPixelFlip):
        if not math.isfinite(spec.rate) or not 0.0 <= spec.rate <= 1.0:
            raise InvalidParameter(f"flip rate must be in [0, 1], got {spec.rate!r}")
        unit, rate = _SplitMix64(spec.seed).next_unit, spec.rate
        cells = bytes([1 - value if unit() <= rate else value for value in mask.cells])
        return LabeledGrid.from_bytes(mask.height, mask.width, cells)

    if isinstance(spec, MaskDilate):
        if spec.radius < 0:
            raise InvalidParameter(f"dilation radius must be >= 0, got {spec.radius!r}")
        return _morph(mask, spec.radius, int.__or__)

    if isinstance(spec, MaskErode):
        if spec.radius < 0:
            raise InvalidParameter(f"erosion radius must be >= 0, got {spec.radius!r}")
        return _morph(mask, spec.radius, int.__and__)

    # MaskTranslate, the one kind left.
    bits = _shifted(int.from_bytes(mask.cells, "big"), mask.height, mask.width, spec.dx, spec.dy)
    return LabeledGrid.from_bytes(mask.height, mask.width, bits.to_bytes(mask.height * mask.width, "big"))
