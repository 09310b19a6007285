from __future__ import annotations

import hashlib
import math
import random
import sys
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brightness_oracle,
    brute_force_confident_joint,
    brute_force_iou,
    contrast_oracle,
    hflip_oracle,
    morphology_oracle,
    nap_oracle,
    noise_oracle,
    occlusion_oracle,
    pixel_flip_oracle,
    random_activation_table,
    random_image,
    random_mask,
    random_prob_table,
    rot90_oracle,
    translate_oracle,
)
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
from laisc.metrics import (
    BrightnessShift,
    ContrastScale,
    GaussianNoise,
    HorizontalFlip,
    MaskDilate,
    MaskErode,
    MaskTranslate,
    OcclusionPatch,
    RandomPixelFlip,
    Rotate90,
    SmallSampleWarning,
    _to_byte,
    augment_labels,
    clm_flags,
    clm_scores,
    iou,
    miou,
    nap_distance,
    performance_gap,
    perturb,
)


def grid(*rows):
    return LabeledGrid(len(rows), len(rows[0]), tuple(tuple(r) for r in rows))


CL_SIX = ProbabilityTable(
    2,
    (
        ("a", 0, (0.9, 0.1)),
        ("b", 0, (0.8, 0.2)),
        ("c", 0, (0.4, 0.6)),
        ("d", 1, (0.1, 0.9)),
        ("e", 1, (0.3, 0.7)),
        ("f", 1, (0.4, 0.6)),
    ),
)


# --- iou / miou -----------------------------------------------------------------


def test_iou_identity():
    mask = grid([1, 1], [0, 1])
    assert iou(mask, mask) == 1.0


def test_iou_disjoint():
    assert iou(grid([1, 0], [0, 0]), grid([0, 0], [0, 1])) == 0.0


def test_iou_half_overlap():
    # intersection 1, union 2 by pixel enumeration
    assert iou(grid([1, 1], [0, 0]), grid([1, 0], [0, 0])) == 0.5


def test_iou_both_empty_masks():
    empty = grid([0, 0], [0, 0])
    assert iou(empty, empty) == 1.0


def test_iou_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        iou(grid([1, 0]), grid([1], [0]))


def test_iou_rejects_nonbinary():
    with pytest.raises(ValueOutOfRange):
        iou(grid([2, 0]), grid([1, 0]))


def test_iou_matches_brute_force_on_random_masks():
    rng = random.Random(17)
    for _ in range(200):
        a, b = random_mask(rng), random_mask(rng)
        b = LabeledGrid(a.height, a.width, tuple(tuple(rng.randint(0, 1) for _ in row) for row in a.values))
        assert iou(a, b) == brute_force_iou(a, b)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_miou_two_pair_example():
    mask = grid([1, 1], [0, 1])
    assert miou(
        [mask, grid([1, 1], [0, 0])],
        [mask, grid([1, 0], [0, 0])],
        min_samples=1,
    ) == pytest.approx(0.75, abs=1e-12)


def test_miou_single_pair_equals_iou():
    a, b = grid([1, 0]), grid([1, 1])
    assert miou([a], [b], min_samples=1) == iou(a, b)


def test_miou_length_mismatch_and_empty():
    with pytest.raises(DimensionMismatch):
        miou([grid([1])], [], min_samples=1)
    with pytest.raises(EmptyDataset):
        miou([], [], min_samples=1)


def test_miou_reports_pair_index_on_shape_mismatch():
    with pytest.raises(DimensionMismatch, match="pair 1"):
        miou([grid([1]), grid([1])], [grid([1]), grid([1], [0])], min_samples=1)


def test_miou_small_sample_warning():
    mask = grid([1])
    with pytest.warns(SmallSampleWarning):
        miou([mask], [mask])
    with pytest.warns(SmallSampleWarning):
        miou([mask] * 29, [mask] * 29)


# --- performance gap ----------------------------------------------------------------


def test_performance_gap_examples():
    assert performance_gap(0.86, 0.88) == pytest.approx(0.02, abs=1e-12)
    assert performance_gap(0.4, 0.4) == 0.0
    assert performance_gap(0.9, 0.7) == pytest.approx(0.2, abs=1e-12)


def test_performance_gap_rejects_non_finite():
    with pytest.raises(NonFinite):
        performance_gap(float("nan"), 0.5)


# --- nap distance -----------------------------------------------------------------------


def acts(*rows):
    return ActivationTable(len(rows[0]), tuple((f"s{i}", tuple(r)) for i, r in enumerate(rows)))


def test_nap_identical_tables_zero():
    table = acts((0.1, 2.0), (1.5, -3.0), (0.2, 0.0))
    assert nap_distance(table, table, min_samples=1) == pytest.approx(0.0, abs=1e-12)


def test_nap_disjoint_ranges_is_one():
    a = acts((0.0,), (1.0,))
    b = acts((100.0,), (101.0,))
    assert nap_distance(a, b, min_samples=1) == 1.0


def test_nap_closed_form_half_split():
    # table a occupies two bins with mass (0.5, 0.5); table b a single bin (1, 0)
    a = acts((0.0,), (32.0,))
    b = acts((0.0,), (0.0,))
    expected = math.sqrt(1 - math.sqrt(0.5))
    assert nap_distance(a, b, min_samples=1) == pytest.approx(expected, abs=1e-6)
    assert nap_distance(a, b, min_samples=1) == pytest.approx(0.541196, abs=1e-6)


@pytest.mark.parametrize(
    "low, high",
    [(-1e308, 1e308), (0.0, 1e308), (-sys.float_info.max, sys.float_info.max), (-2e306, 2e306)],
    ids=["span-overflows", "32-span-overflows", "float-max", "fits"],
)
def test_nap_range_past_float_max_gives_the_half_split_distance(low, high):
    # a fills the first and the last bin, b the last: the bins of (0, 1) vs (1, 1).
    expected = nap_distance(acts((0.0,), (1.0,)), acts((1.0,), (1.0,)), min_samples=1)
    assert expected == pytest.approx(0.541196, abs=1e-6)
    a = acts((low,), (high,))
    b = acts((high,), (high,))
    assert nap_distance(a, b, min_samples=1) == expected
    assert nap_distance(b, a, min_samples=1) == expected


def test_nap_int_and_float_closer_than_float_spacing_contribute_zero():
    # 2**60 + 1 - 2.0**60 rounds to 0.0 although the two values differ.
    a = acts((2.0**60, 1.0), (2.0**60, 2.0))
    b = acts((2**60 + 1, 1.0), (2**60 + 1, 2.0))
    assert nap_distance(a, b, min_samples=1) == 0.0


def test_nap_range_ends_where_max_puts_them():
    # hi is the int, the first of two equal maxima as max() picks it; with the
    # float as hi, 1339375441193978874 would take another bin.
    hi = 1883917254191783936
    a = acts((hi,), (1339375441193978874,), (float(hi),), (1261583753622863872,))
    b = acts((1.339375441193979e18,))
    assert nap_distance(a, b, min_samples=1) == nap_oracle(a, b) == 1.0


def test_nap_constant_neuron_contributes_zero():
    a = acts((5.0, 0.0), (5.0, 1.0))
    b = acts((5.0, 100.0), (5.0, 101.0))
    # neuron 0 identical everywhere, neuron 1 disjoint: mean = 0.5
    assert nap_distance(a, b, min_samples=1) == pytest.approx(0.5, abs=1e-12)


def test_nap_row_order_invariance():
    rng = random.Random(3)
    a = random_activation_table(rng, 3, 12)
    b = random_activation_table(rng, 3, 9)
    shuffled = list(a.rows)
    rng.shuffle(shuffled)
    a_shuffled = ActivationTable(a.num_neurons, tuple(shuffled))
    assert nap_distance(a, b, min_samples=1) == nap_distance(a_shuffled, b, min_samples=1)


def test_nap_symmetry_and_bounds_random():
    rng = random.Random(11)
    for _ in range(50):
        a = random_activation_table(rng, rng.randint(1, 4), rng.randint(1, 20))
        b = random_activation_table(rng, a.num_neurons, rng.randint(1, 20))
        d_ab = nap_distance(a, b, min_samples=1)
        d_ba = nap_distance(b, a, min_samples=1)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert 0.0 <= d_ab <= 1.0


def test_nap_errors():
    with pytest.raises(NeuronCountMismatch):
        nap_distance(acts((1.0,)), acts((1.0, 2.0)), min_samples=1)
    with pytest.raises(EmptyTable):
        nap_distance(ActivationTable(1, ()), acts((1.0,)), min_samples=1)


def test_nap_small_sample_warning():
    with pytest.warns(SmallSampleWarning):
        nap_distance(acts((1.0,), (2.0,)), acts((1.5,), (2.5,)))


_FLOAT_MAX = sys.float_info.max


@st.composite
def _neuron_pool(draw) -> list:
    """The values one neuron draws from: bin edges, a tiny span, small ints,
    ints and floats of nearly equal value past 2**52, any finite floats,
    values near the float range, or one constant."""
    kind = draw(st.sampled_from(("edges", "tiny", "ints", "big", "floats", "extremes", "constant")))
    if kind == "edges":
        lo, width = draw(st.floats(-1e6, 1e6)), draw(st.floats(1e-6, 1e6))
        return [lo + width * j / 32 for j in range(33)]
    if kind == "tiny":
        pool = [draw(st.floats(-1e6, 1e6))]
        for _ in range(draw(st.integers(1, 4))):
            pool.append(math.nextafter(pool[-1], math.inf))
        return pool
    if kind == "ints":
        return draw(st.lists(st.integers(-40, 40), min_size=1, max_size=6))
    if kind == "big":
        # Ints and floats around one bin edge of a range past 2**53; each end
        # of the range as an int, a float or both (equal values, in either order).
        lo, span = draw(st.integers(-(2**50), 2**50)) * 2**12, draw(st.integers(2**41, 2**48)) * 2**12
        edge = lo + span * draw(st.integers(1, 31)) // 32
        casts = st.sampled_from(((int,), (float,), (int, float), (float, int)))
        ends = [cast(end) for end in (lo, lo + span) for cast in draw(casts)]
        return ends + [value for d in range(-6, 7) for value in (edge + d, float(edge + d))]
    if kind == "floats":
        return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
    if kind == "extremes":
        return [-_FLOAT_MAX, -1e308, -(10**308), -2e306, 0.0, 0, 2e306, 10**308, 1e308, _FLOAT_MAX]
    return [draw(st.one_of(st.integers(-5, 5), st.floats(-5, 5)))]


@st.composite
def _activation_pair(draw) -> tuple[ActivationTable, ActivationTable]:
    neurons = draw(st.integers(1, 3))
    # One or two pools per neuron, so ints, floats and extremes can mix.
    pools = [sum(draw(st.lists(_neuron_pool(), min_size=1, max_size=2)), []) for _ in range(neurons)]
    tables = []
    for _ in range(2):
        rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=12))
        tables.append(ActivationTable(neurons, tuple((f"s{i}", row) for i, row in enumerate(rows))))
    return tables[0], tables[1]


@settings(max_examples=300, deadline=None)
@given(_activation_pair())
def test_nap_equals_the_per_value_oracle(pair):
    a, b = pair
    distance = nap_distance(a, b, min_samples=1)
    assert distance == nap_oracle(a, b)
    assert 0.0 <= distance <= 1.0


# --- confident learning ---------------------------------------------------------------------


def test_clm_scores_read_off():
    table = ProbabilityTable(2, (("x", 1, (0.3, 0.7)), ("y", 0, (0.3, 0.7))))
    assert clm_scores(table, min_samples=1) == [("x", 0.7), ("y", 0.3)]


def test_clm_scores_uniform():
    table = ProbabilityTable(4, (("x", 2, (0.25, 0.25, 0.25, 0.25)),))
    assert clm_scores(table, min_samples=1) == [("x", 0.25)]


def test_clm_flags_threshold_examples():
    table = ProbabilityTable(2, (("x", 1, (0.7, 0.3)),))
    assert clm_flags(table, 0.5, min_samples=1).flagged_ids == ("x",)
    assert clm_flags(table, 0.0, min_samples=1).flagged_ids == ()


def test_clm_flags_invalid_threshold():
    with pytest.raises(InvalidThreshold):
        clm_flags(CL_SIX, 1.5, min_samples=1)


def test_clm_flags_refuses_a_table_with_no_rows():
    """A table with no rows would flag nothing, as if every instance were
    clean: it is refused, as ``nap_distance`` refuses one."""
    with pytest.raises(EmptyTable, match="^the probability table needs at least one row$"):
        clm_flags(ProbabilityTable(2, ()), 0.5, min_samples=1)


def test_clm_six_instance_confident_joint():
    result = clm_flags(CL_SIX, 0.5, min_samples=1)
    assert result.confident_joint == ((2, 0), (0, 1))
    assert result.flagged_ids == ("c",)
    assert result.off_diagonal_ids == ()
    assert [round(t, 12) for t in result.class_thresholds] == [
        round((0.9 + 0.8 + 0.4) / 3, 12),
        round((0.9 + 0.7 + 0.6) / 3, 12),
    ]


def test_clm_confident_joint_matches_brute_force():
    rng = random.Random(23)
    for _ in range(80):
        table = random_prob_table(rng, rng.randint(2, 3), rng.randint(1, 10))
        result = clm_flags(table, rng.random(), min_samples=1)
        assert [list(row) for row in result.confident_joint] == brute_force_confident_joint(table)
        total = sum(sum(row) for row in result.confident_joint)
        assert total <= len(table.rows)


def test_clm_permutation_equivariance():
    rng = random.Random(29)
    table = random_prob_table(rng, 3, 8)
    perm = list(table.rows)
    rng.shuffle(perm)
    shuffled = ProbabilityTable(3, tuple(perm))
    assert dict(clm_scores(table, min_samples=1)) == dict(clm_scores(shuffled, min_samples=1))
    assert set(clm_flags(table, 0.6, min_samples=1).flagged_ids) == set(
        clm_flags(shuffled, 0.6, min_samples=1).flagged_ids
    )


def test_clm_unseen_class_never_assigned():
    # nothing observed as class 2, so no instance may be confidently class 2
    table = ProbabilityTable(
        3, (("x", 0, (0.2, 0.1, 0.7)), ("y", 1, (0.1, 0.2, 0.7)))
    )
    result = clm_flags(table, 0.5, min_samples=1)
    assert all(row[2] == 0 for row in result.confident_joint)
    assert result.class_thresholds[2] == math.inf


# --- perturbations -----------------------------------------------------------------------------


MASK = grid([1, 0], [0, 1])


def test_brightness_clamps():
    image = grid([200, 220], [0, 10])
    out, mask_out = perturb(image, MASK, BrightnessShift(50))
    assert out.values == ((250, 255), (50, 60))
    assert mask_out == MASK


def test_brightness_negative_clamps_at_zero():
    out, _ = perturb(grid([10, 0], [255, 100]), MASK, BrightnessShift(-20))
    assert out.values == ((0, 0), (235, 80))


def test_contrast_rounds_half_away_from_zero():
    out, _ = perturb(grid([0, 2]), grid([0, 1]), ContrastScale(0.5))
    # mean 1.0: 0 -> 0.5 -> 1 (half away from zero), 2 -> 1.5 -> 2
    assert out.values == ((1, 2),)


def test_to_byte_rounds_the_largest_double_below_one_half_down():
    # 0.49999999999999994 + 0.5 rounds to 1.0 in floating point.
    assert _to_byte(0.49999999999999994) == 0
    assert _to_byte(0.5) == 1


def _near_half(whole: int, step: int) -> float:
    """``whole + 0.5``, or the double just below or above it."""
    value = whole + 0.5
    return value if step == 0 else math.nextafter(value, math.copysign(math.inf, step))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False) | st.builds(_near_half, st.integers(-2, 257), st.sampled_from((-1, 0, 1))))
def test_to_byte_is_clamped_round_half_up(value):
    expected = int(Decimal(min(255.0, max(0.0, value))).quantize(Decimal(1), rounding=ROUND_HALF_UP))
    assert _to_byte(value) == expected


def test_contrast_identity_factor():
    image = grid([3, 200], [77, 12])
    out, _ = perturb(image, MASK, ContrastScale(1.0))
    assert out == image


def test_contrast_factor_past_float_range_clamps():
    # factor * (p - mean) overflows to +-inf; the pixel still clamps to [0, 255]
    out, _ = perturb(grid([0, 255]), grid([0, 1]), ContrastScale(1e308))
    assert out.values == ((0, 255),)


def test_contrast_invalid_factor():
    with pytest.raises(InvalidParameter):
        perturb(grid([1]), grid([1]), ContrastScale(0.0))


def test_noise_deterministic_and_seed_sensitive():
    rng = random.Random(31)
    image = random_image(rng, 6, 7)
    mask = LabeledGrid(6, 7, tuple(tuple(rng.randint(0, 1) for _ in range(7)) for _ in range(6)))
    first, _ = perturb(image, mask, GaussianNoise(sigma=12.5, seed=42))
    second, _ = perturb(image, mask, GaussianNoise(sigma=12.5, seed=42))
    other, _ = perturb(image, mask, GaussianNoise(sigma=12.5, seed=43))
    assert first == second
    assert first != other


def test_noise_zero_sigma_is_identity():
    image = grid([1, 2], [3, 4])
    out, _ = perturb(image, MASK, GaussianNoise(sigma=0.0, seed=9))
    assert out == image


def test_occlusion_zeroes_rectangle_only():
    image = grid([9, 9, 9], [9, 9, 9], [9, 9, 9])
    mask = grid([1, 0, 1], [0, 1, 0], [1, 0, 1])
    out, mask_out = perturb(image, mask, OcclusionPatch(x=1, y=0, w=2, h=2))
    assert out.values == ((9, 0, 0), (9, 0, 0), (9, 9, 9))
    assert mask_out == mask


def test_occlusion_out_of_bounds():
    with pytest.raises(PatchOutOfBounds):
        perturb(grid([1, 2]), grid([1, 0]), OcclusionPatch(x=1, y=0, w=2, h=1))
    with pytest.raises(InvalidParameter):
        perturb(grid([1, 2]), grid([1, 0]), OcclusionPatch(x=0, y=0, w=0, h=1))


def test_hflip_mirrors_image_and_mask():
    image = grid([1, 2, 3])
    mask = grid([1, 0, 0])
    out, mask_out = perturb(image, mask, HorizontalFlip())
    assert out.values == ((3, 2, 1),)
    assert mask_out.values == ((0, 0, 1),)


def test_rotate180_twice_is_identity():
    rng = random.Random(37)
    image = random_image(rng, 3, 5)
    mask = LabeledGrid(3, 5, tuple(tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(3)))
    once_img, once_mask = perturb(image, mask, Rotate90(k=2))
    twice_img, twice_mask = perturb(once_img, once_mask, Rotate90(k=2))
    assert twice_img == image and twice_mask == mask


def test_rotate_preserves_mask_pixel_count_and_binarity():
    rng = random.Random(41)
    for k in (1, 2, 3):
        image = random_image(rng, 4, 6)
        mask = LabeledGrid(4, 6, tuple(tuple(rng.randint(0, 1) for _ in range(6)) for _ in range(4)))
        _, mask_out = perturb(image, mask, Rotate90(k=k))
        assert mask_out.is_binary
        assert sum(map(sum, mask_out.values)) == sum(map(sum, mask.values))


def test_rotate_invalid_k():
    with pytest.raises(InvalidParameter):
        perturb(grid([1]), grid([1]), Rotate90(k=4))


_PERTURBATION_FAULTS = [
    (Rotate90(k=1.0), "Rotate90.k must be an integer, got 1.0"),
    (Rotate90(k=True), "Rotate90.k must be an integer, got True"),
    (OcclusionPatch(x=0.5, y=0, w=2, h=1), "OcclusionPatch.x must be an integer, got 0.5"),
    (OcclusionPatch(x=0, y=0, w=1, h=True), "OcclusionPatch.h must be an integer, got True"),
    (BrightnessShift(delta=1.0), "BrightnessShift.delta must be an integer, got 1.0"),
    (BrightnessShift(delta=False), "BrightnessShift.delta must be an integer, got False"),
    (GaussianNoise(sigma=1.0, seed=1.5), "GaussianNoise.seed must be an integer, got 1.5"),
    (ContrastScale(factor="2"), "ContrastScale.factor must be a finite number, got '2'"),
    (ContrastScale(factor=math.inf), "ContrastScale.factor must be a finite number, got inf"),
    (GaussianNoise(sigma=None, seed=1), "GaussianNoise.sigma must be a finite number, got None"),
    (GaussianNoise(sigma=math.nan, seed=1), "GaussianNoise.sigma must be a finite number, got nan"),
    (GaussianNoise(sigma=-1.0, seed=1), "GaussianNoise.sigma must be >= 0, got -1.0"),
    (OcclusionPatch(x=0, y=0, w=0, h=1), "OcclusionPatch.w must be >= 1, got 0"),
    (OcclusionPatch(x=0, y=0, w=1, h=-2), "OcclusionPatch.h must be >= 1, got -2"),
    (Rotate90(k=0), "Rotate90.k must be in [1, 3], got 0"),
    (Rotate90(k=4), "Rotate90.k must be in [1, 3], got 4"),
    (ContrastScale(factor=0.0), "ContrastScale.factor must be > 0, got 0.0"),
]


@pytest.mark.parametrize(
    "spec, message", _PERTURBATION_FAULTS, ids=[repr(spec) for spec, _ in _PERTURBATION_FAULTS]
)
def test_perturb_rejects_non_integer_int_fields(spec, message):
    with pytest.raises(InvalidParameter) as caught:
        perturb(grid([1, 2, 3], [4, 5, 6]), grid([1, 0, 0], [0, 1, 1]), spec)
    assert str(caught.value) == message


def test_perturb_refuses_a_label_augmentation_spec():
    with pytest.raises(InvalidParameter) as caught:
        perturb(grid([1]), grid([1]), MaskDilate(radius=1))
    assert str(caught.value) == "unknown perturbation MaskDilate"


def test_perturb_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        perturb(grid([1, 2]), grid([1]), BrightnessShift(1))


# --- label augmentations --------------------------------------------------------------------------


def test_flip_rate_zero_is_identity():
    assert augment_labels(MASK, RandomPixelFlip(rate=0.0, seed=1)) == MASK


def test_flip_rate_one_is_complement():
    out = augment_labels(MASK, RandomPixelFlip(rate=1.0, seed=1))
    assert out.values == ((0, 1), (1, 0))


def test_flip_deterministic_per_seed():
    mask = LabeledGrid(5, 5, tuple(tuple((r + c) % 2 for c in range(5)) for r in range(5)))
    a = augment_labels(mask, RandomPixelFlip(rate=0.4, seed=7))
    b = augment_labels(mask, RandomPixelFlip(rate=0.4, seed=7))
    c = augment_labels(mask, RandomPixelFlip(rate=0.4, seed=8))
    assert a == b
    assert a != c


def test_translate_example():
    out = augment_labels(grid([1, 0], [0, 0]), MaskTranslate(dx=1, dy=0))
    assert out.values == ((0, 1), (0, 0))


def test_translate_down_and_off_edge():
    out = augment_labels(grid([1, 1], [0, 0]), MaskTranslate(dx=0, dy=1))
    assert out.values == ((0, 0), (1, 1))
    gone = augment_labels(grid([1, 1], [0, 0]), MaskTranslate(dx=0, dy=2))
    assert gone.values == ((0, 0), (0, 0))


def test_dilate_grows_single_pixel():
    mask = grid([0, 0, 0], [0, 1, 0], [0, 0, 0])
    out = augment_labels(mask, MaskDilate(radius=1))
    assert out.values == ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_erode_removes_isolated_pixel():
    mask = grid([0, 0, 0], [0, 1, 0], [0, 0, 0])
    out = augment_labels(mask, MaskErode(radius=1))
    assert out.values == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_opening_removes_thin_details():
    # a 3x3 block survives erode+dilate with radius 1; an isolated pixel does not
    mask = grid(
        [1, 1, 1, 0, 0],
        [1, 1, 1, 0, 0],
        [1, 1, 1, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    )
    opened = augment_labels(augment_labels(mask, MaskErode(radius=1)), MaskDilate(radius=1))
    assert opened.values == (
        (1, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
    )


def test_erode_treats_outside_as_zero():
    full = grid([1, 1], [1, 1])
    out = augment_labels(full, MaskErode(radius=1))
    assert out.values == ((0, 0), (0, 0))


def test_augment_shape_preserved():
    rng = random.Random(43)
    for _ in range(20):
        mask = random_mask(rng)
        for spec in (
            RandomPixelFlip(rate=rng.random(), seed=rng.randrange(2**32)),
            MaskDilate(radius=1),
            MaskErode(radius=1),
            MaskTranslate(dx=rng.randint(-2, 2), dy=rng.randint(-2, 2)),
        ):
            out = augment_labels(mask, spec)
            assert (out.height, out.width) == (mask.height, mask.width)
            assert out.is_binary


_AUGMENTATION_FAULTS = [
    (MaskDilate(radius=1.5), "MaskDilate.radius must be an integer, got 1.5"),
    (MaskErode(radius=True), "MaskErode.radius must be an integer, got True"),
    (MaskTranslate(dx=0.5, dy=0), "MaskTranslate.dx must be an integer, got 0.5"),
    (MaskTranslate(dx=0, dy=False), "MaskTranslate.dy must be an integer, got False"),
    (RandomPixelFlip(rate=0.1, seed=1.5), "RandomPixelFlip.seed must be an integer, got 1.5"),
    (RandomPixelFlip(rate="0.5", seed=1), "RandomPixelFlip.rate must be a finite number, got '0.5'"),
    (RandomPixelFlip(rate=True, seed=1), "RandomPixelFlip.rate must be a finite number, got True"),
    (RandomPixelFlip(rate=1.5, seed=1), "RandomPixelFlip.rate must be in [0, 1], got 1.5"),
    (RandomPixelFlip(rate=-0.1, seed=1), "RandomPixelFlip.rate must be in [0, 1], got -0.1"),
    (MaskDilate(radius=-1), "MaskDilate.radius must be >= 0, got -1"),
    (MaskErode(radius=-1), "MaskErode.radius must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "spec, message", _AUGMENTATION_FAULTS, ids=[repr(spec) for spec, _ in _AUGMENTATION_FAULTS]
)
def test_augment_rejects_non_integer_int_fields(spec, message):
    with pytest.raises(InvalidParameter) as caught:
        augment_labels(MASK, spec)
    assert str(caught.value) == message


def test_augment_invalid_parameters():
    with pytest.raises(InvalidParameter):
        augment_labels(MASK, RandomPixelFlip(rate=1.5, seed=0))
    with pytest.raises(InvalidParameter):
        augment_labels(MASK, MaskDilate(radius=-1))


# --- differential checks against per-pixel oracles ----------------------------------------------------

#: Row and column vectors, squares and non-square grids.
_SHAPES = ((1, 1), (1, 9), (9, 1), (2, 7), (6, 3), (5, 5), (8, 13))


def _random_pair(rng, height, width):
    mask = LabeledGrid(height, width, tuple(tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(height)))
    return random_image(rng, height, width), mask


def test_label_augmentations_match_per_pixel_oracles():
    rng = random.Random(53)
    for height, width in _SHAPES * 3:
        _, mask = _random_pair(rng, height, width)
        side = max(height, width)
        for radius in (0, 1, 2, 3, min(height, width), side, side + 4):
            assert augment_labels(mask, MaskDilate(radius)).values == morphology_oracle(mask, radius, erode=False)
            assert augment_labels(mask, MaskErode(radius)).values == morphology_oracle(mask, radius, erode=True)
        shifts = [(0, 0), (1, 0), (0, -1), (-1, 2), (width, 0), (0, -height), (width + 3, height + 2), (-width - 1, 1)]
        shifts += [(rng.randint(-width - 2, width + 2), rng.randint(-height - 2, height + 2)) for _ in range(6)]
        for dx, dy in shifts:
            assert augment_labels(mask, MaskTranslate(dx, dy)).values == translate_oracle(mask, dx, dy)


def test_perturbations_match_per_pixel_oracles():
    rng = random.Random(59)
    for height, width in _SHAPES * 3:
        image, mask = _random_pair(rng, height, width)
        for k in (1, 2, 3):
            new_image, new_mask = perturb(image, mask, Rotate90(k))
            assert (new_image.height, new_image.width) == ((width, height) if k % 2 else (height, width))
            assert (new_image.values, new_mask.values) == (rot90_oracle(image, k), rot90_oracle(mask, k))
        new_image, new_mask = perturb(image, mask, HorizontalFlip())
        assert (new_image.values, new_mask.values) == (hflip_oracle(image), hflip_oracle(mask))
        for _ in range(4):
            x, y = rng.randrange(width), rng.randrange(height)
            w, h = rng.randint(1, width - x), rng.randint(1, height - y)
            new_image, new_mask = perturb(image, mask, OcclusionPatch(x, y, w, h))
            assert new_image.values == occlusion_oracle(image, x, y, w, h)
            assert new_mask == mask
        for delta in (-300, -255, -40, 0, 1, 40, 255, 300, rng.randint(-100, 100)):
            new_image, new_mask = perturb(image, mask, BrightnessShift(delta))
            assert new_image.values == brightness_oracle(image, delta)
            assert new_mask == mask
        for factor in (0.25, 0.5, 1.0, 1.5, 3.7, rng.uniform(0.01, 5.0)):
            new_image, new_mask = perturb(image, mask, ContrastScale(factor))
            assert new_image.values == contrast_oracle(image, factor)
            assert new_mask == mask


# --- seeded streams ------------------------------------------------------------------------


def _cells(rows) -> bytes:
    return bytes(value for row in rows for value in row)


_SEEDS = (0, 1, 42, -1, 2**63, 2**64 - 1)


def test_noise_and_pixel_flip_match_the_stream_spec():
    rng = random.Random(61)
    for height, width in _SHAPES * 2:
        image, mask = _random_pair(rng, height, width)
        for seed in (*_SEEDS, rng.randrange(2**64)):
            for sigma in (0.0, 1e-9, 0.7, 12.5, 300.0, 1e12, _FLOAT_MAX, rng.uniform(0.0, 60.0)):
                new_image, new_mask = perturb(image, mask, GaussianNoise(sigma, seed))
                assert new_image.cells == _cells(noise_oracle(image, sigma, seed))
                assert new_mask == mask
            for rate in (0.0, 2**-53, 0.5, 1.0, rng.random()):
                assert augment_labels(mask, RandomPixelFlip(rate, seed)).cells == _cells(
                    pixel_flip_oracle(mask, rate, seed)
                )


def test_noise_and_pixel_flip_bytes_are_pinned():
    # An odd pixel count, so the last normal pair has an unused sine half.
    image, mask = _random_pair(random.Random(67), 31, 17)
    noisy, _ = perturb(image, mask, GaussianNoise(sigma=23.5, seed=2**64 - 1))
    flipped = augment_labels(mask, RandomPixelFlip(rate=0.3, seed=0))
    assert hashlib.sha256(noisy.cells).hexdigest() == "09606da6bcb0452bd5f6a27831cc14c3f0d55433f69c3d5576ec7907b8f5e80d"
    assert hashlib.sha256(flipped.cells).hexdigest() == "54a03cea20c54bca123314c6d09c48cf1e82ece543ee8f89bd16f4742b1c401f"
