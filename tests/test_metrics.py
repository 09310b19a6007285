from __future__ import annotations

import math
import random

import pytest

from helpers import (
    brute_force_confident_joint,
    brute_force_iou,
    random_activation_table,
    random_image,
    random_mask,
    random_prob_table,
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
    applies_to_mask,
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


def test_contrast_identity_factor():
    image = grid([3, 200], [77, 12])
    out, _ = perturb(image, MASK, ContrastScale(1.0))
    assert out == image


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


def test_applies_to_mask_classification():
    assert applies_to_mask(HorizontalFlip())
    assert applies_to_mask(Rotate90(k=1))
    assert not applies_to_mask(BrightnessShift(1))
    assert not applies_to_mask(GaussianNoise(1.0, 0))
    assert not applies_to_mask(OcclusionPatch(0, 0, 1, 1))


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


def test_augment_invalid_parameters():
    with pytest.raises(InvalidParameter):
        augment_labels(MASK, RandomPixelFlip(rate=1.5, seed=0))
    with pytest.raises(InvalidParameter):
        augment_labels(MASK, MaskDilate(radius=-1))
