"""Corpus forge tests: organ assignment, seeds, template QA, corpus building."""

import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cotforge import cli, fixture_path, forge
from cotforge.errors import BackendError, MalformedResponseError, ValidationError, read_object
from cotforge.forge import (
    DEFAULT_SEED_TEMPLATE,
    DomainKey,
    ForgeResult,
    ImageRecord,
    LesionAnnotation,
    OrganMask,
    TemplateQaGenerator,
    VqaCotRecord,
    assign_organ,
    build_corpus,
    generate_qa,
)
from cotforge.geometry import BBox, encode_runs
from cotforge.jsonl import read_dataset, read_masks, rle_decode
from oracles import decode, oracle_assign, organ_mask
from test_config import UNUSABLE_SEED_TEMPLATES

RNG_SEED = 20240
GOLDEN = Path(__file__).parent / "golden"

def half_mask(h, w, which):
    m = np.zeros((h, w), dtype=bool)
    if which == "left":
        m[:, : w // 2] = True
    elif which == "right":
        m[:, w // 2 :] = True
    elif which == "top":
        m[: h // 2, :] = True
    else:
        m[h // 2 :, :] = True
    return m


def random_box(rng, min_side=0.05):
    x1, y1 = rng.uniform(0.0, 1.0 - min_side, size=2)
    return BBox(x1, y1, rng.uniform(x1 + min_side, 1.0), rng.uniform(y1 + min_side, 1.0))


def make_image(image_id="img1", modality="CT", annotations=(), width=64, height=64):
    return ImageRecord(
        image_id=image_id,
        width=width,
        height=height,
        modality=modality,
        annotations=list(annotations),
    )


def assign_one(ann, masks, tau_iou=0.0):
    [[outcome]] = assign_organ([([ann], masks)], tau_iou)
    return outcome


class TestAssignOrgan:
    def test_picks_highest_overlap(self):
        ann = LesionAnnotation(box=BBox(0.05, 0.05, 0.4, 0.4), lesion_class="mass")
        masks = [
            organ_mask("liver", half_mask(64, 64, "left")),
            organ_mask("kidney", half_mask(64, 64, "right")),
        ]
        label, iou = assign_one(ann, masks)
        assert label == "liver"
        assert iou > 0.0

    def test_ties_break_to_lowest_index(self):
        ann = LesionAnnotation(box=BBox(0.1, 0.1, 0.4, 0.4), lesion_class="mass")
        same = half_mask(64, 64, "left")
        masks = [organ_mask("first", same.copy()), organ_mask("second", same.copy())]
        label, _ = assign_one(ann, masks)
        assert label == "first"

    def test_below_threshold_unassigned(self):
        ann = LesionAnnotation(box=BBox(0.6, 0.6, 0.9, 0.9), lesion_class="mass")
        masks = [organ_mask("liver", half_mask(64, 64, "left"))]
        label, iou = assign_one(ann, masks, tau_iou=0.0)
        assert label is None
        assert iou == 0.0

    def test_threshold_is_strict(self):
        # max IoU exactly at tau_iou stays unassigned
        ann = LesionAnnotation(box=BBox(0.0, 0.0, 0.5, 1.0), lesion_class="mass")
        full = np.ones((64, 64), dtype=bool)
        label, iou = assign_one(ann, [organ_mask("body", full)], tau_iou=0.5)
        assert label is None
        assert iou == 0.5

    def test_empty_mask_list_rejected(self):
        ann = LesionAnnotation(box=BBox(0.1, 0.1, 0.4, 0.4), lesion_class="mass")
        with pytest.raises(ValidationError):
            assign_organ([([ann], [])])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(RNG_SEED)
        organ_names = ["liver", "kidney", "lung", "spleen"]
        for _ in range(20):
            h = w = 32
            n_masks = int(rng.integers(1, 5))
            masks = []
            for k in range(n_masks):
                m = rng.random((h, w)) < rng.uniform(0.1, 0.5)
                if not m.any():
                    m[0, 0] = True
                masks.append(organ_mask(organ_names[k], m))
            x1, y1 = rng.uniform(0, 0.6, size=2)
            x2 = rng.uniform(x1 + 0.2, 1.0)
            y2 = rng.uniform(y1 + 0.2, 1.0)
            ann = LesionAnnotation(box=BBox(x1, y1, x2, y2), lesion_class="mass")
            label, iou = assign_one(ann, masks)
            idx, best = oracle_assign(ann.box, [decode(m) for m in masks])
            if idx is None:
                assert label is None
            else:
                assert label == organ_names[idx]
            assert iou == best

    def test_matches_oracle_with_many_overlapping_masks(self):
        # 6 overlapping ellipses on a 128x128 image, at clinical-like density
        rng = np.random.default_rng(RNG_SEED + 2)
        h = w = 128
        rows, cols = np.mgrid[0:h, 0:w]
        masks = []
        for k in range(6):
            cy, cx = rng.uniform(30, 98, size=2)
            ry, rx = rng.uniform(20, 50, size=2)
            m = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
            masks.append(organ_mask(f"organ{k}", m))
        overlap = sum(decode(m).astype(int) for m in masks)
        assert (overlap >= 3).any()
        for _ in range(4):
            x1, y1 = rng.uniform(0, 0.8, size=2)
            box = BBox(x1, y1, rng.uniform(x1 + 0.05, 1.0), rng.uniform(y1 + 0.05, 1.0))
            ann = LesionAnnotation(box=box, lesion_class="mass")
            label, iou = assign_one(ann, masks)
            idx, best = oracle_assign(box, [decode(m) for m in masks])
            assert label == (None if idx is None else masks[idx].organ_label)
            assert iou == best

    def test_permutation_stable_without_ties(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        ann = LesionAnnotation(box=BBox(0.05, 0.05, 0.45, 0.45), lesion_class="mass")
        quarter = np.zeros((32, 32), dtype=bool)
        quarter[:16, :16] = True
        masks = [
            organ_mask("a", half_mask(32, 32, "left")),
            organ_mask("b", quarter),
            organ_mask("c", np.ones((32, 32), dtype=bool)),
        ]
        baseline, _ = assign_one(ann, masks)
        for _ in range(5):
            perm = list(rng.permutation(len(masks)))
            shuffled = [masks[i] for i in perm]
            assert assign_one(ann, shuffled)[0] == baseline


def assert_matches_oracle(dense_masks, boxes, tau_iou=0.0):
    """assign_organ on the masks' runs gives the brute-force oracle's label
    and IoU, compared with ==, for every box; returns the oracle's results."""
    masks = [organ_mask(f"organ{k}", m) for k, m in enumerate(dense_masks)]
    anns = [LesionAnnotation(box=box, lesion_class="mass") for box in boxes]
    [got] = assign_organ([(anns, masks)], tau_iou)
    lists = [m.tolist() for m in dense_masks]
    expected = []
    for box in boxes:
        idx, best = oracle_assign(box, lists, tau_iou)
        expected.append((None if idx is None else f"organ{idx}", best))
    assert got == expected
    return expected


class TestAssignOrganFromRuns:
    """The runs scorer against the brute-force oracle at the edges of the
    run encoding and of the pixel-center rule."""

    BOXES = [BBox(0.1, 0.2, 0.6, 0.7), BBox(0.0, 0.0, 1.0, 1.0),
             BBox(0.3, 0.0, 0.5, 1.0), BBox(0.0, 0.4, 1.0, 0.45)]

    def test_zero_length_first_run(self):
        m = np.zeros((8, 8), dtype=bool)
        m[0, :3] = m[4, 2:7] = True
        assert organ_mask("x", m).runs[0] == 0
        assert_matches_oracle([m, ~m], self.BOXES)

    def test_mask_ending_on_the_last_pixel(self):
        m = np.zeros((8, 8), dtype=bool)
        m[5:, 3:] = True
        runs = organ_mask("x", m).runs
        assert len(runs) % 2 == 0 and runs[-1] > 0
        assert_matches_oracle([m, ~m, m], self.BOXES)

    def test_consecutive_masks_of_odd_and_even_run_counts(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        masks = []
        while len(masks) < 6:  # odd, odd, even, even, odd, even
            m = rng.random((12, 10)) < 0.4
            want_odd = len(masks) in (0, 1, 4)
            if m.any() and (len(organ_mask("x", m).runs) % 2 == 1) == want_odd:
                masks.append(m)
        boxes = [random_box(rng) for _ in range(8)]
        assert_matches_oracle(masks, boxes)

    @pytest.mark.parametrize("box", [
        BBox(0.0, 0.3, 0.2, 0.7), BBox(0.8, 0.3, 1.0, 0.7),  # left, right
        BBox(0.3, 0.0, 0.7, 0.2), BBox(0.3, 0.8, 0.7, 1.0),  # top, bottom
        BBox(0.0, 0.0, 0.1, 0.1), BBox(0.9, 0.9, 1.0, 1.0),  # corners
    ])
    def test_boxes_on_each_border(self, box):
        rng = np.random.default_rng(RNG_SEED + 4)
        masks = [rng.random((20, 30)) < p for p in (0.2, 0.5, 0.8)]
        masks.append(np.ones((20, 30), dtype=bool))
        assert_matches_oracle(masks, [box])

    def test_box_covering_no_pixel_center(self):
        # 0.55..0.95 of a pixel on each axis: between two pixel centers
        box = BBox(2.55 / 10, 3.55 / 10, 2.95 / 10, 3.95 / 10)
        m = np.ones((10, 10), dtype=bool)
        assert assert_matches_oracle([m], [box, BBox(0.0, 0.0, 1.0, 1.0)]) == [
            (None, 0.0), ("organ0", 1.0)]

    @pytest.mark.parametrize("shape", [(1, 17), (17, 1), (1, 1)])
    def test_one_pixel_wide_images(self, shape):
        rng = np.random.default_rng(RNG_SEED + 5)
        masks = []
        for _ in range(4):
            m = rng.random(shape) < 0.5
            m.flat[int(rng.integers(m.size))] = True
            masks.append(m)
        boxes = [random_box(rng) for _ in range(10)] + [BBox(0.0, 0.0, 1.0, 1.0)]
        assert_matches_oracle(masks, boxes)

    def test_identical_masks_tie_to_index_zero(self):
        m = half_mask(16, 16, "top")
        results = assert_matches_oracle([m, m.copy(), m.copy()], self.BOXES)
        assert {label for label, _ in results} <= {"organ0", None}

    def test_best_iou_exactly_tau_is_unassigned(self):
        m = np.zeros((8, 8), dtype=bool)
        m[:, :2] = True  # 16 pixels; the box's left quarter covers them all
        box = BBox(0.0, 0.0, 0.5, 1.0)  # 32 pixels: IoU 16 / 32
        assert assert_matches_oracle([m], [box], tau_iou=0.5) == [(None, 0.5)]
        assert assert_matches_oracle([m], [box], tau_iou=0.25) == [("organ0", 0.5)]

    def test_random_sweep_at_clinical_density(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        h = w = 128
        rows, cols = np.mgrid[0:h, 0:w]
        for _ in range(3):
            masks = []
            for _ in range(int(rng.integers(5, 9))):
                cy, cx = rng.uniform(20, 108, size=2)
                ry, rx = rng.uniform(10, 45, size=2)
                wobble = 1.0 + 0.15 * np.sin(rng.uniform(3, 9) * np.arctan2(rows - cy, cols - cx))
                masks.append(((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= wobble)
            assert (sum(m.astype(int) for m in masks) >= 3).any()
            boxes = [random_box(rng) for _ in range(3)]
            assert_matches_oracle(masks, boxes)

    def test_empty_annotation_list(self):
        assert assign_organ([([], [organ_mask("x", np.ones((4, 4), dtype=bool))])]) == [[]]

    def test_mixed_dims_rejected(self):
        ann = LesionAnnotation(box=BBox(0.1, 0.1, 0.4, 0.4), lesion_class="mass")
        masks = [organ_mask("a", np.ones((4, 4), dtype=bool)),
                 organ_mask("b", np.ones((4, 5), dtype=bool))]
        with pytest.raises(ValidationError, match="share dims"):
            assign_organ([([ann], masks)])


def random_scoring_corpus(rng, n_images):
    """Images of mixed dims with 0-4 boxes each, some covering no pixel
    center, and 0-5 masks each: odd and even run counts, a leading 0 run,
    and repeated masks that tie."""
    dataset, masks_by_image, dense_by_image = [], {}, {}
    for i in range(n_images):
        h, w = (int(v) for v in rng.integers(1, 30, size=2))
        boxes = [random_box(rng) for _ in range(int(rng.integers(0, 5)))]
        if rng.random() < 0.3:  # between two pixel centers on each axis
            r, c = int(rng.integers(h)), int(rng.integers(w))
            boxes.append(BBox((c + 0.55) / w, (r + 0.55) / h,
                              (c + 0.95) / w, (r + 0.95) / h))
        image = make_image(f"im{i}", width=w, height=h, annotations=[
            LesionAnnotation(box, "mass") for box in boxes])
        dataset.append(image)
        dense = []
        for _ in range(int(rng.integers(0, 6))):
            if dense and rng.random() < 0.2:
                dense.append(dense[int(rng.integers(len(dense)))].copy())
                continue
            m = rng.random((h, w)) < rng.uniform(0.05, 0.95)
            m.flat[int(rng.integers(h * w))] = True
            if rng.random() < 0.3:
                m.flat[0] = True  # runs start with a 0 run
            dense.append(m)
        if dense:
            dense_by_image[image.image_id] = dense
            masks_by_image[image.image_id] = tuple(
                organ_mask(f"organ{k}", m) for k, m in enumerate(dense))
    return dataset, masks_by_image, dense_by_image


class TestChunkedScoring:
    """Scoring a chunk of images in one pass gives what scoring each image
    alone gives, and the brute-force oracle's choice."""

    def test_one_call_equals_one_image_at_a_time_and_the_oracle(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(8):
            dataset, masks_by_image, dense_by_image = random_scoring_corpus(rng, 12)
            images = [(image.annotations, masks_by_image[image.image_id])
                      for image in dataset if image.image_id in masks_by_image]
            got = assign_organ(images)
            assert got == [assign_organ([one])[0] for one in images]
            expected = []
            for image in dataset:
                for ann in image.annotations if image.image_id in dense_by_image else ():
                    idx, best = oracle_assign(ann.box, dense_by_image[image.image_id])
                    expected.append((None if idx is None else f"organ{idx}", best))
            assert [outcome for outcomes in got for outcome in outcomes] == expected
            assert any(outcome[0] is None for outcome in expected)

    @pytest.mark.parametrize("budget", [1, 40, 120, 400, None])
    def test_the_forge_gives_the_oracle_organs_across_chunk_edges(
            self, chunk_budget, monkeypatch, budget):
        if budget is not None:
            chunk_budget(budget)
        chunks = []

        def spy(images, tau_iou=0.0):
            chunks.append(len(images))
            return assign_organ(images, tau_iou)

        monkeypatch.setattr(forge, "assign_organ", spy)
        rng = np.random.default_rng(RNG_SEED + 9)
        dataset, masks_by_image, dense_by_image = random_scoring_corpus(rng, 40)
        expected = []
        for image in dataset:
            for ann in image.annotations:
                idx = None
                if image.image_id in dense_by_image:
                    idx, _ = oracle_assign(ann.box, dense_by_image[image.image_id])
                expected.append(ann.lesion_class if idx is None else f"organ{idx}")
        result = build_corpus(dataset, masks_by_image, TemplateQaGenerator(),
                              unassigned_policy="organ_free")
        assert [r.answer for r in result.records] == expected
        # one call scores every image with masks and annotations; the
        # chunk edges fall inside geometry (tests/test_geometry.py)
        scored = sum(1 for image in dataset
                     if image.annotations and image.image_id in masks_by_image)
        assert chunks == [scored]

    def test_an_area_past_int64_stays_exact(self):
        big = 2**62
        om = OrganMask("x", np.array([big, big, big, big]), 2**32, 2**32)
        assert om.area == 2 * big


class TestOrganMask:
    def test_area_is_set_pixel_count(self):
        m = half_mask(32, 16, "left")
        m[0, 12] = True
        assert organ_mask("liver", m).area == int(np.count_nonzero(m)) == 32 * 8 + 1

    def test_runs_are_kept_read_only(self):
        m = half_mask(8, 8, "top")
        om = organ_mask("liver", m)
        assert m.flags.writeable
        assert not om.runs.flags.writeable
        with pytest.raises(ValueError):
            om.runs[0] = 1
        m[:] = True  # the caller's array is encoded once, not kept
        assert np.array_equal(decode(om), half_mask(8, 8, "top")) and om.area == 32
        listed = OrganMask("liver", [2, 3, 3], 2, 4)
        assert listed.runs.tolist() == [2, 3, 3] and not listed.runs.flags.writeable

    @pytest.mark.parametrize("dtype", [np.uint8, float])
    def test_non_bool_mask_is_converted(self, dtype):
        m = np.array([[0, 0, 3, 1], [7, 0, 0, 0]], dtype=dtype)  # nonzero is set
        want = encode_runs(m != 0)
        assert want.tolist() == [2, 3, 3]
        assert np.array_equal(encode_runs(m), want)
        assert m.flags.writeable
        assert OrganMask("liver", encode_runs(m), *m.shape).area == 3

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            organ_mask("liver", np.zeros((4, 4), dtype=bool))

    def test_constructor_keeps_the_runs(self):
        runs = np.array([2, 3, 3])
        om = OrganMask("liver", runs, 2, 4)
        assert om.runs is runs and not runs.flags.writeable
        assert (om.height, om.width, om.area) == (2, 4, 3)
        assert np.array_equal(decode(om), rle_decode([2, 3, 3], 2, 4))
        with pytest.raises(ValidationError, match="empty"):
            OrganMask("liver", np.array([8]), 2, 4)
        wrong_sum = np.array([2, 3, 2])
        with pytest.raises(ValidationError, match=r"^RLE runs sum to 7, expected 8$"):
            OrganMask("liver", wrong_sum, 2, 4)
        assert wrong_sum.flags.writeable  # a rejected array is left as it was
        for dims in ((-1, -2), (0, 4), (2, 0)):  # runs [1, 1] sum to (-1)*(-2)
            with pytest.raises(ValidationError, match=r"^mask dims .* must be positive$"):
                OrganMask("liver", [1, 1], *dims)


class TestTemplateQa:
    def test_frozen_strings(self):
        backend = TemplateQaGenerator()
        q, a, cot = backend.generate(
            "There is a mass in the liver.", image_id="img1", modality="CT",
            lesion_class="mass", organ_label="liver",
        )
        assert q == "Which organ contains the mass?"
        assert a == "liver"
        assert cot == (
            "The image shows a mass. Its location overlaps the liver. "
            "Therefore the mass is in the liver."
        )

    def test_multiword_fields(self):
        backend = TemplateQaGenerator()
        q, a, cot = backend.generate(
            "There is a ground glass opacity in the right upper lobe.",
            image_id="x",
            modality="XRay",
            lesion_class="ground glass opacity",
            organ_label="right upper lobe",
        )
        assert a == "right upper lobe"
        assert "ground glass opacity" in q

    def test_deterministic(self):
        backend = TemplateQaGenerator()
        seed = "There is a cyst in the kidney."
        first = backend.generate(seed, "i", "CT", "cyst", "kidney")
        second = backend.generate(seed, "i", "CT", "cyst", "kidney")
        assert first == second

    def test_unparseable_seed_rejected(self):
        backend = TemplateQaGenerator()
        with pytest.raises(BackendError, match="does not match any configured template"):
            backend.generate("A sentence from nowhere.", "i", "CT", "mass", "liver")
        # the seed must be rendered from the fields given with it
        with pytest.raises(BackendError, match="does not match any configured template"):
            backend.generate("There is a mass in the liver.", "i", "CT", "mass", "lung")

    def test_most_specific_template_reads_the_seed(self):
        # the benign seed starts with a stock seed; the organ is the one given,
        # never "lung. It looks benign"
        benign = "There is a {lesion_class} in the {organ_label}. It looks benign."
        backend = TemplateQaGenerator([DEFAULT_SEED_TEMPLATE, benign])
        for seed in ("There is a mass in the lung. It looks benign.",
                     "There is a mass in the lung."):
            _, answer, cot = backend.generate(seed, "i", "CT", "mass", "lung")
            assert answer == "lung"
            assert cot.endswith("Therefore the mass is in the lung.")
        _, answer, _ = backend.generate("There is a mass.", "i", "CT", "mass", None)
        assert answer == "mass"

    @pytest.mark.parametrize("swap", [False, True])
    def test_equally_specific_templates_keep_their_order(self, swap):
        # both templates render "cyst near liver", each from other fields;
        # either order answers from the fields the seed came with
        templates = ["{lesion_class} near {organ_label}", "{organ_label} near {lesion_class}"]
        backend = TemplateQaGenerator(templates[::-1] if swap else templates)
        _, answer, _ = backend.generate("cyst near liver", "i", "CT", "cyst", "liver")
        assert answer == "liver"
        _, answer, _ = backend.generate("cyst near liver", "i", "CT", "liver", "cyst")
        assert answer == "cyst"

    def test_escaped_braces_are_literal_text(self):
        escaped = "A {{note}} {lesion_class} in the {organ_label}."
        backend = TemplateQaGenerator([DEFAULT_SEED_TEMPLATE, escaped])
        seed = escaped.format(lesion_class="cyst", organ_label="kidney")
        assert seed == "A {note} cyst in the kidney."
        _, answer, cot = backend.generate(seed, "i", "CT", "cyst", "kidney")
        assert answer == "kidney"
        assert cot.endswith("Therefore the cyst is in the kidney.")

    def test_escaped_placeholder_name_is_not_a_field(self):
        template = "{{lesion_class}}: {lesion_class} in the {organ_label}."
        backend = TemplateQaGenerator([template])
        seed = "{lesion_class}: mass in the liver."
        _, answer, cot = backend.generate(seed, "i", "CT", "mass", "liver")
        assert answer == "liver"
        assert cot.startswith("The image shows a mass.")

    @pytest.mark.parametrize("template", UNUSABLE_SEED_TEMPLATES)
    def test_unusable_template_rejected(self, template):
        with pytest.raises(ValidationError, match=r"^forge seed template .* no other placeholder$"):
            TemplateQaGenerator([template])


class _StubBackend:
    """Configurable in-memory backend for generate_qa edge cases."""

    generator_id = "stub"

    def __init__(self, q="Q?", a="A", cot="One. Two."):
        self.q, self.a, self.cot = q, a, cot

    def generate(self, seed, image_id, modality, lesion_class, organ_label):
        self.fields = (lesion_class, organ_label)
        return self.q, self.a, self.cot


class TestGenerateQa:
    def test_cot_longer_than_four_sentences_truncated(self, capsys):
        image = make_image()
        backend = _StubBackend(cot="One. Two. Three. Four. Five. Six.")
        _, _, cot, truncated = generate_qa(image, "seed text", backend, "mass", "liver")
        assert (cot, truncated) == ("One. Two. Three. Four.", True)
        assert backend.fields == ("mass", "liver")
        assert generate_qa(image, "seed text", _StubBackend(), "mass", None)[3] is False
        # build_corpus counts the truncations; nothing is printed
        dataset, masks = small_dataset()
        result = build_corpus(dataset, masks, backend)
        assert [r.cot for r in result.records] == ["One. Two. Three. Four."] * 2
        assert result.truncated_cot == 2
        assert build_corpus(dataset, masks, _StubBackend()).truncated_cot == 0
        assert capsys.readouterr() == ("", "")

    def test_empty_fields_rejected(self):
        image = make_image()
        with pytest.raises(MalformedResponseError):
            generate_qa(image, "seed text", _StubBackend(q=""), "mass", None)
        with pytest.raises(MalformedResponseError):
            generate_qa(image, "seed text", _StubBackend(a=""), "mass", None)
        with pytest.raises(MalformedResponseError):
            generate_qa(image, "seed text", _StubBackend(cot=""), "mass", None)

    def test_whitespace_cot_rejected(self):
        with pytest.raises(MalformedResponseError, match="empty fields"):
            generate_qa(make_image(), "seed text", _StubBackend(cot=" \n\t "), "mass", None)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValidationError):
            generate_qa(make_image(), "", _StubBackend(), "mass", None)


def small_dataset():
    """Two images, three annotations; one annotation has no overlap."""
    img1 = make_image(
        "ct_001",
        "CT",
        [
            LesionAnnotation(BBox(0.05, 0.05, 0.35, 0.35), "mass"),
            LesionAnnotation(BBox(0.6, 0.6, 0.9, 0.9), "cyst"),  # right half
        ],
    )
    img2 = make_image(
        "xr_001",
        "XRay",
        [LesionAnnotation(BBox(0.1, 0.2, 0.45, 0.7), "nodule")],
    )
    masks = {
        "ct_001": [organ_mask("liver", half_mask(64, 64, "left"))],
        "xr_001": [organ_mask("left lung", half_mask(64, 64, "left"))],
    }
    return [img1, img2], masks


class TestBuildCorpus:
    def test_skips_unassigned_and_counts(self):
        dataset, masks = small_dataset()
        result = build_corpus(dataset, masks, TemplateQaGenerator())
        assert isinstance(result, ForgeResult)
        assert len(result.records) == 2
        assert result.skipped_unassigned == 1
        assert [r.image_id for r in result.records] == ["ct_001", "xr_001"]
        rec = result.records[0]
        assert rec.question == "Which organ contains the mass?"
        assert rec.answer == "liver"
        assert rec.domain == DomainKey("mass", "CT")
        assert rec.seed == "There is a mass in the liver."
        assert rec.generator_id == "template-v1"

    def test_empty_mask_set_means_unassigned(self):
        dataset, _ = small_dataset()
        result = build_corpus(dataset, {}, TemplateQaGenerator())
        assert len(result.records) == 0
        assert result.skipped_unassigned == 3

    def test_deterministic_rerun(self):
        dataset, masks = small_dataset()
        a = build_corpus(dataset, masks, TemplateQaGenerator())
        b = build_corpus(dataset, masks, TemplateQaGenerator())
        assert [r.to_json_dict() for r in a.records] == [
            r.to_json_dict() for r in b.records
        ]

    def test_concurrency_preserves_order(self):
        dataset, masks = small_dataset()
        seq = build_corpus(dataset, masks, TemplateQaGenerator(), concurrency=1)
        par = build_corpus(dataset, masks, TemplateQaGenerator(), concurrency=4)
        assert [r.to_json_dict() for r in seq.records] == [
            r.to_json_dict() for r in par.records
        ]

    @pytest.mark.parametrize("concurrency", [0, forge.MAX_CONCURRENCY + 1])
    def test_concurrency_out_of_bounds_starts_no_thread(self, monkeypatch, concurrency):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(forge, "ThreadPoolExecutor", no_pool)
        dataset, masks = small_dataset()
        with pytest.raises(ValidationError,
                           match="^concurrency must be at least 1 and at most 64$"):
            build_corpus(dataset, masks, TemplateQaGenerator(), concurrency=concurrency)

    def test_concurrency_at_the_bound_starts_a_thread_per_task_at_most(self):
        images = read_dataset(fixture_path("forge_dataset.jsonl"))
        masks = read_masks(fixture_path("forge_masks.jsonl"),
                           {image.image_id: image for image in images})
        threads = set()

        class Recording(TemplateQaGenerator):
            def generate(self, *args):
                threads.add(threading.current_thread().name)
                return super().generate(*args)

        kwargs = dict(unassigned_policy="organ_free")
        seq = build_corpus(images, masks, TemplateQaGenerator(), **kwargs)
        par = build_corpus(images, masks, Recording(),
                           concurrency=forge.MAX_CONCURRENCY, **kwargs)
        assert len(par.records) == 5
        assert 1 <= len(threads) <= 5
        assert par.records == seq.records

    def test_organ_free_policy(self):
        dataset, masks = small_dataset()
        result = build_corpus(
            dataset, masks, TemplateQaGenerator(), unassigned_policy="organ_free"
        )
        assert len(result.records) == 3
        assert result.skipped_unassigned == 0
        free = [r for r in result.records if r.image_id == "ct_001"][1]
        assert free.seed == "There is a cyst."
        assert free.answer == "cyst"

    def test_backend_error_carries_context(self):
        class Boom:
            generator_id = "boom"

            def generate(self, seed, image_id, modality, lesion_class, organ_label):
                raise BackendError("connection refused")

        dataset, masks = small_dataset()
        with pytest.raises(BackendError, match=r"ct_001.*annotation 0"):
            build_corpus(dataset, masks, Boom())

    def test_skip_failed_collects_failures(self):
        class FailSecond:
            generator_id = "flaky"

            def __init__(self):
                self.calls = 0

            def generate(self, seed, image_id, modality, lesion_class, organ_label):
                self.calls += 1
                if self.calls == 2:
                    raise BackendError("transient")
                return "Q?", "A", "One."

        dataset, masks = small_dataset()
        result = build_corpus(dataset, masks, FailSecond(), skip_failed=True)
        assert len(result.records) == 1
        assert len(result.failures) == 1
        assert result.failures[0].image_id == "xr_001"

    def test_mask_dims_must_match_image(self):
        dataset, _ = small_dataset()
        bad = {"ct_001": [organ_mask("liver", half_mask(32, 32, "left"))]}
        with pytest.raises(ValidationError):
            build_corpus(dataset, bad, TemplateQaGenerator())

    @pytest.mark.parametrize("policy", ["skip", "organ_free"])
    def test_template_rotation_counts_every_annotation(self, policy):
        # assigned annotations take templates[ordinal % 2]; the ordinal counts
        # unassigned ones too, whether they are skipped or made organ-free
        templates = [DEFAULT_SEED_TEMPLATE, "The {organ_label} holds a {lesion_class}."]
        left, right = BBox(0.05, 0.05, 0.35, 0.35), BBox(0.6, 0.6, 0.9, 0.9)
        dataset = [
            make_image("ct_001", "CT", [LesionAnnotation(left, "mass"),     # 0
                                        LesionAnnotation(right, "cyst"),    # 1
                                        LesionAnnotation(left, "nodule")]),  # 2
            make_image("ct_002", "CT", [LesionAnnotation(left, "lesion")]),  # 3
            make_image("ct_003", "CT", [LesionAnnotation(left, "polyp"),    # 4
                                        LesionAnnotation(left, "tumor")]),   # 5
        ]
        masks = {"ct_001": [organ_mask("liver", half_mask(64, 64, "left"))],
                 "ct_003": [organ_mask("kidney", half_mask(64, 64, "left"))]}
        result = build_corpus(dataset, masks, TemplateQaGenerator(templates),
                              seed_templates=templates, unassigned_policy=policy)
        expected = [
            "There is a mass in the liver.",
            "There is a cyst.",
            "There is a nodule in the liver.",
            "There is a lesion.",  # ct_002 has no masks
            "There is a polyp in the kidney.",
            "The kidney holds a tumor.",
        ]
        if policy == "skip":
            expected = [expected[i] for i in (0, 2, 4, 5)]
        assert [r.seed for r in result.records] == expected
        assert result.skipped_unassigned == (2 if policy == "skip" else 0)


    def test_escaped_template_seeds_read_back(self):
        templates = ["A {{note}} {lesion_class} in the {organ_label}."]
        dataset, masks = small_dataset()
        result = build_corpus(dataset, masks, TemplateQaGenerator(templates),
                              seed_templates=templates, unassigned_policy="organ_free")
        assert [(r.seed, r.answer) for r in result.records] == [
            ("A {note} mass in the liver.", "liver"),
            ("There is a cyst.", "cyst"),
            ("A {note} nodule in the left lung.", "left lung"),
        ]

    def test_label_holding_another_templates_text_answers_from_its_fields(self):
        # "There is a mass in the lung." is also the stock template's seed for
        # a mass in the lung; the fields say which one it is
        dataset = [make_image("ct_001", "CT", [
            LesionAnnotation(BBox(0.1, 0.1, 0.5, 0.5), "mass in the lung")])]
        result = build_corpus(dataset, {}, TemplateQaGenerator(),
                              unassigned_policy="organ_free")
        [record] = result.records
        assert record.seed == "There is a mass in the lung."
        assert (record.question, record.answer) == ("What abnormality is shown?",
                                                    "mass in the lung")

    def test_assigned_seed_of_an_organ_less_template_is_organ_free(self):
        templates = [DEFAULT_SEED_TEMPLATE, "A {lesion_class} is seen."]
        left = BBox(0.05, 0.05, 0.35, 0.35)
        dataset = [make_image("ct_001", "CT", [LesionAnnotation(left, "mass"),
                                               LesionAnnotation(left, "cyst")])]
        masks = {"ct_001": [organ_mask("liver", half_mask(64, 64, "left"))]}
        result = build_corpus(dataset, masks, TemplateQaGenerator(templates),
                              seed_templates=templates)
        assert [(r.seed, r.question, r.answer) for r in result.records] == [
            ("There is a mass in the liver.", "Which organ contains the mass?", "liver"),
            ("A cyst is seen.", "What abnormality is shown?", "cyst"),
        ]

    @pytest.mark.parametrize("template", UNUSABLE_SEED_TEMPLATES)
    def test_unusable_template_rejected(self, template):
        dataset, masks = small_dataset()
        with pytest.raises(ValidationError, match=r"^forge seed template .* no other placeholder$"):
            build_corpus(dataset, masks, _StubBackend(), seed_templates=[template])


class TestForgeNeverDecodes:
    """With every mask decode made to fail, the forge still gives its output."""

    def test_bundled_fixture_gives_the_golden_corpus(self, tmp_path, no_decoding):
        out = tmp_path / "corpus.jsonl"
        code = cli.main(["forge",
                         "--dataset", str(fixture_path("forge_dataset.jsonl")),
                         "--masks", str(fixture_path("forge_masks.jsonl")),
                         "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "forge_corpus.jsonl").read_bytes()

    def test_generated_images_get_the_oracle_organs(self, tmp_path, no_decoding):
        rng = np.random.default_rng(RNG_SEED + 7)
        dataset, expected = [], []
        path = tmp_path / "masks.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i in range(6):
                h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
                boxes = [random_box(rng) for _ in range(int(rng.integers(1, 5)))]
                dataset.append(make_image(f"im{i}", width=w, height=h, annotations=[
                    LesionAnnotation(box, f"lesion{j}") for j, box in enumerate(boxes)]))
                if i == 2:  # an image without masks
                    expected += [None] * len(boxes)
                    continue
                masks = []
                for k in range(int(rng.integers(1, 6))):
                    m = rng.random((h, w)) < rng.uniform(0.05, 0.95)
                    m.flat[int(rng.integers(h * w))] = True
                    masks.append(m.tolist())
                    f.write(json.dumps({"image_id": f"im{i}", "organ_label": f"organ{k}",
                                        "height": h, "width": w,
                                        "rle": encode_runs(m).tolist()}) + "\n")
                for box in boxes:
                    idx, _ = oracle_assign(box, masks)
                    expected.append(None if idx is None else f"organ{idx}")
        assert any(e is None for e in expected) and any(e is not None for e in expected)
        masks_by_image = read_masks(path, {image.image_id: image for image in dataset})
        result = build_corpus(dataset, masks_by_image, TemplateQaGenerator(),
                              unassigned_policy="organ_free")
        anns = [ann for image in dataset for ann in image.annotations]
        assert [r.answer for r in result.records] == [
            organ or ann.lesion_class for organ, ann in zip(expected, anns)]


class TestForgeMemory:
    def test_forge_holds_about_one_image_of_masks(self, tmp_path):
        side, n_images, n_masks = 256, 20, 10
        rng = np.random.default_rng(RNG_SEED)
        boxes = [BBox(0.1, 0.1, 0.4, 0.4), BBox(0.5, 0.5, 0.9, 0.9)]
        dataset = []
        path = tmp_path / "masks.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i in range(n_images):
                image = make_image(f"im{i:02d}", width=side, height=side,
                                   annotations=[LesionAnnotation(b, "mass") for b in boxes])
                dataset.append(image)
                for k in range(n_masks):
                    r0, c0 = rng.integers(0, side // 2, size=2)
                    r1, c1 = rng.integers(side // 2 + 1, side + 1, size=2)
                    mask = np.zeros((side, side), dtype=bool)
                    mask[r0:r1, c0:c1] = True
                    f.write(json.dumps({"image_id": image.image_id, "organ_label": f"o{k}",
                                        "height": side, "width": side,
                                        "rle": encode_runs(mask).tolist()}) + "\n")
        images_by_id = {image.image_id: image for image in dataset}
        one_image = n_masks * side * side  # bytes of one image's bool masks

        tracemalloc.start()
        try:
            masks_by_image = read_masks(path, images_by_id)
            result = build_corpus(dataset, masks_by_image, TemplateQaGenerator())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.records) == len(boxes) * n_images
        assert peak < 4 * one_image, f"peak {peak / 2**20:.1f} MiB"


class TestRecordTypes:
    def test_modality_validated(self):
        with pytest.raises(ValidationError):
            make_image(modality="Ultrasound")

    def test_domain_key_string_form(self):
        key = DomainKey("mass", "CT")
        assert key.as_str() == "mass|CT"

    def test_record_json_roundtrip(self):
        rec = VqaCotRecord(
            image_id="img",
            box=BBox(0.1, 0.2, 0.3, 0.4),
            question="Q?",
            answer="A",
            cot="One. Two.",
            domain=DomainKey("mass", "CT"),
            seed=DEFAULT_SEED_TEMPLATE.format(lesion_class="mass", organ_label="liver"),
            generator_id="template-v1",
        )
        again = read_object(VqaCotRecord, rec.to_json_dict(), "record", ValidationError)
        assert again == rec

    def test_record_requires_question_and_answer(self):
        with pytest.raises(ValidationError):
            VqaCotRecord(
                image_id="img",
                box=BBox(0.1, 0.2, 0.3, 0.4),
                question="",
                answer="A",
                cot="c",
                domain=DomainKey("mass", "CT"),
                seed="s",
                generator_id="g",
            )
