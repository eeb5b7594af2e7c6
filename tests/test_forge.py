"""Corpus forge tests: organ assignment, seeds, template QA, corpus building."""

import json
import logging
import re
import tracemalloc

import numpy as np
import pytest

from cotforge.errors import BackendError, MalformedResponseError, ValidationError, read_object
from cotforge.forge import (
    DEFAULT_SEED_TEMPLATE,
    ORGAN_FREE_SEED_TEMPLATE,
    DomainKey,
    ForgeResult,
    ImageRecord,
    LesionAnnotation,
    OrganMask,
    TemplateQaGenerator,
    VqaCotRecord,
    _template_to_regex,
    assign_organ,
    build_corpus,
    generate_qa,
)
from cotforge.geometry import BBox
from cotforge.jsonl import read_masks, rle_encode
from oracles import oracle_assign

RNG_SEED = 20240

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


def make_image(image_id="img1", modality="CT", annotations=(), width=64, height=64):
    return ImageRecord(
        image_id=image_id,
        width=width,
        height=height,
        modality=modality,
        annotations=list(annotations),
    )


class TestAssignOrgan:
    def test_picks_highest_overlap(self):
        ann = LesionAnnotation(box=BBox(0.05, 0.05, 0.4, 0.4), lesion_class="mass")
        masks = [
            OrganMask("liver", half_mask(64, 64, "left")),
            OrganMask("kidney", half_mask(64, 64, "right")),
        ]
        triplet = assign_organ("img1", ann, masks)
        assert triplet.organ_label == "liver"
        assert triplet.iou_score > 0.0

    def test_ties_break_to_lowest_index(self):
        ann = LesionAnnotation(box=BBox(0.1, 0.1, 0.4, 0.4), lesion_class="mass")
        same = half_mask(64, 64, "left")
        masks = [OrganMask("first", same.copy()), OrganMask("second", same.copy())]
        triplet = assign_organ("img1", ann, masks)
        assert triplet.organ_label == "first"

    def test_below_threshold_unassigned(self):
        ann = LesionAnnotation(box=BBox(0.6, 0.6, 0.9, 0.9), lesion_class="mass")
        masks = [OrganMask("liver", half_mask(64, 64, "left"))]
        triplet = assign_organ("img1", ann, masks, tau_iou=0.0)
        assert triplet.organ_label is None
        assert triplet.iou_score == 0.0

    def test_threshold_is_strict(self):
        # max IoU exactly at tau_iou stays unassigned
        ann = LesionAnnotation(box=BBox(0.0, 0.0, 0.5, 1.0), lesion_class="mass")
        full = np.ones((64, 64), dtype=bool)
        triplet = assign_organ("img1", ann, [OrganMask("body", full)], tau_iou=0.5)
        assert triplet.organ_label is None
        assert triplet.iou_score == 0.5

    def test_empty_mask_list_rejected(self):
        ann = LesionAnnotation(box=BBox(0.1, 0.1, 0.4, 0.4), lesion_class="mass")
        with pytest.raises(ValidationError):
            assign_organ("img1", ann, [])

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
                masks.append(OrganMask(organ_names[k], m))
            x1, y1 = rng.uniform(0, 0.6, size=2)
            x2 = rng.uniform(x1 + 0.2, 1.0)
            y2 = rng.uniform(y1 + 0.2, 1.0)
            ann = LesionAnnotation(box=BBox(x1, y1, x2, y2), lesion_class="mass")
            got = assign_organ("img", ann, masks)
            idx, best = oracle_assign(ann.box, [m.mask for m in masks])
            if idx is None:
                assert got.organ_label is None
            else:
                assert got.organ_label == organ_names[idx]
            assert got.iou_score == best

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
            masks.append(OrganMask(f"organ{k}", m))
        overlap = sum(m.mask.astype(int) for m in masks)
        assert (overlap >= 3).any()
        for _ in range(4):
            x1, y1 = rng.uniform(0, 0.8, size=2)
            box = BBox(x1, y1, rng.uniform(x1 + 0.05, 1.0), rng.uniform(y1 + 0.05, 1.0))
            ann = LesionAnnotation(box=box, lesion_class="mass")
            got = assign_organ("img", ann, masks)
            idx, best = oracle_assign(box, [m.mask for m in masks])
            assert got.organ_label == (None if idx is None else masks[idx].organ_label)
            assert got.iou_score == best

    def test_permutation_stable_without_ties(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        ann = LesionAnnotation(box=BBox(0.05, 0.05, 0.45, 0.45), lesion_class="mass")
        quarter = np.zeros((32, 32), dtype=bool)
        quarter[:16, :16] = True
        masks = [
            OrganMask("a", half_mask(32, 32, "left")),
            OrganMask("b", quarter),
            OrganMask("c", np.ones((32, 32), dtype=bool)),
        ]
        baseline = assign_organ("img", ann, masks).organ_label
        for _ in range(5):
            perm = list(rng.permutation(len(masks)))
            shuffled = [masks[i] for i in perm]
            assert assign_organ("img", ann, shuffled).organ_label == baseline


class TestOrganMask:
    def test_area_is_set_pixel_count(self):
        m = half_mask(32, 16, "left")
        m[0, 12] = True
        assert OrganMask("liver", m).area == int(np.count_nonzero(m)) == 32 * 8 + 1

    def test_bool_mask_is_a_read_only_view(self):
        m = half_mask(8, 8, "top")
        om = OrganMask("liver", m)
        assert np.shares_memory(om.mask, m)
        assert not om.mask.flags.writeable
        assert m.flags.writeable
        with pytest.raises(ValueError):
            om.mask[0, 0] = False

    @pytest.mark.parametrize("dtype", [np.uint8, float])
    def test_non_bool_mask_is_converted(self, dtype):
        m = half_mask(8, 8, "top").astype(dtype)
        om = OrganMask("liver", m)
        assert om.mask.dtype == bool and om.area == 32
        assert (om.mask == (m != 0)).all()
        assert m.flags.writeable

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            OrganMask("liver", np.zeros((4, 4), dtype=bool))


class TestTemplateQa:
    def test_frozen_strings(self):
        backend = TemplateQaGenerator()
        q, a, cot = backend.generate(
            "There is a mass in the liver.", image_id="img1", modality="CT"
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
        )
        assert a == "right upper lobe"
        assert "ground glass opacity" in q

    def test_deterministic(self):
        backend = TemplateQaGenerator()
        seed = "There is a cyst in the kidney."
        first = backend.generate(seed, image_id="i", modality="CT")
        second = backend.generate(seed, image_id="i", modality="CT")
        assert first == second

    def test_unparseable_seed_rejected(self):
        backend = TemplateQaGenerator()
        with pytest.raises(BackendError):
            backend.generate("A sentence from nowhere.", image_id="i", modality="CT")

    def test_most_specific_template_reads_the_seed(self):
        # the benign seed also matches the stock template, as organ
        # "lung. It looks benign"; the longer fixed text is tried first
        benign = "There is a {lesion_class} in the {organ_label}. It looks benign."
        backend = TemplateQaGenerator([DEFAULT_SEED_TEMPLATE, benign])
        for seed in ("There is a mass in the lung. It looks benign.",
                     "There is a mass in the lung."):
            _, answer, cot = backend.generate(seed, image_id="i", modality="CT")
            assert answer == "lung"
            assert cot.endswith("Therefore the mass is in the lung.")
        _, answer, _ = backend.generate("There is a mass.", image_id="i", modality="CT")
        assert answer == "mass"

    @pytest.mark.parametrize("swap", [False, True])
    def test_equally_specific_templates_keep_their_order(self, swap):
        templates = ["{lesion_class} near {organ_label}", "{organ_label} near {lesion_class}"]
        backend = TemplateQaGenerator(templates[::-1] if swap else templates)
        _, answer, _ = backend.generate("cyst near liver", image_id="i", modality="CT")
        assert answer == ("cyst" if swap else "liver")

    def test_escaped_braces_are_literal_text(self):
        escaped = "A {{note}} {lesion_class} in the {organ_label}."
        backend = TemplateQaGenerator([DEFAULT_SEED_TEMPLATE, escaped])
        seed = escaped.format(lesion_class="cyst", organ_label="kidney")
        assert seed == "A {note} cyst in the kidney."
        _, answer, cot = backend.generate(seed, image_id="i", modality="CT")
        assert answer == "kidney"
        assert cot.endswith("Therefore the cyst is in the kidney.")

    def test_escaped_placeholder_name_is_not_a_field(self):
        template = "{{lesion_class}}: {lesion_class} in the {organ_label}."
        backend = TemplateQaGenerator([template])
        seed = "{lesion_class}: mass in the liver."
        _, answer, cot = backend.generate(seed, image_id="i", modality="CT")
        assert answer == "liver"
        assert cot.startswith("The image shows a mass.")

    @pytest.mark.parametrize("template", [DEFAULT_SEED_TEMPLATE, ORGAN_FREE_SEED_TEMPLATE])
    def test_stock_template_regex_unchanged(self, template):
        # the recipe before templates were parsed field by field
        pattern = re.escape(template)
        pattern = pattern.replace(re.escape("{lesion_class}"), r"(?P<lesion_class>.+?)")
        pattern = pattern.replace(re.escape("{organ_label}"), r"(?P<organ_label>.+)")
        assert _template_to_regex(template).pattern == "^" + pattern + "$"


class _StubBackend:
    """Configurable in-memory backend for generate_qa edge cases."""

    generator_id = "stub"

    def __init__(self, q="Q?", a="A", cot="One. Two."):
        self.q, self.a, self.cot = q, a, cot

    def generate(self, seed, image_id, modality):
        return self.q, self.a, self.cot


class TestGenerateQa:
    def test_cot_longer_than_four_sentences_truncated(self, caplog):
        image = make_image()
        backend = _StubBackend(cot="One. Two. Three. Four. Five. Six.")
        with caplog.at_level(logging.WARNING):
            _, _, cot = generate_qa(image, "seed text", backend)
        assert cot == "One. Two. Three. Four."
        assert any("truncat" in r.message.lower() for r in caplog.records)

    def test_empty_fields_rejected(self):
        image = make_image()
        with pytest.raises(MalformedResponseError):
            generate_qa(image, "seed text", _StubBackend(q=""))
        with pytest.raises(MalformedResponseError):
            generate_qa(image, "seed text", _StubBackend(a=""))
        with pytest.raises(MalformedResponseError):
            generate_qa(image, "seed text", _StubBackend(cot=""))

    def test_whitespace_cot_rejected(self):
        with pytest.raises(MalformedResponseError, match="empty fields"):
            generate_qa(make_image(), "seed text", _StubBackend(cot=" \n\t "))

    def test_empty_seed_rejected(self):
        with pytest.raises(ValidationError):
            generate_qa(make_image(), "", _StubBackend())


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
        "ct_001": [OrganMask("liver", half_mask(64, 64, "left"))],
        "xr_001": [OrganMask("left lung", half_mask(64, 64, "left"))],
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

            def generate(self, seed, image_id, modality):
                raise BackendError("connection refused")

        dataset, masks = small_dataset()
        with pytest.raises(BackendError, match=r"ct_001.*annotation 0"):
            build_corpus(dataset, masks, Boom())

    def test_skip_failed_collects_failures(self):
        class FailSecond:
            generator_id = "flaky"

            def __init__(self):
                self.calls = 0

            def generate(self, seed, image_id, modality):
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
        bad = {"ct_001": [OrganMask("liver", half_mask(32, 32, "left"))]}
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
        masks = {"ct_001": [OrganMask("liver", half_mask(64, 64, "left"))],
                 "ct_003": [OrganMask("kidney", half_mask(64, 64, "left"))]}
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
                                        "rle": rle_encode(mask)}) + "\n")
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
