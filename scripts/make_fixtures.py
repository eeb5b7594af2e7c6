"""Regenerate the bundled fixtures and the committed golden files.

Run from the repository root:

    python3 scripts/make_fixtures.py

Everything below is deterministic, so reruns are byte-identical. The forge
golden is produced by a straight-line reference loop kept deliberately
independent of the library implementation; if the two ever disagree, the
golden-file tests go red and one of them is wrong.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from cotforge import cli, jsonl  # noqa: E402
from cotforge.dynamics import BUILTIN_SCENARIOS  # noqa: E402
from cotforge.forge import (  # noqa: E402
    ImageRecord,
    LesionAnnotation,
    OrganMask,
    TemplateQaGenerator,
    build_corpus,
)
from cotforge.geometry import BBox, encode_runs  # noqa: E402

FIXTURES = REPO / "src" / "cotforge" / "fixtures"
GOLDEN = REPO / "tests" / "golden"

IMAGE_SIZE = 64

# Forge demo: three images, five annotations, rectangular organ masks.
# (image_id, modality, [(lesion, box), ...])
DEMO_IMAGES = [
    ("ct_001", "CT", [
        ("mass", (0.08, 0.12, 0.42, 0.82)),
        ("cyst", (0.60, 0.28, 0.90, 0.74)),
    ]),
    ("xr_001", "XRay", [
        ("nodule", (0.10, 0.18, 0.40, 0.66)),
        ("opacity", (0.42, 0.22, 0.92, 0.70)),
    ]),
    ("mr_001", "MRI", [
        ("tumor", (0.30, 0.25, 0.70, 0.75)),
    ]),
]

# (image_id, organ_label, (row_lo, row_hi, col_lo, col_hi)) inclusive pixel rects
DEMO_MASKS = [
    ("ct_001", "liver", (6, 56, 3, 30)),
    ("ct_001", "kidney", (14, 50, 36, 60)),
    ("xr_001", "left lung", (8, 58, 4, 28)),
    ("xr_001", "right lung", (8, 58, 34, 60)),
    ("mr_001", "brain", (8, 56, 12, 52)),
]

# Toy corpus: four (lesion, modality) domains, each tied to one organ region.
# Regions overlap on purpose: the toy model grounds every item against one
# shared feature grid, so overlapping regions keep competing anchors alive
# and the grounding term bottoms out well above zero.
# (lesion, modality, organ, (x_lo, x_hi, y_lo, y_hi))
TOY_DOMAINS = [
    ("mass", "CT", "liver", (0.06, 0.56, 0.10, 0.90)),
    ("cyst", "CT", "kidney", (0.38, 0.94, 0.10, 0.90)),
    ("nodule", "XRay", "lung", (0.10, 0.90, 0.06, 0.56)),
    ("tumor", "MRI", "brain", (0.15, 0.85, 0.38, 0.94)),
]
TOY_RECORDS_PER_DOMAIN = 50
TOY_SEED = 20250821


def rect_mask(row_lo, row_hi, col_lo, col_hi):
    mask = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=bool)
    mask[row_lo:row_hi + 1, col_lo:col_hi + 1] = True
    return mask


def write_jsonl(path, rows):
    with jsonl.atomic_writer(path) as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def make_forge_demo():
    dataset_rows = [
        {
            "image_id": image_id,
            "width": IMAGE_SIZE,
            "height": IMAGE_SIZE,
            "modality": modality,
            "annotations": [
                {"box": list(box), "lesion_class": lesion}
                for lesion, box in annotations
            ],
        }
        for image_id, modality, annotations in DEMO_IMAGES
    ]
    mask_rows = [
        {
            "image_id": image_id,
            "organ_label": organ,
            "height": IMAGE_SIZE,
            "width": IMAGE_SIZE,
            "rle": encode_runs(rect_mask(*rect)).tolist(),
        }
        for image_id, organ, rect in DEMO_MASKS
    ]
    write_jsonl(FIXTURES / "forge_dataset.jsonl", dataset_rows)
    write_jsonl(FIXTURES / "forge_masks.jsonl", mask_rows)
    return dataset_rows


def reference_forge_golden(dataset_rows):
    """Straight-line re-derivation of the expected forge output.

    Box pixels are those whose centers land inside the closed box in pixel
    units; assignment is best IoU against each mask, first index winning
    ties, and a best of zero means the annotation is dropped.
    """
    masks_by_image = {}
    for image_id, organ, rect in DEMO_MASKS:
        masks_by_image.setdefault(image_id, []).append((organ, rect_mask(*rect)))

    cols = np.arange(IMAGE_SIZE) + 0.5
    rows = np.arange(IMAGE_SIZE) + 0.5
    records = []
    for image in dataset_rows:
        for ann in image["annotations"]:
            x1, y1, x2, y2 = ann["box"]
            in_x = (cols >= x1 * IMAGE_SIZE) & (cols <= x2 * IMAGE_SIZE)
            in_y = (rows >= y1 * IMAGE_SIZE) & (rows <= y2 * IMAGE_SIZE)
            box_pixels = in_y[:, None] & in_x[None, :]

            best_iou = -1.0
            best_organ = None
            for organ, mask in masks_by_image[image["image_id"]]:
                inter = float(np.sum(box_pixels & mask))
                union = float(np.sum(box_pixels | mask))
                iou = inter / union if union else 0.0
                if iou > best_iou:
                    best_iou = iou
                    best_organ = organ
            if best_iou <= 0.0:
                continue

            lesion = ann["lesion_class"]
            records.append({
                "image_id": image["image_id"],
                "box": [float(v) for v in ann["box"]],
                "question": f"Which organ contains the {lesion}?",
                "answer": best_organ,
                "cot": (
                    f"The image shows a {lesion}. "
                    f"Its location overlaps the {best_organ}. "
                    f"Therefore the {lesion} is in the {best_organ}."
                ),
                "domain": {"lesion_class": lesion, "modality": image["modality"]},
                "seed": f"There is a {lesion} in the {best_organ}.",
                "generator_id": "template-v1",
            })
    write_jsonl(GOLDEN / "forge_corpus.jsonl", records)


def sample_box(rng, region):
    x_lo, x_hi, y_lo, y_hi = region
    x1 = rng.uniform(x_lo, x_hi - 0.12)
    x2 = rng.uniform(x1 + 0.08, min(x_hi, x1 + 0.40))
    y1 = rng.uniform(y_lo, y_hi - 0.12)
    y2 = rng.uniform(y1 + 0.08, min(y_hi, y1 + 0.40))
    return BBox(*(round(v, 4) for v in (x1, y1, x2, y2)))


def region_pixel_mask(region):
    x_lo, x_hi, y_lo, y_hi = region
    cols = np.arange(IMAGE_SIZE) + 0.5
    rows = np.arange(IMAGE_SIZE) + 0.5
    in_x = (cols >= x_lo * IMAGE_SIZE) & (cols <= x_hi * IMAGE_SIZE)
    in_y = (rows >= y_lo * IMAGE_SIZE) & (rows <= y_hi * IMAGE_SIZE)
    return in_y[:, None] & in_x[None, :]


def make_toy_corpus():
    rng = np.random.default_rng(TOY_SEED)
    images = []
    masks_by_image = {}
    for lesion, modality, organ, region in TOY_DOMAINS:
        organ_runs = encode_runs(region_pixel_mask(region))
        for i in range(TOY_RECORDS_PER_DOMAIN):
            image_id = f"{modality.lower()}_{lesion}_{i:03d}"
            images.append(ImageRecord(
                image_id=image_id,
                width=IMAGE_SIZE,
                height=IMAGE_SIZE,
                modality=modality,
                annotations=[LesionAnnotation(box=sample_box(rng, region),
                                              lesion_class=lesion)],
            ))
            masks_by_image[image_id] = [OrganMask(organ, organ_runs, IMAGE_SIZE, IMAGE_SIZE)]

    result = build_corpus(images, masks_by_image, TemplateQaGenerator())
    if result.skipped_unassigned or result.failures:
        raise RuntimeError("toy corpus generation must assign every annotation")
    jsonl.write_corpus(FIXTURES / "toy_corpus.jsonl", result.records)
    return len(result.records)


def make_trace_goldens():
    os.environ.pop("COTFORGE_CONFIG", None)
    corpus = FIXTURES / "toy_corpus.jsonl"
    with tempfile.TemporaryDirectory() as tmp:
        cfg10 = Path(tmp) / "train10.json"
        cfg10.write_text(json.dumps({"harness": {"epochs": 10}}))
        rc = cli.main([
            "train-toy", "--config", str(cfg10),
            "--corpus", str(corpus), "--out", str(GOLDEN / "trace_toy_10ep.jsonl"),
        ])
        if rc != 0:
            raise RuntimeError(f"10-epoch trace golden failed with exit code {rc}")
    rc = cli.main([
        "train-toy", "--corpus", str(corpus),
        "--out", str(GOLDEN / "trace_toy_40ep.jsonl"),
    ])
    if rc != 0:
        raise RuntimeError(f"40-epoch trace golden failed with exit code {rc}")
    for name in BUILTIN_SCENARIOS:
        rc = cli.main([
            "simulate", "--scenario", name,
            "--out", str(GOLDEN / f"trace_sim_{name}.jsonl"),
            "--csv", str(GOLDEN / f"trace_sim_{name}.csv"),
        ])
        if rc != 0:
            raise RuntimeError(f"{name} simulate golden failed with exit code {rc}")


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    dataset_rows = make_forge_demo()
    reference_forge_golden(dataset_rows)
    count = make_toy_corpus()
    print(f"forge demo: {sum(len(a) for _, _, a in DEMO_IMAGES)} annotations over "
          f"{len(DEMO_IMAGES)} images; toy corpus: {count} records")
    make_trace_goldens()
    print("trace goldens written")


if __name__ == "__main__":
    main()
