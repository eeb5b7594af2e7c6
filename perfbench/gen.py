"""Seeded input generator for the forge workloads, with its own IoU oracle.

Everything here is independent of the cotforge package: masks are drawn and
run-length encoded with numpy, and the expected organ of every lesion box is
computed from the generated masks by an argmax-IoU oracle written from the
forge's documented rules (pixel centers in the closed box, ties to the first
mask, IoU <= tau_iou means unassigned).

Box coordinates are whole pixels divided by a power-of-two image size, so
they are exact binary fractions and no pixel center sits on a box edge.

The counts that set the amount of work (images, masks per image, lesions per
image, lesions placed outside every organ) are fixed per size; the seed only
moves shapes, positions, labels and order. So every seed does the same
amount of work, and run-to-run spread measures the program, not the input.
"""

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20251004
HOLDOUT_SEED = 424242

# Kept in step with cotforge.forge.MODALITIES by hand: the generator must not
# import the package it feeds.
MODALITIES = ("CT", "XRay", "MRI", "Mammo")
LESIONS = ("mass", "cyst", "nodule", "tumor")
ORGANS = ("liver", "spleen", "left kidney", "right kidney", "pancreas",
          "stomach", "gallbladder", "aorta", "bladder", "heart",
          "left lung", "right lung")

# name -> image count, image side, organ masks per image (cycled), organ
# shape, lesions per image (cycled), lesion box side range in pixels, share
# of lesions outside every organ
_CLINICAL = dict(organs="ellipse", lesions=(1, 2, 3, 4), outside=0.1)
_WIDE = dict(organs="rect", masks=(1, 2, 3), lesions=(1,), outside=0.0)
SIZES = {
    "clinical": dict(_CLINICAL, images=100, side=512, masks=(10,), box=(8, 40)),
    "wide": dict(_WIDE, images=2000, side=64, box=(4, 16)),
    # small inputs: the forge side of train-golden, and the smoke test
    "clinical-tiny": dict(_CLINICAL, images=20, side=128, masks=(3,),
                          box=(8, 32), outside=0.2),
    "wide-tiny": dict(_WIDE, images=40, side=64, box=(4, 16)),
}

TAU_IOU = 0.0  # the forge default
_ANGLE_BINS = 2048


def rle_encode(mask):
    """Alternating zero/one run lengths, row-major, zeros first (maybe 0)."""
    flat = np.asarray(mask, dtype=bool).ravel()
    edges = np.flatnonzero(np.diff(flat.view(np.int8))) + 1
    runs = np.diff(np.concatenate(([0], edges, [flat.size])))
    if flat[0]:
        runs = np.concatenate(([0], runs))
    return runs.tolist()


def _pixel_span(lo, hi, n):
    """[start, stop) of the pixels whose centers lie in [lo*n, hi*n]."""
    centers = np.arange(n) + 0.5
    inside = np.flatnonzero((centers >= lo * n) & (centers <= hi * n))
    if inside.size == 0:
        return 0, 0
    return int(inside[0]), int(inside[-1]) + 1


def oracle_organ(box, masks, labels, tau_iou=TAU_IOU):
    """Label of the argmax-IoU mask for a normalized box, or None."""
    height, width = masks[0].shape
    r0, r1 = _pixel_span(box[1], box[3], height)
    c0, c1 = _pixel_span(box[0], box[2], width)
    area = (r1 - r0) * (c1 - c0)
    best, best_k = -1.0, None
    for k, mask in enumerate(masks):
        inter = int(np.count_nonzero(mask[r0:r1, c0:c1]))
        union = area + int(np.count_nonzero(mask)) - inter
        iou = inter / union if union else 0.0
        if iou > best:
            best, best_k = iou, k
    return None if best <= tau_iou else labels[best_k]


def _ellipse_mask(rng, side, margin):
    """Ellipse with a wobbly edge, kept clear of a `margin`-pixel border."""
    ry = rng.uniform(0.10, 0.185) * side
    rx = rng.uniform(0.08, 0.175) * side
    harmonics = np.arange(3, 13)
    amps = rng.uniform(0.0, 1.0, size=len(harmonics))
    amps *= 0.15 / amps.sum()  # the edge stays within 0.85..1.15 radii
    phases = rng.uniform(0.0, 2 * np.pi, size=len(harmonics))
    reach_y, reach_x = 1.15 * ry, 1.15 * rx
    cy = rng.uniform(margin + reach_y, side - margin - reach_y)
    cx = rng.uniform(margin + reach_x, side - margin - reach_x)
    r_lo, r_hi = int(cy - reach_y) - 1, int(cy + reach_y) + 2
    c_lo, c_hi = int(cx - reach_x) - 1, int(cx + reach_x) + 2
    yy = (np.arange(r_lo, r_hi)[:, None] + 0.5 - cy) / ry
    xx = (np.arange(c_lo, c_hi)[None, :] + 0.5 - cx) / rx
    # edge radius per angle, tabulated once and looked up per pixel
    angles = np.linspace(-np.pi, np.pi, _ANGLE_BINS + 1)
    table = 1.0 + (np.cos(harmonics * angles[:, None] + phases) * amps).sum(-1)
    bins = ((np.arctan2(yy, xx) + np.pi) * (_ANGLE_BINS / (2 * np.pi))).astype(int)
    radius = table[bins]
    mask = np.zeros((side, side), dtype=bool)
    mask[r_lo:r_hi, c_lo:c_hi] = np.hypot(yy, xx) <= radius
    return mask


def _rect_mask(rng, side):
    h, w = rng.integers(side // 5, side * 5 // 8, size=2)
    r0 = rng.integers(0, side - h + 1)
    c0 = rng.integers(0, side - w + 1)
    mask = np.zeros((side, side), dtype=bool)
    mask[r0:r0 + h, c0:c0 + w] = True
    return mask


def _box(r0, c0, h, w, side):
    return [c0 / side, r0 / side, (c0 + w) / side, (r0 + h) / side]


def _box_on(rng, mask, side, lo, hi):
    """Box of lo..hi pixels a side, centered near a random pixel of the mask."""
    pixel = int(rng.choice(np.flatnonzero(mask)))
    r, c = divmod(pixel, side)
    h, w = rng.integers(lo, hi + 1, size=2)
    r0 = min(max(r - h // 2, 0), side - h)
    c0 = min(max(c - w // 2, 0), side - w)
    return _box(r0, c0, h, w, side)


def _box_in_border(rng, side, margin, lo, hi):
    """Box inside one of the four border bands that no organ reaches."""
    size = min(hi, margin)
    h, w = rng.integers(lo, size + 1, size=2)
    band = rng.integers(4)
    along = rng.integers(0, side - max(h, w) + 1)
    across = rng.integers(0, margin - max(h, w) + 1)
    if band >= 2:
        across = side - margin + across
    if band % 2 == 0:
        return _box(across, along, h, w, side)
    return _box(along, across, h, w, side)


def _cycled(rng, values, n):
    """n values cycled from `values`, in seeded order: a fixed multiset."""
    return rng.permutation(np.resize(np.asarray(values), n)).tolist()


def generate(size, seed, out_dir):
    """Write dataset.jsonl, masks.jsonl and expected.json under out_dir.

    expected.json lists, in dataset order, every annotation as
    [image_id, box, organ_label or null] as the oracle decides it.
    Returns the expected list.
    """
    spec = SIZES[size]
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n, side = spec["images"], spec["side"]
    mask_counts = _cycled(rng, spec["masks"], n)
    lesion_counts = _cycled(rng, spec["lesions"], n)
    total = sum(lesion_counts)
    n_outside = round(total * spec["outside"])
    outside = set(rng.permutation(total)[:n_outside].tolist())
    domains = _cycled(rng, range(len(LESIONS) * len(MODALITIES)), n)
    clinical = spec["organs"] == "ellipse"
    if n_outside and not clinical:
        raise ValueError("lesions outside every organ need elliptical organs")
    margin = side // 10  # organ-free border band around elliptical organs
    box_lo, box_hi = spec["box"]

    expected = []
    ordinal = 0
    with open(out_dir / "dataset.jsonl", "w", encoding="utf-8") as ds, \
            open(out_dir / "masks.jsonl", "w", encoding="utf-8") as ms:
        for i in range(n):
            image_id = f"img_{i:05d}"
            lesion_of_domain, modality = divmod(domains[i], len(MODALITIES))
            modality = MODALITIES[modality]
            labels = rng.choice(len(ORGANS), size=mask_counts[i], replace=False)
            labels = [ORGANS[k] for k in labels]
            if clinical:
                masks = [_ellipse_mask(rng, side, margin) for _ in labels]
            else:
                masks = [_rect_mask(rng, side) for _ in labels]
            annotations = []
            for _ in range(lesion_counts[i]):
                if ordinal in outside:
                    box = _box_in_border(rng, side, margin, box_lo, box_hi)
                else:
                    on = masks[int(rng.integers(len(masks)))]
                    box = _box_on(rng, on, side, box_lo, box_hi)
                lesion = (LESIONS[int(rng.integers(len(LESIONS)))] if clinical
                          else LESIONS[lesion_of_domain])
                annotations.append({"box": box, "lesion_class": lesion})
                expected.append([image_id, box, oracle_organ(box, masks, labels)])
                ordinal += 1
            ds.write(json.dumps({"image_id": image_id, "width": side,
                                 "height": side, "modality": modality,
                                 "annotations": annotations}) + "\n")
            for label, mask in zip(labels, masks):
                ms.write(json.dumps({"image_id": image_id, "organ_label": label,
                                     "height": side, "width": side,
                                     "rle": rle_encode(mask)}) + "\n")
    with open(out_dir / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    return expected
