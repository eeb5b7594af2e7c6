"""JSONL persistence: datasets, mask sidecars, corpora, and trace files.

All writers are atomic (temp file in the target directory, then rename) and
emit UTF-8 with LF line endings, so reruns on identical inputs produce
byte-identical files.
"""

import contextlib
import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .forge import ImageRecord, LesionAnnotation, OrganMask, VqaCotRecord
from .geometry import BBox


@contextlib.contextmanager
def atomic_writer(path):
    """Context manager yielding a text handle; commits via rename on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _write_jsonl(path, dicts):
    with atomic_writer(path) as f:
        for obj in dicts:
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _iter_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: line {lineno}: bad JSON: {exc}") from exc


def _require(obj, key, types, path, lineno):
    if key not in obj:
        raise ValidationError(f"{path}: line {lineno}: missing field {key!r}")
    value = obj[key]
    # bool is a subclass of int, but true/false is never a valid count
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValidationError(
            f"{path}: line {lineno}: field {key!r} has type "
            f"{type(value).__name__}"
        )
    return value


def rle_decode(runs, height, width) -> np.ndarray:
    """Decode alternating zero/one run lengths (row-major, zeros first)."""
    runs = list(runs)
    if any((not isinstance(r, (int, np.integer))) or r < 0 for r in runs):
        raise ValidationError("RLE runs must be non-negative integers")
    if sum(runs) != height * width:
        raise ValidationError(
            f"RLE runs sum to {sum(runs)}, expected {height * width}"
        )
    values = np.arange(len(runs)) % 2
    flat = np.repeat(values, runs)
    return flat.reshape(height, width).astype(bool)


def rle_encode(mask) -> list:
    """Inverse of rle_decode; the first run counts zeros (possibly 0)."""
    flat = np.asarray(mask).astype(bool).ravel()
    runs = []
    current = False  # encoding starts with a zero run
    count = 0
    for v in flat:
        if v == current:
            count += 1
        else:
            runs.append(count)
            current = v
            count = 1
    runs.append(count)
    return [int(r) for r in runs]


def read_dataset(path):
    """Read detection records; returns images in file order."""
    images = []
    seen = set()
    for lineno, obj in _iter_jsonl(path):
        image_id = _require(obj, "image_id", str, path, lineno)
        if image_id in seen:
            raise ValidationError(f"{path}: line {lineno}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        width = _require(obj, "width", int, path, lineno)
        height = _require(obj, "height", int, path, lineno)
        modality = _require(obj, "modality", str, path, lineno)
        raw_anns = _require(obj, "annotations", list, path, lineno)
        try:
            annotations = []
            for raw in raw_anns:
                box = raw["box"]
                annotations.append(
                    LesionAnnotation(
                        box=BBox(*[float(v) for v in box]),
                        lesion_class=raw["lesion_class"],
                    )
                )
            images.append(
                ImageRecord(
                    image_id=image_id,
                    width=width,
                    height=height,
                    modality=modality,
                    annotations=annotations,
                )
            )
        except (ValidationError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
    return images


def read_masks(path, images_by_id):
    """Read the organ-mask sidecar, grouped by image id, file order kept.

    Mask dims must match the owning image; masks for unknown images are
    rejected.
    """
    grouped = {}
    for lineno, obj in _iter_jsonl(path):
        image_id = _require(obj, "image_id", str, path, lineno)
        image = images_by_id.get(image_id)
        if image is None:
            raise ValidationError(
                f"{path}: line {lineno}: mask references unknown image {image_id!r}"
            )
        organ_label = _require(obj, "organ_label", str, path, lineno)
        height = _require(obj, "height", int, path, lineno)
        width = _require(obj, "width", int, path, lineno)
        runs = _require(obj, "rle", list, path, lineno)
        if (height, width) != (image.height, image.width):
            raise ValidationError(
                f"{path}: line {lineno}: mask dims {(height, width)} do not match "
                f"image {image_id} dims {(image.height, image.width)}"
            )
        try:
            mask = OrganMask(organ_label, rle_decode(runs, height, width))
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        grouped.setdefault(image_id, []).append(mask)
    return grouped


def write_corpus(path, records):
    _write_jsonl(path, (r.to_json_dict() for r in records))


def read_corpus(path, allow_empty_cot=False):
    """Read VQA-CoT records; empty rationales are rejected unless allowed."""
    records = []
    for lineno, obj in _iter_jsonl(path):
        try:
            record = VqaCotRecord.from_json_dict(obj)
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        if not record.cot and not allow_empty_cot:
            raise ValidationError(
                f"{path}: line {lineno}: empty cot outside a Hard pool"
            )
        records.append(record)
    return records


def write_trace(path, header, rows):
    """Write a trace file: one header record, then one record per epoch.

    Non-finite floats round-trip through the json module's Infinity literal.
    """
    _write_jsonl(path, [header, *rows])


def read_trace(path):
    rows = [obj for _, obj in _iter_jsonl(path)]
    if not rows:
        raise ValidationError(f"{path}: empty trace file")
    header, epochs = rows[0], rows[1:]
    if header.get("kind") != "header":
        raise ValidationError(f"{path}: first record must be the header")
    return header, epochs


TRACE_CSV_COLUMNS = ("epoch", "lambda_easy", "lambda_medium", "lambda_hard",
                     "m_bar", "gap_cot")


def write_trace_csv(path, rows):
    """Flat CSV view of a trace (epoch, stage fractions, m_bar, gap_cot)."""
    with atomic_writer(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(TRACE_CSV_COLUMNS)
        for row in rows:
            realized = row.get("realized", {})
            writer.writerow(
                [
                    row.get("epoch"),
                    realized.get("easy"),
                    realized.get("medium"),
                    realized.get("hard"),
                    row.get("m_bar"),
                    row.get("gap_cot"),
                ]
            )
