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
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, read_object
from .forge import ImageRecord, OrganMask, VqaCotRecord
from .geometry import check_runs, encode_runs, expand_runs


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
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also too long an int
                    raise ValidationError(
                        f"{path}: line {lineno}: bad JSON: {exc}") from exc
                yield lineno, obj
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path}: {reason}") from None


def _iter_objects(path, cls):
    for lineno, obj in _iter_jsonl(path):
        yield lineno, read_object(cls, obj, f"{path}: line {lineno}", ValidationError)


def rle_decode(runs, height, width) -> np.ndarray:
    """Decode alternating zero/one run lengths (row-major, zeros first)."""
    return expand_runs(check_runs(runs, height, width), height, width)


def rle_encode(mask) -> list:
    """Inverse of rle_decode; the first run counts zeros (possibly 0)."""
    return encode_runs(mask).tolist()


@dataclass
class _MaskLine:
    image_id: str
    organ_label: str
    height: int
    width: int
    rle: list  # checked by check_runs as one array, not run by run


def read_dataset(path):
    """Read detection records; returns images in file order."""
    images = {}
    for lineno, image in _iter_objects(path, ImageRecord):
        if image.image_id in images:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate image_id {image.image_id!r}")
        images[image.image_id] = image
    return list(images.values())


def read_masks(path, images_by_id):
    """Read the organ-mask sidecar: image id -> its masks, file order kept.

    Every line is checked here: its image must be known and its dims must
    match that image's, its runs must be valid RLE for those dims, and its
    organ label and mask must be non-empty (the mask's area is the sum of
    its odd runs). Each mask is kept as its checked runs and nothing is
    decoded; the returned mapping is read-only and holds a tuple per image.
    """
    masks_by_image = {}
    for lineno, line in _iter_objects(path, _MaskLine):
        image = images_by_id.get(line.image_id)
        if image is None:
            raise ValidationError(
                f"{path}: line {lineno}: mask references unknown image {line.image_id!r}"
            )
        if (line.height, line.width) != (image.height, image.width):
            raise ValidationError(
                f"{path}: line {lineno}: mask dims {(line.height, line.width)} "
                f"do not match image {line.image_id!r} dims {(image.height, image.width)}"
            )
        try:
            mask = OrganMask(line.organ_label, line.rle, line.height, line.width)
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        masks_by_image.setdefault(line.image_id, []).append(mask)
    for image_id, masks in masks_by_image.items():
        masks_by_image[image_id] = tuple(masks)
    return types.MappingProxyType(masks_by_image)


def write_corpus(path, records):
    _write_jsonl(path, (r.to_json_dict() for r in records))


def read_corpus(path, allow_empty_cot=False):
    """Read VQA-CoT records; empty rationales are rejected unless allowed."""
    records = []
    for lineno, record in _iter_objects(path, VqaCotRecord):
        if not record.cot.strip() and not allow_empty_cot:
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
