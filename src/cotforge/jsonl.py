"""JSONL persistence: datasets, mask sidecars, corpora, and trace files.

All writers are atomic (temp file in the target directory, then rename) and
emit UTF-8 with LF line endings, so reruns on identical inputs produce
byte-identical files.
"""

import contextlib
import csv
import json
import os
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, open_text, parse_json, read_object
from .forge import ImageRecord, VqaCotRecord, organ_masks
from .geometry import check_runs, expand_runs, runs_array


@contextlib.contextmanager
def atomic_writer(path):
    """Context manager yielding a text handle; commits via rename on success.

    The file gets mode 0666 less the umask, as ``open`` would give it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # not mkstemp, whose files are 0600 whatever the umask
    tmp_name = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    """(line number, stripped text, parsed value) of each non-blank line."""
    with open_text(path, ValidationError) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if line:
                yield lineno, line, parse_json(
                    line, lambda: f"{path}: line {lineno}", ValidationError)


def _iter_objects(path, cls):
    for lineno, _, obj in _iter_jsonl(path):
        yield lineno, read_object(cls, obj, f"{path}: line {lineno}", ValidationError)


def rle_decode(runs, height, width) -> np.ndarray:
    """Decode alternating zero/one run lengths (row-major, zeros first)."""
    runs = runs_array(runs)
    _, faults = check_runs([runs], [height * width])
    if faults:
        raise ValidationError(faults[0])
    return expand_runs(runs, height, width)


@dataclass
class _MaskLine:
    image_id: str
    organ_label: str
    height: int
    width: int
    rle: list  # made one array by runs_array, not checked run by run


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
    match that image's, its runs must be valid RLE for those dims (a JSON
    true or false is not a run), and its organ label and mask must be
    non-empty (the mask's area is the sum of its odd runs). Each line's
    runs become one array as the line is read; the lines read are checked
    together (`forge.organ_masks`) at the end, and before any later line's
    own fault is raised, so the first faulty line in the file is the one
    reported. Each mask is kept as its checked runs and nothing is decoded;
    the returned mapping is read-only and holds a tuple per image.
    """
    pending = []
    try:
        for lineno, text, obj in _iter_jsonl(path):
            where = f"{path}: line {lineno}"
            line = read_object(_MaskLine, obj, where, ValidationError)
            image = images_by_id.get(line.image_id)
            if image is None:
                raise ValidationError(
                    f"{where}: mask references unknown image {line.image_id!r}")
            if (line.height, line.width) != (image.height, image.width):
                raise ValidationError(
                    f"{where}: mask dims {(line.height, line.width)} do not match "
                    f"image {line.image_id!r} dims {(image.height, image.width)}"
                )
            try:
                runs = runs_array(line.rle)
                if _holds_json_boolean(text, line.rle):  # it would read as 1 or 0
                    raise ValidationError("RLE runs must be non-negative integers")
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from exc
            pending.append((lineno, line.image_id,
                            (line.organ_label, runs, line.height, line.width)))
    except ValidationError:
        _checked_masks(path, pending)  # an earlier line's fault comes first
        raise
    return _checked_masks(path, pending)


def _holds_json_boolean(text, values):
    """Whether a list parsed from the JSON line `text` holds true or false.

    The list is scanned only when the text spells "true" or "false", and
    the text is searched for those only when it holds a "u" or an "f",
    which a single-character search finds at once.
    """
    return (("u" in text or "f" in text) and ("true" in text or "false" in text)
            and any(type(value) is bool for value in values))


def _checked_masks(path, lines):
    """Check the read mask lines and map each image id to a tuple of its
    masks, read-only; the first faulty line raises, named."""
    masks_by_image = {}
    masks = organ_masks([mask_line for _, _, mask_line in lines])
    for lineno, image_id, _ in lines:
        try:
            mask = next(masks)
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        masks_by_image.setdefault(image_id, []).append(mask)
    return types.MappingProxyType({image_id: tuple(masks)
                                   for image_id, masks in masks_by_image.items()})


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
