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

from .errors import (JSON_SPACE, Record, ValidationError, checked, open_text, parse_json,
                     read_object)
from .forge import ImageRecord, VqaCotRecord, organ_masks
from .geometry import NOT_RUNS, ChunkedRuns, Side


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


# json.dumps(obj, ensure_ascii=False) builds an encoder per call; this one
# writes the same text
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _write_jsonl(path, dicts):
    with atomic_writer(path) as f:
        for obj in dicts:
            f.write(_encode(obj) + "\n")


def _iter_jsonl(path):
    """(where, stripped text, parsed value) of each non-blank line; ``where()``
    names the line ("{path}: line {lineno}") for an error message."""
    with open_text(path, ValidationError) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip(JSON_SPACE)  # str.strip() would take Unicode spaces too
            if line:
                # formatted only on a fault; the default keeps this line's number
                where = lambda lineno=lineno: f"{path}: line {lineno}"
                yield where, line, parse_json(line, where, ValidationError)


def _iter_objects(path, cls):
    for where, _, obj in _iter_jsonl(path):
        yield where, read_object(cls, obj, where, ValidationError)


def rle_decode(runs, height, width) -> np.ndarray:
    """Decode alternating zero/one run lengths (row-major, zeros first)."""
    height, width = checked("height", height, Side), checked("width", width, Side)
    line = ChunkedRuns.of_line(runs, height * width)
    if line.faults:
        raise ValidationError(line.faults[0])
    [runs] = line.arrays
    values = np.zeros(len(runs), dtype=bool)
    values[1::2] = True
    return np.repeat(values, runs).reshape(height, width)


@dataclass
class _MaskLine(Record):
    image_id: str
    organ_label: str
    height: int
    width: int
    rle: list  # converted and checked by ChunkedRuns, not run by run


def read_dataset(path):
    """Read detection records; returns images in file order."""
    images = {}
    for where, image in _iter_objects(path, ImageRecord):
        if image.image_id in images:
            raise ValidationError(f"{where()}: duplicate image_id {image.image_id!r}")
        images[image.image_id] = image
    return list(images.values())


def read_masks(path, images_by_id):
    """Read the organ-mask sidecar: image id -> its masks, file order kept.

    Every line is checked here: its image must be known and its dims must
    match that image's, its runs must be valid RLE for those dims (a JSON
    true or false is not a run), and its organ label and mask must be
    non-empty (the mask's area is the sum of its odd runs). The file is
    read in one loop; per line: one parse, one `_MaskLine` read, the image,
    dims and boolean checks, and one `geometry.ChunkedRuns.add`, which
    converts and checks the runs a chunk of lines at a time: one read-only
    buffer per chunk, each mask's runs a view of it, and at most one
    chunk's run lists held. `forge.organ_masks` then checks the labels and
    areas of the lines read, and the first faulty line in the file is the
    one reported: the earliest of its faults, or else the fault that
    stopped the read. Each mask is kept as its checked runs and nothing is
    decoded; the masks are then grouped per image in one pass, and the
    returned mapping is read-only and holds a tuple per image.
    """
    lines, sources, stop = [], [], None  # organ_masks' line, and (where, image id), per line
    runs = ChunkedRuns()
    try:
        for where, text, obj in _iter_jsonl(path):
            line = read_object(_MaskLine, obj, where, ValidationError)
            image = images_by_id.get(line.image_id)
            if image is None:
                raise ValidationError(
                    f"{where()}: mask references unknown image {line.image_id!r}")
            if line.height != image.height or line.width != image.width:
                raise ValidationError(
                    f"{where()}: mask dims {(line.height, line.width)} do not match "
                    f"image {line.image_id!r} dims {(image.height, image.width)}"
                )
            if _holds_json_boolean(text, line.rle):  # it would read as 1 or 0
                raise ValidationError(f"{where()}: {NOT_RUNS}")
            lines.append((line.organ_label, line.height, line.width))
            sources.append((where, line.image_id))
            runs.add(line.rle, line.height * line.width)
            if runs.faults:  # no later line can hold the first fault
                break
    except ValidationError as exc:
        stop = exc
    runs.flush()
    masks, faults = organ_masks(lines, runs)
    if faults:
        k = min(faults)
        raise ValidationError(f"{sources[k][0]()}: {faults[k]}")
    if stop is not None:
        raise stop
    masks_by_image = {}
    for (_, image_id), mask in zip(sources, masks):
        masks_by_image.setdefault(image_id, []).append(mask)
    return types.MappingProxyType({image_id: tuple(masks)
                                   for image_id, masks in masks_by_image.items()})


def _holds_json_boolean(text, values):
    """Whether a list parsed from the JSON line `text` holds true or false.

    The list is scanned only when the text spells "true" or "false", and
    the text is searched for those only when it holds a "u" or an "f",
    which a single-character search finds at once.
    """
    return (("u" in text or "f" in text) and ("true" in text or "false" in text)
            and any(type(value) is bool for value in values))


def write_corpus(path, records):
    _write_jsonl(path, (r.to_json_dict() for r in records))


def read_corpus(path, allow_empty_cot=False):
    """Read VQA-CoT records; empty rationales are rejected unless allowed."""
    records = []
    for where, record in _iter_objects(path, VqaCotRecord):
        if not record.cot.strip() and not allow_empty_cot:
            raise ValidationError(f"{where()}: empty cot outside a Hard pool")
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
