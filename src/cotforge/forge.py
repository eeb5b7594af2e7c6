"""Detection-to-VQA corpus forging.

Pipeline per annotation: pick the organ whose mask best overlaps the lesion
box (pixel-count IoU, argmax, ties to the lowest mask index), render the
seed sentence, and hand the seed to a QA backend that returns a question,
an answer, and a short chain-of-thought rationale. Annotations whose best
IoU falls at or below the threshold stay unassigned and are skipped by
default (or routed to an organ-free template, per config).
"""

import logging
import re
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Protocol

import numpy as np

from .errors import BackendError, MalformedResponseError, ValidationError
from .geometry import BBox, box_intersections, box_span, encode_runs, expand_runs
from .geometry import mask_iou  # noqa: F401  uncalled; the benchmark tracer wraps it here

logger = logging.getLogger(__name__)

MODALITIES = ("CT", "XRay", "MRI", "Mammo")

DEFAULT_SEED_TEMPLATE = "There is a {lesion_class} in the {organ_label}."
ORGAN_FREE_SEED_TEMPLATE = "There is a {lesion_class}."

MAX_COT_SENTENCES = 4

# Largest accepted image side in pixels; a full-field mammogram fits.
MAX_IMAGE_SIDE = 8192


@dataclass(frozen=True)
class DomainKey:
    """Curriculum domain: a (lesion class, modality) pair."""

    lesion_class: str
    modality: str

    def __post_init__(self):
        if not self.lesion_class or not self.modality:
            raise ValidationError("domain key fields must be non-empty")

    def as_str(self) -> str:
        return f"{self.lesion_class}|{self.modality}"


@dataclass(frozen=True)
class LesionAnnotation:
    box: BBox
    lesion_class: str

    def __post_init__(self):
        if not self.lesion_class:
            raise ValidationError("lesion_class must be non-empty")


class OrganMask:
    """Named binary mask kept as row-major RLE runs; at least one pixel set.

    The runs alternate zeros and ones, zeros first, and sum to
    height * width; `area`, the set-pixel count, is the sum of the odd
    runs. A dense mask given to the constructor is encoded once, and
    `from_runs` takes runs already checked against the dims. The stored
    runs are read-only, and `mask` decodes a fresh read-only bool array on
    each access.
    """

    __slots__ = ("organ_label", "runs", "height", "width", "area")

    def __init__(self, organ_label: str, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValidationError("organ mask must be 2-D")
        self._init(organ_label, encode_runs(mask), *mask.shape)

    @classmethod
    def from_runs(cls, organ_label: str, runs: np.ndarray, height: int, width: int):
        """A mask from runs that are non-negative integers summing to
        height * width; the array is kept, not copied, and made read-only."""
        om = cls.__new__(cls)
        om._init(organ_label, runs, height, width)
        return om

    def _init(self, organ_label, runs, height, width):
        if not organ_label:
            raise ValidationError("organ_label must be non-empty")
        self.organ_label = organ_label
        runs.flags.writeable = False
        self.runs = runs
        self.height = height
        self.width = width
        self.area = int(runs[1::2].sum())
        if self.area == 0:
            raise ValidationError(f"organ mask {organ_label!r} is empty")

    @property
    def mask(self) -> np.ndarray:
        mask = expand_runs(self.runs, self.height, self.width)
        mask.flags.writeable = False
        return mask


@dataclass
class ImageRecord:
    image_id: str
    width: int
    height: int
    modality: str
    annotations: List[LesionAnnotation]

    def __post_init__(self):
        if not self.image_id:
            raise ValidationError("image_id must be non-empty")
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"image {self.image_id!r}: dims must be >= 1")
        if max(self.width, self.height) > MAX_IMAGE_SIDE:
            raise ValidationError(f"image {self.image_id!r}: sides must be at "
                                  f"most {MAX_IMAGE_SIDE} pixels")
        if self.modality not in MODALITIES:
            raise ValidationError(
                f"image {self.image_id!r}: modality {self.modality!r} "
                f"not one of {MODALITIES}"
            )


@dataclass
class VqaCotRecord:
    image_id: str
    box: BBox
    question: str
    answer: str
    cot: str
    domain: DomainKey
    seed: str
    generator_id: str

    def __post_init__(self):
        for name in ("image_id", "question", "answer", "seed", "generator_id"):
            if not getattr(self, name):
                raise ValidationError(f"record field {name!r} must be non-empty")
        # cot may be empty only in derived Hard pools, never in stored corpora

    def to_json_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "box": self.box.as_list(),
            "question": self.question,
            "answer": self.answer,
            "cot": self.cot,
            "domain": {
                "lesion_class": self.domain.lesion_class,
                "modality": self.domain.modality,
            },
            "seed": self.seed,
            "generator_id": self.generator_id,
        }


class QaGenerator(Protocol):
    generator_id: str

    def generate(self, seed: str, image_id: str, modality: str) -> tuple:
        """Return (question, answer, cot) for a seed sentence."""


def assign_organ(annotations, masks, tau_iou=0.0) -> list:
    """Pick, for each of an image's annotations, the organ mask with the
    highest IoU against its box.

    Returns one (organ_label, iou) pair per annotation, in order. The IoU is
    pixel-count IoU, counted from the masks' runs in exact integers. Ties
    break to the lowest mask index; a best IoU <= tau_iou leaves the
    annotation unassigned, with label None and the score still given.
    """
    if not masks:
        raise ValidationError("assign_organ requires at least one mask")
    height, width = masks[0].height, masks[0].width
    for om in masks:
        if (om.height, om.width) != (height, width):
            raise ValidationError("all masks for an image must share dims")
    spans = [box_span(ann.box, height, width) for ann in annotations]
    covered = iter(box_intersections([s for s in spans if s[0] < s[1]],
                                     [om.runs for om in masks], height, width).tolist())
    outcomes = []
    for r0, r1, c0, c1 in spans:
        box_pixels = (r1 - r0) * (c1 - c0)
        inters = next(covered) if box_pixels else [0] * len(masks)
        best_idx = 0
        best = -1.0
        for k, (om, inter) in enumerate(zip(masks, inters)):
            iou = inter / (box_pixels + om.area - inter)  # the area is >= 1
            if iou > best:
                best = iou
                best_idx = k
        outcomes.append((masks[best_idx].organ_label if best > tau_iou else None, best))
    return outcomes


# what each seed-template placeholder matches when a seed is read back
_FIELD_PATTERNS = {"lesion_class": r"(?P<lesion_class>.+?)",
                   "organ_label": r"(?P<organ_label>.+)"}


def parse_seed_template(template: str) -> list:
    """Split a seed template into (literal text, placeholder name) pairs.

    The literal text has `{{` and `}}` unescaped, as `str.format` renders it;
    the name is None after the last literal. Raises ValueError for a
    malformed template or for any placeholder but a bare `{lesion_class}` or
    `{organ_label}`.
    """
    parts = []
    for literal, name, spec, conversion in string.Formatter().parse(template):
        if name is not None and (name not in _FIELD_PATTERNS or spec or conversion):
            raise ValueError(f"unsupported placeholder in seed template {template!r}")
        parts.append((literal, name))
    return parts


def _template_to_regex(template: str) -> re.Pattern:
    pattern = "".join(re.escape(literal) + _FIELD_PATTERNS.get(name, "")
                      for literal, name in parse_seed_template(template))
    return re.compile("^" + pattern + "$")


class TemplateQaGenerator:
    """Deterministic QA backend that fills fixed question/answer/CoT templates.

    It recovers the lesion class and organ label by parsing the seed sentence
    against the configured seed templates, so it honors the same wire shape
    as a remote backend (seed in, QA out). Templates are tried longest fixed
    text first, ties in the given order, so a seed of the template
    "There is a {lesion_class} in the {organ_label}. It looks benign." is not
    read by the stock template as the organ "lung. It looks benign".
    """

    generator_id = "template-v1"

    def __init__(self, seed_templates=None):
        templates = list(seed_templates or [DEFAULT_SEED_TEMPLATE])
        templates.append(ORGAN_FREE_SEED_TEMPLATE)
        # a stable sort: equal lengths keep the given order
        templates.sort(key=lambda t: -len(t.format(lesion_class="", organ_label="")))
        self._parsers = [_template_to_regex(t) for t in templates]

    def generate(self, seed: str, image_id: str, modality: str) -> tuple:
        match = None
        for parser in self._parsers:
            match = parser.match(seed)
            if match:
                break
        if match is None:
            raise BackendError(f"seed does not match any configured template: {seed!r}")
        lesion = match.group("lesion_class")
        organ = match.groupdict().get("organ_label")
        if organ:
            question = f"Which organ contains the {lesion}?"
            answer = organ
            cot = (
                f"The image shows a {lesion}. Its location overlaps the {organ}. "
                f"Therefore the {lesion} is in the {organ}."
            )
        else:
            question = "What abnormality is shown?"
            answer = lesion
            cot = (
                f"The image shows a {lesion}. No single organ is identified. "
                f"Therefore the finding is a {lesion}."
            )
        return question, answer, cot


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list:
    """Sentence boundaries as used for rationale length accounting."""
    stripped = text.strip()
    if not stripped:
        return []
    return _SENTENCE_SPLIT.split(stripped)


def generate_qa(image: ImageRecord, seed: str, backend: QaGenerator) -> tuple:
    """Run one seed through a QA backend and normalize the result.

    Enforces non-empty question/answer/cot and caps the chain of thought at
    four sentences (truncating at a sentence boundary with a warning).
    """
    if not seed:
        raise ValidationError("seed must be non-empty")
    question, answer, cot = backend.generate(
        seed, image_id=image.image_id, modality=image.modality
    )
    if not question or not answer or not cot.strip():
        raise MalformedResponseError(
            f"backend {backend.generator_id!r} returned empty fields "
            f"for image {image.image_id!r}"
        )
    sentences = split_sentences(cot)
    if len(sentences) > MAX_COT_SENTENCES:
        logger.warning(
            "truncating CoT for image %s from %d to %d sentences",
            image.image_id,
            len(sentences),
            MAX_COT_SENTENCES,
        )
        cot = " ".join(sentences[:MAX_COT_SENTENCES])
    return question, answer, cot


@dataclass
class ForgeFailure:
    image_id: str
    annotation_index: int
    error: str


@dataclass
class ForgeResult:
    records: list
    skipped_unassigned: int
    failures: list = field(default_factory=list)


def build_corpus(
    dataset,
    masks_by_image,
    backend: QaGenerator,
    *,
    tau_iou=0.0,
    unassigned_policy="skip",
    seed_templates=None,
    concurrency=1,
    skip_failed=False,
) -> ForgeResult:
    """Forge a VQA-CoT corpus from detections and organ masks.

    Iterates the dataset in order (then annotations in order), so reruns on
    identical inputs produce identical corpora. QA generation may fan out
    over `concurrency` threads; results keep task order either way.
    """
    if unassigned_policy not in ("skip", "organ_free"):
        raise ValidationError(f"unknown unassigned_policy {unassigned_policy!r}")
    templates = list(seed_templates or [DEFAULT_SEED_TEMPLATE])

    tasks = []
    skipped = 0
    ordinal = 0
    for image in dataset:
        masks = masks_by_image.get(image.image_id, ())
        for om in masks:
            if (om.height, om.width) != (image.height, image.width):
                raise ValidationError(
                    f"mask {om.organ_label!r} dims {(om.height, om.width)} do not "
                    f"match image {image.image_id!r} dims {(image.height, image.width)}"
                )
        organs = ([label for label, _ in assign_organ(image.annotations, masks, tau_iou)]
                  if masks else [None] * len(image.annotations))
        for j, (ann, organ) in enumerate(zip(image.annotations, organs)):
            if organ is not None:
                template = templates[ordinal % len(templates)]
            elif unassigned_policy == "organ_free":
                template = ORGAN_FREE_SEED_TEMPLATE
            else:
                skipped += 1
                ordinal += 1
                continue
            seed = template.format(lesion_class=ann.lesion_class, organ_label=organ)
            tasks.append((image, j, ann, seed))
            ordinal += 1

    def run_task(task):
        image, annotation_index, annotation, seed = task
        try:
            question, answer, cot = generate_qa(image, seed, backend)
        except BackendError as exc:
            if skip_failed:
                return ForgeFailure(image.image_id, annotation_index, str(exc))
            raise type(exc)(
                f"image {image.image_id!r} annotation {annotation_index}: {exc}"
            ) from exc
        return VqaCotRecord(
            image_id=image.image_id,
            box=annotation.box,
            question=question,
            answer=answer,
            cot=cot,
            domain=DomainKey(annotation.lesion_class, image.modality),
            seed=seed,
            generator_id=backend.generator_id,
        )

    if concurrency > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            outcomes = list(pool.map(run_task, tasks))
    else:
        outcomes = [run_task(t) for t in tasks]
    records = [o for o in outcomes if isinstance(o, VqaCotRecord)]
    failures = [o for o in outcomes if isinstance(o, ForgeFailure)]
    if skipped:
        logger.info("skipped %d unassigned annotations", skipped)
    return ForgeResult(records=records, skipped_unassigned=skipped, failures=failures)
