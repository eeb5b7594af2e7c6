"""Detection-to-VQA corpus forging.

Pipeline per annotation: pick the organ whose mask best overlaps the lesion
box (pixel-count IoU, argmax, ties to the lowest mask index), render the
seed sentence, and hand the seed to a QA backend that returns a question,
an answer, and a short chain-of-thought rationale. Annotations whose best
IoU falls at or below the threshold stay unassigned and are skipped by
default (or routed to an organ-free template, per config).
"""

import itertools
import re
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Protocol

from .errors import BackendError, MalformedResponseError, ValidationError
from .geometry import BBox, box_intersections, box_span, check_runs, runs_array
from .geometry import mask_iou  # noqa: F401  uncalled; the benchmark tracer wraps it here

MODALITIES = ("CT", "XRay", "MRI", "Mammo")

DEFAULT_SEED_TEMPLATE = "There is a {lesion_class} in the {organ_label}."
ORGAN_FREE_SEED_TEMPLATE = "There is a {lesion_class}."

MAX_COT_SENTENCES = 4

# Largest accepted image side in pixels; a full-field mammogram fits.
MAX_IMAGE_SIDE = 8192
# Most QA requests in flight at once; the pool runs one thread per request.
MAX_CONCURRENCY = 64


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

    The runs alternate zeros and ones, zeros first, and must sum to
    height * width (`geometry.check_runs`); `area`, the set-pixel count, is
    the sum of the odd runs. An int array given as the runs is kept, not
    copied, and made read-only. A dense mask is encoded with
    `geometry.encode_runs`. One mask is checked as a list of one by
    `organ_masks`, after its dims and the shape and dtype of its runs.
    """

    __slots__ = ("organ_label", "runs", "height", "width", "area")

    def __new__(cls, organ_label: str, runs, height: int, width: int):
        if height < 1 or width < 1:
            raise ValidationError(f"mask dims {(height, width)} must be positive")
        [mask] = organ_masks([(organ_label, runs_array(runs), height, width)])
        return mask


def organ_masks(lines):
    """Check (organ_label, runs, height, width) mask lines and yield each
    line's OrganMask, in order.

    Each line's runs are a `geometry.runs_array` array and its dims are
    positive; one `check_runs` call checks every line's runs. Each line is
    then checked as OrganMask checks it: its runs, its label, then its
    area. The first faulty line raises ValidationError in its turn, once
    the masks before it are yielded.
    """
    areas, faults = check_runs([runs for _, runs, _, _ in lines],
                               [height * width for _, _, height, width in lines])
    for k, (organ_label, runs, height, width) in enumerate(lines):
        if k in faults:
            raise ValidationError(faults[k])
        if not organ_label:
            raise ValidationError("organ_label must be non-empty")
        if not areas[k]:
            raise ValidationError(f"organ mask {organ_label!r} is empty")
        mask = object.__new__(OrganMask)
        runs.flags.writeable = False
        mask.organ_label, mask.runs, mask.height, mask.width = lines[k]
        mask.area = areas[k]
        yield mask


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

    def generate(self, seed: str, image_id: str, modality: str,
                 lesion_class: str, organ_label: Optional[str]) -> tuple:
        """Return (question, answer, cot) for a seed sentence rendered from
        the lesion class and organ label (None for an organ-free seed)."""


def assign_organ(images, tau_iou=0.0) -> list:
    """Pick, for each annotation of each image's (annotations, masks), the
    organ mask of its image with the highest IoU against its box.

    Returns, per image, one (organ_label, iou) pair per annotation, in
    order. The IoU is pixel-count IoU, counted from the masks' runs in exact
    integers, for every image in one `box_intersections` call. Ties break to
    the lowest mask index; a best IoU <= tau_iou leaves the annotation
    unassigned, with label None and the score still given.
    """
    scored, spans_of = [], []
    for annotations, masks in images:
        if not masks:
            raise ValidationError("assign_organ requires at least one mask")
        height, width = masks[0].height, masks[0].width
        for om in masks:
            if (om.height, om.width) != (height, width):
                raise ValidationError("all masks for an image must share dims")
        spans = [box_span(ann.box, height, width) for ann in annotations]
        spans_of.append(spans)
        scored.append(([s for s in spans if s[0] < s[1]], [om.runs for om in masks],
                       height, width))
    covered = iter(box_intersections(scored).tolist())
    outcomes = []
    for spans, (_, masks) in zip(spans_of, images):
        image_outcomes = []
        for r0, r1, c0, c1 in spans:
            box_pixels = (r1 - r0) * (c1 - c0)
            # zip stops at the last mask, so it takes one count per mask
            inters = covered if box_pixels else itertools.repeat(0)
            best_idx = 0
            best = -1.0
            for k, (om, inter) in enumerate(zip(masks, inters)):
                iou = inter / (box_pixels + om.area - inter)  # the area is >= 1
                if iou > best:
                    best = iou
                    best_idx = k
            image_outcomes.append(
                (masks[best_idx].organ_label if best > tau_iou else None, best))
        outcomes.append(image_outcomes)
    return outcomes


def parse_seed_template(template: str) -> list:
    """Check a seed template and return its placeholder names in order.

    A seed names its lesion once and its organ at most once, so a template
    holds a bare `{lesion_class}` once, a bare `{organ_label}` at most once,
    and no other placeholder (no format spec, no conversion); `{{` and `}}`
    are literal braces, as in `str.format`. Raises ValidationError otherwise.
    """
    try:
        fields = [(name, spec or conversion) for _, name, spec, conversion
                  in string.Formatter().parse(template) if name is not None]
    except ValueError:  # unbalanced braces
        fields = []
    names = [name for name, extra in fields
             if name in ("lesion_class", "organ_label") and not extra]
    if (len(names) < len(fields) or names.count("lesion_class") != 1
            or names.count("organ_label") > 1):
        raise ValidationError(
            f"forge seed template {template!r} must contain {{lesion_class}} "
            "once, {organ_label} at most once, and no other placeholder"
        )
    return names


class TemplateQaGenerator:
    """Deterministic QA backend that fills fixed question/answer/CoT templates.

    It answers from the lesion class and organ label a seed was rendered
    from, and keeps its seed templates only to check that one of them, tried
    in the given order with the organ-free template last, renders the seed
    from those fields. The organ counts only if that template names it.
    """

    generator_id = "template-v1"

    def __init__(self, seed_templates=None):
        templates = [*(seed_templates or [DEFAULT_SEED_TEMPLATE]), ORGAN_FREE_SEED_TEMPLATE]
        self._templates = [(t, "organ_label" in parse_seed_template(t)) for t in templates]

    def generate(self, seed: str, image_id: str, modality: str,
                 lesion_class: str, organ_label: Optional[str]) -> tuple:
        for template, names_organ in self._templates:
            if template.format(lesion_class=lesion_class, organ_label=organ_label) == seed:
                break
        else:
            raise BackendError(f"seed does not match any configured template: {seed!r}")
        organ = organ_label if names_organ else None
        if organ:
            question = f"Which organ contains the {lesion_class}?"
            answer = organ
            cot = (
                f"The image shows a {lesion_class}. Its location overlaps the {organ}. "
                f"Therefore the {lesion_class} is in the {organ}."
            )
        else:
            question = "What abnormality is shown?"
            answer = lesion_class
            cot = (
                f"The image shows a {lesion_class}. No single organ is identified. "
                f"Therefore the finding is a {lesion_class}."
            )
        return question, answer, cot


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list:
    """Sentence boundaries as used for rationale length accounting."""
    stripped = text.strip()
    if not stripped:
        return []
    return _SENTENCE_SPLIT.split(stripped)


def generate_qa(image: ImageRecord, seed: str, backend: QaGenerator,
                lesion_class: str, organ_label: Optional[str]) -> tuple:
    """Run one seed through a QA backend and normalize the result.

    Enforces non-empty question/answer/cot and caps the chain of thought at
    four sentences, truncating at a sentence boundary. Returns
    ``(question, answer, cot, truncated)``.
    """
    if not seed:
        raise ValidationError("seed must be non-empty")
    question, answer, cot = backend.generate(
        seed, image.image_id, image.modality, lesion_class, organ_label)
    if not question or not answer or not cot.strip():
        raise MalformedResponseError(
            f"backend {backend.generator_id!r} returned empty fields "
            f"for image {image.image_id!r}"
        )
    sentences = split_sentences(cot)
    truncated = len(sentences) > MAX_COT_SENTENCES
    if truncated:
        cot = " ".join(sentences[:MAX_COT_SENTENCES])
    return question, answer, cot, truncated


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
    truncated_cot: int = 0  # records whose rationale was cut to MAX_COT_SENTENCES


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
    if not 1 <= concurrency <= MAX_CONCURRENCY:
        raise ValidationError(f"concurrency must be at least 1 and at most {MAX_CONCURRENCY}")
    templates = list(seed_templates or [DEFAULT_SEED_TEMPLATE])
    for template in templates:
        parse_seed_template(template)

    labels, scored, members = [], [], []
    for image in dataset:
        masks = masks_by_image.get(image.image_id, ())
        for om in masks:
            if (om.height, om.width) != (image.height, image.width):
                raise ValidationError(
                    f"mask {om.organ_label!r} dims {(om.height, om.width)} do not "
                    f"match image {image.image_id!r} dims {(image.height, image.width)}"
                )
        labels.append([None] * len(image.annotations))
        if masks and image.annotations:
            scored.append((image.annotations, masks))
            members.append(len(labels) - 1)
    for i, outcomes in zip(members, assign_organ(scored, tau_iou)):
        labels[i] = [label for label, _ in outcomes]

    tasks = []
    skipped = 0
    ordinal = 0
    for image, organs in zip(dataset, labels):
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
            tasks.append((image, j, ann, organ, seed))
            ordinal += 1

    def run_task(task):
        image, annotation_index, annotation, organ, seed = task
        try:
            question, answer, cot, truncated = generate_qa(
                image, seed, backend, annotation.lesion_class, organ)
        except BackendError as exc:
            if skip_failed:
                return ForgeFailure(image.image_id, annotation_index, str(exc)), False
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
        ), truncated

    if concurrency > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            outcomes = list(pool.map(run_task, tasks))
    else:
        outcomes = [run_task(t) for t in tasks]
    records = [o for o, _ in outcomes if isinstance(o, VqaCotRecord)]
    failures = [o for o, _ in outcomes if isinstance(o, ForgeFailure)]
    return ForgeResult(records=records, skipped_unassigned=skipped, failures=failures,
                       truncated_cot=sum(truncated for _, truncated in outcomes))
