"""End-to-end toy training: corpus in, per-epoch curriculum trace out.

Each batch is planned by the scheduler (hard slots first, then per-item
stage coins), evaluated on the toy model in one batch call, and applied as
one plain gradient descent step on the batch-mean gradient. Medium items
get the box-derived soft mask as their attention target, built the first
time the item trains Medium and reused after that.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .forge import VqaCotRecord
from .geometry import box_span, build_soft_mask
from .scheduler import CurriculumScheduler, EpochReport, SchedulerHyperparams
from .toymodel import Stage, StageLossWeights, ToyModel

# Largest accepted image side in pixels; a full-field mammogram fits.
MAX_IMAGE_SIDE = 8192


@dataclass(frozen=True)
class HarnessParams:
    """Toy-run knobs. The stage weights tilt Easy totals toward grounding and
    keep the shared answer/rationale heads from drowning out the stage gap."""

    epochs: int = 40
    batch_size: int = 32
    batches_per_epoch: int = 16
    # small steps: the grounding surplus must outlive the mixing ramp
    lr: float = 0.005
    seed: int = 0
    image_dims: Tuple[int, int] = (64, 64)
    grid_dims: Tuple[int, int] = (8, 8)
    feature_dim: int = 16
    # wide blur and a generous floor keep fresh attention targets cheap
    sigma: float = 16.0
    mask_floor: float = 0.01
    weights: StageLossWeights = field(default_factory=lambda: StageLossWeights(
        w_ans=0.25, w_cot=0.25, w_ground=2.0, w_attn=1.0))

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        if self.batches_per_epoch < 1:
            raise ValidationError("batches_per_epoch must be at least 1")
        if self.lr <= 0.0:
            raise ValidationError("lr must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be at least 1")
        for name in ("image_dims", "grid_dims"):
            if min(getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be two positive ints")
        if max(self.image_dims) > MAX_IMAGE_SIDE:
            raise ValidationError(
                f"image_dims sides must be at most {MAX_IMAGE_SIDE} pixels")
        # the soft-mask rules of build_soft_mask, checked before any training
        (height, width), (gh, gw) = self.image_dims, self.grid_dims
        if gh > height or gw > width:
            raise ValidationError(
                f"grid_dims {list(self.grid_dims)} must not exceed "
                f"image_dims {list(self.image_dims)}")
        if not 0.0 < self.mask_floor < 1.0 / (gh * gw):
            raise ValidationError(f"mask_floor must lie in (0, 1/{gh * gw})")
        if not 0.0 <= self.sigma <= max(height, width):
            raise ValidationError(
                f"sigma must lie in [0, {max(height, width)}], the larger image dim")

    def to_json_dict(self) -> dict:
        """Field order, with tuples as arrays once serialized; traces pin it."""
        return asdict(self)


@dataclass
class TrainingTrace:
    header: dict
    reports: List[EpochReport]

    def __post_init__(self):
        for i, report in enumerate(self.reports):
            if report.epoch != i + 1:
                raise ValidationError(
                    f"trace epochs must run 1..N, found {report.epoch} at row {i}"
                )


def run_toy_training(records: Sequence[VqaCotRecord],
                     params: HarnessParams = HarnessParams(),
                     hp: SchedulerHyperparams = SchedulerHyperparams(),
                     model: Optional[ToyModel] = None) -> TrainingTrace:
    """Train the toy model under the curriculum; returns the full trace.

    The whole corpus serves as both the main pool and the answer-only hard
    pool (hard items are simply scored without their rationale). A non-finite
    loss aborts immediately with the offending epoch, batch, and item; a
    floating-point overflow, invalid operation or division by zero in a batch
    aborts with its epoch and batch.
    """
    if not records:
        raise ValidationError("corpus must be non-empty")
    records = list(records)
    if model is None:
        model = ToyModel(records, image_dims=params.image_dims,
                         grid_dims=params.grid_dims,
                         feature_dim=params.feature_dim, seed=params.seed)
    for r in records:  # the soft-mask rule, checked before any training
        r0, r1, _, _ = box_span(r.box, *params.image_dims)
        if r0 == r1:
            raise ValidationError("box is degenerate after denormalization")
    targets = {}  # item index -> soft mask, built on the item's first Medium use
    domain_keys = [r.domain.as_str() for r in records]
    scheduler = CurriculumScheduler(hp, domains=sorted(set(domain_keys)),
                                    seed=params.seed)
    reports: List[EpochReport] = []
    for epoch in range(1, params.epochs + 1):
        scheduler.start_epoch()
        for batch_no in range(params.batches_per_epoch):
            plan = scheduler.plan_batch(params.batch_size,
                                        hard_pool_size=len(records),
                                        main_pool_domains=domain_keys)
            batch = [(int(i), Stage.HARD, None) for i in plan.hard_indices]
            for idx, stage_name in zip(plan.main_indices, plan.main_stages):
                idx = int(idx)
                if stage_name == "medium":
                    if idx not in targets:
                        targets[idx] = build_soft_mask(
                            records[idx].box, params.image_dims,
                            params.grid_dims, sigma=params.sigma,
                            floor=params.mask_floor).grid
                    batch.append((idx, Stage.MEDIUM, targets[idx]))
                else:
                    batch.append((idx, Stage.EASY, None))
            indices, stages, batch_targets = zip(*batch)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    breakdowns, grads = model.batch_loss_and_grads(
                        indices, stages, batch_targets, weights=params.weights
                    )
                    for idx, breakdown in zip(indices, breakdowns):
                        if not np.isfinite(breakdown.total):
                            raise ValidationError(
                                f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                                f"item {records[idx].image_id!r} "
                                f"({breakdown.stage.value})"
                            )
                        scheduler.observe(domain_keys[idx], breakdown.stage.value,
                                          breakdown.total, cot_loss=breakdown.cot)
                    model.step(grads, params.lr)
            except FloatingPointError as exc:
                raise ValidationError(
                    f"non-finite value at epoch {epoch}, batch {batch_no}: {exc}"
                ) from None
        reports.append(scheduler.end_of_epoch())

    header = {
        "kind": "header",
        "mode": "toy-training",
        "seed": params.seed,
        "epochs": params.epochs,
        "corpus_size": len(records),
        "domains": sorted(set(domain_keys)),
        "harness": params.to_json_dict(),
        "hyperparams": hp.to_json_dict(),
    }
    return TrainingTrace(header=header, reports=reports)
