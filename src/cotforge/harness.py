"""End-to-end toy training: corpus in, per-epoch curriculum trace out.

Each batch is planned by the scheduler (hard slots first, then per-item
stage coins), evaluated on the toy model in one batch call, observed by the
scheduler in one call, and applied as one plain gradient descent step on
the batch-mean gradient. The step
updates the model's parameter arrays in place and touches only the batch's
Medium attention rows, so a batch costs O(batch), not O(corpus). Medium
items get the box-derived soft mask as their attention target, built the
first time the item trains Medium and reused after that; a batch builds
all of its new masks in one stacked call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .forge import MAX_IMAGE_SIDE, VqaCotRecord
from .geometry import MAX_SOFT_MASK_PIXELS, box_span, build_soft_mask
from .scheduler import CurriculumScheduler, EpochReport, SchedulerHyperparams, Stage, Trace
from .toymodel import StageLossWeights, ToyModel

# Largest accepted feature dimension; the feature grid is allocated up front.
MAX_FEATURE_DIM = 4096
# Largest accepted attention grid, 64 x 64 (the default image's largest): the
# model allocates corpus_size x cells logits and cells x feature_dim features.
MAX_GRID_CELLS = 4096


@dataclass(frozen=True)
class HarnessParams:
    """Toy-run knobs; the stage weights are ``StageLossWeights``' defaults."""

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
    weights: StageLossWeights = field(default_factory=StageLossWeights)

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
        if not 1 <= self.feature_dim <= MAX_FEATURE_DIM:
            raise ValidationError(f"feature_dim must lie in [1, {MAX_FEATURE_DIM}]")
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
        if gh * gw > MAX_GRID_CELLS:
            raise ValidationError(
                f"grid_dims {list(self.grid_dims)} must have at most {MAX_GRID_CELLS} cells")
        if not 0.0 < self.mask_floor < 1.0 / (gh * gw):
            raise ValidationError(f"mask_floor must lie in (0, 1/{gh * gw})")
        if not 0.0 <= self.sigma <= max(height, width):
            raise ValidationError(
                f"sigma must lie in [0, {max(height, width)}], the larger image dim")
        # one soft mask's build peaks at a few float64 copies of its image
        if height * width > MAX_SOFT_MASK_PIXELS:
            raise ValidationError(f"image_dims {list(self.image_dims)} must hold at most "
                                  f"{MAX_SOFT_MASK_PIXELS} pixels")


def run_toy_training(records: Sequence[VqaCotRecord],
                     params: HarnessParams = HarnessParams(),
                     hp: SchedulerHyperparams = SchedulerHyperparams(),
                     model: Optional[ToyModel] = None) -> Trace:
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
        model = ToyModel(records, grid_dims=params.grid_dims,
                         feature_dim=params.feature_dim, seed=params.seed)
    for pos, r in enumerate(records, start=1):  # the soft-mask rule, up front
        r0, r1, _, _ = box_span(r.box, *params.image_dims)
        if r0 == r1:
            raise ValidationError(f"record {pos} (image {r.image_id!r}): "
                                  "box is degenerate after denormalization")
    # item index -> soft mask, built in one stacked call per batch for the
    # batch's records on their first Medium use
    targets = {}
    domain_keys = [r.domain.as_str() for r in records]
    scheduler = CurriculumScheduler(hp, domains=sorted(set(domain_keys)),
                                    seed=params.seed)
    hard, medium = Stage.HARD, Stage.MEDIUM
    reports: List[EpochReport] = []
    for epoch in range(1, params.epochs + 1):
        scheduler.start_epoch(domain_keys)
        for batch_no in range(params.batches_per_epoch):
            plan = scheduler.plan_batch(params.batch_size,
                                        hard_pool_size=len(records))
            main = plan.main_indices.tolist()
            fresh = list(dict.fromkeys(
                idx for idx, stage in zip(main, plan.main_stages)
                if stage is medium and idx not in targets))
            if fresh:
                targets.update(zip(fresh, build_soft_mask(
                    [records[idx].box for idx in fresh], params.image_dims,
                    params.grid_dims, sigma=params.sigma,
                    floor=params.mask_floor)))
            batch = [(i, hard, None) for i in plan.hard_indices.tolist()]
            batch += [(idx, stage, targets[idx] if stage is medium else None)
                      for idx, stage in zip(main, plan.main_stages)]
            indices, stages, batch_targets = zip(*batch)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    losses, grads = model.batch_loss_and_grads(
                        indices, stages, batch_targets, weights=params.weights
                    )
                    finite = np.isfinite(losses.total)
                    if not finite.all():
                        k = int(finite.argmin())  # the first non-finite item
                        raise ValidationError(
                            f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                            f"item {records[indices[k]].image_id!r} ({stages[k].value})")
                    # the hard items come first and carry no rationale loss
                    n_hard = plan.hard_indices.size
                    scheduler.observe([domain_keys[idx] for idx in indices], stages,
                                      losses.total.tolist(),
                                      [None] * n_hard + losses.cot[n_hard:].tolist())
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
        "harness": asdict(params),  # field order, tuples as arrays; traces pin it
        "hyperparams": asdict(hp),
    }
    return Trace(header, reports)
