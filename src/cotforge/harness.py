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
from typing import List, Optional, Sequence

import numpy as np

from .errors import NonNegative, NonNegativeInt, Positive, PositiveInt, Record, ValidationError
from .forge import VqaCotRecord
from .geometry import GridDims, ImageDims, box_span, build_soft_mask
from .scheduler import CurriculumScheduler, EpochReport, SchedulerHyperparams, Stage, Trace
from .toymodel import FeatureDim, StageLossWeights, ToyModel


@dataclass(frozen=True)
class HarnessParams(Record):
    """Toy-run knobs; the stage weights are ``StageLossWeights``' defaults."""

    epochs: PositiveInt = 40
    batch_size: PositiveInt = 32
    batches_per_epoch: PositiveInt = 16
    # small steps: the grounding surplus must outlive the mixing ramp
    lr: Positive = 0.005
    seed: NonNegativeInt = 0
    image_dims: ImageDims = (64, 64)
    grid_dims: GridDims = (8, 8)
    feature_dim: FeatureDim = 16
    # wide blur and a generous floor keep fresh attention targets cheap
    sigma: NonNegative = 16.0
    mask_floor: Positive = 0.01
    weights: StageLossWeights = field(default_factory=StageLossWeights)

    def __post_init__(self):
        super().__post_init__()
        # the soft-mask rules of build_soft_mask, checked before any training
        (height, width), (gh, gw) = self.image_dims, self.grid_dims
        if gh > height or gw > width:
            raise ValidationError(
                f"grid_dims {list(self.grid_dims)} must not exceed "
                f"image_dims {list(self.image_dims)}")
        if not self.mask_floor < 1.0 / (gh * gw):
            raise ValidationError(f"mask_floor must lie in (0, 1/{gh * gw})")
        if not self.sigma <= max(height, width):
            raise ValidationError(
                f"sigma must lie in [0, {max(height, width)}], the larger image dim")


def run_toy_training(records: Sequence[VqaCotRecord],
                     params: Optional[HarnessParams] = None,
                     hp: Optional[SchedulerHyperparams] = None) -> Trace:
    """Train the toy model under the curriculum; returns the full trace.

    The whole corpus serves as both the main pool and the answer-only hard
    pool (hard items are simply scored without their rationale). A non-finite
    loss aborts immediately with the offending epoch, batch, and item; a
    floating-point overflow, invalid operation or division by zero in a batch
    aborts with its epoch and batch. ``params`` and ``hp`` default to
    ``HarnessParams()`` and ``SchedulerHyperparams()``.
    """
    params = HarnessParams() if params is None else params
    hp = SchedulerHyperparams() if hp is None else hp
    if not records:
        raise ValidationError("corpus must be non-empty")
    records = list(records)
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
