"""Reference implementations used as test oracles, and tests-only helpers.

Everything here is written as straight-line code on purpose: slow, obvious,
and independent of the vectorized production paths. The loss oracle is the
toy model's forward pass and stage recipe, one item at a time, with its own
copy of the recipe; the finite-difference check treats a loss as a black box.
The gradient oracle gives one item's gradient in closed form, from the
quantities the forward pass reads, and the trainer oracle runs a whole toy
run on those oracles, one item at a time, under the real scheduler.
The epoch oracle adds a scheduler's observed losses one item at a time.
The helpers build organ masks from dense arrays, decode them back, read
or set the toy model's parameters as one flat vector, widen a batch
gradient's attention rows to a full-size array, plan a batch from
explicit per-item probabilities, read a trace file back, and compare two
traces field by field. The reference record check is the plain loop over a
record's field checkers that the built one must agree with, and the
reference record reader the plain walk over an object's shape, keys and
fields that the built reader must agree with, and the reference JSON reader
the plain ``json.loads`` call that the raw-decode path must agree with.
"""

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.ndimage import gaussian_filter

from cotforge.errors import _JSON_NAMES, FieldError, ValidationError, _checker, _wrong_type
from cotforge.forge import OrganMask
from cotforge.geometry import BBox, encode_runs
from cotforge.jsonl import rle_decode
from cotforge.scheduler import (
    BatchPlan,
    CurriculumScheduler,
    DomainEpochStats,
    EpochContext,
    EpochReport,
    _checked_p_medium,
    _draw_batch,
)
from cotforge.toymodel import PARAM_KEYS, Stage, StageLossWeights, ToyModel


def read_trace(path):
    """A trace file's header object and the rows after it (blank lines
    skipped)."""
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: empty trace file")
    header, epochs = rows[0], rows[1:]
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValidationError(f"{path}: first record must be the header")
    return header, epochs


# the golden tests' tolerance: across math kernels the toy and simulate
# traces moved by at most 1.3e-13 relative, and in nothing but floats
TRACE_REL = 1e-12


def compare_traces(a, b, rel):
    """Where two parsed traces differ, as one "path: a != b" line each; empty
    when they agree. Keys, counts, decisions, booleans, strings and nulls
    must match exactly, and so must each value's JSON type. Two finite
    floats agree when they differ by at most ``rel`` times the larger
    magnitude; an infinity or a NaN matches only itself."""
    diffs = []

    def walk(x, y, path):
        if type(x) is not type(y):
            diffs.append(f"{path}: {x!r} != {y!r}")
        elif type(x) is dict:
            if x.keys() != y.keys():
                diffs.append(f"{path}: keys {sorted(x.keys() ^ y.keys())} in one only")
            for key in x:
                if key in y:
                    walk(x[key], y[key], f"{path}[{key!r}]")
        elif type(x) in (list, tuple):
            if len(x) != len(y):
                diffs.append(f"{path}: {len(x)} items != {len(y)}")
            for k, (item_x, item_y) in enumerate(zip(x, y)):
                walk(item_x, item_y, f"{path}[{k}]")
        elif type(x) is float and math.isfinite(x) and math.isfinite(y):
            if abs(x - y) > rel * max(abs(x), abs(y)):
                diffs.append(f"{path}: {x!r} != {y!r}")
        elif x != y and not (x != x and y != y):  # a NaN matches a NaN
            diffs.append(f"{path}: {x!r} != {y!r}")

    walk(a, b, "")
    return diffs


def check_fields(record):
    """The reference record check: each field, in order, through its own
    checker, the field's name put on the path of a fault; a converted value
    is stored."""
    hints = typing.get_type_hints(type(record), include_extras=True)
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        try:
            good = _checker(hints[field.name])(value)
        except FieldError as exc:
            exc.path.append(f".{field.name}")
            raise
        if good is not value:
            object.__setattr__(record, field.name, good)


def object_reader(cls):
    """The reference reader of record ``cls``: its shape, then its keys, then
    its nested records in field order (read by their own built readers),
    then its missing fields, then its constructor."""
    hints = typing.get_type_hints(cls, include_extras=True)
    names = [f.name for f in dataclasses.fields(cls)]
    allowed = set(names)
    builders = [(name, build) for name in names
                if (build := _checker(hints[name], True)) is not None]
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING]
    shape = list if getattr(cls, "JSON_ARRAY", False) else dict

    def read(value):
        if type(value) is not shape:
            raise _wrong_type(_JSON_NAMES[shape], value)
        if shape is list:
            if len(value) != len(names):
                raise FieldError(f" must be an array of {len(names)} items, got {len(value)}")
            kwargs = dict(zip(names, value))  # an array holds every field, in order
        elif not value.keys() <= allowed:
            raise FieldError(f": unknown keys {sorted(set(value) - allowed)}; "
                             f"allowed: {sorted(allowed)}")
        else:
            kwargs = dict(value)
        for name, build in builders:
            if name in kwargs:
                try:
                    kwargs[name] = build(kwargs[name])
                except FieldError as exc:
                    exc.path.append(f".{name}")
                    raise
        for name in required:
            if name not in kwargs:
                raise FieldError(" is missing", [f".{name}"])
        try:
            return cls(**kwargs)
        except FieldError:
            raise  # its path starts at this record
        except ValidationError as exc:
            raise FieldError(f": {exc}") from None

    return read


def oracle_parse_json(text, where, error: type):
    """The reference JSON reader: one ``json.loads`` call, then the
    lone-surrogate check; ``errors.parse_json`` must give the same value or
    raise the same message."""
    try:
        if type(text) is bytes:
            text = text.decode("utf-8")  # json.loads would let surrogates pass
        value = json.loads(text)
        if "\\" in text and "\\u" in text:  # only a \u escape spells a lone surrogate
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise error(f"{where()}: bad JSON: a string holds a lone UTF-16 surrogate") from None
    except (ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8
        raise error(f"{where()}: bad JSON: {exc}") from None
    return value


def organ_mask(label, dense) -> OrganMask:
    """An organ mask of a dense 2-D array, encoded once."""
    dense = np.asarray(dense)
    return OrganMask(label, encode_runs(dense), *dense.shape)


def decode(om: OrganMask) -> np.ndarray:
    """A fresh dense bool array of an organ mask's runs."""
    return rle_decode(om.runs, om.height, om.width)


def param_vector(model) -> np.ndarray:
    """The toy model's parameters as one flat vector, in PARAM_KEYS order."""
    return np.concatenate([getattr(model, k).ravel() for k in PARAM_KEYS])


def set_param_vector(model, vec: np.ndarray):
    """Set the toy model's parameters from a copy of a flat vector."""
    vec = np.asarray(vec, dtype=float)
    total = sum(getattr(model, k).size for k in PARAM_KEYS)
    if vec.shape != (total,):
        raise ValidationError(f"expected parameter vector of length {total}")
    offset = 0
    for key in PARAM_KEYS:
        param = getattr(model, key)
        chunk = vec[offset:offset + param.size]
        setattr(model, key, chunk.reshape(param.shape).copy())
        offset += param.size


def oracle_box_pixels(box, height, width):
    """Set of (row, col) pixels whose centers lie in the denormalized box."""
    x1 = box.x1 * width
    x2 = box.x2 * width
    y1 = box.y1 * height
    y2 = box.y2 * height
    pixels = set()
    for r in range(height):
        cy = r + 0.5
        if not (y1 <= cy <= y2):
            continue
        for c in range(width):
            cx = c + 0.5
            if x1 <= cx <= x2:
                pixels.add((r, c))
    return pixels


def oracle_iou(box, mask):
    """Pixel-count IoU between a normalized box and a binary mask."""
    height = len(mask)
    width = len(mask[0])
    box_px = oracle_box_pixels(box, height, width)
    inter = 0
    union = 0
    for r in range(height):
        for c in range(width):
            in_box = (r, c) in box_px
            in_mask = bool(mask[r][c])
            if in_box and in_mask:
                inter += 1
            if in_box or in_mask:
                union += 1
    if union == 0:
        return 0.0
    return inter / union


def oracle_assign(box, masks, tau_iou=0.0):
    """Argmax-IoU organ choice; ties -> lowest index; max <= tau -> None.

    Returns (index_or_None, best_iou).
    """
    best_idx = None
    best = -1.0
    for k, mask in enumerate(masks):
        iou = oracle_iou(box, mask)
        if iou > best:
            best = iou
            best_idx = k
    if best <= tau_iou:
        return None, best
    return best_idx, best


def oracle_average_pool(grid, out_h, out_w):
    """Integer-partition average pooling, loop form."""
    in_h = len(grid)
    in_w = len(grid[0])
    out = [[0.0] * out_w for _ in range(out_h)]
    for i in range(out_h):
        r0 = (i * in_h) // out_h
        r1 = ((i + 1) * in_h) // out_h
        for j in range(out_w):
            c0 = (j * in_w) // out_w
            c1 = ((j + 1) * in_w) // out_w
            total = 0.0
            for r in range(r0, r1):
                for c in range(c0, c1):
                    total += grid[r][c]
            out[i][j] = total / ((r1 - r0) * (c1 - c0))
    return out


def _center_membership(lo, hi, n):
    centers = np.arange(n, dtype=float) + 0.5
    return (centers >= lo) & (centers <= hi)


def oracle_box_span(box: BBox, height: int, width: int):
    """Half-open pixel rectangle (r0, r1, c0, c1) whose centers lie in the box,
    read off the compared pixel centers; (0, 0, 0, 0) when it covers none."""
    if height < 1 or width < 1:
        raise ValidationError("raster dims must be positive")
    cols = np.flatnonzero(_center_membership(box.x1 * width, box.x2 * width, width))
    rows = np.flatnonzero(_center_membership(box.y1 * height, box.y2 * height, height))
    if cols.size == 0 or rows.size == 0:
        return 0, 0, 0, 0
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def rasterize_box(box: BBox, height: int, width: int) -> np.ndarray:
    """Binary (height, width) raster of the pixels whose centers lie in the box."""
    r0, r1, c0, c1 = oracle_box_span(box, height, width)
    raster = np.zeros((height, width), dtype=bool)
    raster[r0:r1, c0:c1] = True
    return raster


def oracle_roi_cells(box: BBox, grid_dims) -> np.ndarray:
    """The toy model's ROI: the (gh, gw) cells whose centers lie in the box,
    the grid read as a raster. A box that covers no cell center gets the one
    cell holding its center, (y1 * gh + y2 * gh) / 2 down the rows and the
    same across the columns: the last cell whose top (left) edge is not
    past it."""
    gh, gw = grid_dims
    cells = rasterize_box(box, gh, gw)
    if not cells.any():
        cy = (box.y1 * gh + box.y2 * gh) / 2
        cx = (box.x1 * gw + box.x2 * gw) / 2
        cells[np.flatnonzero(np.arange(gh) <= cy)[-1],
              np.flatnonzero(np.arange(gw) <= cx)[-1]] = True
    return cells


@dataclass
class SoftMask:
    """Floored, normalized attention target over a gh x gw grid."""

    grid: np.ndarray
    floor: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 2:
            raise ValidationError("soft mask grid must be 2-D")
        if abs(float(self.grid.sum()) - 1.0) > 1e-9:
            raise ValidationError("soft mask must sum to 1")
        n = self.grid.size
        if float(self.grid.min()) < self.floor / (1.0 + n * self.floor) - 1e-12:
            raise ValidationError("soft mask cell below the floor bound")


def _oracle_soft_mask_pool(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = grid.shape
    out = np.empty((out_h, out_w), dtype=float)
    for i in range(out_h):
        r0, r1 = (i * in_h) // out_h, ((i + 1) * in_h) // out_h
        for j in range(out_w):
            c0, c1 = (j * in_w) // out_w, ((j + 1) * in_w) // out_w
            out[i, j] = grid[r0:r1, c0:c1].mean()
    return out


def oracle_build_soft_mask(box: BBox, image_dims, grid_dims, sigma=0.0,
                           floor=1e-6) -> SoftMask:
    """The soft-mask build as it was before the row-profile blur and the
    block-mean pool: the full box raster, the 2-D blur, the per-cell loop
    pool. Production must equal it bit for bit."""
    height, width = image_dims
    gh, gw = grid_dims
    if gh < 1 or gw < 1 or gh > height or gw > width:
        raise ValidationError(f"grid dims {grid_dims} must be in [1, image dims]")
    if sigma < 0:
        raise ValidationError("sigma must be >= 0")
    if not 0.0 < floor < 1.0 / (gh * gw):
        raise ValidationError(f"floor must lie in (0, 1/{gh * gw})")
    raster = rasterize_box(box, height, width).astype(float)
    if raster.sum() == 0.0:
        raise ValidationError("box is degenerate after denormalization")
    if sigma > 0.0:
        raster = gaussian_filter(raster, sigma=sigma, mode="reflect", truncate=3.0)
    pooled = _oracle_soft_mask_pool(raster, gh, gw)
    pooled /= pooled.sum()
    pooled += floor
    pooled /= pooled.sum()
    return SoftMask(grid=pooled, floor=floor)


def oracle_kl(p, q):
    """Sum p*log(p/q) with the 0*log(0) := 0 convention."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += pi * math.log(pi / qi)
    return total


# ---------------------------------------------------------------------------
# the loss oracle


def oracle_kl_divergence(attn, target) -> float:
    """KL(attn || target) with 0*log(0) treated as 0.

    The target must be strictly positive everywhere (soft masks are floored,
    so a zero target cell indicates a bug upstream).
    """
    p = np.asarray(attn, dtype=float)
    q = np.asarray(target, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: attn {p.shape} vs target {q.shape}")
    if float(q.min()) <= 0.0:
        raise ValidationError("target distribution contains zero cells")
    support = p > 0.0
    value = float(np.sum(p[support] * np.log(p[support] / q[support])))
    if -1e-12 < value < 0.0:
        # roundoff guard for near-identical distributions
        return 0.0
    return value


@dataclass
class ModelOutputs:
    """Everything a stage loss can consume for one item.

    ``answer_logprobs``/``cot_logprobs`` are realized per-token log
    probabilities. ``attention`` is a normalized grid. ``box`` rides along
    so callers can derive attention targets without a side channel.
    """

    answer_logprobs: np.ndarray
    cot_logprobs: Optional[np.ndarray] = None
    attention: Optional[np.ndarray] = None
    feature_vec: Optional[np.ndarray] = None
    anchor_vec: Optional[np.ndarray] = None
    box: Optional[BBox] = None


def oracle_nll_loss(logprobs: np.ndarray) -> float:
    """Mean negative log likelihood over realized tokens."""
    lp = np.asarray(logprobs, dtype=float)
    if lp.size == 0:
        raise ValidationError("nll_loss needs at least one token")
    if lp.max() > 0.0:
        raise ValidationError("log probabilities cannot be positive")
    return float(-lp.mean())


def oracle_grounding_loss(feature_vec: np.ndarray, anchor_vec: np.ndarray) -> float:
    """Cosine distance between the pooled lesion feature and its anchor."""
    f = np.asarray(feature_vec, dtype=float)
    a = np.asarray(anchor_vec, dtype=float)
    if f.shape != a.shape:
        raise ValidationError(f"shape mismatch {f.shape} vs {a.shape}")
    nf = np.linalg.norm(f)
    na = np.linalg.norm(a)
    if nf == 0.0 or na == 0.0:
        raise ValidationError("grounding is undefined for a zero-norm vector")
    return float(1.0 - f.dot(a) / (nf * na))


@dataclass
class StageLossBreakdown:
    """One item's loss components and stage total; None where the stage
    does not use a component."""

    stage: Stage
    total: float
    answer: float
    cot: Optional[float] = None
    grounding: Optional[float] = None
    attention: Optional[float] = None


def _as_stage(stage: Union[Stage, str]) -> Stage:
    try:
        return Stage(stage)
    except ValueError:
        raise ValidationError(f"unknown stage {stage!r}") from None


def oracle_stage_loss(stage: Union[Stage, str], outputs: ModelOutputs,
                      target_attention: Optional[np.ndarray] = None,
                      weights: StageLossWeights = StageLossWeights()
                      ) -> StageLossBreakdown:
    """Combine loss components according to the stage recipe."""
    stage = _as_stage(stage)
    l_ans = oracle_nll_loss(outputs.answer_logprobs)
    if stage == Stage.HARD:
        return StageLossBreakdown(stage=stage, total=l_ans, answer=l_ans)

    if outputs.cot_logprobs is None:
        raise ValidationError(f"{stage.value} stage needs rationale log probs")
    l_cot = oracle_nll_loss(outputs.cot_logprobs)

    if stage == Stage.EASY:
        if outputs.feature_vec is None or outputs.anchor_vec is None:
            raise ValidationError("easy stage needs grounding vectors")
        l_ground = oracle_grounding_loss(outputs.feature_vec, outputs.anchor_vec)
        total = (weights.w_ans * l_ans + weights.w_cot * l_cot
                 + weights.w_ground * l_ground)
        return StageLossBreakdown(stage=stage, total=total, answer=l_ans,
                                  cot=l_cot, grounding=l_ground)

    if outputs.attention is None:
        raise ValidationError("medium stage needs an attention grid")
    if target_attention is None:
        raise ValidationError("medium stage needs a target attention mask")
    l_attn = oracle_kl_divergence(outputs.attention, target_attention)
    total = (weights.w_ans * l_ans + weights.w_cot * l_cot
             + weights.w_attn * l_attn)
    return StageLossBreakdown(stage=stage, total=total, answer=l_ans,
                              cot=l_cot, attention=l_attn)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


def oracle_forward(model, idx: int, stage: Union[Stage, str]) -> ModelOutputs:
    """The toy model's outputs for one item, read from its parameters."""
    stage = Stage(stage)
    if not 0 <= idx < len(model.items):
        raise ValidationError(f"item index {idx} out of range")
    item = model.items[idx]
    lp_ans = _log_softmax(model.ans_logits)
    answer_logprobs = np.array([lp_ans[model.answer_ids[idx]]])
    if stage == Stage.HARD:
        return ModelOutputs(answer_logprobs=answer_logprobs, box=item.box)

    ids = model.cot_ids[idx]
    lp_cot = _log_softmax(model.cot_logits)
    cot_logprobs = lp_cot[ids] if ids else None
    attention = _softmax(model.attn_logits[idx].ravel()).reshape(model.grid_dims)
    cells = oracle_roi_cells(item.box, model.grid_dims)
    feature_vec = model.features[cells].mean(axis=0)
    anchor_vec = model.anchors[model.anchor_ids[idx]]
    return ModelOutputs(
        answer_logprobs=answer_logprobs,
        cot_logprobs=cot_logprobs,
        attention=attention,
        feature_vec=feature_vec,
        anchor_vec=anchor_vec,
        box=item.box,
    )


def oracle_item_loss(model, idx: int, stage: Union[Stage, str],
                     target_attention: Optional[np.ndarray] = None,
                     weights: StageLossWeights = StageLossWeights()
                     ) -> StageLossBreakdown:
    return oracle_stage_loss(stage, oracle_forward(model, idx, stage),
                             target_attention=target_attention, weights=weights)


def oracle_batch_loss(model, indices, stages, targets,
                      weights: StageLossWeights = StageLossWeights()) -> float:
    """Mean stage-total loss; evaluation only, shares no gradient code."""
    if not (len(indices) == len(stages) == len(targets)):
        raise ValidationError("indices, stages and targets must align")
    if not indices:
        raise ValidationError("empty batch")
    totals = [
        oracle_item_loss(model, i, s, target_attention=t, weights=weights).total
        for i, s, t in zip(indices, stages, targets)
    ]
    return float(np.mean(totals))


def oracle_grounding(model, items, w_ground: float):
    """The Easy grounding of a batch, one item at a time, as the toy model
    computed it before it went batch-wide: per-item ROI sums, BLAS dots
    through ``ndarray.dot`` and a scalar ``** 2``. Returns each item's loss
    and the features and anchors gradients, added in batch order.

    The pooled features and the anchors are rows of ``(m, d)`` arrays, as
    in that loop: some OpenBLAS kernels (Prescott) sum a dot in an order
    that depends on the vectors' alignment."""
    g_features = np.zeros_like(model.features)
    g_anchors = np.zeros_like(model.anchors)
    f = np.empty((len(items), model.feature_dim))
    a = model.anchors[[model.anchor_ids[idx] for idx in items]]
    loss = []
    for row, idx in enumerate(items):
        cells = oracle_roi_cells(model.items[idx].box, model.grid_dims)
        rows, cols = np.nonzero(cells)
        f[row] = np.add.reduce(model.features[rows, cols], axis=0) / rows.size
        nf = np.sqrt(f[row].dot(f[row]))
        na = np.sqrt(a[row].dot(a[row]))
        cos = f[row].dot(a[row]) / (nf * na)
        loss.append(1.0 - cos)
        g_features[rows, cols] += (w_ground * (cos / nf ** 2 * f[row] - a[row] / (nf * na))
                                   / rows.size)
        g_anchors[model.anchor_ids[idx]] += w_ground * (cos / na ** 2 * a[row]
                                                        - f[row] / (nf * na))
    return np.array(loss), g_features, g_anchors


def oracle_item_grads(model, idx: int, stage: Union[Stage, str],
                      target_attention: Optional[np.ndarray] = None,
                      weights: StageLossWeights = StageLossWeights()) -> dict:
    """One item's stage-total gradient in closed form, one full-size array
    per parameter, from the quantities ``oracle_forward`` reads.

    Per term: the answer NLL -log p[answer], with p the softmax of the
    answer logits, gives p - onehot(answer). The rationale NLL, the mean of
    -log p over the item's k sentences, gives p - counts / k. The grounding
    1 - cos(f, a) gives cos f / |f|^2 - a / (|f| |a|) for the pooled
    feature f, shared evenly by the ROI cells f is the mean of, and
    cos a / |a|^2 - f / (|f| |a|) for the anchor a. The divergence
    KL(p || q) of the attention p = softmax(z) from the target q gives
    p (log(p / q) - KL) for z, and 0 where p is 0. Each term is scaled by
    its stage weight; Hard's answer term is not.
    """
    stage = _as_stage(stage)
    out = oracle_forward(model, idx, stage)
    grads = {key: np.zeros_like(getattr(model, key)) for key in PARAM_KEYS}
    grads["ans_logits"] += _softmax(model.ans_logits)
    grads["ans_logits"][model.answer_ids[idx]] -= 1.0
    if stage == Stage.HARD:
        return grads
    grads["ans_logits"] *= weights.w_ans

    if out.cot_logprobs is None:
        raise ValidationError(f"{stage.value} stage needs rationale log probs")
    ids = model.cot_ids[idx]
    counts = np.bincount(ids, minlength=model.cot_logits.size)
    grads["cot_logits"] = weights.w_cot * (_softmax(model.cot_logits) - counts / len(ids))

    if stage == Stage.EASY:
        f, a = out.feature_vec, out.anchor_vec
        nf, na = np.linalg.norm(f), np.linalg.norm(a)
        cos = f.dot(a) / (nf * na)
        cells = oracle_roi_cells(out.box, model.grid_dims)
        grads["features"][cells] = (weights.w_ground * (cos * f / nf**2 - a / (nf * na))
                                    / np.count_nonzero(cells))
        grads["anchors"][model.anchor_ids[idx]] = weights.w_ground * (
            cos * a / na**2 - f / (nf * na))
        return grads

    if target_attention is None:
        raise ValidationError("medium stage needs a target attention mask")
    p = out.attention
    kl = oracle_kl_divergence(p, target_attention)
    support = p > 0.0
    g = np.zeros_like(p)
    g[support] = p[support] * (np.log(p[support] / np.asarray(target_attention)[support])
                               - kl)
    grads["attn_logits"][idx] = weights.w_attn * g
    return grads


def oracle_train(records, params, hp) -> list:
    """The toy run of ``harness.run_toy_training``, item by item: its trace's
    epoch rows, as JSON parses them.

    The real ``CurriculumScheduler`` plans each batch, observes its losses
    and closes each epoch; the batch's hard slots come first. Each item's
    loss and gradient come one at a time from ``oracle_item_loss`` and
    ``oracle_item_grads``; a Medium item's target is its
    ``oracle_build_soft_mask``, built at its first Medium use. A step moves
    each parameter by ``-lr`` times the batch's mean gradient."""
    records = list(records)
    model = ToyModel(records, grid_dims=params.grid_dims, feature_dim=params.feature_dim,
                     seed=params.seed)
    domains = [r.domain.as_str() for r in records]
    scheduler = CurriculumScheduler(hp, domains=sorted(set(domains)), seed=params.seed)
    targets, rows = {}, []
    for _ in range(params.epochs):
        scheduler.start_epoch(domains)
        for _ in range(params.batches_per_epoch):
            plan = scheduler.plan_batch(params.batch_size, hard_pool_size=len(records))
            batch = ([(idx, Stage.HARD) for idx in plan.hard_indices.tolist()]
                     + list(zip(plan.main_indices.tolist(), plan.main_stages)))
            total = {key: np.zeros_like(getattr(model, key)) for key in PARAM_KEYS}
            losses = []
            for idx, stage in batch:
                if stage == Stage.MEDIUM and idx not in targets:
                    targets[idx] = oracle_build_soft_mask(
                        records[idx].box, params.image_dims, params.grid_dims,
                        params.sigma, params.mask_floor).grid
                target = targets[idx] if stage == Stage.MEDIUM else None
                losses.append(oracle_item_loss(model, idx, stage, target, params.weights))
                grads = oracle_item_grads(model, idx, stage, target, params.weights)
                for key in PARAM_KEYS:
                    total[key] += grads[key]
            scheduler.observe([domains[idx] for idx, _ in batch], [s for _, s in batch],
                              [loss.total for loss in losses], [loss.cot for loss in losses])
            for key in PARAM_KEYS:
                getattr(model, key)[...] -= params.lr * (total[key] / len(batch))
        rows.append(json.loads(json.dumps(scheduler.end_of_epoch().to_json_dict())))
    return rows


def dense_grads(model, grads) -> dict:
    """A batch gradient with one full-size array per parameter: the attention
    rows ``grads["attn_rows"]`` scattered into zeros the shape of the
    model's attention logits."""
    dense = {key: grads[key] for key in PARAM_KEYS}
    dense["attn_logits"] = np.zeros_like(model.attn_logits)
    dense["attn_logits"][grads["attn_rows"]] = grads["attn_logits"]
    return dense


def batch_grad_vector(model, indices, stages, targets,
                      weights: StageLossWeights = StageLossWeights()) -> np.ndarray:
    """The model's analytic batch gradient, flattened in parameter order."""
    _, grads = model.batch_loss_and_grads(indices, stages, targets, weights)
    dense = dense_grads(model, grads)
    return np.concatenate([dense[k].ravel() for k in PARAM_KEYS])


def finite_difference_check(f: Callable[[np.ndarray], float],
                            grad: np.ndarray, x: np.ndarray,
                            h: float = 1e-5, guard: float = 1e-8) -> float:
    """Worst-case relative error between ``grad`` and central differences of ``f``.

    Per coordinate: |analytic - numeric| / max(|analytic|, |numeric|, guard).
    ``f`` is treated as a black box; this routine must stay independent of
    any analytic gradient code.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != x.shape:
        raise ValidationError("gradient and point must have the same shape")
    worst = 0.0
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] = x[i] + h
        hi = f(bumped)
        bumped[i] = x[i] - h
        lo = f(bumped)
        numeric = (hi - lo) / (2.0 * h)
        denom = max(abs(grad[i]), abs(numeric), guard)
        worst = max(worst, abs(grad[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# the scheduler's batch draw and epoch statistics


def plan_batch(batch_size: int, lambda_hard: float, hard_pool_size: int,
               main_pool_size: int, p_medium_per_item: np.ndarray,
               rng: np.random.Generator) -> BatchPlan:
    """One batch drawn as ``CurriculumScheduler.plan_batch`` draws it, from
    explicit per-item medium probabilities aligned with the main pool."""
    p = _checked_p_medium(p_medium_per_item, main_pool_size)
    return _draw_batch(batch_size, lambda_hard, hard_pool_size, p, rng)


def oracle_epoch_report(ctx: EpochContext, domains, items) -> EpochReport:
    """The report ``end_of_epoch`` owes for an epoch's observed items, before
    ``close_epoch`` stamps it: each loss added into its sums one item at a
    time, in order. ``domains`` are the scheduler's domains when the epoch
    opened; ``items`` are (domain, stage, total, cot) tuples, cot None when
    the item carries no rationale loss."""
    keys = list(domains)
    counts = {s: 0 for s in Stage}
    total, n_total = 0.0, 0
    sums = {}  # (stage, domain) -> [sum, count]
    cot = {Stage.EASY: [0.0, 0], Stage.MEDIUM: [0.0, 0]}
    for domain, stage, loss, cot_loss in items:
        stage = Stage(stage)
        if domain not in keys:
            keys.append(domain)
        counts[stage] += 1
        total += loss
        n_total += 1
        if stage != Stage.HARD:
            acc = sums.setdefault((stage, domain), [0.0, 0])
            acc[0] += loss
            acc[1] += 1
            if cot_loss is not None:
                cot[stage][0] += cot_loss
                cot[stage][1] += 1

    def mean(acc):
        return acc[0] / acc[1] if acc[1] else None

    stats = {}
    for key in keys:
        easy = sums.get((Stage.EASY, key), [0.0, 0])
        med = sums.get((Stage.MEDIUM, key), [0.0, 0])
        stats[key] = DomainEpochStats(
            mean_easy=mean(easy), count_easy=easy[1], mean_med=mean(med),
            count_med=med[1], progress=ctx.progress.get(key))
    return EpochReport(
        epoch=ctx.epoch, beta=ctx.beta, lambda_hard=ctx.lambda_hard,
        domains=stats, mean_total=mean([total, n_total]),
        cot_easy_mean=mean(cot[Stage.EASY]), cot_med_mean=mean(cot[Stage.MEDIUM]),
        counts=counts)
