"""Span tracing from outside the program.

The tracer replaces a public name where its caller looks it up (a module
global or a class attribute) with a wrapper that records one span per call:
name, start, end, parent span, and an optional tag taken from the arguments.
Spans stay in memory; `summarize` turns them into per-layer metrics, with a
layer's self time taken as its duration minus that of its direct children
(calls nest strictly, since the traced code runs on one thread).
"""

import contextlib
import functools
import statistics
import time

import cotforge.forge
import cotforge.harness
import cotforge.jsonl
import cotforge.toymodel
from cotforge.scheduler import CurriculumScheduler
from cotforge.toymodel import ToyModel


def _stage_tag(args, kwargs):
    stage = kwargs["stage"] if "stage" in kwargs else args[2]
    return getattr(stage, "value", stage)


# (owner, attribute, span name, tag from (args, kwargs) or None)
TARGETS = (
    (cotforge.jsonl, "read_dataset", "jsonl.read_dataset", None),
    (cotforge.jsonl, "read_masks", "jsonl.read_masks", None),
    (cotforge.jsonl, "rle_decode", "jsonl.rle_decode",
     lambda args, kwargs: len(args[0])),
    (cotforge.jsonl, "write_corpus", "jsonl.write_corpus", None),
    (cotforge.jsonl, "read_corpus", "jsonl.read_corpus", None),
    (cotforge.forge, "build_corpus", "forge.build_corpus", None),
    (cotforge.forge, "assign_organ", "forge.assign_organ", None),
    (cotforge.forge, "mask_iou", "geometry.mask_iou", None),
    (cotforge.forge, "generate_qa", "forge.generate_qa", None),
    (cotforge.harness, "run_toy_training", "harness.run_toy_training", None),
    (cotforge.harness, "build_soft_mask", "geometry.build_soft_mask", None),
    (cotforge.toymodel, "stage_loss", "losses.stage_loss", None),
    (ToyModel, "item_loss_and_grads", "toymodel.item_loss_and_grads",
     _stage_tag),
    (ToyModel, "step", "toymodel.step", None),
    (CurriculumScheduler, "plan_batch", "scheduler.plan_batch", None),
    (CurriculumScheduler, "observe", "scheduler.observe", None),
    (CurriculumScheduler, "end_of_epoch", "scheduler.end_of_epoch", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, tag)
        self._stack = []

    def wrap(self, name, fn, tag_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tag)

        return traced


@contextlib.contextmanager
def traced(tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, tag_of in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, tag_of))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _percentile_us(durations_ns, q):
    if len(durations_ns) < 2:
        return durations_ns[0] / 1e3 if durations_ns else 0.0
    return statistics.quantiles(durations_ns, n=100)[q - 1] / 1e3


def summarize(spans):
    """Per-layer metrics of one traced pass: calls, seconds, self seconds."""
    durations = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])

    out = {}
    for _, _, name, _ in TARGETS:
        ds = durations.get(name, [])
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.s"] = sum(ds) / 1e9
        out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name in ("forge.assign_organ", "toymodel.item_loss_and_grads"):
        ds = durations.get(name, [])
        out[f"{name}.p50_us"] = _percentile_us(ds, 50)
        out[f"{name}.p90_us"] = _percentile_us(ds, 90)
    out["jsonl.rle_decode.runs"] = sum(
        tag for name, _, _, _, tag in spans if name == "jsonl.rle_decode")
    for stage in ("easy", "medium", "hard"):
        out[f"toymodel.item_loss_and_grads.{stage}.s"] = sum(
            end - start for name, start, end, _, tag in spans
            if name == "toymodel.item_loss_and_grads" and tag == stage) / 1e9
    assigns = out["forge.assign_organ.calls"]
    out["forge.iou_evals_per_annotation"] = (
        out["geometry.mask_iou.calls"] / assigns if assigns else 0.0)
    return out
