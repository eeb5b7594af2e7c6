"""The names the benchmark's tracer wraps still exist where it looks them up.

perfbench/tracer.py replaces each (owner, attribute) of its TARGETS with a
timing wrapper, and fails when one is missing. Checking the names here makes
a refactor that drops or moves one fail in the tests, not only when the
benchmark runs. Short traced runs check that the per-batch rows count
batches, and that the forge rows record calls, with `forge.assign_organ`
counting one call per forge. The tracer's source is compiled and run in a
fresh namespace, so nothing is written next to it.
"""

from pathlib import Path

import pytest

from cotforge import fixture_path, forge, jsonl
from cotforge.harness import HarnessParams, run_toy_training
from cotforge.scheduler import SchedulerHyperparams

from corpus_utils import tiny_corpus

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def tracer_namespace():
    namespace = {"__name__": "perfbench_tracer", "__file__": str(TRACER)}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_is_defined_on_its_owner():
    targets = tracer_namespace()["TARGETS"]
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert not missing, f"traced names missing: {missing}"


def test_the_loss_recipe_and_observe_rows_count_batches():
    # a batch's losses are combined in one stage_loss call and observed in
    # one observe call, so both rows read one call per batch
    tracer = tracer_namespace()
    params = HarnessParams(epochs=2, batches_per_epoch=2, batch_size=4,
                           image_dims=(16, 16), grid_dims=(2, 2), feature_dim=3,
                           sigma=2.0, mask_floor=0.001)
    spans = tracer["Tracer"]()
    with tracer["traced"](spans):
        run_toy_training(tiny_corpus(), params, SchedulerHyperparams(warmup_epochs=0))
    metrics = tracer["summarize"](spans.spans)
    batches = params.epochs * params.batches_per_epoch
    assert metrics["losses.stage_loss.calls"] == batches
    assert metrics["scheduler.observe.calls"] == batches


@pytest.mark.parametrize("budget", [None, 1])
def test_the_forge_rows_record_calls_and_assign_organ_counts_forges(chunk_budget, budget):
    # one assign_organ call scores every image, however geometry chunks it
    if budget is not None:
        chunk_budget(budget)
    tracer = tracer_namespace()
    spans = tracer["Tracer"]()
    with tracer["traced"](spans):
        images = jsonl.read_dataset(fixture_path("forge_dataset.jsonl"))
        masks = jsonl.read_masks(fixture_path("forge_masks.jsonl"),
                                 {image.image_id: image for image in images})
        forge.build_corpus(images, masks, forge.TemplateQaGenerator())
    metrics = tracer["summarize"](spans.spans)
    assert len(images) == 3
    assert metrics["jsonl.read_masks.calls"] == 1
    assert metrics["forge.build_corpus.calls"] == 1
    assert metrics["forge.assign_organ.calls"] == 1
