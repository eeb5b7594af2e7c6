"""One workload process: runs timed passes through cotforge's public entry points.

Started by run.py as `python3 perfbench/worker.py SPEC.json RESULT.json`.
A pass is the path `cotforge forge`, `validate` and `train-toy` take
in-process: read_dataset -> read_masks -> build_corpus -> write_corpus ->
read_corpus, then run_toy_training and write_trace. Passes repeat, one at a
time, until the measuring time is spent. With tracing on, untraced and
traced passes alternate, so the two can be compared byte for byte.

Every pass checks its own outputs outside the timed regions and reports
operations attempted and failed: one forge operation per annotation, one
train operation per training run. A workload that trains on the bundled
toy corpus also forges the bundled forge fixture once, untimed, against
the golden corpus.

Untraced passes run under a SpeedProbe, which samples how fast the CPU runs
while each timed region executes, so every timing is also reported in
seconds at a fixed reference speed.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from cotforge import forge, harness, jsonl  # noqa: E402
from cotforge.config import ForgeConfig  # noqa: E402
from cotforge.errors import BackendError, ValidationError  # noqa: E402
from cotforge.scheduler import SchedulerHyperparams  # noqa: E402

import tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _forge_failures(expected, records):
    """Annotations whose outcome differs from the oracle's.

    Records come in annotation order with unassigned annotations left out,
    so one walk over the expected list pairs each record with its
    annotation. The template backend answers with the organ label.
    """
    got = [(r.image_id, r.box.as_list(), r.answer) for r in records]
    bad = 0
    i = 0
    for image_id, box, organ in expected:
        if i < len(got) and got[i][:2] == (image_id, box):
            bad += got[i][2] != organ
            i += 1
        elif organ is not None:
            bad += 1
    return bad + len(got) - i


def _forge_once(spec, corpus_path):
    """One forge plus read-back; returns ((start, end), result, records read back)."""
    cfg = ForgeConfig()
    t0 = time.perf_counter()
    images = jsonl.read_dataset(spec["dataset"])
    masks = jsonl.read_masks(spec["masks"], {im.image_id: im for im in images})
    result = forge.build_corpus(
        images, masks, forge.TemplateQaGenerator(cfg.template_list()),
        tau_iou=cfg.tau_iou, unassigned_policy=cfg.unassigned_policy,
        seed_templates=cfg.template_list(), concurrency=cfg.concurrency)
    del masks  # every decoded mask stays resident until here
    jsonl.write_corpus(corpus_path, result.records)
    back = jsonl.read_corpus(corpus_path)
    return (t0, time.perf_counter()), result, back


def run_pass(spec, work, label):
    """One forge phase and one train phase; returns timings, counts, checks.

    Timings are lists of (start, end) regions: "forge" has one per forge,
    "train" one for the training run.
    """
    out = {"forge": [], "annotations": 0, "forge_failed": 0, "records": 0,
           "skipped_unassigned": 0, "failures": 0, "corpus_sha": None}
    corpus_path = work / f"corpus-{label}.jsonl"
    back = None
    for _ in range(spec["forge_reps"]):
        out["annotations"] += spec["annotations"]
        try:
            region, result, back = _forge_once(spec, corpus_path)
        except (ValidationError, BackendError) as exc:
            print(f"forge failed: {exc}", file=sys.stderr)
            out["forge_failed"] += spec["annotations"]
            continue
        out["forge"].append(region)
        out["records"] = len(result.records)
        out["skipped_unassigned"] = result.skipped_unassigned
        out["failures"] = len(result.failures)
        out["corpus_sha"] = _sha256(corpus_path)
        bad = _forge_failures(spec["expected"], result.records)
        roundtrip = [r.to_json_dict() for r in back] != [
            r.to_json_dict() for r in result.records]
        out["forge_failed"] += spec["annotations"] if roundtrip else bad

    params = harness.HarnessParams(epochs=spec["epochs"])
    out.update(train=[], items=0, train_failed=0, trace_sha=None,
               stage_items={}, increase_hard=0)
    records = (back if spec["train_on_forged"]
               else jsonl.read_corpus(spec["train_corpus"]))
    if not records:
        out["train_failed"] = 1
        return out
    t0 = time.perf_counter()
    try:
        trace = harness.run_toy_training(records, params=params,
                                         hp=SchedulerHyperparams())
    except ValidationError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        out["train_failed"] = 1
        return out
    out["train"].append((t0, time.perf_counter()))
    out["items"] = params.epochs * params.batches_per_epoch * params.batch_size
    trace_path = work / f"trace-{label}.jsonl"
    jsonl.write_trace(trace_path, trace.header,
                      [r.to_json_dict() for r in trace.reports])
    out["trace_sha"] = _sha256(trace_path)
    if spec.get("trace_sha") and out["trace_sha"] != spec["trace_sha"]:
        out["train_failed"] = 1
    for stage in ("easy", "medium", "hard"):
        out["stage_items"][stage] = sum(r.counts[stage] for r in trace.reports)
    out["increase_hard"] = sum(
        r.decision is not None and r.decision.value == "increase_hard"
        for r in trace.reports)
    return out


def check_golden_forge(golden, work):
    """Forge the bundled fixture once, untimed; it must give the golden corpus."""
    corpus_path = work / "corpus-golden.jsonl"
    try:
        _forge_once(golden, corpus_path)
    except (ValidationError, BackendError) as exc:
        print(f"golden forge failed: {exc}", file=sys.stderr)
        return golden["annotations"]
    return 0 if _sha256(corpus_path) == golden["corpus_sha"] else golden["annotations"]


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    spec["expected"] = json.loads(Path(spec["expected_path"]).read_text())
    work = Path(spec["work"])
    golden = None
    if spec.get("golden_forge"):
        golden = {"annotations": spec["golden_forge"]["annotations"],
                  "failed": check_golden_forge(spec["golden_forge"], work)}
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        is_traced = spec["trace"] and len(passes) % 2 == 1
        label = "traced" if is_traced else "plain"
        t0 = time.perf_counter()
        if is_traced:
            with tracer.traced(tracer.Tracer()) as tr:
                record = run_pass(spec, work, label)
            record["layers"] = tracer.summarize(tr.spans)
        elif spec["trace"]:  # the untraced side of the overhead ratio
            record = run_pass(spec, work, label)
        else:
            with SpeedProbe() as probe:
                record = run_pass(spec, work, label)
        record["wall_s"] = time.perf_counter() - t0
        for phase in ("forge", "train"):
            regions = record.pop(phase)
            record[f"{phase}_s"] = [end - start for start, end in regions]
            if regions and not spec["trace"]:
                record[f"{phase}_ref_s"] = probe.reference_seconds(regions)
        record["traced"] = is_traced
        passes.append(record)
        done = time.perf_counter() >= deadline
        if done and (not spec["trace"] or len(passes) >= 2):
            break
    result = {
        "passes": passes,
        "golden_forge": golden,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cotforge_file": forge.__file__,
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
