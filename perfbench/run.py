"""cotforge benchmark: three workloads, end-to-end metrics, per-layer traces.

Run from the root of a cotforge checkout:

    python3 perfbench/run.py --workload forge-clinical --seed 20251004 \
        --seconds 30 --trace 0

The runner generates the workload's inputs from the seed, times a fresh
interpreter importing `cotforge.cli` (setup), then starts one worker process
that runs passes through the package's public entry points until the
measuring time is spent, one call at a time (a closed loop with a single
caller). It checks every output, prints a table of metrics with units, and
prints one JSON object as its last line. `--trace 1` reports the per-layer
metrics of traced passes instead of the end-to-end ones.

Scratch files go to perfbench/.work/ inside the checkout.
"""

import os

# Pinned before numpy loads, here and in every process started from here,
# so one workload process uses one CPU and the numbers measure the program.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / ".work"

# sha256 of the committed goldens (tests/golden/): the bundled fixtures must
# reproduce them byte for byte.
GOLDEN_FORGE_SHA = "424bb9648a689f765c248a607cc487e22afc1556737f814dcb7a5619712717c8"
GOLDEN_TRACE_SHA = {
    40: "3471a07bdadb2b46b0558121af94ae1e4ba393bffc2e3bef8c21744d62e4d6a3",
    10: "6a2189002ba1ce661acba327ceac626b0d04c8a2d92628cfc5c71fa045d91037",
}
FIXTURES = ROOT / "src" / "cotforge" / "fixtures"

# Every workload runs a forge phase and a train phase, so every end-to-end
# metric applies to each; the phase a workload is not about is kept small.
#   inputs: generator size the forge phase reads
#   forge_reps: forges per pass
#   epochs: training epochs per pass (default harness otherwise)
#   golden: train on the bundled toy corpus, whose trace must equal the
#     golden, and check once per run that the bundled forge fixture forges to
#     the golden corpus; otherwise train on the forged corpus
WORKLOADS = {
    "forge-clinical": dict(inputs="clinical", forge_reps=1, epochs=1, golden=False),
    "train-golden": dict(inputs="clinical-tiny", forge_reps=10, epochs=40, golden=True),
    "pipeline-wide": dict(inputs="wide", forge_reps=2, epochs=10, golden=False),
}
TINY = {
    "forge-clinical": dict(inputs="clinical-tiny", forge_reps=1, epochs=1, golden=False),
    "train-golden": dict(inputs="clinical-tiny", forge_reps=1, epochs=10, golden=True),
    "pipeline-wide": dict(inputs="wide-tiny", forge_reps=1, epochs=1, golden=False),
}
SETUP_RUNS = 6
WORKER_GRACE_S = 150  # one pass may overrun the measuring time by this much


def _fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def _environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class _ImportTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ImportTimeout


def measure_setup(runs):
    """Wall times of a fresh interpreter importing cotforge.cli.

    Not normalised to the speed probe: the import is mostly file and
    kernel work, which does not follow the probe's speed. The child is
    waited for with a blocking wait, since a wait with a timeout polls in
    steps of up to 50 ms; SIGALRM bounds it instead.
    """
    cmd = [sys.executable, "-c", "import cotforge.cli"]
    samples = []
    signal.signal(signal.SIGALRM, _on_alarm)
    for i in range(runs + 1):  # the first one warms the file cache
        signal.alarm(60)
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            code = proc.wait()
            seconds = time.perf_counter() - t0
        except _ImportTimeout:
            proc.kill()
            proc.wait()
            _fail("importing cotforge.cli took over 60 s")
        finally:
            signal.alarm(0)
        if code != 0:
            _fail(f"importing cotforge.cli exited with code {code}")
        if i:
            samples.append(seconds)
    return samples


def run_worker(spec, seconds):
    spec_path = WORK / "spec.json"
    result_path = WORK / "worker-result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=_child_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail("worker did not finish in time")
    if code != 0:
        _fail(f"worker exited with code {code}")
    return json.loads(result_path.read_text())


def tail_percentile(samples):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return q, cuts[int(round(q * 10)) - 1]
    return None


def _stats(samples):
    """Median (0.0 when every attempt failed), count and tail of samples."""
    entry = {"n": len(samples),
             "median": statistics.median(samples) if samples else 0.0,
             "samples": samples}
    tail = tail_percentile(samples)
    if tail:
        entry[f"p{tail[0]:g}"] = tail[1]
    return entry


def prepare(workload, seed, tiny):
    cfg = (TINY if tiny else WORKLOADS)[workload]
    inputs = WORK / "inputs"
    expected = gen.generate(cfg["inputs"], seed, inputs)
    spec = {"workload": workload, "forge_reps": cfg["forge_reps"],
            "epochs": cfg["epochs"], "work": str(WORK),
            "dataset": str(inputs / "dataset.jsonl"),
            "masks": str(inputs / "masks.jsonl"),
            "expected_path": str(inputs / "expected.json"),
            "annotations": len(expected)}
    if cfg["golden"]:
        dataset = FIXTURES / "forge_dataset.jsonl"
        with open(dataset, encoding="utf-8") as fh:
            annotations = sum(len(json.loads(line)["annotations"]) for line in fh)
        spec.update(golden_forge=dict(dataset=str(dataset),
                                      masks=str(FIXTURES / "forge_masks.jsonl"),
                                      annotations=annotations,
                                      corpus_sha=GOLDEN_FORGE_SHA),
                    train_on_forged=False,
                    train_corpus=str(FIXTURES / "toy_corpus.jsonl"),
                    trace_sha=GOLDEN_TRACE_SHA[cfg["epochs"]])
        return spec
    # a trace stored by an earlier run of this seed in this checkout must
    # come out again byte for byte
    memo = WORK / f"{workload}-{cfg['inputs']}-seed{seed}.trace.sha256"
    spec.update(train_on_forged=True,
                trace_sha=memo.read_text().strip() if memo.is_file() else None,
                memo=str(memo))
    return spec


def judge(passes, golden):
    """Attempted and failed operations over all passes, with reasons.

    `golden` is the once-per-run forge of the bundled fixture, or None.
    """
    attempted = failed = 0
    problems = []
    if golden:
        attempted, failed = golden["annotations"], golden["failed"]
        if failed:
            problems.append("the bundled forge fixture does not reproduce the golden corpus")
    for p in passes:
        attempted += p["annotations"] + 1
        failed += p["forge_failed"] + p["train_failed"]
    first = passes[0]
    for p in passes[1:]:
        if p["corpus_sha"] != first["corpus_sha"] or p["trace_sha"] != first["trace_sha"]:
            # a traced pass that differs means tracing perturbed the program
            failed += p["annotations"] + 1
            problems.append("outputs differ between passes"
                            + (" (traced vs untraced)" if p["traced"] else ""))
    if any(p["forge_failed"] for p in passes):
        problems.append("forge outputs disagree with the oracle or golden")
    if any(p["train_failed"] for p in passes):
        problems.append("training aborted or its trace differs from the expected bytes")
    return attempted, failed, problems


def _rates(passes, work, phase):
    """Rates of every timed region at the probe's reference speed.

    The reference-speed rates are the metric; the median wall-clock rate is
    kept in the table and the result file for comparison.
    """
    entry = _stats([work(p) / s for p in passes for s in p.get(f"{phase}_ref_s", [])])
    wall = [work(p) / s for p in passes for s in p[f"{phase}_s"]]
    entry["wall_median"] = statistics.median(wall) if wall else 0.0
    return entry


def end_to_end(spec, passes, setup, peak_rss_mb):
    forge_rates = _rates(passes, lambda p: spec["annotations"], "forge")
    train_rates = _rates(passes, lambda p: p["items"], "train")
    return {
        "setup_s": (_stats(setup), "s"),
        "forge.annotations_per_s": (forge_rates, "1/s"),
        "train.items_per_s": (train_rates, "1/s"),
        "peak_rss_mb": ({"n": 1, "median": peak_rss_mb}, "MB"),
    }


def per_layer(passes, names, annotations):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    last = traced[-1]
    values = {}
    for name in names:
        if name in last["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
    values["forge.records"] = last["records"]
    values["forge.skipped_unassigned"] = last["skipped_unassigned"]
    values["forge.failures"] = last["failures"]
    values["forge.assigned_ratio"] = last["records"] / annotations
    for stage in ("easy", "medium", "hard"):
        values[f"train.items.{stage}"] = last["stage_items"].get(stage, 0)
    values["scheduler.decisions.increase_hard"] = last["increase_hard"]
    values["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "cotforge" / "cli.py",
                   FIXTURES / "toy_corpus.jsonl", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            _fail(f"run from the root of a cotforge checkout ({needed} is missing)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    shutil.rmtree(WORK / "inputs", ignore_errors=True)
    WORK.mkdir(parents=True, exist_ok=True)
    spec = prepare(args.workload, args.seed, args.tiny)
    spec.update(seconds=args.seconds, trace=bool(args.trace))
    setup = None if args.trace else measure_setup(2 if args.tiny else SETUP_RUNS)
    result = run_worker(spec, args.seconds)
    passes = result["passes"]
    if not Path(result["cotforge_file"]).resolve().is_relative_to(ROOT / "src"):
        _fail(f"imported cotforge from {result['cotforge_file']}, not this checkout")

    attempted, failed, problems = judge(passes, result["golden_forge"])
    if spec.get("memo") and not failed:
        Path(spec["memo"]).write_text(passes[0]["trace_sha"] + "\n")

    if args.trace:
        declared = [m["name"] for m in bench["per_layer"]]
        values = per_layer(passes, declared, spec["annotations"])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in declared}
        detail = {name: {"median": values[name]} for name in declared}
    else:
        e2e = end_to_end(spec, passes, setup, result["peak_rss_mb"])
        metrics = {name: {"value": entry["median"], "unit": unit}
                   for name, (entry, unit) in e2e.items()}
        detail = {name: entry for name, (entry, unit) in e2e.items()}

    failed_ratio = failed / attempted
    env = _environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "environment": env, "passes": len(passes),
              "failed_ratio": failed_ratio, "problems": problems,
              "metrics": metrics, "samples": detail}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in detail[name].items()
                         if k not in ("median", "samples"))
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {extra}")
    print(f"  {'failed_ratio':<44} {failed_ratio:>14.6g} ratio  "
          f"failed={failed} attempted={attempted}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": not failed and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
