"""Command line front end.

Four subcommands: ``forge`` builds a VQA-CoT corpus from detections plus
organ masks, ``simulate`` runs the curriculum scheduler against a scripted
loss scenario, ``train-toy`` runs the toy training harness over a corpus,
and ``validate`` checks a corpus file.

Exit codes: 0 success, 1 bad input data, 2 bad configuration or usage,
3 QA backend failure.  Every command prints a one-line JSON summary on
success; errors go to stderr as ``error: ...``.
"""

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import jsonl
from .config import ForgeConfig, config_path, load_config
from .dynamics import BUILTIN_SCENARIOS, DynamicsSpec, builtin_scenario_path, run_dynamics_sim
from .errors import BackendError, ConfigError, ValidationError
from .forge import TemplateQaGenerator, build_corpus
from .harness import run_toy_training
from .scheduler import Decision, Trace


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


def _resolve_path(flag_value, io_value, name: str) -> Path:
    value = flag_value or io_value
    if not value:
        raise ConfigError(f"no {name} path given (pass --{name} or set io.{name})")
    return Path(value)


def _refuse_overwrite(args, inputs: dict, outputs: dict) -> None:
    """Stop, before any data is read, if an output path (symlinks resolved)
    is the config file, an input or the other output, or exists and is not
    a regular file (a directory, a FIFO or a device)."""
    files = {}
    for role, path in [("config", config_path(args.config)), *inputs.items(),
                       *outputs.items()]:
        if path:
            try:
                real = os.path.realpath(path)
            except ValueError:  # a NUL byte, which only a config's io section can hold
                raise ConfigError(f"{role} path {str(path)!r} is not a usable path") from None
            if role in outputs:
                if real in files:
                    raise ConfigError(
                        f"{role} path {path} would overwrite the {files[real]} file")
                if os.path.exists(real) and not os.path.isfile(real):
                    raise ConfigError(f"{role} path {path} is not a regular file")
            files.setdefault(real, role)


def _write(write, path, *args) -> None:
    """Run one output writer; a path that cannot be written is a usage error."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _make_backend(cfg: ForgeConfig):
    if cfg.backend == "remote":
        from .remote import RemoteQaGenerator  # here: only this backend needs requests
        return RemoteQaGenerator(
            cfg.remote_endpoint,
            timeout=cfg.remote_timeout,
            attempts=cfg.remote_attempts,
            backoff_base=cfg.remote_backoff_base,
        )
    return TemplateQaGenerator(cfg.template_list())


def _write_trace(out_path: Path, csv_path, trace: Trace, **summary) -> int:
    """Write the trace and its optional CSV, then print the run's summary."""
    header, reports = trace
    rows = [report.to_json_dict() for report in reports]
    _write(jsonl.write_trace, out_path, header, rows)
    if csv_path:
        _write(jsonl.write_trace_csv, Path(csv_path), rows)
    decisions = {decision.value: 0 for decision in Decision}
    for report in reports:
        if report.decision is not None:
            decisions[report.decision.value] += 1
    _emit({
        **summary,
        "final_lambda_hard": (reports[-1].lambda_hard_after if reports
                              else header["hyperparams"]["lambda_hard_init"]),
        "decisions": decisions,
        "out": str(out_path),
    })
    return 0


def cmd_forge(args) -> int:
    cfg = load_config(args.config)
    dataset_path = _resolve_path(args.dataset, cfg.io.dataset, "dataset")
    masks_path = _resolve_path(args.masks, cfg.io.masks, "masks")
    out_path = _resolve_path(args.out, cfg.io.out, "out")
    _refuse_overwrite(args, {"dataset": dataset_path, "masks": masks_path},
                      {"out": out_path})

    images = jsonl.read_dataset(dataset_path)
    images_by_id = {image.image_id: image for image in images}
    masks_by_image = jsonl.read_masks(masks_path, images_by_id)

    result = build_corpus(
        images,
        masks_by_image,
        _make_backend(cfg.forge),
        tau_iou=cfg.forge.tau_iou,
        unassigned_policy=cfg.forge.unassigned_policy,
        seed_templates=cfg.forge.template_list(),
        concurrency=cfg.forge.concurrency,
        skip_failed=args.skip_failed,
    )
    _write(jsonl.write_corpus, out_path, result.records)
    _emit({
        "command": "forge",
        "records": len(result.records),
        "skipped_unassigned": result.skipped_unassigned,
        "truncated_cot": result.truncated_cot,
        "failures": len(result.failures),
        "out": str(out_path),
    })
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    scenario = args.scenario or cfg.io.scenario
    if not scenario:
        raise ConfigError("no scenario given (pass --scenario or set io.scenario)")
    if scenario in BUILTIN_SCENARIOS:
        scenario_path = builtin_scenario_path(scenario)
    else:
        scenario_path = Path(scenario)
    out_path = _resolve_path(args.out, cfg.io.out, "out")
    csv_path = args.csv or cfg.io.csv
    _refuse_overwrite(args, {"scenario": scenario_path},
                      {"out": out_path, "csv": csv_path})

    spec = DynamicsSpec.from_path(scenario_path)
    return _write_trace(out_path, csv_path, run_dynamics_sim(spec),
                        command="simulate", scenario=spec.name, epochs=spec.epochs)


def cmd_train_toy(args) -> int:
    cfg = load_config(args.config)
    corpus_path = _resolve_path(args.corpus, cfg.io.corpus, "corpus")
    out_path = _resolve_path(args.out, cfg.io.out, "out")
    csv_path = args.csv or cfg.io.csv
    _refuse_overwrite(args, {"corpus": corpus_path}, {"out": out_path, "csv": csv_path})

    records = jsonl.read_corpus(corpus_path)
    trace = run_toy_training(records, params=cfg.harness, hp=cfg.scheduler)
    return _write_trace(out_path, csv_path, trace,
                        command="train-toy", epochs=cfg.harness.epochs,
                        corpus_size=len(records))


def cmd_validate(args) -> int:
    records = jsonl.read_corpus(Path(args.corpus), allow_empty_cot=args.allow_empty_cot)
    _emit({
        "command": "validate",
        "records": len(records),
        "corpus": args.corpus,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotforge",
        description="Build VQA-CoT corpora and drive the staged curriculum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forge = sub.add_parser("forge", help="turn detections plus organ masks into a corpus")
    forge.add_argument("--config", help="JSON config file")
    forge.add_argument("--dataset", help="detection dataset (jsonl)")
    forge.add_argument("--masks", help="organ mask sidecar (jsonl)")
    forge.add_argument("--out", help="corpus output path")
    forge.add_argument("--skip-failed", action="store_true",
                       help="record backend failures instead of aborting")
    forge.set_defaults(func=cmd_forge)

    simulate = sub.add_parser("simulate", help="run the scheduler on a scripted scenario")
    simulate.add_argument("--config", help="JSON config file")
    simulate.add_argument("--scenario",
                          help=f"builtin name ({', '.join(BUILTIN_SCENARIOS)}) or a JSON file")
    simulate.add_argument("--out", help="trace output path")
    simulate.add_argument("--csv", help="also write a flat CSV view of the trace")
    simulate.set_defaults(func=cmd_simulate)

    train = sub.add_parser("train-toy", help="train the toy model on a corpus")
    train.add_argument("--config", help="JSON config file")
    train.add_argument("--corpus", help="corpus input path")
    train.add_argument("--out", help="trace output path")
    train.add_argument("--csv", help="also write a flat CSV view of the trace")
    train.set_defaults(func=cmd_train_toy)

    validate = sub.add_parser("validate", help="check a corpus file")
    validate.add_argument("--corpus", required=True, help="corpus path to check")
    validate.add_argument("--allow-empty-cot", action="store_true",
                          help="accept records with an empty rationale (Hard pools)")
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
