"""Every JSON boundary of the CLI: bad types, unreadable paths, fuzzed inputs.

Each malformed input must end with the documented exit code (2 for a
config or an unusable output path, 1 for data files and scenarios, 3 for a
backend failure) and exactly one ``error:`` line on stderr, never a
traceback.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cotforge import cli, fixture_path, jsonl
from cotforge.config import AppConfig, load_config
from cotforge.dynamics import DynamicsSpec
from cotforge.errors import ConfigError, ValidationError, parse_json, read_object
from cotforge.forge import ImageRecord, VqaCotRecord
from cotforge.geometry import build_soft_mask
from cotforge.scheduler import SchedulerHyperparams
from cotforge.toymodel import ToyModel

DATASET = [json.loads(line) for line in
           fixture_path("forge_dataset.jsonl").read_text().splitlines()]
MASKS = [json.loads(line) for line in
         fixture_path("forge_masks.jsonl").read_text().splitlines()]
CORPUS = [json.loads(line) for line in
          fixture_path("toy_corpus.jsonl").read_text().splitlines()[:4]]
SCENARIO = json.loads(fixture_path("scenario_rise.json").read_text())
# every hyperparameter spelled out, so the fuzz can replace each of them
SCENARIO["hyperparams"] = {**asdict(SchedulerHyperparams()),
                           **SCENARIO["hyperparams"]}


def _readme_config() -> dict:
    """The full example of the README's "Configuration" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


CONFIG = _readme_config()
HARNESS_RECORDS = jsonl.read_corpus(fixture_path("toy_corpus.jsonl"))[:4]
# a toy run the fuzz can repeat in a moment: 8 records across the corpus's
# domains, 8 epochs of 2 batches of 4, with Medium items from epoch 3
TRAIN_CORPUS = [json.loads(line) for line in
                fixture_path("toy_corpus.jsonl").read_text().splitlines()[::25]]
TRAIN_CONFIG = {
    "scheduler": {**CONFIG["scheduler"], "warmup_epochs": 2, "kappa": 2.0},
    "harness": {**CONFIG["harness"], "epochs": 8, "batch_size": 4,
                "batches_per_epoch": 2, "image_dims": [16, 16],
                "grid_dims": [2, 2], "feature_dim": 3, "sigma": 2.0,
                "mask_floor": 0.001},
}


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def run_main(argv):
    """Run the CLI in-process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def assert_clean_exit(code, stderr, expected=None):
    assert code in {0, 1, 2, 3}
    if expected is not None:
        assert code == expected, stderr
    if code == 0:
        assert stderr == ""
    else:
        assert stderr.startswith("error: ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr


def forge_argv(tmp: Path, dataset=DATASET, masks=MASKS):
    return ["forge", "--dataset", write_jsonl(tmp / "dataset.jsonl", dataset),
            "--masks", write_jsonl(tmp / "masks.jsonl", masks),
            "--out", tmp / "corpus.jsonl"]


# ---------------------------------------------------------------------------
# the reader itself


class TestReadObject:
    def test_nested_field_path_in_message(self):
        line = copy.deepcopy(DATASET[0])
        line["annotations"][1]["box"][2] = "0.9"
        with pytest.raises(ValidationError,
                           match=r"^ctx: field 'annotations\[1\]\.box\.x2' must be a number"):
            read_object(ImageRecord, line, lambda: "ctx", ValidationError)

    def test_constructor_error_carries_path_and_callers_type(self):
        line = copy.deepcopy(DATASET[0])
        line["annotations"][0]["box"] = [0.5, 0.1, 0.5, 0.9]
        with pytest.raises(ConfigError,
                           match=r"^ctx: field 'annotations\[0\]\.box': degenerate"):
            read_object(ImageRecord, line, lambda: "ctx", ConfigError)

    def test_int_widens_to_float_and_box_reads_from_array(self):
        line = copy.deepcopy(DATASET[0])
        line["annotations"][0]["box"] = [0, 0, 1, 1]
        image = read_object(ImageRecord, line, lambda: "ctx", ValidationError)
        assert image.annotations[0].box.as_list() == [0.0, 0.0, 1.0, 1.0]
        assert all(type(v) is float for v in image.annotations[0].box.as_list())

    @pytest.mark.parametrize("patch,message", [
        ({"width": True}, "field 'width' must be an integer, got true or false"),
        ({"width": 64.0}, "field 'width' must be an integer, got a number"),
        ({"width": 2**63}, f"field 'width' must fit in 64 bits, got {2**63}"),
        ({"annotations": {}}, "field 'annotations' must be an array, got an object"),
        ({"shape": 1}, "ctx: unknown keys ['shape']; allowed: "),
        ({"image_id": None}, "field 'image_id' must be a string, got null"),
    ])
    def test_type_rules(self, patch, message):
        line = {**DATASET[0], **patch}
        with pytest.raises(ValidationError) as info:
            read_object(ImageRecord, line, lambda: "ctx", ValidationError)
        assert message in str(info.value)

    def test_missing_field_named(self):
        line = {k: v for k, v in DATASET[0].items() if k != "height"}
        with pytest.raises(ValidationError, match="^ctx: field 'height' is missing$"):
            read_object(ImageRecord, line, lambda: "ctx", ValidationError)

    def test_non_object_top_level(self):
        with pytest.raises(ValidationError,
                           match="^ctx: must be an object, got an integer$"):
            read_object(ImageRecord, 5, lambda: "ctx", ValidationError)


def never_called(*_):
    raise AssertionError("an error context was built for a good input")


class _UnprintablePath(os.PathLike):
    """Opens as ``path``, but fails the test when formatted, as only an error
    message formats it."""

    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return os.fspath(self.path)

    __format__ = __str__ = __repr__ = never_called


class TestContextOnlyOnFailure:
    """``where`` names an input only for an error: a good input never calls it."""

    @pytest.mark.parametrize("cls,value", [
        (ImageRecord, DATASET[0]), (VqaCotRecord, CORPUS[0]),
        (AppConfig, CONFIG), (DynamicsSpec, SCENARIO),
    ])
    def test_read_object_and_parse_json(self, cls, value):
        obj = parse_json(json.dumps(value).encode(), never_called, ValidationError)
        read_object(cls, obj, never_called, ValidationError)

    def test_each_reader_on_good_lines(self, tmp_path):
        def unprintable(name):
            return _UnprintablePath(fixture_path(name))

        images = jsonl.read_dataset(unprintable("forge_dataset.jsonl"))
        masks = jsonl.read_masks(unprintable("forge_masks.jsonl"),
                                 {image.image_id: image for image in images})
        assert sum(map(len, masks.values())) == len(MASKS)
        assert jsonl.read_corpus(unprintable("toy_corpus.jsonl"))
        load_config(_UnprintablePath(write_json(tmp_path / "c.json", CONFIG)))
        DynamicsSpec.from_path(unprintable("scenario_rise.json"))


# ---------------------------------------------------------------------------
# wrong JSON types at every boundary, through the CLI


def _patched(base, path, value):
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


NAN, INF = float("nan"), float("inf")
TYPE_CASES = [
    # (case id, input kind, path, value, exit code, text the error names)
    ("harness-epochs-string", "config", ("harness", "epochs"), "40", 2, "harness.epochs"),
    ("forge-tau-string", "config", ("forge", "tau_iou"), "0.5", 2, "forge.tau_iou"),
    ("scheduler-rho-string", "config", ("scheduler", "rho"), "0.3", 2, "scheduler.rho"),
    ("seed-templates-string", "config", ("forge", "seed_templates"), "abc", 2,
     "forge.seed_templates"),
    ("io-out-number", "config", ("io", "out"), 5, 2, "io.out"),
    ("harness-lr-bool", "config", ("harness", "lr"), True, 2, "harness.lr"),
    ("scenario-rho-string", "scenario", ("hyperparams", "rho"), "0.3", 1,
     "hyperparams.rho"),
    ("scenario-base-string", "scenario",
     ("domains", "mass|CT", "easy", "total", "base"), "x", 1,
     'domains["mass|CT"]["easy"].total.base'),
    ("scenario-epochs-bool", "scenario", ("epochs",), True, 1, "epochs"),
    ("corpus-question-number", "corpus", (1, "question"), 5, 1, "line 2: field 'question'"),
    ("dataset-line-number", "dataset", (0,), 5, 1, "line 1: must be an object"),
    # Python's json reads NaN and Infinity, which JSON does not have
    ("forge-tau-nan", "config", ("forge", "tau_iou"), NAN, 2,
     "field 'forge.tau_iou' must be a finite number, got nan"),
    ("scenario-base-nan", "scenario", ("domains", "mass|CT", "easy", "total", "base"),
     NAN, 1, "total.base' must be a finite number, got nan"),
    ("dataset-box-infinity", "dataset", (0, "annotations", 0, "box", 2), -INF, 1,
     "line 1: field 'annotations[0].box.x2' must be a finite number, got -inf"),
    # a box is an array of its four coordinates, every other record an object
    ("dataset-line-array", "dataset", (0,),
     ["ct_001", 64, 64, "CT", [[{"x1": 0.08, "y1": 0.12, "x2": 0.42, "y2": 0.82}, "mass"]]],
     1, "dataset.jsonl: line 1: must be an object, got an array"),
    ("corpus-box-object", "corpus", (1, "box"),
     {"x1": 0.08, "y1": 0.12, "x2": 0.42, "y2": 0.82}, 1,
     "c.jsonl: line 2: field 'box' must be an array, got an object"),
    ("corpus-box-three-items", "corpus", (1, "box"), [0.08, 0.12, 0.42], 1,
     "c.jsonl: line 2: field 'box' must be an array of 4 items, got 3"),
    ("harness-weights-array", "config", ("harness", "weights"), [0.25, 0.25, 2.0, 1.0], 2,
     "c.json: field 'harness.weights' must be an object, got an array"),
]


def _patched_argv(tmp: Path, kind: str, path, value):
    """A command that reads one input of ``kind`` with ``path`` set to ``value``:
    a config (through ``forge``), a scenario, a corpus or a dataset."""
    if kind == "config":
        io_paths = {"dataset": str(write_jsonl(tmp / "d.jsonl", DATASET)),
                    "masks": str(write_jsonl(tmp / "m.jsonl", MASKS)),
                    "out": str(tmp / "corpus.jsonl")}
        config = _patched({**CONFIG, "io": {**CONFIG["io"], **io_paths}}, path, value)
        return ["forge", "--config", write_json(tmp / "c.json", config)]
    if kind == "scenario":
        return ["simulate", "--scenario",
                write_json(tmp / "s.json", _patched(SCENARIO, path, value)),
                "--out", tmp / "trace.jsonl"]
    if kind == "corpus":
        return ["validate", "--corpus",
                write_jsonl(tmp / "c.jsonl", _patched(CORPUS, path, value))]
    return forge_argv(tmp, dataset=_patched(DATASET, path, value))


@pytest.mark.parametrize("kind,path,value,code,names",
                         [case[1:] for case in TYPE_CASES],
                         ids=[case[0] for case in TYPE_CASES])
def test_wrong_json_type_is_one_error_line(tmp_path, kind, path, value, code, names):
    code_got, stderr = run_main(_patched_argv(tmp_path, kind, path, value))
    assert_clean_exit(code_got, stderr, expected=code)
    assert names in stderr


def test_a_config_array_of_its_sections_is_one_error_line(tmp_path):
    # a record is an object; only a box is read from an array of its fields
    config = write_json(tmp_path / "c.json", [{}, {}, {}, {}])
    code, stderr = run_main(["forge", "--config", config])
    assert_clean_exit(code, stderr, expected=2)
    assert stderr == f"error: config {config}: must be an object, got an array\n"


# json.dumps writes a lone surrogate as a \u escape, which json.loads reads
# back, but which no UTF-8 writer can encode
LONE_SURROGATE = "bad JSON: a string holds a lone UTF-16 surrogate"
SURROGATE_CASES = [
    # (case id, input kind, path, value, exit code, text the error names)
    ("dataset-value", "dataset", (0, "annotations", 1, "lesion_class"), "m\ud800", 1,
     f"dataset.jsonl: line 1: {LONE_SURROGATE}"),
    ("dataset-key", "dataset", (1, "\udc00"), 1, 1,
     f"dataset.jsonl: line 2: {LONE_SURROGATE}"),
    ("corpus-value", "corpus", (1, "cot"), "One\udfff.", 1,
     f"c.jsonl: line 2: {LONE_SURROGATE}"),
    ("scenario-name", "scenario", ("name",), "p\ud800", 1, f"s.json: {LONE_SURROGATE}"),
    ("config-seed-template", "config", ("forge", "seed_templates"),
     ["A {lesion_class} \ud800"], 2, f"c.json: {LONE_SURROGATE}"),
    # a pair of escapes is one character, and is read as it
    ("corpus-pair", "corpus", (1, "cot"), "One \U0001F600.", 0, ""),
]


@pytest.mark.parametrize("kind,path,value,code,names",
                         [case[1:] for case in SURROGATE_CASES],
                         ids=[case[0] for case in SURROGATE_CASES])
def test_lone_surrogate_is_one_error_line(tmp_path, kind, path, value, code, names):
    code_got, stderr = run_main(_patched_argv(tmp_path, kind, path, value))
    assert_clean_exit(code_got, stderr, expected=code)
    assert names in stderr


# a value of the right type that breaks its field's rule

EASY_TOTAL = ("domains", "mass|CT", "easy", "total")
RULE_CASES = [
    # (case id, input kind, path, value, exit code, text the error names)
    ("forge-tau-negative", "config", ("forge", "tau_iou"), -0.5, 2,
     "field 'forge.tau_iou' must be non-negative, got -0.5"),
    ("forge-concurrency-zero", "config", ("forge", "concurrency"), 0, 2,
     "field 'forge.concurrency' must lie in [1, 64], got 0"),
    ("forge-concurrency-65", "config", ("forge", "concurrency"), 65, 2,
     "field 'forge.concurrency' must lie in [1, 64], got 65"),
    ("forge-attempts-zero", "config", ("forge", "remote_attempts"), 0, 2,
     "field 'forge.remote_attempts' must be at least 1, got 0"),
    ("forge-timeout-zero", "config", ("forge", "remote_timeout"), 0, 2,
     "field 'forge.remote_timeout' must lie in (0, 86400], got 0.0"),
    ("forge-backoff-negative", "config", ("forge", "remote_backoff_base"), -0.5, 2,
     "field 'forge.remote_backoff_base' must lie in [0, 86400], got -0.5"),
    ("scheduler-warmup-negative", "config", ("scheduler", "warmup_epochs"), -1, 2,
     "field 'scheduler.warmup_epochs' must be non-negative, got -1"),
    ("scheduler-eps-cot-negative", "config", ("scheduler", "eps_cot"), -0.5, 2,
     "field 'scheduler.eps_cot' must be non-negative, got -0.5"),
    ("scheduler-eta-up-negative", "config", ("scheduler", "eta_up"), -0.5, 2,
     "field 'scheduler.eta_up' must be non-negative, got -0.5"),
    ("scenario-event-kind", "scenario", EASY_TOTAL + ("events", 0, "kind"), "spike", 1,
     "total.events[0].kind' must be one of ['plateau', 'rise'], got 'spike'"),
    ("scenario-event-epoch-zero", "scenario", EASY_TOTAL + ("events", 0, "epoch"), 0, 1,
     "total.events[0].epoch' must be at least 1, got 0"),
    ("scenario-rise-magnitude-zero", "scenario",
     EASY_TOTAL + ("events", 0, "magnitude"), 0.0, 1,
     "total.events[0]': rise needs a positive magnitude"),
    ("scenario-noise-negative", "scenario", EASY_TOTAL + ("noise_std",), -0.1, 1,
     """field 'domains["mass|CT"]["easy"].total.noise_std' must be non-negative, got -0.1"""),
    ("scenario-count-zero", "scenario", ("domains", "mass|CT", "easy", "count"), 0, 1,
     """field 'domains["mass|CT"]["easy"].count' must lie in [1, 1000000], got 0"""),
    # a legal 64-bit int that would allocate one list entry per item
    ("scenario-count-2**62", "scenario", ("domains", "mass|CT", "easy", "count"),
     2**62, 1, """field 'domains["mass|CT"]["easy"].count' must lie in [1, 1000000], """
     f"got {2**62}"),
    ("scenario-epochs-negative", "scenario", ("epochs",), -1, 1,
     "field 'epochs' must be non-negative, got -1"),
    ("scenario-unknown-stage", "scenario", ("domains", "mass|CT", "extreme"),
     {"count": 1, "total": {"base": 1.0}}, 1,
     """field 'domains["mass|CT"]' must name one or more of the stages """
     "['easy', 'medium', 'hard'], got ['easy', 'extreme', 'hard', 'medium']"),
    ("dataset-image-id-empty", "dataset", (0, "image_id"), "", 1,
     "line 1: field 'image_id' must be non-empty, got ''"),
    ("dataset-width-zero", "dataset", (0, "width"), 0, 1,
     "line 1: field 'width' must lie in [1, 8192], got 0"),
    ("dataset-lesion-class-empty", "dataset", (0, "annotations", 1, "lesion_class"), "",
     1, "line 1: field 'annotations[1].lesion_class' must be non-empty, got ''"),
    ("corpus-domain-lesion-empty", "corpus", (1, "domain", "lesion_class"), "", 1,
     "line 2: field 'domain.lesion_class' must be non-empty, got ''"),
]


@pytest.mark.parametrize("kind,path,value,code,names",
                         [case[1:] for case in RULE_CASES],
                         ids=[case[0] for case in RULE_CASES])
def test_broken_rule_is_one_error_line(tmp_path, kind, path, value, code, names):
    code_got, stderr = run_main(_patched_argv(tmp_path, kind, path, value))
    assert_clean_exit(code_got, stderr, expected=code)
    assert names in stderr


# a value of the right type that can never work: a config error before any work

REMOTE = _patched(CONFIG, ("forge", "backend"), "remote")
URL_RULE = "must be an http:// or https:// URL with a host"
UNUSABLE_VALUE_CASES = [
    # (case id, command, config path, value, the message after the config's name)
    ("endpoint-no-scheme", "forge", ("forge", "remote_endpoint"), "not-a-url",
     f"field 'forge.remote_endpoint' {URL_RULE}, got 'not-a-url'"),
    ("endpoint-ftp", "forge", ("forge", "remote_endpoint"), "ftp://qa/x",
     f"field 'forge.remote_endpoint' {URL_RULE}, got 'ftp://qa/x'"),
    ("endpoint-no-host", "forge", ("forge", "remote_endpoint"), "http://",
     f"field 'forge.remote_endpoint' {URL_RULE}, got 'http://'"),
    ("endpoint-bad-ipv6", "forge", ("forge", "remote_endpoint"), "http://[::1/qa",
     f"field 'forge.remote_endpoint' {URL_RULE}, got 'http://[::1/qa'"),
    ("sigma-overflows-blur", "train-toy", ("harness", "sigma"), 1e308,
     "field 'harness': sigma must lie in [0, 64], the larger image dim"),
    ("sigma-negative", "train-toy", ("harness", "sigma"), -1,
     "field 'harness.sigma' must be non-negative, got -1.0"),
    ("mask-floor-too-large", "train-toy", ("harness", "mask_floor"), 0.5,
     "field 'harness': mask_floor must lie in (0, 1/64)"),
    ("grid-exceeds-image", "train-toy", ("harness", "grid_dims"), [128, 8],
     "field 'harness': grid_dims [128, 8] must not exceed image_dims [64, 64]"),
    ("image-dims-unbounded", "train-toy", ("harness", "image_dims"),
     [1099511627776, 64],
     "field 'harness.image_dims[0]' must lie in [1, 8192], got 1099511627776"),
    ("image-dims-past-soft-mask-pixels", "train-toy", ("harness", "image_dims"),
     [8192, 8192],
     "field 'harness.image_dims' must hold at most 4194304 pixels, got [8192, 8192]"),
    ("feature-dim-unbounded", "train-toy", ("harness", "feature_dim"), 2**50,
     "field 'harness.feature_dim' must lie in [1, 4096], got 1125899906842624"),
    # a dict sets several fields of the section: here an image that holds the grid
    ("grid-cells-unbounded", "train-toy", ("harness", "grid_dims"),
     {"image_dims": [4096, 1024], "grid_dims": [4096, 1024]},
     "field 'harness.grid_dims' must have at most 4096 cells, got [4096, 1024]"),
]


@pytest.mark.parametrize("command,path,value,message",
                         [case[1:] for case in UNUSABLE_VALUE_CASES],
                         ids=[case[0] for case in UNUSABLE_VALUE_CASES])
def test_unusable_config_value_is_one_error_line(tmp_path, command, path, value, message):
    if command == "forge":
        argv = forge_argv(tmp_path)
        config = copy.deepcopy(REMOTE)
    else:
        argv = ["train-toy", "--corpus", write_jsonl(tmp_path / "corpus.jsonl", CORPUS),
                "--out", tmp_path / "trace.jsonl"]
        config = copy.deepcopy(CONFIG)
    config[path[0]].update(value if isinstance(value, dict) else {path[1]: value})
    config_file = write_json(tmp_path / "c.json", config)
    code, stderr = run_main(argv + ["--config", config_file])
    assert_clean_exit(code, stderr, expected=2)
    # the whole line: an input that broke a second rule first would fail here
    assert stderr == f"error: config {config_file}: {message}\n"


@pytest.mark.parametrize("command,path", [("simulate", ("scheduler", "kappa")),
                                          ("train-toy", ("harness", "lr"))],
                         ids=["simulate-kappa", "train-toy-lr"])
def test_non_finite_config_value_is_one_error_line(tmp_path, command, path):
    # a NaN would pass every "x < 0" range rule and reach the run
    if command == "simulate":
        argv = ["simulate", "--scenario", "rise"]
    else:
        argv = ["train-toy", "--corpus", write_jsonl(tmp_path / "train.jsonl", TRAIN_CORPUS)]
    config = _patched(TRAIN_CONFIG, path, NAN)
    argv += ["--out", tmp_path / "trace.jsonl",
             "--config", write_json(tmp_path / "c.json", config)]
    code, stderr = run_main(argv)
    assert_clean_exit(code, stderr, expected=2)
    assert f"field '{'.'.join(path)}' must be a finite number, got nan" in stderr
    assert not (tmp_path / "trace.jsonl").exists()


@pytest.mark.parametrize("path", [("harness", "lr"), ("harness", "weights", "w_ans")],
                         ids=["lr", "w_ans"])
def test_overflowing_training_is_one_error_line(tmp_path, path):
    # valid values, so the config loads; the first steps overflow a float
    config = _patched(TRAIN_CONFIG, path, 1e308)
    argv = ["train-toy", "--corpus", write_jsonl(tmp_path / "corpus.jsonl", TRAIN_CORPUS),
            "--out", tmp_path / "trace.jsonl",
            "--config", write_json(tmp_path / "c.json", config)]
    code, stderr = run_main(argv)
    assert_clean_exit(code, stderr, expected=1)
    assert stderr.startswith("error: non-finite value at epoch 1, batch ")
    assert "overflow" in stderr


@pytest.mark.parametrize("path,message", [
    (("harness", "weights", "w_cot"),
     "non-finite loss at epoch 1, batch 0, item 'ct_cyst_000' (easy)"),
    (("harness", "weights", "w_attn"),
     "non-finite loss at epoch 8, batch 1, item 'ct_mass_025' (medium)"),
], ids=["w_cot", "w_attn"])
def test_overflowing_loss_names_its_item(tmp_path, path, message):
    # the weighted total overflows to inf, and the first such item in batch
    # order is named; nothing else in the batch overflows first
    config = _patched(TRAIN_CONFIG, path, 1e308)
    argv = ["train-toy", "--corpus", write_jsonl(tmp_path / "corpus.jsonl", TRAIN_CORPUS),
            "--out", tmp_path / "trace.jsonl",
            "--config", write_json(tmp_path / "c.json", config)]
    code, stderr = run_main(argv)
    assert_clean_exit(code, stderr, expected=1)
    assert stderr == f"error: {message}\n"


@pytest.mark.parametrize("width,height", [(8193, 64), (2**31, 2**31)],
                         ids=["width-8193", "side-2**31"])
def test_oversized_image_is_one_error_line(tmp_path, width, height):
    # a mask of that size would be decoded in full before any check saw it
    dataset = [{**DATASET[0], "width": width, "height": height}]
    masks = [{**MASKS[0], "width": width, "height": height,
              "rle": [0, width * height]}]
    code, stderr = run_main(forge_argv(tmp_path, dataset, masks))
    assert_clean_exit(code, stderr, expected=1)
    assert "line 1" in stderr and "8192" in stderr


# ---------------------------------------------------------------------------
# unreadable inputs and unwritable outputs


def _bad_path(tmp: Path, kind: str) -> Path:
    path = tmp / f"bad-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b'{"name": "\xff\xfe"}\n')
    return path


def _argv_with(tmp: Path, command: str, flag: str, bad: Path):
    if command == "forge":
        argv = forge_argv(tmp)
    elif command == "simulate":
        argv = ["simulate", "--scenario", "rise", "--out", tmp / "trace.jsonl"]
    else:
        argv = [command, "--corpus", write_jsonl(tmp / "corpus.jsonl", CORPUS)]
        if command == "train-toy":
            argv += ["--out", tmp / "trace.jsonl"]
    if flag in argv:
        argv[argv.index(flag) + 1] = bad
    else:
        argv += [flag, bad]
    return argv


# a missing --config or --scenario was already reported cleanly; these were not
UNREADABLE_CASES = [
    (command, flag, kind, code)
    for command, flag, kinds, code in [
        ("forge", "--dataset", ("missing", "directory", "non-utf8"), 1),
        ("forge", "--masks", ("missing", "directory", "non-utf8"), 1),
        ("validate", "--corpus", ("missing", "directory", "non-utf8"), 1),
        ("train-toy", "--corpus", ("missing", "directory", "non-utf8"), 1),
        ("simulate", "--scenario", ("directory", "non-utf8"), 1),
        ("forge", "--config", ("directory", "non-utf8"), 2),
        ("simulate", "--config", ("directory", "non-utf8"), 2),
        ("forge", "--out", ("directory",), 2),
        ("simulate", "--out", ("directory",), 2),
        ("simulate", "--csv", ("directory",), 2),
    ]
    for kind in kinds
]


@pytest.mark.parametrize("command,flag,kind,code", UNREADABLE_CASES)
def test_unusable_path_is_one_error_line(tmp_path, command, flag, kind, code):
    bad = _bad_path(tmp_path, kind)
    code_got, stderr = run_main(_argv_with(tmp_path, command, flag, bad))
    assert_clean_exit(code_got, stderr, expected=code)
    assert str(bad) in stderr


@pytest.mark.parametrize("flag,code", [("--dataset", 1), ("--config", 2), ("--masks", 1),
                                       ("--scenario", 1), ("--corpus", 1)])
def test_too_deeply_nested_json_is_one_error_line(tmp_path, flag, code):
    command = {"--scenario": "simulate", "--corpus": "validate"}.get(flag, "forge")
    # too deep a nest ends in RecursionError, too long an int in a plain ValueError
    for name, text in [("nested", "[" * 100_000), ("long_int", "7" * 5_000)]:
        bad = tmp_path / f"{name}.json"
        bad.write_text(text + "\n", encoding="utf-8")
        code_got, stderr = run_main(_argv_with(tmp_path, command, flag, bad))
        assert_clean_exit(code_got, stderr, expected=code)
        assert "bad JSON" in stderr


# ---------------------------------------------------------------------------
# fuzzing: one value replaced anywhere in a bundled input

SCALARS = st.one_of(
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.integers(min_value=-10, max_value=100),
    st.integers(min_value=-2**70, max_value=-1),
    st.integers(min_value=2**31, max_value=2**70),
    st.floats(),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


# numbers of the right type, so that range rules are reached as often as type
# rules; Hypothesis tries the simplest draw first, which is the first extreme
NUMBERS = st.one_of(st.sampled_from([1e308, -1e308, 5e-324, 0, -1, 0.5]),
                    st.integers(min_value=-10, max_value=200),
                    st.floats())


def mutate(data, doc, top=True, values=JSON_VALUES):
    """Replace the value at a drawn JSON path of ``doc`` with a drawn value.

    Below the top, each container is either replaced whole or descended
    into, with even odds, so shallow and deep paths are both drawn.
    """
    if isinstance(doc, (dict, list)) and doc and (top or data.draw(st.booleans())):
        key = data.draw(st.sampled_from(list(doc) if isinstance(doc, dict)
                                        else range(len(doc))))
        doc = copy.copy(doc)
        doc[key] = mutate(data, doc[key], top=False, values=values)
        return doc
    return data.draw(values)


def _work_is_bounded(scenario) -> bool:
    """A scenario may ask for any number of epochs or items; the fuzz keeps
    runs short, so it discards those it cannot run in a moment."""
    if not isinstance(scenario, dict):
        return True
    sizes = [scenario.get("epochs")]
    domains = scenario.get("domains")
    for stages in (domains.values() if isinstance(domains, dict) else ()):
        for stage in (stages.values() if isinstance(stages, dict) else ()):
            if isinstance(stage, dict):
                sizes.append(stage.get("count"))
    return all(not isinstance(n, int) or n <= 1000 for n in sizes)


FUZZ = settings(max_examples=60, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data(), target=st.sampled_from(["dataset", "masks", "config"]))
def test_fuzzed_forge_inputs(data, target):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dataset = mutate(data, DATASET) if target == "dataset" else DATASET
        masks = mutate(data, MASKS) if target == "masks" else MASKS
        argv = forge_argv(tmp, dataset, masks)
        if target == "config":
            argv += ["--config", write_json(tmp / "c.json", mutate(data, CONFIG))]
        assert_clean_exit(*run_main(argv))


@FUZZ
@given(data=st.data())
def test_fuzzed_corpus(data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write_jsonl(Path(tmp) / "corpus.jsonl", mutate(data, CORPUS))
        assert_clean_exit(*run_main(["validate", "--corpus", corpus]))


@FUZZ
@given(data=st.data())
def test_fuzzed_scenario(data):
    scenario = mutate(data, SCENARIO)
    assume(_work_is_bounded(scenario))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["simulate", "--scenario", write_json(tmp / "s.json", scenario),
                "--out", tmp / "trace.jsonl"]
        assert_clean_exit(*run_main(argv))


@pytest.mark.parametrize("key", list(CONFIG["harness"]))
@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_fuzzed_harness_section(key, data):
    """A harness section that loads must be one training can start from."""
    value = mutate(data, CONFIG["harness"][key], top=False,
                   values=st.one_of(NUMBERS, JSON_VALUES))
    config = {**CONFIG, "harness": {**CONFIG["harness"], key: value}}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            params = load_config(write_json(Path(tmp) / "c.json", config),
                                 env={}).harness
        except ConfigError:
            return
    # valid, but too large to build in a moment
    assume(max(params.image_dims) <= 256)
    build_soft_mask([HARNESS_RECORDS[0].box], params.image_dims, params.grid_dims,
                    sigma=params.sigma, floor=params.mask_floor)
    ToyModel(HARNESS_RECORDS, grid_dims=params.grid_dims,
             feature_dim=params.feature_dim, seed=params.seed)


@settings(FUZZ, max_examples=150)
@given(data=st.data(), target=st.sampled_from(["harness", "scheduler", "corpus"]))
def test_fuzzed_train_toy(data, target):
    corpus, config = TRAIN_CORPUS, TRAIN_CONFIG
    if target == "corpus":
        corpus = mutate(data, TRAIN_CORPUS)
    else:
        config = {**TRAIN_CONFIG, target: mutate(
            data, TRAIN_CONFIG[target], values=st.one_of(NUMBERS, JSON_VALUES))}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path = write_json(tmp / "c.json", config)
        try:
            params = load_config(config_path, env={}).harness
        except ConfigError:
            pass  # the CLI reports it before any work
        else:
            # valid, but too large to train in a moment
            assume(max(params.image_dims) <= 256
                   and params.epochs * params.batches_per_epoch <= 64)
        argv = ["train-toy", "--corpus", write_jsonl(tmp / "corpus.jsonl", corpus),
                "--out", tmp / "trace.jsonl", "--config", config_path]
        assert_clean_exit(*run_main(argv))
