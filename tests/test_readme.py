"""The README's examples: its JSON blocks read as the types they show, and
its quick-start commands run."""

import json
import re
import shlex
from pathlib import Path

from cotforge import cli, fixture_path, jsonl
from cotforge.config import AppConfig, load_config
from cotforge.dynamics import DynamicsSpec
from cotforge.errors import ValidationError, read_object
from cotforge.forge import ImageRecord, VqaCotRecord

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def json_block(key):
    """The one JSON block of the README whose text holds `key`."""
    [block] = [b for b in code_blocks("json") if key in b]
    return json.loads(block)


def one_line_file(tmp_path, obj):
    path = tmp_path / "example.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path


def test_config_block_is_the_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json_block('"scheduler"')), encoding="utf-8")
    assert load_config(str(path), env={}) == AppConfig()


def test_dataset_line_reads_as_an_image(tmp_path):
    [image] = jsonl.read_dataset(one_line_file(tmp_path, json_block('"annotations"')))
    assert isinstance(image, ImageRecord)
    assert image.annotations[0].lesion_class == "mass"


def test_corpus_line_reads_as_a_record(tmp_path):
    [record] = jsonl.read_corpus(one_line_file(tmp_path, json_block('"question"')))
    assert isinstance(record, VqaCotRecord)
    assert record.generator_id == "template-v1"


def test_mask_line_is_the_bundled_first_line_cut_short():
    shown = json_block('"rle"')
    first = json.loads(fixture_path("forge_masks.jsonl").read_text().splitlines()[0])
    *runs, elided = shown.pop("rle")
    assert elided == "..." and runs
    assert first.pop("rle")[:len(runs)] == runs
    assert shown == first


def test_scenario_block_reads_as_a_spec():
    spec = read_object(DynamicsSpec, json_block('"domains"'), lambda: "scenario",
                       ValidationError)
    assert isinstance(spec, DynamicsSpec)
    assert spec.name == "rise"


def quick_start_commands():
    [block] = [b for b in code_blocks("sh") if "cotforge forge" in b]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cotforge ")]


def test_quick_start_commands_run(tmp_path, capsys, monkeypatch):
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == ["forge", "validate", "simulate", "train-toy"]
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("COTFORGE_CONFIG", raising=False)
    for argv in commands:
        argv = [str(tmp_path / arg[len("/tmp/"):]) if arg.startswith("/tmp/") else arg
                for arg in argv]
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.jsonl", "sim.csv", "sim.jsonl", "trace.jsonl"]
