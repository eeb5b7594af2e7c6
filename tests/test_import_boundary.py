"""Each command loads only the libraries it runs, and importing the CLI
builds nothing.

scipy serves only the soft masks `train-toy` builds, and requests only the
remote QA backend. Every case runs in a fresh interpreter, since this test
session has loaded both already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cotforge import fixture_path

SRC = Path(__file__).parents[1] / "src"
DEFERRED = ("scipy", "requests")
RUN_CLI = "import sys\nfrom cotforge import cli\nassert cli.main(sys.argv[1:]) == 0\n"


def deferred_loaded_after(code: str, *args) -> list:
    """Which of DEFERRED a fresh interpreter holds after running ``code``."""
    script = (code + "import json, sys\n"
              f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")]))}
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


CASES = [
    # (case id, code, arguments, the deferred modules it loads)
    ("forge", RUN_CLI, lambda tmp: [
        "forge", "--dataset", fixture_path("forge_dataset.jsonl"),
        "--masks", fixture_path("forge_masks.jsonl"), "--out", tmp / "corpus.jsonl"], []),
    ("validate", RUN_CLI, lambda tmp: [
        "validate", "--corpus", fixture_path("toy_corpus.jsonl")], []),
    ("simulate", RUN_CLI, lambda tmp: [
        "simulate", "--scenario", "plateau", "--out", tmp / "sim.jsonl"], []),
    ("import-config-geometry", "import cotforge.config, cotforge.geometry\n",
     lambda tmp: [], []),
    # the deferred import still runs where it is needed
    ("train-toy", RUN_CLI, lambda tmp: [
        "train-toy", "--corpus", fixture_path("toy_corpus.jsonl"),
        "--out", tmp / "trace.jsonl"], ["scipy"]),
]


@pytest.mark.parametrize("code,argv,loaded", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_command_loads_only_what_it_runs(tmp_path, code, argv, loaded):
    assert deferred_loaded_after(code, *argv(tmp_path)) == loaded


def test_importing_the_cli_builds_no_record_code():
    # each record class's code is built at its first build, never at import
    script = ("import cotforge.cli\nfrom cotforge import errors\n"
              "assert errors._built_post_init.cache_info().currsize == 0\n"
              "assert errors._checker.cache_info().currsize == 0\n")
    assert deferred_loaded_after(script) == []
